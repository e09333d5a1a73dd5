//! End-to-end checks of `repro`'s default constraint schedule.
//!
//! The check order is fixed on the lowered plan before compilation, and the
//! CLI default is the cost-model `static` order, so a plain `repro sweep`
//! runs the batched lane tier. `--schedule adaptive` is still accepted and
//! means `static`. Everything here drives the real binary
//! (`CARGO_BIN_EXE_repro`) and reads its `--json` dumps.

use std::process::Command;

use beast_engine::checkpoint::JsonValue;

const DIM: &str = "16";

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("beast-schedule-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Run `repro` with `args` plus `--json <scratch/name>` and parse the dump.
fn run_json(args: &[&str], name: &str) -> JsonValue {
    let path = scratch(name);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--json", path.to_str().unwrap()])
        .output()
        .expect("repro binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

fn fingerprint(doc: &JsonValue) -> String {
    doc.get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn report_u64(doc: &JsonValue, key: &str) -> u64 {
    doc.get("report")
        .unwrap()
        .get(key)
        .unwrap()
        .as_u64()
        .unwrap()
}

/// Per-constraint `(name, evaluated, pruned)` rows of a sweep report.
fn constraint_rows(doc: &JsonValue) -> Vec<(String, u64, u64)> {
    doc.get("report")
        .unwrap()
        .get("constraints")
        .unwrap()
        .items()
        .unwrap()
        .iter()
        .map(|row| {
            (
                row.get("name").unwrap().as_str().unwrap().to_string(),
                row.get("evaluated").unwrap().as_u64().unwrap(),
                row.get("pruned").unwrap().as_u64().unwrap(),
            )
        })
        .collect()
}

/// The default sweep is the static schedule on the lane path, and its kill
/// attribution and fingerprint equal those of an explicit `--schedule
/// static`, of the `adaptive` spelling, and of a single-threaded run.
#[test]
fn default_sweep_is_static_on_the_lane_path() {
    let default = run_json(&["sweep", DIM, "--threads", "2"], "default.json");
    let schedule = default.get("report").unwrap().get("schedule").unwrap();
    assert_eq!(schedule.get("mode").unwrap().as_str(), Some("static"));
    assert!(
        report_u64(&default, "lane_evals") > 0,
        "default sweep never ran the lane tier"
    );

    let rows = constraint_rows(&default);
    assert!(
        rows.iter().any(|&(_, _, pruned)| pruned > 0),
        "degenerate sweep"
    );
    let super_hits = default
        .get("report")
        .unwrap()
        .get("super_hits")
        .unwrap()
        .clone();
    for (args, name) in [
        (
            &["sweep", DIM, "--threads", "2", "--schedule", "static"][..],
            "static.json",
        ),
        (
            &["sweep", DIM, "--threads", "2", "--schedule", "adaptive"][..],
            "adaptive.json",
        ),
        (&["sweep", DIM, "--threads", "1"][..], "threads1.json"),
    ] {
        let doc = run_json(args, name);
        assert_eq!(
            fingerprint(&doc),
            fingerprint(&default),
            "{args:?}: fingerprint"
        );
        assert_eq!(
            constraint_rows(&doc),
            rows,
            "{args:?}: per-constraint counts"
        );
        assert_eq!(
            doc.get("report").unwrap().get("super_hits").unwrap(),
            &super_hits,
            "{args:?}: superinstruction counters"
        );
        assert!(
            report_u64(&doc, "lane_evals") > 0,
            "{args:?}: lane tier idle"
        );
    }
}

/// Workers launched with the `adaptive` spelling run the same static
/// engine as the supervisor: the handshake succeeds and the merge
/// reproduces the default in-process sweep.
#[test]
fn distribute_with_adaptive_spelling_matches_the_default_sweep() {
    let sweep = run_json(&["sweep", DIM, "--threads", "2"], "dist-ref.json");
    let dist = run_json(
        &[
            "distribute",
            DIM,
            "--workers",
            "2",
            "--schedule",
            "adaptive",
        ],
        "dist.json",
    );
    assert_eq!(fingerprint(&dist), fingerprint(&sweep));
    assert_eq!(constraint_rows(&dist), constraint_rows(&sweep));
    let spawned = dist
        .get("report")
        .unwrap()
        .get("fault_counters")
        .unwrap()
        .get("workers_spawned")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        spawned, 2,
        "workers must pass the handshake, not degrade in-process"
    );
}
