//! End-to-end check of `repro count`: the numbers, the survivor counter's
//! cache statistics, the per-phase fields of `--json`, and the order of the
//! printed lines, which must not depend on the tuple count running on a
//! second thread. Drives the real binary (`CARGO_BIN_EXE_repro`).

use std::process::Command;

use beast_engine::checkpoint::JsonValue;

#[test]
fn count_16_reports_pinned_numbers_in_order() {
    let dir = std::env::temp_dir().join("beast-count-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("count16.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["count", "16", "--json", path.to_str().unwrap()])
        .output()
        .expect("repro binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "repro count failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let int = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or_else(|| panic!("{key}"));
    assert_eq!(int("survivors"), 1824);
    assert_eq!(int("tuples"), 8_259_231_744);
    assert_eq!(
        ["cache_hits", "cache_misses", "enumerated", "domains_rejected", "residue_classes_pruned"]
            .map(int),
        [48, 5787, 7523, 1621, 300]
    );
    for key in ["survivors_s", "tuples_s", "cross_check_s"] {
        let secs = match doc.get(key) {
            Some(JsonValue::Float(s)) => *s,
            Some(JsonValue::Int(n)) => *n as f64,
            other => panic!("{key}: {other:?}"),
        };
        assert!(secs >= 0.0, "{key}: {secs}");
    }
    assert!(int("survivors_memo_bytes") > 0);
    assert!(int("tuples_memo_bytes") > 0);

    let stdout = String::from_utf8(out.stdout).unwrap();
    let levels = [
        "dim_m", "dim_n", "blk_k", "dim_vec", "tex_a", "tex_b", "shmem_l1", "shmem_banks",
        "blk_m", "blk_n", "vec_mul", "dim_m_a", "dim_n_a", "dim_m_b", "dim_n_b",
    ];
    let expected: Vec<&str> = [
        "=== exact survivor count",
        "survivors 1824  (",
        "tuples    8259231744  (",
        "survival rate ",
        "cache: 48 hits, 5787 misses",
        "level ",
    ]
    .into_iter()
    .chain(levels)
    .chain([
        "sweep cross-check: 1824 survivors (",
        "count matches the engine sweep",
        "wrote count JSON to ",
    ])
    .collect();
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), expected.len(), "{stdout}");
    for (line, prefix) in lines.iter().zip(expected) {
        assert!(line.starts_with(prefix), "expected `{prefix}`, got `{line}`:\n{stdout}");
    }
}
