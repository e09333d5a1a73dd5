//! In-process companion of `benchmark/run.py`.
//!
//! ```text
//! beast-perf-tracer pin SPEC...          pinned references: walker survivors and
//!                                        order fingerprint, cross-checked with
//!                                        Counter::total; SPEC = <p><tt>:<dim>,
//!                                        e.g. dnn:32
//! beast-perf-tracer replay REPRO OP...   replay each benchmark op in-process,
//!                                        once with layer spans recorded and once
//!                                        without; OP = sweep:DIM | count:DIM |
//!                                        native:DIM | distribute:DIM |
//!                                        prepare:DIM | serve:SPEC,SPEC,...
//! ```
//!
//! Each op is replayed with the engine options the `repro` CLI op uses, so
//! `run.py` can require the replay's per-constraint counts and fingerprint
//! to equal the CLI op's `--json` report. Spans are timed around the
//! layers' public calls only; nothing inside the program is instrumented.
//! Output is one JSON object per line on stdout.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use beast_core::analyze::{check_space, LintGate};
use beast_core::analyze::{CountStats, Counter};
use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_core::schedule::{static_schedule, ScheduleMode};
use beast_engine::checkpoint::JsonValue;
use beast_engine::compiled::{Compiled, EngineOptions, EngineTier};
use beast_engine::distribute::{run_distributed, DistributeOptions};
use beast_engine::native::NativeContext;
use beast_engine::parallel::{run_parallel_report, ParallelOptions};
use beast_engine::service::{ServiceConfig, SweepService};
use beast_engine::telemetry::SweepReport;
use beast_engine::visit::{CountVisitor, FingerprintVisitor};
use beast_engine::walker::{LoopStyle, Walker};
use beast_gemm::{build_gemm_space, gemm_resolver, resolve_gemm_space, GemmSpaceParams};

/// Parallelism of every op; `run.py` passes the same values to `repro`.
const THREADS: usize = 2;
/// Daemon shape for the serve workload: threads × executors stays within
/// the two cores the benchmark budgets for.
const SERVE_THREADS: usize = 1;
const SERVE_EXECUTORS: usize = 2;
const SERVE_CHUNKS: usize = 32;
const SERVE_CLIENTS: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pin") => args[1..].iter().try_for_each(|spec| pin(spec)),
        Some("replay") if args.len() >= 2 => replay_all(&args[1], &args[2..]),
        _ => Err("usage: beast-perf-tracer pin SPEC... | replay REPRO OP...".to_string()),
    };
    if let Err(e) = result {
        eprintln!("beast-perf-tracer: {e}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Span recorder kept in memory and written out after the op. With `on`
/// false every call is a no-op, which is the untraced replay.
struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) {
        if self.on {
            let parent = self.open.last().copied();
            self.open.push(self.spans.len());
            let start = self.epoch.elapsed();
            self.spans.push(Span {
                name,
                parent,
                start,
                end: start,
            });
        }
    }

    fn end(&mut self) {
        if self.on {
            let i = self.open.pop().expect("end() without begin()");
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[\"{}\",{},{:.9},{:.9}]",
                    s.name,
                    s.parent.map_or(-1, |p| p as i64),
                    s.start.as_secs_f64(),
                    s.end.as_secs_f64()
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

// ---------------------------------------------------------------------------
// Pinned references
// ---------------------------------------------------------------------------

/// `dnn:32` → the service's `"space"` object for that GEMM variant.
fn space_doc(spec: &str) -> Result<String, String> {
    let (case, dim) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad spec `{spec}`"))?;
    let dim: i64 = dim.parse().map_err(|_| format!("bad dim in `{spec}`"))?;
    if case.len() != 3 {
        return Err(format!("bad case in `{spec}`"));
    }
    Ok(format!(
        "{{\"kind\":\"gemm\",\"reduced\":{dim},\"precision\":\"{}\",\"transpose\":\"{}\"}}",
        &case[..1],
        &case[1..]
    ))
}

fn resolve(spec: &str) -> Result<LoweredPlan, String> {
    let doc = JsonValue::parse(&space_doc(spec)?).map_err(|e| e.to_string())?;
    Ok(resolve_gemm_space(&doc)?.plan)
}

fn opt(v: Option<u128>) -> String {
    v.map_or("null".to_string(), |n| n.to_string())
}

fn pin(spec: &str) -> Result<(), String> {
    let lp = resolve(spec)?;
    let t = Instant::now();
    let walked = Walker::new(&lp.plan, LoopStyle::RangeLazy)
        .run(FingerprintVisitor::default())
        .map_err(|e| format!("{spec}: walker: {e}"))?
        .visitor;
    let walker_s = t.elapsed().as_secs_f64();
    let counted = Counter::new(&lp)
        .total()
        .map_err(|e| format!("{spec}: count: {e}"))?;
    let tuples = Counter::tuples(&lp)
        .total()
        .map_err(|e| format!("{spec}: tuples: {e}"))?;
    if counted.is_some_and(|n| n != u128::from(walked.count)) {
        return Err(format!(
            "{spec}: walker found {} survivors, Counter {counted:?}",
            walked.count
        ));
    }
    println!(
        "{{\"spec\":\"{spec}\",\"survivors\":{},\"fingerprint\":\"{:016x}\",\"counted\":{},\"tuples\":{},\"walker_s\":{walker_s:.3}}}",
        walked.count,
        walked.hash,
        opt(counted),
        opt(tuples)
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

fn replay_all(repro: &str, ops: &[String]) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    for (i, op) in ops.iter().enumerate() {
        let (kind, arg) = op.split_once(':').ok_or_else(|| format!("bad op `{op}`"))?;
        // Alternate which replay goes first, so neither always meets the
        // colder caches.
        let mut walls = [0.0f64; 2];
        let mut traced = None;
        for pass in 0..2 {
            let on = (pass + i) % 2 == 0;
            let mut trace = Trace::new(on);
            trace.begin("op");
            let result = replay(&mut trace, repro, kind, arg)?;
            trace.end();
            walls[usize::from(on)] = trace.epoch.elapsed().as_secs_f64();
            if on {
                traced = Some((trace.json(), result));
            }
        }
        let (spans, result) = traced.expect("one pass is traced");
        writeln!(
            out,
            "{{\"op\":\"{op}\",\"traced_s\":{:.9},\"untraced_s\":{:.9},\"spans\":{spans},\"result\":{result}}}",
            walls[1], walls[0]
        )
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

fn replay(t: &mut Trace, repro: &str, kind: &str, arg: &str) -> Result<String, String> {
    if kind == "serve" {
        return serve_round(t, arg);
    }
    let dim: i64 = arg.parse().map_err(|_| format!("bad dim `{arg}`"))?;
    t.begin("space.build");
    let space = build_gemm_space(&GemmSpaceParams::reduced(dim)).map_err(|e| e.to_string())?;
    t.end();
    t.begin("plan.new");
    let plan = Plan::new(&space, PlanOptions::default()).map_err(|e| e.to_string())?;
    t.end();
    t.begin("ir.lower");
    let lp = LoweredPlan::new(&plan).map_err(|e| e.to_string())?;
    t.end();
    match kind {
        "sweep" => sweep(t, &lp, cli_engine(EngineTier::Compiled)),
        "native" => sweep(t, &lp, cli_engine(EngineTier::Native)),
        "count" => count(t, lp),
        "distribute" => distribute(t, &lp, repro, dim),
        "prepare" => prepare_cold(t, &lp),
        _ => Err(format!("unknown op kind `{kind}`")),
    }
}

/// The engine options `repro` builds from its default flags (its default
/// schedule is adaptive, unlike the library's declared default).
fn cli_engine(tier: EngineTier) -> EngineOptions {
    EngineOptions {
        schedule: ScheduleMode::Adaptive,
        engine: tier,
        ..EngineOptions::default()
    }
}

/// `repro [--engine native] sweep DIM --threads 2`. The driver lints and
/// compiles inside `run_parallel_report`; those two layers are timed here
/// by separate calls with the same inputs, and the driver itself runs with
/// the lint gate off so the lint is not paid twice.
fn sweep(t: &mut Trace, lp: &LoweredPlan, engine: EngineOptions) -> Result<String, String> {
    let native = engine.engine == EngineTier::Native;
    // With the native tier active, the driver normalizes the in-process
    // engine it compiles for fallback chunks to declared-order accounting.
    let compiled_opts = if native {
        EngineOptions {
            intervals: false,
            congruence: false,
            schedule: ScheduleMode::Declared,
            ..engine
        }
    } else {
        engine
    };
    t.begin("analyze.lint");
    let mut linted = lp.clone();
    if compiled_opts.schedule != ScheduleMode::Declared {
        static_schedule(&mut linted);
    }
    std::hint::black_box(check_space(&linted));
    t.end();
    t.begin("compiled.build");
    std::hint::black_box(Compiled::with_options(
        lp.clone(),
        EngineOptions {
            lint: LintGate::Allow,
            ..compiled_opts
        },
    ));
    t.end();
    if native {
        t.begin("native.prepare");
        NativeContext::prepare(lp, &engine).map_err(|e| format!("native tier unavailable: {e}"))?;
        t.end();
    }
    let mut opts = ParallelOptions::new(THREADS);
    opts.engine = EngineOptions {
        lint: LintGate::Allow,
        ..engine
    };
    t.begin(if native {
        "native.sweep"
    } else {
        "parallel.sweep"
    });
    let (out, report) = run_parallel_report(lp, &opts, FingerprintVisitor::default)
        .map_err(|e| format!("sweep: {e}"))?;
    t.end();
    Ok(sweep_json(&out.visitor, &report))
}

fn sweep_json(fp: &FingerprintVisitor, report: &SweepReport) -> String {
    format!(
        "{{\"fingerprint\":\"{:016x}\",\"survivors\":{},\"report\":{}}}",
        fp.hash,
        fp.count,
        report.to_json()
    )
}

fn stats_json(s: &CountStats) -> String {
    format!(
        "{{\"cache_hits\":{},\"cache_misses\":{},\"enumerated\":{},\"domains_rejected\":{},\"residue_classes_pruned\":{}}}",
        s.cache_hits, s.cache_misses, s.enumerated, s.domains_rejected, s.residue_classes_pruned
    )
}

/// `repro count DIM`: survivor count, tuple count, then (when the survivor
/// count completed) the serial cross-check sweep on the compiled engine.
fn count(t: &mut Trace, lp: LoweredPlan) -> Result<String, String> {
    t.begin("count.survivors");
    let mut counter = Counter::new(&lp);
    let survivors = counter.total().map_err(|e| e.to_string())?;
    t.end();
    t.begin("count.tuples");
    let mut tuple_counter = Counter::tuples(&lp);
    let tuples = tuple_counter.total().map_err(|e| e.to_string())?;
    t.end();
    let (mut swept, mut evaluated) = (None, None);
    if survivors.is_some() {
        // `Compiled::new` lints (default gate) and compiles in one call.
        t.begin("analyze.lint");
        std::hint::black_box(check_space(&lp));
        t.end();
        t.begin("compiled.build");
        let compiled = Compiled::with_options(
            lp.clone(),
            EngineOptions {
                lint: LintGate::Allow,
                ..EngineOptions::default()
            },
        );
        t.end();
        t.begin("compiled.sweep");
        let out = compiled
            .run(CountVisitor::default())
            .map_err(|e| e.to_string())?;
        t.end();
        swept = Some(u128::from(out.visitor.count));
        evaluated = Some(out.stats.evaluated.iter().map(|&n| u128::from(n)).sum());
    }
    // Both counters live to the end of the op, as in `repro count`, and
    // freeing their memo tables is a cost of its own.
    let (survivor_stats, tuple_stats) = (counter.stats().clone(), tuple_counter.stats().clone());
    t.begin("count.free");
    drop(counter);
    drop(tuple_counter);
    t.end();
    Ok(format!(
        "{{\"survivors\":{},\"tuples\":{},\"swept\":{},\"evaluated\":{},\"survivor_counter\":{},\"tuple_counter\":{}}}",
        opt(survivors),
        opt(tuples),
        opt(swept),
        opt(evaluated),
        stats_json(&survivor_stats),
        stats_json(&tuple_stats)
    ))
}

/// The native tier's set-up on an empty artifact cache: emit the C worker
/// and compile it with the host compiler.
fn prepare_cold(t: &mut Trace, lp: &LoweredPlan) -> Result<String, String> {
    let dir = std::env::var("BEAST_NATIVE_CACHE_DIR")
        .map_err(|_| "prepare ops need BEAST_NATIVE_CACHE_DIR, the cache they empty")?;
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with("worker-") {
                std::fs::remove_file(entry.path()).map_err(|e| format!("empty {dir}: {e}"))?;
            }
        }
    }
    t.begin("native.prepare");
    let ctx = NativeContext::prepare(lp, &cli_engine(EngineTier::Native))
        .map_err(|e| format!("native tier unavailable: {e}"))?;
    t.end();
    Ok(format!("{{\"compile_ms\":{}}}", ctx.stats().compile_ms))
}

/// `repro distribute DIM --workers 2`, with the worker command `repro`
/// builds for itself.
fn distribute(t: &mut Trace, lp: &LoweredPlan, repro: &str, dim: i64) -> Result<String, String> {
    let worker_cmd = vec![
        repro.to_string(),
        "worker".to_string(),
        dim.to_string(),
        "--schedule".to_string(),
        "adaptive".to_string(),
    ];
    let mut opts = DistributeOptions::new(THREADS, worker_cmd);
    opts.engine = cli_engine(EngineTier::Compiled);
    t.begin("distribute.sweep");
    let (out, report) = run_distributed(lp, &opts, FingerprintVisitor::default)
        .map_err(|e| format!("distribute: {e}"))?;
    t.end();
    Ok(sweep_json(&out.visitor, &report))
}

/// One HTTP/1.1 exchange; the daemon always closes after one response.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let status = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    match (status, raw.split_once("\r\n\r\n")) {
        (Some(status), Some((_, payload))) => Ok((status, payload.to_string())),
        _ => Err(format!("malformed response: {raw:.80}")),
    }
}

/// One round of the serve workload against an in-process daemon with the
/// `repro serve` configuration and a fresh cache file: two closed-loop
/// clients take the next request from the shared stream.
fn serve_round(t: &mut Trace, arg: &str) -> Result<String, String> {
    let specs: Vec<&str> = arg.split(',').collect();
    let bodies: Vec<String> = specs
        .iter()
        .map(|s| space_doc(s).map(|d| format!("{{\"space\":{d},\"wait\":true}}")))
        .collect::<Result<_, _>>()?;
    let dir = std::env::var("BENCH_STATE_DIR").map_err(|_| "BENCH_STATE_DIR is not set")?;
    let cache_path = std::path::Path::new(&dir).join(format!("tracer-cache-{}.json", t.on));
    // A stale file would turn first touches into hits.
    let _ = std::fs::remove_file(&cache_path);
    t.begin("service.start");
    let service = SweepService::start(
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: SERVE_THREADS,
            executors: SERVE_EXECUTORS,
            chunk_count: SERVE_CHUNKS,
            cache_path: Some(cache_path.clone()),
        },
        gemm_resolver(),
    )?;
    t.end();
    let addr = service.addr();
    let next = AtomicUsize::new(0);
    let epoch = t.epoch;
    let done: Mutex<Vec<(usize, Duration, Duration, String)>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..SERVE_CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= bodies.len() {
                    break;
                }
                let start = epoch.elapsed();
                match http(addr, "POST", "/sweeps", &bodies[i]) {
                    Ok((200, body)) => {
                        done.lock()
                            .expect("client lock")
                            .push((i, start, epoch.elapsed(), body))
                    }
                    Ok((status, body)) => {
                        *failure.lock().expect("client lock") =
                            Some(format!("request {i}: HTTP {status}: {body:.120}"));
                        break;
                    }
                    Err(e) => {
                        *failure.lock().expect("client lock") = Some(format!("request {i}: {e}"));
                        break;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("client lock") {
        service.shutdown();
        let _ = service.wait();
        return Err(e);
    }
    let mut done = done.into_inner().expect("client lock");
    done.sort_by_key(|d| d.0);
    let (_, stats) = http(addr, "GET", "/cache/stats", "")?;
    service.shutdown();
    service.wait()?;
    let file_bytes = std::fs::metadata(&cache_path).map(|m| m.len()).unwrap_or(0);
    let mut requests = Vec::with_capacity(done.len());
    for (i, start, end, body) in &done {
        let doc = JsonValue::parse(body).map_err(|e| format!("request {i}: {e}"))?;
        let server = match doc.get("elapsed_s") {
            Some(JsonValue::Float(f)) => *f,
            Some(JsonValue::Int(n)) => *n as f64,
            _ => return Err(format!("request {i}: no elapsed_s")),
        };
        if t.on {
            // Requests of the two clients overlap in time, so each is its
            // own span under the round. The server's share of a round trip
            // is the response's `elapsed_s`, placed at the end of it.
            let rt = t.spans.len();
            t.spans.push(Span {
                name: "service.roundtrip",
                parent: Some(0),
                start: *start,
                end: *end,
            });
            let server_start = end.saturating_sub(Duration::from_secs_f64(server));
            t.spans.push(Span {
                name: "service.server",
                parent: Some(rt),
                start: server_start,
                end: *end,
            });
        }
        requests.push(format!(
            "{{\"spec\":\"{}\",\"rt_s\":{:.9},\"body\":{body}}}",
            specs[*i],
            (*end - *start).as_secs_f64()
        ));
    }
    Ok(format!(
        "{{\"requests\":[{}],\"cache_stats\":{stats},\"cache_file_bytes\":{file_bytes}}}",
        requests.join(",")
    ))
}
