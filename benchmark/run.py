#!/usr/bin/env python3
"""End-to-end benchmark of the `repro` commands a beast-rs user runs.

Run from the root of the repository:

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload sweep --seed 1 --seconds 20 --trace 1
    python3 benchmark/run.py --pin      # regenerate benchmark/references.json

Workloads: sweep, analytic, offload, serve (see benchmark/README.md).
The program is built from source first (into $CARGO_TARGET_DIR, default
.bench_build); all state a run leaves behind goes under .bench_state.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of the in-process replay with
--trace 1. Every op is checked against benchmark/references.json.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
STATE = ROOT / ".bench_state"
REFERENCES = BENCH / "references.json"
CONFIG = ROOT / "BENCHMARK.json"

# Load stays within two cores: `repro sweep --threads 2`, `repro distribute
# --workers 2`, and a daemon with threads x executors = 2 fed by 2 clients.
THREADS = 2
SERVE_THREADS = 1
SERVE_EXECUTORS = 2
SERVE_CHUNKS = 32
SERVE_CLIENTS = 2
# One serve round: every variant is touched at least once (32 misses) in
# 512 requests, so 6.25% of requests miss.
SERVE_ROUND = 512
ZIPF_S = 1.1
SETUP_REPEATS = 3
OP_TIMEOUT_S = 120

POOLS = {
    "sweep": [("sweep", d) for d in (32, 36, 40, 44)],
    "analytic": [("count", d) for d in (24, 28, 32)],
    "offload": [(k, d) for k in ("native", "distribute") for d in (32, 40)],
}
SERVE_VARIANTS = [f"{p}{t}:{d}" for p in "sdcz" for t in ("nn", "nt", "tn", "tt") for d in (24, 32)]
WORKLOADS = ("sweep", "analytic", "offload", "serve")


def serve_stream():
    """The requests of one serve round, before the seeded shuffle: every
    variant once (its first touch misses), plus the rest of the round
    apportioned over a fixed popularity ranking with Zipf weights. The
    mix is the same in every round; the seed orders it."""
    ranked = random.Random("serve popularity").sample(SERVE_VARIANTS, len(SERVE_VARIANTS))
    weights = [1 / (k + 1) ** ZIPF_S for k in range(len(ranked))]
    extra = SERVE_ROUND - len(ranked)
    shares = [extra * w / sum(weights) for w in weights]
    counts = [math.floor(x) for x in shares]
    by_remainder = sorted(range(len(ranked)), key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: extra - sum(counts)]:
        counts[k] += 1
    return [v for v, n in zip(ranked, counts) for _ in range(n)] + ranked


SERVE_STREAM = serve_stream()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and environment
# ---------------------------------------------------------------------------

def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Build `repro` and the tracer once, before anything is timed."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for argv in (
        ["cargo", "build", "--release", "--quiet", "-p", "beast-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(BENCH / "tracer" / "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"error: build failed: {' '.join(argv)}")
    release = target_dir() / "release"
    return release / "repro", release / "beast-perf-tracer"


def source_id():
    """The git commit, or (outside a git checkout) a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return "commit " + out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "sources sha256 " + h.hexdigest()[:16]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(native_cache):
    return dict(
        os.environ,
        TMPDIR=str(STATE / "tmp"),
        BEAST_NATIVE_CACHE_DIR=str(native_cache),
        BENCH_STATE_DIR=str(STATE),
    )


# ---------------------------------------------------------------------------
# Op sequences
# ---------------------------------------------------------------------------

def ref_key(op):
    """Reference key of a CLI op: every CLI op sweeps dgemm_nn."""
    return f"dnn:{op[1]}"


def op_name(op):
    return f"{op[0]}:{op[1]}"


def blocks(workload, seed):
    """Endless seeded sequence of blocks. A block holds every op class of
    the pool once (a serve block is one round of SERVE_STREAM), so medians
    and rates are taken over the same mix whatever the seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        if workload == "serve":
            stream = list(SERVE_STREAM)
            rng.shuffle(stream)
            yield stream
        elif workload == "offload":
            # Alternate native and distribute ops.
            natives = rng.sample([op for op in POOLS[workload] if op[0] == "native"], 2)
            dists = rng.sample([op for op in POOLS[workload] if op[0] == "distribute"], 2)
            yield [natives[0], dists[0], natives[1], dists[1]]
        else:
            yield rng.sample(POOLS[workload], len(POOLS[workload]))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def reap(proc, timeout=OP_TIMEOUT_S):
    """Wait for `proc` with wait4, so its own peak RSS (and that of the
    children it reaped) is known. Kills it after `timeout` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def repro_argv(repro, op, json_path):
    kind, dim = op[0], str(op[1])
    if kind == "sweep":
        return [repro, "sweep", dim, "--threads", str(THREADS), "--json", json_path]
    if kind == "native":
        return [repro, "--engine", "native", "sweep", dim, "--threads", str(THREADS), "--json", json_path]
    if kind == "distribute":
        return [repro, "distribute", dim, "--workers", str(THREADS), "--json", json_path]
    if kind == "count":
        return [repro, "count", dim, "--json", json_path]
    raise ValueError(f"unknown op kind {kind}")


def check_op(op, doc, ref):
    """Why the op's --json output is wrong, or None when it is right."""
    try:
        if op[0] == "count":
            if doc["survivors"] != ref["survivors"]:
                return f"survivors {doc['survivors']} != pinned {ref['survivors']}"
            if doc["tuples"] != ref["tuples"]:
                return f"tuples {doc['tuples']} != pinned {ref['tuples']}"
            return None
        if doc["survivors"] != ref["survivors"]:
            return f"survivors {doc['survivors']} != pinned {ref['survivors']}"
        if doc["fingerprint"] != ref["fingerprint"]:
            return f"fingerprint {doc['fingerprint']} != pinned {ref['fingerprint']}"
        if doc["partial"]:
            return "partial result"
        if op[0] == "native" and not doc["report"]["native"]:
            return "the native tier did not run"
        doc["report"]["constraints"]
        return None
    except (KeyError, TypeError) as e:
        return f"output lacks field {e}"


def run_op(repro, op, refs, env):
    """Run one CLI op; return its record (wall time, RSS, check outcome)."""
    json_path = STATE / "op.json"
    json_path.unlink(missing_ok=True)
    with open(STATE / "op.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            repro_argv(str(repro), op, str(json_path)),
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        code, rss_mb = reap(proc)
        wall = time.perf_counter() - t0
    rec = {"op": op, "wall": wall, "rss_mb": rss_mb, "doc": None, "error": None, "survivors": 0}
    if code != 0:
        tail = (STATE / "op.stderr").read_text(errors="replace")[-300:]
        rec["error"] = f"exit code {code}: {tail}"
        return rec
    try:
        rec["doc"] = json.loads(json_path.read_text())
    except (OSError, ValueError) as e:
        rec["error"] = f"no JSON output: {e}"
        return rec
    rec["error"] = check_op(op, rec["doc"], refs[ref_key(op)])
    if rec["error"] is None:
        rec["survivors"] = rec["doc"]["survivors"]
    return rec


# ---------------------------------------------------------------------------
# The serve daemon and its clients
# ---------------------------------------------------------------------------

def space_doc(spec):
    case, dim = spec.split(":")
    return {"kind": "gemm", "reduced": int(dim), "precision": case[0], "transpose": case[1:]}


def http_call(addr, method, path, body=None, timeout=OP_TIMEOUT_S):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Daemon:
    """A fresh `repro serve` on a free port with its own cache file."""

    def __init__(self, repro, cache_path, env):
        cache_path.unlink(missing_ok=True)
        self.err = open(STATE / "serve.stderr", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(repro), "serve", "--addr", "127.0.0.1:0", "--threads", str(SERVE_THREADS),
             "--executors", str(SERVE_EXECUTORS), "--chunks", str(SERVE_CHUNKS),
             "--cache", str(cache_path)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.err, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            found = re.search(r"http://(\S+?),", line)
            if not found:
                raise RuntimeError(f"daemon did not report its address: {line!r}")
            self.addr = found.group(1)
            while True:
                try:
                    if http_call(self.addr, "GET", "/healthz", timeout=5)[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - t0 > 30:
                    raise RuntimeError("daemon /healthz did not answer within 30 s")
                time.sleep(0.001)
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        """Shut the daemon down; return its peak RSS in MB."""
        if self.proc.returncode is None:
            try:
                http_call(self.addr, "POST", "/shutdown", timeout=5)
            except (OSError, AttributeError):
                self.proc.kill()
            _, rss_mb = reap(self.proc, timeout=60)
        else:
            rss_mb = 0.0
        self.proc.stdout.close()
        self.err.close()
        return rss_mb


def check_response(status, body, ref):
    if status != 200:
        return None, f"HTTP {status}: {body[:120]!r}"
    try:
        doc = json.loads(body)
        if doc["state"] != "done":
            return doc, f"state {doc['state']}"
        fingerprint = f"{doc['fingerprint']['hash']:016x}"
        if doc["survivors"] != ref["survivors"] or fingerprint != ref["fingerprint"]:
            return doc, (f"survivors {doc['survivors']} / {fingerprint} != pinned "
                         f"{ref['survivors']} / {ref['fingerprint']}")
        doc["cache_hits"], doc["cache_misses"], doc["elapsed_s"], doc["report"]["constraints"]
        return doc, None
    except (KeyError, TypeError, ValueError) as e:
        return None, f"response lacks field {e}"


def serve_round(daemon, stream, refs):
    """Feed one round to the daemon from closed-loop clients: each sends
    its next request only when the previous reply arrived."""
    cursor = iter(range(len(stream)))
    lock = threading.Lock()
    records = [None] * len(stream)

    def client():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            body = json.dumps({"space": space_doc(stream[i]), "wait": True})
            t0 = time.perf_counter()
            try:
                status, data = http_call(daemon.addr, "POST", "/sweeps", body)
            except OSError as e:
                status, data = 0, str(e).encode()
            t1 = time.perf_counter()
            doc, error = check_response(status, data, refs[stream[i]])
            records[i] = {"spec": stream[i], "start": t0, "end": t1, "wall": t1 - t0,
                          "doc": doc, "error": error,
                          "survivors": doc["survivors"] if doc and not error else 0}

    clients = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    return records


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def class_medians(records):
    """Median wall time per op class (command, space)."""
    by_class = {}
    for r in records:
        if r["error"] is None:
            by_class.setdefault(op_name(r["op"]), []).append(r["wall"])
    return {k: (statistics.median(v), len(v)) for k, v in sorted(by_class.items())}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_once(workload, repro, refs, env):
    """One set-up phase before timed ops; returns (seconds, records)."""
    t0 = time.perf_counter()
    if workload == "offload":
        # Empty the artifact cache, so every set-up pays the cold compile of
        # the native workers; the first native op per space fills it.
        fresh_dir(Path(env["BEAST_NATIVE_CACHE_DIR"]))
        records = [run_op(repro, op, refs, env) for op in POOLS[workload] if op[0] == "native"]
    else:
        records = [run_op(repro, POOLS[workload][0], refs, env)]
    return time.perf_counter() - t0, records


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------

def untraced(workload, seed, seconds, repro, refs, env):
    setups, warmups, records, rss = [], [], [], [0.0]
    timed = 0.0
    if workload == "serve":
        # Daemon start-ups are the serve set-up; each round starts a fresh
        # daemon and cache, and a few extra start-ups steady the median.
        for i in range(SETUP_REPEATS):
            d = Daemon(repro, STATE / f"setup-cache-{i}.json", env)
            setups.append(d.setup_s)
            rss.append(d.stop())
        for stream in blocks(workload, seed):
            d = Daemon(repro, STATE / "serve-cache.json", env)
            setups.append(d.setup_s)
            try:
                round_records = serve_round(d, stream, refs)
            finally:
                rss.append(d.stop())
            timed += max(r["end"] for r in round_records) - min(r["start"] for r in round_records)
            records += round_records
            if timed >= seconds:
                break
    else:
        for _ in range(SETUP_REPEATS):
            took, recs = setup_once(workload, repro, refs, env)
            setups.append(took)
            warmups += recs
        for block in blocks(workload, seed):
            t0 = time.perf_counter()
            records += [run_op(repro, op, refs, env) for op in block]
            timed += time.perf_counter() - t0
            if timed >= seconds:
                break
        rss += [r["rss_mb"] for r in warmups + records]
    checked = warmups + records
    failed = [r for r in checked if r["error"]]
    for r in failed[:10]:
        log(f"FAILED {r.get('spec') or op_name(r['op'])}: {r['error']}")
    ok = [r for r in records if r["error"] is None]
    if workload == "serve":
        walls_ms = [r["wall"] * 1000 for r in ok]
        op_p50 = statistics.median(walls_ms) if walls_ms else 0.0
    else:
        medians = class_medians(records)
        op_p50 = geomean([m for m, _ in medians.values()]) * 1000
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": op_p50,
        "ops_per_s": len(ok) / timed,
        "survivors_per_s": sum(r["survivors"] for r in ok) / timed,
        "peak_rss_mb": max(rss),
    }
    summary(workload, seed, records, metrics, setups, len(failed), len(checked))
    return len(checked), len(failed), metrics


def summary(workload, seed, records, metrics, setups, failed, attempted):
    """Human-readable table: per-command metric names, units and sample counts."""
    ok = [r for r in records if r["error"] is None]
    lines = [f"workload {workload}  seed {seed}  {len(records)} timed ops"]

    def row(name, value, unit, n, note=""):
        lines.append(f"  {name:<18} {value:>14.6g} {unit:<5} n={n:<6} {note}")

    row("setup_s", metrics["setup_s"], "s", len(setups), "median set-up")
    if workload == "serve":
        walls = [r["wall"] * 1000 for r in ok]
        beyond = sum(1 for w in walls if w > percentile(walls, 99))
        misses = sum(1 for r in ok if r["doc"]["cache_misses"] > 0)
        row("request_p50_ms", percentile(walls, 50), "ms", len(walls))
        row("request_p99_ms", percentile(walls, 99), "ms", len(walls), f"{beyond} beyond p99")
        row("requests_per_s", metrics["ops_per_s"], "1/s", len(ok),
            f"miss share {misses / max(len(ok), 1):.2%}")
    else:
        meds = class_medians(records)
        by_kind = {}
        for name, (m, n) in meds.items():
            by_kind.setdefault(name.split(":")[0], []).append((name, m, n))
        label = {"sweep": "sweep_p50_s", "count": "count_p50_s",
                 "native": "native_p50_s", "distribute": "distribute_p50_s"}
        for kind, rows in by_kind.items():
            detail = ", ".join(f"{name} {m:.4f}" for name, m, _ in rows)
            row(label[kind], geomean([m for _, m, _ in rows]), "s", sum(n for _, _, n in rows),
                f"geomean of per-space medians: {detail}")
        row("ops_per_s", metrics["ops_per_s"], "1/s", len(ok))
    if workload in ("sweep", "offload"):
        row("survivors_per_s", metrics["survivors_per_s"], "1/s", len(ok))
    row("fail_ratio", failed / max(attempted, 1), "", attempted)
    row("peak_rss_mb", metrics["peak_rss_mb"], "MB", len(records))
    print("\n".join(lines), flush=True)


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------

def replay(tracer, repro, ops, env):
    out = subprocess.run(
        [str(tracer), "replay", str(repro)] + ops,
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"tracer failed: {out.stderr.strip()[-300:]}")
    return [json.loads(line) for line in out.stdout.splitlines()]


def constraint_counts(report):
    return [(c["name"], c["evaluated"], c["pruned"]) for c in report["constraints"]]


COUNTER_KEYS = ("cache_hits", "cache_misses", "enumerated", "domains_rejected", "residue_classes_pruned")


def fidelity(kind, cli_doc, result):
    """Why the in-process replay did not run the CLI op's configuration,
    or None when its counts and fingerprint equal the op's --json output."""
    if kind == "count":
        for key in ("survivors", "tuples"):
            if cli_doc[key] != result[key]:
                return f"{key}: op {cli_doc[key]} != replay {result[key]}"
        for key in COUNTER_KEYS:
            if cli_doc[key] != result["survivor_counter"][key]:
                return f"counter {key}: op {cli_doc[key]} != replay {result['survivor_counter'][key]}"
        return None
    for key in ("survivors", "fingerprint"):
        if cli_doc[key] != result[key]:
            return f"{key}: op {cli_doc[key]} != replay {result[key]}"
    a, b = constraint_counts(cli_doc["report"]), constraint_counts(result["report"])
    if a != b:
        diff = next((x, y) for x, y in zip(a, b) if x != y) if len(a) == len(b) else (len(a), len(b))
        return f"per-constraint evaluated/pruned differ: op {diff[0]} != replay {diff[1]}"
    return None


def serve_fidelity(daemon_records, replayed):
    by_spec = {r["spec"]: r["doc"] for r in daemon_records if r["error"] is None}
    for req in replayed:
        doc, body = by_spec.get(req["spec"]), req["body"]
        if doc is None:
            continue
        for key in ("survivors", "fingerprint"):
            if doc[key] != body[key]:
                return f"{req['spec']} {key}: daemon {doc[key]} != replay {body[key]}"
        if constraint_counts(doc["report"]) != constraint_counts(body["report"]):
            return f"{req['spec']}: per-constraint evaluated/pruned differ"
    return None


def span_ms(line, name):
    return sum((s[3] - s[2]) * 1000 for s in line["spans"] if s[0] == name)


def unattributed(line):
    """(root duration, part of it no child span covers), in seconds."""
    spans = line["spans"]
    root = spans[0][3] - spans[0][2]
    covered, last_end = 0.0, spans[0][2]
    for _, _, start, end in sorted((s for s in spans if s[1] == 0), key=lambda s: s[2]):
        start = max(start, last_end)
        if end > start:
            covered += end - start
            last_end = end
    return root, root - covered


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(ops, prepares, rounds):
    """Per-layer metrics from the replayed ops' spans and results.

    `ops` pairs each replayed workload op with its CLI record; a layer that
    no op of this workload exercises reports 0."""
    m = {}
    lines = [line for line, _ in ops]

    def per_call(name):
        vals = [span_ms(line, name) for line in lines if any(s[0] == name for s in line["spans"])]
        return mean(vals)

    for name in ("space.build", "plan.new", "ir.lower", "analyze.lint", "count.survivors", "count.tuples",
                 "count.free", "compiled.build", "compiled.sweep", "parallel.sweep", "native.sweep", "distribute.sweep"):
        m[name + "_ms"] = per_call(name)
    m["native.prepare_ms"] = mean(span_ms(p, "native.prepare") for p in prepares)

    counts = [line["result"] for line in lines if line["op"].startswith("count:")]
    counters = [c[k] for c in counts for k in ("survivor_counter", "tuple_counter")]
    m["count.values_enumerated"] = mean(sum(c[k]["enumerated"] for k in ("survivor_counter", "tuple_counter"))
                                        for c in counts)
    m["count.memo_hit_ratio"] = ratio(sum(c["cache_hits"] for c in counters),
                                      sum(c["cache_hits"] + c["cache_misses"] for c in counters))
    m["count.tuples_completed_ratio"] = ratio(sum(1 for c in counts if c["tuples"] is not None), len(counts))

    # Reports of sweeps whose enumeration ran on the in-process compiled
    # engine: sweep ops, distribute ops (in worker processes), and serve
    # requests that missed the cache on every chunk.
    reports = [line["result"]["report"] for line in lines
               if line["op"].split(":")[0] in ("sweep", "distribute")]
    parallel_reports = [line["result"]["report"] for line in lines if line["op"].startswith("sweep:")]
    for line in rounds:
        misses = [r["body"]["report"] for r in line["result"]["requests"] if r["body"]["cache_hits"] == 0]
        reports += misses
        parallel_reports += misses
    evaluated = sum(r["evaluated"] for r in reports)
    lanes = sum(r["lane_evals"] for r in reports)
    if counts:
        evaluated += sum(c["evaluated"] or 0 for c in counts)
    n_enum = len(reports) + sum(1 for c in counts if c["evaluated"] is not None)
    m["compiled.evaluated"] = ratio(evaluated, n_enum)
    m["compiled.survivor_ratio"] = ratio(sum(r["survivors"] for r in reports)
                                         + sum(c["swept"] or 0 for c in counts), evaluated)
    m["compiled.points_skipped"] = mean(r["points_skipped"] for r in reports)
    m["compiled.lane_util"] = ratio(lanes, lanes + sum(r["lanes_masked"] for r in reports))

    busy = [sum(w["busy_s"] for w in r["workers"]) for r in parallel_reports]
    m["parallel.chunks"] = mean(r["chunks"] for r in parallel_reports)
    m["parallel.busy_s"] = mean(busy)
    m["parallel.idle_ratio"] = mean(1 - b / (r["elapsed_s"] * r["threads"])
                                    for b, r in zip(busy, parallel_reports) if r["elapsed_s"] > 0)
    m["parallel.imbalance"] = mean(r["imbalance"] for r in parallel_reports)

    natives = [line["result"]["report"]["native"] for line in lines if line["op"].startswith("native:")]
    m["native.chunks"] = mean(n["chunks_native"] for n in natives)
    m["native.rows_streamed"] = mean(n["rows_streamed"] for n in natives)
    m["native.fallback_ratio"] = ratio(sum(n["chunks_fallback"] for n in natives),
                                       sum(n["chunks_native"] + n["chunks_fallback"] for n in natives))

    dists = [line for line in lines if line["op"].startswith("distribute:")]
    m["distribute.overhead_ms"] = mean(span_ms(d, "distribute.sweep") - d["baseline_ms"] for d in dists)
    for key in ("workers_spawned", "shards_retried", "heartbeat_timeouts"):
        m[f"distribute.{key}"] = mean(d["result"]["report"]["fault_counters"][key] for d in dists)

    requests = [r for line in rounds for r in line["result"]["requests"]]
    hit = [r["rt_s"] * 1000 for r in requests if r["body"]["cache_misses"] == 0]
    miss = [r["rt_s"] * 1000 for r in requests if r["body"]["cache_misses"] > 0]
    m["service.roundtrip_hit_ms"] = statistics.median(hit) if hit else 0.0
    m["service.roundtrip_miss_ms"] = statistics.median(miss) if miss else 0.0
    m["service.server_ms"] = statistics.median(r["body"]["elapsed_s"] * 1000 for r in requests) if requests else 0.0
    m["service.overhead_ms"] = (statistics.median((r["rt_s"] - r["body"]["elapsed_s"]) * 1000 for r in requests)
                                if requests else 0.0)
    m["cache.hit_ratio"] = ratio(sum(r["body"]["cache_hits"] for r in requests),
                                 sum(r["body"]["cache_hits"] + r["body"]["cache_misses"] for r in requests))
    m["cache.entries"] = mean(line["result"]["cache_stats"]["entries"] for line in rounds)
    m["cache.file_bytes"] = mean(line["result"]["cache_file_bytes"] for line in rounds)

    # A serve op is a request inside one daemon, not a `repro` process.
    m["repro.process_overhead_ms"] = mean((rec["wall"] - line["untraced_s"]) * 1000 for line, rec in ops)
    all_lines = lines + rounds
    m["trace.overhead_ms"] = mean((line["traced_s"] - line["untraced_s"]) * 1000 for line in all_lines)
    roots = [unattributed(line) for line in all_lines]
    m["trace.unattributed_ratio"] = ratio(sum(u for _, u in roots), sum(r for r, _ in roots))
    return m


def traced(workload, seed, seconds, repro, tracer, refs, env):
    """Run each op through the CLI (as in the untraced run) and replay it
    in-process through the tracer; the replay must prove it ran the op's
    configuration."""
    tracer_env = dict(env, BEAST_NATIVE_CACHE_DIR=str(fresh_dir(STATE / "tracer-native-cache")))
    attempted = failed = 0
    ops, rounds, prepares = [], [], []
    if workload == "offload":
        for rec in setup_once(workload, repro, refs, env)[1]:
            attempted += 1
            if rec["error"]:
                failed += 1
                log(f"FAILED {op_name(rec['op'])}: {rec['error']}")
        dims = sorted({op[1] for op in POOLS[workload]})
        prepares = replay(tracer, repro, [f"prepare:{d}" for d in dims], tracer_env)
    t0 = time.perf_counter()
    for block in blocks(workload, seed):
        if workload == "serve":
            d = Daemon(repro, STATE / "serve-cache.json", env)
            try:
                records = serve_round(d, block, refs)
            finally:
                d.stop()
            attempted += len(records)
            failed += sum(1 for r in records if r["error"])
            (line,) = replay(tracer, repro, ["serve:" + ",".join(block)], tracer_env)
            attempted += 1
            try:
                problem = serve_fidelity(records, line["result"]["requests"])
            except (KeyError, TypeError) as e:
                problem = f"response lacks field {e}"
            if problem:
                failed += 1
                log(f"FIDELITY serve round: {problem}")
            rounds.append(line)
        else:
            records = [run_op(repro, op, refs, env) for op in block]
            names = [op_name(op) for op in block]
            # Each distribute op is followed by an in-process sweep of the
            # same space at the same parallelism, its overhead baseline.
            baselines = [f"sweep:{op[1]}" for op in block if op[0] == "distribute"]
            lines = replay(tracer, repro, names + baselines, tracer_env)
            baseline_ms = {line["op"]: span_ms(line, "parallel.sweep") for line in lines[len(names):]}
            for rec, line in zip(records, lines):
                if rec["op"][0] == "distribute":
                    line["baseline_ms"] = baseline_ms[f"sweep:{rec['op'][1]}"]
                attempted += 1
                try:
                    problem = rec["error"] or fidelity(rec["op"][0], rec["doc"], line["result"])
                except (KeyError, TypeError) as e:
                    problem = f"output lacks field {e}"
                if problem:
                    failed += 1
                    log(f"FAILED {line['op']}: {problem}" if rec["error"] else f"FIDELITY {line['op']}: {problem}")
                ops.append((line, rec))
        if time.perf_counter() - t0 >= seconds:
            break
    return attempted, failed, layer_metrics(ops, prepares, rounds)


# ---------------------------------------------------------------------------
# Reference pinning
# ---------------------------------------------------------------------------

def pin(tracer):
    """Pin survivors and order fingerprints of every space any workload
    uses, with the walker backend, cross-checked with the exact counter."""
    specs = sorted({ref_key(op) for pool in POOLS.values() for op in pool} | set(SERVE_VARIANTS))
    half = [specs[0::2], specs[1::2]]
    procs = [subprocess.Popen([str(tracer), "pin"] + part, stdout=subprocess.PIPE, text=True) for part in half]
    refs = {}
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit("error: pinning failed")
        for line in out.splitlines():
            doc = json.loads(line)
            if doc["counted"] != doc["survivors"]:
                raise SystemExit(f"error: {doc['spec']}: counter {doc['counted']} != walker {doc['survivors']}")
            refs[doc["spec"]] = {k: doc[k] for k in ("survivors", "fingerprint", "tuples")}
    REFERENCES.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
    log(f"pinned {len(refs)} spaces into {REFERENCES}")


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="regenerate the pinned references")
    ap.add_argument("--references", type=Path, default=REFERENCES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.pin and not args.workload:
        ap.error("--workload is required")
    config = json.loads(CONFIG.read_text())
    repro, tracer = build()
    fresh_dir(STATE)
    (STATE / "tmp").mkdir()
    if args.pin:
        pin(tracer)
        return 0
    refs = json.loads(args.references.read_text())
    env = child_env(STATE / "native-cache")
    print(f"repro {repro} ({source_id()}); threads {THREADS}, serve {SERVE_THREADS} thread(s) x "
          f"{SERVE_EXECUTORS} executors, {SERVE_CLIENTS} clients", flush=True)
    if args.trace:
        attempted, failed, metrics = traced(args.workload, args.seed, args.seconds, repro, tracer, refs, env)
        spec = config["per_layer"]
    else:
        attempted, failed, metrics = untraced(args.workload, args.seed, args.seconds, repro, refs, env)
        spec = config["end_to_end"]
    if sorted(m["name"] for m in spec) != sorted(metrics):
        raise SystemExit(f"error: metrics {list(metrics)} do not match BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
