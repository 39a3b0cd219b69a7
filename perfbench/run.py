#!/usr/bin/env python3
"""Paper-scale benchmark of the poisongame reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_parallel --seed 1 --seconds 45 --trace 0

The first run builds the repository's pg_run/pg_serve (and, for traced
runs, their traced twins) from the checkout's sources into .bench_build/.
Every timed operation runs the real binaries, and every output is checked
at tolerance 0 against perfbench/expected.json. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}: --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. perfbench/README.md describes the workloads and
every metric.

`python3 perfbench/run.py --write-expected` regenerates expected.json
from the current build (only for a deliberate change of results).
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORK = REPO / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD = WORK / "cmake"
EXPECTED = BENCH_DIR / "expected.json"

# Executor width of every timed program. Half of a 4-vCPU host: at full
# width any neighbour's burst stalls a pool thread, and the run measures
# the scheduler instead of the program.
THREADS = 2
WORKLOADS = ["serve_mix", "solve_parallel"]
# solve_parallel: this registry scenario, run warm from a cache its
# set-up fills.
SOLVE = "solver_ablation"

# serve_mix: warm paper-scale requests read the cache each run populates;
# cold requests come from a fixed pool of specs at seeds the populated
# cache has never seen (so their expected results can be kept), at the
# registry's reduced size for `transfer`. Every run sends the same number
# of each kind; the seed picks the cold seeds and the order.
WARM = ["fig1", "table1", "nsweep", "transfer", "prop1"]
COLD = ["fig1", "table1"]
COLD_SIZE = [("epochs", 150), ("instances", 2000)]
COLD_SEEDS = range(1001, 1017)
COLD_PER_KIND = 3          # cold specs per kind and run; the first of each
                           # kind goes out from two clients at once
REQUESTS_PER_SECOND = 10   # serve_mix sends this many per --seconds ...
MIN_REQUESTS = 120         # ... but never fewer: p90 needs 10 beyond it
CLIENTS = THREADS
SETUPS = 5                 # setup_s is the median of this many set-ups
MIN_REPS = 3
CHILD_TIMEOUT = 150.0

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("throughput_rps", "1/s")]

PER_LAYER = [
    ("data.corpus_s", "s"), ("data.scale_s", "s"),
    ("sim.prepare_s", "s"), ("sim.sweep_s", "s"), ("sim.mixed_eval_s", "s"),
    ("sim.fit_s", "s"),
    ("attack.generate_s", "s"), ("attack.calls", "count"),
    ("defense.filter_s", "s"), ("defense.filter_calls", "count"),
    ("ml.train_s", "s"), ("ml.train_calls", "count"),
    ("ml.updates_per_s", "1/s"), ("ml.eval_s", "s"),
    ("runtime.cells", "count"), ("runtime.cells_retrained", "count"),
    ("runtime.hit_ratio", "ratio"), ("runtime.coalesced", "count"),
    ("runtime.pool_busy_fraction", "ratio"),
    ("runtime.layer_busy_fraction", "ratio"),
    ("runtime.disk_load_s", "s"), ("runtime.disk_store_s", "s"),
    ("runtime.disk_bytes", "bytes"),
    ("core.algorithm1_s", "s"), ("core.algorithm1_iterations", "count"),
    ("game.discretize_s", "s"), ("game.lp_s", "s"), ("game.fp_s", "s"),
    ("game.hedge_s", "s"), ("game.iterations", "count"),
    ("game.lp_pivots", "count"),
    ("scenario.run_s", "s"), ("scenario.serialize_s", "s"),
    ("serve.queue_wait_ms", "ms"), ("serve.compute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
]
# Layer of the trace file whose self time each metric reports.
LAYER_SECONDS = {
    "data.corpus_s": "data.corpus", "data.scale_s": "data.scale",
    "sim.prepare_s": "sim.prepare", "sim.sweep_s": "sim.sweep",
    "sim.mixed_eval_s": "sim.mixed_eval", "sim.fit_s": "sim.fit",
    "attack.generate_s": "attack.generate",
    "defense.filter_s": "defense.filter",
    "ml.train_s": "ml.train", "ml.eval_s": "ml.eval",
    "runtime.disk_load_s": "runtime.disk_load",
    "runtime.disk_store_s": "runtime.disk_store",
    "core.algorithm1_s": "core.algorithm1",
    "game.discretize_s": "game.discretize", "game.lp_s": "game.lp",
    "game.fp_s": "game.fp", "game.hedge_s": "game.hedge",
    "scenario.run_s": "scenario.run",
    "scenario.serialize_s": "scenario.serialize",
}
LAYER_CALLS = {"attack.calls": "attack.generate",
               "defense.filter_calls": "defense.filter",
               "ml.train_calls": "ml.train"}
TRACE_COUNTERS = ["runtime.disk_bytes", "core.algorithm1_iterations",
                  "game.iterations", "game.lp_pivots"]
ROOT_LAYER = "scenario.run"  # its self time is engine glue, not a layer


class BenchError(Exception):
    """A failure that leaves the benchmark without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics

def percentile(samples, q):
    """Nearest-rank q-th percentile. Refused (ValueError) unless at least
    ten samples lie beyond it: a tail figure resting on fewer is noise."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has only "
                         f"{beyond} beyond it (needs 10)")
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------ result checking

def is_timing(name):
    return name.endswith("_ms") or name.endswith("_seconds") or "speedup" in name


def project(result):
    """The part of a result (or ok response envelope) that
    `pg_run --compare` gates on: it drops timing, cache-traffic and
    telemetry values the same way."""
    if "request_id" in result and "status" in result:
        result = result.get("result") or {}
    metrics = {k: v for k, v in (result.get("metrics") or {}).items()
               if not is_timing(k) and not k.startswith("obs.")}
    tables = []
    for table in result.get("tables") or []:
        name = table.get("name", "")
        if name.startswith("telemetry"):
            continue
        columns = table.get("columns") or []
        keep = [i for i, c in enumerate(columns) if not is_timing(c)]
        metric_col = columns.index("metric") if "metric" in columns else None
        rows = []
        for row in table.get("rows") or []:
            tag = row[metric_col] if metric_col is not None else None
            if isinstance(tag, str) and (is_timing(tag) or tag.startswith("obs.")):
                continue
            rows.append([row[i] for i in keep])
        tables.append({"name": name, "columns": [columns[i] for i in keep],
                       "rows": rows})
    return {"scenario": result.get("scenario"), "kind": result.get("kind"),
            "metrics": metrics, "tables": tables}


def canonical(projection):
    return json.dumps(projection, sort_keys=True)


class Expected:
    def __init__(self):
        try:
            self.by_key = json.loads(EXPECTED.read_text())
        except (OSError, ValueError) as e:
            raise BenchError(f"cannot read {EXPECTED}: {e}")

    def matches(self, key, result):
        want = self.by_key.get(key)
        return (want is not None and isinstance(result, dict)
                and canonical(want) == canonical(project(result)))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setup_failed = 0

    def record(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


# -------------------------------------------------------------- programs

def child_env():
    """The caller's environment minus the knobs that would silently change
    what the programs compute or where they cache."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PG_BENCH_")
            and k not in ("PG_CACHE_DIR", "PG_SIMD", "PERFBENCH_TRACE_OUT")}


def build(traced):
    targets = ["pg_run", "pg_serve"]
    if traced:
        targets += ["pg_run_traced", "pg_serve_traced"]
    WORK.mkdir(parents=True, exist_ok=True)
    log_path = WORK / "build.log"
    jobs = str(max(1, min(THREADS, len(os.sched_getaffinity(0)))))
    with open(log_path, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            configure = subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT, env=child_env())
            if configure.returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError(f"configure failed, see {log_path}")
        compile_step = subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs, "--target"] + targets,
            stdout=out, stderr=subprocess.STDOUT, env=child_env())
    if compile_step.returncode != 0:
        tail = "\n".join(log_path.read_text().splitlines()[-20:])
        raise BenchError("build failed:\n" + tail)
    tools = {}
    for target in targets:
        found = [p for p in sorted(BUILD.rglob(target))
                 if p.is_file() and os.access(p, os.X_OK)]
        if not found:
            raise BenchError(f"built target {target} not found")
        tools[target] = str(found[0])
    return tools


def reap(child, timeout):
    """Wait for `child` (killing it past `timeout`); return its rusage."""
    timer = threading.Timer(timeout, child.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Proc:
    """One finished child: wall and CPU seconds and peak RSS."""

    def __init__(self, argv, cwd, env):
        with open(Path(cwd) / "child.log", "ab") as log_file:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=cwd, env=env,
                                     stdout=log_file, stderr=log_file)
            usage = reap(child, CHILD_TIMEOUT)
            self.wall = time.perf_counter() - start
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.ok = child.returncode == 0
        self.result = None


def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def print_spec(tools, cwd, scenario, sets=()):
    """The spec text the program resolves for a registry scenario."""
    argv = [tools["pg_run"], "--scenario", scenario, "--print-spec"]
    for key, value in sets:
        argv += ["--set", f"{key}={value}"]
    out = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT)
    if out.returncode != 0:
        raise BenchError(f"pg_run --print-spec failed: {out.stderr.strip()}")
    return out.stdout


def fingerprint(tools, cwd, workload, seed):
    """Host and build identity; results with different ones never compare."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    simd = "unknown"
    for line in print_spec(tools, cwd, "fig1").splitlines():
        if line.startswith("# simd: detected="):
            simd = line.split("=", 1)[1].strip()
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True)
        commit = out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        pass
    digest = hashlib.sha256()
    sources = [p for d in ("src", "tools") for p in (REPO / d).rglob("*")]
    for path in sorted(sources + [REPO / "CMakeLists.txt"]):
        if path.is_file():
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "cpu_model": cpu_model,
            "nproc": len(os.sched_getaffinity(0)), "simd_tier": simd,
            "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "commit": commit, "source_sha256": digest.hexdigest()}


def run_scenario(tools, run_dir, expected, scenario, threads, cache, tag,
                 traced=False):
    """One pg_run of a registry scenario, its output checked."""
    out = run_dir / f"{tag}.json"
    argv = [tools["pg_run_traced" if traced else "pg_run"],
            "--scenario", scenario, "--threads", str(threads),
            "--cache-dir", str(cache), "--out", "json", "--out-file", str(out)]
    env = child_env()
    if traced:
        argv += ["--metrics-out", str(run_dir / f"{tag}.metrics.json")]
        env["PERFBENCH_TRACE_OUT"] = str(run_dir / f"{tag}.trace.json")
    proc = Proc(argv, run_dir, env)
    proc.result = read_json(out) if proc.ok else None
    proc.ok = expected.matches(scenario, proc.result)
    return proc


# -------------------------------------------------------- solve_parallel

def solve_setup(tools, run_dir, expected, tally, index):
    """Everything before a timed run: a fresh empty cache dir, the spec
    resolved by the program, and the cache populated by one cold run."""
    start = time.perf_counter()
    cache = run_dir / f"cache{index}"
    cache.mkdir()
    spec = print_spec(tools, run_dir, SOLVE, [("threads", THREADS)])
    if f"threads = {THREADS}" not in spec:
        raise BenchError(f"{SOLVE}: resolved spec lacks threads={THREADS}")
    populate = run_scenario(tools, run_dir, expected, SOLVE, THREADS, cache,
                            f"setup{index}")
    tally.setup_failed += 0 if populate.ok else 1
    return cache, time.perf_counter() - start


def run_solve(tools, run_dir, expected, seconds):
    tally = Tally()
    setups, reps = [], []
    for index in range(SETUPS):
        cache, elapsed = solve_setup(tools, run_dir, expected, tally, index)
        setups.append(elapsed)
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        rep = run_scenario(tools, run_dir, expected, SOLVE, THREADS, cache,
                           f"rep{len(reps)}")
        tally.record(rep.ok)
        reps.append(rep)
    walls = [r.wall for r in reps]
    wall = median(walls)
    log(f"solve_parallel: {len(reps)} reps, wall {min(walls):.3f}-"
        f"{max(walls):.3f} s")
    return tally, {
        "wall_s": wall,
        "cpu_s": median([r.cpu for r in reps]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r.rss_mb for r in reps]),
        # A run makes a few dozen operations, too few for a p90 with ten
        # beyond it: both latency figures carry the median.
        "latency_p50_ms": wall * 1e3,
        "latency_p90_ms": wall * 1e3,
        "throughput_rps": len(reps) / sum(walls),
    }


def cache_cells(results):
    total = retrained = hits = 0
    for result in results:
        cache = (result or {}).get("cache") or {}
        total += cache.get("cells_total", 0)
        retrained += cache.get("cells_retrained", 0)
        hits += cache.get("cache_hits", 0)
    return total, retrained, hits


def snapshot_metrics(path):
    snapshot = read_json(path) or {}
    return {m.get("name"): m for m in snapshot.get("metrics", [])}


def layer_metrics(trace, snapshot, cells, threads, traced_wall, traced_cpu,
                  plain_wall, plain_cpu):
    """Per-layer metrics from a trace dump, the program's own counters
    and the cache blocks of its results. Self times sum over threads."""
    layers = (trace or {}).get("layers", {})
    counters = (trace or {}).get("counters", {})
    out = {name: 0.0 for name, _ in PER_LAYER}
    for metric, layer in LAYER_SECONDS.items():
        out[metric] = layers.get(layer, {}).get("wall_ns", 0) / 1e9
    for metric, layer in LAYER_CALLS.items():
        out[metric] = layers.get(layer, {}).get("calls", 0)
    for name in TRACE_COUNTERS:
        out[name] = counters.get(name, 0)
    if out["ml.train_s"] > 0:
        out["ml.updates_per_s"] = counters.get("ml.updates", 0) / out["ml.train_s"]
    total, retrained, hits = cells
    out["runtime.cells"] = total
    out["runtime.cells_retrained"] = retrained
    out["runtime.hit_ratio"] = hits / total if total else 0.0
    out["runtime.coalesced"] = snapshot.get("obs.cache.coalesced", {}).get("count", 0)
    out["runtime.pool_busy_fraction"] = plain_cpu / (plain_wall * threads)
    named_cpu = sum(v.get("cpu_ns", 0) for v in layers.values()) / 1e9
    root_cpu = layers.get(ROOT_LAYER, {}).get("cpu_ns", 0) / 1e9
    out["runtime.layer_busy_fraction"] = named_cpu / (traced_wall * threads)
    out["trace.coverage"] = (named_cpu - root_cpu) / traced_cpu if traced_cpu else 0.0
    out["trace.overhead_s"] = traced_wall - plain_wall
    return out


def trace_solve(tools, run_dir, expected):
    """One untraced and one traced run of the same operation, each after
    its own set-up; both outputs are checked against the expected one."""
    tally = Tally()
    runs = []
    for index, traced in enumerate((False, True)):
        cache, _ = solve_setup(tools, run_dir, expected, tally, index)
        runs.append(run_scenario(tools, run_dir, expected, SOLVE, THREADS,
                                 cache, "traced" if traced else "plain",
                                 traced=traced))
        tally.record(runs[-1].ok)
    plain, traced = runs
    trace = read_json(run_dir / "traced.trace.json")
    tally.setup_failed += 0 if trace is not None else 1
    return tally, layer_metrics(
        trace, snapshot_metrics(run_dir / "traced.metrics.json"),
        cache_cells([traced.result]), THREADS, traced.wall, traced.cpu,
        plain.wall, plain.cpu)


# ------------------------------------------------------------- serve_mix

class Connection:
    """One client connection speaking the pg_serve framing."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def _exchange(self, frame):
        self.sock.sendall(frame)
        line = self.reader.readline(8192)
        if not line.endswith(b"\n"):
            raise ConnectionError("connection closed before a response")
        fields = dict(token.split("=", 1) for token in line.decode().split()[2:]
                      if "=" in token)
        size = int(fields.get("len", "-1"))
        body = self.reader.read(size) if size >= 0 else b""
        if size < 0 or len(body) != size:
            raise ConnectionError("connection closed mid-response")
        return fields.get("status"), body

    def request(self, request_id, spec_text):
        body = spec_text.encode()
        header = f"PGSERVE/1.1 req id={request_id} len={len(body)}\n".encode()
        return self._exchange(header + body)

    def ping(self):
        return self._exchange(b"PGSERVE/1.1 ping id=ping\n")[0] == "ok"

    def close(self):
        self.reader.close()
        self.sock.close()


def proc_cpu_s(pid):
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rfind(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


LIVE_DAEMONS = []


class Daemon:
    """A pg_serve process serving a private copy of the populated cache."""

    def __init__(self, tools, run_dir, warm_cache, index, traced):
        self.dir = run_dir / f"daemon{index}"
        self.dir.mkdir()
        shutil.copytree(warm_cache, self.dir / "cache")
        # AF_UNIX paths are short: bind in the daemon's cwd, connect by a
        # path relative to ours.
        self.socket = os.path.relpath(self.dir / "pg.sock")
        argv = [tools["pg_serve_traced" if traced else "pg_serve"],
                "--socket", "pg.sock", "--threads", str(THREADS),
                "--cache-dir", "cache"]
        env = child_env()
        if traced:
            argv += ["--metrics-out", "metrics.json"]
            env["PERFBENCH_TRACE_OUT"] = str(self.dir / "trace.json")
        with open(self.dir / "daemon.log", "ab") as log_file:
            self.proc = subprocess.Popen(argv, cwd=self.dir, env=env,
                                         stdout=log_file, stderr=log_file)
        self.usage = None
        LIVE_DAEMONS.append(self)
        deadline = time.perf_counter() + 30.0
        while True:
            if self.proc.poll() is not None:
                raise BenchError("pg_serve exited during start-up")
            try:
                conn = Connection(self.socket)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("pg_serve did not start listening")
                time.sleep(0.002)
        try:
            if not conn.ping():
                raise BenchError("pg_serve did not answer a ping")
        finally:
            conn.close()

    def stop(self):
        """SIGTERM drains the daemon (admitted work, cache spill, metrics
        and trace files) before it exits."""
        if self.usage is None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.usage = reap(self.proc, 60.0)


def serve_prelude(tools, run_dir, expected, tally, seed):
    """Once per run: populate the warm cache and generate every spec text
    the daemon will receive."""
    warm_cache = run_dir / "warm_cache"
    warm_cache.mkdir()
    for name in WARM:
        populate = run_scenario(tools, run_dir, expected, name, THREADS,
                                warm_cache, f"populate_{name}")
        tally.setup_failed += 0 if populate.ok else 1
    warm = {name: print_spec(tools, run_dir, name) for name in WARM}
    rng = random.Random(seed)
    cold = {}
    for name in COLD:
        for cold_seed in rng.sample(COLD_SEEDS, COLD_PER_KIND):
            cold[f"{name}@{cold_seed}"] = print_spec(
                tools, run_dir, name, [("seed", cold_seed)] + COLD_SIZE)
    return warm_cache, warm, cold


def serve_setup(tools, run_dir, expected, tally, warm_cache, warm, index,
                traced=False):
    """Copy the populated cache, start the daemon and preload it with one
    request of each warm spec. Returns the daemon and the seconds taken."""
    start = time.perf_counter()
    daemon = Daemon(tools, run_dir, warm_cache, index, traced)
    conn = Connection(daemon.socket)
    try:
        for name in WARM:
            status, body = conn.request(f"setup-{name}", warm[name])
            ok = status == "ok" and expected.matches(name, json.loads(body))
            tally.setup_failed += 0 if ok else 1
    finally:
        conn.close()
    return daemon, time.perf_counter() - start


class Sequence:
    """The seeded request mix, handed out in order to closed-loop clients.
    A paired cold spec is two consecutive items sharing a barrier, so two
    clients send it at the same moment."""

    def __init__(self, seed, count, warm, cold):
        rng = random.Random(seed)
        groups = []
        for i, key in enumerate(cold):  # COLD_PER_KIND keys per kind
            barrier = threading.Barrier(2) if i % COLD_PER_KIND == 0 else None
            groups.append([(key, cold[key], barrier)] * (2 if barrier else 1))
        warm_count = count - sum(len(g) for g in groups)
        warm_groups = [[(WARM[i % len(WARM)], warm[WARM[i % len(WARM)]], None)]
                       for i in range(warm_count)]
        rng.shuffle(warm_groups)
        rng.shuffle(groups)
        # Cold requests come after the first warm ones, so they write into
        # the shared store while other clients read from it. They are
        # evenly spaced: where the seed clustered them, the run's
        # latencies would measure the clustering.
        head = warm_groups[:CLIENTS * 2]
        tail = warm_groups[CLIENTS * 2:]
        stride = len(tail) / len(groups)
        for j, group in reversed(list(enumerate(groups))):
            tail.insert(int((j + 0.5) * stride), group)
        self.items = [item for group in head + tail for item in group]
        self.next = 0
        self.lock = threading.Lock()

    def take(self):
        with self.lock:
            if self.next >= len(self.items):
                return None, None
            self.next += 1
            return self.next - 1, self.items[self.next - 1]


def drive(daemon, sequence, expected):
    """Closed loop over CLIENTS connections: each client sends its next
    request once its previous answer is in. A dropped connection fails
    that request and the client reconnects. Returns
    [(latency_s, ok, result)] and the window from first send to last
    answer."""
    records = [None] * len(sequence.items)

    def client():
        conn = None
        while True:
            index, item = sequence.take()
            if item is None:
                break
            key, spec, barrier = item
            if barrier is not None:
                try:
                    barrier.wait(timeout=60)
                except threading.BrokenBarrierError:
                    pass
            start = time.perf_counter()
            ok, result = False, None
            try:
                if conn is None:
                    conn = Connection(daemon.socket)
                status, body = conn.request(f"r{index}", spec)
                latency = time.perf_counter() - start
                envelope = json.loads(body)
                result = envelope.get("result")
                ok = status == "ok" and expected.matches(key, envelope)
            except (OSError, ValueError):
                latency = time.perf_counter() - start
                if conn is not None:
                    conn.close()
                conn = None
            records[index] = (latency, ok, result)
        if conn is not None:
            conn.close()

    clients = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    return records, time.perf_counter() - start


def request_count(seconds):
    return max(MIN_REQUESTS, REQUESTS_PER_SECOND * seconds)


def serve_window(daemon, sequence, expected, tally, traced=False):
    """Drive one window, then stop the daemon. Returns the records, the
    window seconds, the daemon's CPU seconds in the window and its peak
    RSS; daemon.cpu_after_window_start covers the window and the drain."""
    try:
        pid = daemon.proc.pid
        if traced:
            daemon.proc.send_signal(signal.SIGUSR1)  # drop set-up totals
        cpu_start = proc_cpu_s(pid)
        records, window = drive(daemon, sequence, expected)
        cpu = proc_cpu_s(pid) - cpu_start
        rss = proc_peak_rss_mb(pid)
    finally:
        daemon.stop()
    daemon.cpu_after_window_start = (
        daemon.usage.ru_utime + daemon.usage.ru_stime - cpu_start)
    for _, ok, _ in records:
        tally.record(ok)
    return records, window, cpu, rss


def run_serve(tools, run_dir, expected, seed, seconds):
    tally = Tally()
    warm_cache, warm, cold = serve_prelude(tools, run_dir, expected, tally,
                                           seed)
    setups = []
    for index in range(SETUPS):
        daemon, elapsed = serve_setup(tools, run_dir, expected, tally,
                                      warm_cache, warm, index)
        setups.append(elapsed)
        if index < SETUPS - 1:
            daemon.stop()
    sequence = Sequence(seed, request_count(seconds), warm, cold)
    records, window, cpu, rss = serve_window(daemon, sequence, expected, tally)
    latencies = [r[0] * 1e3 for r in records if r[1]]
    try:
        tail = percentile(latencies, 90)
    except ValueError:
        # Only when failures leave too few answers: report the slowest.
        tail = max(latencies, default=0.0)
    return tally, {
        "wall_s": window,
        "cpu_s": cpu,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "latency_p50_ms": median(latencies),
        "latency_p90_ms": tail,
        "throughput_rps": len(latencies) / window,
    }


def trace_serve(tools, run_dir, expected, seed):
    """An untraced window, then the same window on the traced daemon. Both
    are the shortest window, so the traced run fits the time limit of one
    run on a slow host too."""
    tally = Tally()
    warm_cache, warm, cold = serve_prelude(tools, run_dir, expected, tally,
                                           seed)
    windows = []
    for index, traced in enumerate((False, True)):
        daemon, _ = serve_setup(tools, run_dir, expected, tally, warm_cache,
                                warm, index, traced)
        sequence = Sequence(seed, MIN_REQUESTS, warm, cold)
        windows.append((daemon,) + serve_window(daemon, sequence, expected,
                                                tally, traced))
    (_, _, plain_wall, plain_cpu, _), (daemon, records, wall, _, _) = windows
    trace = read_json(daemon.dir / "trace.json")
    tally.setup_failed += 0 if trace is not None else 1
    snapshot = snapshot_metrics(daemon.dir / "metrics.json")
    metrics = layer_metrics(trace, snapshot,
                            cache_cells(r[2] for r in records), THREADS,
                            wall, daemon.cpu_after_window_start, plain_wall,
                            plain_cpu)
    # The daemon's obs timers also cover the set-up's preload requests.
    queue_wait = snapshot.get("obs.serve.queue_wait", {}).get("mean_ms", 0.0)
    compute = snapshot.get("obs.serve.request_wall", {}).get("mean_ms", 0.0)
    latency = statistics.fmean(r[0] * 1e3 for r in records)
    metrics["serve.queue_wait_ms"] = queue_wait
    metrics["serve.compute_ms"] = compute
    metrics["serve.overhead_ms"] = latency - queue_wait - compute
    return tally, metrics


# ------------------------------------------------------------------ main

def write_expected(tools, run_dir):
    """Record the current build's results as the expected ones."""
    expected = {}
    cache = run_dir / "cache"
    cache.mkdir()
    for name in WARM + [SOLVE]:
        out = run_dir / f"{name}.json"
        proc = Proc([tools["pg_run"], "--scenario", name, "--threads",
                     str(THREADS), "--cache-dir", str(cache), "--out", "json",
                     "--out-file", str(out)], run_dir, child_env())
        if not proc.ok:
            raise BenchError(f"{name} failed")
        expected[name] = project(read_json(out))
    for name, seed in [(n, s) for n in COLD for s in COLD_SEEDS]:
        out = run_dir / f"{name}@{seed}.json"
        argv = [tools["pg_run"], "--scenario", name, "--threads", str(THREADS),
                "--no-cache", "--set", f"seed={seed}", "--out", "json",
                "--out-file", str(out)]
        for key, value in COLD_SIZE:
            argv += ["--set", f"{key}={value}"]
        if not Proc(argv, run_dir, child_env()).ok:
            raise BenchError(f"{name}@{seed} failed")
        expected[f"{name}@{seed}"] = project(read_json(out))
    EXPECTED.write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n")
    log(f"wrote {EXPECTED} ({len(expected)} results)")


def run(args, run_dir):
    tools = build(traced=args.trace == 1)
    run_dir.mkdir(parents=True)
    if args.write_expected:
        write_expected(tools, run_dir)
        return None
    expected = Expected()
    record = fingerprint(tools, run_dir, args.workload, args.seed)
    if args.workload == "solve_parallel" and args.trace:
        tally, values = trace_solve(tools, run_dir, expected)
    elif args.workload == "solve_parallel":
        tally, values = run_solve(tools, run_dir, expected, args.seconds)
    elif args.trace:
        tally, values = trace_serve(tools, run_dir, expected, args.seed)
    else:
        tally, values = run_serve(tools, run_dir, expected, args.seed,
                                  args.seconds)
    return record, tally, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")

    run_dir = WORK / f"run-{os.getpid()}"
    try:
        outcome = run(args, run_dir)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        for daemon in LIVE_DAEMONS:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    if outcome is None:
        return 0

    record, tally, values = outcome
    units = PER_LAYER if args.trace else END_TO_END
    record.update(attempted=tally.attempted, failed=tally.failed,
                  setup_failed=tally.setup_failed,
                  failed_fraction=tally.failed / max(1, tally.attempted))
    print("fingerprint " + json.dumps(record, sort_keys=True))
    for name, unit in units:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.setup_failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
