"""Benchmark for wignerlab: three closed-loop workloads with correctness gates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from ``src/`` there.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced pass (see README.md in this
directory).  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with
provenance and every op latency, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import spans
import workloads
from workloads import TRACE_BASE, Stats, attempt, run_child

SETUP_REPEATS = 3
# a phase starts no new unit after this much wall time, so a run ends in time
PHASE_WALL_LIMIT_S = 60.0
COUNT_KEYS = ("io.write_mb", "io.read_mb", "evolution.steps")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, seed: int, work: Path, env: dict) -> tuple[list[float], dict]:
    """Run the set-up worker several times; return the wall times and the last pool."""
    prepare = Path(__file__).resolve().parent / "prepare.py"
    times = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        out.mkdir(parents=True)
        times.append(run_child([sys.executable, str(prepare), name, str(seed), str(out)], env, out / "worker")[0])
    payloads = [pickle.loads((work / f"setup{k}" / "pool.pkl").read_bytes()) for k in range(SETUP_REPEATS)]
    return times, {"units": payloads[-1]["units"], "import_ms": [p["import_ms"] for p in payloads]}


def run_phase(wl, first_unit: int, seconds: float = 0.0, n_units: int = 0, traced: bool = False):
    """Run whole units until ``seconds`` of op time (or ``n_units`` units) have passed.

    Returns the stats and the last unit, whose files are kept for the gate
    self-test.
    """
    stats = Stats()
    start = time.perf_counter()
    unit, last = first_unit, None
    while True:
        if last is not None:
            wl.release(last)
        for op in wl.ops(unit):
            workloads.stop_if_terminated()
            attempt(stats, wl, op, traced=traced)
        last, unit = unit, unit + 1
        done = unit - first_unit >= n_units if n_units else sum(stats.latencies) >= seconds
        if done or time.perf_counter() - start > PHASE_WALL_LIMIT_S:
            return stats, last


def ops_per_s(stats: Stats) -> float:
    return (stats.attempted - stats.failed) / sum(stats.latencies)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Only percentiles at or above the median count as a tail.  Below 21
    samples none has ten samples beyond it, and the median (percentile 50)
    is reported: the maximum of a few ops is one host hiccup, not a tail.
    Returns (value, percentile, sample count).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "wignerlab").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its C API."""
    import numpy  # noqa: F401  (loads the library)

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        sizes[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return sizes


def provenance(root: Path, src: Path, args, wl) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root),
        "src_sha256": src_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "blas": blas.get("name"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("WIGNERLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                       if k in os.environ},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_points": wl.n_points,
        "machine": platform.machine(),
    }


def stats_record(stats: Stats) -> dict:
    value, pct, n = tail(stats.latencies)
    return {
        "attempted": stats.attempted, "failed": stats.failed, "error_rate": stats.failed / stats.attempted,
        "op_time_s": sum(stats.latencies), "ops_per_s": ops_per_s(stats),
        "op_p50_s": statistics.median(stats.latencies), "op_tail_s": value, "tail_percentile": pct,
        "tail_samples": n, "peak_rss_mb": stats.peak_rss_kb / 1024, "latencies_s": stats.latencies,
        "kinds": stats.kinds, "failures": stats.failures,
    }


def check_counts(ledger_path: Path, key: str, counts: dict) -> list[str]:
    """Compare counts with an earlier traced run of the same code and seed."""
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = counts
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        return []
    return [f"{k}: {earlier.get(k)} then {counts.get(k)}" for k in sorted(set(earlier) | set(counts))
            if earlier.get(k) != counts.get(k)]


def traced_pass(wl, package) -> tuple[Stats, list[dict]]:
    """Run the fixed traced units; return their stats and every process's spans."""
    tracer = spans.Tracer()
    replaced = spans.install(tracer, package)
    wl.tracer = tracer
    try:
        stats, last = run_phase(wl, TRACE_BASE, n_units=wl.trace_units, traced=True)
    finally:
        spans.uninstall(replaced)
        wl.tracer = None
    wl.release(last)
    records = [json.loads(p.read_text()) for p in sorted(wl.spans_dir.glob("*.json"))]
    return stats, [tracer.record(), *records]


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills its child process and deletes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: workloads.TERMINATED.set())
    root = Path.cwd()
    src = root / "src"
    if not (src / "wignerlab" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} holds no wignerlab sources; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    sys.path.insert(0, str(src))
    import wignerlab

    if not Path(wignerlab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: wignerlab resolves to {wignerlab.__file__}, not to {src}", file=sys.stderr)
        return 2

    state_dir = root / ".perfbench"
    work = state_dir / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = state_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        setup_times, payload = measure_setup(args.workload, args.seed, work, env)
        wl = workloads.WORKLOADS[args.workload](root, work, args.seed, env, payload["units"])
        wl.warmup()
        stats, last = run_phase(wl, 0, seconds=args.seconds)
        probe = Stats()
        wl.self_test(probe, last)
        wl.release(last)
        gates_ok = probe.attempted == probe.failed == 1
        record = {"untraced": stats_record(stats), "setup_s_samples": setup_times,
                  "gate_self_test": probe.failures, "gates_ok": gates_ok}
        problems = [] if gates_ok else ["gate self-test: a corrupted output was not counted as failed"]
        if args.trace:
            traced, records = traced_pass(wl, wignerlab)
            layer = spans.summarize(records)
            if not layer["cli.import_ms"]:
                layer["cli.import_ms"] = statistics.median(payload["import_ms"])
            layer["trace.overhead"] = ops_per_s(traced) / ops_per_s(stats) if traced.failed < traced.attempted else 0.0
            counts = {k: v for k, v in layer.items() if k.endswith(".calls") or k in COUNT_KEYS}
            drift = check_counts(state_dir / "counts.json", f"{src_digest(src)}/{args.workload}/{args.seed}", counts)
            problems += [f"count changed between runs: {d}" for d in drift]
            record.update(traced=stats_record(traced), layer=layer, counts=counts)
            reported, names = traced, spec["per_layer"]
            # functions that a workload never calls have no spans and read 0
            values = {m["name"]: float(layer.get(m["name"], 0.0)) for m in names}
        else:
            reported, names = stats, spec["end_to_end"]
            measured = {"setup_s": statistics.median(setup_times), **record["untraced"]}
            values = {m["name"]: float(measured[m["name"]]) for m in names}
        record["provenance"] = provenance(root, src, args, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record.update(metrics=metrics, problems=problems)
    result_path.write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        result_path.with_name(result_path.stem + "-spans.json").write_text(json.dumps(records))

    untraced = record["untraced"]
    print(f"# wignerlab benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# op_tail_s is percentile {untraced['tail_percentile']:.1f} of {untraced['tail_samples']} ops; "
          f"error_rate = {untraced['failed']}/{untraced['attempted']}")
    for failure in stats.failures + (reported.failures if reported is not stats else []):
        print(f"# failed op: {failure}")
    print(f"# gate self-test: {'corrupted output counted as failed' if gates_ok else 'GATE DID NOT FIRE'}")
    for problem in problems:
        print(f"# problem: {problem}")
    print(f"# result: {result_path.relative_to(root)}")
    correct = stats.failed == 0 and reported.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": reported.attempted, "failed": reported.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
