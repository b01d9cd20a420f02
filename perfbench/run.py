"""Benchmark of the activeadapt engine, run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

A run builds the workload's inputs from --seed, times pool set-up, then
repeats whole passes of the workload's adaptation runs until --seconds have
passed (at least one pass). Every round of every run is checked against the
benchmark's own computations (checks.py). With --trace 0 it reports the
end-to-end metrics; with --trace 1 it wraps the engine's layer boundaries
(spans.py), writes the spans to perfbench/out/ and reports per-layer
figures. The last line of standard output is one JSON object.

BLAS runs on one thread so that timings do not depend on how many cores
other processes leave free.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
    "final_accuracy": "ratio",
}


def import_engine():
    """The activeadapt package from this checkout's sources, never an
    installed copy."""
    src = CHECKOUT / "src"
    if not (src / "activeadapt" / "__init__.py").is_file():
        raise SystemExit(f"engine sources not found under {src}")
    sys.path.insert(0, str(src))
    import activeadapt

    if Path(activeadapt.__file__).resolve().parent != src / "activeadapt":
        raise SystemExit(f"imported activeadapt from {activeadapt.__file__}, not {src}")
    return activeadapt


def adapt(aa, job, pool, ref, tracer):
    """One checked adaptation run. Returns (run seconds, round intervals,
    final accuracy); the time spent in checks is left out of both."""
    cfg = job.cfg
    checker = checks.RunChecker(ref, cfg.per_round, cfg.budget, cfg.resolved_k())
    marks = []
    quiet = tracer.bench if tracer else contextlib.nullcontext

    def on_round_end(model, pool, report):
        t0 = time.perf_counter()
        with quiet():
            checker(model, pool, report)
        marks.append((t0, time.perf_counter()))

    root = tracer.span(spans.ROOT) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with root:
        reports = aa.harness.run_active_loop(cfg, pool, on_round_end=on_round_end)
    wall = time.perf_counter() - t0
    if len(reports) != cfg.rounds or checker.rounds != cfg.rounds:
        raise checks.CheckFailure(f"{len(reports)} reports for {cfg.rounds} rounds")
    run_s = wall - sum(b - a for a, b in marks)
    intervals = [marks[i + 1][0] - marks[i][1] for i in range(len(marks) - 1)]
    return run_s, intervals, reports[-1].accuracy


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    aa = import_engine()
    tracer = spans.Tracer() if traced else None
    plan = workloads.make(name, aa, seed, OUT)
    try:
        if tracer:
            tracer.install(aa)
        return _measure(aa, plan, name, seed, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        plan.cleanup()


def _measure(aa, plan, name, seed, seconds, tracer) -> dict:
    quiet = tracer.bench if tracer else contextlib.nullcontext
    setups = []

    def build(job):
        gc.collect()
        t0 = time.perf_counter()
        pool = job.build()
        setups.append(time.perf_counter() - t0)
        return pool

    for i in range(max(0, plan.setup_samples - len(plan.jobs))):
        build(plan.jobs[i % len(plan.jobs)])

    attempted = failed = 0
    ok = True
    pass_runs, intervals, first_accs = [], [], {}
    start = time.perf_counter()
    while True:
        pass_run_s = 0.0
        for j, job in enumerate(plan.jobs):
            attempted += 1
            pool = build(job)
            with quiet():
                if job.reference is None:
                    job.reference = workloads.reference_from_pool(pool)
            gc.collect()
            try:
                run_s, iv, acc = adapt(aa, job, pool, job.reference, tracer)
                if first_accs.setdefault(j, acc) != acc:
                    raise checks.CheckFailure(
                        f"run {j} repeated with accuracy {acc!r}, first {first_accs[j]!r}"
                    )
            except checks.CheckFailure as exc:
                failed += 1
                ok = False
                print(f"{name}: run {j} failed a check: {exc}", file=sys.stderr)
                continue
            except Exception:
                failed += 1
                print(f"{name}: run {j} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                del pool
            pass_run_s += run_s
            intervals.extend(iv)
        pass_runs.append(pass_run_s)
        if time.perf_counter() - start >= seconds:
            break

    if failed == attempted:
        raise SystemExit(f"{name}: every adaptation run failed")
    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{name}-{seed}.json")
        values = spans.layer_metrics(tracer, len(pass_runs))
        metrics = {k: {"value": v, "unit": trace_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(pass_runs),
            "round_s": statistics.median(intervals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_accuracy": statistics.fmean(first_accs.values()),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ms", "ms")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> dict:
    """Every workload, each in its own process so that peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=CHECKOUT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name}: exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        for k, m in result["metrics"].items():
            print(f"{args.workload} {k} {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
