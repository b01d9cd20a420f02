"""SHA-256 digests of every round report of the benchmark's workloads, run
from the root of a checkout:

    python3 tools/report_digest.py --workload desk --seed 1 --seed 2
    python3 tools/report_digest.py --workload desk --workload pool-200k --seed 1
    python3 tools/report_digest.py --workload all --seed 1
    python3 tools/report_digest.py --workload desk --seed 11 --seed 12 --accuracy
    python3 tools/report_digest.py --workload all --seed 1 --dump runs/reports
    python3 tools/report_digest.py --workload all --seed 1 --blas-threads 2

prints one line `<workload> <seed> <sha256>` per (workload, seed); with
--accuracy the line goes on with each run's final accuracy, in run order,
so one command per checkout gives a before/after accuracy table. The
digest covers `json.dumps(report.to_dict(), sort_keys=True)` for every
round of every adaptation run the workload makes, in run order, so two
checkouts print the same line exactly when their reports are byte-identical
(JSON floats round-trip, so that means bit-identical numbers too).

With --dump DIR every (workload, seed) also writes DIR/<workload>-<seed>.json:
a JSON list with one entry per run, each the list of its round reports'
to_dict(). tools/report_diff.py compares two such directories.

The runs are built by perfbench's own workload builders (perfbench/
workloads.py, imported, never modified) from this checkout's sources, with
BLAS on one thread as in the benchmark, or on N threads with
--blas-threads N: the tool sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to N after parsing its arguments and before anything imports
numpy, so two runs at different N show whether the reports depend on the
thread count. The pool-200k feature dump is written to a temporary directory
that is removed afterwards.

Every job runs with the loss report turned on (LoopConfig.loss_report,
set with dataclasses.replace; perfbench leaves it off), so the digests and
dumps cover each mixture round's losses too.

Four more names run perfbench's desk jobs down the loop's other paths, each
job's LoopConfig changed with dataclasses.replace too: desk-sfda
(source-free, the default SfdaConfig), desk-random, desk-entropy and
desk-least_confidence (the baseline strategies). `all` covers them too.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
VARIANTS = ("desk-sfda", "desk-random", "desk-entropy", "desk-least_confidence")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest(runs) -> str:
    """SHA-256 over the sorted-key JSON of every report of every run (an
    iterable of report lists), one line per report."""
    h = hashlib.sha256()
    for reports in runs:
        for report in reports:
            h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def workload_names() -> tuple[str, ...]:
    """The NAMES tuple of perfbench/workloads.py, read without importing the
    module, which imports numpy."""
    path = CHECKOUT / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "NAMES" for target in node.targets):
            return tuple(ast.literal_eval(node.value))
    raise SystemExit(f"{path} has no NAMES tuple")


def _engine():
    """This checkout's activeadapt package and perfbench's workloads module."""
    for path in (CHECKOUT / "src", CHECKOUT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import activeadapt
    import workloads

    return activeadapt, workloads


def workload_runs(name: str, seed: int) -> list:
    """The reports of every run perfbench makes for (name, seed), or, for a
    VARIANTS name, of its desk jobs run with the variant's config; the loss
    report is on in every job."""
    activeadapt, workloads = _engine()
    changes = {"loss_report": True}
    if name in VARIANTS:
        kind = name.removeprefix("desk-")
        if kind == "sfda":
            changes["sfda"] = activeadapt.SfdaConfig()
        else:
            changes["strategy"] = activeadapt.Strategy(kind)
        name = "desk"
    with tempfile.TemporaryDirectory() as tmp:
        plan = workloads.make(name, activeadapt, seed, Path(tmp))
        try:
            runs = [
                activeadapt.harness.run_active_loop(
                    dataclasses.replace(job.cfg, **changes), job.build()
                )
                for job in plan.jobs
            ]
        finally:
            plan.cleanup()
    return runs


def main(argv=None) -> int:
    names = workload_names() + VARIANTS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", action="append", required=True, choices=names + ("all",),
        help="a perfbench workload, a desk variant, or all; repeat for several",
    )
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument(
        "--accuracy", action="store_true",
        help="append each run's final accuracy to its workload's line",
    )
    ap.add_argument(
        "--dump", type=Path, metavar="DIR",
        help="also write each (workload, seed)'s round reports to DIR as JSON",
    )
    ap.add_argument(
        "--blas-threads", type=int, default=1, metavar="N",
        help="BLAS threads of the runs (default 1, as in the benchmark)",
    )
    args = ap.parse_args(argv)
    if args.blas_threads < 1:
        ap.error(f"argument --blas-threads: must be at least 1, got {args.blas_threads}")
    # before numpy is first imported, as perfbench/run.py does
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    if "all" not in args.workload:
        names = tuple(dict.fromkeys(args.workload))
    for name in names:
        for seed in args.seed:
            runs = workload_runs(name, seed)
            line = f"{name} {seed} {digest(runs)}"
            if args.accuracy:
                line += "".join(f" {reports[-1].accuracy!r}" for reports in runs)
            print(line, flush=True)
            if args.dump is not None:
                dump = [[report.to_dict() for report in reports] for reports in runs]
                (args.dump / f"{name}-{seed}.json").write_text(json.dumps(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
