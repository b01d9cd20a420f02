"""SHA-256 digests of every round report of the benchmark's workloads, run
from the root of a checkout:

    python3 tools/report_digest.py --workload desk --seed 1 --seed 2
    python3 tools/report_digest.py --workload desk --workload pool-200k --seed 1
    python3 tools/report_digest.py --workload all --seed 1

prints one line `<workload> <seed> <sha256>` per (workload, seed). The
digest covers `json.dumps(report.to_dict(), sort_keys=True)` for every
round of every adaptation run the workload makes, in run order, so two
checkouts print the same line exactly when their reports are byte-identical
(JSON floats round-trip, so that means bit-identical numbers too).

The runs are built by perfbench's own workload builders (perfbench/
workloads.py, imported, never modified) from this checkout's sources, with
BLAS on one thread as in the benchmark. The pool-200k feature dump is
written to a temporary directory that is removed afterwards.

Four more names run perfbench's desk jobs down the loop's other paths, each
job's LoopConfig changed with dataclasses.replace: desk-sfda (source-free,
the default SfdaConfig), desk-random, desk-entropy and
desk-least_confidence (the baseline strategies). `all` covers them too.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
VARIANTS = ("desk-sfda", "desk-random", "desk-entropy", "desk-least_confidence")


def digest(runs) -> str:
    """SHA-256 over the sorted-key JSON of every report of every run (an
    iterable of report lists), one line per report."""
    h = hashlib.sha256()
    for reports in runs:
        for report in reports:
            h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def _engine():
    """This checkout's activeadapt package and perfbench's workloads module."""
    for path in (CHECKOUT / "src", CHECKOUT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import activeadapt
    import workloads

    return activeadapt, workloads


def workload_digest(name: str, seed: int) -> str:
    """Digest of the reports of the runs perfbench makes for (name, seed),
    or, for a VARIANTS name, of its desk jobs run with the variant's config."""
    activeadapt, workloads = _engine()
    changes = {}
    if name in VARIANTS:
        kind = name.removeprefix("desk-")
        if kind == "sfda":
            changes = {"sfda": activeadapt.SfdaConfig()}
        else:
            changes = {"strategy": activeadapt.Strategy(kind)}
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
    return digest(runs)


def main(argv=None) -> int:
    # before numpy is first imported, as perfbench/run.py does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    names = _engine()[1].NAMES + VARIANTS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", action="append", required=True, choices=names + ("all",),
        help="a perfbench workload, a desk variant, or all; repeat for several",
    )
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args(argv)
    if "all" not in args.workload:
        names = tuple(dict.fromkeys(args.workload))
    for name in names:
        for seed in args.seed:
            print(f"{name} {seed} {workload_digest(name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
