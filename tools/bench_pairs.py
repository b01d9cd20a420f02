"""Paired A/B runs of the benchmark on two git revisions, run from inside
the repository:

    python3 tools/bench_pairs.py HEAD~1 HEAD --workload desk --seed 11 --seconds 10

PARENT and CHANGE are revisions of the git repository in the current
directory. Each is resolved to its commit and exported with `git archive`
into a fresh temporary directory, so neither side runs from a working tree
or its caches; both exports are removed when the tool exits, on an error
too. An unknown revision or a --pairs value below 1 is refused before the
first run. The tool then runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in each export, one run at a time. Pair i uses the i-th --seed (cycling
through them when there are fewer seeds than pairs), and the side that runs
first flips every pair, parent first in pair 0.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles and the change's wins (ties count for neither side), and
whether the gain rule holds: the change wins at least 9 pairs in 10, and
its median is better than the parent's by more than the parent's
interquartile range. Beside it, the median and quartiles of the per-pair
ratio change/parent show how consistent the shift is from pair to pair;
they are evidence only and take no part in the rule. After the pairs, each
side makes one more run with `--trace 1`, at the first --seed, in the same
export, and the tool prints every per_layer metric of BENCHMARK.json whose
unit is count, parent and change side by side with the exact difference
change - parent (null when a side does not report the metric). These work
counts are evidence only too. The last line of standard output is one JSON
object holding each side's commit, every timed run's result and, under
"counts", the traced counts and their differences. Each timed
result carries, under "host", the state of the host just before the run:
the CPUs this process may run on (nproc), the load averages, and the
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS settings (null
when unset); each run's standard-error line prints them too. Exits
non-zero if a run exits with an error or reports `correct: false` or a
failed adaptation run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear interpolation."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, better: str) -> dict:
    """The paired comparison of one metric: parent[i] and change[i] come
    from pair i; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (p_med - c_med)
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "ratio": quartiles([c / p if p else math.nan for p, c in zip(parent, change)]),
        "rule_holds": wins >= 0.9 * len(parent) and gain > p3 - p1,
    }


def resolve(rev: str) -> str:
    """The commit that rev names in the git repository of the current
    directory; SystemExit naming rev if it names none."""
    found = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if found.returncode != 0:
        raise SystemExit(f"{rev!r} names no commit of the git repository in {Path.cwd()}")
    return found.stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """The tree of commit, written into the new directory dest."""
    archive = subprocess.run(["git", "archive", commit], stdout=subprocess.PIPE, check=True)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def _pairs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout.name}: {' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def work_counts(per_layer, traced: dict) -> dict:
    """{metric: {"parent", "change", "difference"}} for each count metric of
    per_layer, read from the traced result of each side; a value a side does
    not report, and the difference beside it, are None."""
    out = {}
    for metric in per_layer:
        if metric["unit"] != "count":
            continue
        name = metric["name"]
        p, c = (traced[side]["metrics"].get(name, {}).get("value") for side in ("parent", "change"))
        out[name] = {"parent": p, "change": c,
                     "difference": None if p is None or c is None else c - p}
    return out


def _num(value) -> str:
    return "null" if value is None else f"{value:.12g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision")
    ap.add_argument("change", help="git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=_pairs, default=10)
    args = ap.parse_args(argv)
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {name: export(commit, Path(tmp) / name) for name, commit in commits.items()}
        return compare(args, commits, sides)


def compare(args, commits: dict, sides: dict) -> int:
    """Run the pairs on the exported sides and print the comparison."""
    results = {name: [] for name in sides}
    ok = True
    for i in range(args.pairs):
        seed = args.seed[i % len(args.seed)]
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name in order:
            host = {"nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
                    **{var: os.environ.get(var) for var in THREAD_VARS}}
            result = run_once(sides[name], args.workload, seed, args.seconds)
            result["host"] = host
            ok &= bool(result["correct"]) and result["failed"] == 0
            results[name].append(result)
            run_s = result["metrics"].get("run_s", {}).get("value")
            print(f"pair {i} seed {seed} {name}: run_s {run_s} failed {result['failed']} "
                  f"host {json.dumps(host)}", file=sys.stderr)
    traced = {name: run_once(sides[name], args.workload, args.seed[0], args.seconds, trace=1)
              for name in ("parent", "change")}
    ok &= all(bool(r["correct"]) and r["failed"] == 0 for r in traced.values())
    benchmark = json.loads(BENCHMARK.read_text())
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}, {args.seconds:g} s runs")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        s = summarize(values["parent"], values["change"], metric["better"])
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {s['parent'][1]:.6g} [{s['parent'][0]:.6g}, {s['parent'][2]:.6g}] "
              f"change {s['change'][1]:.6g} [{s['change'][0]:.6g}, {s['change'][2]:.6g}] "
              f"wins {s['wins']}/{s['pairs']} losses {s['losses']} "
              f"rule {'holds' if s['rule_holds'] else 'does not hold'} "
              f"change/parent {s['ratio'][1]:.4g} [{s['ratio'][0]:.4g}, {s['ratio'][2]:.4g}]")
    counts = work_counts(benchmark["per_layer"], traced)
    for name, c in counts.items():
        print(f"{name} (count, traced, seed {args.seed[0]}): parent {_num(c['parent'])} "
              f"change {_num(c['change'])} difference {_num(c['difference'])}")
    print(json.dumps({"workload": args.workload, "seeds": args.seed, "commits": commits,
                      "runs": results, "counts": counts}))
    if not ok:
        print("a run reported correct: false or a failed adaptation run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
