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
first flips every pair, parent first in pair 0. The workload must be `all`
or a name in the NAMES tuple of both commits' perfbench/workloads.py; any
other is refused before the first export too.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles and the change's wins (ties count for neither side), and
whether the gain rule holds: the change wins at least 9 pairs in 10, and
its median is better than the parent's by more than the parent's
interquartile range. Beside it, the median and quartiles of the per-pair
ratio change/parent show how consistent the shift is from pair to pair;
they are evidence only and take no part in the rule. Each line ends with
the no-regression verdict, evidence only too: `regressed` when the change's
median is worse than the parent's by more than the metric's BENCHMARK.json
bound, taken relative to the parent median; `unresolved` when the parent's
own interquartile range is wider than that share of its median, unless
every change run beats every parent run; else `holds`. With `--workload all`
the runs name their metrics `<workload>/<metric>`, and every line here is
printed once per workload the runs report. After the pairs, each
side makes one more run with `--trace 1`, at the first --seed, in the same
export, and the tool prints every per_layer metric of BENCHMARK.json whose
unit is count, parent and change side by side with the exact difference
change - parent (null when a side does not report the metric). It then
prints every per_layer metric whose unit is s, ms or us the same way, each
value in its unit. These work counts and per-layer times are evidence only
too; each time is one traced run a side, so it shows where a run's time
went, not a resolved difference. The last line of standard output is one
JSON object holding each side's commit, every timed run's result and, under
"counts", the traced counts and their differences, under "times" the
traced per-layer times (with "traced_runs_per_side": 1 and
"evidence_only": true beside them), and under "verdicts" each end-to-end
metric's verdict. Each timed
result carries, under "host", the state of the host just before the run:
the CPUs this process may run on (nproc), the load averages, and the
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS settings (null
when unset); each run's standard-error line prints them too. Exits
non-zero if a run exits with an error or reports `correct: false` or a
failed adaptation run.
"""

from __future__ import annotations

import argparse
import ast
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


def summarize(parent, change, better: str, bound: float) -> dict:
    """The paired comparison of one metric: parent[i] and change[i] come
    from pair i; better is "lower" or "higher", and bound is the metric's
    allowed worsening as a share of the parent median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (p_med - c_med)
    allowed = bound * abs(p_med)
    beats_every_run = max(change) < min(parent) if sign > 0 else min(change) > max(parent)
    if p3 - p1 > allowed and not beats_every_run:
        verdict = "unresolved"
    elif -gain > allowed:
        verdict = "regressed"
    else:
        verdict = "holds"
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "ratio": quartiles([c / p if p else math.nan for p, c in zip(parent, change)]),
        "rule_holds": wins >= 0.9 * len(parent) and gain > p3 - p1,
        "verdict": verdict,
    }


def resolve(rev: str) -> str:
    """The commit that rev names in the git repository of the current
    directory; SystemExit naming rev if it names none."""
    found = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if found.returncode != 0:
        raise SystemExit(f"{rev!r} names no commit of the git repository in {Path.cwd()}")
    return found.stdout.strip()


def workload_names(commit: str) -> tuple[str, ...]:
    """The NAMES tuple of perfbench/workloads.py at commit, read without
    importing it; SystemExit when the file or the tuple is missing."""
    shown = subprocess.run(["git", "show", f"{commit}:perfbench/workloads.py"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if shown.returncode == 0:
        for node in ast.parse(shown.stdout).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "NAMES" for target in node.targets):
                return tuple(ast.literal_eval(node.value))
    raise SystemExit(f"commit {commit} has no NAMES tuple in perfbench/workloads.py")


def result_keys(names, reported) -> list[str]:
    """The result keys of each metric in names: the name itself for one
    workload; for `--workload all`, `<workload>/<name>` for each workload
    the reported keys name, in their order."""
    prefixes = dict.fromkeys(key.rpartition("/")[0] for key in reported)
    return [f"{prefix}/{name}" if prefix else name for prefix in prefixes for name in names]


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


TIME_UNITS = ("s", "ms", "us")


def traced_values(per_layer, traced: dict, units) -> dict:
    """{metric: {"parent", "change", "difference"}} for each metric of
    per_layer whose unit is in units (under each workload's key,
    result_keys), read from the traced result of each side; a value a side
    does not report, and the difference beside it, are None. A time metric
    (units other than count) also carries its "unit"."""
    unit_of = {metric["name"]: metric["unit"] for metric in per_layer
               if metric["unit"] in units}
    reported = [*traced["parent"]["metrics"], *traced["change"]["metrics"]]
    out = {}
    for key in result_keys(list(unit_of), reported):
        p, c = (traced[side]["metrics"].get(key, {}).get("value") for side in ("parent", "change"))
        out[key] = {"parent": p, "change": c,
                    "difference": None if p is None or c is None else c - p}
        unit = unit_of[key.rpartition("/")[2]]
        if unit != "count":
            out[key]["unit"] = unit
    return out


def _num(value, unit: str = "count") -> str:
    if value is None:
        return "null"
    return f"{value:.12g}" if unit == "count" else f"{value:.6g} {unit}"


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
    if args.workload != "all":
        for side, commit in commits.items():
            if args.workload not in workload_names(commit):
                raise SystemExit(f"--workload {args.workload!r} is neither 'all' nor a "
                                 f"workload of the {side} commit {commit}")
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
            run_s = {key: result["metrics"].get(key, {}).get("value")
                     for key in result_keys(["run_s"], result["metrics"])}
            print(f"pair {i} seed {seed} {name}: {json.dumps(run_s)} failed {result['failed']} "
                  f"host {json.dumps(host)}", file=sys.stderr)
    traced = {name: run_once(sides[name], args.workload, args.seed[0], args.seconds, trace=1)
              for name in ("parent", "change")}
    ok &= all(bool(r["correct"]) and r["failed"] == 0 for r in traced.values())
    benchmark = json.loads(BENCHMARK.read_text())
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}, {args.seconds:g} s runs")
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    verdicts = {}
    for key in result_keys(list(metrics), results["parent"][0]["metrics"]):
        metric = metrics[key.rpartition("/")[2]]
        values = {side: [r["metrics"][key]["value"] for r in runs]
                  for side, runs in results.items()}
        s = summarize(values["parent"], values["change"], metric["better"], metric["bound"])
        verdicts[key] = s["verdict"]
        print(f"{key} ({metric['unit']}, {metric['better']} is better): "
              f"parent {s['parent'][1]:.6g} [{s['parent'][0]:.6g}, {s['parent'][2]:.6g}] "
              f"change {s['change'][1]:.6g} [{s['change'][0]:.6g}, {s['change'][2]:.6g}] "
              f"wins {s['wins']}/{s['pairs']} losses {s['losses']} "
              f"rule {'holds' if s['rule_holds'] else 'does not hold'} "
              f"change/parent {s['ratio'][1]:.4g} [{s['ratio'][0]:.4g}, {s['ratio'][2]:.4g}] "
              f"verdict {s['verdict']}")
    counts = traced_values(benchmark["per_layer"], traced, ("count",))
    for name, c in counts.items():
        print(f"{name} (count, traced, seed {args.seed[0]}): parent {_num(c['parent'])} "
              f"change {_num(c['change'])} difference {_num(c['difference'])}")
    times = traced_values(benchmark["per_layer"], traced, TIME_UNITS)
    for name, t in times.items():
        u = t["unit"]
        print(f"{name} ({u}, traced, one run each, seed {args.seed[0]}): "
              f"parent {_num(t['parent'], u)} change {_num(t['change'], u)} "
              f"difference {_num(t['difference'], u)}")
    print(json.dumps({"workload": args.workload, "seeds": args.seed, "commits": commits,
                      "runs": results, "counts": counts,
                      "times": {"traced_runs_per_side": 1, "evidence_only": True,
                                "metrics": times},
                      "verdicts": verdicts}))
    if not ok:
        print("a run reported correct: false or a failed adaptation run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
