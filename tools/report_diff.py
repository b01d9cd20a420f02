"""How far the round reports of two checkouts differ, run from the root of a
checkout on two directories written by tools/report_digest.py --dump:

    python3 tools/report_digest.py --workload all --seed 1 --dump runs/before
    (change the sources, or run the other checkout's tool)
    python3 tools/report_digest.py --workload all --seed 1 --dump runs/after
    python3 tools/report_diff.py runs/before runs/after

prints one line per (workload, seed, run), sorted by file name. A run
whose reports are identical reads `identical`; otherwise the line gives

- the first round whose report differs in any field;
- how many selected ids moved: ids selected in a round of A and not in the
  same round of B, summed over the rounds both runs have;
- the largest relative drift |a - b| / max(|a|, |b|) of the mixture's pi,
  mu and sigma2 and of its objective over those rounds (inf where only one
  side fitted a mixture);
- the largest relative drift of the loss report's supervised,
  consistency, entropy and total terms (inf where only one side reported
  losses) and the largest |d| of selected_error_rate (inf where only one
  side has a rate);
- the largest |d| of selected_posteriors over the rounds whose batches are
  the same ids in the same order (inf where only one side has posteriors);
- the largest change of a partition size, in rows, and the final and
  largest accuracy deltas (B - A).

A (workload, seed) or run that only one side has gets a line that says so.
Exits 0 only when both sides hold the same runs with identical reports,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

MIXTURE = ("pi", "mu", "sigma2", "objective")
LOSSES = ("supervised", "consistency", "entropy", "total")


def rel_drift(a, b) -> float:
    """Largest |x - y| / max(|x|, |y|) over paired values; 0 when all are equal."""
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y), default=0.0)


def diff_run(a: list[dict], b: list[dict]) -> dict | None:
    """None when the two runs' reports are identical, else the figures the
    module docstring lists, keyed first, moved, pi, mu, sigma2, objective,
    losses, error_rate, posteriors, partition, final_accuracy and accuracy."""
    if a == b:
        return None
    pairs = list(zip(a, b))
    differ = [ra["round"] for ra, rb in pairs if ra != rb]
    first = differ[0] if differ else max(a, b, key=len)[len(pairs)]["round"]
    out = {"first": first, "moved": 0, "partition": 0, "accuracy": 0.0,
           "losses": 0.0, "error_rate": 0.0, "posteriors": 0.0}
    out.update(dict.fromkeys(MIXTURE, 0.0))
    for ra, rb in pairs:
        out["moved"] += len(set(ra["selected_ids"]) - set(rb["selected_ids"]))
        ga, gb = ra.get("gmm"), rb.get("gmm")
        for key in MIXTURE:
            if (ga is None) != (gb is None):
                out[key] = math.inf
            elif ga is not None:
                va, vb = ga[key], gb[key]
                if key == "objective":
                    va, vb = [va], [vb]
                out[key] = max(out[key], rel_drift(va, vb))
        la, lb = ra.get("losses"), rb.get("losses")
        if (la is None) != (lb is None):
            out["losses"] = math.inf
        elif la is not None:
            drift = rel_drift([la[key] for key in LOSSES], [lb[key] for key in LOSSES])
            out["losses"] = max(out["losses"], drift)
        ea, eb = ra["selected_error_rate"], rb["selected_error_rate"]
        if (ea is None) != (eb is None):
            out["error_rate"] = math.inf
        elif ea is not None:
            out["error_rate"] = max(out["error_rate"], abs(eb - ea))
        pa, pb = ra["selected_posteriors"], rb["selected_posteriors"]
        if (pa is None) != (pb is None):
            out["posteriors"] = math.inf
        elif pa is not None and ra["selected_ids"] == rb["selected_ids"]:
            drift = max((abs(y - x) for x, y in zip(pa, pb)), default=0.0)
            out["posteriors"] = max(out["posteriors"], drift)
        sa, sb = ra["partition_sizes"], rb["partition_sizes"]
        for cat in set(sa) | set(sb):
            out["partition"] = max(out["partition"], abs(sb.get(cat, 0) - sa.get(cat, 0)))
        out["accuracy"] = max(out["accuracy"], abs(rb["accuracy"] - ra["accuracy"]))
    out["final_accuracy"] = b[-1]["accuracy"] - a[-1]["accuracy"] if a and b else math.nan
    return out


def describe(d: dict | None) -> str:
    if d is None:
        return "identical"
    drift = " ".join(f"{key} {d[key]:.3g}" for key in MIXTURE)
    return (
        f"first differing round {d['first']}; ids moved {d['moved']}; drift {drift}; "
        f"losses drift {d['losses']:.3g}; error rate max |d| {d['error_rate']:.6g}; "
        f"posteriors max |d| {d['posteriors']:.3g}; "
        f"partition max |d| {d['partition']}; accuracy final {d['final_accuracy']:+.6g} "
        f"max |d| {d['accuracy']:.6g}"
    )


def _label(stem: str) -> str:
    workload, seed = stem.rsplit("-", 1)
    return f"{workload} {seed}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="report_digest --dump directory (before)")
    ap.add_argument("b", type=Path, help="report_digest --dump directory (after)")
    args = ap.parse_args(argv)
    files = {
        side: {p.stem: p for p in folder.glob("*.json")}
        for side, folder in (("A", args.a), ("B", args.b))
    }
    same = True
    for stem in sorted(files["A"].keys() | files["B"].keys()):
        missing = [side for side in ("A", "B") if stem not in files[side]]
        if missing:
            print(f"{_label(stem)}: only in {'B' if missing == ['A'] else 'A'}")
            same = False
            continue
        runs_a, runs_b = (json.loads(files[side][stem].read_text()) for side in ("A", "B"))
        for j in range(max(len(runs_a), len(runs_b))):
            if j >= len(runs_a) or j >= len(runs_b):
                print(f"{_label(stem)} run {j}: only in {'A' if j < len(runs_a) else 'B'}")
                same = False
                continue
            d = diff_run(runs_a[j], runs_b[j])
            same &= d is None
            print(f"{_label(stem)} run {j}: {describe(d)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
