"""Command-line harness: full runs, strategy comparisons, and the
consistency-rate diagnostic. Exits nonzero on any invariant violation."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .classifier import Classifier, TrainConfig
from .datapool import ShiftConfig, generate_shifted_dataset, load_pool
from .gmm import dump_params
from .harness import (
    AGGREGATE_FIELDS,
    LoopConfig,
    Strategy,
    aggregate_rows,
    compare_strategies,
    consistency_diagnostic,
    pretrain_source,
    run_active_loop,
    write_aggregate_csv,
)
from .sampler import SfdaConfig


def default_config() -> dict:
    return {
        "data": {
            "C": 5,
            "d_in": 8,
            "n_source": 500,
            "n_target": 2000,
            "shift_kind": "rotation",
            "shift_magnitude": 0.5,
            "seed": 0,
        },
        "loop": {
            "budget": 100,
            "rounds": 5,
            "strategy": "diana",
            "seed": 0,
            "train": {},
        },
    }


def _read_config(path) -> dict:
    if path is None:
        return default_config()
    return json.loads(Path(path).read_text())


def _loop_config(d: dict) -> LoopConfig:
    d = dict(d)
    train = TrainConfig(**d.pop("train", {}))
    sfda = d.pop("sfda", None)
    if sfda is not None:
        sfda = SfdaConfig(**sfda)
    return LoopConfig(train=train, sfda=sfda, **d)


def _build_pool(data_cfg: dict):
    if "file" in data_cfg:
        return load_pool(data_cfg["file"])
    return generate_shifted_dataset(ShiftConfig(**data_cfg))


def cmd_run(args) -> int:
    cfg = _read_config(args.config)
    loop = _loop_config(cfg["loop"])
    pool = _build_pool(cfg["data"])
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    reports = run_active_loop(loop, pool)
    for rep in reports:
        (out / f"round_{rep.round_index:03d}.json").write_text(
            json.dumps(rep.to_dict(), indent=2)
        )
        if rep.gmm is not None:
            dump_params(out / f"gmm_round_{rep.round_index:03d}.json", rep.gmm)
        print(
            f"round {rep.round_index}: accuracy={rep.accuracy:.4f}"
            + (
                f" selected_error_rate={rep.selected_error_rate:.4f}"
                if rep.selected_error_rate is not None
                else ""
            )
        )
    write_aggregate_csv(out / "aggregate.csv", aggregate_rows(loop.strategy, loop.seed, reports))
    print(f"wrote {len(reports)} round reports to {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _read_config(args.config)
    if "file" in cfg["data"]:
        raise ValueError("compare needs a generated dataset (paired seeds)")
    shift = ShiftConfig(**cfg["data"])
    loop = _loop_config(cfg["loop"])
    strategies = [Strategy(s.strip().replace("-", "_")) for s in args.strategies.split(",")]
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    rows = compare_strategies(shift, loop, strategies, args.seeds)
    write_aggregate_csv(out / "aggregate.csv", rows)

    final_round = max(r["round"] for r in rows)
    print(",".join(AGGREGATE_FIELDS))
    for row in rows:
        print(",".join(str(row[f]) for f in AGGREGATE_FIELDS))
    for strat in strategies:
        finals = [
            r["accuracy"]
            for r in rows
            if r["strategy"] == strat.value and r["round"] == final_round
        ]
        print(f"mean final accuracy [{strat.value}]: {np.mean(finals):.4f}")
    print(f"wrote aggregate CSV to {out / 'aggregate.csv'}")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _read_config(args.config)
    if "file" in cfg["data"]:
        raise ValueError("diagnose-consistency needs a generated dataset")
    shift = ShiftConfig(**cfg["data"])
    loop = _loop_config(cfg["loop"])
    ks = [int(v) for v in args.k_sweep.split(",")]
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    results = []
    for seed_i in range(args.seeds):
        data_cfg = dataclasses.replace(shift, seed=shift.seed + seed_i)
        pool = generate_shifted_dataset(data_cfg)
        model = Classifier.initialize(
            pool.d_in, loop.d_feat, pool.C, np.random.default_rng([loop.seed + seed_i, 0])
        )
        pretrain_source(model, pool, loop.train, loop.pretrain_epochs)
        diag = consistency_diagnostic(model, pool, ks)
        results.append(
            {
                "seed": seed_i,
                "rates": {
                    str(k): {str(q): v for q, v in per_q.items()}
                    for k, per_q in diag.items()
                },
            }
        )
    (out / "consistency_diagnostic.json").write_text(json.dumps(results, indent=2))
    for k in ks:
        lows = [r["rates"][str(k)]["0.5"]["low"] for r in results]
        highs = [r["rates"][str(k)]["0.5"]["high"] for r in results]
        print(
            f"k={k}: median-split consistency rate "
            f"low-loss={np.mean(lows):.3f} high-loss={np.mean(highs):.3f}"
        )
    print(f"wrote {out / 'consistency_diagnostic.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activeadapt",
        description="Active domain adaptation runs on synthetic domain-shifted pools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one full adaptation loop")
    p_run.add_argument("--config", help="JSON config (defaults used when omitted)")
    p_run.add_argument("--output", default="runs/run", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare selection strategies over seeds")
    p_cmp.add_argument(
        "--strategies",
        default="diana,random",
        help="comma-separated: diana,random,entropy,least_confidence",
    )
    p_cmp.add_argument("--seeds", type=int, default=3)
    p_cmp.add_argument("--config", help="JSON config (defaults used when omitted)")
    p_cmp.add_argument("--output", default="runs/compare")
    p_cmp.set_defaults(func=cmd_compare)

    p_diag = sub.add_parser(
        "diagnose-consistency",
        help="consistency rates of low- vs high-loss unlabeled subsets",
    )
    p_diag.add_argument("--k-sweep", default="8,16,32,64")
    p_diag.add_argument("--seeds", type=int, default=3)
    p_diag.add_argument("--config", help="JSON config (defaults used when omitted)")
    p_diag.add_argument("--output", default="runs/diagnose")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # invariant violations surface as nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
