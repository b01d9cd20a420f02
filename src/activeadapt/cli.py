"""Command-line harness: full runs, strategy comparisons, and the
consistency-rate diagnostic. Exits nonzero on any invariant violation."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classifier import TrainConfig
from .datapool import ShiftConfig, generate_shifted_dataset, load_pool
from .harness import (
    LoopConfig,
    Strategy,
    aggregate_rows,
    compare_strategies,
    consistency_diagnostic,
    run_active_loop,
    seed_runs,
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
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} is not a JSON object of 'data' and 'loop' sections")
    missing = [s for s in ("data", "loop") if s not in cfg]
    if missing:
        raise ValueError(f"config {path} has no {' or '.join(map(repr, missing))} section")
    for section in ("data", "loop"):
        if not isinstance(cfg[section], dict):
            raise ValueError(f"config {path}: the {section!r} section is not a JSON object")
    return cfg


def _loop_config(d: dict) -> LoopConfig:
    d = dict(d)
    train, sfda = d.pop("train", {}), d.pop("sfda", None)
    for name, sub in (("train", train), ("sfda", {} if sfda is None else sfda)):
        if not isinstance(sub, dict):
            raise ValueError(f"the 'loop' section's {name!r} subsection is not a JSON object")
    sfda = None if sfda is None else SfdaConfig(**sfda)
    return LoopConfig(train=TrainConfig(**train), sfda=sfda, **d)


def _paired_configs(args):
    """The data and loop configs of a paired-seed command, whose pool is generated."""
    cfg = _read_config(args.config)
    if "file" in cfg["data"]:
        raise ValueError(f"{args.command} needs a generated dataset (paired seeds)")
    return ShiftConfig(**cfg["data"]), _loop_config(cfg["loop"])


def _list_arg(text: str, parse, flag: str, expected: str) -> list:
    """The parsed entries of a comma-separated argument. An entry that parse
    refuses (ValueError) is named with what was expected, and a repeated
    entry is refused."""
    values = []
    for entry in (v.strip() for v in text.split(",")):
        try:
            values.append(parse(entry))
        except ValueError:
            raise ValueError(f"{flag}: {entry!r} is not {expected}") from None
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} lists {value} more than once")
    return values


def _build_pool(data_cfg: dict):
    if "file" in data_cfg:
        ignored = sorted(set(data_cfg) - {"file"})
        if ignored:
            raise ValueError(
                f"a data file fixes its own pool; remove the generator keys {ignored}"
            )
        return load_pool(data_cfg["file"])
    return generate_shifted_dataset(ShiftConfig(**data_cfg))


def cmd_run(args) -> int:
    cfg = _read_config(args.config)
    loop = _loop_config(cfg["loop"])
    pool = _build_pool(cfg["data"])
    loop.check_budget(pool.sizes[2])
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    def emit(rep):
        (out / f"round_{rep.round_index:03d}.json").write_text(
            json.dumps(rep.to_dict(), indent=2)
        )
        print(
            f"round {rep.round_index}: accuracy={rep.accuracy:.4f}"
            + (
                f" selected_error_rate={rep.selected_error_rate:.4f}"
                if rep.selected_error_rate is not None
                else ""
            ),
            flush=True,
        )
        if rep.gmm is not None and not rep.gmm.converged:
            print(
                f"warning: round {rep.round_index}: mixture fit stopped at "
                f"{rep.gmm.n_iter} updates without converging",
                file=sys.stderr,
            )
        if len(rep.selected_ids) < loop.per_round:
            print(
                f"warning: round {rep.round_index}: annotated {len(rep.selected_ids)} "
                f"of {loop.per_round} samples",
                file=sys.stderr,
            )

    reports = run_active_loop(loop, pool, on_round_end=lambda _model, _pool, rep: emit(rep))
    write_aggregate_csv(out / "aggregate.csv", aggregate_rows(loop.strategy, loop.seed, reports))
    print(f"wrote {len(reports)} round reports to {out}")
    return 0


def cmd_compare(args) -> int:
    shift, loop = _paired_configs(args)
    names = _list_arg(args.strategies, lambda s: Strategy(s.replace("-", "_")).value,
                      "--strategies", "one of " + ", ".join(s.value for s in Strategy))
    strategies = [Strategy(s) for s in names]
    loop.check_budget(shift.n_target)  # every seed's pool holds n_target unlabeled rows
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    rows = compare_strategies(shift, loop, strategies, args.seeds)
    sys.stdout.write(write_aggregate_csv(out / "aggregate.csv", rows))

    final_round = max(r["round"] for r in rows)
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
    shift, loop = _paired_configs(args)
    ks = _list_arg(args.k_sweep, int, "--k-sweep", "an integer")
    for k in ks:
        if not 1 <= k <= loop.d_feat:
            raise ValueError(f"--k-sweep: k={k} must lie in [1, d_feat={loop.d_feat}]")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    results = []
    for seed_i, _cfg, pool, model in seed_runs(shift, loop, args.seeds):
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activeadapt",
        description="Active domain adaptation runs on synthetic domain-shifted pools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one full adaptation loop",
        description="Run one full adaptation loop and write one JSON report per round. "
        'A round\'s losses are reported only with {"loop": {"loss_report": true}} '
        "in the config, which costs one more pass over the round's training pools.",
    )
    p_run.add_argument("--config", help="JSON config (defaults used when omitted)")
    p_run.add_argument("--output", default="runs/run", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare selection strategies over seeds")
    p_cmp.add_argument(
        "--strategies",
        default="diana,random",
        help="comma-separated: diana,random,entropy,least_confidence",
    )
    p_cmp.add_argument("--seeds", type=_positive_int, default=3)
    p_cmp.add_argument("--config", help="JSON config (defaults used when omitted)")
    p_cmp.add_argument("--output", default="runs/compare")
    p_cmp.set_defaults(func=cmd_compare)

    p_diag = sub.add_parser(
        "diagnose-consistency",
        help="consistency rates of low- vs high-loss unlabeled subsets",
    )
    p_diag.add_argument("--k-sweep", default="8,16,32,64")
    p_diag.add_argument("--seeds", type=_positive_int, default=3)
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
