"""The benchmark's workloads: inputs made from the --seed argument, and the
adaptation runs made on them.

- desk: the README desk-scale configuration over three seeds. SGD step
  overhead dominates, then EM; pool views are small.
- pool-200k: a 200k-target feature dump ingested with load_pool (the
  `"data": {"file": ...}` path), DiaNA with few epochs and two rounds. EM
  over the unlabeled scores dominates, then scoring and pool views.
- wide: 10 classes, 64-D inputs, d_feat 256 (k = 32), 20k targets, mixed
  shift. Top-k ranking per scored row costs several times more than on
  pool-200k, and SGD steps are bound by matrix multiplies, not call overhead.
  It is not in BENCHMARK.json: with it, one seed of every workload took
  about 130 s on a 2-vCPU host, too long for the repeated runs a comparison
  needs. Run it by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import Reference

NAMES = ("desk", "pool-200k", "wide")


@dataclass
class Job:
    """One adaptation run: a pool build (the timed set-up) and its config."""

    build: Callable[[], object]
    cfg: object  # activeadapt.LoopConfig
    reference: Reference | None = None  # None: recorded from the first build


@dataclass
class Plan:
    jobs: list[Job]
    setup_samples: int  # pool builds timed per benchmark run, at least
    files: list[Path] = field(default_factory=list)  # removed when the run ends

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def reference_from_pool(pool) -> Reference:
    """Record a freshly built pool's inputs before any run touches it."""
    source_X, source_y = pool.labeled_arrays(include_source=True)
    ids, X = pool.target_arrays()
    order = np.argsort(ids)
    ids, X = ids[order], X[order]
    return Reference(source_X, source_y, ids, X, pool.evaluation_labels(ids))


def _generated(aa, shift, loop) -> Job:
    return Job(lambda: aa.datapool.generate_shifted_dataset(shift), loop)


def desk(aa, seed: int, workdir: Path) -> Plan:
    jobs = []
    for s in _seeds(seed, 1, 3):
        shift = aa.ShiftConfig(C=5, d_in=8, n_source=500, n_target=2000,
                               shift_kind="rotation", shift_magnitude=0.5, seed=s)
        loop = aa.LoopConfig(budget=100, rounds=5, d_feat=64,
                             train=aa.TrainConfig(seed=s), seed=s)
        jobs.append(_generated(aa, shift, loop))
    return Plan(jobs, setup_samples=21)


def wide(aa, seed: int, workdir: Path) -> Plan:
    (s,) = _seeds(seed, 3, 1)
    shift = aa.ShiftConfig(C=10, d_in=64, n_source=2000, n_target=20000,
                           shift_kind="mixed", shift_magnitude=0.5, seed=s)
    loop = aa.LoopConfig(budget=100, rounds=2, d_feat=256, pretrain_epochs=10,
                         train=aa.TrainConfig(epochs_per_round=5, seed=s), seed=s)
    return Plan([_generated(aa, shift, loop)], setup_samples=5)


def draw_pool(seed: int, C: int, d_in: int, n_source: int, n_target: int) -> Reference:
    """Class-conditional unit Gaussians with means on a regular simplex
    (pairwise distance 4) in random orientation. The target domain is
    rotated by a fixed angle in random planes (a Cayley transform) and
    translated by 0.5 in a random direction, so every seed poses a problem
    of the same difficulty."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d_in, C)))
    means = (np.eye(C) - 1.0 / C) @ basis.T * (4.0 / np.sqrt(2.0))
    G = rng.standard_normal((d_in, d_in))
    S = 0.25 * (G - G.T) / np.linalg.norm(G - G.T, 2)
    rotation = np.linalg.solve(np.eye(d_in) - S, np.eye(d_in) + S)
    u = rng.standard_normal(d_in)
    offset = 0.5 * u / np.linalg.norm(u)
    source_y = np.concatenate([np.arange(C), rng.integers(0, C, n_source - C)])
    rng.shuffle(source_y)
    source_X = means[source_y] + rng.standard_normal((n_source, d_in))
    target_y = rng.integers(0, C, n_target)
    target_X = (means[target_y] + rng.standard_normal((n_target, d_in))) @ rotation.T + offset
    target_ids = np.arange(n_source, n_source + n_target)
    return Reference(source_X, source_y, target_ids, target_X, target_y)


def write_dump(path: Path, ref: Reference, C: int) -> None:
    """The load_pool format: header `d_in,C`, then `id,domain,label,f_0,...`.
    repr round-trips every float exactly."""
    d_in = ref.source_X.shape[1]
    parts = [
        ("S", np.arange(ref.source_y.size), ref.source_X, ref.source_y),
        ("T", ref.target_ids, ref.target_X, ref.target_y),
    ]
    with open(path, "w") as fh:
        fh.write(f"{d_in},{C}\n")
        for dom, ids, X, y in parts:
            for s in range(0, ids.size, 8192):
                rows = zip(ids[s : s + 8192].tolist(), y[s : s + 8192].tolist(),
                           X[s : s + 8192].tolist())
                fh.write("".join(f"{i},{dom},{lab},{','.join(map(repr, x))}\n"
                                 for i, lab, x in rows))


def pool_200k(aa, seed: int, workdir: Path) -> Plan:
    (s,) = _seeds(seed, 2, 1)
    C = 5
    ref = draw_pool(s, C=C, d_in=8, n_source=500, n_target=200_000)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"pool-200k-{seed}.csv"
    try:
        write_dump(path, ref, C)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    loop = aa.LoopConfig(budget=200, rounds=2, d_feat=64, pretrain_epochs=5,
                         train=aa.TrainConfig(epochs_per_round=3, seed=s), seed=s)
    job = Job(lambda: aa.datapool.load_pool(path), loop, ref)
    return Plan([job], setup_samples=3, files=[path])


def make(name: str, aa, seed: int, workdir: Path) -> Plan:
    return {"desk": desk, "pool-200k": pool_200k, "wide": wide}[name](aa, seed, workdir)
