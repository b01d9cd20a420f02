"""How the synthetic domain gap behaves.

Generates class-conditional Gaussian data, applies a rotation shift of
increasing magnitude, pretrains the classifier on the source domain, and
shows how target accuracy degrades while source accuracy stays put. This is
the raw material every other demo builds on: adaptation only matters when
this gap exists.

Run:  python3 demos/01_synthetic_domain_shift.py
"""

import numpy as np

from activeadapt import (
    Classifier,
    ShiftConfig,
    TrainConfig,
    evaluate,
    generate_shifted_dataset,
    pretrain_source,
)

print("=== source-only training under increasing domain shift ===\n")
print(f"{'magnitude':>10} {'source acc':>11} {'target acc':>11}")

for magnitude in (0.0, 0.25, 0.5, 0.75, 1.0):
    cfg = ShiftConfig(
        C=5, d_in=8, n_source=500, n_target=2000,
        shift_kind="rotation", shift_magnitude=magnitude, seed=7,
    )
    pool = generate_shifted_dataset(cfg)

    model = Classifier.initialize(cfg.d_in, 64, cfg.C, np.random.default_rng(0))
    pretrain_source(model, pool, TrainConfig(seed=0), epochs=50)

    X_s, y_s = pool.labeled_arrays(include_source=True)
    source_acc = float(np.mean(model.predict(X_s) == y_s))
    target_acc = evaluate(model, pool)
    print(f"{magnitude:>10.2f} {source_acc:>11.3f} {target_acc:>11.3f}")

print(
    "\nThe source fit barely moves, but the rotated target distribution"
    "\ncosts more accuracy the further it drifts. The rest of the demos"
    "\nspend a small annotation budget to close that gap."
)
