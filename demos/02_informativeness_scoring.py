"""Anatomy of the informativeness score.

For a source-pretrained model: build per-class centroids in feature space,
attach a similarity-based label to each unlabeled sample via top-k index
IoU, and score every sample as the cross-entropy at its reference label.
The four observation-label categories (confident/uncertain x
consistent/inconsistent) then become visible as separated score ranges.

Run:  python3 demos/02_informativeness_scoring.py
"""

import csv

import numpy as np

from activeadapt import (
    Classifier,
    ShiftConfig,
    TrainConfig,
    compute_centroids,
    generate_shifted_dataset,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_labels,
    pretrain_source,
)
from activeadapt.scoring import Category

K = 8
TAU = 0.95

cfg = ShiftConfig(
    C=5, d_in=8, n_source=500, n_target=2000,
    shift_kind="rotation", shift_magnitude=0.5, seed=7,
)
pool = generate_shifted_dataset(cfg)
model = Classifier.initialize(cfg.d_in, 64, cfg.C, np.random.default_rng(0))
pretrain_source(model, pool, TrainConfig(seed=0), epochs=50)

X_lab, y_lab = pool.labeled_arrays()
centroids = compute_centroids(model, X_lab, y_lab)
print(f"centroids: {centroids.C} classes, counts {centroids.counts.tolist()}\n")

# labeled side: scores at the ground-truth label, plus observation labels
labeled_scores = info_scores_labeled(model, X_lab, y_lab)
obs = observation_labels(model, X_lab, y_lab, TAU)
print("=== labeled scores by observation label (threshold 0.95) ===")
for cat in Category:
    mask = obs == cat
    if mask.any():
        print(
            f"  {cat.name}: n={mask.sum():4d}  "
            f"mean score={labeled_scores[mask].mean():6.3f}  "
            f"max={labeled_scores[mask].max():6.3f}"
        )

# unlabeled side: scores at the similarity-based label
u_ids, u_X = pool.unlabeled_arrays()
u_scores, sim = info_scores_unlabeled(model, centroids, u_X, K)
pred = model.predict(u_X)
consistent = pred == sim
print("\n=== unlabeled scores split by prediction/similarity agreement ===")
print(
    f"  consistent  : n={consistent.sum():4d}  mean score={u_scores[consistent].mean():.3f}"
)
print(
    f"  inconsistent: n={(~consistent).sum():4d}  mean score={u_scores[~consistent].mean():.3f}"
)
print(
    "\nInconsistent samples score much higher: the model is unsure at the"
    "\nlabel its own feature space points to. Those are the annotation"
    "\ncandidates."
)

# a per-sample CSV of the scoring detail
max_prob = model.predict_proba(u_X).max(axis=1)
rows = [
    {
        "id": int(i),
        "info_score": float(s),
        "sim_label": int(sl),
        "pred_label": int(p),
        "max_prob": float(mp),
        "obs_or_component": "consistent" if c else "inconsistent",
    }
    for i, s, sl, p, mp, c in zip(u_ids, u_scores, sim, pred, max_prob, consistent)
]
with open("demo_scores.csv", "w", newline="") as fh:
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows[:200])
print("\nwrote the first 200 rows to demo_scores.csv")
