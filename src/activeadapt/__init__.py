"""Pool-based active domain adaptation engine.

Scores unlabeled target samples by informativeness, partitions them with a
semi-supervised four-component Gaussian mixture, selects an annotation
batch, and trains a small classifier with per-subset losses against a
simulated labeling oracle.

The top level re-exports the names the demos, perfbench and tools/ import
from it; every other name is imported from its module.
"""

from .classifier import Classifier, TrainConfig
from .datapool import DataPool, ShiftConfig, generate_shifted_dataset
from .gmm import GmmTrainSet, component_posteriors, run_em
from .harness import (
    LoopConfig,
    Strategy,
    compare_strategies,
    evaluate,
    pretrain_source,
    run_active_loop,
)
from .sampler import SfdaConfig, sfda_bootstrap
from .scoring import (
    compute_centroids,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_labels,
)

__version__ = "0.1.0"
