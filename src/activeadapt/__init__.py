"""Pool-based active domain adaptation engine.

Scores unlabeled target samples by informativeness, partitions them with a
semi-supervised four-component Gaussian mixture, selects an annotation
batch, and trains a small classifier with per-subset losses against a
simulated labeling oracle.
"""

from .classifier import (
    Classifier,
    LossBreakdown,
    NonFiniteGradientError,
    TrainConfig,
    augment,
    backward_and_step,
    combined_grads,
    combined_loss,
    load_checkpoint,
    loss_entropy,
    loss_supervised,
    save_checkpoint,
)
from .datapool import (
    DataPool,
    ShiftConfig,
    ShiftKind,
    generate_shifted_dataset,
    load_pool,
    save_pool,
)
from .gmm import (
    EmFit,
    GmmParams,
    GmmTrainSet,
    component_posterior,
    component_posteriors,
    fit_gmm,
    init_from_labeled,
    run_em,
)
from .harness import (
    LoopConfig,
    RoundReport,
    Strategy,
    compare_strategies,
    consistency_diagnostic,
    evaluate,
    pretrain_source,
    run_active_loop,
    run_baseline,
)
from .sampler import (
    PartitionAssignment,
    SfdaConfig,
    SfdaResult,
    consistency_rate,
    loss_quantile_split,
    partition_unlabeled,
    select_active_batch,
    sfda_bootstrap,
)
from .scoring import (
    Category,
    CentroidSet,
    centroids_from_features,
    compute_centroids,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_labels,
    similarity_labels,
)

__version__ = "0.1.0"
