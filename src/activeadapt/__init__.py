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
    loss_consistency,
    loss_entropy,
    loss_supervised,
    save_checkpoint,
    total_loss,
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
    e_step,
    fit_gmm,
    gmm_density,
    init_from_labeled,
    m_step,
    run_em,
    weighted_log_likelihood,
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
    index_iou,
    info_score_labeled,
    info_score_unlabeled,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_label,
    observation_labels,
    similarity_label,
    similarity_labels,
    topk_indices,
)

__version__ = "0.1.0"
