"""Cluster-path analysis of feed-forward networks and selective ensembles.

The package splits into small pieces: ``network`` holds the from-scratch
classifiers, ``clustering`` the k-means machinery, ``paths`` the per-layer
cluster paths and the good/bad filter, ``ensemble`` the partitioned
two-model ensemble with its three test tiers, ``features`` the split
images, ``bounds`` the closed-form confidence results, and the remaining
modules the file formats, run configs, and CLI that chain a whole
experiment end to end.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCheck,
    BoundReport,
    TheoremInputs,
    discovery_probability_lb,
    ensemble_validation_bound,
    epsilon_interval,
    monte_carlo_coverage,
    verify_ensemble_bound,
)
from .clustering import ClusterSet, ElbowCurve, elbow_select, kmeans
from .ensemble import (
    MODEL2_SEED_OFFSET,
    TIERS,
    BoundInputs,
    EnsembleBundle,
    ExternalPredictions,
    Member,
    MemberModel,
    PartitionScheme,
    TierReport,
    TierVerdict,
    analyze_model,
    classify_batch,
    large_model_route,
    load_bundle,
    make_partitions,
    measure_bound_inputs,
    save_bundle,
    tier_report,
    train_ensemble,
)
from .features import (
    FeatureImage,
    activation_maximization,
    emit_image,
    good_splits,
    read_image,
    split_mean_feature,
)
from .network import (
    Dataset,
    Network,
    NetworkConfig,
    TrainConfig,
    accuracy,
    forward_batch,
    init_network,
    load_network,
    loss_and_gradient,
    oversample,
    predict,
    save_network,
    train,
)
from .paths import (
    FilterParams,
    KPolicy,
    ParamGrid,
    Path,
    PathModel,
    Split,
    SplitTable,
    Verdict,
    build_path_model,
    classify_point,
    compute_paths,
    grid_search,
    split_stats,
)
from .pipeline import PipelineError, RunManifest, run_pipeline
from .runconfig import ConfigError, RunConfig, load_run_config
