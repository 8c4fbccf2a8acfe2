"""slimnet: small-CNN training with exact complexity accounting and
threshold-constrained architecture reduction."""

__version__ = "0.1.0"

from .accounting import ComplexityReport, analyze, diff_reports
from .netspec import (
    LayerSpec,
    NetSpec,
    SpecError,
    baseline_spec,
    dropped_conv2_spec,
    optimized_3x3_spec,
    optimized_spec,
    parse_spec,
    propagate_shapes,
    serialize_spec,
    spec_id,
)
from .ops import Params, ShapeError
from .trainer import AdamState, ConfigError, Run, TrainConfig, TrainingDiverged, evaluate, train
from .search import (
    FrontierPoint,
    Search,
    SearchPlan,
    Stage,
    build_frontier,
    default_plan,
    enumerate_candidates,
    export_curves,
    run_search,
    run_sweep,
    select_minimal,
    table_oracle,
    trained_oracle,
)
from .mnist import DataSplits, load_data_dir, load_idx_images, load_idx_labels, make_splits

__all__ = [
    "__version__",
    "ComplexityReport", "analyze", "diff_reports",
    "LayerSpec", "NetSpec", "SpecError", "parse_spec", "serialize_spec", "spec_id",
    "propagate_shapes", "baseline_spec", "dropped_conv2_spec", "optimized_spec",
    "optimized_3x3_spec",
    "Params", "ShapeError",
    "AdamState", "ConfigError", "Run", "TrainConfig", "TrainingDiverged", "evaluate", "train",
    "FrontierPoint", "Search", "SearchPlan", "Stage", "default_plan", "enumerate_candidates",
    "run_sweep", "run_search", "select_minimal", "build_frontier", "export_curves",
    "table_oracle", "trained_oracle",
    "DataSplits", "load_data_dir", "load_idx_images", "load_idx_labels", "make_splits",
]
