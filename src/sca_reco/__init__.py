"""Static-analyzer recommendation pipeline.

Given two releases of each project and one warning report per analyzer per
release, the pipeline labels old warnings by whether developers acted on
them, aligns equivalent warnings across analyzers, scores each analyzer's
per-project effectiveness, and trains a model that recommends an analyzer
for unseen projects from structural code features.
"""

from .alignment import AlignedGroup, AlignmentResult, align_project, identical
from .core import (
    AlignedWarning,
    GdcTaxonomy,
    ProjectSnapshot,
    RawWarning,
    Release,
    WarningLabel,
    load_taxonomy,
)
from .effectiveness import (
    ConfusionCounts,
    ProjectEvaluation,
    evaluate_project,
    f_beta,
    optimal_set,
    reevaluate,
)
from .exceptions import ConfigError, DataError, ScaRecoError
from .features import PreferenceDataset, build_dataset, load_features
from .ingestion import load_gdc_mapping, load_report, load_snapshot
from .matching import MatchStage, compute_line_mapping, match_warning
from .metrics import MicroMetrics, micro_metrics
from .recommend import (
    ModelKind,
    RecommendationModel,
    baseline_fixed,
    baseline_random,
    beta_sweep,
    cross_validate,
    train,
)
from .selection import rfe, rfe_cv
from .synth import SynthConfig, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AlignedGroup",
    "AlignedWarning",
    "AlignmentResult",
    "ConfigError",
    "ConfusionCounts",
    "DataError",
    "GdcTaxonomy",
    "MatchStage",
    "MicroMetrics",
    "ModelKind",
    "PreferenceDataset",
    "ProjectEvaluation",
    "ProjectSnapshot",
    "RawWarning",
    "RecommendationModel",
    "Release",
    "ScaRecoError",
    "SynthConfig",
    "WarningLabel",
    "align_project",
    "baseline_fixed",
    "baseline_random",
    "beta_sweep",
    "build_dataset",
    "compute_line_mapping",
    "cross_validate",
    "evaluate_project",
    "f_beta",
    "generate_corpus",
    "identical",
    "load_features",
    "load_gdc_mapping",
    "load_report",
    "load_snapshot",
    "load_taxonomy",
    "match_warning",
    "micro_metrics",
    "optimal_set",
    "reevaluate",
    "rfe",
    "rfe_cv",
    "train",
]
