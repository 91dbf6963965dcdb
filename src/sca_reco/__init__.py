"""Static-analyzer recommendation pipeline.

Given two releases of each project and one warning report per analyzer per
release, the pipeline labels old warnings by whether developers acted on
them, aligns equivalent warnings across analyzers, scores each analyzer's
per-project effectiveness, and trains a model that recommends an analyzer
for unseen projects from structural code features.

The exports below are imported on first access (PEP 562), so importing the
package, or only its corpus generator, loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each export
_EXPORTS = {
    "alignment": ("AlignedGroup", "AlignmentResult", "align_project"),
    "core": (
        "AlignedWarning",
        "ProjectSnapshot",
        "RawWarning",
        "Release",
        "WarningLabel",
    ),
    "effectiveness": (
        "ConfusionCounts",
        "ProjectEvaluation",
        "evaluate_project",
        "f_beta",
        "optimal_set",
        "reevaluate",
    ),
    "exceptions": ("ConfigError", "DataError", "ScaRecoError"),
    "features": ("PreferenceDataset", "build_dataset", "load_features"),
    "ingestion": ("load_gdc_mapping", "load_report", "load_snapshot", "load_taxonomy"),
    "matching": ("MatchStage", "compute_line_mapping"),
    "metrics": ("MicroMetrics", "micro_metrics"),
    "recommend": (
        "ModelKind",
        "RecommendationModel",
        "baseline_fixed",
        "baseline_random",
        "beta_sweep",
        "cross_validate",
        "train",
    ),
    "selection": ("rfe", "rfe_cv"),
    "synth": ("SynthConfig", "generate_corpus"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
