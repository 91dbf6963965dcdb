"""Workload definitions shared by the benchmark runner and its set-up probe.

Each workload is a synthetic corpus shape plus the model kind the flow
trains.  The shapes differ in where the time goes, not only in size:

* ``wide``: few projects with many warnings each, so the label cascade and
  the cross-analyzer alignment, both quadratic in warnings per project,
  take most of the time and the ML side is small.
* ``many``: many small projects, so random-forest fitting in mine, train
  and sweep takes most of the time and the quadratic terms stay small.
* ``churn``: the shape of ``wide`` with most files renamed, so matches fall
  through to the snippet and hash stages instead of the location stage, and
  a logistic-regression model, so no tree is ever fitted.

Ten projects is the smallest corpus that 10-fold cross-validation accepts;
file counts are scaled so that one flow takes about fifteen seconds on a
2-core machine.
"""

from __future__ import annotations

DEFAULT_SEED = 9

# SynthConfig keyword arguments per workload; the seed is added at run time.
WORKLOADS: dict[str, dict] = {
    "wide": {
        "synth": {"n_projects": 10, "files_per_project": 56},
        "model": "rf",
    },
    "many": {
        "synth": {"n_projects": 24, "files_per_project": 16},
        "model": "rf",
    },
    "churn": {
        "synth": {
            "n_projects": 10,
            "files_per_project": 56,
            "mutation_weights": (0.0, 0.1, 0.45, 0.45),
        },
        "model": "lr",
    },
}


def synth_kwargs(workload: str, seed: int) -> dict:
    """SynthConfig keyword arguments for one workload and seed."""
    return {**WORKLOADS[workload]["synth"], "seed": seed}
