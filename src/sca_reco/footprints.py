"""Two-dimensional project footprints for visual inspection.

Projects are standardized and projected onto the first two principal
components.  Each exported table pairs that fixed 2-D layout with one
overlay: a min-max normalized feature value, or a 0/1 flag marking the
projects where a given analyzer is in the optimal set.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .core import ScaId, write_text
from .estimators import PCA, StandardScaler
from .exceptions import DataError
from .features import FeatureTable, PreferenceDataset

FEATURE_HEADER = "pc1,pc2,project,value"
OPTIMAL_HEADER = "pc1,pc2,project,is_optimal"


def project_footprint(table: FeatureTable) -> np.ndarray:
    """Standardize the feature matrix and project it to two components: one
    (x, y) row per project, in table order."""
    standardized = StandardScaler().fit_transform(table.matrix, table.feature_names)
    return PCA(n_components=2).fit_transform(standardized)


def _minmax(values: np.ndarray) -> np.ndarray:
    low = values.min()
    span = values.max() - low
    if span == 0.0:
        return np.zeros_like(values)
    return (values - low) / span


def _render(header: str, coordinates: np.ndarray, project_ids: Sequence[str], values) -> str:
    """CSV of ``header`` and one ``x,y,project,value`` row per project."""
    lines = [header]
    for (x, y), project_id, value in zip(coordinates.tolist(), project_ids, values):
        lines.append(f"{x!r},{y!r},{project_id},{value!r}")
    return "\n".join(lines) + "\n"


def render_feature_footprint(coordinates: np.ndarray, table: FeatureTable, name: str) -> str:
    """CSV of the 2-D layout overlaid with one normalized feature."""
    values = _minmax(table.subset_features([name]).matrix[:, 0])
    return _render(FEATURE_HEADER, coordinates, table.project_ids, values.tolist())


def render_optimal_footprint(
    coordinates: np.ndarray, dataset: PreferenceDataset, sca: ScaId
) -> str:
    """CSV of the 2-D layout flagging projects where ``sca`` is optimal."""
    flags = [1 if sca in labels else 0 for labels in dataset.label_sets]
    return _render(OPTIMAL_HEADER, coordinates, dataset.table.project_ids, flags)


def export_footprints(dataset: PreferenceDataset, out_dir: str | Path) -> list[Path]:
    """Write one CSV per feature and per analyzer of the dataset; return
    the paths."""
    table = dataset.table
    coordinates = project_footprint(table)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(str(exc)) from exc
    written = []
    for name in table.feature_names:
        path = out_dir / f"feature_{name}.csv"
        write_text(path, render_feature_footprint(coordinates, table, name))
        written.append(path)
    for sca in dataset.sca_order:
        path = out_dir / f"sca_{sca}.csv"
        write_text(path, render_optimal_footprint(coordinates, dataset, sca))
        written.append(path)
    return written
