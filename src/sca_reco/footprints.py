"""Two-dimensional project footprints for visual inspection.

Projects are standardized and projected onto the first two principal
components.  Each exported table pairs that fixed 2-D layout with one
overlay: a min-max normalized feature value, or a 0/1 flag marking the
projects where a given analyzer is in the optimal set.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ScaId
from .estimators import PCA, StandardScaler
from .exceptions import IoError
from .features import PreferenceDataset

FEATURE_HEADER = "pc1,pc2,project,value"
OPTIMAL_HEADER = "pc1,pc2,project,is_optimal"


@dataclass(frozen=True)
class FootprintProjection:
    project_ids: tuple[str, ...]
    coordinates: np.ndarray  # shape (n_projects, 2)


def project_footprint(dataset: PreferenceDataset) -> FootprintProjection:
    """Standardize the feature matrix and project it to two components."""
    standardized = StandardScaler().fit_transform(dataset.matrix, dataset.feature_names)
    coordinates = PCA(n_components=2).fit_transform(standardized)
    return FootprintProjection(
        project_ids=dataset.project_ids, coordinates=coordinates
    )


def _minmax(values: np.ndarray) -> np.ndarray:
    low = values.min()
    span = values.max() - low
    if span == 0.0:
        return np.zeros_like(values)
    return (values - low) / span


def render_feature_footprint(
    projection: FootprintProjection, dataset: PreferenceDataset, feature_name: str
) -> str:
    """CSV of the 2-D layout overlaid with one normalized feature."""
    column = dataset.feature_index(feature_name)
    values = _minmax(dataset.matrix[:, column])
    lines = [FEATURE_HEADER]
    for i, project_id in enumerate(projection.project_ids):
        x, y = (float(c) for c in projection.coordinates[i])
        lines.append(f"{x!r},{y!r},{project_id},{float(values[i])!r}")
    return "\n".join(lines) + "\n"


def render_optimal_footprint(
    projection: FootprintProjection, dataset: PreferenceDataset, sca: ScaId
) -> str:
    """CSV of the 2-D layout flagging projects where ``sca`` is optimal."""
    lines = [OPTIMAL_HEADER]
    for i, project_id in enumerate(projection.project_ids):
        x, y = (float(c) for c in projection.coordinates[i])
        flag = 1 if sca in dataset.label_sets[i] else 0
        lines.append(f"{x!r},{y!r},{project_id},{flag}")
    return "\n".join(lines) + "\n"


def export_footprints(dataset: PreferenceDataset, out_dir: str | Path) -> list[Path]:
    """Write one CSV per feature and per analyzer of the dataset; return
    the paths."""
    projection = project_footprint(dataset)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    written = []
    try:
        for name in dataset.feature_names:
            path = out_dir / f"feature_{name}.csv"
            path.write_text(
                render_feature_footprint(projection, dataset, name), encoding="utf-8"
            )
            written.append(path)
        for sca in dataset.sca_order:
            path = out_dir / f"sca_{sca}.csv"
            path.write_text(
                render_optimal_footprint(projection, dataset, sca), encoding="utf-8"
            )
            written.append(path)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return written
