"""The project feature table and the dataset joining it with optimal labels.

A feature CSV is loaded once into a ``FeatureTable``: its header, its
project ids and one float64 matrix, so the header is held once and not per
row.  Its ``subset_rows`` and ``subset_features`` are the package's row and
by-name column pickers.  ``build_dataset`` keeps the table's labeled rows,
in table order, and pairs them with their label sets.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import ScaId, read_text
from .exceptions import DataError, SchemaError


class FeatureTable(NamedTuple):
    """A feature CSV held once: the feature names, the project ids in file
    order, and their (projects, features) float64 matrix."""

    feature_names: tuple[str, ...]
    project_ids: tuple[str, ...]
    matrix: np.ndarray

    def subset_rows(self, indices: Sequence[int]) -> "FeatureTable":
        """The table's rows ``indices``, in that order."""
        indices = list(indices)
        project_ids = tuple(self.project_ids[i] for i in indices)
        return FeatureTable(self.feature_names, project_ids, self.matrix[indices])

    def subset_features(self, names: Sequence[str]) -> "FeatureTable":
        """The table's columns ``names``, in that order; an empty or
        repeated name list raises a SchemaError, an unknown name a
        DataError."""
        if not names:
            raise SchemaError("the feature list names no feature")
        if len(set(names)) != len(names):
            repeated = sorted({name for name in names if names.count(name) > 1})
            raise SchemaError(f"the feature list repeats {repeated}")
        missing = [name for name in names if name not in self.feature_names]
        if missing:
            raise DataError(f"feature {missing[0]!r} is not in the feature table")
        columns = [self.feature_names.index(name) for name in names]
        return FeatureTable(tuple(names), self.project_ids, self.matrix[:, columns])


def load_features(path: str | Path) -> FeatureTable:
    """Load a feature CSV: header ``project,<name>,...``, one row per project.

    Cells must be finite numbers; feature names (kept verbatim) must be
    non-empty and unique; project ids must be unique.  Rows are sorted by
    project id, so the file's row order changes no result.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"feature file {path} is empty")
    header = rows[0]
    if not header or header[0] != "project":
        raise DataError(f"feature file {path} must start with a 'project' column")
    names = tuple(header[1:])
    if not names:
        raise SchemaError(f"feature file {path} has no feature columns")
    if "" in names:
        raise SchemaError(f"feature file {path}: column {names.index('') + 2} has no name")
    if len(set(names)) != len(names):
        raise SchemaError(f"feature file {path} repeats a feature name")
    values_of: dict[str, list[float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        project = row[0]
        if not project:
            raise SchemaError(f"{path}:{lineno}: empty project id")
        if project in values_of:
            raise DataError(f"{path}: project {project!r} occurs twice")
        values = values_of[project] = []
        for name, cell in zip(names, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}:{lineno}: {name}={cell!r} is not a number")
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: {name}={cell!r} is not finite")
            values.append(value)
    projects = tuple(sorted(values_of))
    matrix = np.array([values_of[project] for project in projects], dtype=np.float64)
    return FeatureTable(names, projects, matrix.reshape(len(projects), len(names)))


class PreferenceDataset(NamedTuple):
    """A feature table plus, per row (project), the set of best analyzers.

    The first element of each label set (in corpus analyzer order) is the
    primary label used for training and stratification; evaluation scores
    predictions against the full set.
    """

    table: FeatureTable
    label_sets: tuple[tuple[ScaId, ...], ...]
    sca_order: tuple[ScaId, ...]

    @property
    def n_projects(self) -> int:
        return len(self.label_sets)

    def primary_labels(self) -> tuple[ScaId, ...]:
        return tuple(labels[0] for labels in self.label_sets)

    def subset_rows(self, indices: Sequence[int]) -> "PreferenceDataset":
        label_sets = tuple(self.label_sets[i] for i in indices)
        return PreferenceDataset(self.table.subset_rows(indices), label_sets, self.sca_order)

    def subset_features(self, names: Sequence[str]) -> "PreferenceDataset":
        """The dataset with its table's columns ``names`` (see
        ``FeatureTable.subset_features``)."""
        return self._replace(table=self.table.subset_features(names))


def build_dataset(
    table: FeatureTable,
    label_sets: Mapping[str, Sequence[ScaId]],
    sca_order: Sequence[ScaId],
) -> PreferenceDataset:
    """Join a feature table with per-project optimal label sets.

    Row order follows the table.  Every labeled project must have features;
    feature rows without a label are dropped.
    """
    if not table.project_ids:
        raise DataError("the feature table has no rows")
    missing = sorted(set(label_sets) - set(table.project_ids))
    if missing:
        raise DataError(f"labeled projects without features: {missing}")
    order = set(sca_order)
    for project, labels in label_sets.items():
        unknown = [s for s in labels if s not in order]
        if unknown:
            raise SchemaError(f"project {project!r} labeled with unknown analyzers {unknown}")
    kept = [i for i, project in enumerate(table.project_ids) if project in label_sets]
    if not kept:
        raise DataError("no feature row carries a label")
    table = table.subset_rows(kept)
    return PreferenceDataset(
        table,
        tuple(tuple(label_sets[project]) for project in table.project_ids),
        tuple(sca_order),
    )
