"""Project feature vectors and the dataset joining them with optimal labels."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import ScaId, read_text
from .exceptions import (
    DuplicateProject,
    MismatchError,
    NonNumericCell,
    ParseError,
    SchemaError,
    TooFewSamples,
    UnknownFeature,
)


@dataclass(frozen=True)
class FeatureVector:
    project_id: str
    names: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise SchemaError(
                f"project {self.project_id}: {len(self.names)} names "
                f"vs {len(self.values)} values"
            )


def load_features(path: str | Path) -> list[FeatureVector]:
    """Load a feature CSV: header ``project,<name>,...``, one row per project.

    Cells must be finite numbers; feature names (kept verbatim) must be
    unique; project ids must be unique.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ParseError(f"feature file {path} is empty")
    header = rows[0]
    if not header or header[0] != "project":
        raise ParseError(f"feature file {path} must start with a 'project' column")
    names = tuple(header[1:])
    if not names:
        raise SchemaError(f"feature file {path} has no feature columns")
    if len(set(names)) != len(names):
        raise SchemaError(f"feature file {path} repeats a feature name")
    vectors: list[FeatureVector] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        project = row[0]
        if not project:
            raise SchemaError(f"{path}:{lineno}: empty project id")
        if project in seen:
            raise DuplicateProject(f"{path}: project {project!r} occurs twice")
        seen.add(project)
        values = []
        for name, cell in zip(names, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(f"{path}:{lineno}: {name}={cell!r} is not a number")
            if not math.isfinite(value):
                raise NonNumericCell(f"{path}:{lineno}: {name}={cell!r} is not finite")
            values.append(value)
        vectors.append(FeatureVector(project, names, tuple(values)))
    return vectors


@dataclass(frozen=True)
class PreferenceDataset:
    """Feature matrix plus, per project, the set of best analyzers.

    The first element of each label set (in corpus analyzer order) is the
    primary label used for training and stratification; evaluation scores
    predictions against the full set.
    """

    feature_names: tuple[str, ...]
    project_ids: tuple[str, ...]
    matrix: np.ndarray
    label_sets: tuple[tuple[ScaId, ...], ...]
    sca_order: tuple[ScaId, ...]

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise SchemaError("feature matrix must be 2-dimensional")
        if matrix.shape != (len(self.project_ids), len(self.feature_names)):
            raise SchemaError("feature matrix shape disagrees with ids/names")
        if len(self.label_sets) != len(self.project_ids):
            raise SchemaError("one label set per project is required")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_projects(self) -> int:
        return len(self.project_ids)

    def primary_labels(self) -> tuple[ScaId, ...]:
        return tuple(labels[0] for labels in self.label_sets)

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise UnknownFeature(f"feature {name!r} is not in the dataset")

    def subset_rows(self, indices: Sequence[int]) -> "PreferenceDataset":
        indices = list(indices)
        return replace(
            self,
            project_ids=tuple(self.project_ids[i] for i in indices),
            matrix=self.matrix[indices],
            label_sets=tuple(self.label_sets[i] for i in indices),
        )

    def subset_features(self, names: Sequence[str]) -> "PreferenceDataset":
        """The dataset's columns ``names``, in that order; an empty or
        repeated name list raises a SchemaError, an unknown name an
        UnknownFeature."""
        if not names:
            raise SchemaError("the feature list names no feature")
        if len(set(names)) != len(names):
            repeated = sorted({name for name in names if names.count(name) > 1})
            raise SchemaError(f"the feature list repeats {repeated}")
        columns = [self.feature_index(name) for name in names]
        return replace(
            self,
            feature_names=tuple(names),
            matrix=self.matrix[:, columns],
        )


def build_dataset(
    vectors: Sequence[FeatureVector],
    label_sets: Mapping[str, Sequence[ScaId]],
    sca_order: Sequence[ScaId],
) -> PreferenceDataset:
    """Join feature vectors with per-project optimal label sets.

    Row order follows the feature vectors.  Every labeled project must have
    features; feature rows without a label are dropped.
    """
    if not vectors:
        raise TooFewSamples("no feature vectors")
    names = vectors[0].names
    for vector in vectors:
        if vector.names != names:
            raise SchemaError(
                f"project {vector.project_id!r} has a different feature header"
            )
    by_project = {v.project_id: v for v in vectors}
    missing = sorted(set(label_sets) - set(by_project))
    if missing:
        raise MismatchError(f"labeled projects without features: {missing}")
    order = set(sca_order)
    for project, labels in label_sets.items():
        unknown = [s for s in labels if s not in order]
        if unknown:
            raise SchemaError(f"project {project!r} labeled with unknown analyzers {unknown}")
    kept = [v for v in vectors if v.project_id in label_sets]
    if not kept:
        raise TooFewSamples("no feature row carries a label")
    return PreferenceDataset(
        feature_names=names,
        project_ids=tuple(v.project_id for v in kept),
        matrix=np.array([v.values for v in kept], dtype=np.float64),
        label_sets=tuple(tuple(label_sets[v.project_id]) for v in kept),
        sca_order=tuple(sca_order),
    )
