"""Training, serialization, and evaluation of the recommendation models.

A trained model bundles the estimator with the standardization fitted on its
own training rows and the ordered class list, so a saved model file is
self-contained.  Training reduces each project's optimal label set to its
primary label (first element in corpus analyzer order); evaluation scores
predictions against the full set.  A model predicts a whole feature table
at once, taking its features from the table's columns by name.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import RecordSpec, ScaId, format_beta, read_json, read_record, write_text
from .effectiveness import ProjectEvaluation, reevaluate
from .estimators import (
    DecisionTreeClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    StandardScaler,
    fit_each,
    fit_forests,
    fit_stacked,
)
from .exceptions import ConfigError, DataError, LengthMismatch, SchemaError
from .features import FeatureTable, PreferenceDataset, build_dataset
from .metrics import MicroMetrics, mean_metrics, micro_metrics
from .rng import SplitMix64, derive_seed

MODEL_FILE_VERSION = 1
MODEL_FILE = RecordSpec(
    ("version", int), ("kind", str), ("hyperparams", dict), ("feature_names", list),
    ("standardization", dict), ("params", dict), ("seed", int),
)
MODEL_PARAMS = RecordSpec(("classes", list), ("state", dict))
STANDARDIZATION = RecordSpec(("means", list), ("stds", list))


class ModelKind(Enum):
    DT = "dt"
    KNN = "knn"
    LR = "lr"
    MLP = "mlp"
    RF = "rf"


DEFAULT_HYPERPARAMS: dict[ModelKind, dict] = {
    ModelKind.DT: {"criterion": "gini", "max_depth": None, "min_samples_split": 2},
    ModelKind.KNN: {"n_neighbors": 5, "metric": "euclidean"},
    ModelKind.LR: {"l2": 1.0, "learning_rate": 0.1, "n_iter": 1000},
    ModelKind.MLP: {
        "hidden_units": 100,
        "learning_rate": 0.01,
        "momentum": 0.9,
        "epochs": 200,
    },
    ModelKind.RF: {
        "n_estimators": 100,
        "max_features": "sqrt",
        "bootstrap": True,
        "criterion": "gini",
        "max_depth": None,
        "min_samples_split": 2,
    },
}


# the estimator class behind each kind, whether it takes a seed, and the
# function that fits a batch of its estimators, each on its own rows, and
# returns an iterable of them
ESTIMATORS: dict[ModelKind, tuple[type, bool, Callable]] = {
    ModelKind.DT: (DecisionTreeClassifier, False, fit_each),
    ModelKind.KNN: (KNeighborsClassifier, False, fit_each),
    ModelKind.LR: (LogisticRegression, False, fit_stacked),
    ModelKind.MLP: (MLPClassifier, True, fit_each),
    ModelKind.RF: (RandomForestClassifier, True, fit_forests),
}


def parse_model_kind(token: str) -> ModelKind:
    try:
        return ModelKind(token.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown model kind {token!r}")


def resolve_hyperparams(kind: ModelKind, overrides: dict) -> dict:
    """The kind's defaults with a model file's ``overrides`` in their place."""
    params = dict(DEFAULT_HYPERPARAMS[kind])
    for key, value in overrides.items():
        if key not in params:
            raise ConfigError(f"{kind.value} has no hyperparameter {key!r}")
        params[key] = value
    return params


def build_estimator(kind: ModelKind, hyperparams: dict, seed: int):
    """The estimator behind a model kind, built from all its hyperparameters."""
    hp = dict(hyperparams)
    if hp.pop("criterion", "gini") != "gini":
        raise ConfigError("only the gini criterion is implemented")
    if hp.pop("metric", "euclidean") != "euclidean":
        raise ConfigError("only the euclidean metric is implemented")
    estimator_class, seeded, _ = ESTIMATORS[kind]
    return estimator_class(**hp, random_state=seed) if seeded else estimator_class(**hp)


@dataclass
class RecommendationModel:
    """A fitted recommender plus everything needed to apply it elsewhere."""

    kind: ModelKind
    hyperparams: dict
    feature_names: tuple[str, ...]
    scaler: StandardScaler
    classes: tuple[ScaId, ...]
    estimator: object
    seed: int

    def predict_table(self, table: FeatureTable) -> list[ScaId]:
        """The recommendation for each project of ``table``, in its order.
        The model's features are taken from the table's columns by name, so
        a model trained on a feature list applies to the full feature table.
        A missing feature raises a DataError; a standardized value
        that is not finite raises a DataError naming the first such project
        and its first such feature."""
        matrix = table.subset_features(self.feature_names).matrix
        with np.errstate(over="ignore", invalid="ignore"):
            standardized = self.scaler.transform(matrix)
        finite = np.isfinite(standardized)
        if not finite.all():
            row, column = divmod(int(np.argmin(finite)), len(self.feature_names))
            raise DataError(
                f"project {table.project_ids[row]}: feature {self.feature_names[column]!r}: "
                "standardized value is not finite"
            )
        return [self.classes[i] for i in self.estimator.predict(standardized)]

    def save(self, path: str | Path) -> None:
        """Write the model file, one line of JSON with sorted keys.  A tree
        nested too deeply for the JSON encoder, whose recursion limit the
        decoder shares, raises a DataError naming ``path``; no file is
        written then."""
        document = {
            "version": MODEL_FILE_VERSION,
            "kind": self.kind.value,
            "hyperparams": self.hyperparams,
            "feature_names": list(self.feature_names),
            "standardization": self.scaler.get_fitted_state(),
            "params": {
                "classes": list(self.classes),
                "state": self.estimator.get_fitted_state(),
            },
            "seed": self.seed,
        }
        try:
            text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        except RecursionError as exc:
            raise DataError(f"{path}: model nested too deeply to write as JSON") from exc
        write_text(path, text + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RecommendationModel":
        document = read_json(path)
        version, kind, hyperparams, feature_names, standardization, params, seed = read_record(
            document, MODEL_FILE, str(path)
        )
        classes, state = read_record(params, MODEL_PARAMS, "%s: params", path)
        means, stds = read_record(standardization, STANDARDIZATION, "%s: standardization", path)
        if version != MODEL_FILE_VERSION:
            raise SchemaError(f"{path}: unsupported model file version")
        for key, names in (("feature_names", feature_names), ("classes", classes)):
            if not all(type(name) is str for name in names) or len(set(names)) != len(names):
                raise SchemaError(f"{path}: field {key!r} must list distinct strings")
        feature_names, classes = tuple(feature_names), tuple(classes)
        for key, values in (("means", means), ("stds", stds)):
            if len(values) != len(feature_names) or not all(
                type(value) in (int, float) and abs(value) <= sys.float_info.max
                for value in values
            ):
                raise SchemaError(
                    f"{path}: standardization: field {key!r} must list one finite number "
                    f"for each of the {len(feature_names)} features"
                )
        try:
            kind = parse_model_kind(kind)
            scaler = StandardScaler().load_fitted_state(standardization)
            estimator = build_estimator(kind, resolve_hyperparams(kind, hyperparams), seed)
            estimator.load_fitted_state(state)
        except KeyError as exc:
            raise SchemaError(f"{path}: malformed model file: missing field {exc}") from exc
        except (TypeError, ValueError, LengthMismatch, SchemaError) as exc:
            raise SchemaError(f"{path}: malformed model file: {exc}") from exc
        except ConfigError as exc:
            # the kind and hyperparameters come from the file, so a
            # disagreement between them is bad data, not bad configuration
            raise SchemaError(f"{path}: {exc}") from exc
        listed = (len(classes), len(feature_names))
        if listed != (estimator.n_classes_, estimator.n_features_):
            raise SchemaError(
                f"{path}: {listed[0]} classes and {listed[1]} features listed for an "
                f"estimator fitted on {estimator.n_classes_} and {estimator.n_features_}"
            )
        return cls(
            kind=kind,
            hyperparams=hyperparams,
            feature_names=feature_names,
            scaler=scaler,
            classes=classes,
            estimator=estimator,
            seed=seed,
        )


def encode_labels(
    primary: Sequence[ScaId], sca_order: Sequence[ScaId]
) -> tuple[np.ndarray, tuple[ScaId, ...]]:
    """Map primary labels to dense class indices ordered by corpus order."""
    present = set(primary)
    classes = tuple(s for s in sca_order if s in present)
    index = {s: i for i, s in enumerate(classes)}
    return np.array([index[s] for s in primary], dtype=np.int64), classes


def check_trainable(dataset: PreferenceDataset) -> None:
    """Raise a DataError unless ``dataset`` holds at least 2 projects and
    at least 2 distinct primary labels."""
    if dataset.n_projects < 2:
        raise DataError("training needs at least 2 projects")
    if len(set(dataset.primary_labels())) < 2:
        raise DataError("training labels collapse to a single analyzer")


def train(dataset: PreferenceDataset, kind: ModelKind, seed: int = 0) -> RecommendationModel:
    """Fit a recommender on the whole dataset (primary labels)."""
    return next(train_batch([(dataset, seed)], kind))


def train_batch(
    training_sets: Sequence[tuple[PreferenceDataset, int]], kind: ModelKind
) -> Iterator[RecommendationModel]:
    """Fit one recommender per (dataset, seed) with the kind's batch fit,
    and yield them in order.  Every model is built from, and records, the
    kind's ``DEFAULT_HYPERPARAMS`` as they stand when the first is reached.

    Every dataset is checked, standardized and label-encoded on its own
    before anything is fitted, so each model equals the one ``train`` fits
    on that dataset alone.  Models are fitted as the iterator reaches them:
    a caller that drops each model holds one at a time of the kinds fitted
    one by one, and at most one group of forests of rf (see
    ``estimators.forest``).
    """
    prepared = []
    for dataset, seed in training_sets:
        check_trainable(dataset)
        y, classes = encode_labels(dataset.primary_labels(), dataset.sca_order)
        table = dataset.table
        scaler = StandardScaler().fit(table.matrix, table.feature_names)
        prepared.append((table, seed, scaler, classes, scaler.transform(table.matrix), y))
    tables, seeds, scalers, class_lists, Xs, ys = zip(*prepared)
    _, _, fit_batch = ESTIMATORS[kind]
    hyperparams = dict(DEFAULT_HYPERPARAMS[kind])
    fitted = fit_batch(
        (build_estimator(kind, hyperparams, seed) for seed in seeds),
        Xs,
        ys,
        [len(classes) for classes in class_lists],
    )
    for table, seed, scaler, classes, estimator in zip(
        tables, seeds, scalers, class_lists, fitted
    ):
        yield RecommendationModel(
            kind=kind,
            hyperparams=dict(hyperparams),
            feature_names=table.feature_names,
            scaler=scaler,
            classes=classes,
            estimator=estimator,
            seed=seed,
        )


def check_folds(folds: int, rows: int) -> int:
    """A fold count of at least 2 (a ConfigError otherwise) and at most
    ``rows`` (a DataError otherwise)."""
    if folds < 2:
        raise ConfigError(f"folds must be at least 2, got {folds}")
    if folds > rows:
        raise DataError(f"cannot split {rows} rows into {folds} folds")
    return folds


def stratified_folds(
    labels: Sequence[ScaId], folds: int, seed: int = 0
) -> list[list[int]]:
    """Deterministic stratified fold assignment (test indices per fold).

    Rows of each class are shuffled with a seeded stream and dealt into
    contiguous chunks whose sizes differ by at most one.
    """
    check_folds(folds, len(labels))
    by_class: dict[ScaId, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    fold_indices: list[list[int]] = [[] for _ in range(folds)]
    for class_position, class_label in enumerate(sorted(by_class)):
        rows = by_class[class_label]
        SplitMix64(derive_seed(seed, class_position)).shuffle(rows)
        base, extra = divmod(len(rows), folds)
        cursor = 0
        for f in range(folds):
            size = base + (1 if f < extra else 0)
            fold_indices[f].extend(rows[cursor : cursor + size])
            cursor += size
    return [sorted(fold) for fold in fold_indices]


@dataclass(frozen=True)
class CvResult:
    mean: MicroMetrics
    per_fold: tuple[MicroMetrics, ...]


def cross_validate(
    dataset: PreferenceDataset,
    kind: ModelKind,
    folds: int = 10,
    seed: int = 0,
) -> CvResult:
    """Stratified k-fold cross-validation; the summary is the fold mean.

    A fold with no test rows scores ``MicroMetrics(0.0, 0.0, 0.0)`` and
    fits no model.  A fold whose training rows hold fewer than 2 projects
    or a single primary label raises a DataError naming the fold before
    any model is fitted.
    """
    return cross_validate_batch([dataset], kind, folds, seed)[0]


def cross_validate_batch(
    datasets: Sequence[PreferenceDataset],
    kind: ModelKind,
    folds: int = 10,
    seed: int = 0,
) -> list[CvResult]:
    """``cross_validate`` of each dataset, with the models of all their
    folds fitted in one ``train_batch`` call."""
    assignments, training_sets = _fold_training_sets(datasets, folds, seed)
    models = train_batch(training_sets, kind)
    return [
        _score_folds(dataset.label_sets, predicted)
        for dataset, predicted in zip(datasets, _fold_predictions(datasets, assignments, models))
    ]


def train_and_cross_validate(
    dataset: PreferenceDataset,
    kind: ModelKind,
    folds: int = 10,
    seed: int = 0,
) -> tuple[RecommendationModel, CvResult]:
    """``train`` and ``cross_validate`` of one dataset, with the full-data
    model and every fold's model fitted in one ``train_batch`` call.  Both
    equal those of the two functions run apart, since a batch never changes
    a model.  The fold count and the full dataset are checked before the
    folds are."""
    check_folds(folds, dataset.n_projects)
    check_trainable(dataset)
    assignments, training_sets = _fold_training_sets([dataset], folds, seed)
    models = train_batch([(dataset, seed), *training_sets], kind)
    model = next(models)
    [predicted] = _fold_predictions([dataset], assignments, models)
    return model, _score_folds(dataset.label_sets, predicted)


def _fold_training_sets(
    datasets: Sequence[PreferenceDataset], folds: int, seed: int
) -> tuple[list[list[list[int]]], list[tuple[PreferenceDataset, int]]]:
    """Each dataset's fold assignment (test rows per fold), and the
    (training rows, seed) of every non-empty fold, dataset by dataset.  A
    fold that cannot train a model raises a DataError naming the fold."""
    assignments = [
        stratified_folds(dataset.primary_labels(), folds, seed) for dataset in datasets
    ]
    training_sets = []
    for dataset, assignment in zip(datasets, assignments):
        for fold_number, test_rows in enumerate(assignment):
            if test_rows:
                held_out = set(test_rows)
                training = dataset.subset_rows(
                    [i for i in range(dataset.n_projects) if i not in held_out]
                )
                try:
                    check_trainable(training)
                except DataError as exc:
                    raise DataError(f"cv fold {fold_number}: {exc}") from exc
                training_sets.append((training, derive_seed(seed, fold_number)))
    return assignments, training_sets


def _fold_predictions(
    datasets: Sequence[PreferenceDataset],
    assignments: list[list[list[int]]],
    models: Iterator[RecommendationModel],
) -> list[list[tuple[list[int], list[ScaId] | None]]]:
    """Per dataset and fold, the test rows and what the fold's model, the
    next of ``models``, predicts for them; an empty fold takes no model and
    predicts None."""
    return [
        [
            (
                test_rows,
                next(models).predict_table(dataset.table.subset_rows(test_rows))
                if test_rows
                else None,
            )
            for test_rows in assignment
        ]
        for dataset, assignment in zip(datasets, assignments)
    ]


def _score_folds(
    label_sets: Sequence[Sequence[ScaId]],
    predicted: list[tuple[list[int], list[ScaId] | None]],
) -> CvResult:
    """Score each fold's predictions against ``label_sets``; an empty fold
    scores 0 whatever its model would predict."""
    per_fold = tuple(
        micro_metrics([label_sets[i] for i in test_rows], predictions)
        if test_rows
        else MicroMetrics(0.0, 0.0, 0.0)
        for test_rows, predictions in predicted
    )
    return CvResult(mean=mean_metrics(per_fold), per_fold=per_fold)


def baseline_fixed(
    sca: ScaId, truth_sets: Sequence[Sequence[ScaId]]
) -> MicroMetrics:
    """Always recommend the same analyzer."""
    return micro_metrics(truth_sets, [sca] * len(truth_sets))


def baseline_random(
    truth_sets: Sequence[Sequence[ScaId]],
    sca_order: Sequence[ScaId],
    repeats: int = 100,
    seed: int = 0,
) -> MicroMetrics:
    """Uniform random recommendations, averaged over seeded repeats.

    Each repeat uses a child stream derived from (seed, repeat index), so
    results do not depend on evaluation order.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    if not sca_order:
        raise ValueError("the analyzer list is empty")
    runs = []
    for repeat in range(repeats):
        stream = SplitMix64(derive_seed(seed, repeat))
        predictions = [sca_order[stream.randrange(len(sca_order))] for _ in truth_sets]
        runs.append(micro_metrics(truth_sets, predictions))
    return mean_metrics(runs)


def dataset_from_evaluations(
    table: FeatureTable,
    evaluations: Sequence[ProjectEvaluation],
) -> PreferenceDataset:
    """Join a feature table with the optimal sets of stored evaluations."""
    if not evaluations:
        raise DataError("no evaluation records")
    sca_order = evaluations[0].sca_order()
    label_sets = {}
    for evaluation in evaluations:
        if evaluation.sca_order() != sca_order:
            raise SchemaError(
                f"evaluation for {evaluation.project_id!r} lists analyzers "
                "in a different order"
            )
        label_sets[evaluation.project_id] = evaluation.optimal
    return build_dataset(table, label_sets, sca_order)


def beta_sweep(
    evaluations: Sequence[ProjectEvaluation],
    table: FeatureTable,
    kind: ModelKind,
    betas: Sequence[float],
    folds: int = 10,
    seed: int = 0,
) -> list[tuple[float, CvResult]]:
    """Re-derive labels from stored confusion counts at each beta and re-run
    the cross-validation.  No re-alignment happens; only the scores move.

    Every beta's dataset has the same projects and features, so its folds,
    training rows, seeds and models depend only on its primary labels.  They
    are fitted once per distinct primary-label vector, and each beta is
    scored against its own label sets."""
    if not betas:
        raise ValueError("betas must not be empty")
    datasets = [
        dataset_from_evaluations(table, [reevaluate(e, beta) for e in evaluations])
        for beta in betas
    ]
    distinct = {}
    for dataset in datasets:
        distinct.setdefault(dataset.primary_labels(), dataset)
    fitted = list(distinct.values())
    assignments, training_sets = _fold_training_sets(fitted, folds, seed)
    models = train_batch(training_sets, kind)
    predicted = dict(zip(distinct, _fold_predictions(fitted, assignments, models)))
    return [
        (beta, _score_folds(dataset.label_sets, predicted[dataset.primary_labels()]))
        for beta, dataset in zip(betas, datasets)
    ]


def sweep_table(rows: list[tuple[float, CvResult]]) -> str:
    """Render sweep results as a TSV table."""
    lines = ["beta\tp_micro\tr_micro\tf1_micro"]
    for beta, result in rows:
        m = result.mean
        lines.append(
            f"{format_beta(beta)}\t{m.p_micro!r}\t{m.r_micro!r}\t{m.f1_micro!r}"
        )
    return "\n".join(lines) + "\n"
