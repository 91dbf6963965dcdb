"""Model training, serialization, cross-validation, baselines, beta sweep."""

from __future__ import annotations

import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sca_reco.effectiveness import (
    ConfusionCounts,
    ProjectEvaluation,
    optimal_set,
    reevaluate,
    score_sca,
)
from sca_reco.estimators import DecisionTreeClassifier, RandomForestClassifier, forest
from sca_reco.exceptions import ConfigError, DataError
from sca_reco import recommend
from sca_reco.features import FeatureTable, PreferenceDataset
from sca_reco.metrics import MicroMetrics, mean_metrics
from sca_reco.recommend import (
    ESTIMATORS,
    CvResult,
    ModelKind,
    RecommendationModel,
    baseline_fixed,
    baseline_random,
    beta_sweep,
    cross_validate,
    dataset_from_evaluations,
    encode_labels,
    parse_model_kind,
    resolve_hyperparams,
    stratified_folds,
    sweep_table,
    train,
    train_batch,
)
from sca_reco.rng import SplitMix64

NAMES = ("f0", "f1", "f2", "f3")
FAST_HP = {
    ModelKind.DT: None,
    ModelKind.KNN: {"n_neighbors": 3},
    ModelKind.LR: {"n_iter": 200},
    ModelKind.MLP: {"hidden_units": 8, "epochs": 30},
    ModelKind.RF: {"n_estimators": 5},
}


def two_class_dataset(n_per_class=6):
    rows, labels, ids = [], [], []
    for i in range(n_per_class):
        rows.append([0.0 + 0.1 * i, 1.0 + 0.1 * i, 0.5, 0.5])
        labels.append(("alpha",))
        ids.append(f"a{i}")
        rows.append([5.0 + 0.1 * i, 6.0 + 0.1 * i, 0.5, 0.5])
        labels.append(("beta",))
        ids.append(f"b{i}")
    return PreferenceDataset(
        FeatureTable(NAMES, tuple(ids), np.array(rows)), tuple(labels), ("alpha", "beta")
    )


def test_parse_model_kind():
    assert parse_model_kind("rf") is ModelKind.RF
    assert parse_model_kind(" DT ") is ModelKind.DT
    with pytest.raises(ConfigError, match="^unknown model kind 'svm'$"):
        parse_model_kind("svm")


def test_resolve_hyperparams():
    params = resolve_hyperparams(ModelKind.RF, {"n_estimators": 7})
    assert params["n_estimators"] == 7
    assert params["max_features"] == "sqrt"
    with pytest.raises(ConfigError, match="^knn has no hyperparameter 'depth'$"):
        resolve_hyperparams(ModelKind.KNN, {"depth": 3})


def test_encode_labels_follows_corpus_order():
    y, classes = encode_labels(
        ["beta", "alpha", "beta"], ("alpha", "beta", "gamma")
    )
    assert classes == ("alpha", "beta")  # gamma never optimal, so no class
    assert list(y) == [1, 0, 1]


def test_train_requires_rows_and_classes():
    single = two_class_dataset().subset_rows([0])
    with pytest.raises(DataError, match="^training needs at least 2 projects$"):
        train(single, ModelKind.DT)
    one_class = two_class_dataset().subset_rows([0, 2, 4])
    with pytest.raises(DataError, match="^training labels collapse to a single analyzer$"):
        train(one_class, ModelKind.DT)


def test_lr_model_separates_training_data():
    dataset = two_class_dataset()
    model = train(dataset, ModelKind.LR, seed=0)
    assert tuple(model.predict_table(dataset.table)) == dataset.primary_labels()


def test_rf_defaults_are_embedded():
    model = train(two_class_dataset(), ModelKind.RF, seed=0)
    assert model.hyperparams["n_estimators"] == 100
    assert model.estimator.n_estimators == 100


def table(names, rows, ids=None):
    """A feature table of ``rows``, its projects named ``q0``, ``q1``, ...
    unless ``ids`` names them."""
    ids = tuple(f"q{i}" for i in range(len(rows))) if ids is None else tuple(ids)
    matrix = np.array(rows, dtype=np.float64).reshape(len(ids), len(names))
    return FeatureTable(tuple(names), ids, matrix)


def test_predict_single_vector():
    model = train(two_class_dataset(), ModelKind.DT, seed=0)
    assert model.predict_table(table(NAMES, [[0.05, 1.05, 0.5, 0.5]])) == ["alpha"]


def test_predict_takes_the_model_features_by_name():
    model = train(two_class_dataset().subset_features(["f2", "f0"]), ModelKind.LR, seed=0)
    probe = [[0.5, 0.05], [0.5, 1.05]]
    expected = model.predict_table(table(("f2", "f0"), probe))
    wide = table(("f3", "f0", "f1", "f2"), [[9.0, f0, 9.0, f2] for f2, f0 in probe])
    assert model.predict_table(wide) == expected
    with pytest.raises(DataError, match="^feature 'f2' is not in the feature table$"):
        model.predict_table(table(("f0", "f1"), [[0.05, 1.05]]))


def test_feature_mismatch_is_rejected():
    model = train(two_class_dataset(), ModelKind.DT, seed=0)
    with pytest.raises(DataError, match="^feature 'f3' is not in the feature table$"):
        model.predict_table(table(("f1", "f0", "f2"), [[0.0, 1.0, 0.5]]))
    with pytest.raises(DataError, match="^feature 'f0' is not in the feature table$"):
        model.predict_table(table((), []))


# a table of probe rows over the model's four features in a drawn order,
# with up to two extra columns
@st.composite
def probe_tables(draw):
    extras = draw(st.integers(0, 2))
    names = draw(st.permutations(NAMES + ("x0", "x1")[:extras]))
    values = st.integers(-20, 80).map(lambda v: v / 10.0)
    rows = draw(
        st.lists(st.lists(values, min_size=len(names), max_size=len(names)), max_size=8)
    )
    return table(names, rows)


TABLE_MODELS = {
    kind: train(two_class_dataset(), kind, seed=5, hyperparams=FAST_HP[kind])
    for kind in (ModelKind.DT, ModelKind.LR, ModelKind.RF)
}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(TABLE_MODELS, key=lambda kind: kind.value)), probe_tables())
def test_predicting_a_table_equals_predicting_each_row_alone(kind, probes):
    model = TABLE_MODELS[kind]
    alone = [
        model.predict_table(
            table(NAMES, [[row[probes.feature_names.index(name)] for name in NAMES]], [project])
        )[0]
        for project, row in zip(probes.project_ids, probes.matrix.tolist())
    ]
    assert model.predict_table(probes) == alone


def test_a_non_finite_standardized_value_names_the_first_project_and_feature():
    model = train(two_class_dataset(), ModelKind.LR, seed=0, hyperparams=FAST_HP[ModelKind.LR])
    # a subnormal scale overflows f2 and f3 at any value but their mean, 0
    model.scaler.mean_ = np.zeros(4)
    model.scaler.scale_ = np.array([1.0, 1.0, 1e-320, 1e-320])
    rows = [[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 5.0], [0.0, 1.0, 7.0, 7.0], [9.0, 1.0, 0.0, 9.0]]
    probes = table(("f0", "f1", "f2", "f3"), rows, ["p-z", "p-b", "p-c", "p-a"])
    with pytest.raises(DataError, match="^project p-b: feature 'f3': standardized value"):
        model.predict_table(probes)
    rest = probes.subset_rows([2, 3])
    with pytest.raises(DataError, match="^project p-c: feature 'f2': standardized value"):
        model.predict_table(rest)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_save_load_round_trip(kind, tmp_path):
    dataset = two_class_dataset()
    model = train(dataset, kind, seed=3, hyperparams=FAST_HP[kind])
    path = tmp_path / f"{kind.value}.json"
    model.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    loaded = RecommendationModel.load(path)
    assert loaded.kind is kind
    assert loaded.feature_names == NAMES
    assert loaded.classes == model.classes
    stream = SplitMix64(99)
    probe = table(NAMES, [[stream.uniform() * 7 for _ in NAMES] for _ in range(8)])
    assert loaded.predict_table(probe) == model.predict_table(probe)


def test_model_files_are_byte_identical_per_seed(tmp_path):
    dataset = two_class_dataset()
    for run in ("one", "two"):
        train(dataset, ModelKind.RF, seed=7, hyperparams={"n_estimators": 5}).save(
            tmp_path / run
        )
    assert (tmp_path / "one").read_bytes() == (tmp_path / "two").read_bytes()


# fold assignment


def test_stratified_folds_partition_and_balance():
    labels = ["alpha", "beta"] * 6
    folds = stratified_folds(labels, 4, seed=0)
    flat = sorted(i for fold in folds for i in fold)
    assert flat == list(range(12))
    for label in ("alpha", "beta"):
        counts = [sum(1 for i in fold if labels[i] == label) for fold in folds]
        assert max(counts) - min(counts) <= 1


def test_stratified_folds_deterministic():
    labels = ["alpha", "beta", "gamma"] * 5
    assert stratified_folds(labels, 5, seed=1) == stratified_folds(labels, 5, seed=1)


def test_stratified_folds_argument_checks():
    with pytest.raises(ConfigError, match="^folds must be at least 2, got 1$"):
        stratified_folds(["alpha", "beta"], 1)
    with pytest.raises(DataError, match="^cannot split 2 rows into 3 folds$"):
        stratified_folds(["alpha", "beta"], 3)


def test_cross_validate_structure_and_determinism():
    dataset = two_class_dataset()
    result = cross_validate(dataset, ModelKind.DT, folds=3, seed=0)
    assert len(result.per_fold) == 3
    assert result.mean == mean_metrics(result.per_fold)
    assert result == cross_validate(dataset, ModelKind.DT, folds=3, seed=0)
    assert result.mean.f1_micro == pytest.approx(1.0)


def test_cross_validate_empty_folds_score_zero(monkeypatch):
    dataset = two_class_dataset()  # 12 rows, 6 per class
    # each class fills only the first 6 folds, so the last 6 are empty
    empty = [not rows for rows in stratified_folds(dataset.primary_labels(), 12, seed=0)]
    assert empty == [False] * 6 + [True] * 6
    for kind in (ModelKind.DT, ModelKind.LR):
        estimator_class, seeded, fit_batch = ESTIMATORS[kind]
        batches = []

        def counted(estimators, *problems, fit_batch=fit_batch):
            estimators = list(estimators)
            batches.append(len(estimators))
            return fit_batch(estimators, *problems)

        monkeypatch.setitem(ESTIMATORS, kind, (estimator_class, seeded, counted))
        result = cross_validate(dataset, kind, folds=12, seed=0, hyperparams=FAST_HP[kind])
        assert batches == [6]  # one batch call that fits only the non-empty folds
        assert len(result.per_fold) == 12
        assert result.per_fold[6:] == (MicroMetrics(0.0, 0.0, 0.0),) * 6
        assert result.mean == mean_metrics(result.per_fold)


def test_cross_validate_fits_each_non_empty_fold_once(monkeypatch):
    fitted = weakref.WeakSet()
    rows, alive = [], []
    original = DecisionTreeClassifier.fit

    def tracked(self, X, y, n_classes=None):
        rows.append(len(X))
        alive.append(len(fitted))
        fitted.add(self)
        return original(self, X, y, n_classes)

    monkeypatch.setattr(DecisionTreeClassifier, "fit", tracked)
    cross_validate(two_class_dataset(), ModelKind.DT, folds=12, seed=0)
    assert rows == [10] * 6  # each non-empty fold holds out one row per class
    assert max(alive) <= 1  # each fold's model is dropped before the next but one


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_train_and_cross_validate_fit_one_batch_equal_to_the_two_apart(monkeypatch, kind):
    # gamma's one row leaves fold 0 with two classes, so lr's batch runs
    # two descent loops; the other rows carry noise and second labels
    stream = np.random.default_rng(7)
    primaries = ["alpha"] * 6 + ["beta"] * 6 + ["gamma"]
    label_sets = tuple(
        (label, "gamma") if i % 4 == 0 and label != "gamma" else (label,)
        for i, label in enumerate(primaries)
    )
    rows = stream.normal(size=(13, 4)) + np.array([[primaries.index(p)] for p in primaries])
    ids = tuple(f"p{i}" for i in range(13))
    dataset = PreferenceDataset(
        FeatureTable(NAMES, ids, rows), label_sets, ("alpha", "beta", "gamma")
    )
    hp = FAST_HP[kind]
    batches = []

    def counting(training_sets, *rest):
        batches.append([d.n_projects for d, _ in training_sets])
        return train_batch(training_sets, *rest)

    monkeypatch.setattr(recommend, "train_batch", counting)
    model, result = recommend.train_and_cross_validate(dataset, kind, 4, 3, hp)
    assert batches == [[13, 8, 9, 11, 11]]  # the full-data model, then each fold
    alone = train(dataset, kind, seed=3, hyperparams=hp)
    assert model.estimator.get_fitted_state() == alone.estimator.get_fitted_state()
    assert (model.classes, model.scaler.get_fitted_state()) == (
        alone.classes,
        alone.scaler.get_fitted_state(),
    )
    assert result == cross_validate(dataset, kind, folds=4, seed=3, hyperparams=hp)


def test_rf_batch_fits_a_forest_only_when_its_model_is_reached(monkeypatch):
    # a batch that fitted every fold's forest up front would hold them all
    # in memory at once; forests of different feature counts grow in
    # separate locksteps, so each lockstep here is one forest
    fits = []
    original = forest.fit_lockstep

    def counted(X, y, rows, *args):
        fits.append((rows.shape[1], X.shape[2]))  # (rows, features)
        return original(X, y, rows, *args)

    monkeypatch.setattr(forest, "fit_lockstep", counted)
    dataset = two_class_dataset()
    training_sets = [
        (dataset.subset_rows(list(range(start, 12))).subset_features(NAMES[: 4 - i]), start)
        for i, start in enumerate((0, 2, 4))
    ]
    models = train_batch(training_sets, ModelKind.RF, FAST_HP[ModelKind.RF])
    assert fits == []
    next(models)
    assert fits == [(12, 4)]
    next(models)
    assert fits == [(12, 4), (10, 3)]


def test_rf_cv_batch_grows_one_lockstep_per_feature_count(monkeypatch):
    """``rfe_cv``'s batch: path datasets of 8 ... 1 features, each
    cross-validated on 10 projects whose folds train on 7, 7, 7 and 9 rows.
    Forests of one feature count (and so one per-split budget) share a
    lockstep whatever their row counts, padded to the largest, so the batch
    takes one lockstep per feature count, not one per row count."""
    locksteps = []
    original = forest.fit_lockstep

    def counted(X, y, rows, *args):
        locksteps.append((*rows.shape, X.shape[2]))  # (trees, rows, features)
        return original(X, y, rows, *args)

    primaries = ["alpha"] * 4 + ["beta"] * 3 + ["gamma"] * 3
    names = tuple(f"f{i}" for i in range(8))
    rows = np.random.default_rng(3).normal(size=(10, 8)) + np.array(
        [[primaries.index(p)] for p in primaries]
    )
    dataset = PreferenceDataset(
        FeatureTable(names, tuple(f"p{i}" for i in range(10)), rows),
        tuple((p,) for p in primaries),
        ("alpha", "beta", "gamma"),
    )
    folds = stratified_folds(dataset.primary_labels(), 10, 0)
    assert [10 - len(fold) for fold in folds if fold] == [7, 7, 7, 9]
    datasets = [dataset.subset_features(names[:size]) for size in range(8, 0, -1)]
    hp = FAST_HP[ModelKind.RF]
    monkeypatch.setattr(forest, "fit_lockstep", counted)
    results = recommend.cross_validate_batch(datasets, ModelKind.RF, 10, 0, hp)
    assert locksteps == [(4 * 5, 9, size) for size in range(8, 0, -1)]
    assert results == [cross_validate(data, ModelKind.RF, 10, 0, hp) for data in datasets]


# baselines


def test_baseline_fixed_counts():
    truth = [("alpha",), ("alpha", "beta"), ("gamma",)]
    metrics = baseline_fixed("alpha", truth)
    assert metrics.p_micro == pytest.approx(2 / 3, abs=1e-15)
    assert metrics.r_micro == pytest.approx(0.5, abs=1e-15)
    assert metrics.f1_micro == pytest.approx(4 / 7, abs=1e-15)


def test_baseline_random_single_analyzer_is_perfect():
    truth = [("alpha",)] * 10
    metrics = baseline_random(truth, ("alpha",), repeats=5, seed=0)
    assert metrics == MicroMetrics(1.0, 1.0, 1.0)


def test_baseline_random_deterministic_and_near_uniform():
    truth = [(sca,) for sca in ("alpha", "beta", "gamma") * 20]
    a = baseline_random(truth, ("alpha", "beta", "gamma"), repeats=50, seed=4)
    b = baseline_random(truth, ("alpha", "beta", "gamma"), repeats=50, seed=4)
    assert a == b
    assert 0.28 < a.p_micro < 0.39


def test_baseline_random_argument_checks():
    with pytest.raises(ConfigError, match="^repeats must be at least 1, got 0$"):
        baseline_random([("alpha",)], ("alpha",), repeats=0)
    with pytest.raises(ValueError, match="^the analyzer list is empty$"):
        baseline_random([("alpha",)], (), repeats=1)


# beta sweep


def make_evaluation(project_id, counts_by_sca, beta=1.0):
    scores = tuple(
        score_sca(sca, ConfusionCounts(*counts), beta)
        for sca, counts in counts_by_sca
    )
    return ProjectEvaluation(project_id, beta, scores, optimal_set(scores))


def sweep_fixture():
    dataset = two_class_dataset()
    evaluations = []
    for project_id, labels in zip(dataset.table.project_ids, dataset.label_sets):
        if labels[0] == "alpha":
            counts = [("alpha", (5, 0, 5)), ("beta", (1, 4, 5))]
        else:
            counts = [("alpha", (1, 4, 5)), ("beta", (5, 0, 5))]
        evaluations.append(make_evaluation(project_id, counts))
    return evaluations, dataset.table, dataset


def test_dataset_from_evaluations_matches_source():
    evaluations, features, dataset = sweep_fixture()
    rebuilt = dataset_from_evaluations(features, evaluations)
    assert rebuilt.table.project_ids == dataset.table.project_ids
    assert rebuilt.label_sets == dataset.label_sets
    assert rebuilt.sca_order == ("alpha", "beta")
    assert np.array_equal(rebuilt.table.matrix, dataset.table.matrix)


def test_beta_sweep_single_beta_equals_direct_cv():
    evaluations, features, dataset = sweep_fixture()
    rows = beta_sweep(evaluations, features, ModelKind.DT, [1.0], folds=3, seed=0)
    assert len(rows) == 1 and rows[0][0] == 1.0
    direct = cross_validate(dataset, ModelKind.DT, folds=3, seed=0)
    assert rows[0][1] == direct


@pytest.mark.parametrize("kind", [ModelKind.DT, ModelKind.LR], ids=lambda k: k.value)
def test_beta_sweep_rows_equal_standalone_cv(kind):
    evaluations, features, _ = sweep_fixture()
    # at beta 0 only precision counts, so one project ties both analyzers
    evaluations[0] = make_evaluation(
        evaluations[0].project_id, [("alpha", (2, 0, 5)), ("beta", (4, 0, 5))]
    )
    betas = [0.0, 0.5, 1.0, 2.0, float("inf")]
    rows = beta_sweep(evaluations, features, kind, betas, folds=4, seed=1)
    assert [beta for beta, _ in rows] == betas
    for beta, result in rows:
        rescored = dataset_from_evaluations(
            features, [reevaluate(evaluation, beta) for evaluation in evaluations]
        )
        assert result == cross_validate(rescored, kind, folds=4, seed=1)


def sweep_fits(monkeypatch, *args, **kwargs):
    """``beta_sweep``'s rows and the number of models it fitted."""
    fitted = []

    def counting(training_sets, *rest):
        fitted.extend(training_sets)
        return train_batch(training_sets, *rest)

    monkeypatch.setattr(recommend, "train_batch", counting)
    return beta_sweep(*args, **kwargs), len(fitted)


def nonempty_folds(dataset, folds, seed):
    return sum(1 for rows in stratified_folds(dataset.primary_labels(), folds, seed) if rows)


def test_beta_sweep_fits_once_per_primary_label_vector(monkeypatch):
    evaluations, features, _ = sweep_fixture()
    evaluations[0] = make_evaluation(
        evaluations[0].project_id, [("alpha", (2, 0, 5)), ("beta", (4, 0, 5))]
    )
    betas = [0.0, 0.5, 1.0, 2.0, float("inf")]
    rows, fits = sweep_fits(monkeypatch, evaluations, features, ModelKind.DT, betas, folds=4)
    datasets = {
        dataset.primary_labels(): dataset
        for dataset in (
            dataset_from_evaluations(features, [reevaluate(e, beta) for e in evaluations])
            for beta in betas
        )
    }
    assert len(datasets) == 2  # beta 0 flips project 0's primary label
    assert fits == sum(nonempty_folds(dataset, 4, 0) for dataset in datasets.values())
    for beta, result in rows:
        rescored = dataset_from_evaluations(features, [reevaluate(e, beta) for e in evaluations])
        assert result == cross_validate(rescored, ModelKind.DT, folds=4, seed=0)


@pytest.mark.parametrize("kind", [ModelKind.DT, ModelKind.LR], ids=lambda k: k.value)
def test_beta_sweep_shared_primary_labels_scored_by_own_label_sets(monkeypatch, kind):
    evaluations, features, _ = sweep_fixture()
    # at beta 0 project 0 ties both analyzers, and alpha stays its primary label
    evaluations[0] = make_evaluation(
        evaluations[0].project_id, [("alpha", (4, 0, 5)), ("beta", (2, 0, 5))]
    )
    betas = [0.0, 1.0]
    datasets = [
        dataset_from_evaluations(features, [reevaluate(e, beta) for e in evaluations])
        for beta in betas
    ]
    assert datasets[0].primary_labels() == datasets[1].primary_labels()
    assert datasets[0].label_sets[0] == ("alpha", "beta")
    assert datasets[1].label_sets[0] == ("alpha",)
    rows, fits = sweep_fits(monkeypatch, evaluations, features, kind, betas, folds=3, seed=2)
    assert fits == nonempty_folds(datasets[0], 3, 2)
    for (beta, result), dataset in zip(rows, datasets):
        assert result == cross_validate(dataset, kind, folds=3, seed=2)


def test_beta_sweep_covers_all_betas():
    evaluations, features, _ = sweep_fixture()
    betas = [0.0, 0.5, 1.0, 2.0, float("inf")]
    rows = beta_sweep(evaluations, features, ModelKind.DT, betas, folds=3, seed=0)
    assert [beta for beta, _ in rows] == betas


def test_beta_sweep_rejects_empty_betas():
    evaluations, features, _ = sweep_fixture()
    with pytest.raises(ValueError):
        beta_sweep(evaluations, features, ModelKind.DT, [])


def test_sweep_table_format():
    result = CvResult(
        mean=MicroMetrics(0.5, 0.25, 1 / 3),
        per_fold=(MicroMetrics(0.5, 0.25, 1 / 3),),
    )
    text = sweep_table([(0.0, result), (float("inf"), result)])
    lines = text.splitlines()
    assert lines[0] == "beta\tp_micro\tr_micro\tf1_micro"
    assert lines[1] == "0\t0.5\t0.25\t0.3333333333333333"
    assert lines[2].startswith("inf\t")
    assert text.endswith("\n")
