"""Stacked logistic-regression fits against the per-model loop they replaced.

``reference_fit`` keeps the two-dimensional gradient-descent loop that
fitted one model at a time.  ``fit_stacked`` must give bit-equal weights and
biases for every model of a batch, whatever shapes and labels share it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_probe
from sca_reco.estimators import LogisticRegression, fit_stacked, linear
from sca_reco.estimators.base import check_X_y
from sca_reco.estimators.linear import softmax


def reference_fit(X, y, n_classes=None, l2=1.0, learning_rate=0.1, n_iter=1000):
    """One model by full-batch gradient descent; returns (W, b).  ``X`` is
    copied contiguous first, as ``fit_stacked`` copies it, so the oracle
    does not depend on the caller's layout: numpy takes a non-BLAS matmul
    for some strided operands, whose sums round differently."""
    X, y, k = check_X_y(np.ascontiguousarray(X), y, n_classes)
    n, d = X.shape
    one_hot = np.zeros((n, k))
    one_hot[np.arange(n), y] = 1.0
    W = np.zeros((k, d))
    b = np.zeros(k)
    for _ in range(n_iter):
        probabilities = softmax(X @ W.T + b)
        residual = (probabilities - one_hot) / n
        grad_W = residual.T @ X + (l2 / n) * W
        grad_b = residual.sum(axis=0)
        W -= learning_rate * grad_W
        b -= learning_rate * grad_b
    return W, b


def bits(array) -> bytes:
    """Exact bytes of a float array, so -0.0 and 0.0 or one ulp differ."""
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


@st.composite
def fit_problem(draw, shape):
    """One (X, y, k) of a given (n, d, k): few distinct values, so many tied
    rows and constant columns, and labels that need not use every class."""
    n, d, k = shape
    levels = draw(st.integers(1, 4))
    values = st.integers(-levels, levels).map(lambda v: v / 2.0)
    X = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n)))
    if draw(st.booleans()):  # the standardized form a constant column takes
        X[:, draw(st.integers(0, d - 1))] = 0.0
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return X, y, k


@st.composite
def fit_batch(draw):
    """1 to 10 problems over at most 6 shapes that draw their class counts
    from at most two, so one descent loop carries stacks of different rows
    and features, and stacks of several fits form."""
    class_counts = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))
    shape = st.tuples(st.integers(2, 20), st.integers(1, 6), st.sampled_from(class_counts))
    shapes = draw(st.lists(shape, min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=10))
    return [draw(fit_problem(shape)) for shape in picks]


HYPERPARAMS = st.fixed_dictionaries(
    {
        "l2": st.sampled_from([0.0, 0.5, 1.0]),
        "learning_rate": st.sampled_from([0.05, 0.1, 1.0]),
        "n_iter": st.integers(1, 40),
    }
)


def fitted(problems, hyperparams):
    return fit_stacked([LogisticRegression(**hyperparams) for _ in problems], *zip(*problems))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit_batch(), HYPERPARAMS)
def test_stacked_fit_matches_reference_loop(problems, hyperparams):
    for model, (X, y, k) in zip(fitted(problems, hyperparams), problems):
        W, b = reference_fit(X, y, k, **hyperparams)
        assert bits(model.W_) == bits(W)
        assert bits(model.b_) == bits(b)
        assert (model.n_classes_, model.n_features_) == (k, X.shape[1])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fit_batch(), fit_batch(), HYPERPARAMS, st.randoms(use_true_random=False))
def test_stacked_fit_ignores_batch_mates(problems, others, hyperparams, random):
    alone = fitted(problems, hyperparams)
    shuffled = list(range(len(problems) + len(others)))
    random.shuffle(shuffled)
    everything = problems + others
    shared = fitted([everything[i] for i in shuffled], hyperparams)
    for position, i in enumerate(shuffled):
        if i < len(problems):
            assert bits(shared[position].W_) == bits(alone[i].W_)
            assert bits(shared[position].b_) == bits(alone[i].b_)


def test_single_fit_matches_reference_at_default_hyperparameters():
    # a paper-sized training set (190 x 8 x 3) and its ten CV folds of 171
    # rows, stacked: their sums run over more than 128 rows, past numpy's
    # pairwise-summation block, which no smaller case reaches
    stream = np.random.default_rng(5)
    for n, d, k in [(9, 8, 3), (21, 11, 3), (5, 1, 2), (190, 8, 3)]:
        X = stream.normal(size=(n, d))
        y = np.arange(n) % k
        model = LogisticRegression().fit(X, y)
        W, b = reference_fit(X, y)
        assert bits(model.W_) == bits(W) and bits(model.b_) == bits(b)
    X = stream.normal(size=(190, 8))
    y = np.arange(190) % 3
    folds = [np.delete(np.arange(190), np.arange(fold, 190, 10)) for fold in range(10)]
    assert {len(rows) for rows in folds} == {171}
    problems = [(X[rows], y[rows], 3) for rows in folds]
    for model, (X_fold, y_fold, _) in zip(fitted(problems, {}), problems):
        W, b = reference_fit(X_fold, y_fold)
        assert bits(model.W_) == bits(W) and bits(model.b_) == bits(b)


def test_paper_size_mixed_batch_matches_reference_and_each_fit_alone():
    # a 190-row full fit and 171-row folds at every feature count from 8 down
    # to 1, shuffled: the 171-row fits share one bias-gradient sum across
    # eight stacks, over more rows than numpy's 128-row pairwise-summation block
    stream = np.random.default_rng(8)
    X, y = stream.normal(size=(190, 8)), np.arange(190) % 3
    fold = np.delete(np.arange(190), np.arange(3, 190, 10))
    problems = [(X, y, 3)] + [
        (np.ascontiguousarray(X[fold, :d]), y[fold], 3) for d in range(8, 0, -1)
    ]
    problems = [problems[i] for i in stream.permutation(len(problems))]
    for model, problem in zip(fitted(problems, {}), problems):
        W, b = reference_fit(*problem)
        (alone,) = fitted([problem], {})
        assert bits(model.W_) == bits(W) == bits(alone.W_)
        assert bits(model.b_) == bits(b) == bits(alone.b_)


# one mixed batch of two class counts, several row counts per class count and
# several feature counts per row count, against each fit alone
BATCH_PROBE = """
import numpy as np
from sca_reco.estimators import LogisticRegression, fit_stacked

stream = np.random.default_rng(12)
shapes = [(190, 8, 3)] + [(171, d, 3) for d in range(8, 0, -1)]
shapes += [(n, d, k) for n in (7, 9) for d in (1, 3, 8) for k in (2, 3)]
problems = [(stream.normal(size=(n, d)), np.arange(n) % k, k) for n, d, k in shapes * 2]
problems = [problems[i] for i in stream.permutation(len(problems))]

def fit(batch):
    return fit_stacked([LogisticRegression(n_iter=200) for _ in batch], *zip(*batch))

for model, problem in zip(fit(problems), problems):
    (alone,) = fit([problem])
    assert model.W_.tobytes() == alone.W_.tobytes(), problem[0].shape
    assert model.b_.tobytes() == alone.b_.tobytes(), problem[0].shape
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Prescott"])
def test_a_batch_never_changes_a_model_under_other_blas_kernels(kernel):
    """Each model of a mixed batch equals the same fit alone when OpenBLAS
    runs the kernels of an older CPU, whose gemm blocks and rounds
    differently: stacking fits of different shapes into one matmul (padding
    them) passes on one kernel and fails on another.  This checks only that
    a batch agrees with fits alone under each kernel, not the bytes pinned
    for the native one.  A BLAS build that ignores ``OPENBLAS_CORETYPE``
    runs its one kernel each time, so there this proves nothing."""
    result = run_probe(BATCH_PROBE, env={"OPENBLAS_CORETYPE": kernel})
    assert result.returncode == 0, result.stderr


def test_one_descent_loop_per_class_count(monkeypatch):
    """Stacks of different rows and features but one class count share a
    loop: ``_descend`` runs once per class count, over all their rows, with
    the stacks ordered by row count (stably), so each row count's fits hold
    adjacent rows."""
    loops = []
    descend = linear._descend

    def counting_descend(Xs, labels, k, *hyperparams):
        loops.append((k, [X.shape for X in Xs], len(labels)))
        return descend(Xs, labels, k, *hyperparams)

    monkeypatch.setattr(linear, "_descend", counting_descend)
    stream = np.random.default_rng(3)
    shapes = [(7, 1, 3), (9, 8, 3), (7, 2, 3), (9, 8, 3), (5, 3, 2), (6, 3, 2)]
    problems = [(stream.normal(size=(n, d)), np.arange(n) % k, k) for n, d, k in shapes]
    fitted(problems, {"n_iter": 4})
    assert sorted(loops) == [
        (2, [(1, 5, 3), (1, 6, 3)], 11),
        (3, [(1, 7, 1), (1, 7, 2), (2, 9, 8)], 32),
    ]


def test_fit_infers_class_count_per_problem():
    X = np.arange(12.0).reshape(6, 2)
    models = fitted([(X, [0, 1, 0, 1, 0, 1], None), (X, [0, 1, 2, 0, 1, 2], None)], {})
    assert [m.n_classes_ for m in models] == [2, 3]


def test_stacked_fit_rejects_unequal_hyperparameters():
    X, y = np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1])
    models = [LogisticRegression(), LogisticRegression(l2=0.5)]
    with pytest.raises(ValueError, match="equal"):
        fit_stacked(models, [X, X], [y, y], [2, 2])
