"""Multinomial logistic regression trained by full-batch gradient descent.

``fit_stacked`` fits a batch of models at once: the single model of
``LogisticRegression.fit`` or, say, every fold of a cross-validation.  Fits
of equal shape (rows, features, classes) are stacked into ``(F, n, d)``
arrays, and all stacks of one class count share one descent loop, ordered
by row count.  Per stack, a step runs only its two matmuls, and per row
count one bias-gradient sum; the bias add, softmax, residual, L2 term and
update run once over flat buffers that hold every stack's rows and every
fit's parameters (``_descend`` lists the step's operations and buffers).
Stacked matmuls and sums perform the same operations in the same order per
model as unstacked ones, and the rest is elementwise, so every model comes
out bit-equal to a fit on its own.  Fits of different shapes keep separate
matmuls; padding them to one shape changes their bits (see ``_descend``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .base import check_array, check_count, check_is_fitted, check_real, check_X_y, state_array

# the products ``row_sums`` holds at once, 8 MiB of float64
BLOCK_PRODUCTS = 1 << 20


def row_sums(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X @ W.T`` summed a row's products at a time, so that, unlike a BLAS
    product, a row's result does not depend on the rows that come with it;
    rows go in blocks of at most ``BLOCK_PRODUCTS`` products, or of one."""
    out = np.empty((len(X), len(W)))
    step = max(1, BLOCK_PRODUCTS // max(1, W.size))
    for start in range(0, len(X), step):
        out[start : start + step] = np.add.reduce(X[start : start + step, None, :] * W, axis=2)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class LogisticRegression:
    """Softmax regression minimizing mean cross-entropy plus an L2 penalty.

    The objective is mean CE + l2/(2n) * sum(W^2); the bias is not
    penalized.  Weights start at zero, so training is deterministic without
    any seed.  ``feature_importances_`` is the mean absolute coefficient
    of each feature over the classes.
    """

    def __init__(self, l2: float = 1.0, learning_rate: float = 0.1, n_iter: int = 1000):
        self.l2 = check_real("l2", l2, 0.0)
        self.learning_rate = check_real("learning_rate", learning_rate, 0.0, low_open=True)
        self.n_iter = check_count("n_iter", n_iter, 1)
        self.W_ = None
        self.b_ = None
        self.n_classes_ = None
        self.n_features_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "LogisticRegression":
        fit_stacked([self], [X], [y], [n_classes])
        return self

    @property
    def feature_importances_(self) -> np.ndarray:
        check_is_fitted(self, "W_")
        return np.mean(np.abs(self.W_), axis=0)

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, "W_")
        return row_sums(check_array(X), self.W_) + self.b_

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1).astype(np.int64)

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "W_")
        return {"W": self.W_.tolist(), "b": self.b_.tolist()}

    def load_fitted_state(self, state: dict) -> "LogisticRegression":
        self.b_ = state_array(state, "b", (None,))
        self.W_ = state_array(state, "W", (len(self.b_), None))
        self.n_classes_, self.n_features_ = self.W_.shape
        return self


def fit_stacked(models, Xs, ys, n_classes) -> list[LogisticRegression]:
    """Fit each model on its ``X``, ``y`` and class count (``None`` for one
    more than the largest label); returns the models in order.

    The models must share ``l2``, ``learning_rate`` and ``n_iter``.  Every
    model comes out as if fitted alone, so the batch never changes a model.
    """
    models = list(models)
    first = models[0]
    hyperparams = (first.l2, first.learning_rate, first.n_iter)
    if any((m.l2, m.learning_rate, m.n_iter) != hyperparams for m in models):
        raise ValueError("a stacked fit needs equal l2, learning_rate and n_iter")
    checked = [check_X_y(X, y, k) for X, y, k in zip(Xs, ys, n_classes)]
    loops: dict[int, dict[tuple[int, int], list[int]]] = {}
    for i, (X, _, k) in enumerate(checked):
        loops.setdefault(k, {}).setdefault(X.shape, []).append(i)
    for k, by_shape in loops.items():
        stacks = [by_shape[shape] for shape in sorted(by_shape, key=lambda shape: shape[0])]
        members = [i for stack in stacks for i in stack]
        weights = _descend(
            [np.stack([checked[i][0] for i in stack]) for stack in stacks],
            np.concatenate([checked[i][1] for i in members]),
            k,
            *hyperparams,
        )
        for i, (W, b) in zip(members, weights):
            model = models[i]
            model.W_, model.b_ = W, b
            model.n_classes_, model.n_features_ = W.shape
    return models


def _descend(Xs, labels, k, l2, learning_rate, n_iter):
    """Gradient descent from zero weights on stacks that share the class
    count ``k``: each of ``Xs`` is (F, n, d), and ``labels`` holds every
    stack's rows in order.  Returns (W (k, d), b (k,)) per fit, stack by
    stack.

    Every buffer is allocated once, before the first step.  ``params``
    holds every fit's W, then every fit's b, and ``grad`` their gradients
    in the same layout; ``scores`` holds every stack's rows, first as
    logits, then as probabilities, then as the residual.  Each stack's
    matmuls and bias-gradient sum work on views of them, and the rest of a
    step runs once for the batch, in this order:

    1. ``scores = X @ W.T`` per stack, then ``scores += b`` of each row's
       fit, gathered by ``take`` into ``bias``;
    2. softmax: ``scores -= max(scores)`` per row, ``exp``, ``scores /=
       sum(scores)`` per row (``np.maximum.reduce``, ``np.add.reduce``);
    3. ``scores -= one_hot``, then ``scores /= n`` of each row's fit;
    4. ``grad_W = scores.T @ X`` per stack, and ``grad_b = sum(scores)`` per
       fit, one sum over a (fits, n, k) view per run of stacks of equal n
       (``fit_stacked`` orders them by n: 16 stacks of ``mine``'s CV take 2),
       then ``grad_W += (l2 / n) * W`` through ``penalty``;
    5. ``grad *= learning_rate`` and ``params -= grad``.

    These are the ufuncs, operands and orders of the textbook step (a sum
    over fits adds each fit's rows in its own order), so every weight keeps
    its bits.  Zero-padding fits to share a matmul changed the bits of
    ``scores.T @ X`` under OpenBLAS's Haswell, Zen, Prescott and (at d = 1)
    SkylakeX kernels.
    """
    n_rows = sum(F * n for F, n, _ in (X.shape for X in Xs))
    n_weights = sum(F * d for F, _, d in (X.shape for X in Xs)) * k
    n_fits = sum(len(X) for X in Xs)
    one_hot = np.zeros((n_rows, k))
    one_hot[np.arange(n_rows), labels] = 1.0
    scores, bias = np.empty((n_rows, k)), np.empty((n_rows, k))
    row_max, row_sum = np.empty((n_rows, 1)), np.empty((n_rows, 1))
    params, grad = np.zeros(n_weights + n_fits * k), np.empty(n_weights + n_fits * k)
    W, grad_W, penalty = params[:n_weights], grad[:n_weights], np.empty(n_weights)
    b, grad_b = params[n_weights:].reshape(n_fits, k), grad[n_weights:].reshape(n_fits, k)
    row_fit = np.empty(n_rows, dtype=np.intp)  # the fit each row belongs to
    rows_n = np.empty((n_rows, k))  # the row count n of the row's fit, per class
    l2_n = np.empty(n_weights)  # l2 / n of the weight's fit
    forward, backward, fitted = [], [], []  # per stack: matmul operands and views
    row = weight = fit = 0
    for X in Xs:
        F, n, d = X.shape
        rows, weights = slice(row, row + F * n), slice(weight, weight + F * k * d)
        row_fit[rows] = np.repeat(np.arange(fit, fit + F), n)
        rows_n[rows] = n
        l2_n[weights] = l2 / n
        stack_W = W[weights].reshape(F, k, d)
        stack_scores = scores[rows].reshape(F, n, k)
        forward.append((X, stack_W.transpose(0, 2, 1), stack_scores))
        backward.append((stack_scores.transpose(0, 2, 1), X, grad_W[weights].reshape(F, k, d)))
        fitted.extend(zip(stack_W, b[fit : fit + F]))
        row, weight, fit = rows.stop, weights.stop, fit + F
    sums, row, fit = [], 0, 0  # per run of stacks of equal n: its rows and grad_b
    for n, run in itertools.groupby(Xs, lambda X: X.shape[1]):
        fits = sum(len(X) for X in run)
        sums.append((scores[row : row + fits * n].reshape(fits, n, k), grad_b[fit : fit + fits]))
        row, fit = row + fits * n, fit + fits
    # out, axis and keepdims go by position, the rate is a 0-d array, take
    # clips (row_fit is in range) instead of checking and buffering, and the
    # ufuncs are locals: on arrays this small those costs match the step's ufuncs
    rate = np.array(learning_rate, dtype=np.float64)
    matmul, add, subtract, divide, multiply = np.matmul, np.add, np.subtract, np.divide, np.multiply
    exp, gather, add_reduce, max_reduce = np.exp, b.take, np.add.reduce, np.maximum.reduce
    for _ in range(n_iter):
        for X, W_T, stack_scores in forward:
            matmul(X, W_T, stack_scores)
        gather(row_fit, 0, bias, "clip")
        add(scores, bias, scores)
        max_reduce(scores, 1, None, row_max, True)
        subtract(scores, row_max, scores)
        exp(scores, scores)
        add_reduce(scores, 1, None, row_sum, True)
        divide(scores, row_sum, scores)
        subtract(scores, one_hot, scores)
        divide(scores, rows_n, scores)
        for scores_T, X, stack_grad_W in backward:
            matmul(scores_T, X, stack_grad_W)
        for block, block_grad_b in sums:
            add_reduce(block, 1, None, block_grad_b)
        multiply(l2_n, W, penalty)
        add(grad_W, penalty, grad_W)
        multiply(grad, rate, grad)
        subtract(params, grad, params)
    return fitted
