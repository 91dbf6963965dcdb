"""Multinomial logistic regression trained by full-batch gradient descent.

``fit_stacked`` fits a batch of models at once: the single model of
``LogisticRegression.fit`` or, say, every fold of a cross-validation.  Fits
of equal shape (rows, features, classes) are stacked into ``(F, n, d)``
arrays, and all stacks of one class count share one descent loop.  Per
stack, a step runs only its two matmuls and its bias-gradient sum; the bias
add, softmax, residual, L2 term and updates run once over flat buffers that
hold every stack's rows and weights.  Stacked matmuls and sums perform the
same operations in the same order per model as unstacked ones, and the rest
is elementwise, so every model comes out bit-equal to a fit on its own.
Fits of different shapes keep separate matmuls and sums; padding them to
one shape would change the sums.
"""

from __future__ import annotations

import numpy as np

from .base import check_array, check_count, check_is_fitted, check_real, check_X_y, state_array


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
        X = check_array(X)
        return X @ self.W_.T + self.b_

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
    for k, stacks in loops.items():
        members = [i for stack in stacks.values() for i in stack]
        weights = _descend(
            [np.stack([checked[i][0] for i in stack]) for stack in stacks.values()],
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

    Rows and weights of all stacks live in flat buffers; each stack works
    on views of them, so the elementwise steps run once for the batch.
    """
    n_rows = sum(F * n for F, n, _ in (X.shape for X in Xs))
    n_weights = sum(F * d for F, _, d in (X.shape for X in Xs)) * k
    n_fits = sum(len(X) for X in Xs)
    one_hot = np.zeros((n_rows, k))
    one_hot[np.arange(n_rows), labels] = 1.0
    logits, residual = np.empty((n_rows, k)), np.empty((n_rows, k))
    W, grad_W = np.zeros(n_weights), np.empty(n_weights)
    b, grad_b = np.zeros((n_fits, k)), np.empty((n_fits, k))
    row_fit = np.empty(n_rows, dtype=np.intp)  # the fit each row belongs to
    rows_n = np.empty((n_rows, 1))  # the row count n of the row's fit
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
        stack_residual = residual[rows].reshape(F, n, k)
        forward.append((X, stack_W.transpose(0, 2, 1), logits[rows].reshape(F, n, k)))
        backward.append(
            (
                stack_residual.transpose(0, 2, 1),
                X,
                grad_W[weights].reshape(F, k, d),
                stack_residual,
                grad_b[fit : fit + F],
            )
        )
        fitted.extend(zip(stack_W, b[fit : fit + F]))
        row, weight, fit = rows.stop, weights.stop, fit + F
    for _ in range(n_iter):
        for X, W_T, stack_logits in forward:
            np.matmul(X, W_T, out=stack_logits)
        logits += b[row_fit]
        np.divide(softmax(logits) - one_hot, rows_n, out=residual)
        for residual_T, X, stack_grad_W, stack_residual, stack_grad_b in backward:
            np.matmul(residual_T, X, out=stack_grad_W)
            stack_residual.sum(axis=1, out=stack_grad_b)
        grad_W += l2_n * W
        W -= learning_rate * grad_W
        b -= learning_rate * grad_b
    return fitted
