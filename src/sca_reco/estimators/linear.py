"""Multinomial logistic regression trained by full-batch gradient descent.

``fit_stacked`` fits a batch of models at once: the single model of
``LogisticRegression.fit`` or, say, every fold of a cross-validation.  Fits
of equal shape (rows, features, classes) are stacked into ``(F, n, d)``
arrays and share one loop, so each step costs a few numpy calls for the
whole stack instead of a few per model.  Stacked matmuls and sums perform
the same operations in the same order per model as unstacked ones, so every
model comes out bit-equal to a fit on its own.  Fits of different shapes go
to separate stacks; padding them to one shape would change the sums.
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
    stacks: dict[tuple[int, int, int], list[int]] = {}
    checked = [check_X_y(X, y, k) for X, y, k in zip(Xs, ys, n_classes)]
    for i, (X, _, k) in enumerate(checked):
        stacks.setdefault((*X.shape, k), []).append(i)
    for (n, d, k), members in stacks.items():
        X = np.stack([checked[i][0] for i in members])
        one_hot = np.zeros((len(members), n, k))
        for f, i in enumerate(members):
            one_hot[f, np.arange(n), checked[i][1]] = 1.0
        W, b = _descend(X, one_hot, *hyperparams)
        for f, i in enumerate(members):
            model = models[i]
            model.W_, model.b_ = W[f], b[f]
            model.n_classes_, model.n_features_ = k, d
    return models


def _descend(X, one_hot, l2, learning_rate, n_iter):
    """Gradient descent from zero weights on a stack: ``X`` is (F, n, d),
    ``one_hot`` (F, n, k); returns W (F, k, d) and b (F, k)."""
    n_fits, n, d = X.shape
    k = one_hot.shape[2]
    W = np.zeros((n_fits, k, d))
    b = np.zeros((n_fits, k))
    for _ in range(n_iter):
        probabilities = softmax(np.matmul(X, W.transpose(0, 2, 1)) + b[:, None, :])
        residual = (probabilities - one_hot) / n
        grad_W = np.matmul(residual.transpose(0, 2, 1), X) + (l2 / n) * W
        grad_b = residual.sum(axis=1)
        W -= learning_rate * grad_W
        b -= learning_rate * grad_b
    return W, b
