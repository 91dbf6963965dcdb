"""Multinomial logistic regression trained by full-batch gradient descent."""

from __future__ import annotations

import numpy as np

from .base import check_array, check_is_fitted, check_X_y, state_array


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegression:
    """Softmax regression minimizing mean cross-entropy plus an L2 penalty.

    The objective is mean CE + l2/(2n) * sum(W^2); the bias is not
    penalized.  Weights start at zero, so training is deterministic without
    any seed.  ``feature_importances_`` is the mean absolute coefficient
    of each feature over the classes.
    """

    def __init__(self, l2: float = 1.0, learning_rate: float = 0.1, n_iter: int = 1000):
        self.l2 = l2
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.W_ = None
        self.b_ = None
        self.n_classes_ = None
        self.n_features_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "LogisticRegression":
        X, y, k = check_X_y(X, y, n_classes)
        n, d = X.shape
        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), y] = 1.0
        W = np.zeros((k, d))
        b = np.zeros(k)
        for _ in range(self.n_iter):
            probabilities = softmax(X @ W.T + b)
            residual = (probabilities - one_hot) / n
            grad_W = residual.T @ X + (self.l2 / n) * W
            grad_b = residual.sum(axis=0)
            W -= self.learning_rate * grad_W
            b -= self.learning_rate * grad_b
        self.W_ = W
        self.b_ = b
        self.n_classes_ = k
        self.n_features_ = d
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
