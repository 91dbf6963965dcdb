"""Single-hidden-layer perceptron trained by momentum gradient descent."""

from __future__ import annotations

import numpy as np

from ..rng import derive_seed
from .base import check_array, check_count, check_is_fitted, check_real, check_X_y, state_array
from .linear import row_sums, softmax


class MLPClassifier:
    """One ReLU hidden layer, softmax output, full-batch updates.

    Weights start from a seeded Glorot-style uniform draw (biases at zero);
    every epoch applies one momentum step on the mean cross-entropy gradient
    over the whole batch, so training is deterministic given the seed.
    """

    def __init__(
        self,
        hidden_units: int = 100,
        learning_rate: float = 0.01,
        momentum: float = 0.9,
        epochs: int = 200,
        random_state: int | None = None,
    ):
        self.hidden_units = check_count("hidden_units", hidden_units, 1)
        self.learning_rate = check_real("learning_rate", learning_rate, 0.0, low_open=True)
        self.momentum = check_real("momentum", momentum, 0.0, 1.0)
        self.epochs = check_count("epochs", epochs, 1)
        self.random_state = random_state
        self.W1_ = None
        self.b1_ = None
        self.W2_ = None
        self.b2_ = None
        self.n_classes_ = None
        self.n_features_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "MLPClassifier":
        X, y, k = check_X_y(X, y, n_classes)
        n, d = X.shape
        h = self.hidden_units
        rng = np.random.Generator(np.random.PCG64(derive_seed(self.random_state or 0)))
        limit1 = np.sqrt(6.0 / (d + h))
        limit2 = np.sqrt(6.0 / (h + k))
        W1 = rng.uniform(-limit1, limit1, size=(d, h))
        W2 = rng.uniform(-limit2, limit2, size=(h, k))
        b1 = np.zeros(h)
        b2 = np.zeros(k)
        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), y] = 1.0
        velocities = [np.zeros_like(p) for p in (W1, b1, W2, b2)]
        for _ in range(self.epochs):
            hidden_pre = X @ W1 + b1
            hidden = np.maximum(hidden_pre, 0.0)
            probabilities = softmax(hidden @ W2 + b2)
            d_logits = (probabilities - one_hot) / n
            grad_W2 = hidden.T @ d_logits
            grad_b2 = d_logits.sum(axis=0)
            d_hidden = (d_logits @ W2.T) * (hidden_pre > 0.0)
            grad_W1 = X.T @ d_hidden
            grad_b1 = d_hidden.sum(axis=0)
            for param, velocity, grad in zip(
                (W1, b1, W2, b2), velocities, (grad_W1, grad_b1, grad_W2, grad_b2)
            ):
                velocity *= self.momentum
                velocity -= self.learning_rate * grad
                param += velocity
        self.W1_, self.b1_, self.W2_, self.b2_ = W1, b1, W2, b2
        self.n_classes_, self.n_features_ = k, d
        return self

    def decision_function(self, X) -> np.ndarray:
        check_is_fitted(self, "W1_")
        hidden = np.maximum(row_sums(check_array(X), self.W1_.T) + self.b1_, 0.0)
        return row_sums(hidden, self.W2_.T) + self.b2_

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1).astype(np.int64)

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "W1_")
        return {
            "W1": self.W1_.tolist(),
            "b1": self.b1_.tolist(),
            "W2": self.W2_.tolist(),
            "b2": self.b2_.tolist(),
        }

    def load_fitted_state(self, state: dict) -> "MLPClassifier":
        self.b1_ = state_array(state, "b1", (None,))
        self.b2_ = state_array(state, "b2", (None,))
        self.W1_ = state_array(state, "W1", (None, len(self.b1_)))
        self.W2_ = state_array(state, "W2", (len(self.b1_), len(self.b2_)))
        self.n_classes_, self.n_features_ = len(self.b2_), self.W1_.shape[0]
        return self
