"""Input and fitted-state validation helpers shared by the estimators."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from ..exceptions import LengthMismatch, NotFittedError


def check_array(X, *, name: str = "X") -> np.ndarray:
    """Coerce to a 2-D float64 array of finite values."""
    array = np.asarray(X, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {array.shape}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite values")
    return array


def check_X_y(X, y, n_classes: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate a labeled matrix; labels are integer class indices."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("y must be 1-dimensional")
    if len(y) != X.shape[0]:
        raise LengthMismatch(f"X has {X.shape[0]} rows but y has {len(y)}")
    if len(y) == 0:
        raise ValueError("cannot fit on an empty dataset")
    y = y.astype(np.int64, casting="safe") if y.dtype != np.int64 else y
    if (y < 0).any():
        raise ValueError("class indices must be non-negative")
    k = int(y.max()) + 1 if n_classes is None else int(n_classes)
    if (y >= k).any():
        raise ValueError(f"class index out of range for {k} classes")
    return X, y, k


def fit_each(estimators, Xs, ys, n_classes):
    """Fit each estimator on its ``X``, ``y`` and class count, one after
    another, and yield it: the batch fit of kinds that have no faster one.

    Each is fitted only when the caller asks for it, so a caller that drops
    every model before asking for the next holds one fitted model at a time.
    """
    for estimator, X, y, k in zip(estimators, Xs, ys, n_classes):
        yield estimator.fit(X, y, n_classes=k)


def check_is_fitted(estimator, attribute: str) -> None:
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} must be fitted before this call"
        )


def check_count(name: str, value, minimum: int) -> int:
    """An integer hyperparameter of at least ``minimum``, as an int; a bool
    is not a count, though ``operator.index`` takes it."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {count}")
    return count


def check_real(
    name: str, value, low: float, high: float = math.inf, *, low_open: bool = False
) -> float:
    """A finite real hyperparameter in ``[low, high)``, or ``(low, high)``
    with ``low_open``, as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    above_low = low < number if low_open else low <= number
    if not (math.isfinite(number) and above_low and number < high):
        interval = f"{'(' if low_open else '['}{low}, {high})"
        raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")
    return number


def state_array(state: dict, key: str, shape: tuple) -> np.ndarray:
    """``state[key]`` as a float array of the given shape.

    ``None`` in ``shape`` matches any size; every size must be at least 1,
    so a loaded estimator never predicts from an empty array.
    """
    try:
        array = np.asarray(state[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:  # not numbers, or ragged
        raise ValueError(f"field {key!r}: {exc}") from exc
    if array.ndim != len(shape) or any(
        size < 1 or (want is not None and size != want)
        for size, want in zip(array.shape, shape)
    ):
        expected = "x".join("n" if want is None else str(want) for want in shape)
        raise ValueError(f"{key} has shape {array.shape}, expected {expected}")
    return array
