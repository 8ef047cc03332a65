"""Argument validation helpers.

Every public entry point of the library validates its inputs through these
helpers so that user errors surface as clear ``ValueError``/``TypeError``
messages at the API boundary instead of as numpy broadcasting surprises deep
inside an algorithm.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "check_finite",
    "check_matrix",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_shard_count",
    "check_vector",
]

MAX_SHARDS = 1024
"""Upper bound on shard counts (guards against typo'd fleet sizes)."""


def check_vector(value, name: str, *, dim: int | None = None) -> np.ndarray:
    """Coerce *value* to a 1-D float64 array and validate it.

    Parameters
    ----------
    value:
        Anything convertible to a numpy array.
    name:
        Name used in error messages.
    dim:
        If given, the required length of the vector.

    Returns
    -------
    numpy.ndarray
        A contiguous 1-D float64 array.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


def check_matrix(
    value,
    name: str,
    *,
    cols: int | None = None,
    min_rows: int = 0,
) -> np.ndarray:
    """Coerce *value* to a 2-D float64 array and validate it.

    Parameters
    ----------
    value:
        Anything convertible to a numpy array of shape ``(rows, cols)``.
    name:
        Name used in error messages.
    cols:
        If given, the required number of columns.
    min_rows:
        Minimum number of rows required.

    Returns
    -------
    numpy.ndarray
        A contiguous 2-D float64 array.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if arr.shape[0] < min_rows:
        raise ValueError(
            f"{name} must have at least {min_rows} rows, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return np.ascontiguousarray(arr)


def check_positive(value, name: str) -> float:
    """Validate that *value* is a finite real number strictly greater than 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value}")
    return value


def check_non_negative(value, name: str) -> float:
    """Validate that *value* is a finite real number greater than or equal to 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value}")
    return value


def check_probability(value, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    value = check_non_negative(value, name)
    if value > 1.0:
        raise ValueError(f"{name} must be at most 1, got {value}")
    return value


def check_positive_int(value, name: str) -> int:
    """Validate that *value* is an int (not a bool) greater than or equal to 1.

    The boundary check shared by every count-like argument — ``k`` of a
    KNN query, worker counts, shard counts — so user errors surface as
    one consistent ``ValueError`` message instead of ad-hoc raises in
    each entry point.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value}")
    return value


def check_shard_count(value, name: str = "num_shards") -> int:
    """Validate a shard count: a positive int no larger than ``MAX_SHARDS``."""
    value = check_positive_int(value, name)
    if value > MAX_SHARDS:
        raise ValueError(
            f"{name} must be at most {MAX_SHARDS}, got {value}"
        )
    return value


def check_finite(value, name: str) -> float:
    """Validate that *value* is a finite real number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value
