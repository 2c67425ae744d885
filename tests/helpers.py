"""Dense helpers shared by the tests."""

import math

import numpy as np

from headkv.errors import ShapeError
from headkv.tensor_ops import softmax_rows


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d)) v. Bidirectional, no mask: the single-head
    dense form that packed attention and the row-loop oracle are checked against."""
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("attention expects 2-D q, k, v")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q cols {q.shape[1]} != k cols {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k rows {k.shape[0]} != v rows {v.shape[0]}")
    scores = q @ k.T / math.sqrt(k.shape[1])
    return softmax_rows(scores) @ v
