"""Mixed scalar/matrix value model.

A Value is either a Python float or a 2-D float64 numpy array. All stored
values are "constrained": every element is finite and lies in [-1, 1].
Matrices are never empty (rows >= 1 and cols >= 1). Row-major element order
is the single convention for every flattening and indexing operation.

Values are treated as immutable: no function in this package mutates a
matrix it received or handed out. The one in-place write, in
constrain_product, goes only into an array that shares no memory with any
value passed to it, i.e. a temporary the caller allocated itself.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

Value = Union[float, np.ndarray]


def constrain(v: Value) -> Value:
    """Replace non-finite elements with 0, clamp the rest to [-1, 1].

    v itself is left unchanged; a matrix result is a fresh array.
    """
    if not isinstance(v, np.ndarray):
        v = float(v)
    return constrain_product(1.0, v, v, None)


def constrain_product(p: float, raw: Value, x: Value, y: Value,
                      closed: bool = False) -> Value:
    """constrain(p * raw) without mutating the operands x and y.

    x and y are the values raw was computed from (None stands for no
    operand). A matrix raw that shares no memory with either is a temporary
    handed over by the caller: it is scaled (and clamped) in place and
    returned. Otherwise the product goes into one fresh array.

    An array that owns its memory and is neither x nor y was not taken from
    them (raw is only ever fresh, an operand, or a view of one), so only
    views are checked with np.may_share_memory, a call that costs about as
    much as a 12x12 ufunc.

    closed says that a matrix raw is already finite and in [-1, 1]. Then so
    is p * raw, as |p| <= 1 and rounding is monotone, and the clamp would
    change no bit (clip is the identity there, -0.0 included), so it is
    skipped. Otherwise NaN and inf elements of the product are zeroed before
    the clamp would turn inf finite. A scalar raw is clamped either way.
    """
    if isinstance(raw, np.ndarray):
        if raw.base is None:
            shared = raw is x or raw is y
        else:
            shared = ((isinstance(x, np.ndarray) and np.may_share_memory(raw, x))
                      or (isinstance(y, np.ndarray)
                          and np.may_share_memory(raw, y)))
        if shared:
            out = p * raw
        else:
            out = np.multiply(p, raw, out=raw)
        if closed:
            return out
        out[~np.isfinite(out)] = 0.0
        # the method form: np.clip adds microseconds of Python dispatch,
        # which small (12x12) matrices notice
        return out.clip(-1.0, 1.0, out=out)
    scaled = p * raw
    if not math.isfinite(scaled):
        return 0.0
    return min(1.0, max(-1.0, scaled))


def scalar_of(v: Value) -> float:
    """Scalar view of a value: identity on scalars, element mean on matrices."""
    if isinstance(v, np.ndarray):
        return float(np.sum(v)) / v.size
    return float(v)


def crop_to_common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Crop both matrices to their common top-left (min rows, min cols) block."""
    rows = min(a.shape[0], b.shape[0])
    cols = min(a.shape[1], b.shape[1])
    return a[:rows, :cols], b[:rows, :cols]


def index_from_unit(u: float, length: int) -> int:
    """Map u in [0, 1] to a valid index: floor(u * length), clamped at length-1."""
    return min(int(math.floor(u * length)), length - 1)
