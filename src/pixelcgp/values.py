"""Mixed scalar/matrix value model.

A Value is either a Python float or a 2-D float64 numpy array. All stored
values are "constrained": every element is finite and lies in [-1, 1].
Matrices are never empty (rows >= 1 and cols >= 1). Row-major element order
is the single convention for every flattening and indexing operation.

Values are treated as immutable: no function in this package mutates a
matrix it received or handed out. Writes go only into arrays allocated in
the same functions.apply call: the kernels' out= targets, the row _push
fills, and a raw result that constrain_product scales in place only when
it owns its memory and is neither operand. So every matrix node output is
an array of its own, never a view.

Importing this module sets glibc's malloc thresholds for the whole process,
once. Node evaluation and the bridge's plane conversion allocate fresh
210x160 planes (269 KB) and capped PUSH rows (524 KB) on every frame. By
default glibc serves such blocks by mmap, or returns them to the system
once the heap top holds more than its trim threshold, so their pages fault
in again on most allocations. mallopt raises the mmap threshold to
MMAP_THRESHOLD and the trim threshold to TRIM_THRESHOLD, so these arrays
come from memory the process already holds. Where the C library has no
working mallopt (macOS, Windows; musl's is a stub), nothing is set.
"""

from __future__ import annotations

import ctypes
import math
from typing import Union

import numpy as np

Value = Union[float, np.ndarray]

# glibc <malloc.h> parameter numbers, and the values set for them. The mmap
# threshold lies above the largest per-frame array (a 524 KB PUSH row). The
# trim threshold is the least power of two at which the benchmark's
# pixel_eval blocks stop faulting freed heap in again (glibc 2.36; the sweep
# is in CHANGES.md). Heap freed up to TRIM_THRESHOLD stays resident.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 2 << 20
TRIM_THRESHOLD = 16 << 20


def keep_large_arrays_in_heap(load=ctypes.CDLL) -> bool:
    """Set the process's malloc thresholds; False where mallopt is missing
    or refuses them.

    load opens the C library the process already links (load(None)).
    """
    try:
        mallopt = load(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False   # TypeError: Windows has no process-wide CDLL(None)
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


keep_large_arrays_in_heap()


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
    operand). A matrix raw that owns its memory (raw.base is None) and is
    neither x nor y is a temporary handed over by the caller: it is scaled
    (and clamped) in place and returned. Any other matrix raw, an operand or
    a view of anything, goes into one new array, which owns its memory too.

    closed says that a matrix raw is already finite and in [-1, 1]. Then so
    is p * raw, as |p| <= 1 and rounding is monotone, and the clamp would
    change no bit (clip is the identity there, -0.0 included), so it is
    skipped. Otherwise NaN and inf elements of the product are zeroed before
    the clamp would turn inf finite. A scalar raw is clamped either way.
    """
    if isinstance(raw, np.ndarray):
        own = raw.base is None and raw is not x and raw is not y
        if closed:
            return np.multiply(p, raw, out=raw if own else None)
        # p = 0 times an inf element is NaN, zeroed below like any other;
        # errstate costs about a 12x12 multiply, so closed raws skip it
        with np.errstate(invalid="ignore"):
            out = np.multiply(p, raw, out=raw if own else None)
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
        # np.sum's own reduction, without its Python wrapper
        return float(np.add.reduce(v, None)) / v.size
    return float(v)


def crop_to_common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Crop both matrices to their common top-left (min rows, min cols) block."""
    if a.shape == b.shape:
        return a, b
    rows = min(a.shape[0], b.shape[0])
    cols = min(a.shape[1], b.shape[1])
    return a[:rows, :cols], b[:rows, :cols]


def index_from_unit(u: float, length: int) -> int:
    """Map u in [0, 1] to a valid index: floor(u * length), clamped at length-1."""
    return min(int(math.floor(u * length)), length - 1)
