"""Independent reference semantics for the 53 node functions.

Written from the function table alone, separately from the package
implementation, so the two can be compared case by case. Every rule is
restated here: top-left cropping, wire-through on scalar input to a
matrix-requiring function, matrix-mean scalarization of y, the p weight
and the [-1, 1] constraining of node outputs, and the concatenation cap.

Scalar formulas use math.*, matrix formulas the matching numpy primitives;
both are deterministic, so agreement with the implementation is exact.
"""

from __future__ import annotations

import math

import numpy as np

CAP = 65536  # max elements a concatenation result keeps


def clampfix(v):
    """Constrain a raw value: non-finite elements to 0, the rest to [-1, 1]."""
    if isinstance(v, np.ndarray):
        out = np.minimum(1.0, np.maximum(-1.0, v))
        return np.where(np.isfinite(v), out, 0.0)
    if not math.isfinite(v):
        return 0.0
    return min(1.0, max(-1.0, v))


def mat_mean(m):
    return float(np.sum(m)) / m.size


def as_scalar(v):
    return mat_mean(v) if isinstance(v, np.ndarray) else float(v)


def pos(u):
    """[-1, 1] operand to a [0, 1] position."""
    return (u + 1.0) / 2.0


def idx(u, n):
    return min(int(math.floor(u * n)), n - 1)


def crop2(a, b):
    r = min(a.shape[0], b.shape[0])
    c = min(a.shape[1], b.shape[1])
    return a[:r, :c], b[:r, :c]


def matrix(rows):
    """2-D float64 matrix from nested lists, for building test operands."""
    return np.array(rows, dtype=np.float64)


def row(v):
    if isinstance(v, np.ndarray):
        return v.reshape(-1)
    return np.array([v])


def _broadcast(x, y, scalar_f, array_f):
    xm = isinstance(x, np.ndarray)
    ym = isinstance(y, np.ndarray)
    if xm and ym:
        a, b = crop2(x, y)
        return array_f(a, b)
    if xm or ym:
        return array_f(x, y)
    return scalar_f(x, y)


def _broadcast1(x, scalar_f, array_f):
    return array_f(x) if isinstance(x, np.ndarray) else scalar_f(x)


# Functions whose formula needs a matrix x; a scalar x wires through.
WIRE_ON_SCALAR = {
    "STDDEV", "SKEW", "KURTOSIS", "MEAN", "RANGE", "ROUND", "CEIL", "FLOOR",
    "MAX1", "MIN1",
    "SPLIT_BEFORE", "SPLIT_AFTER", "RANGE_IN", "INDEX_Y", "INDEX_P",
    "VECTORIZE", "FIRST", "LAST", "DIFFERENCES", "AVG_DIFFERENCES",
    "ROTATE", "REVERSE", "SUM", "TRANSPOSE",
    "CONSTVECTORD", "ZEROS", "ONES",
}


def _moments(x):
    n = x.size
    d = x - (float(np.sum(x)) / n)
    d2 = d * d
    return (float(np.sum(d2)) / n,
            float(np.sum(d2 * d)) / n,
            float(np.sum(d2 * d2)) / n)


def _f_add(x, y, p):
    return _broadcast(x, y, lambda a, b: (a + b) / 2.0,
                      lambda a, b: (a + b) / 2.0)


def _f_aminus(x, y, p):
    return _broadcast(x, y, lambda a, b: abs(a - b) / 2.0,
                      lambda a, b: np.abs(a - b) / 2.0)


def _f_mult(x, y, p):
    return _broadcast(x, y, lambda a, b: a * b, lambda a, b: a * b)


def _f_inv(x, y, p):
    if isinstance(x, np.ndarray):
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / x
    if x == 0.0:
        return math.inf
    return 1.0 / x


def _f_sqrt(x, y, p):
    return _broadcast1(x, lambda a: math.sqrt(abs(a)),
                       lambda m: np.sqrt(np.abs(m)))


def _f_cpow(x, y, p):
    return _broadcast1(x, lambda a: math.pow(abs(a), p + 1.0),
                       lambda m: np.power(np.abs(m), p + 1.0))


def _f_ypow(x, y, p):
    return _broadcast(x, y, lambda a, b: math.pow(abs(a), abs(b)),
                      lambda a, b: np.power(np.abs(a), np.abs(b)))


def _f_expx(x, y, p):
    den = math.e - 1.0
    return _broadcast1(x, lambda a: (math.exp(a) - 1.0) / den,
                       lambda m: (np.exp(m) - 1.0) / den)


def _f_sqrtxy(x, y, p):
    rt2 = math.sqrt(2.0)
    return _broadcast(x, y,
                      lambda a, b: math.sqrt(a * a + b * b) / rt2,
                      lambda a, b: np.sqrt(a * a + b * b) / rt2)


def _f_stddev(x, y, p):
    n = x.size
    if n < 2:
        return math.nan
    d = x - (float(np.sum(x)) / n)
    return math.sqrt(float(np.sum(d * d)) / (n - 1))


def _f_skew(x, y, p):
    m2, m3, _ = _moments(x)
    den = math.pow(m2, 1.5)  # may underflow to 0 for tiny nonzero m2
    return math.nan if den == 0.0 else m3 / den


def _f_kurtosis(x, y, p):
    m2, _, m4 = _moments(x)
    den = m2 * m2
    return math.nan if den == 0.0 else m4 / den - 3.0


def _f_split_before(x, y, p):
    flat = x.reshape(1, -1)
    return flat[:, : idx(pos(p), flat.shape[1]) + 1]


def _f_split_after(x, y, p):
    flat = x.reshape(1, -1)
    return flat[:, idx(pos(p), flat.shape[1]):]


def _f_range_in(x, y, p):
    flat = x.reshape(1, -1)
    n = flat.shape[1]
    lo = idx(pos(as_scalar(y)), n)
    hi = idx(pos(p), n)
    if lo > hi:
        lo, hi = hi, lo
    return flat[:, lo : hi + 1]


def _f_differences(x, y, p):
    if x.size < 2:
        return 0.0
    return np.diff(x.reshape(1, -1))


def _f_avg_differences(x, y, p):
    if x.size < 2:
        return 0.0
    d = np.diff(x.reshape(-1))
    return float(np.sum(d)) / d.size


def _f_rotate(x, y, p):
    return np.roll(x.reshape(-1), math.floor(p * x.size)).reshape(x.shape)


def _f_push_back(x, y, p):
    return np.concatenate([row(x), row(y)])[:CAP].reshape(1, -1)


def _f_push_front(x, y, p):
    return np.concatenate([row(y), row(x)])[:CAP].reshape(1, -1)


def _f_set(x, y, p):
    xm = isinstance(x, np.ndarray)
    ym = isinstance(y, np.ndarray)
    if not xm and ym:
        return np.full(y.shape, x)
    if xm and not ym:
        return np.full(x.shape, y)
    return x


REF = {
    "ADD": _f_add,
    "AMINUS": _f_aminus,
    "MULT": _f_mult,
    "CMULT": lambda x, y, p: x * p,
    "INV": _f_inv,
    "ABS": lambda x, y, p: np.abs(x) if isinstance(x, np.ndarray) else abs(x),
    "SQRT": _f_sqrt,
    "CPOW": _f_cpow,
    "YPOW": _f_ypow,
    "EXPX": _f_expx,
    "SINX": lambda x, y, p: _broadcast1(x, math.sin, np.sin),
    "SQRTXY": _f_sqrtxy,
    "ACOS": lambda x, y, p: _broadcast1(
        x, lambda a: math.acos(a) / math.pi, lambda m: np.arccos(m) / math.pi),
    "ASIN": lambda x, y, p: _broadcast1(
        x, lambda a: 2.0 * math.asin(a) / math.pi,
        lambda m: 2.0 * np.arcsin(m) / math.pi),
    "ATAN": lambda x, y, p: _broadcast1(
        x, lambda a: 4.0 * math.atan(a) / math.pi,
        lambda m: 4.0 * np.arctan(m) / math.pi),
    "STDDEV": _f_stddev,
    "SKEW": _f_skew,
    "KURTOSIS": _f_kurtosis,
    "MEAN": lambda x, y, p: mat_mean(x),
    "RANGE": lambda x, y, p: float(np.max(x)) - float(np.min(x)) - 1.0,
    "ROUND": lambda x, y, p: np.rint(x),
    "CEIL": lambda x, y, p: np.ceil(x),
    "FLOOR": lambda x, y, p: np.floor(x),
    "MAX1": lambda x, y, p: float(np.max(x)),
    "MIN1": lambda x, y, p: float(np.min(x)),
    "LT": lambda x, y, p: _broadcast(
        x, y, lambda a, b: 1.0 if a < b else 0.0,
        lambda a, b: np.less(a, b).astype(float)),
    "GT": lambda x, y, p: _broadcast(
        x, y, lambda a, b: 1.0 if a > b else 0.0,
        lambda a, b: np.greater(a, b).astype(float)),
    "MAX2": lambda x, y, p: _broadcast(x, y, lambda a, b: max(a, b),
                                       np.maximum),
    "MIN2": lambda x, y, p: _broadcast(x, y, lambda a, b: min(a, b),
                                       np.minimum),
    "SPLIT_BEFORE": _f_split_before,
    "SPLIT_AFTER": _f_split_after,
    "RANGE_IN": _f_range_in,
    "INDEX_Y": lambda x, y, p: float(
        x.reshape(-1)[idx(pos(as_scalar(y)), x.size)]),
    "INDEX_P": lambda x, y, p: float(x.reshape(-1)[idx(pos(p), x.size)]),
    "VECTORIZE": lambda x, y, p: x.reshape(1, -1),
    "FIRST": lambda x, y, p: float(x.reshape(-1)[0]),
    "LAST": lambda x, y, p: float(x.reshape(-1)[-1]),
    "DIFFERENCES": _f_differences,
    "AVG_DIFFERENCES": _f_avg_differences,
    "ROTATE": _f_rotate,
    "REVERSE": lambda x, y, p: x.reshape(-1)[::-1].reshape(x.shape),
    "PUSH_BACK": _f_push_back,
    "PUSH_FRONT": _f_push_front,
    "SET": _f_set,
    "SUM": lambda x, y, p: float(np.sum(x)),
    "TRANSPOSE": lambda x, y, p: x.T,
    "VECFROMDOUBLE": lambda x, y, p: (
        x if isinstance(x, np.ndarray) else np.array([[float(x)]])),
    "YWIRE": lambda x, y, p: y,
    "NOP": lambda x, y, p: x,
    "CONST": lambda x, y, p: p,
    "CONSTVECTORD": lambda x, y, p: np.full(x.shape, p),
    "ZEROS": lambda x, y, p: np.zeros(x.shape),
    "ONES": lambda x, y, p: np.ones(x.shape),
}

assert len(REF) == 53


def ref_node_output(name, x, y, p):
    """Full node semantics: wire rule, formula, p weight, constraining."""
    if name in WIRE_ON_SCALAR and not isinstance(x, np.ndarray):
        raw = x
    else:
        raw = REF[name](x, y, p)
    # p = 0 times an inf element (INV of a zero) is NaN, which clampfix zeroes
    with np.errstate(invalid="ignore"):
        return clampfix(p * raw)


def same_value(a, b) -> bool:
    """Exact equality with matching scalar/matrix kind and shape."""
    am = isinstance(a, np.ndarray)
    bm = isinstance(b, np.ndarray)
    if am != bm:
        return False
    if am:
        return a.shape == b.shape and bool(np.all(a == b))
    return a == b or (math.isnan(a) and math.isnan(b))
