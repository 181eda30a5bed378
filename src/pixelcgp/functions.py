"""The 53-entry mixed-type node function set.

Each row of _TABLE names a function, the operands it reads ("xy", "x", "y"
or none; decode follows only those), its kernel, and whether it needs a
matrix x. Every function accepts any combination of scalar and matrix operands.
Broadcasting functions apply their scalar formula element-wise (two-matrix
operands are first cropped to their common top-left block). Non-broadcasting
functions that require matrix input act as a wire when x is scalar: the
scalar passes through untouched by the formula. Where a scalar y is needed
but a matrix arrives, the matrix mean is used instead.

A node's output is always constrain(p * f(x, y, p)): the parameter weights
the function result element-wise and the result is clamped to [-1, 1] with
non-finite elements replaced by 0. Division by zero, undefined moments of
constant vectors and similar hazards are absorbed by that constraining step;
apply() never raises. apply() never mutates its operands either: it writes
only into arrays it allocated itself, so a node's output can be another
node's operand without a defensive copy.

The clamp runs only where it can change a bit. Operands and p lie in
[-1, 1], and on such operands a closed function (FunctionSpec.closed) keeps
every matrix result finite and in [-1, 1], so apply only scales its matrix
results by p. Every output stays bit-equal to constrain(p * f(x, y, p)).

Scalar formulas use math.*; matrix formulas use the corresponding numpy
ufuncs, and sums use np.add.reduce(x, None), the reduction np.sum(x) runs.
Both choices are deterministic, so any reimplementation using the same
primitives (np.sum included) reproduces results bit-exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .values import (Value, constrain_product, crop_to_common, index_from_unit,
                     scalar_of)

_SQRT2 = math.sqrt(2.0)
_EXP_DEN = math.e - 1.0


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    impl: Callable[[Value, Value, float], Value] = field(repr=False)
    needs_matrix: bool   # wire-through when x is scalar
    # on operands and p that are finite and in [-1, 1], every matrix result
    # is finite and in [-1, 1], so apply only scales it by p (see _CLOSED)
    closed: bool
    trace_x: bool   # the function reads x, so decode walks to it
    trace_y: bool   # the function reads y


def _unit(g: float) -> float:
    """Map a [-1, 1] gene/operand to a [0, 1] fractional position."""
    return (g + 1.0) / 2.0


def _flat(m: np.ndarray) -> np.ndarray:
    return m.reshape(1, -1)


def _as_row(v: Value) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v.reshape(-1)
    return np.array([v], dtype=np.float64)


def _bin(sf, mf):
    """Broadcasting binary function: sf on two scalars, mf otherwise.

    Two matrix operands are first cropped to their common top-left block.
    """
    def impl(x, y, p):
        xm = isinstance(x, np.ndarray)
        ym = isinstance(y, np.ndarray)
        if xm and ym:
            return mf(*crop_to_common(x, y))
        if xm or ym:
            return mf(x, y)
        return sf(x, y)
    return impl


def _un(sf, mf):
    """Broadcasting unary function: sf on a scalar, mf on a matrix."""
    def impl(x, y, p):
        return mf(x) if isinstance(x, np.ndarray) else sf(x)
    return impl


# --- mathematical -----------------------------------------------------------

# Matrix kernels allocate their result once and finish it in place with
# out=, applying the same ufuncs in the same order as the plain expression
# in their comment, so results are bit-identical to it. Operands of a
# broadcasting kernel are two equal-shape matrices or a matrix and a scalar.

def _add_m(a, b):
    # (a + b) / 2
    out = np.add(a, b)
    return np.divide(out, 2.0, out=out)


def _aminus_m(a, b):
    # abs(a - b) / 2
    out = np.subtract(a, b)
    np.abs(out, out=out)
    return np.divide(out, 2.0, out=out)


def _ypow_m(a, b):
    # abs(a) ** abs(b)
    a, b = np.abs(a), np.abs(b)
    return np.power(a, b, out=a if isinstance(a, np.ndarray) else b)


def _expx_m(m):
    # (exp(m) - 1) / (e - 1)
    out = np.exp(m)
    np.subtract(out, 1.0, out=out)
    return np.divide(out, _EXP_DEN, out=out)


def _sqrtxy_m(a, b):
    # sqrt(a * a + b * b) / sqrt(2)
    aa, bb = np.multiply(a, a), np.multiply(b, b)
    out = aa if isinstance(aa, np.ndarray) else bb
    np.add(aa, bb, out=out)
    np.sqrt(out, out=out)
    return np.divide(out, _SQRT2, out=out)


def _acos_m(m):
    # arccos(m) / pi
    out = np.arccos(m)
    return np.divide(out, math.pi, out=out)


def _asin_m(m):
    # 2 * arcsin(m) / pi
    out = np.arcsin(m)
    np.multiply(2.0, out, out=out)
    return np.divide(out, math.pi, out=out)


def _atan_m(m):
    # 4 * arctan(m) / pi
    out = np.arctan(m)
    np.multiply(4.0, out, out=out)
    return np.divide(out, math.pi, out=out)


_add = _bin(lambda a, b: (a + b) / 2.0, _add_m)
_aminus = _bin(lambda a, b: abs(a - b) / 2.0, _aminus_m)
_mult = _bin(operator.mul, operator.mul)


def _cmult(x, y, p):
    return x * p


def _inv_scalar(a: float) -> float:
    if a == 0.0:
        return math.inf
    return 1.0 / a


def _inv(x, y, p):
    if isinstance(x, np.ndarray):
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / x
    return _inv_scalar(x)


def _abs(x, y, p):
    return np.abs(x) if isinstance(x, np.ndarray) else abs(x)


def _sqrt(x, y, p):
    if isinstance(x, np.ndarray):
        out = np.abs(x)
        return np.sqrt(out, out=out)
    return math.sqrt(abs(x))


def _cpow(x, y, p):
    if isinstance(x, np.ndarray):
        out = np.abs(x)
        return np.power(out, p + 1.0, out=out)
    return math.pow(abs(x), p + 1.0)


_ypow = _bin(lambda a, b: math.pow(abs(a), abs(b)), _ypow_m)
_expx = _un(lambda e: (math.exp(e) - 1.0) / _EXP_DEN, _expx_m)
_sinx = _un(math.sin, np.sin)
_sqrtxy = _bin(lambda a, b: math.sqrt(a * a + b * b) / _SQRT2, _sqrtxy_m)
_acos = _un(lambda e: math.acos(e) / math.pi, _acos_m)
_asin = _un(lambda e: 2.0 * math.asin(e) / math.pi, _asin_m)
_atan = _un(lambda e: 4.0 * math.atan(e) / math.pi, _atan_m)


# --- statistical (matrix-requiring, wire on scalar x) -----------------------

# Sums are np.add.reduce(a, None), the reduction np.sum(a) runs for an
# ndarray after microseconds of Python dispatch; scalar_of is the mean.

def _stddev(x, y, p):
    n = x.size
    if n < 2:
        return math.nan
    d = x - scalar_of(x)
    d2 = np.multiply(d, d, out=d)
    return math.sqrt(float(np.add.reduce(d2, None)) / (n - 1))


def _central_moments(x: np.ndarray) -> tuple[float, float, float]:
    n = x.size
    d = x - scalar_of(x)
    d2 = d * d
    m2 = float(np.add.reduce(d2, None)) / n
    d3 = np.multiply(d2, d, out=d)      # overwrites d
    m3 = float(np.add.reduce(d3, None)) / n
    d4 = np.multiply(d2, d2, out=d2)    # overwrites d2
    m4 = float(np.add.reduce(d4, None)) / n
    return m2, m3, m4


def _skew(x, y, p):
    m2, m3, _ = _central_moments(x)
    den = math.pow(m2, 1.5)
    # den can underflow to 0 for tiny nonzero m2; NaN constrains to 0 either way
    if den == 0.0:
        return math.nan
    return m3 / den


def _kurtosis(x, y, p):
    m2, _, m4 = _central_moments(x)
    den = m2 * m2
    if den == 0.0:
        return math.nan
    return m4 / den - 3.0


def _mean(x, y, p):
    return scalar_of(x)


def _range(x, y, p):
    return float(np.max(x)) - float(np.min(x)) - 1.0


def _round(x, y, p):
    return np.rint(x)


def _ceil(x, y, p):
    return np.ceil(x)


def _floor(x, y, p):
    return np.floor(x)


def _max1(x, y, p):
    return float(np.max(x))


def _min1(x, y, p):
    return float(np.min(x))


# --- comparison -------------------------------------------------------------

def _shape(a, b) -> tuple:
    return a.shape if isinstance(a, np.ndarray) else b.shape


def _lt_m(a, b):
    # float(a < b), the bool result written straight into float64
    return np.less(a, b, out=np.empty(_shape(a, b)))


def _gt_m(a, b):
    # float(a > b)
    return np.greater(a, b, out=np.empty(_shape(a, b)))


_lt = _bin(lambda a, b: 1.0 if a < b else 0.0, _lt_m)
_gt = _bin(lambda a, b: 1.0 if a > b else 0.0, _gt_m)
_max2 = _bin(max, np.maximum)
_min2 = _bin(min, np.minimum)


# --- list processing (matrix-requiring, wire on scalar x) -------------------

def _split_before(x, y, p):
    flat = _flat(x)
    i = index_from_unit(_unit(p), flat.shape[1])
    return flat[:, : i + 1]


def _split_after(x, y, p):
    flat = _flat(x)
    i = index_from_unit(_unit(p), flat.shape[1])
    return flat[:, i:]


def _range_in(x, y, p):
    flat = _flat(x)
    n = flat.shape[1]
    lo = index_from_unit(_unit(scalar_of(y)), n)
    hi = index_from_unit(_unit(p), n)
    if lo > hi:
        lo, hi = hi, lo
    return flat[:, lo : hi + 1]


def _index_y(x, y, p):
    flat = x.reshape(-1)
    return float(flat[index_from_unit(_unit(scalar_of(y)), flat.shape[0])])


def _index_p(x, y, p):
    flat = x.reshape(-1)
    return float(flat[index_from_unit(_unit(p), flat.shape[0])])


def _vectorize(x, y, p):
    return _flat(x)


def _first(x, y, p):
    return float(x.reshape(-1)[0])


def _last(x, y, p):
    return float(x.reshape(-1)[-1])


def _differences(x, y, p):
    if x.size < 2:
        return 0.0
    return np.diff(_flat(x))


def _avg_differences(x, y, p):
    if x.size < 2:
        return 0.0
    diffs = np.diff(x.reshape(-1))
    return float(np.add.reduce(diffs, None)) / diffs.size


def _rotate(x, y, p):
    """np.roll(x, floor(p * size)) into one array of its own: np.roll's
    result is a reshaped view, which apply would copy once more."""
    flat = x.reshape(-1)
    n = flat.size
    k = math.floor(p * n) % n
    out = np.empty(x.shape)
    dst = out.reshape(-1)
    dst[k:] = flat[: n - k]
    dst[:k] = flat[n - k :]
    return out


def _reverse(x, y, p):
    return x[::-1, ::-1]


# Concatenation is the one function that can grow state without bound
# (a PUSH_BACK node reading its own output doubles every step), so its
# result keeps at most this many leading elements.
MAX_PUSH_ELEMENTS = 65536


def _push(first: Value, second: Value) -> np.ndarray:
    """first's elements, then second's, capped: one row holding only the
    kept elements, so no longer concatenation is built and cut."""
    a, b = _as_row(first), _as_row(second)
    na = min(a.size, MAX_PUSH_ELEMENTS)
    nb = min(b.size, MAX_PUSH_ELEMENTS - na)
    out = np.empty((1, na + nb))
    out[0, :na] = a[:na]
    out[0, na:] = b[:nb]
    return out


def _push_back(x, y, p):
    return _push(x, y)


def _push_front(x, y, p):
    return _push(y, x)


def _set(x, y, p):
    xm = isinstance(x, np.ndarray)
    ym = isinstance(y, np.ndarray)
    if not xm and ym:
        return np.full(y.shape, x, dtype=np.float64)
    if xm and not ym:
        return np.full(x.shape, y, dtype=np.float64)
    return x


def _sum(x, y, p):
    return float(np.add.reduce(x, None))


def _transpose(x, y, p):
    return x.T


def _vecfromdouble(x, y, p):
    if isinstance(x, np.ndarray):
        return x
    return np.array([[x]], dtype=np.float64)


# --- miscellaneous ----------------------------------------------------------

def _ywire(x, y, p):
    return y


def _nop(x, y, p):
    return x


def _const(x, y, p):
    return p


def _constvectord(x, y, p):
    return np.full(x.shape, p, dtype=np.float64)


def _zeros(x, y, p):
    return np.zeros(x.shape, dtype=np.float64)


def _ones(x, y, p):
    return np.ones(x.shape, dtype=np.float64)


# --- closure ----------------------------------------------------------------

# Each closed function's bound, for operands x, y and p that are finite and
# in [-1, 1]. Rounding is monotone and +-1.0 is a double, so an exact value
# within [-1, 1] rounds (correctly or faithfully) into [-1, 1].
_CLOSED = {
    # by construction: operand elements, order statistics, 0/1 flags, the
    # integers -1, 0 and 1, fills with p, 0 or 1, and (a + b) / 2,
    # |a - b| / 2, a * b, x * p and |x|, whose exact values lie in [-1, 1]
    "NOP", "YWIRE", "VECFROMDOUBLE", "TRANSPOSE", "VECTORIZE", "SPLIT_BEFORE",
    "SPLIT_AFTER", "RANGE_IN", "ROTATE", "REVERSE", "PUSH_BACK", "PUSH_FRONT",
    "SET", "MAX2", "MIN2", "LT", "GT", "ROUND", "CEIL", "FLOOR",
    "CONSTVECTORD", "ZEROS", "ONES", "ADD", "AMINUS", "MULT", "CMULT", "ABS",
    # IEEE rules: sqrt is correctly rounded, so sqrt(|x|) <= 1, and
    # sqrt(a * a + b * b) <= sqrt(2.0), the very double _SQRT2 divides by
    "SQRT", "SQRTXY",
    # faithful rounding: exact |x| ** (p + 1) and |a| ** |b| are <= 1, and
    # pow(1, e) == 1; |sin x| <= sin 1 < 0.85
    "CPOW", "YPOW", "SINX",
}

# Endpoint functions. Only the endpoint operands reach the constants e, pi,
# pi / 2 and pi / 4 exactly; their doubles lie below them, so a faithful
# kernel may round up there. From the next operand inwards, 1 - 2**-53, the
# exact value lies below the double it is divided by. So each is closed on a
# platform whose kernel keeps both operands within [-1, 1], which is checked
# once, here, in a 1x1 matrix and in SIMD body, tail and strided positions.
_ENDPOINTS = {"EXPX": (_expx_m, (1.0,)), "ACOS": (_acos_m, (-1.0,)),
              "ASIN": (_asin_m, (1.0, -1.0)), "ATAN": (_atan_m, (1.0, -1.0))}


def _kernel_stays_closed(kernel, endpoints) -> bool:
    column = np.array([[v] for e in endpoints
                       for v in (e, e * (1.0 - 2.0 ** -53))])
    # one row per operand: contiguous, every operand sits in the SIMD body;
    # strided, each row is a loop of its own, with a body and a tail
    wide = column * np.ones(67)
    cases = [column[i : i + 1] for i in range(len(column))]  # 1x1 each
    cases += [wide, wide[:, ::2]]
    return all((np.abs(kernel(m)) <= 1.0).all() for m in cases)  # NaN fails


_CLOSED |= {name for name, (kernel, endpoints) in _ENDPOINTS.items()
            if _kernel_stays_closed(kernel, endpoints)}


# function_from_gene picks a row by its position
_TABLE = [
    # mathematical
    ("ADD", "xy", _add, False),
    ("AMINUS", "xy", _aminus, False),
    ("MULT", "xy", _mult, False),
    ("CMULT", "x", _cmult, False),
    ("INV", "x", _inv, False),
    ("ABS", "x", _abs, False),
    ("SQRT", "x", _sqrt, False),
    ("CPOW", "x", _cpow, False),
    ("YPOW", "xy", _ypow, False),
    ("EXPX", "x", _expx, False),
    ("SINX", "x", _sinx, False),
    ("SQRTXY", "xy", _sqrtxy, False),
    ("ACOS", "x", _acos, False),
    ("ASIN", "x", _asin, False),
    ("ATAN", "x", _atan, False),
    # statistical
    ("STDDEV", "x", _stddev, True),
    ("SKEW", "x", _skew, True),
    ("KURTOSIS", "x", _kurtosis, True),
    ("MEAN", "x", _mean, True),
    ("RANGE", "x", _range, True),
    ("ROUND", "x", _round, True),
    ("CEIL", "x", _ceil, True),
    ("FLOOR", "x", _floor, True),
    ("MAX1", "x", _max1, True),
    ("MIN1", "x", _min1, True),
    # comparison
    ("LT", "xy", _lt, False),
    ("GT", "xy", _gt, False),
    ("MAX2", "xy", _max2, False),
    ("MIN2", "xy", _min2, False),
    # list processing
    ("SPLIT_BEFORE", "x", _split_before, True),
    ("SPLIT_AFTER", "x", _split_after, True),
    ("RANGE_IN", "xy", _range_in, True),
    ("INDEX_Y", "xy", _index_y, True),
    ("INDEX_P", "x", _index_p, True),
    ("VECTORIZE", "x", _vectorize, True),
    ("FIRST", "x", _first, True),
    ("LAST", "x", _last, True),
    ("DIFFERENCES", "x", _differences, True),
    ("AVG_DIFFERENCES", "x", _avg_differences, True),
    ("ROTATE", "x", _rotate, True),
    ("REVERSE", "x", _reverse, True),
    ("PUSH_BACK", "xy", _push_back, False),
    ("PUSH_FRONT", "xy", _push_front, False),
    ("SET", "xy", _set, False),
    ("SUM", "x", _sum, True),
    ("TRANSPOSE", "x", _transpose, True),
    ("VECFROMDOUBLE", "x", _vecfromdouble, False),
    # miscellaneous
    ("YWIRE", "y", _ywire, False),
    ("NOP", "x", _nop, False),
    ("CONST", "", _const, False),
    ("CONSTVECTORD", "x", _constvectord, True),
    ("ZEROS", "x", _zeros, True),
    ("ONES", "x", _ones, True),
]

FUNCTIONS: list[FunctionSpec] = [
    FunctionSpec(name, impl, needs_matrix, closed=name in _CLOSED,
                 trace_x="x" in reads, trace_y="y" in reads)
    for name, reads, impl, needs_matrix in _TABLE
]

N_FUNCTIONS = len(FUNCTIONS)
assert N_FUNCTIONS == 53

FUNCTIONS_BY_NAME = {f.name: f for f in FUNCTIONS}


def function_from_gene(f_gene: float) -> FunctionSpec:
    """Decode a [0, 1) function gene to its table entry."""
    return FUNCTIONS[int(f_gene * N_FUNCTIONS)]


def apply(spec: FunctionSpec, x: Value, y: Value, p: float) -> Value:
    """Evaluate a node function: constrain(p * f(x, y, p)), never raising.

    x and y are never mutated. A matrix result is an array of its own that
    apply allocated: the kernel's fresh output, scaled (and, unless
    spec.closed, clamped) in place, or one new array when the kernel
    returned an operand or a view.
    """
    if spec.needs_matrix and not isinstance(x, np.ndarray):
        raw = x  # wire: scalar passes through (the p weight still applies)
    else:
        raw = spec.impl(x, y, p)
    return constrain_product(p, raw, x, y, spec.closed)
