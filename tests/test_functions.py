import math
import warnings

import numpy as np
import pytest

import oracle
from oracle import matrix
from pixelcgp.functions import (FUNCTIONS, FUNCTIONS_BY_NAME,
                                MAX_PUSH_ELEMENTS, N_FUNCTIONS, apply,
                                function_from_gene)

EXPECTED_ORDER = [
    "ADD", "AMINUS", "MULT", "CMULT", "INV", "ABS", "SQRT", "CPOW", "YPOW",
    "EXPX", "SINX", "SQRTXY", "ACOS", "ASIN", "ATAN",
    "STDDEV", "SKEW", "KURTOSIS", "MEAN", "RANGE", "ROUND", "CEIL", "FLOOR",
    "MAX1", "MIN1",
    "LT", "GT", "MAX2", "MIN2",
    "SPLIT_BEFORE", "SPLIT_AFTER", "RANGE_IN", "INDEX_Y", "INDEX_P",
    "VECTORIZE", "FIRST", "LAST", "DIFFERENCES", "AVG_DIFFERENCES", "ROTATE",
    "REVERSE", "PUSH_BACK", "PUSH_FRONT", "SET", "SUM", "TRANSPOSE",
    "VECFROMDOUBLE",
    "YWIRE", "NOP", "CONST", "CONSTVECTORD", "ZEROS", "ONES",
]


def test_table_order_and_ids():
    assert N_FUNCTIONS == 53
    assert [f.name for f in FUNCTIONS] == EXPECTED_ORDER
    # a function gene picks a row by its position
    for i, f in enumerate(FUNCTIONS):
        assert function_from_gene((i + 0.5) / N_FUNCTIONS) is f


def test_function_from_gene():
    assert function_from_gene(0.0).name == "ADD"
    assert function_from_gene(0.9999999).name == "ONES"
    # gene 0.5 -> floor(26.5) = 26 -> GT
    assert function_from_gene(0.5).name == "GT"


def _f(name):
    return FUNCTIONS_BY_NAME[name]


def test_add_formula():
    assert _f("ADD").impl(0.4, 0.8, 0.0) == (0.4 + 0.8) / 2.0


def test_sqrtxy_normalization():
    assert _f("SQRTXY").impl(1.0, 1.0, 0.0) == 1.0
    assert _f("SQRTXY").impl(0.0, 0.0, 0.0) == 0.0


def test_inv_zero_becomes_zero_output():
    assert _f("INV").impl(0.0, 0.0, 0.0) == math.inf
    assert apply(_f("INV"), 0.0, 0.0, 1.0) == 0.0
    assert apply(_f("INV"), 0.5, 0.0, 0.5) == 1.0  # 0.5 * 2 clamps at 1


def test_inv_of_zero_matrix_at_zero_weight_is_quiet():
    # p * inf is NaN at p = 0; it is zeroed, and used to warn on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply(_f("INV"), np.zeros((2, 2)), 0.0, 0.0)
    assert np.array_equal(out, np.zeros((2, 2)))


def test_matrix_wire_on_scalar():
    # STDDEV needs a matrix; scalar x passes through but the weight applies
    assert apply(_f("STDDEV"), 0.3, 0.0, 1.0) == 0.3
    assert apply(_f("STDDEV"), 0.3, 0.0, -0.5) == -0.15
    assert apply(_f("SUM"), -0.4, 0.0, 0.25) == -0.1


def test_mean_and_sum():
    m = matrix([[0.2, 0.4], [0.6, 0.8]])
    assert apply(_f("MEAN"), m, 0.0, 1.0) == 0.5
    assert apply(_f("SUM"), m, 0.0, 0.25) == 0.5


def test_reverse():
    m = matrix([[0.1, 0.2], [0.3, 0.4]])
    out = apply(_f("REVERSE"), m, 0.0, 1.0)
    assert np.array_equal(out, [[0.4, 0.3], [0.2, 0.1]])


@pytest.mark.parametrize("shape", [(1, 1), (12, 12), (210, 160)])
def test_rotate_rolls_into_one_array_of_its_own(shape):
    x = np.random.default_rng(3).uniform(-1, 1, shape)
    n = x.size
    # p for each shift k = floor(p * n): the ends, and half a step past
    # the neighbours of 0 so no rounding moves k
    for k, p in ((-n, -1.0), (-1, -0.5 / n), (0, 0.0), (1, 1.5 / n),
                 (n, 1.0)):
        assert math.floor(p * n) == k
        out = _f("ROTATE").impl(x, 0.0, p)
        assert out.base is None and out.shape == shape
        assert np.array_equal(out, np.roll(x, k))
    # a view operand rolls in its logical order, as np.roll does
    assert np.array_equal(_f("ROTATE").impl(x.T, 0.0, 1.5 / n),
                          np.roll(x.T, 1))


def test_split_and_index():
    m = matrix([[0.1, 0.2, 0.3, 0.4]])
    # raw formula first (p = 0 -> position 0.5 -> index 2)
    before = _f("SPLIT_BEFORE").impl(m, 0.0, 0.0)
    assert np.array_equal(before, [[0.1, 0.2, 0.3]])
    after = _f("SPLIT_AFTER").impl(m, 0.0, 0.0)
    assert np.array_equal(after, [[0.3, 0.4]])
    assert apply(_f("INDEX_P"), m, 0.0, 1.0) == 0.4


def test_broadcast_crops_to_common_block():
    a = matrix([[0.2, 0.4, 0.6]])
    b = matrix([[0.2], [0.9]])
    out = apply(_f("ADD"), a, b, 1.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.2


def test_scalar_y_uses_matrix_mean():
    m = matrix([[0.0, 0.25, 0.5, 0.75]])
    # y mean 0.375 -> position 0.6875 -> index 2; p=1 -> index 3
    out = apply(_f("RANGE_IN"), m, matrix([[0.375]]), 1.0)
    assert np.array_equal(out, [[0.5, 0.75]])


def test_const_is_weighted_by_itself():
    assert apply(_f("CONST"), 0.0, 0.0, 0.8) == 0.8 * 0.8


def test_push_growth_is_capped():
    big = np.zeros((1, MAX_PUSH_ELEMENTS))
    out = apply(_f("PUSH_BACK"), big, big, 1.0)
    assert out.size == MAX_PUSH_ELEMENTS


def test_moment_underflow_does_not_raise():
    # variance ~1e-240 is nonzero but its 1.5 power underflows to 0
    m = matrix([[1e-120, 0.0, 0.0]])
    assert apply(_f("SKEW"), m, 0.0, 1.0) == 0.0
    assert apply(_f("KURTOSIS"), m, 0.0, 1.0) == 0.0


def test_stddev_of_constant_vector_is_zeroed():
    m = matrix([[0.5, 0.5, 0.5]])
    assert apply(_f("SKEW"), m, 0.0, 1.0) == 0.0
    assert apply(_f("KURTOSIS"), m, 0.0, 1.0) == 0.0
    assert apply(_f("STDDEV"), matrix([[0.5]]), 0.0, 1.0) == 0.0


def _cases(rng, n):
    """Random operand triples covering all four scalar/matrix shapes."""
    out = []
    for i in range(n):
        def draw(kind):
            if kind:
                shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
                return rng.uniform(-1.0, 1.0, shape)
            return float(rng.uniform(-1.0, 1.0))
        out.append((draw(i % 2 == 1), draw(i % 4 >= 2),
                    float(rng.uniform(-1.0, 1.0))))
    # deliberate edge operands
    out.append((0.0, 0.0, 0.0))
    out.append((1.0, -1.0, 1.0))
    out.append((np.full((2, 2), 0.5), 0.0, -1.0))
    out.append((np.zeros((1, 1)), np.ones((3, 3)), 0.5))
    return out


@pytest.mark.parametrize("spec", FUNCTIONS, ids=lambda s: s.name)
def test_matches_reference(spec):
    rng = np.random.default_rng(FUNCTIONS.index(spec))
    for x, y, p in _cases(rng, 200):
        got = apply(spec, x, y, p)
        want = oracle.ref_node_output(spec.name, x, y, p)
        assert oracle.same_value(got, want), f"{spec.name} x={x} y={y} p={p}"


@pytest.mark.parametrize("spec", FUNCTIONS, ids=lambda s: s.name)
def test_output_always_constrained(spec):
    rng = np.random.default_rng(100 + FUNCTIONS.index(spec))
    for x, y, p in _cases(rng, 100):
        out = apply(spec, x, y, p)
        if isinstance(out, np.ndarray):
            assert out.ndim == 2
            assert np.all(np.isfinite(out))
            assert np.all(out >= -1.0) and np.all(out <= 1.0)
        else:
            assert math.isfinite(out)
            assert -1.0 <= out <= 1.0


def _large_operands(rng):
    """Atari-sized operands with signed zeros, exact zeros, +/-1, subnormals
    and +/-(1 - 2**-53) planted.

    m160 is a transposed (column-major) view, as TRANSPOSE results are, and
    the 1x65536 row a view into a bigger buffer, as capped PUSH results are.
    """
    def plane(shape):
        m = rng.uniform(-1.0, 1.0, shape)
        flat = m.reshape(-1)
        flat[:8] = [0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 1.0, -1.0]
        flat[8:16] = [5e-324, -5e-324, 1.5e-323, -2.2250738585072014e-308,
                      1e-310, -1e-310, 1 - 2 ** -53, -(1 - 2 ** -53)]
        flat[rng.integers(0, flat.size, 64)] = 0.0
        return m
    row = plane((1, 2 * MAX_PUSH_ELEMENTS))[:, :MAX_PUSH_ELEMENTS]
    return {"scalar": 0.5, "m12": plane((12, 12)), "m210": plane((210, 160)),
            "m160": plane((210, 160)).T, "row": row}


# pairs with the row put PUSH_BACK/PUSH_FRONT results at the element cap
_ORACLE_PAIRS = [("m210", "m210"), ("m210", "m160"), ("m160", "m210"),
                 ("m210", "scalar"), ("scalar", "m210"), ("row", "m210"),
                 ("m210", "row"), ("row", "row"), ("row", "scalar"),
                 ("scalar", "row")]


@pytest.mark.parametrize("spec", FUNCTIONS, ids=lambda s: s.name)
def test_matches_reference_at_atari_size(spec):
    rng = np.random.default_rng(200 + FUNCTIONS.index(spec))
    ops = _large_operands(rng)
    for xk, yk in _ORACLE_PAIRS:
        for p in (0.37, -1.0, 1.0, 0.0):
            x, y = ops[xk], ops[yk]
            got = apply(spec, x, y, p)
            want = oracle.ref_node_output(spec.name, x, y, p)
            assert oracle.same_value(got, want), f"{spec.name} {xk},{yk} p={p}"
            if isinstance(got, np.ndarray):
                # same_value compares with ==, which equates 0.0 and -0.0
                assert got.tobytes() == want.tobytes(), f"{spec.name} {xk},{yk}"


_IMMUTABILITY_KINDS = ["scalar", "m12", "m210", "m160", "row"]


@pytest.mark.parametrize("spec", FUNCTIONS, ids=lambda s: s.name)
def test_apply_leaves_operands_unchanged(spec):
    """apply scales and clamps kernel results in place; operands, including
    an operand passed as both x and y, must never be written, and a matrix
    result must own its memory."""
    rng = np.random.default_rng(300 + FUNCTIONS.index(spec))
    ops = _large_operands(rng)
    pairs = [(a, b) for a in _IMMUTABILITY_KINDS for b in _IMMUTABILITY_KINDS]
    pairs += [("m210", "same"), ("row", "same")]
    for xk, yk in pairs:
        x = ops[xk]
        y = x if yk == "same" else ops[yk]
        before = [v.tobytes() if isinstance(v, np.ndarray) else v
                  for v in (x, y)]
        out = apply(spec, x, y, -0.6)
        after = [v.tobytes() if isinstance(v, np.ndarray) else v
                 for v in (x, y)]
        assert after == before, f"{spec.name} mutated an operand ({xk},{yk})"
        if isinstance(out, np.ndarray):
            assert out.dtype == np.float64
            assert out.base is None, (
                f"{spec.name} result does not own its memory ({xk},{yk})")
            for v in (x, y):
                if isinstance(v, np.ndarray):
                    assert not np.may_share_memory(out, v), (
                        f"{spec.name} result aliases an operand ({xk},{yk})")
        else:
            assert type(out) is float, f"{spec.name} returned {type(out)}"
