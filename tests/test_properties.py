import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracle
from pixelcgp import functions
from pixelcgp.functions import FUNCTIONS, apply
from pixelcgp.genome import connection_index, decode, random_genome
from pixelcgp.persist import parse_genome, serialize_genome
from pixelcgp.values import constrain, crop_to_common, index_from_unit

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
operand_scalar = st.floats(min_value=-1.0, max_value=1.0)
operand_matrix = arrays(np.float64,
                        array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=operand_scalar)
operand = st.one_of(operand_scalar, operand_matrix)


@given(st.one_of(st.floats(), finite))
def test_constrain_scalar_always_in_range(v):
    out = constrain(v)
    assert math.isfinite(out) and -1.0 <= out <= 1.0


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(width=64)))
def test_constrain_matrix_always_in_range(m):
    before = m.view(np.int64).copy()
    out = constrain(m)
    # constrain(m) leaves m itself unchanged, bit for bit
    assert np.array_equal(m.view(np.int64), before)
    assert np.all(np.isfinite(out))
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


@given(unit, st.integers(1, 1000))
def test_index_from_unit_in_range(u, n):
    assert 0 <= index_from_unit(u, n) < n
    assert index_from_unit(1.0, n) == n - 1


@given(operand_matrix, operand_matrix)
def test_crop_to_common_shapes(a, b):
    ca, cb = crop_to_common(a, b)
    assert ca.shape == cb.shape
    assert ca.shape[0] == min(a.shape[0], b.shape[0])
    assert ca.shape[1] == min(a.shape[1], b.shape[1])
    assert np.array_equal(ca, a[: ca.shape[0], : ca.shape[1]])


@given(unit, st.integers(1, 100), st.integers(0, 100),
       st.floats(min_value=0.0, max_value=1.0))
def test_connection_index_bounds(gene, n, extra, r):
    N = n + extra + 1
    idx = connection_index(gene, n, N, r)
    assert 0 <= idx < N
    if r == 0.0 and n > 0:
        assert idx < n


@settings(deadline=None)
@given(st.sampled_from(FUNCTIONS), operand, operand, operand_scalar)
def test_apply_output_always_constrained(spec, x, y, p):
    out = apply(spec, x, y, p)
    if isinstance(out, np.ndarray):
        assert out.ndim == 2 and out.size >= 1
        assert np.all(np.isfinite(out))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)
    else:
        assert math.isfinite(out) and -1.0 <= out <= 1.0


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31), st.integers(1, 30),
       st.floats(min_value=0.0, max_value=1.0))
def test_decode_connections_stay_in_graph(seed, C, r):
    genome = random_genome(3, 3, C, r, np.random.default_rng(seed))
    prog = decode(genome)
    N = genome.n_nodes
    for out in prog.outputs:
        assert 0 <= out < N
    for n, _, xi, yi, p in prog.plan:
        assert 3 <= n < N
        assert 0 <= xi < N and 0 <= yi < N
        assert -1.0 <= p < 1.0
        if r == 0.0:
            assert xi < n and yi < n


class _Guarded:
    """Inputs whose entries outside `allowed` raise when indexed."""

    def __init__(self, values, allowed):
        self.values, self.allowed = values, set(allowed)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        if i not in self.allowed:
            raise AssertionError(f"input {i} indexed, but it is not read")
        return self.values[i]


def _step_loading_every_input(prog, inputs):
    state = prog.state
    state[: prog.n_input] = inputs
    for n, spec, xi, yi, p in prog.plan:
        state[n] = apply(spec, state[xi], state[yi], p)
    return [state[i] for i in prog.outputs]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31), st.integers(1, 40),
       st.sampled_from([0.0, 0.1, 1.0]))
def test_step_indexes_only_the_inputs_it_reads(seed, C, r):
    # unread inputs keep their reset value, and nothing can tell: several
    # steps, so recurrent links read the previous step's values too
    rng = np.random.default_rng(seed)
    genome = random_genome(3, 3, C, r, rng)
    lazy, full = decode(genome), decode(genome)
    for _ in range(3):
        planes = [rng.random((6, 5)) for _ in range(3)]
        got = lazy.step(_Guarded(planes, lazy.reads))
        want = _step_loading_every_input(full, planes)
        assert all(map(oracle.same_value, got, want))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31))
def test_genome_serialization_round_trip(seed):
    genome = random_genome(3, 3, 15, 0.1, np.random.default_rng(seed))
    back = parse_genome(serialize_genome(genome))
    assert np.array_equal(genome.genes, back.genes)


# --- closure: FunctionSpec.closed lets apply skip the clamp -----------------

# the operands where a bound is tightest: +-1, signed zeros, the smallest
# subnormals and the doubles next to +-1
_EDGES = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324,
          1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53)]
_CLOSED_SPECS = [spec for spec in FUNCTIONS if spec.closed]
edge_scalar = st.one_of(st.sampled_from(_EDGES), operand_scalar)
edge_matrix = arrays(np.float64,
                     array_shapes(min_dims=2, max_dims=2, max_side=12),
                     elements=edge_scalar)


def _raw(spec, x, y, p):
    """The kernel result apply scales by p (a matrix wire passes x)."""
    if spec.needs_matrix and not isinstance(x, np.ndarray):
        return x
    return spec.impl(x, y, p)


def _assert_closed(spec, raw, where):
    if isinstance(raw, np.ndarray):
        assert np.all(np.isfinite(raw)), f"{spec.name} non-finite {where}"
        assert np.all(np.abs(raw) <= 1.0), f"{spec.name} out of range {where}"


@settings(deadline=None, max_examples=60)
@given(x=st.one_of(edge_scalar, edge_matrix),
       y=st.one_of(edge_scalar, edge_matrix), p=edge_scalar)
@pytest.mark.parametrize("spec", _CLOSED_SPECS, ids=lambda s: s.name)
def test_closed_kernels_stay_in_range(spec, x, y, p):
    _assert_closed(spec, _raw(spec, x, y, p), f"x={x!r} y={y!r} p={p!r}")


def _planted_planes(rng):
    """210x160 planes whose first and last 64 elements pair every edge value
    of x with every edge value of y, in SIMD body and tail positions."""
    x, y = rng.uniform(-1.0, 1.0, (2, 210, 160))
    edges = np.array(_EDGES)
    i = np.arange(64)
    for plane, pattern in ((x, edges[i % 8]), (y, edges[i // 8])):
        flat = plane.reshape(-1)
        flat[:64] = flat[-64:] = pattern
    return x, y


@pytest.mark.parametrize("spec", _CLOSED_SPECS, ids=lambda s: s.name)
def test_closed_kernels_stay_in_range_at_atari_size(spec):
    x, y = _planted_planes(np.random.default_rng(FUNCTIONS.index(spec)))
    pairs = [(x, y), (y, x), (x, y.T), (x.T, y)]
    pairs += [(x, e) for e in _EDGES] + [(e, y) for e in _EDGES]
    for a, b in pairs:
        for p in _EDGES + [0.37]:
            where = (f"{getattr(a, 'shape', a)}, {getattr(b, 'shape', b)}, "
                     f"p={p!r}")
            _assert_closed(spec, _raw(spec, a, b, p), where)


def test_endpoint_check_refuses_a_kernel_that_rounds_up():
    def up(where):
        def kernel(m):
            out = np.arctan(m) * (4.0 / math.pi)
            out[where(m)] = np.nextafter(1.0, 2.0)
            return out
        return kernel
    check = functions._kernel_stays_closed
    assert check(lambda m: np.clip(m, -1.0, 1.0), (1.0, -1.0))
    assert not check(up(lambda m: m == 1.0), (1.0, -1.0))
    assert not check(up(lambda m: (m == -1.0) & (m.size == 1)), (1.0, -1.0))
    assert not check(up(lambda m: (m > 0.5) & (m.size > 1)), (1.0, -1.0))
    assert not check(lambda m: np.full(m.shape, np.nan), (1.0,))


# --- PUSH_BACK/PUSH_FRONT copy only the elements they keep -------------------

_CAP = functions.MAX_PUSH_ELEMENTS
# below, at and across the cap, alone and summed with the other operand
push_length = st.one_of(st.integers(1, 8), st.integers(_CAP - 4, _CAP + 4),
                        st.integers(1, 2 * _CAP))


@st.composite
def push_operand(draw):
    if draw(st.booleans()):
        return draw(edge_scalar)
    n = draw(push_length)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.uniform(-1.0, 1.0, (1, n))
    m[0, rng.integers(0, n, 4)] = -0.0
    layout = draw(st.sampled_from(["row", "reversed", "column"]))
    if layout == "reversed":
        return m[:, ::-1]      # a strided view, as REVERSE's kernel makes
    return m.T if layout == "column" else m


def _row(v):
    return v.reshape(-1) if isinstance(v, np.ndarray) else np.array([v])


@settings(deadline=None, max_examples=60)
@given(x=push_operand(), y=push_operand(), p=edge_scalar)
@pytest.mark.parametrize("name", ["PUSH_BACK", "PUSH_FRONT"])
def test_push_matches_concatenate_then_cap(name, x, y, p):
    first, second = (x, y) if name == "PUSH_BACK" else (y, x)
    capped = np.concatenate([_row(first), _row(second)])[:_CAP]
    want = p * capped.reshape(1, -1)   # closed: apply only scales by p
    got = apply(functions.FUNCTIONS_BY_NAME[name], x, y, p)
    assert got.shape == want.shape == (1, min(_row(x).size + _row(y).size,
                                               _CAP))
    assert got.tobytes() == want.tobytes()
