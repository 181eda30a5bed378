import numpy as np
import pytest

from oracle import matrix
from pixelcgp.functions import FUNCTIONS_BY_NAME, apply
from pixelcgp.genome import (Genome, Node, Program, connection_index, decode,
                             random_genome, select_action, trace_active)


def test_genome_length_validation():
    with pytest.raises(ValueError):
        Genome(np.zeros(10), 3, 3, 40, 0.1)
    g = Genome(np.zeros(3 + 160), 3, 3, 40, 0.1)
    assert g.n_nodes == 43


def test_random_genome_range():
    rng = np.random.default_rng(1)
    g = random_genome(3, 18, 40, 0.1, rng)
    assert len(g.genes) == 18 + 160
    assert np.all(g.genes >= 0.0) and np.all(g.genes < 1.0)


def test_connection_index_feedforward():
    # r = 0: only the n earlier nodes are addressable
    assert connection_index(0.99, 10, 50, 0.0) == 9
    for gene in np.random.default_rng(2).random(1000):
        assert 0 <= connection_index(gene, 10, 50, 0.0) < 10


def test_connection_index_recurrent_scale():
    # r = 0.1, n = 10, N = 50: scale (50-10)*0.1 + 10 = 14
    assert connection_index(0.9, 10, 50, 0.1) == 12
    assert connection_index(0.0, 10, 50, 1.0) == 0
    assert connection_index(0.999999, 10, 50, 1.0) == 49


def test_parameter_decoding():
    genes = np.zeros(1 + 4)
    genes[0] = 0.2  # output -> node 0 of 2
    genes[1:] = [0.1, 0.1, 0.0, 0.75]  # ADD node, p gene 0.75
    prog = decode(Genome(genes, 1, 1, 1, 0.0))
    assert prog.nodes[0].p == 0.5


def test_decode_marks_active_nodes():
    # output reads node 4 (second program node), which reads input and node 3
    genes = np.zeros(1 + 8)
    N = 5
    genes[0] = 4.5 / N
    genes[1:5] = [0.1, 0.1, 0.5 / 53, 0.9]      # node 3: ADD(in0, in0)
    genes[5:9] = [0.5 / 3, 3.5 / 4, 0.5 / 53, 0.9]  # node 4: ADD(in0, n3)
    prog = decode(Genome(genes, 3, 1, 2, 0.0))
    assert prog.outputs == [4]
    assert trace_active(prog) == {0, 3, 4}


def test_inactive_nodes_are_never_evaluated():
    # output reads node 3 only; node 4 (ADD of the input) is junk
    genes = np.zeros(1 + 8)
    genes[0] = 3.5 / 5
    genes[1:5] = [0.1, 0.1, 0.5 / 53, 0.9]      # node 3: ADD(in0, in0)
    genes[5:9] = [0.1, 0.1, 0.5 / 53, 0.9]      # node 4: ADD(in0, in0)
    prog = decode(Genome(genes, 3, 1, 2, 0.0))
    prog.step([0.5, 0.0, 0.0])
    assert prog.state[3] != 0.0
    assert prog.state[4] == 0.0


def test_recurrent_self_loop_accumulates():
    # ADD(input, self) with p=1: 0 -> 0.5 -> 0.75 -> 0.875
    node = Node(xi=0, yi=1, spec=FUNCTIONS_BY_NAME["ADD"], p=1.0)
    prog = Program(1, [node], [1])
    seen = [prog.step([1.0])[0] for _ in range(3)]
    assert seen == [0.5, 0.75, 0.875]


def test_lower_index_link_reads_fresh_value():
    add = FUNCTIONS_BY_NAME["ADD"]
    nodes = [
        Node(xi=0, yi=0, spec=add, p=1.0),  # node 1 = in
        Node(xi=1, yi=1, spec=add, p=1.0),  # node 2 reads node 1
    ]
    prog = Program(1, nodes, [2])
    # both nodes settle within the same step
    assert prog.step([0.8])[0] == 0.8


def test_higher_index_link_reads_previous_step():
    add = FUNCTIONS_BY_NAME["ADD"]
    nodes = [
        Node(xi=2, yi=2, spec=add, p=1.0),  # node 1 reads node 2
        Node(xi=0, yi=0, spec=add, p=1.0),  # node 2 = in
    ]
    prog = Program(1, nodes, [1])
    first = prog.step([0.8])[0]   # node 2 still holds 0 when node 1 runs
    second = prog.step([0.8])[0]
    assert first == 0.0
    assert second == 0.8


def test_reset_zeroes_state():
    node = Node(xi=0, yi=1, spec=FUNCTIONS_BY_NAME["ADD"], p=1.0)
    prog = Program(1, [node], [1])
    prog.step([1.0])
    prog.reset()
    assert prog.state == [0.0, 0.0]


def test_ywire_traces_only_y():
    genes = np.zeros(1 + 4)
    N = 4
    genes[0] = 3.5 / N
    # YWIRE with x -> in0, y -> in2
    genes[1:5] = [0.5 / 3, 2.5 / 3, 47.5 / 53, 0.9]
    prog = decode(Genome(genes, 3, 1, 1, 0.0))
    assert prog.nodes[0].spec.name == "YWIRE"
    assert trace_active(prog) == {2, 3}


def test_const_squares_its_parameter():
    spec = FUNCTIONS_BY_NAME["CONST"]
    assert not spec.trace_x and not spec.trace_y
    assert apply(spec, 0.0, 0.0, 0.8) == 0.8 * 0.8


def test_select_action():
    assert select_action([0.1, 0.5, 0.3]) == 1
    assert select_action([0.5, 0.5, 0.1]) == 0  # tie -> lowest index
    assert select_action([0.0, matrix([[1.0, 0.0]]), 0.4]) == 1  # mean 0.5


def _recursive_eval(prog, inputs):
    """Memoized recursion; valid for feedforward graphs (r = 0)."""
    memo = {}

    def val(n):
        if n in memo:
            return memo[n]
        if n < prog.n_input:
            memo[n] = inputs[n]
            return memo[n]
        nd = prog.nodes[n - prog.n_input]
        x = val(nd.xi) if nd.spec.trace_x else 0.0
        y = val(nd.yi) if nd.spec.trace_y else 0.0
        memo[n] = apply(nd.spec, x, y, nd.p)
        return memo[n]

    return [val(o) for o in prog.outputs]


def test_stepwise_matches_recursive_on_acyclic_graphs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        prog = decode(random_genome(3, 3, 20, 0.0, rng))
        inputs = [float(rng.uniform(-1, 1)),
                  rng.uniform(-1, 1, (4, 4)),
                  rng.uniform(-1, 1, (2, 6))]
        want = _recursive_eval(prog, inputs)
        got = prog.step(inputs)
        for a, b in zip(got, want):
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and np.array_equal(a, b)
            else:
                assert a == b
