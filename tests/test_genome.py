import numpy as np
import pytest

from oracle import matrix, ref_decode
from pixelcgp.functions import FUNCTIONS_BY_NAME, apply
from pixelcgp.genome import (Genome, Program, connection_index, decode,
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
    genes[0] = 0.7  # output -> node 1 of 2, the program node
    genes[1:] = [0.1, 0.1, 0.0, 0.75]  # ADD node, p gene 0.75
    prog = decode(Genome(genes, 1, 1, 1, 0.0))
    [(_, _, _, _, p)] = prog.plan
    assert p == 0.5


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


def test_decode_matches_reference_decode():
    # the plan, trace_active and the DOT export all read what decode walked,
    # so the walk is checked against a decode of every node
    rng = np.random.default_rng(11)
    cycles = 0
    for r in (0.0, 0.1, 1.0):
        for C in (1, 40, 200):
            for _ in range(40):
                genome = random_genome(3, 3, C, r, rng)
                outputs, nodes, reachable = ref_decode(genome)
                prog = decode(genome)
                assert prog.outputs == outputs
                assert [(n, spec.name, xi, yi, p)
                        for n, spec, xi, yi, p in prog.plan] == [
                    (n, *nodes[n]) for n in sorted(reachable) if n >= 3]
                assert trace_active(prog) == reachable
                cycles += any((spec.trace_x and xi >= n)
                              or (spec.trace_y and yi >= n)
                              for n, spec, xi, yi, _ in prog.plan)
    assert cycles > 0   # recurrent links among the active nodes were walked


def test_recurrent_self_loop_accumulates():
    # ADD(input, self) with p=1: 0 -> 0.5 -> 0.75 -> 0.875
    prog = Program(1, 2, [1], [(1, FUNCTIONS_BY_NAME["ADD"], 0, 1, 1.0)])
    seen = [prog.step([1.0])[0] for _ in range(3)]
    assert seen == [0.5, 0.75, 0.875]


def test_lower_index_link_reads_fresh_value():
    add = FUNCTIONS_BY_NAME["ADD"]
    plan = [
        (1, add, 0, 0, 1.0),  # node 1 = in
        (2, add, 1, 1, 1.0),  # node 2 reads node 1
    ]
    prog = Program(1, 3, [2], plan)
    # both nodes settle within the same step
    assert prog.step([0.8])[0] == 0.8


def test_higher_index_link_reads_previous_step():
    add = FUNCTIONS_BY_NAME["ADD"]
    plan = [
        (1, add, 2, 2, 1.0),  # node 1 reads node 2
        (2, add, 0, 0, 1.0),  # node 2 = in
    ]
    prog = Program(1, 3, [1], plan)
    first = prog.step([0.8])[0]   # node 2 still holds 0 when node 1 runs
    second = prog.step([0.8])[0]
    assert first == 0.0
    assert second == 0.8


def test_reset_zeroes_state():
    prog = Program(1, 2, [1], [(1, FUNCTIONS_BY_NAME["ADD"], 0, 1, 1.0)])
    prog.step([1.0])
    prog.reset()
    assert prog.state == [0.0, 0.0]


def test_step_rejects_wrong_input_count():
    prog = Program(1, 2, [1], [(1, FUNCTIONS_BY_NAME["ADD"], 0, 1, 1.0)])
    with pytest.raises(ValueError, match="expected 1 inputs, got 2"):
        prog.step([1.0, 0.5])


def test_ywire_traces_only_y():
    genes = np.zeros(1 + 4)
    N = 4
    genes[0] = 3.5 / N
    # YWIRE with x -> in0, y -> in2
    genes[1:5] = [0.5 / 3, 2.5 / 3, 47.5 / 53, 0.9]
    prog = decode(Genome(genes, 3, 1, 1, 0.0))
    assert [spec.name for _, spec, *_ in prog.plan] == ["YWIRE"]
    assert trace_active(prog) == {2, 3}
    assert prog.reads == [2]


def test_arity_one_node_does_not_read_its_y_input():
    genes = np.zeros(1 + 4)
    genes[0] = 3.5 / 4
    # ABS with x -> in0, y -> in1: only x is traced
    genes[1:5] = [0.5 / 3, 1.5 / 3, 5.5 / 53, 0.9]
    prog = decode(Genome(genes, 3, 1, 1, 0.0))
    assert [(spec.name, xi, yi) for _, spec, xi, yi, _ in prog.plan] == [
        ("ABS", 0, 1)]
    assert prog.reads == [0]


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
    entries = {n: entry for n, *entry in prog.plan}

    def val(n):
        if n in memo:
            return memo[n]
        if n < prog.n_input:
            memo[n] = inputs[n]
            return memo[n]
        spec, xi, yi, p = entries[n]
        x = val(xi) if spec.trace_x else 0.0
        y = val(yi) if spec.trace_y else 0.0
        memo[n] = apply(spec, x, y, p)
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
