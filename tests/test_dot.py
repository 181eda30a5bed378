import re

import numpy as np

from pixelcgp.dot import export_dot
from pixelcgp.genome import decode, random_genome, trace_active

from catch_tracker import _Builder, build_tracker


def test_dot_contains_only_active_nodes():
    genome = build_tracker()
    program = decode(genome)
    active = trace_active(program)
    text = export_dot(genome)
    declared = {int(m) for m in re.findall(r"^  n(\d+) \[", text, re.M)}
    assert declared == active
    assert text.startswith("digraph cgp {")
    assert text.rstrip().endswith("}")


def test_dot_output_boxes_and_edges():
    genome = build_tracker()
    text = export_dot(genome)
    for action in range(3):
        assert f'out{action} [shape=box, label="action {action}"]' in text
    assert "[style=dashed]" in text  # y edges are dashed


def test_dot_deterministic():
    genome = random_genome(3, 3, 40, 0.1, np.random.default_rng(5))
    assert export_dot(genome) == export_dot(genome)


def test_dot_edges_reference_declared_nodes():
    genome = random_genome(3, 3, 40, 0.1, np.random.default_rng(6))
    text = export_dot(genome)
    declared = set(re.findall(r"^  (n\d+|out\d+) \[", text, re.M))
    for src, dst in re.findall(r"^  (n\d+) -> (n\d+|out\d+)", text, re.M):
        assert src in declared and dst in declared


def test_dot_golden_text():
    b = _Builder(3)
    add = b.node("ADD", 0, 0.5, yi=1)   # an x edge and a dashed y edge
    b.node("NOP", 2, 0.8)               # inactive, the only reader of in2
    nop = b.node("NOP", add, -0.25)
    assert export_dot(b.genome([nop, 0, add])) == (
        "digraph cgp {\n"
        "  rankdir=LR;\n"
        '  n0 [shape=box, label="in0"];\n'
        '  n1 [shape=box, label="in1"];\n'
        '  n3 [label="3:ADD p=0.50"];\n'
        "  n0 -> n3;\n"
        "  n1 -> n3 [style=dashed];\n"
        '  n5 [label="5:NOP p=-0.25"];\n'
        "  n3 -> n5;\n"
        '  out0 [shape=box, label="action 0"];\n'
        "  n5 -> out0;\n"
        '  out1 [shape=box, label="action 1"];\n'
        "  n0 -> out1;\n"
        '  out2 [shape=box, label="action 2"];\n'
        "  n3 -> out2;\n"
        "}\n")
