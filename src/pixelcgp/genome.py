"""Genome encoding, decoding and stepwise program execution.

A genome is a flat sequence of n_output + 4*C genes in [0, 1). The first
n_output genes address the output nodes; each of the C program nodes then
takes four genes in order: x connection, y connection, function, parameter.
The graph has N = n_input + C nodes, the first n_input of which are the
program inputs and carry no genes.

An output gene g addresses node floor(g * N). A connection gene of node n
is scaled by ((N - n) * r + n) and floored, so r = 0 yields strictly
feedforward graphs and r = 1 lets connections address the whole graph. A
function gene f picks entry floor(f * 53) of the function table, and a
parameter gene g gives p = 2g - 1.

decode reads only the genes of nodes reachable from the outputs through
the connections their functions read; every other gene is junk it never
looks at. Every node state starts at scalar 0 and is updated in place in
ascending node order, one pass per step: a link to a lower index reads this
step's fresh value, a link to an equal or higher index reads the previous
step's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import functions as fns
from .values import Value, scalar_of


# The header's n_input is the one size no gene count bounds: without this
# cap, a 26-byte genome file could make Program.reset allocate millions of
# node states (cf. bridge.MAX_FRAME_BYTES).
MAX_N_INPUT = 1 << 16


@dataclass(frozen=True)
class Genome:
    """Validated on construction: a shape or gene decode cannot use raises
    ValueError."""

    genes: np.ndarray
    n_input: int
    n_output: int
    C: int
    r: float

    def __post_init__(self):
        for key, value, least in (("n_input", self.n_input, 1),
                                  ("n_output", self.n_output, 1),
                                  ("C", self.C, 0)):
            if value < least:
                raise ValueError(f"{key} = {value} must be at least {least}")
        if self.n_input > MAX_N_INPUT:
            raise ValueError(
                f"n_input = {self.n_input} exceeds the limit {MAX_N_INPUT}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"recurrency r = {self.r!r} outside [0, 1]")
        expected = self.n_output + 4 * self.C
        if len(self.genes) != expected:
            raise ValueError(
                f"genome needs {expected} genes "
                f"(n_output={self.n_output}, C={self.C}), got {len(self.genes)}"
            )
        # decode maps genes in [0, 1) to indices; 1.0 or NaN would index past
        # the function table or the graph (a NaN min or max compares false)
        genes = self.genes
        if not (genes.min() >= 0.0 and genes.max() < 1.0):
            i = next(i for i, g in enumerate(genes) if not 0.0 <= g < 1.0)
            raise ValueError(f"gene {i} is {float(genes[i])!r}, outside [0, 1)")

    @property
    def n_nodes(self) -> int:
        return self.n_input + self.C

    def with_genes(self, genes: np.ndarray) -> "Genome":
        return Genome(genes, self.n_input, self.n_output, self.C, self.r)


def random_genome(n_input: int, n_output: int, C: int, r: float,
                  rng: np.random.Generator) -> Genome:
    """Fresh genome with all genes drawn i.i.d. uniform over [0, 1)."""
    return Genome(rng.random(n_output + 4 * C), n_input, n_output, C, r)


def connection_index(gene: float, n: int, N: int, r: float) -> int:
    """Decode a connection gene of node n into a node index in [0, N-1]."""
    return int(math.floor(gene * ((N - n) * r + n)))


@dataclass
class Program:
    """Decoded phenotype. The plan is the program: one entry
    (node index, spec, x index, y index, p) per active node, in ascending
    node order. Inactive nodes are neither decoded nor run.

    reads lists the inputs step loads: the inputs in trace_active. An
    operand its function does not trace cannot change the result (decode
    relies on this too), so any other input keeps its reset value and its
    observation plane is never asked for."""

    n_input: int
    n_nodes: int               # state size: inputs plus program nodes
    outputs: list[int]         # node indices, one per action
    plan: list[tuple[int, fns.FunctionSpec, int, int, float]]
    state: list[Value] = field(init=False)
    reads: list[int] = field(init=False)

    def __post_init__(self):
        self.reads = sorted(i for i in trace_active(self) if i < self.n_input)
        self.reset()

    def reset(self) -> None:
        """Zero every node state (fresh-episode condition)."""
        self.state = [0.0] * self.n_nodes

    def step(self, inputs) -> list[Value]:
        """One synchronous pass: load the inputs in reads, update active
        nodes in order. inputs is any sequence of n_input values, such as
        an envs.Observation; only its entries in reads are indexed."""
        if len(inputs) != self.n_input:
            raise ValueError(f"expected {self.n_input} inputs, got {len(inputs)}")
        state = self.state
        for i in self.reads:
            state[i] = inputs[i]
        apply = fns.apply
        for n, spec, xi, yi, p in self.plan:
            state[n] = apply(spec, state[xi], state[yi], p)
        return [state[i] for i in self.outputs]


def decode(genome: Genome) -> Program:
    """Walk from the outputs through the connections each function reads
    (the operands its row in functions._TABLE names), decoding a node's
    genes when the walk first reaches it. Visited marking makes the walk
    terminate on recurrent cycles."""
    n_input, N, r = genome.n_input, genome.n_nodes, genome.r
    genes = genome.genes
    outputs = [int(g * N) for g in genes[: genome.n_output]]
    plan = []
    seen: set[int] = set()
    stack = list(outputs)
    while stack:
        n = stack.pop()
        if n < n_input or n in seen:
            continue
        seen.add(n)
        k = genome.n_output + 4 * (n - n_input)
        xg, yg, fg, pg = genes[k : k + 4]
        spec = fns.function_from_gene(fg)
        xi = connection_index(xg, n, N, r)
        yi = connection_index(yg, n, N, r)
        plan.append((n, spec, xi, yi, 2.0 * pg - 1.0))
        if spec.trace_x:
            stack.append(xi)
        if spec.trace_y:
            stack.append(yi)
    plan.sort(key=lambda entry: entry[0])
    return Program(n_input, N, outputs, plan)


def trace_active(program: Program) -> set[int]:
    """Nodes reachable from the outputs through read connections: the
    outputs, the plan's nodes and the operands those nodes read."""
    active = set(program.outputs)
    for n, spec, xi, yi, _ in program.plan:
        active.add(n)
        if spec.trace_x:
            active.add(xi)
        if spec.trace_y:
            active.add(yi)
    return active


def select_action(outputs: list[Value]) -> int:
    """Index of the largest output (matrix outputs by mean, ties to lowest)."""
    best, best_v = 0, -math.inf
    for i, out in enumerate(outputs):
        v = scalar_of(out)
        if v > best_v:
            best, best_v = i, v
    return best
