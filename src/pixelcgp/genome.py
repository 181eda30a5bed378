"""Genome encoding, decoding and stepwise program execution.

A genome is a flat sequence of n_output + 4*C genes in [0, 1). The first
n_output genes address the output nodes; each of the C program nodes then
takes four genes in order: x connection, y connection, function, parameter.
The graph has N = n_input + C nodes, the first n_input of which are the
program inputs and carry no genes.

Connection genes are scaled by ((N - n) * r + n) and floored, so r = 0
yields strictly feedforward graphs and r = 1 lets connections address the
whole graph. Node states start at scalar 0 and are updated in place in
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

__all__ = [
    "Genome", "Program", "random_genome", "connection_index", "decode",
    "select_action",
]


@dataclass(frozen=True)
class Genome:
    genes: np.ndarray
    n_input: int
    n_output: int
    C: int
    r: float

    def __post_init__(self):
        expected = self.n_output + 4 * self.C
        if len(self.genes) != expected:
            raise ValueError(
                f"genome needs {expected} genes "
                f"(n_output={self.n_output}, C={self.C}), got {len(self.genes)}"
            )

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
class Node:
    xi: int
    yi: int
    spec: fns.FunctionSpec
    p: float


@dataclass
class Program:
    """Decoded phenotype: executable graph plus its per-node state buffer."""

    n_input: int
    nodes: list[Node]          # program nodes only, graph indices n_input..N-1
    outputs: list[int]         # node indices, one per action
    state: list[Value] = field(default_factory=list)

    def __post_init__(self):
        if not self.state:
            self.reset()
        # evaluation plan: (node index, spec, x index, y index, p) for each
        # active node in ascending order; inactive nodes are never run
        active = trace_active(self)
        self._plan = [(n, nd.spec, nd.xi, nd.yi, nd.p)
                      for n, nd in enumerate(self.nodes, self.n_input)
                      if n in active]

    @property
    def n_nodes(self) -> int:
        return self.n_input + len(self.nodes)

    def reset(self) -> None:
        """Zero every node state (fresh-episode condition)."""
        self.state = [0.0] * self.n_nodes

    def step(self, inputs: list[Value]) -> list[Value]:
        """One synchronous pass: load inputs, update active nodes in order."""
        if len(inputs) != self.n_input:
            raise ValueError(f"expected {self.n_input} inputs, got {len(inputs)}")
        state = self.state
        state[: self.n_input] = inputs
        apply = fns.apply
        for n, spec, xi, yi, p in self._plan:
            state[n] = apply(spec, state[xi], state[yi], p)
        return [state[i] for i in self.outputs]


def decode(genome: Genome) -> Program:
    """Expand a genome into its program graph; the Program it returns has
    traced its active nodes once, into its evaluation plan."""
    N = genome.n_nodes
    genes = genome.genes
    outputs = [int(g * N) for g in genes[: genome.n_output]]
    nodes = []
    for k in range(genome.C):
        n = genome.n_input + k
        xg, yg, fg, pg = genes[genome.n_output + 4 * k : genome.n_output + 4 * k + 4]
        nodes.append(Node(
            xi=connection_index(xg, n, N, genome.r),
            yi=connection_index(yg, n, N, genome.r),
            spec=fns.function_from_gene(fg),
            p=2.0 * pg - 1.0,
        ))
    return Program(genome.n_input, nodes, outputs)


def trace_active(program: Program) -> set[int]:
    """Nodes reachable from the outputs through read connections.

    Visited marking makes the walk terminate on recurrent cycles. Only the
    connections a function actually reads are followed (x for arity 1, both
    for arity 2, y alone for YWIRE, none for arity 0).
    """
    active: set[int] = set()
    stack = list(program.outputs)
    while stack:
        n = stack.pop()
        if n in active:
            continue
        active.add(n)
        if n < program.n_input:
            continue
        nd = program.nodes[n - program.n_input]
        if nd.spec.trace_x:
            stack.append(nd.xi)
        if nd.spec.trace_y:
            stack.append(nd.yi)
    return active


def select_action(outputs: list[Value]) -> int:
    """Index of the largest output (matrix outputs by mean, ties to lowest)."""
    best, best_v = 0, -math.inf
    for i, out in enumerate(outputs):
        v = scalar_of(out)
        if v > best_v:
            best, best_v = i, v
    return best
