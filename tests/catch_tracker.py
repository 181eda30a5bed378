"""Hand-constructed Catch controller genome.

The controller recovers the ball and paddle columns from the pixel planes
with prefix sums and steers the paddle toward the ball:

  * TRANSPOSE + VECTORIZE turn a plane into its column-major row vector,
    so the first 12*k elements cover exactly the leftmost k columns.
  * For each boundary k in 1..11, SPLIT_BEFORE keeps that prefix and SUM
    counts the lit cells in it: 0/1 for the ball plane, 0..3 for the
    paddle plane. The SUM parameter is sign-matched to the split parameter
    so every count arrives with a positive weight, paddle counts with a
    third of the ball weight and opposite sign.
  * Per boundary, ADD forms t_k ~ [ball left of k] - (paddle cells left
    of k)/3. Summed over all k with positive weights this has the sign of
    (paddle column - ball column): every t_k is >= 0 when the ball is left
    of the paddle and <= 0 when it is right, so an ADD chain preserves the
    sign even though it averages.
  * Outputs: noop reads the all-zero blue plane, "left" reads the chain
    result D, "right" reads NOP with parameter -1, i.e. -D. argmax then
    steers toward the ball and idles on D == 0.

All connection genes address strictly lower nodes, so with r = 1 the graph
is feedforward and settles in a single step per frame.
"""

from __future__ import annotations

import numpy as np

from pixelcgp.functions import FUNCTIONS, FUNCTIONS_BY_NAME, N_FUNCTIONS
from pixelcgp.genome import Genome, decode

GRID = 12
N_INPUT = 3
N_OUTPUT = 3


class _Builder:
    def __init__(self, n_input: int):
        self.n = n_input
        self.rows = []  # one (xg, yg, fg, pg) quad per node

    @property
    def next_index(self) -> int:
        return self.n + len(self.rows)

    def node(self, name: str, xi: int, p: float, yi: int = 0) -> int:
        idx = self.next_index
        if xi >= idx or yi >= idx:
            raise ValueError("connections must point at lower nodes")
        self.rows.append((xi, yi, FUNCTIONS.index(FUNCTIONS_BY_NAME[name]), p))
        return idx

    def genome(self, outputs: list[int], r: float = 1.0) -> Genome:
        C = len(self.rows)
        N = self.n + C
        genes = [(o + 0.5) / N for o in outputs]
        for xi, yi, fid, p in self.rows:
            genes.append((xi + 0.5) / N)
            genes.append((yi + 0.5) / N)
            genes.append((fid + 0.5) / N_FUNCTIONS)
            genes.append((p + 1.0) / 2.0)
        return Genome(np.array(genes), self.n, N_OUTPUT, C, r)


def build_tracker() -> Genome:
    b = _Builder(N_INPUT)
    red, green, blue = 0, 1, 2

    w_red = b.node("VECTORIZE", b.node("TRANSPOSE", red, -1.0), -1.0)
    w_green = b.node("VECTORIZE", b.node("TRANSPOSE", green, -1.0), -1.0)

    chain = None
    for k in range(1, GRID):
        # split parameter selecting the first 12*k flattened elements
        u = (GRID * k - 0.75) / (GRID * GRID)
        p_split = 2.0 * u - 1.0
        s = 1.0 if p_split > 0.0 else -1.0
        ball_k = b.node("SUM", b.node("SPLIT_BEFORE", w_red, p_split), s / 3.0)
        pad_k = b.node("SUM", b.node("SPLIT_BEFORE", w_green, p_split),
                       -s / 9.0)
        t_k = b.node("ADD", ball_k, 0.5, yi=pad_k)
        chain = t_k if chain is None else b.node("ADD", chain, 0.5, yi=t_k)

    neg = b.node("NOP", chain, -1.0)
    genome = b.genome([blue, chain, neg])

    # decode round-trip check: the gene quantization must land exactly
    program = decode(genome)
    assert len(program.plan) == len(b.rows)   # every node is active
    for n, spec, xi, yi, p in program.plan:
        want = b.rows[n - N_INPUT]
        assert (xi, yi, FUNCTIONS.index(spec)) == want[:3]
        assert abs(p - want[3]) < 1e-12
    assert program.outputs == [blue, chain, neg]
    return genome
