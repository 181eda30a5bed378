import math
import resource

import numpy as np
import pytest

from catch_tracker import _Builder
from oracle import matrix
from pixelcgp.envs import Observation
from pixelcgp.evolution import evaluate
from pixelcgp.values import (constrain, crop_to_common, index_from_unit,
                             keep_large_arrays_in_heap, scalar_of)


def test_constrain_scalar():
    assert constrain(0.5) == 0.5
    assert constrain(3.0) == 1.0
    assert constrain(-3.0) == -1.0
    assert constrain(math.inf) == 0.0
    assert constrain(-math.inf) == 0.0
    assert constrain(math.nan) == 0.0


def test_constrain_matrix():
    m = matrix([[2.0, -2.0, 0.25], [math.nan, math.inf, -0.5]])
    out = constrain(m)
    assert np.array_equal(out, [[1.0, -1.0, 0.25], [0.0, 0.0, -0.5]])


def test_scalar_of():
    assert scalar_of(0.7) == 0.7
    assert scalar_of(matrix([[1.0, 0.0], [0.0, 1.0]])) == 0.5


def test_crop_to_common():
    a = matrix([[1, 2, 3], [4, 5, 6]])
    b = matrix([[7], [8], [9]])
    ca, cb = crop_to_common(a, b)
    assert ca.shape == cb.shape == (2, 1)
    assert ca[0, 0] == 1 and cb[1, 0] == 8


def test_index_from_unit():
    assert index_from_unit(0.0, 10) == 0
    assert index_from_unit(0.999, 10) == 9
    assert index_from_unit(1.0, 10) == 9  # clamped at the top
    assert index_from_unit(0.5, 10) == 5


def test_heap_setting_is_a_noop_without_mallopt():
    class NoMallopt:
        pass

    def no_library(name):
        raise OSError("no C library")

    def no_process_library(name):
        raise TypeError("no process-wide library")   # Windows' CDLL(None)

    class StubMallopt:     # musl's: accepts nothing, returns 0
        @staticmethod
        def mallopt(param, value):
            return 0

    for load in (lambda name: NoMallopt(), lambda name: StubMallopt(),
                 no_library, no_process_library):
        assert keep_large_arrays_in_heap(load) is False


class _Screen:
    """Fresh random 210x160 planes every frame, as an emulator's decoded
    frames are; reset restarts the same sequence."""

    n_actions = 3

    def reset(self, seed):
        self.rng = np.random.default_rng(0)
        return self._observe()

    def step(self, action):
        return self._observe(), 0.0, False

    def _observe(self):
        return Observation(*(self.rng.random((210, 160)) for _ in range(3)))


def _pixel_program():
    """Atari-sized matrix nodes, a capped PUSH row and the statistics."""
    b = _Builder(3)
    red, green, blue = 0, 1, 2
    q = b.node("SQRTXY", b.node("MULT", b.node("ADD", red, 0.9, green), 0.8,
                                 blue), 0.7, red)
    row = b.node("VECTORIZE", q, 0.6)
    turned = b.node("VECTORIZE", b.node("TRANSPOSE", green, 0.5), 0.4)
    diffs = b.node("DIFFERENCES", b.node("PUSH_BACK", row, 0.3, turned), 0.2)
    return b.genome([b.node("STDDEV", diffs, 0.9), b.node("KURTOSIS", q, 0.9),
                     b.node("MEAN", diffs, 0.9)])


@pytest.mark.skipif(not keep_large_arrays_in_heap(),
                    reason="the C library has no mallopt")
def test_large_arrays_do_not_fault_in_again():
    # without the heap setting glibc maps these arrays fresh, or trims
    # them back, and the frame costs about 35 page faults
    genome, env, frames = _pixel_program(), _Screen(), 40

    def evaluation_faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate(genome, env, 1, 0, p_fskip=0.0, frame_cap=frames)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    evaluation_faults()   # the heap grows to the program's working set
    assert evaluation_faults() < frames
