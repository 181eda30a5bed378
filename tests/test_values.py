import math

import numpy as np

from oracle import matrix
from pixelcgp.values import (constrain, crop_to_common, index_from_unit,
                             scalar_of)


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
