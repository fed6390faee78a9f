"""Tests for the exact generalized Kronecker deltas."""

import itertools
import math

import numpy as np
import pytest

from rcint.invariants import _perm_sign
from rcint.tensor import (
    TensorError,
    kronecker_component,
    kronecker_recursion_residual,
)


def generalized_kronecker(k, dim):
    """The rank-2k normalized delta as a dense array, built from its
    signed-permutation definition; the oracle for `kronecker_component`.
    For k > dim it is the zero array."""
    comps = np.zeros((dim,) * (2 * k))
    if k <= dim:
        for a in itertools.product(range(dim), repeat=k):
            if len(set(a)) != k:
                continue
            for perm in itertools.permutations(range(k)):
                b = tuple(a[p] for p in perm)
                comps[a + b] = _perm_sign(perm) / math.factorial(k)
    return comps


class TestKronecker:
    @pytest.mark.parametrize("k,dim", [(1, 3), (2, 3), (3, 4), (4, 4)])
    def test_component_matches_dense(self, k, dim):
        delta = generalized_kronecker(k, dim)
        for a in itertools.product(range(dim), repeat=k):
            for b in itertools.product(range(dim), repeat=k):
                assert delta[a + b] == pytest.approx(
                    float(kronecker_component(a, b)), abs=1e-14)

    def test_zero_beyond_dimension(self):
        delta = generalized_kronecker(3, 2)
        assert np.abs(delta).max() == 0.0

    def test_recursion_residual_exactly_zero(self):
        for n in range(2, 9):
            for k in range(2, n + 1):
                assert kronecker_recursion_residual(k, n, samples=200) == 0

    def test_recursion_argument_validation(self):
        with pytest.raises(TensorError):
            kronecker_recursion_residual(1, 4)
        with pytest.raises(TensorError):
            kronecker_recursion_residual(5, 4)

    def test_component_length_mismatch(self):
        with pytest.raises(TensorError):
            kronecker_component((0, 1), (0,))
