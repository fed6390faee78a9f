"""Tests for the exact generalized Kronecker deltas."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcint.invariants import _perm_sign
from rcint.tensor import (
    _BLOCK,
    TensorError,
    _det,
    _index_blocks,
    kronecker_recursion_residual,
)

#: the (k, n) pairs, samples and seed of `rcint verify kronecker`
SUITE_PAIRS = [(k, n) for n in range(2, 9) for k in range(2, n + 1)]
SUITE_SAMPLES, SUITE_SEED = 300, 0


def generalized_kronecker(k, dim):
    """The rank-2k normalized delta as a dense array, built from its
    signed-permutation definition; the oracle for `_det` over k!.
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
        # every (a, b) pair in one batched `_det`, in the dense array's
        # order; the normalized delta is that determinant over k!
        delta = generalized_kronecker(k, dim)
        ab = np.array(list(itertools.product(range(dim), repeat=2 * k)))
        got = _det(ab[:, :k], ab[:, k:]) / math.factorial(k)
        np.testing.assert_allclose(got, delta.ravel(), rtol=0, atol=1e-14)

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


def _leibniz_det(a, b):
    """det([a_i == b_j]) as the signed sum over permutations."""
    return sum(_perm_sign(p) * all(x == b[j] for x, j in zip(a, p))
               for p in itertools.permutations(range(len(a))))


@st.composite
def _tuple_batches(draw):
    """A batch of (a, b) index tuples of one length k <= 5, each either
    independent or with distinct a and b a permutation of a."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            a = draw(st.permutations(range(max(n, k))))[:k]
            pairs.append((a, draw(st.permutations(a))))
        else:
            idx = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
            pairs.append((draw(idx), draw(idx)))
    return pairs


class TestBatchedKernel:
    @settings(max_examples=200, deadline=None)
    @given(_tuple_batches())
    def test_det_matches_leibniz(self, pairs):
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        assert _det(a, b).tolist() == [_leibniz_det(*p) for p in pairs]

    def test_samples_reach_nonzero_deltas_and_catch_a_dropped_sign(self):
        """At every (k, n) of the suite, some drawn delta is nonzero, and the
        first-row expansion without its (-1)^j misses D_k somewhere."""
        for k, n in SUITE_PAIRS:
            nonzero = missed = False
            for a, b in _index_blocks(k, n, SUITE_SAMPLES, SUITE_SEED):
                det = _det(a, b)
                terms = [(a[:, 0] == b[:, j])
                         * _det(a[:, 1:], np.delete(b, j, axis=1))
                         for j in range(k)]
                assert (sum((-1) ** j * t for j, t in enumerate(terms))
                        == det).all()
                nonzero |= bool(det.any())
                missed |= bool((sum(terms) != det).any())
            assert nonzero and missed, (k, n)

    def test_blocks_hold_every_sample(self):
        samples = 3 * _BLOCK + 1
        random = [len(a) for a, _ in _index_blocks(8, 8, samples, seed=0)]
        assert sum(random) == samples and max(random) == _BLOCK
        exhaustive = [tuple(a) + tuple(b) for ab in
                      _index_blocks(3, 3, 3 ** 6, seed=0)
                      for a, b in zip(*ab)]
        assert exhaustive == list(itertools.product(range(3), repeat=6))

    def test_memory_flat_in_samples(self):
        tracemalloc.start()
        try:
            assert kronecker_recursion_residual(8, 8, samples=20000) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20
