"""Exact generalized Kronecker deltas.

The normalized delta delta^{a1..ak}_{b1..bk} = (1/k!) det(delta^{a_i}_{b_j})
is evaluated one component at a time in exact rational arithmetic, and its
Laplace recursion is checked over random index tuples.  Contractions of
deltas against curvature never materialize the delta; they go through the
signed-permutation expansion of `invariants.pf_ell`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class TensorError(ValueError):
    pass


def kronecker_component(a, b) -> Fraction:
    """Exact value of the normalized delta at index tuples a (upper), b (lower).

    The normalized delta is det([1 if a_i == b_j else 0]) / k!.
    """
    k = len(a)
    if k != len(b):
        raise TensorError("index tuples must have equal length")
    if k == 0:
        return Fraction(1)
    mat = [[1 if a[i] == b[j] else 0 for j in range(k)] for i in range(k)]
    return Fraction(_int_det(mat), math.factorial(k))


def kronecker_recursion_residual(k, n, samples=300, seed=0):
    """Worst residual of the Laplace recursion for the normalized delta,

        delta_k(a; b) = (1/k) sum_j (-1)^{j-1} [a_1 = b_j]
                        * delta_{k-1}(a_2..a_k; b with b_j removed),

    over exact Fraction arithmetic at `samples` random index tuples
    (exhaustive when n^{2k} <= samples).  Exactness means the residual is
    identically zero.
    """
    from numpy.random import default_rng

    if k < 2 or k > n:
        raise TensorError("need 2 <= k <= n")
    if n ** (2 * k) <= samples:
        tuples = itertools.product(itertools.product(range(n), repeat=k),
                                   repeat=2)
    else:
        rng = default_rng(seed)
        tuples = ((tuple(rng.integers(0, n, k)),
                   tuple(rng.integers(0, n, k))) for _ in range(samples))
    worst = Fraction(0)
    for a, b in tuples:
        lhs = kronecker_component(a, b)
        rhs = Fraction(0)
        for j in range(k):
            if a[0] != b[j]:
                continue
            sign = -1 if j % 2 else 1
            rhs += sign * kronecker_component(a[1:], b[:j] + b[j + 1:])
        rhs /= k
        worst = max(worst, abs(lhs - rhs))
    return worst


def _int_det(mat):
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]
