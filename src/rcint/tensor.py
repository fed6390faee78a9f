"""Exact generalized Kronecker deltas.

The normalized delta delta^{a1..ak}_{b1..bk} = (1/k!) det(delta^{a_i}_{b_j})
is evaluated in exact integer arithmetic, by fraction-free elimination over
blocks of index tuples.  Contractions with curvature never materialize the
delta; they go through the signed-permutation expansion of `invariants.pf_ell`.
"""

import math
from fractions import Fraction

import numpy as np

_BLOCK = 256  # index tuples per block: scratch memory is flat in `samples`


class TensorError(ValueError):
    pass


def kronecker_recursion_residual(k, n, samples=300, seed=0):
    """Worst residual of the Laplace recursion for the normalized delta,

        delta_k(a; b) = (1/k) sum_j (-1)^{j-1} [a_1 = b_j]
                        * delta_{k-1}(a_2..a_k; b with b_j removed),

    as an exact Fraction over the tuples of `_index_blocks`: the integer
    D_k - sum_j (-1)^j [a_1 = b_j] D_{k-1,j} over k!, zero when exact."""
    if k < 2 or k > n:
        raise TensorError("need 2 <= k <= n")
    cols = np.array([[c for c in range(k) if c != j] for j in range(k)])
    worst = 0
    for a, b in _index_blocks(k, n, samples, seed):
        s, j = np.nonzero(a[:, :1] == b)  # the only nonzero terms
        rhs = np.zeros(len(a), dtype=np.int64)
        np.add.at(rhs, s, (-1) ** j * _det(a[s, 1:], b[s[:, None], cols[j]]))
        worst = max(worst, int(np.abs(_det(a, b) - rhs).max()))
    return Fraction(worst, math.factorial(k))


def _index_blocks(k, n, samples, seed):
    """(a, b) index tuples as pairs of (m, k) arrays, m <= _BLOCK: all of
    them in product order when n^{2k} <= samples, else `samples` random
    ones, half of each block with distinct a and b a permutation of a."""
    exhaustive = n ** (2 * k) <= samples
    total = n ** (2 * k) if exhaustive else samples
    rng = np.random.default_rng(seed)
    for start in range(0, total, _BLOCK):
        m = min(_BLOCK, total - start)
        if exhaustive:
            ab = np.stack(np.unravel_index(np.arange(start, start + m),
                                           (n,) * (2 * k)), axis=1)
        else:
            a = rng.permuted(np.tile(np.arange(n), (m // 2, 1)), axis=1)[:, :k]
            ab = np.concatenate([rng.integers(0, n, (m - m // 2, 2 * k)),
                                 np.hstack([a, rng.permuted(a, axis=1)])])
        yield ab[:, :k], ab[:, k:]


def _det(a, b):
    """det([a_i == b_j]) for (m, k) index arrays a, b, k >= 1: fraction-free
    elimination (Bareiss 1968), a pivot row per matrix.  Intermediates are
    minors, so 0 or +-1, and each exact division by a pivot is a product."""
    mat = (a[:, :, None] == b[:, None, :]).astype(np.int64)
    rows, swaps, prev = np.arange(len(mat)), 0, 1
    for i in range(a.shape[1] - 1):
        # no nonzero at or below (i, i): pivot 0 zeroes the determinant
        piv = i + (mat[:, i:, i] != 0).argmax(axis=1)
        if (piv != i).any():
            mat[rows, i], mat[rows, piv] = mat[rows, piv], mat[rows, i]
            swaps += piv != i
        p = mat[:, i, i, None, None]
        if not p.any():  # every matrix is singular
            return np.zeros(len(mat), dtype=np.int64)
        trail = mat[:, i + 1:, i + 1:]
        trail[:] = (trail * p - mat[:, i + 1:, i, None]
                    * mat[:, i, None, i + 1:]) * prev
        prev = np.where(p, p, 1)
    return (-1) ** swaps * mat[:, -1, -1]
