"""Dense abstract-index tensor algebra over an arbitrary-signature metric.

Tensors are stored densely as numpy arrays of shape (dim,)*rank together with
a per-slot variance ('u' for upper, 'l' for lower).  Contractions are driven
by `ContractionSpec` and evaluated by einsum with greedy pairwise scheduling;
pairing two lower slots inserts one inverse-metric factor, two upper slots
one metric factor.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .invariants import _perm_sign

DEFAULT_RTOL = 1e-10

UPPER = "u"
LOWER = "l"


class TensorError(ValueError):
    pass


@dataclass(frozen=True)
class DenseTensor:
    """Rank-r, dimension-d multi-array with per-slot variance."""

    dim: int
    variance: tuple
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=np.float64)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "variance", tuple(self.variance))
        if comps.shape != (self.dim,) * len(self.variance):
            raise TensorError(
                f"components shape {comps.shape} != dim^rank for rank "
                f"{len(self.variance)}")
        if not np.all(np.isfinite(comps)):
            raise TensorError("non-finite components")
        if any(v not in (UPPER, LOWER) for v in self.variance):
            raise TensorError("variance entries must be 'u' or 'l'")

    @property
    def rank(self):
        return len(self.variance)

    @classmethod
    def scalar(cls, value, dim):
        return cls(dim, (), np.asarray(float(value)))

    def allclose(self, other, rtol=DEFAULT_RTOL):
        scale = max(np.abs(self.components).max(initial=0.0),
                    np.abs(other.components).max(initial=0.0), 1.0)
        return np.abs(self.components - other.components).max(initial=0.0) <= rtol * scale

    def max_abs(self):
        return float(np.abs(self.components).max(initial=0.0))


@dataclass
class ContractionSpec:
    """Factors plus an index-pairing plan for a (partial) contraction."""

    factors: list
    pairings: list  # [((fi, si), (fj, sj)), ...]
    free_order: list = field(default_factory=list)  # [(fi, si), ...]

    def validate(self):
        dims = {f.dim for f in self.factors}
        if len(dims) > 1:
            raise TensorError("factors have mismatched dimensions")
        seen = set()
        for a, b in self.pairings:
            for slot in (a, b):
                if slot in seen:
                    raise TensorError(f"slot {slot} used in more than one pairing")
                seen.add(slot)
                fi, si = slot
                if not (0 <= fi < len(self.factors)):
                    raise TensorError("factor index out of range")
                if not (0 <= si < self.factors[fi].rank):
                    raise TensorError("slot index out of range")
        all_slots = {(fi, si) for fi, f in enumerate(self.factors)
                     for si in range(f.rank)}
        free = all_slots - seen
        if not self.free_order:
            self.free_order = sorted(free)
        elif set(self.free_order) != free:
            raise TensorError("free_order does not match unpaired slots")


def tensor_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    if a.dim != b.dim:
        raise TensorError("dimension mismatch in tensor product")
    comps = np.multiply.outer(a.components, b.components)
    return DenseTensor(a.dim, a.variance + b.variance, comps)


def _inverse(metric: DenseTensor) -> np.ndarray:
    try:
        return np.linalg.solve(metric.components, np.eye(metric.dim))
    except np.linalg.LinAlgError as exc:
        raise TensorError("singular metric") from exc


def contract(spec: ContractionSpec, metric: DenseTensor,
             inverse_metric: DenseTensor | None = None,
             schedule: str = "greedy") -> DenseTensor:
    """Evaluate a contraction plan.

    Lower-lower pairings insert an inverse-metric factor and upper-upper
    pairings a metric factor, so the result is the abstract-index value
    regardless of how each factor's slots happen to sit.
    """
    spec.validate()
    if inverse_metric is None:
        inverse_metric = DenseTensor(metric.dim, (UPPER, UPPER), _inverse(metric))

    letters = itertools.cycle(string.ascii_letters)
    slot_letter = {}
    operands = [f.components for f in spec.factors]
    subs = [[None] * f.rank for f in spec.factors]
    extra_ops = []
    extra_subs = []

    for (fi, si), (fj, sj) in spec.pairings:
        vi = spec.factors[fi].variance[si]
        vj = spec.factors[fj].variance[sj]
        if vi != vj:
            c = next(letters)
            subs[fi][si] = c
            subs[fj][sj] = c
        else:
            c1, c2 = next(letters), next(letters)
            subs[fi][si] = c1
            subs[fj][sj] = c2
            if vi == LOWER:
                extra_ops.append(inverse_metric.components)
            else:
                extra_ops.append(metric.components)
            extra_subs.append(c1 + c2)

    out = []
    out_variance = []
    for fi, si in spec.free_order:
        c = next(letters)
        subs[fi][si] = c
        out.append(c)
        out_variance.append(spec.factors[fi].variance[si])

    expr = ",".join("".join(s) for s in subs)
    if extra_subs:
        expr += "," + ",".join(extra_subs)
    expr += "->" + "".join(out)
    result = np.einsum(expr, *(operands + extra_ops), optimize=schedule)
    return DenseTensor(metric.dim, tuple(out_variance), result)


def raise_lower(t: DenseTensor, slot: int, metric: DenseTensor,
                inverse_metric: DenseTensor | None = None) -> DenseTensor:
    if not (0 <= slot < t.rank):
        raise TensorError("slot out of range")
    if inverse_metric is None:
        inverse_metric = DenseTensor(metric.dim, (UPPER, UPPER), _inverse(metric))
    m = inverse_metric.components if t.variance[slot] == LOWER else metric.components
    comps = np.tensordot(t.components, m, axes=([slot], [0]))
    comps = np.moveaxis(comps, -1, slot)
    flipped = UPPER if t.variance[slot] == LOWER else LOWER
    variance = t.variance[:slot] + (flipped,) + t.variance[slot + 1:]
    return DenseTensor(t.dim, variance, comps)


def _permute_average(t: DenseTensor, slots, signed: bool) -> DenseTensor:
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        raise TensorError("repeated slot in symmetrization")
    if len({t.variance[s] for s in slots}) > 1:
        raise TensorError("symmetrized slots must share variance")
    acc = np.zeros_like(t.components)
    for perm in itertools.permutations(range(len(slots))):
        axes = list(range(t.rank))
        for pos, p in enumerate(perm):
            axes[slots[pos]] = slots[p]
        term = np.transpose(t.components, axes)
        if signed:
            acc += _perm_sign(perm) * term
        else:
            acc += term
    return DenseTensor(t.dim, t.variance, acc / math.factorial(len(slots)))


def symmetrize(t: DenseTensor, slots) -> DenseTensor:
    return _permute_average(t, slots, signed=False)


def antisymmetrize(t: DenseTensor, slots) -> DenseTensor:
    return _permute_average(t, slots, signed=True)


# ---------------------------------------------------------------------------
# generalized Kronecker deltas


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
    import itertools
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


MAX_MATERIALIZED_K = 4


def generalized_kronecker(k: int, dim: int) -> DenseTensor:
    """The rank-2k normalized delta as a dense tensor (small k only).

    For k > dim the result is the zero tensor.  For k > MAX_MATERIALIZED_K
    the dense array would be astronomically large; contractions against such
    deltas must go through the signed-permutation expansion instead (see
    `invariants.pf_ell` and `kronecker_component`).
    """
    if k < 1:
        raise TensorError("k must be >= 1")
    if k > MAX_MATERIALIZED_K:
        raise TensorError(
            f"refusing to materialize a rank-{2*k} delta; use "
            "kronecker_component / signed-permutation evaluation")
    variance = (UPPER,) * k + (LOWER,) * k
    comps = np.zeros((dim,) * (2 * k))
    if k <= dim:
        for a in itertools.product(range(dim), repeat=k):
            if len(set(a)) != k:
                continue
            for perm in itertools.permutations(range(k)):
                b = tuple(a[p] for p in perm)
                comps[a + b] = _perm_sign(perm) / math.factorial(k)
    return DenseTensor(dim, variance, comps)


@lru_cache(maxsize=None)
def _eye(dim):
    return np.eye(dim)


def identity_metric(dim) -> DenseTensor:
    return DenseTensor(dim, (LOWER, LOWER), _eye(dim).copy())
