"""Truncated multivariate Taylor (jet) arithmetic.

Every derivative in this package is obtained by propagating truncated Taylor
coefficients through closed-form metric components, so sixth-order mixed
partials come out to machine precision.  A polynomial of total degree <= K in
m variables is stored as a dense coefficient vector over the multi-indices of
a `PolyBasis`, ordered by (total degree, lex).  That ordering makes
truncation a slice and embedding a zero-pad.

Two layers sit on top of the basis:

* `TaylorScalar` -- a scalar jet with operator overloading and the analytic
  functions needed by the metric catalog (sin, cos, exp, real powers).
  Coefficient arrays may carry leading batch axes, so a chart can be expanded
  at many points at once.
* `PolyTensor` + `contract` -- tensors whose components are jets, with an
  einsum-like contraction that convolves the coefficient axis.  This is what
  the curvature pipeline runs on.

Curvature tensors are mostly zero components: the ambient curvature vanishes
on every t- and rho-slot, and a product of spheres has few nonzero base
components.  `contract` therefore finds the components of each operand that
are nonzero at some batch point and joins the two supports on their shared
letters.  When the joined pairs are a small share of all component pairs it
multiplies only those; otherwise one dense einsum over every pair is faster.
`PolyTensor` itself stays dense.  The sparse kernel and `TaylorScalar`
multiplication share one jet product, `_jet_mul`; the dense kernel runs the
same `_pair_table` gather and reduceat around its einsum.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# basis bookkeeping


def _gen_multi_indices(nvars: int, order: int):
    """All exponent tuples with total degree <= order, sorted by (degree, lex)."""

    def fixed_degree(deg, nv):
        if nv == 0:  # the one monomial 1
            if deg == 0:
                yield ()
            return
        if nv == 1:
            yield (deg,)
            return
        for first in range(deg, -1, -1):
            for rest in fixed_degree(deg - first, nv - 1):
                yield (first,) + rest

    out = []
    for deg in range(order + 1):
        out.extend(sorted(fixed_degree(deg, nvars)))
    return out


class PolyBasis:
    """Multi-index bookkeeping for jets in `nvars` variables up to `order`."""

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        exps = _gen_multi_indices(nvars, order)
        self.exps = np.array(exps, dtype=np.int64).reshape(len(exps), nvars)
        self.degs = self.exps.sum(axis=1)
        self.size = len(exps)
        self._codes = self._encode(self.exps)
        csort = np.argsort(self._codes)
        self._codes_sorted = self._codes[csort]
        self._code_order = csort
        # first index of each total degree (prefix property of the ordering)
        self.deg_start = np.searchsorted(self.degs, np.arange(order + 2))

    def _encode(self, exps):
        base = self.order + 1
        weights = base ** np.arange(self.nvars, dtype=np.int64)
        return exps @ weights

    def lookup(self, exps):
        """Indices of the given exponent rows; caller guarantees membership."""
        codes = self._encode(np.asarray(exps, dtype=np.int64))
        pos = np.searchsorted(self._codes_sorted, codes)
        return self._code_order[pos]

    def index(self, alpha):
        return int(self.lookup(np.asarray(alpha).reshape(1, -1))[0])

    def __repr__(self):
        return f"PolyBasis(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def basis(nvars: int, order: int) -> PolyBasis:
    return PolyBasis(nvars, order)


@lru_cache(maxsize=None)
def _pair_table(nvars: int, order_a: int, order_b: int, order_out: int):
    """Convolution table for jet products.

    Returns (I, J, uniq_k, seg_starts): multiply A[..., I] * B[..., J],
    reduce contiguous segments, and write the sums to out[..., uniq_k].
    """
    ba, bb, bo = basis(nvars, order_a), basis(nvars, order_b), basis(nvars, order_out)
    ii, jj = [], []
    for i in range(ba.size):
        da = ba.degs[i]
        if da > order_out:
            break
        jmax = bb.deg_start[min(order_out - da, order_b) + 1]
        ii.append(np.full(jmax, i, dtype=np.int64))
        jj.append(np.arange(jmax, dtype=np.int64))
    I = np.concatenate(ii)
    J = np.concatenate(jj)
    K = bo.lookup(ba.exps[I] + bb.exps[J])
    order_idx = np.argsort(K, kind="stable")
    I, J, K = I[order_idx], J[order_idx], K[order_idx]
    uniq_k, seg_starts = np.unique(K, return_index=True)
    return I, J, uniq_k, seg_starts


@lru_cache(maxsize=None)
def _diff_table(nvars: int, order: int, var: int):
    """(gather, factor): d/dx_var maps coeffs[..., gather] * factor."""
    bin_ = basis(nvars, order)
    bout = basis(nvars, order - 1)
    shifted = bout.exps.copy()
    shifted[:, var] += 1
    gather = bin_.lookup(shifted)
    factor = shifted[:, var].astype(np.float64)
    return gather, factor


# Largest gathered array of one contraction chunk, in elements (2 MiB of
# float64).  Per call, both kernels ran fastest at 2^17 to 2^19 on the
# benchmark's quadrature and ambient calls: larger chunks leave the cache,
# smaller ones pay NumPy's per-call overhead.
_CHUNK = 1 << 18

# A call takes the sparse path when its joined pairs are at most this share
# of all component pairs.  On every `jets.contract` call of the benchmark's
# quadrature and ambient-p8 workloads, the sparse kernel won in total in each
# share bucket up to [0.3, 0.4) (by 1.7x there) and lost by 4x to 11x from
# 0.7 up; no call fell in between.
_SPARSE_SHARE = 0.4


def _jet_mul(x, y, nvars: int, order_x: int, order_y: int, order_out: int):
    """Truncated product of coefficient arrays; leading axes broadcast."""
    I, J, uniq_k, seg_starts = _pair_table(nvars, order_x, order_y, order_out)
    prod = x[..., I] * y[..., J]
    out = np.zeros(prod.shape[:-1] + (basis(nvars, order_out).size,),
                   dtype=prod.dtype)
    out[..., uniq_k] = np.add.reduceat(prod, seg_starts, axis=-1)
    return out


class PolyTensor:
    """A tensor whose components are truncated Taylor polynomials.

    `coeffs` has shape (*batch, *comps, basis.size); `batch_ndim` leading axes
    are broadcast point batches shared by every component.
    """

    __slots__ = ("coeffs", "basis", "batch_ndim")

    def __init__(self, coeffs, basis_, batch_ndim=0):
        self.coeffs = np.asarray(coeffs)
        self.basis = basis_
        self.batch_ndim = batch_ndim
        if self.coeffs.shape[-1] != basis_.size:
            raise ValueError("coefficient axis does not match basis size")

    # -- structure ---------------------------------------------------------
    @property
    def comp_shape(self):
        return self.coeffs.shape[self.batch_ndim:-1]

    @property
    def rank(self):
        return len(self.comp_shape)

    def value(self):
        """Order-zero part: the component values at the base point."""
        return self.coeffs[..., 0]

    def truncate(self, order: int) -> "PolyTensor":
        if order > self.basis.order:
            raise ValueError("cannot raise truncation order")
        if order == self.basis.order:
            return self
        b = basis(self.basis.nvars, order)
        return PolyTensor(self.coeffs[..., : b.size], b, self.batch_ndim)

    def diff(self, var: int) -> "PolyTensor":
        gather, factor = _diff_table(self.basis.nvars, self.basis.order, var)
        b = basis(self.basis.nvars, self.basis.order - 1)
        return PolyTensor(self.coeffs[..., gather] * factor, b, self.batch_ndim)

    # -- linear ops ---------------------------------------------------------
    def _align(self, other):
        o = min(self.basis.order, other.basis.order)
        return self.truncate(o), other.truncate(o)

    def __add__(self, other):
        a, b = self._align(other)
        return PolyTensor(a.coeffs + b.coeffs, a.basis, self.batch_ndim)

    def __sub__(self, other):
        a, b = self._align(other)
        return PolyTensor(a.coeffs - b.coeffs, a.basis, self.batch_ndim)

    def __neg__(self):
        return PolyTensor(-self.coeffs, self.basis, self.batch_ndim)

    def __mul__(self, scalar):
        return PolyTensor(self.coeffs * scalar, self.basis, self.batch_ndim)

    __rmul__ = __mul__


def const_poly(values, basis_, batch_ndim=0) -> PolyTensor:
    values = np.asarray(values, dtype=np.float64)
    coeffs = np.zeros(values.shape + (basis_.size,))
    coeffs[..., 0] = values
    return PolyTensor(coeffs, basis_, batch_ndim)


def contract(pattern: str, a: PolyTensor, b: PolyTensor, order: int | None = None,
             ) -> PolyTensor:
    """Einsum over component axes with convolution of the coefficient axes.

    `pattern` names only the component axes, e.g. ``'ae,eb->ab'``; batch axes
    are broadcast and the jet axis is convolved and truncated to `order`.  A
    letter must have one length wherever it appears.

    Only component pairs whose jets are both nonzero at some batch point can
    contribute.  When they are at most `_SPARSE_SHARE` of all component pairs
    (the product of every letter's dimension), only those pairs are
    multiplied; otherwise one einsum runs over every pair.  NaN and inf count
    as nonzero, so a non-finite jet reaches every output its nonzero partners
    reach.
    """
    if order is None:
        order = min(a.basis.order, b.basis.order)
    order = min(order, a.basis.order + b.basis.order)
    ins, outs = pattern.split("->")
    in_a, in_b = ins.split(",")
    batch_shape = np.broadcast_shapes(
        a.coeffs.shape[: a.batch_ndim], b.coeffs.shape[: b.batch_ndim])
    dims = {}
    for letters, arr in ((in_a, a), (in_b, b)):
        for c, n in zip(letters, arr.comp_shape):
            if dims.setdefault(c, n) != n:
                raise ValueError(f"letter {c!r} has lengths {dims[c]} and {n}")
    bout = basis(a.basis.nvars, order)
    out = np.zeros(batch_shape + tuple(dims[c] for c in outs) + (bout.size,))
    nbatch = math.prod(batch_shape)
    join = _support_join(in_a, in_b, a, b, dims)
    dense_pairs = math.prod(dims.values())
    if join is not None and join[2].sum() <= _SPARSE_SHARE * dense_pairs:
        _contract_sparse(in_a, in_b, outs, a, b, dims, join, out, order, nbatch)
    else:
        _contract_dense(in_a, in_b, outs, a, b, dims, out, order, nbatch)
    return PolyTensor(out, bout, len(batch_shape))


def _support(x: PolyTensor, letters: str):
    """Size and coordinates (one array per letter) of the support of `x`:
    the components whose jet is nonzero, NaN or inf at some batch point."""
    axes = tuple(range(x.batch_ndim)) + (x.coeffs.ndim - 1,)
    flat = np.flatnonzero(np.any(x.coeffs != 0, axis=axes))
    coords = np.unravel_index(flat, x.comp_shape) if letters else ()
    return len(flat), dict(zip(letters, coords))


def _support_join(in_a, in_b, a, b, dims):
    """Join the supports of `a` and `b` on the letters they share.

    Returns (coords_a, coords_b, counts, lo, order_b): support entry i of `a`
    pairs with the entries order_b[lo[i] : lo[i] + counts[i]] of `b`.  None
    when a letter repeats within one operand (a diagonal), which the join
    does not cover.
    """
    if len(set(in_a)) < len(in_a) or len(set(in_b)) < len(in_b):
        return None
    (na, ca), (nb, cb) = _support(a, in_a), _support(b, in_b)
    key_a, key_b = np.zeros(na, np.int64), np.zeros(nb, np.int64)
    for c in in_a:
        if c in cb:
            key_a = key_a * dims[c] + ca[c]
            key_b = key_b * dims[c] + cb[c]
    order_b = np.argsort(key_b, kind="stable")
    lo = np.searchsorted(key_b[order_b], key_a, side="left")
    counts = np.searchsorted(key_b[order_b], key_a, side="right") - lo
    return ca, cb, counts, lo, order_b


def _gather(x: PolyTensor, letters: str, coords, rows):
    """Jets of the support entries `rows` of `x`: shape (*batch, rows, P)."""
    if not letters:
        return x.coeffs[..., None, :]
    idx = tuple(coords[c][rows] for c in letters)
    return x.coeffs[(Ellipsis,) + idx + (slice(None),)]


def _contract_sparse(in_a, in_b, outs, a, b, dims, join, out, order, nbatch):
    """Multiply only the joined pairs and sum them by output component."""
    ca, cb, counts, lo, order_b = join
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    ia = np.repeat(np.arange(len(counts)), counts)
    ib = order_b[np.arange(total) + np.repeat(lo - starts, counts)]
    comp = np.zeros(total, np.int64)
    for c in outs:
        comp = comp * dims[c] + (ca[c][ia] if c in ca else cb[c][ib])
    by_comp = np.argsort(comp, kind="stable")
    ia, ib, comp = ia[by_comp], ib[by_comp], comp[by_comp]
    nv, oa, ob = a.basis.nvars, a.basis.order, b.basis.order
    # a chunk's scratch is its pair count times the batch times the jet
    # pairs of one product, the widest gathered array
    jet_pairs = len(_pair_table(nv, oa, ob, order)[0])
    step = max(1, _CHUNK // max(nbatch * jet_pairs, 1))
    flat_out = out.reshape(out.shape[: out.ndim - 1 - len(outs)]
                           + (-1, out.shape[-1]))
    for s in range(0, total, step):
        sl = slice(s, s + step)
        prod = _jet_mul(_gather(a, in_a, ca, ia[sl]),
                        _gather(b, in_b, cb, ib[sl]), nv, oa, ob, order)
        uniq, first = np.unique(comp[sl], return_index=True)
        flat_out[..., uniq, :] += np.add.reduceat(prod, first, axis=-2)


def _contract_dense(in_a, in_b, outs, a, b, dims, out, order, nbatch):
    """One einsum over every component pair, jet pair by jet pair."""
    I, J, uniq_k, seg_starts = _pair_table(
        a.basis.nvars, a.basis.order, b.basis.order, order)
    ein = f"...{in_a}P,...{in_b}P->...{outs}P"
    # chunk the pair axis only between segments so reduceat stays valid; a
    # chunk's scratch is its pair count times the batch times the widest of
    # the two gathered operands and the product
    widest = max(math.prod(a.comp_shape), math.prod(b.comp_shape),
                 math.prod(dims[c] for c in outs))
    step = max(1, _CHUNK // max(nbatch * widest, 1))
    bounds = np.append(seg_starts, len(I))
    s = 0
    while s < len(seg_starts):
        lo = bounds[s]
        e = max(s + 1, int(np.searchsorted(bounds, lo + step, "right")) - 1)
        prod = np.einsum(ein, a.coeffs[..., I[lo:bounds[e]]],
                         b.coeffs[..., J[lo:bounds[e]]], optimize=True)
        out[..., uniq_k[s:e]] = np.add.reduceat(prod, seg_starts[s:e] - lo,
                                                axis=-1)
        s = e


def poly_matrix_inverse(g: PolyTensor, order: int) -> PolyTensor:
    """Jet inverse of a square matrix of polynomials.

    Degree recursion for power-series inversion (Brent & Kung, J. ACM 1978):
    X_0 = g_0^{-1} and X_k = -X_0 R_k, where R_k = sum_{j=1..k} g_j X_{k-j}
    is the degree-k block of g X while X_k is still zero.  So degree k costs
    one `contract` at order k and one order-0 product with X_0, and g X = I
    holds in every degree up to `order`.
    """
    g = g.truncate(order) if g.basis.order > order else g
    x0 = np.linalg.inv(g.value())
    b = basis(g.basis.nvars, order)
    x = const_poly(x0, b, g.batch_ndim)
    for k in range(1, order + 1):
        blk = slice(b.deg_start[k], b.deg_start[k + 1])
        r = contract("ab,bc->ac", g, x, k).coeffs[..., blk]
        x.coeffs[..., blk] = -np.einsum("...ab,...bcm->...acm", x0, r)
    return x


# ---------------------------------------------------------------------------
# scalar jets with analytic functions


class TaylorScalar:
    """Scalar jet; thin wrapper over a coefficient vector with batch axes."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis_, coeffs):
        self.basis = basis_
        self.coeffs = np.asarray(coeffs)

    @classmethod
    def coordinate(cls, basis_, var: int, value):
        value = np.asarray(value, dtype=np.float64)
        coeffs = np.zeros(value.shape + (basis_.size,))
        coeffs[..., 0] = value
        if basis_.order >= 1:
            e = np.zeros(basis_.nvars, dtype=np.int64)
            e[var] = 1
            coeffs[..., basis_.index(e)] = 1.0
        return cls(basis_, coeffs)

    @classmethod
    def constant(cls, basis_, value):
        value = np.asarray(value)
        coeffs = np.zeros(value.shape + (basis_.size,), dtype=value.dtype)
        coeffs[..., 0] = value
        return cls(basis_, coeffs)

    @property
    def value(self):
        return self.coeffs[..., 0]

    def _coerce(self, other):
        if isinstance(other, TaylorScalar):
            return other
        return TaylorScalar.constant(self.basis, np.asarray(other))

    def __add__(self, other):
        other = self._coerce(other)
        return TaylorScalar(self.basis, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return TaylorScalar(self.basis, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return TaylorScalar(self.basis, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, TaylorScalar):
            return TaylorScalar(self.basis, self.coeffs * np.asarray(other)[..., None]
                                if np.ndim(other) else self.coeffs * other)
        return TaylorScalar(self.basis, _jet_mul(
            self.coeffs, other.coeffs, self.basis.nvars, self.basis.order,
            other.basis.order, self.basis.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorScalar):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = TaylorScalar.constant(self.basis, np.ones_like(self.value))
            for _ in range(p):
                out = out * self
            return out
        return self._compose(lambda a, k: _pow_series(a, p, k))

    def _reciprocal(self):
        return self.__pow__(-1.0)

    def _compose(self, series_coeff):
        """sum_k c_k (self - a)^k with c_k = series_coeff(a, k), via Horner."""
        a = self.value
        k_max = self.basis.order
        h = TaylorScalar(self.basis, self.coeffs.copy())
        h.coeffs = h.coeffs.copy()
        h.coeffs[..., 0] = 0.0
        out = TaylorScalar.constant(self.basis, series_coeff(a, k_max))
        for k in range(k_max - 1, -1, -1):
            out = out * h + series_coeff(a, k)
        return out

    def sin(self):
        return self._compose(lambda a, k: _trig_series(a, k, 0))

    def cos(self):
        return self._compose(lambda a, k: _trig_series(a, k, 1))

    def exp(self):
        return self._compose(lambda a, k: np.exp(a) / math.factorial(k))

    def sqrt(self):
        return self.__pow__(0.5)


def _trig_series(a, k, shift):
    f = [np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)]
    return f[(k + shift) % 4](a) / math.factorial(k)


def _pow_series(a, p, k):
    c = 1.0
    for j in range(k):
        c *= (p - j) / (j + 1)
    return c * np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64) ** (p - k)


def scalars_to_poly(entries, basis_, batch_ndim=0) -> PolyTensor:
    """Assemble a nested list of TaylorScalar/constants into a PolyTensor."""
    batch_shape = ()
    def scan(node):
        nonlocal batch_shape
        if isinstance(node, (list, tuple)):
            for n in node:
                scan(n)
        elif isinstance(node, TaylorScalar):
            batch_shape = np.broadcast_shapes(batch_shape, node.coeffs.shape[:-1])
    scan(entries)

    def to_coeffs(e):
        if isinstance(e, TaylorScalar):
            return np.broadcast_to(e.coeffs, batch_shape + (basis_.size,))
        arr = np.zeros(batch_shape + (basis_.size,))
        arr[..., 0] = float(e)
        return arr

    def recurse(node):
        if isinstance(node, (list, tuple)):
            return [recurse(n) for n in node]
        return to_coeffs(node)

    nested = recurse(entries)

    def stack(node):
        if isinstance(node, list):
            return np.stack([stack(n) for n in node], axis=batch_ndim)
        return node

    return PolyTensor(stack(nested), basis_, batch_ndim)
