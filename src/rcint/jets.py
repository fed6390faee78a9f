"""Truncated multivariate Taylor (jet) arithmetic.

Every derivative in this package is obtained by propagating truncated Taylor
coefficients through closed-form metric components, so sixth-order mixed
partials come out to machine precision.  A polynomial of total degree <= K in
m variables is stored as a dense coefficient vector over the multi-indices of
a `PolyBasis`, ordered by (total degree, lex).  That ordering makes
truncation a slice and embedding a zero-pad.

One jet type sits on top of the basis: `PolyTensor`, a tensor whose
components are jets, with leading batch axes so a chart can be expanded at
many points at once.  `contract` is its product over lettered component
axes, convolving the coefficient axis at the lower order of the two
operands; the curvature pipeline runs on it.  A rank-0 PolyTensor is a
scalar jet with operator overloading and the analytic functions the metric
catalog needs (sin, cos, real powers); `const_poly` and `coordinate_poly`
build the constant and coordinate jets.

One cached plan per pattern (`_contract_plan`) serves the three ways a
contraction runs.  At output order 0 it is one batched matmul of the values.
At higher orders `contract` reads the supports of its operands, the
components that are nonzero at some batch point, truncated to the product's
order.  When both are full, as for a dense chart or random metric at many
points, it runs `_jet_mul`'s passes with one batched matmul over the
components each (`_full_product`).  Otherwise it joins the supports on
their shared letters and multiplies only those pairs: curvature tensors are
mostly zero components, since the ambient curvature vanishes on every t- and
rho-slot and a product of spheres has few nonzero base components.
`PolyTensor` stores its coefficients densely.  Its support is the one the
higher-order path that made it stored, or else `_support` scans it the
first time a contraction reads it at its own order and stores that; a read
at a lower order scans the coefficients to it and stores nothing.  No other
operation passes one on, so negations, scalings, `diff`, `truncate` and
sums are scanned; a sum must be, as it cancels exactly on some components
(`riemann_up`'s `-t1 + t2` on its a = b slots).  A join depends on the two
supports, the shapes and the chunking alone, so `_JOINS` keeps each one, up
to `_JOIN_LIMIT` of them: a pipeline repeated on points of the same sparsity
joins nothing again.  The support kernel and the scalar-jet product share
one jet product, `_jet_mul`, which sums the jet pairs coefficient-major,
with the coefficient axis first in its scratch arrays: `_pair_table` orders
the pairs so that each pass adds whole contiguous rows into a prefix of the
running sums.  The kernel keeps that layout, sums by one reshape-sum per
block of equal pair counts and transposes once.

Importing this module fixes glibc's mmap and trim thresholds for the whole
process (at 32 and 128 MiB), so freed jet arrays stay in the heap and the
next product reuses them instead of faulting new pages in.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

import numpy as np

# glibc returns a freed block above its mmap threshold to the kernel and
# trims the top of its heap beyond its trim threshold, so each repetition of
# the pipeline would fault its multi-MB jet arrays in again.  Fixed
# thresholds keep those blocks in the heap for reuse, for the whole process.
# Both are set: either alone faults more than the defaults do.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no glibc
    pass
else:
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


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


@lru_cache(maxsize=None)
def basis(nvars: int, order: int) -> PolyBasis:
    return PolyBasis(nvars, order)


@lru_cache(maxsize=None)
def _pair_table(nvars: int, order_a: int, order_b: int, order_out: int):
    """Convolution table for jet products, for order_out <= order_a + order_b.

    Returns (I, J, slot, offs).  Coefficient k of the product is running sum
    slot[k], the sum of A[..., I] * B[..., J] over the pairs whose exponents
    add up to k.  The pairs run rank by rank within their sum, and the sums
    longest first, so pass r, the pairs offs[r]:offs[r + 1], adds into the
    first offs[r + 1] - offs[r] running sums.
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
    lens = np.bincount(K, minlength=bo.size)
    slot = np.argsort(np.argsort(-lens, kind="stable"))
    by_k = np.argsort(K, kind="stable")
    rank = np.empty_like(K)
    rank[by_k] = np.arange(len(K)) - np.repeat(np.cumsum(lens) - lens, lens)
    pos = np.lexsort((slot[K], rank))
    offs = np.searchsorted(rank[pos], np.arange(lens.max() + 1))
    return I[pos], J[pos], slot, tuple(offs.tolist())


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
# float64).  Per call, the kernel ran fastest at 2^17 to 2^19 on the
# benchmark's quadrature and ambient calls: larger chunks leave the cache,
# smaller ones pay NumPy's per-call overhead.
_CHUNK = 1 << 18


def _jet_mul(x, y, nvars: int, order_x: int, order_y: int, order_out: int):
    """Truncated product of coefficient arrays; leading axes broadcast.

    Runs coefficient-major: both operands are copied with the coefficient
    axis first and the leading axes reversed (no copy when that `.T` is
    contiguous already), so every gather takes whole contiguous rows, and
    each pass of `_pair_table` adds its products into a prefix of the
    running sums.  The product keeps that layout, shape (P, *reversed
    leading axes); its `.T` is coefficient-last.
    """
    I, J, slot, offs = _pair_table(nvars, order_x, order_y, order_out)
    nd = max(x.ndim, y.ndim)
    # transposed copies: coefficient axis first, leading axes reversed
    xt, yt = (np.ascontiguousarray(v.reshape((1,) * (nd - v.ndim) + v.shape).T)
              for v in (x, y))
    sums = xt.take(I[: offs[1]], 0) * yt.take(J[: offs[1]], 0)
    for lo, hi in zip(offs[1:-1], offs[2:]):
        sums[: hi - lo] += xt.take(I[lo:hi], 0) * yt.take(J[lo:hi], 0)
    return sums.take(slot, 0)


class PolyTensor:
    """A tensor whose components are truncated Taylor polynomials.

    `coeffs` has shape (*batch, *comps, basis.size); `batch_ndim` leading axes
    are broadcast point batches shared by every component.  A rank-0
    PolyTensor is a scalar jet: `+`, `-`, `*`, `/` and `**` combine it with
    numbers, per-point arrays (one value per batch point) and other scalar
    jets, and it has sin and cos.  The result keeps the larger
    `batch_ndim` of the two operands.  Tensors of rank >= 1 add, subtract
    and scale; their products are `contract`.

    `support` is None or the sorted flat indices (into `comp_shape`) of a
    superset of the components whose jet is nonzero, NaN or inf at some
    batch point.  Only `contract` sets it, on the tensor it makes and, by
    `_support`, on an operand it scans, so writing into `coeffs` once it is
    set leaves it stale: build a new PolyTensor instead.
    """

    __slots__ = ("coeffs", "basis", "batch_ndim", "support")
    __array_ufunc__ = None  # `array * jet` calls the jet's reflected operator

    def __init__(self, coeffs, basis_, batch_ndim=0, support=None):
        self.coeffs = np.asarray(coeffs)
        self.basis = basis_
        self.batch_ndim = batch_ndim
        self.support = support
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
        """The jets to `order`, a view of the coefficients."""
        if not 0 <= order <= self.basis.order:
            raise ValueError(f"cannot truncate to order {order}")
        if order == self.basis.order:
            return self
        b = basis(self.basis.nvars, order)
        return PolyTensor(self.coeffs[..., : b.size], b, self.batch_ndim)

    def diff(self, var: int) -> "PolyTensor":
        if self.basis.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        gather, factor = _diff_table(self.basis.nvars, self.basis.order, var)
        b = basis(self.basis.nvars, self.basis.order - 1)
        return PolyTensor(self.coeffs[..., gather] * factor, b,
                          self.batch_ndim)

    # -- arithmetic ----------------------------------------------------------
    def _align(self, other):
        o = min(self.basis.order, other.basis.order)
        return self.truncate(o), other.truncate(o)

    def _per_point(self, values):
        """A number, or per-point values (one per batch point) given an axis
        of length 1 for each component axis, so they broadcast over the
        batch axes."""
        return np.reshape(values, np.shape(values) + (1,) * self.rank)

    def _jet(self, other) -> "PolyTensor":
        """`other`, a number or per-point array made a constant jet."""
        if isinstance(other, PolyTensor):
            return other
        return const_poly(self._per_point(other), self.basis, np.ndim(other))

    def __add__(self, other):
        a, b = self._align(self._jet(other))
        return PolyTensor(a.coeffs + b.coeffs, a.basis,
                          max(a.batch_ndim, b.batch_ndim))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._align(self._jet(other))
        return PolyTensor(a.coeffs - b.coeffs, a.basis,
                          max(a.batch_ndim, b.batch_ndim))

    def __rsub__(self, other):
        return self._jet(other) - self

    def __neg__(self):
        return PolyTensor(-self.coeffs, self.basis, self.batch_ndim)

    def __mul__(self, other):
        if not isinstance(other, PolyTensor):
            return PolyTensor(self.coeffs * self._per_point(other)[..., None],
                              self.basis, max(self.batch_ndim, np.ndim(other)))
        if self.rank or other.rank:
            raise ValueError("* multiplies scalar jets; contract tensors")
        nv, oa, ob = self.basis.nvars, self.basis.order, other.basis.order
        return PolyTensor(_jet_mul(self.coeffs, other.coeffs, nv, oa, ob,
                                   min(oa, ob)).T, basis(nv, min(oa, ob)),
                          max(self.batch_ndim, other.batch_ndim))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PolyTensor):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        # a non-negative integral power is a repeated product: the series
        # would raise a zero value to a negative power
        if (isinstance(p, numbers.Integral)
                or isinstance(p, float) and p.is_integer()) and p >= 0:
            out = const_poly(np.ones_like(self.value()), self.basis,
                             self.batch_ndim)
            for _ in range(int(p)):
                out = out * self
            return out
        return self._compose(lambda a, k: _pow_series(a, p, k))

    def _reciprocal(self):
        return self ** -1.0

    def _compose(self, series_coeff):
        """sum_k c_k (self - a)^k with c_k = series_coeff(a, k), via Horner."""
        a = self.value()
        h = PolyTensor(self.coeffs.copy(), self.basis, self.batch_ndim)
        h.coeffs[..., 0] = 0.0
        out = const_poly(series_coeff(a, self.basis.order), self.basis,
                         self.batch_ndim)
        for k in range(self.basis.order - 1, -1, -1):
            out = out * h + series_coeff(a, k)
        return out

    def sin(self):
        return self._compose(lambda a, k: _trig_series(a, k, 0))

    def cos(self):
        return self._compose(lambda a, k: _trig_series(a, k, 1))


def _trig_series(a, k, shift):
    f = [np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)]
    return f[(k + shift) % 4](a) / math.factorial(k)


def _pow_series(a, p, k):
    c = 1.0
    for j in range(k):
        c *= (p - j) / (j + 1)
    return c * np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64) ** (p - k)


def const_poly(values, basis_, batch_ndim=0) -> PolyTensor:
    """Constant jets with the given values; complex values stay complex."""
    values = np.asarray(values)
    coeffs = np.zeros(values.shape + (basis_.size,),
                      dtype=np.result_type(values, 0.0))
    coeffs[..., 0] = values
    return PolyTensor(coeffs, basis_, batch_ndim)


def coordinate_poly(basis_, var: int, values) -> PolyTensor:
    """The jet of jet variable `var` expanded at `values` (a number or one
    value per batch point)."""
    x = const_poly(values, basis_, np.ndim(values))
    if basis_.order >= 1:
        e = np.zeros(basis_.nvars, dtype=np.int64)
        e[var] = 1
        x.coeffs[..., basis_.index(e)] = 1.0
    return x


def scalars_to_poly(entries, basis_, batch_ndim=0) -> PolyTensor:
    """Stack a nested list of scalar jets, numbers and per-point arrays
    into a PolyTensor.

    The leaves broadcast over their leading axes and promote to one dtype,
    complex included, as constant jets of numbers would; the coefficients
    are one array of shape (*leading axes, *grid, basis size), each leaf
    written into its slot.
    """
    grid, leaves = (), [entries]
    while leaves and isinstance(leaves[0], (list, tuple)):
        n = len(leaves[0])
        if any(not isinstance(e, (list, tuple)) or len(e) != n
               for e in leaves):
            raise ValueError("entries must be a rectangular nested list")
        grid += (n,)
        leaves = [x for row in leaves for x in row]
    # a number, or per-point array, is the value of a constant jet: one
    # coefficient, written into the value slot and promoted with 0.0 as
    # `const_poly` promotes it
    cols = [e.coeffs if isinstance(e, PolyTensor)
            else np.asarray(e)[..., None] for e in leaves]
    lead = np.broadcast_shapes(*(v.shape[:-1] for v in cols))
    coeffs = np.zeros(lead + (len(cols), basis_.size),
                      np.result_type(*cols, 0.0))
    for i, v in enumerate(cols):
        coeffs[..., i, :v.shape[-1]] = v
    return PolyTensor(coeffs.reshape(lead + grid + (basis_.size,)), basis_,
                      batch_ndim)


def contract(pattern: str, a: PolyTensor, b: PolyTensor, order: int | None = None,
             ) -> PolyTensor:
    """Product over lettered component axes, convolving the coefficient
    axes.

    `pattern` names only the component axes, e.g. ``'ae,eb->ab'``; batch axes
    are broadcast.  Each operand's letters name its component axes once
    each, the output names input letters once each, a letter has one length
    wherever it appears, and a letter the output leaves out is summed, so
    both operands name it; any other pattern, or one that is not two
    operands and an output, raises `ValueError` on every call.  A trace is
    `geometry.pt_trace`, not a repeated letter.  `_contract_plan` reads a
    pattern once per operand shapes.

    The product has the lower order of the two operands, the most their
    coefficients determine; `order` may lower it, and any other order
    raises `ValueError`.  The supports are read to the product's order
    (`_support(x, order)`), so the result has the bits, inf and NaN
    included, of the product of the operands truncated to it.

    At output order 0 the result is one batched matmul of the two values
    (`_value_product`) in a fresh array.  A real NaN or inf reaches every
    output its terms reach, as in their sum; a complex one makes the same
    outputs non-finite, though it may leave NaN and inf in other parts.

    At higher orders only component pairs whose jets are both nonzero at
    some batch point can contribute; the supports name them.  When both
    supports hold every component, `_full_product` multiplies all pairs by
    one batched matmul per pass of `_pair_table`, and the result's
    `support` is every component.  Otherwise the supports are joined on the
    shared letters, once per distinct input (`_JOINS`), only those pairs
    are multiplied, by `_jet_mul`, and the output components they reach
    become the result's `support`.  The choice rests on the supports
    alone, so a stored and a scanned support give the same bits.  NaN and
    inf count as nonzero, so a non-finite jet reaches every output its
    partners in the supports reach.  The result keeps the operands' dtype,
    complex included.
    """
    top = min(a.basis.order, b.basis.order)
    order = top if order is None else order
    if not 0 <= order <= top:
        raise ValueError(f"contract at order {order}; operands of order "
                         f"{a.basis.order} and {b.basis.order} give a jet "
                         f"product of order >= 0 and <= {top}")
    shapes = (pattern, a.coeffs.shape[:-1], a.batch_ndim, b.coeffs.shape[:-1],
              b.batch_ndim)
    plan = _contract_plan(*shapes)
    bout, nbatch = basis(a.basis.nvars, order), len(plan.batch_shape)
    if order == 0:  # one jet pair, (0, 0): the product of the values
        val = _value_product(plan, a.value(), b.value())
        return PolyTensor(val[..., None], bout, nbatch)
    sa, sb = _support(a, order), _support(b, order)
    if (len(sa) == math.prod(a.comp_shape)
            and len(sb) == math.prod(b.comp_shape)):
        out = _full_product(plan, a, b, order)
        return PolyTensor(out, bout, nbatch,
                          np.arange(math.prod(out.shape[nbatch:-1])))
    out, support = _contract_support(shapes, plan, a, b, order, sa, sb)
    return PolyTensor(out, bout, nbatch, support)


#: `_contract_plan`'s result; `dims` is a read-only map from letter to length
_Plan = namedtuple("_Plan", "in_a in_b outs dims batch_shape layout")


@lru_cache(maxsize=None)
def _contract_plan(pattern, shape_a, nb_a, shape_b, nb_b):
    """`contract`'s reading of `pattern` for operands with these shapes
    (batch and component axes) and batch ndims, as a `_Plan`.  Its
    `layout` is `_value_product`'s: `a` as (kept, a only, summed) by `b` as
    (kept, summed, b only), each group in its operand's letter order and
    shared letters in that of `a`, so renamed letters give the same array.
    An invalid pattern raises `ValueError`, and `lru_cache` keeps no
    exception, so every call checks it again."""
    try:
        ins, outs = pattern.split("->")
        in_a, in_b = ins.split(",")
    except ValueError:
        raise ValueError(f"{pattern!r} is not of the form "
                         f"'<letters>,<letters>-><letters>'") from None
    batch_shape = np.broadcast_shapes(shape_a[:nb_a], shape_b[:nb_b])
    if len(set(outs)) < len(outs) or not set(outs) <= set(in_a + in_b):
        raise ValueError(f"{pattern!r}: the output must name input letters "
                         f"once each")
    dims = {}
    for letters, comp in ((in_a, shape_a[nb_a:]), (in_b, shape_b[nb_b:])):
        if len(letters) != len(comp) or len(set(letters)) < len(letters):
            raise ValueError(f"{pattern!r}: {letters!r} must name the "
                             f"{len(comp)} axes of its operand once each")
        for c, n in zip(letters, comp):
            if dims.setdefault(c, n) != n:
                raise ValueError(f"letter {c!r} has lengths {dims[c]} and {n}")
    lone = sorted(set(in_a).symmetric_difference(in_b) - set(outs))
    if lone:
        raise ValueError(f"{pattern!r}: letter {lone[0]!r} is summed, so "
                         f"both operands must name it")
    kept = [c for c in in_a if c in in_b and c in outs]
    summed = [c for c in in_a if c not in outs]
    rows = [c for c in in_a if c not in in_b]
    cols = [c for c in in_b if c not in in_a]
    layout = tuple(
        (tuple(range(nb)) + tuple(nb + s.index(c) for g in gs for c in g),
         shape[:nb] + tuple(math.prod(dims[c] for c in g) for g in gs))
        for s, shape, nb, gs in ((in_a, shape_a, nb_a, (kept, rows, summed)),
                                 (in_b, shape_b, nb_b, (kept, summed, cols))))
    nb, letters = len(batch_shape), kept + rows + cols
    layout += ((batch_shape + tuple(dims[c] for c in letters),
                tuple(range(nb)) + tuple(nb + letters.index(c) for c in outs)),)
    return _Plan(in_a, in_b, outs, MappingProxyType(dims), batch_shape,
                 layout)


def _value_product(plan: _Plan, x, y):
    """`contract` of two value arrays (batch axes first) by `plan`: one
    batched `np.matmul`, real or complex, in the plan's `layout`."""
    (axes_x, mat_x), (axes_y, mat_y), (shape, axes) = plan.layout
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN
        val = np.matmul(x.transpose(axes_x).reshape(mat_x),
                        y.transpose(axes_y).reshape(mat_y))
    return val.reshape(shape).transpose(axes)


def _full_product(plan: _Plan, a, b, order):
    """`contract` at `order` >= 1 of operands whose supports to `order` are
    full: `_jet_mul`'s passes, each one batched `np.matmul` of the jet rows
    it pairs, in `plan.layout`.  Shape (*batch, *output components, basis
    size), a view with the coefficient axis first in memory."""
    nv, nbatch = a.basis.nvars, len(plan.batch_shape)
    I, J, slot, offs = _pair_table(nv, a.basis.order, b.basis.order, order)
    dtype = np.result_type(a.coeffs, b.coeffs, 0.0)
    # each operand copied once: coefficient axis first, then the padded
    # batch and its matrix axes
    xt, yt = (np.ascontiguousarray(
        x.coeffs[..., : len(slot)].transpose((x.coeffs.ndim - 1,) + axes),
        dtype).reshape((len(slot),) + (1,) * (nbatch - x.batch_ndim) + mat)
        for x, (axes, mat) in zip((a, b), plan.layout))
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN
        sums = np.matmul(_rows(xt, I[: offs[1]]), _rows(yt, J[: offs[1]]))
        part = np.empty_like(sums)
        for lo, hi in zip(offs[1:-1], offs[2:]):
            np.matmul(_rows(xt, I[lo:hi]), _rows(yt, J[lo:hi]),
                      out=part[: hi - lo])
            sums[: hi - lo] += part[: hi - lo]
    shape, axes = plan.layout[2]
    out = sums.take(slot, 0).reshape((len(slot),) + shape)
    return out.transpose(tuple(k + 1 for k in axes) + (0,))


def _rows(t, idx):
    """`t.take(idx, 0)`, or a view of the one row `idx` repeats, which
    `np.matmul` broadcasts: the first pass of every jet product pairs the
    constant term of the first operand with each row of the second."""
    return t[idx[0], None] if (idx == idx[0]).all() else t.take(idx, 0)


def _support(x: PolyTensor, order: int):
    """The sorted flat indices (into `comp_shape`) of the components of
    `x` whose jet to `order` is nonzero, NaN or inf at some batch point.

    At the order of `x` it is `x.support`, stored by the `contract` that
    made `x` or by a scan the first time it is read.  Below it, rows may
    vanish: a scan of the coefficients to `order`, stored nowhere.  The
    scan reads the first batch point, and stops if every component is
    nonzero there, as at one point; else it reduces the batch axes, then
    the coefficient axis.  No batch point means an empty support.
    """
    if order == x.basis.order and x.support is not None:
        return x.support
    c, nb = x.coeffs[..., : basis(x.basis.nvars, order).size], x.batch_ndim
    points = math.prod(c.shape[:nb])
    hit = (c[(0,) * nb].any(-1) if points else np.zeros(x.comp_shape, bool))
    if points > 1 and not hit.all():
        hit = c.any(tuple(range(nb))).any(-1)
    if order < x.basis.order:
        return np.flatnonzero(hit)
    x.support = np.flatnonzero(hit)
    return x.support


#: `_join`'s result: the pairs (support entries `ia` of `a` and `ib` of
#: `b`) run by the pair count of their output component, then by
#: component `comp`; `chunks` holds (p0, p1, blocks), the pairs p0:p1 of
#: one `_jet_mul` product and its blocks (q0, q1, pair count); `support`
#: is the sorted output components reached
_Join = namedtuple("_Join", "ia ib comp chunks support")

#: `_contract_support`'s joins by everything they depend on, oldest first;
#: each holds index arrays of O(pairs) size.  A dict, not an `lru_cache`:
#: perfbench replays the arguments of every `lru_cache` from JSON, and these
#: keys hold bytes
_JOINS = {}
_JOIN_LIMIT = 512


def _join(plan: _Plan, sa, sb, step):
    """Join the supports `sa` of `a` and `sb` of `b` on their shared
    letters, as a `_Join` in chunks of whole components, each starting at
    the first component of its window of `step` pairs."""
    in_a, in_b, outs, dims, _, _ = plan
    ca, cb = (dict(zip(s, np.unravel_index(sup, [dims[c] for c in s])))
              if s else {} for s, sup in ((in_a, sa), (in_b, sb)))
    key_a, key_b = np.zeros(len(sa), np.int64), np.zeros(len(sb), np.int64)
    for c in in_a:
        if c in cb:
            key_a = key_a * dims[c] + ca[c]
            key_b = key_b * dims[c] + cb[c]
    order_b = np.argsort(key_b, kind="stable")
    lo = np.searchsorted(key_b[order_b], key_a, side="left")
    counts = np.searchsorted(key_b[order_b], key_a, side="right") - lo
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    ia = np.repeat(np.arange(len(counts)), counts)
    ib = order_b[np.arange(total) + np.repeat(lo - starts, counts)]
    comp = np.zeros(total, np.int64)
    for c in outs:
        comp = comp * dims[c] + (ca[c][ia] if c in ca else cb[c][ib])
    runs = np.bincount(comp)  # the pair count of each output component
    by_run = np.argsort(runs[comp] * len(runs) + comp, kind="stable")
    ia, ib, comp = ia[by_run], ib[by_run], comp[by_run]
    new = comp[1:] != comp[:-1]  # components start where comp changes
    heads = np.flatnonzero(np.concatenate(([total > 0], new)))
    blocks = heads[1:][np.diff(runs[comp[heads]]) != 0].tolist()
    chunks = [*heads[:1].tolist(),
              *heads[1:][np.diff(heads // step) != 0].tolist()]
    spans = []
    for p0, p1 in zip(chunks, chunks[1:] + [total]):
        cuts = [p0, *(q for q in blocks if p0 < q < p1), p1]
        spans.append((p0, p1, [(q0, q1, int(runs[comp[q0]]))
                               for q0, q1 in zip(cuts, cuts[1:])]))
    return _Join(ia, ib, comp, spans, np.sort(comp[heads]))


def _support_rows(x: PolyTensor, support, nbatch: int, size: int):
    """The jets of `support` in `x` to coefficient `size`, coefficient-major
    and contiguous: shape (size, support, *reversed batch), the batch first
    padded to `nbatch` axes.  A full support is every row: no gather."""
    lead = (1,) * (nbatch - x.batch_ndim) + x.coeffs.shape[: x.batch_ndim]
    flat = x.coeffs.reshape(lead + (math.prod(x.comp_shape), x.basis.size))
    flat = flat[..., :size]
    if len(support) < flat.shape[-2]:
        flat = flat[..., support, :]
    return np.ascontiguousarray(flat.T)


def _contract_support(shapes, plan: _Plan, a, b, order, sa, sb):
    """Multiply only the joined pairs and sum them by output component:
    `contract` at `order` >= 1 when the supports `sa` of `a` and `sb` of
    `b` to `order` are not both full.

    The supports are joined once per distinct input: `_JOINS` keeps each
    `_join` by `shapes` (the pattern and operand shapes `plan` was read
    for), the bytes of both supports, the number of jet variables, both
    operand orders, `order` and the chunk step, and drops the oldest
    beyond `_JOIN_LIMIT`.  The pairs run by the pair count
    L of their output component, then by component: a block of equal L is
    whole components of L pairs.  A chunk of whole components makes one
    `_jet_mul` product, and a reshape-sum over each block's L axis writes
    its components.  Returns the output and the distinct output components
    reached.
    """
    outs, dims, batch_shape = plan.outs, plan.dims, plan.batch_shape
    nv, oa, ob = a.basis.nvars, a.basis.order, b.basis.order
    # a chunk's scratch is about `step` pairs times the batch times the jet
    # pairs of one product
    jet_pairs = len(_pair_table(nv, oa, ob, order)[0])
    step = max(1, _CHUNK // max(math.prod(batch_shape) * jet_pairs, 1))
    key = (shapes, sa.tobytes(), sb.tobytes(), nv, oa, ob, order, step)
    join = _JOINS.get(key)
    if join is None:
        join = _JOINS[key] = _join(plan, sa, sb, step)
        while len(_JOINS) > _JOIN_LIMIT:
            del _JOINS[next(iter(_JOINS))]
    size = basis(nv, order).size
    out = np.zeros((size,
                    math.prod(dims[c] for c in outs)) + batch_shape[::-1],
                   np.result_type(a.coeffs, b.coeffs, 0.0))
    # the `.T` of a gathered chunk is contiguous, so `_jet_mul` copies none
    ra, rb = (_support_rows(x, s, len(batch_shape), size)
              for x, s in ((a, sa), (b, sb)))
    ia, ib, comp = join.ia, join.ib, join.comp
    for p0, p1, blocks in join.chunks:
        prod = _jet_mul(ra.take(ia[p0:p1], 1).T, rb.take(ib[p0:p1], 1).T,
                        nv, oa, ob, order)
        for q0, q1, n in blocks:
            seg = prod[:, q0 - p0:q1 - p0]
            out[:, comp[q0:q1:n]] = seg.reshape(
                (len(seg), -1, n) + seg.shape[2:]).sum(2)
    shape = batch_shape + tuple(dims[c] for c in outs) + (size,)
    return out.T.reshape(shape), join.support


def poly_matrix_inverse(g: PolyTensor) -> PolyTensor:
    """Jet inverse of a square matrix of polynomials, to the order of `g`.

    Degree recursion for power-series inversion (Brent & Kung, J. ACM 1978):
    X_0 = g_0^{-1} and X_k = -X_0 R_k, where R_k = sum_{j=1..k} g_j X_{k-j}
    is the degree-k block of g X while X_k is still zero.  So degree k costs
    one `contract` at order k and one order-0 product with X_0, and g X = I
    holds in every degree of `g`.  A lower order is `g.truncate(k)`.
    """
    x0 = np.linalg.inv(g.value())
    b, nb = g.basis, g.batch_ndim
    x = const_poly(x0, b, nb)
    for k in range(1, b.order + 1):
        blk = slice(b.deg_start[k], b.deg_start[k + 1])
        r = contract("ab,bc->ac", g, x, k).coeffs[..., blk]
        plan = _contract_plan("ab,bcm->acm", x0.shape, nb, r.shape, nb)
        x.coeffs[..., blk] = -_value_product(plan, x0, r)
        # X_k may fill components that X_0 leaves zero, so the support
        # `contract` stored on x is stale: continue with a fresh tensor
        x = PolyTensor(x.coeffs, b, nb)
    return x
