"""Curvature invariants: generalized Pfaffians, Weyl contraction bases,
the iterated-Laplacian operator on weighted scalars, and divergence-built
invariants.

The generalized Pfaffian of a rank-4 tensor T with both pairs of indices
antisymmetric is

    Pf_l(T) = 2^{-l} (2l-1)!! delta^{a1..a_{2l}}_{b1..b_{2l}}
              T_{a1 a2}{}^{b1 b2} ... T_{a_{2l-1} a_{2l}}{}^{b_{2l-1} b_{2l}},

where delta is the *normalized* generalized Kronecker delta
(1/k!) det(delta^{a_i}_{b_j}).  Expanding delta as a signed sum over
S_{2l} gives (2l)! complete contractions; the optimized evaluators group
permutations into equivalence classes under relabelings that preserve the
term value for any T with the pair symmetries (conjugation by pair-block
permutations and inversion), so only one complete contraction per class is
needed.  A plan made once per l computes each distinct self-trace and
pairwise contraction of the class terms once; the dense and the jet
evaluator both run it, each with its own trace and two-operand contraction.
A naive full-permutation evaluator is kept as an independent oracle.

Tensors built from a metric are jets, raised only by `geometry.raise_slots`.
Dense arrays live on a flat background, where the metric is the identity:
`random_weyl`, `pf_ell`, `pf_ell_brute` and `weyl_basis`.  `WEYL_BASIS[k]`
lists the complete contractions W_{k,i} of k Weyl factors (Lemma 5.2), each
as einsum subscripts with its coefficient in Pf_k(W); `weyl_basis` evaluates
the rows on arrays and `weyl_contraction_field` on jets.
"""

from __future__ import annotations

import itertools
import math
import string
from collections import Counter
from functools import lru_cache, partial

import numpy as np

from .jets import PolyTensor, const_poly, contract as jcontract
from .geometry import Geometry, pt_trace, pt_transpose, raise_slots
from .reports import CheckReport


def double_factorial(m: int) -> int:
    """(2k-1)!! style double factorial with the convention (-1)!! = 1."""
    if m < -1:
        raise ValueError(f"double factorial undefined for {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


# ---------------------------------------------------------------------------
# permutation bookkeeping for Pf_l


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _pf_classes(ell: int):
    """Group S_{2l} into classes with equal contraction value.

    For T antisymmetric in each index pair and symmetric under pair
    exchange, the complete contraction defined by sigma is unchanged under
    sigma -> pi o sigma o pi^{-1} for pi in the pair-block group (dummy
    index relabeling; the two antisymmetry sign flips cancel) and under
    sigma -> sigma^{-1} (pair-exchange symmetry).  Signs are constant on
    each class, so the delta expansion collapses to one term per class.

    The orbits are labelled, not enumerated.  Each permutation, as its
    index in the lexicographic list of S_{2l}, is mapped through inversion
    and conjugation by the in-block swap, the swap of blocks 0 and 1 and
    the block cycle, which generate the pair-block group.  The least index
    is propagated along these maps until it is constant on each orbit; it
    marks the orbit's lexicographically first member, its representative.

    Returns a list of (signed_multiplicity, representative sigma), in the
    lexicographic order of the representatives.
    """
    m = 2 * ell
    perms = list(itertools.permutations(range(m)))
    arr = np.array(perms, dtype=np.int64)

    def lex_index(p):
        idx = np.zeros(len(p), np.int64)
        for i in range(m):  # Lehmer code in Horner form
            idx = idx * (m - i) + (p[:, i + 1:] < p[:, i:i + 1]).sum(axis=1)
        return idx

    gens = [np.array([1, 0] + list(range(2, m))), (np.arange(m) + 2) % m]
    if ell > 1:
        gens.append(np.array([2, 3, 0, 1] + list(range(4, m))))
    images = [lex_index(np.argsort(arr, axis=1))]
    images += [lex_index(pi[arr[:, np.argsort(pi)]]) for pi in gens]
    label = np.arange(len(perms))
    while True:
        new = label
        for img in images:
            new = np.minimum(new, new[img])
        if np.array_equal(new, label):
            break
        label = new
    roots = np.flatnonzero(label == np.arange(len(perms)))
    sizes = np.bincount(label)[roots]
    return [(_perm_sign(perms[r]) * int(n), perms[r])
            for r, n in zip(roots, sizes)]


def _term_subscripts(sigma, ell):
    """Per-factor index letters of the contraction defined by sigma."""
    letters = string.ascii_lowercase
    return ["".join(letters[i] for i in
                    (2 * j, 2 * j + 1, sigma[2 * j], sigma[2 * j + 1]))
            for j in range(ell)]


def _pf_prefactor(ell):
    return 2.0 ** (-ell) * double_factorial(2 * ell - 1) / math.factorial(2 * ell)


def pf_ell(T, ell: int):
    """Generalized Pfaffian Pf_l(T) on a flat background, batched over
    leading axes of T: the plan of `_pf_plan` with `np.trace` and two-operand
    `np.einsum` steps, never materializing the rank-4l delta."""
    T = np.asarray(T, dtype=np.float64)
    if ell == 0:
        return np.ones(T.shape[:-4]) if T.ndim > 4 else 1.0
    b = T.ndim - 4
    return _run_pf_plan(
        T, ell, T.shape[-1],
        lambda x, i, j: np.trace(x, axis1=b + i, axis2=b + j),
        lambda how, x, y: np.einsum(
            "..." + how.replace(",", ",...").replace("->", "->..."), x, y,
            optimize=True))


def pf_ell_brute(T, ell: int):
    """Pf_l on a flat background by the naive full sum over S_{2l}
    (independent oracle)."""
    T = np.asarray(T, dtype=np.float64)
    dim = T.shape[-1]
    if ell == 0:
        return np.ones(T.shape[:-4]) if T.ndim > 4 else 1.0
    if 2 * ell > dim:
        raise ValueError(f"Pf_{ell} requires dimension >= {2 * ell}, got {dim}")
    total = 0.0
    for sigma in itertools.permutations(range(2 * ell)):
        subs = _term_subscripts(sigma, ell)
        expr = ",".join("..." + s for s in subs) + "->..."
        total = total + _perm_sign(sigma) * np.einsum(
            expr, *([T] * ell), optimize=True)
    return _pf_prefactor(ell) * total


# -- jet-valued Pfaffian (for ambient Laplacians of Pf_l) ---------------------


def raise_last_two(T: PolyTensor, ginv: PolyTensor, order=None) -> PolyTensor:
    """T_{ab}{}^{cd} from all-lower jets T_{abcd}."""
    return raise_slots(T, ginv, (2, 3), order)


def pfaffian_field(geo: Geometry) -> PolyTensor:
    """Pf_{n/2}(Rm), the Gauss-Bonnet integrand normalization."""
    if geo.dim % 2:
        raise ValueError("Pfaffian requires even dimension")
    return pf_ell_poly(raise_last_two(geo.riemann, geo.ginv), geo.dim // 2)


def pf_ell_poly(Tud: PolyTensor, ell: int, order=None) -> PolyTensor:
    """Pf_l of a jet-valued tensor T_{ab}{}^{cd} (scalar PolyTensor), by
    the plan of `_pf_plan` with `pt_trace` and truncated `contract` steps."""
    if ell == 0:
        return const_poly(np.ones(Tud.coeffs.shape[:Tud.batch_ndim]),
                          Tud.basis, Tud.batch_ndim)
    if order is None:
        order = Tud.basis.order
    return _run_pf_plan(Tud, ell, Tud.comp_shape[-1], pt_trace,
                        lambda how, x, y: jcontract(how, x, y, order))


def _run_pf_plan(Tud, ell: int, dim: int, trace, merge):
    """Pf_l of T_{ab}{}^{cd} by the straight-line program of `_pf_plan`.

    `trace(x, i, j)` traces x over its component axes i and j, and
    `merge(pattern, x, y)` contracts two values by a two-operand pattern on
    their component axes; these are the only operations on T's
    representation.  Each intermediate is released after its last use, and
    the class terms are summed in class order.
    """
    if 2 * ell > dim:
        raise ValueError(f"Pf_{ell} requires dimension >= {2 * ell}, got {dim}")
    steps, finals = _pf_plan(ell)
    uses = Counter(x for _, _, *ops in steps for x in ops)
    uses.update(v for _, v in finals)
    vals = [Tud]
    for kind, how, *ops in steps:
        args = [vals[x] for x in ops]
        for x in ops:
            uses[x] -= 1
            if not uses[x]:
                vals[x] = None
        vals.append(trace(*args, *how) if kind == "trace"
                    else merge(how, *args))
    total = None
    for mult, v in finals:
        term = float(mult) * vals[v]
        total = term if total is None else total + term
    return _pf_prefactor(ell) * total


@lru_cache(maxsize=None)
def _pf_plan(ell: int):
    """The class expansion of Pf_l as a straight-line program.

    Walks `_pf_classes(ell)` once.  Within a class, each factor's
    self-traces are resolved first; then the two factors sharing the most
    letters are contracted, repeatedly, until one scalar is left.  A trace
    is keyed by its axes and operand, a contraction by its pattern with
    letters renamed in order of first appearance and by its operands.
    Renaming letters does not change the array a contraction computes, so
    each distinct key becomes one step and every class term keeps its
    value.

    Returns (steps, finals).  Value 0 is T_{ab}{}^{cd}, and step k computes
    value k + 1 as ("trace", (i, j), x), the trace of value x over axes i
    and j, or ("merge", pattern, x, y).  finals holds one (signed
    multiplicity, value) pair per class, in class order.
    """
    steps, index = [], {}

    def step(*key):
        if key not in index:
            steps.append(key)
            index[key] = len(steps)
        return index[key]

    finals = []
    for mult, sigma in _pf_classes(ell):
        factors = []
        for s in _term_subscripts(sigma, ell):
            v = 0
            while len(set(s)) < len(s):
                i = next(i for i, c in enumerate(s) if s.count(c) > 1)
                j = s.index(s[i], i + 1)
                v = step("trace", (i, j), v)
                s = s[:i] + s[i + 1:j] + s[j + 1:]
            factors.append((s, v))
        while len(factors) > 1:
            best = None
            for i in range(len(factors)):
                for j in range(i + 1, len(factors)):
                    shared = len(set(factors[i][0]) & set(factors[j][0]))
                    if best is None or shared > best[0]:
                        best = (shared, i, j)
            _, i, j = best
            (si, vi), (sj, vj) = factors[i], factors[j]
            out = "".join(c for c in si + sj if (si + sj).count(c) == 1)
            rename = {c: string.ascii_lowercase[k]
                      for k, c in enumerate(dict.fromkeys(si + sj))}
            pattern = "".join(rename.get(c, c) for c in f"{si},{sj}->{out}")
            factors = [f for k, f in enumerate(factors) if k not in (i, j)]
            factors.append((out, step("merge", pattern, vi, vj)))
        s, v = factors[0]
        if s:
            raise AssertionError("incomplete contraction")
        finals.append((mult, v))
    return tuple(steps), tuple(finals)


# ---------------------------------------------------------------------------
# Weyl contraction bases


#: k -> [(subscripts of W_{k,i}, coefficient of W_{k,i} in Pf_k(W)), ...]
WEYL_BASIS = {
    2: [("abcd,abcd", 1 / 8)],
    3: [("abcd,cdef,efab", 1 / 12), ("acbd,cedf,eafb", -1 / 6)],
    4: [("abcd,abcd,efgh,efgh", 1 / 128),
        ("abcd,cdef,efgh,ghab", 1 / 64),
        ("acde,bcde,afgh,bfgh", -1 / 8),
        ("abcd,cdef,ageh,bgfh", -1 / 4),
        ("abcd,cdef,aegh,bfgh", 1 / 8),
        ("acbd,cedf,egfh,gahb", 1 / 8),
        ("acbd,ecfd,ageh,bgfh", -1 / 4)],
}


def weyl_basis(W, k: int = 2):
    """The complete contractions W_{k,1}, W_{k,2}, ... of `WEYL_BASIS[k]`
    on a flat background, batched over leading axes of W."""
    if k not in WEYL_BASIS:
        raise ValueError("k must be one of 2, 3, 4")
    W = np.asarray(W, dtype=np.float64)
    out = []
    for subs, _ in WEYL_BASIS[k]:
        factors = subs.split(",")
        expr = ",".join("..." + f for f in factors) + "->..."
        out.append(np.einsum(expr, *[W] * len(factors), optimize=True))
    return out


def low_order_pfaffian_identity(W, ell: int = 2, tol=1e-10) -> CheckReport:
    """Residual of Pf_l(W) against its Weyl-basis expansion, l in {2,3,4},
    on a flat background."""
    lhs = pf_ell(W, ell)
    rhs = sum(c * v for (_, c), v in zip(WEYL_BASIS[ell], weyl_basis(W, ell)))
    return CheckReport.compare(f"pfaffian-identity-l{ell}", "Lemma 5.2",
                               lhs, rhs, tol)


def einstein_pfaffian_expansion(model, points=None, tol=1e-9) -> CheckReport:
    """Pf = sum_l (n-2l-1)!! (2J/n)^{n/2-l} Pf_l(W) at an Einstein model."""
    if model.lam is None:
        raise ValueError(f"{model.name} is not a catalog Einstein model")
    n = model.dim
    if n % 2:
        raise ValueError("even dimension required")
    geo = model.geometry(points, order=2)
    J = model.j_value
    lhs = pfaffian_field(geo).value()
    rhs = 0.0
    for ell in range(n // 2 + 1):
        rhs = rhs + (double_factorial(n - 2 * ell - 1)
                     * (2 * J / n) ** (n // 2 - ell)
                     * pf_ell_weyl_field(geo, ell).value())
    return CheckReport.compare(f"einstein-pfaffian-{model.name}", "Lemma 5.1",
                               lhs, rhs, tol)


# ---------------------------------------------------------------------------
# random algebraic Weyl tensors


def bianchi_project(T):
    """Project a pair-antisymmetric, pair-symmetric tensor onto the
    first-Bianchi subspace by removing its totally antisymmetric part."""
    A = (np.einsum("...abcd->...abcd", T) + np.einsum("...abcd->...bcad", T)
         + np.einsum("...abcd->...cabd", T)) / 3.0
    return T - A


def curvature_project(T):
    """Project a rank-4 tensor onto algebraic curvature tensors
    (pair antisymmetry, pair exchange, first Bianchi)."""
    T = np.asarray(T, dtype=np.float64)
    T = (T - np.einsum("...abcd->...bacd", T)
         - np.einsum("...abcd->...abdc", T)
         + np.einsum("...abcd->...badc", T)) / 4.0
    T = (T + np.einsum("...abcd->...cdab", T)) / 2.0
    return bianchi_project(T)


def weyl_project(T):
    """Project onto totally trace-free algebraic curvature (Weyl) tensors.

    The background metric is the identity.  Applied after
    curvature_project, removes the Kulkarni-Nomizu part carrying the Ricci
    trace, mirroring the Weyl tensor construction.
    """
    T = curvature_project(T)
    dim = T.shape[-1]
    ric = np.einsum("...acbc->...ab", T)
    scal = np.einsum("...aa->...", ric)
    Jt = scal / (2 * (dim - 1))
    eye = np.broadcast_to(np.eye(dim), T.shape[:-4] + (dim, dim))
    P = (ric - Jt[..., None, None] * eye) / (dim - 2)
    kn = (np.einsum("...ac,...bd->...abcd", P, eye)
          - np.einsum("...ad,...bc->...abcd", P, eye)
          + np.einsum("...bd,...ac->...abcd", P, eye)
          - np.einsum("...bc,...ad->...abcd", P, eye))
    return T - kn


def random_weyl(dim: int, seed, nsamples=None):
    """Random Weyl-type tensors on a flat background (identity metric)."""
    if dim < 4:
        raise ValueError("dim must be >= 4")
    rng = np.random.default_rng(seed)
    shape = (dim,) * 4 if nsamples is None else (nsamples,) + (dim,) * 4
    return weyl_project(rng.normal(size=shape))


def curvature_symmetry_residuals(T):
    """Max residuals of the five algebraic symmetry/trace conditions."""
    T = np.asarray(T)
    return {
        "antisym12": np.abs(T + np.einsum("...abcd->...bacd", T)).max(),
        "antisym34": np.abs(T + np.einsum("...abcd->...abdc", T)).max(),
        "pair-exchange": np.abs(T - np.einsum("...abcd->...cdab", T)).max(),
        "bianchi": np.abs(T - bianchi_project(T)).max(),
        "trace-free": np.abs(np.einsum("...acbc->...ab", T)).max(),
    }


# ---------------------------------------------------------------------------
# the iterated-Laplacian straightenable operator


def i_ell_closed_form_coeff(n: int, k: int, ell: int, J: float) -> float:
    """Constant multiple relating I_ell to I on homogeneous Einstein
    manifolds (all Laplacian terms vanish)."""
    num = math.factorial(k + ell - 1) * double_factorial(n - 2 * k - 1)
    den = math.factorial(k - 1) * double_factorial(n - 2 * k - 2 * ell - 1)
    return (-4.0 * J / n) ** ell * num / den


def i_ell_operator(field_fn, k: int, ell: int, model, points=None,
                   base_order: int = 2):
    """I_ell = prod_{j=0}^{ell-1} (Delta - 4(k+j)(n-2k-2j-1) J / n) I.

    `field_fn(geo) -> scalar PolyTensor` builds I from a Geometry;
    `base_order` is the metric jet order field_fn itself consumes.
    Returns the values of I_ell at the points (shape (B,)).
    """
    if model.lam is None:
        raise ValueError(f"{model.name} has no Einstein constant")
    n = model.dim
    J = model.j_value
    geo = model.geometry(points, order=base_order + 2 * ell)
    u = field_fn(geo)
    for j in range(ell):
        c = 4.0 * (k + j) * (n - 2 * k - 2 * j - 1) / n * J
        u = geo.laplacian(u) - c * u
    return u.value()


# ---------------------------------------------------------------------------
# divergence construction (ambient divergence on symmetric tensors)


def divergence_construction(geo: Geometry, T: PolyTensor, w: float,
                            order=None) -> PolyTensor:
    """U_{a1..a_{k-1}} = div T + (k-1)/(w-2k+2) * grad of the trace.

    T must be a symmetric all-lower rank-k jet tensor of scaling weight w;
    the result has rank k-1 and weight w-2.  Rejects w = 2k-2 where the
    trace coefficient blows up.
    """
    k = T.rank
    if k < 1:
        raise ValueError("T must have rank >= 1")
    if w == 2 * k - 2:
        raise ValueError("weight w = 2k-2 is singular for this construction")
    if order is None:
        order = T.basis.order - 1
    dT = geo.covariant_derivative(T)  # (der, a1..ak)
    letters = string.ascii_lowercase
    idx = letters[:k - 1]
    div = jcontract(f"e{idx}b,eb->{idx}", dT, geo.ginv, order)
    if k == 1:
        return div
    rest = letters[:k - 2]
    tr = jcontract(f"{rest}eb,eb->{rest}", T, geo.ginv, order + 1)
    dtr = geo.covariant_derivative(tr).truncate(order)  # rank k-1
    sym = _symmetrize_poly(dtr)
    return div + ((k - 1) / (w - 2 * k + 2)) * sym


def _symmetrize_poly(t: PolyTensor) -> PolyTensor:
    """Average of `t` over every permutation of its component axes."""
    perms = list(itertools.permutations(range(t.rank)))
    acc = sum(pt_transpose(t, p).coeffs for p in perms)
    return PolyTensor(acc / len(perms), t.basis, t.batch_ndim)


# ---------------------------------------------------------------------------
# field catalog: straightenable scalar invariants as Geometry -> jets maps


def weyl_norm2_field(geo: Geometry) -> PolyTensor:
    """|W|^2; weight -4 (k = 2)."""
    return geo.norm_squared(geo.weyl)


def weyl_contraction_field(geo: Geometry, k, i, raised) -> PolyTensor:
    """W_{k,i} of `WEYL_BASIS` on jets (i from 1), weight -2k: every factor
    is W with its slots `raised` raised, contracted left to right."""
    factors = WEYL_BASIS[k][i - 1][0].split(",")
    Wr = raise_slots(geo.weyl, geo.ginv, raised)
    acc, t = factors[0], Wr
    for f in factors[1:]:
        out = "".join(c for c in acc + f if (acc + f).count(c) == 1)
        t = jcontract(f"{acc},{f}->{out}", t, Wr)
        acc = out
    return t


# W_{ab}^{cd} W_{cd}^{ef} W_{ef}^{ab} and W_a^c_b^d W_c^e_d^f W_e^a_f^b
w31_field = partial(weyl_contraction_field, k=3, i=1, raised=(2, 3))
w32_field = partial(weyl_contraction_field, k=3, i=2, raised=(1, 3))


def pf_ell_weyl_field(geo: Geometry, ell: int) -> PolyTensor:
    """Pf_l(W); weight -2l (k = l)."""
    Wud = raise_last_two(geo.weyl, geo.ginv)
    return pf_ell_poly(Wud, ell)


#: name -> (field_fn, k, metric jet order consumed by the field itself)
STRAIGHTENABLE_FIELDS = {
    "weyl-norm2": (weyl_norm2_field, 2, 2),
    "W31": (w31_field, 3, 2),
    "W32": (w32_field, 3, 2),
    "pf3-weyl": (partial(pf_ell_weyl_field, ell=3), 3, 2),
}
