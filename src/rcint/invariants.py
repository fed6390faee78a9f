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
permutations into classes whose signed terms are equal for any T with the
pair symmetries (conjugation by pair-block permutations, a swap within an
upper pair, and inversion: a group of order 2 4^l l!), so only one
complete contraction per class is needed, 1, 3, 8, 25 and 82 of them for
l = 1 ... 5.  A plan made once per l computes each distinct self-trace and
pairwise contraction of the class terms once, and `pf_ell_poly` runs it
with `pt_trace`, `contract` and, for two scalars, the scalar jet product;
`pf_ell` runs it on a dense array as an order-0 jet.  `pf_ell_brute` is
an independent oracle: the determinant expansion of delta over index
values, one signed sum of products over the matchings of each 2l-subset
of the dimensions.

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

from .jets import PolyTensor, basis, const_poly, contract as jcontract
from .geometry import (Geometry, laplacian_values, minus_kulkarni_nomizu,
                       pt_symmetrize, pt_trace, raise_slots)
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


#: the first two entries a class representative can have (`_pf_classes`)
_PF_HEADS = ((0, 1), (0, 2), (2, 3), (2, 4))

#: group elements times (candidates + key table rows) per step of `_pf_classes`
_PF_CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _pf_classes(ell: int):
    """Group S_{2l} into classes with equal signed contraction value.

    sigma gives the term whose factor j has the letters 2j, 2j+1 in its
    lower pair and sigma(2j), sigma(2j+1) in its upper pair.  For T
    antisymmetric in each pair, sgn(sigma) times that term is unchanged by
    sigma -> pi o sigma o pi^{-1}, pi in the pair-block group of 2^l l!
    permutations (dummy index relabeling; the two antisymmetry sign flips
    cancel), and by sigma -> sigma o (2j 2j+1), which swaps the upper pair
    of factor j (T and sgn sigma both flip).  It is also unchanged by
    sigma -> sigma^{-1}, which exchanges the upper and lower pair of every
    factor, when T_{abcd} = T_{cdab} once lowered; for l <= 4 the other
    moves already map sigma^{-1} into the class of sigma, and at l = 5
    inversion merges 85 classes into 82.  The classes are the orbits of
    the group of order 2 4^l l! these generate: 1, 3, 8, 25 and 82 for
    l = 1 ... 5.

    A class is represented by its lexicographically least member, whose
    upper pairs are sorted and whose first two entries are one of
    `_PF_HEADS`: a relabeling with a swap makes sigma start with 0 if some
    factor has one of its lower letters upstairs, then 1 if some factor
    has its whole lower pair upstairs and else 2; otherwise with 2, then 3
    if some factor has another's whole lower pair upstairs and else 4.
    The 4 (2l-2)! / 2^(l-1) permutations of that form are the candidates,
    one int8 array in lexicographic order.  The class of sigma is
    {pi sigma^{+-1} pi^{-1} t}, t swapping within pairs, and its least
    member over t has its pairs sorted.  So a candidate is a representative
    if no pi, with or without inversion, maps it to a pair-sorted image
    below it, and its class has 2 4^l l! / #{(pi, +-1) : pair-sorted
    image = sigma} members.  Images are compared by integer lexicographic
    keys (`_pf_key_table`), a chunk of group elements against all
    remaining candidates at a time; a candidate drops out at its first
    lower image, and the pi moving fewest letters, which reject the most,
    go first.  Nothing of size (2l)! is made: in a fresh process l = 5
    (10,080 candidates) takes about 0.06 s, and l = 6 (453,600) 2.7 s with
    a process peak near 160 MB.

    Returns a list of (signed_multiplicity, representative sigma), in the
    lexicographic order of the representatives.
    """
    m = 2 * ell
    tail = np.fromiter(itertools.chain.from_iterable(
        itertools.permutations(range(m - 2))), np.int8).reshape(
        math.factorial(m - 2), m - 2)
    tail = tail[(tail[:, ::2] < tail[:, 1::2]).all(axis=1)]
    cands = np.concatenate([
        np.hstack((np.tile(np.int8(head), (len(tail), 1)),
                   np.delete(np.arange(m, dtype=np.int8), head)[tail]))
        for head in _PF_HEADS if max(head) < m])
    blocks = np.array(list(itertools.permutations(range(ell))))
    flips = np.array(list(itertools.product((0, 1), repeat=ell)))
    pis = (2 * blocks[:, None, :, None]
           + (np.arange(2) ^ flips[None, :, :, None])).reshape(-1, m)
    pis = pis[np.argsort((pis != np.arange(m)).sum(axis=1), kind="stable")]
    # the pairs of sigma and of sigma^-1 as rows k (2l)^2 + lo 2l + hi, in
    # place from int8 letters; intp, as int16 indexing adds 0.3 MB of RSS
    both = np.stack((cands, np.argsort(cands, axis=1).astype(np.int8)))
    rows = np.minimum(both[..., ::2], both[..., 1::2]).astype(np.intp)
    rows *= m
    rows += np.maximum(both[..., ::2], both[..., 1::2])
    rows += np.arange(0, ell * m * m, m * m)
    rows = np.moveaxis(rows, -1, 0)
    key = _pf_key_table(ell, pis[:1])[0][rows[:, 0]].sum(axis=0)  # pis[0] = id
    stab = np.zeros(len(cands), np.int64)
    done = 0
    while done < len(pis):
        chunk = max(1, _PF_CHUNK // (len(cands) + ell * m * m))
        table = _pf_key_table(ell, pis[done:done + chunk])
        keys = table[:, rows[0]]  # (group element, +-1, candidate)
        for r in rows[1:]:
            keys += table[:, r]
        keep = (keys >= key).all(axis=(0, 1))
        stab += (keys == key).sum(axis=(0, 1))
        cands, rows, key, stab = cands[keep], rows[..., keep], key[keep], stab[keep]
        done += len(table)
    order = 2 * 4 ** ell * math.factorial(ell)
    return [(_perm_sign(sigma) * (order // int(n)), sigma)
            for sigma, n in zip(map(tuple, cands.tolist()), stab)]


def _pf_key_table(ell: int, pis):
    """Lexicographic keys of the pair-sorted images of a permutation sigma
    of 2l letters with sorted pairs under the pair-block permutations
    `pis`, as in `_pf_classes`.

    Returns a (len(pis), l (2l)^2) int64 array K whose row for pi holds,
    summed over the pairs k, the key sum_i s(i) (2l)^(2l-1-i) of the
    image s = pi sigma pi^{-1} with its pairs sorted as
    K[k (2l)^2 + sigma(2k) 2l + sigma(2k+1)]: pi moves factor k to
    factor p = pi(2k) // 2, whose upper pair is pi(sigma(2k)) and
    pi(sigma(2k+1)) in increasing order.  Read at the sorted pairs of
    sigma^{-1}, the same row keys the image of the inverse.
    """
    m = 2 * ell
    weight = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    lo = np.minimum(pis[:, :, None], pis[:, None, :])
    hi = np.maximum(pis[:, :, None], pis[:, None, :])
    p = pis[:, ::2, None, None] // 2
    table = weight[2 * p] * lo[:, None] + weight[2 * p + 1] * hi[:, None]
    return table.reshape(len(pis), -1)


def _term_subscripts(sigma, ell):
    """Per-factor index letters of the contraction defined by sigma."""
    letters = string.ascii_lowercase
    return ["".join(letters[i] for i in
                    (2 * j, 2 * j + 1, sigma[2 * j], sigma[2 * j + 1]))
            for j in range(ell)]


def _check_pf_order(ell, dim):
    if ell < 0:
        raise ValueError(f"Pf_l requires l >= 0, got l = {ell}")
    if 2 * ell > dim:
        raise ValueError(f"Pf_{ell} requires dimension >= {2 * ell}, got {dim}")


def _pf_prefactor(ell):
    return 2.0 ** (-ell) * double_factorial(2 * ell - 1) / math.factorial(2 * ell)


def _antisymmetrize_pairs(T):
    """T antisymmetrized in each index pair of its last four axes."""
    A = T - T.swapaxes(-4, -3)
    return (A - A.swapaxes(-2, -1)) / 4


def pf_ell(T, ell: int):
    """Generalized Pfaffian Pf_l(T) on a flat background, batched over
    leading axes of T: `pf_ell_poly` of T antisymmetrized in each index
    pair (exact, as delta is antisymmetric) as an order-0 jet.  For l >= 5
    T must also be pair-exchange symmetric (see `_pf_classes`)."""
    T = _antisymmetrize_pairs(np.asarray(T, dtype=np.float64))
    return pf_ell_poly(PolyTensor(T[..., None], basis(0, 0), T.ndim - 4),
                       ell).value()


def pf_ell_brute(T, ell: int):
    """Pf_l on a flat background by the determinant expansion of delta over
    index values (independent oracle):

        Pf_l(T) = sum_S sum_mu sum_nu sgn(mu) sgn(nu) prod_j A[mu_j; nu_j],

    A being T antisymmetrized in each index pair (exact, as delta is
    antisymmetric).  S runs over the 2l-subsets of {0..d-1}, mu over the
    (2l-1)!! perfect matchings of S (sorted pairs, ordered by first entry)
    and nu over the (2l)!/2^l sequences of sorted pairs covering S; each
    sign is that of the concatenated positions in S.  Dividing the
    symmetries 4^l l! out of the S_{2l} sum turns its prefactor into 1."""
    T = np.asarray(T, dtype=np.float64)
    d = T.shape[-1]
    _check_pf_order(ell, d)
    if ell == 0:
        return np.ones(T.shape[:-4]) if T.ndim > 4 else 1.0
    A = _antisymmetrize_pairs(T)
    seqs = [p for p in itertools.permutations(range(2 * ell))
            if all(p[i] < p[i + 1] for i in range(0, 2 * ell, 2))]
    mus = [p for p in seqs if list(p[::2]) == sorted(p[::2])]
    subsets = np.array(list(itertools.combinations(range(d), 2 * ell)))
    mu, nu = subsets[:, mus], subsets[:, seqs]
    pair_mu = mu[..., ::2] * d + mu[..., 1::2]
    pair_nu = nu[..., ::2] * d + nu[..., 1::2]
    flat = (pair_mu[:, :, None] * d * d + pair_nu[:, None]).reshape(-1, ell)
    signs = np.outer([_perm_sign(p) for p in mus], [_perm_sign(p) for p in seqs])
    A = A.reshape(*A.shape[:-4], d ** 4)
    prod = A[..., flat[:, 0]]
    for j in range(1, ell):
        prod *= A[..., flat[:, j]]
    return prod @ np.tile(signs.ravel(), len(subsets)).astype(np.float64)


# -- jet-valued Pfaffian (for ambient Laplacians of Pf_l) ---------------------


def raise_last_two(T: PolyTensor, ginv: PolyTensor) -> PolyTensor:
    """T_{ab}{}^{cd} from all-lower jets T_{abcd}."""
    return raise_slots(T, ginv, (2, 3))


def pfaffian_field(geo: Geometry) -> PolyTensor:
    """Pf_{n/2}(Rm), the Gauss-Bonnet integrand normalization."""
    if geo.dim % 2:
        raise ValueError("Pfaffian requires even dimension")
    return pf_ell_poly(geo.riemann_ud, geo.dim // 2)


def pf_ell_poly(Tud: PolyTensor, ell: int) -> PolyTensor:
    """Pf_l of a jet-valued tensor T_{ab}{}^{cd} (scalar PolyTensor), by
    the straight-line program of `_pf_plan`: `pt_trace`, `contract` and,
    for two scalars, the scalar jet product `x * y`, each at the order of
    `Tud`.  Each intermediate is released after its last use.  The
    multiplicity-weighted class terms are one stacked array, summed in
    class order by `np.add.accumulate`.

    T must be antisymmetric in each index pair, as `riemann_ud` and
    `weyl_ud` are by construction up to rounding; for l >= 5 it must also
    be pair-exchange symmetric once lowered, as they are (see
    `_pf_classes`).  Other input gives a wrong value silently; `pf_ell`
    antisymmetrizes its dense input first.

    A scalar product multiplies every batch point, where `contract` skips
    a pair of jets that is zero at every point: a jet that is zero
    everywhere times one that is inf somewhere gives NaN there."""
    _check_pf_order(ell, Tud.comp_shape[-1])
    if ell == 0:
        return const_poly(np.ones(Tud.coeffs.shape[:Tud.batch_ndim]),
                          Tud.basis, Tud.batch_ndim)
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
        if kind == "trace":
            vals.append(pt_trace(*args, *how))
        elif kind == "product":
            vals.append(args[0] * args[1])
        else:
            vals.append(jcontract(how, *args))
    terms = np.stack([float(mult) * vals[v].coeffs for mult, v in finals])
    total = np.add.accumulate(terms)[-1] * _pf_prefactor(ell)
    return PolyTensor(total, Tud.basis, Tud.batch_ndim)


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
    value.  The traces of a factor and the pattern of a contraction are
    worked out once per distinct letter string.  For l = 2, 3, 4 the plan
    has 6, 20 and 52 steps; at l = 3 two of its contractions return a
    rank-4 tensor.

    Returns (steps, finals).  Value 0 is T_{ab}{}^{cd}, and step k computes
    value k + 1 as ("trace", (i, j), x), the trace of value x over axes i
    and j, ("merge", pattern, x, y), or ("product", ",->", x, y), the
    merge of two scalars, which runs as the scalar jet product.  finals
    holds one (signed multiplicity, value) pair per class, in class
    order.
    """
    steps, index = [], {}

    def step(*key):
        if key not in index:
            steps.append(key)
            index[key] = len(steps)
        return index[key]

    finals, traced, merged = [], {}, {}
    for mult, sigma in _pf_classes(ell):
        factors = []
        for s in _term_subscripts(sigma, ell):
            if s not in traced:
                t, v = s, 0
                while len(set(t)) < len(t):
                    i = next(i for i, c in enumerate(t) if t.count(c) > 1)
                    j = t.index(t[i], i + 1)
                    v = step("trace", (i, j), v)
                    t = t[:i] + t[i + 1:j] + t[j + 1:]
                traced[s] = (t, set(t), v)
            factors.append(traced[s])
        while len(factors) > 1:
            best = None
            for i in range(len(factors)):
                for j in range(i + 1, len(factors)):
                    shared = len(factors[i][1] & factors[j][1])
                    if best is None or shared > best[0]:
                        best = (shared, i, j)
            _, i, j = best
            (si, seti, vi), (sj, setj, vj) = factors[i], factors[j]
            if (si, sj) not in merged:
                out = "".join([c for c in si + sj if c not in seti & setj])
                rename = str.maketrans(dict(zip(dict.fromkeys(si + sj),
                                                string.ascii_lowercase)))
                merged[si, sj] = (out, set(out),
                                  f"{si},{sj}->{out}".translate(rename))
            out, letters, pattern = merged[si, sj]
            factors = [f for k, f in enumerate(factors) if k not in (i, j)]
            kind = "merge" if si or sj else "product"
            factors.append((out, letters, step(kind, pattern, vi, vj)))
        s, _, v = factors[0]
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


def weyl_basis(W, k: int):
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


def low_order_pfaffian_identity(W, ell: int, tol=1e-10) -> CheckReport:
    """Residual of Pf_l(W) against its Weyl-basis expansion, l in {2,3,4},
    on a flat background."""
    lhs = pf_ell(W, ell)
    rhs = sum(c * v for (_, c), v in zip(WEYL_BASIS[ell], weyl_basis(W, ell)))
    return CheckReport.compare(f"pfaffian-weyl-basis-d{W.shape[-1]}-l{ell}",
                               "Lemma 5.2", lhs, rhs, tol)


def einstein_pfaffian_expansion(model, tol=1e-9) -> CheckReport:
    """Pf = sum_l (n-2l-1)!! (2J/n)^{n/2-l} Pf_l(W) at an Einstein model."""
    if model.lam is None:
        raise ValueError(f"{model.name} is not a catalog Einstein model")
    n = model.dim
    if n % 2:
        raise ValueError("even dimension required")
    geo = model.geometry(order=2)
    J = model.j_value
    lhs = pfaffian_field(geo).value()
    rhs = 0.0
    for ell in range(n // 2 + 1):
        rhs = rhs + (double_factorial(n - 2 * ell - 1)
                     * (2 * J / n) ** (n // 2 - ell)
                     * pf_ell_poly(geo.weyl_ud, ell).value())
    return CheckReport.compare(f"einstein-pfaffian-{model.name}", "Lemma 5.1",
                               lhs, rhs, tol)


# ---------------------------------------------------------------------------
# random algebraic Weyl tensors


def bianchi_project(T):
    """Project a pair-antisymmetric, pair-symmetric tensor onto the
    first-Bianchi subspace by removing its totally antisymmetric part."""
    A = (T + np.einsum("...abcd->...bcad", T)
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
    trace by `geometry.minus_kulkarni_nomizu`, as every Weyl tensor is.
    """
    T = curvature_project(T)
    dim = T.shape[-1]
    ric = np.einsum("...acbc->...ab", T)
    scal = np.einsum("...aa->...", ric)
    Jt = scal / (2 * (dim - 1))
    P = (ric - Jt[..., None, None] * np.eye(dim)) / (dim - 2)
    return minus_kulkarni_nomizu(T[..., None], P[..., None])[..., 0]


def random_weyl(dim: int, seed, nsamples=None):
    """Random Weyl-type tensors on a flat background (identity metric)."""
    if dim < 4:
        raise ValueError("dim must be >= 4")
    rng = np.random.default_rng(seed)
    shape = (dim,) * 4 if nsamples is None else (nsamples,) + (dim,) * 4
    return weyl_project(rng.normal(size=shape))


# ---------------------------------------------------------------------------
# the iterated-Laplacian straightenable operator


def i_ell_closed_form_coeff(n: int, k: int, ell: int, J: float) -> float:
    """Constant multiple relating I_ell to I on homogeneous Einstein
    manifolds (all Laplacian terms vanish)."""
    num = math.factorial(k + ell - 1) * double_factorial(n - 2 * k - 1)
    den = math.factorial(k - 1) * double_factorial(n - 2 * k - 2 * ell - 1)
    return (-4.0 * J / n) ** ell * num / den


def i_ell_operator(field_fn, k: int, ell: int, model, points=None):
    """I_ell = prod_{j=0}^{ell-1} (Delta - 4(k+j)(n-2k-2j-1) J / n) I.

    `field_fn(geo) -> scalar PolyTensor` builds I from a Geometry with a
    metric jet of order 2.  Returns `laplacian_values` with the constants
    above as shifts at the points (default: the base point), shape (B,).
    """
    if model.lam is None:
        raise ValueError(f"{model.name} has no Einstein constant")
    n = model.dim
    J = model.j_value
    shifts = [4.0 * (k + j) * (n - 2 * k - 2 * j - 1) / n * J
              for j in range(ell)]
    return laplacian_values(model, model.base_point if points is None
                            else points, field_fn, ell, shifts)


# ---------------------------------------------------------------------------
# divergence construction (ambient divergence on symmetric tensors)


def divergence_construction(geo: Geometry, T: PolyTensor,
                            w: float) -> PolyTensor:
    """U_{a1..a_{k-1}} = div T + (k-1)/(w-2k+2) * grad of the trace.

    T must be a symmetric all-lower rank-k jet tensor of scaling weight w;
    the result has rank k-1 and weight w-2.  Rejects w = 2k-2 where the
    trace coefficient blows up.  The contractions with g^{-1} run at their
    operands' lower order: for T at most g^{-1}'s order, one below T's.
    """
    k = T.rank
    if k < 1:
        raise ValueError("T must have rank >= 1")
    if w == 2 * k - 2:
        raise ValueError("weight w = 2k-2 is singular for this construction")
    dT = geo.covariant_derivative(T)  # (der, a1..ak)
    letters = string.ascii_lowercase
    idx = letters[:k - 1]
    div = jcontract(f"e{idx}b,eb->{idx}", dT, geo.ginv)
    if k == 1:
        return div
    rest = letters[:k - 2]
    tr = jcontract(f"{rest}eb,eb->{rest}", T, geo.ginv)
    dtr = geo.covariant_derivative(tr)  # rank k-1
    return div + ((k - 1) / (w - 2 * k + 2)) * pt_symmetrize(dtr)


# ---------------------------------------------------------------------------
# field catalog: straightenable scalar invariants as Geometry -> jets maps


def weyl_norm2_field(geo: Geometry) -> PolyTensor:
    """|W|^2 = W_{ab}{}^{cd} W_{cd}{}^{ab}, by the pair symmetry
    W_{abcd} = W_{cdab}: one contraction of `Geometry.weyl_ud` with
    itself; weight -4 (k = 2)."""
    return jcontract("abcd,cdab->", geo.weyl_ud, geo.weyl_ud)


def weyl_contraction_field(geo: Geometry, k, i, raised) -> PolyTensor:
    """W_{k,i} of `WEYL_BASIS` on jets (i from 1), weight -2k: every factor
    is W with its slots `raised` raised, contracted left to right; with
    (2, 3) raised that is `Geometry.weyl_ud`."""
    factors = WEYL_BASIS[k][i - 1][0].split(",")
    Wr = (geo.weyl_ud if tuple(raised) == (2, 3)
          else raise_slots(geo.weyl, geo.ginv, raised))
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
    return pf_ell_poly(geo.weyl_ud, ell)


#: name -> (field_fn, k); each field reads a metric jet of order 2
STRAIGHTENABLE_FIELDS = {
    "weyl-norm2": (weyl_norm2_field, 2),
    "W31": (w31_field, 3),
    "W32": (w32_field, 3),
    "pf3-weyl": (partial(pf_ell_weyl_field, ell=3), 3),
}
