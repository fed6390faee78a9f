"""Tests for generalized Pfaffians, Weyl-basis identities, and the
iterated-Laplacian operator."""

import itertools
import math

import numpy as np
import pytest

import rcint.invariants as inv
from rcint.geometry import get_model, pt_trace, sphere
from rcint.invariants import (
    STRAIGHTENABLE_FIELDS,
    WEYL_BASIS,
    _perm_sign,
    _pf_classes,
    _pf_plan,
    _pf_prefactor,
    _term_subscripts,
    bianchi_project,
    divergence_construction,
    double_factorial,
    einstein_pfaffian_expansion,
    i_ell_closed_form_coeff,
    i_ell_operator,
    low_order_pfaffian_identity,
    pf_ell,
    pf_ell_brute,
    pf_ell_poly,
    pf_ell_weyl_field,
    pfaffian_field,
    raise_last_two,
    random_weyl,
    w31_field,
    w32_field,
    weyl_basis,
    weyl_contraction_field,
    weyl_norm2_field,
)
from rcint import jets
from rcint.jets import PolyTensor, basis, contract as jcontract


class TestHelpers:
    def test_double_factorial(self):
        assert [double_factorial(m) for m in (-1, 0, 1, 3, 5, 7)] == \
            [1, 1, 1, 3, 15, 105]

    def test_class_counts(self):
        # Conjugation by the pair-block group plus inversion collapses
        # S_{2l} to these many contraction classes.
        assert [len(_pf_classes(ell)) for ell in (1, 2, 3, 4, 5)] == \
            [2, 8, 34, 171, 1052]

    def test_class_multiplicities_cover_group(self):
        # Each class is an orbit of the group of 2^l l! pair-block
        # conjugations and inversion, listed by its least member.
        for ell in (1, 2, 3, 4, 5):
            classes = _pf_classes(ell)
            total = sum(abs(mult) for mult, _ in classes)
            assert total == math.factorial(2 * ell)
            order = 2 * 2 ** ell * math.factorial(ell)
            assert all(order % abs(mult) == 0 for mult, _ in classes)
            reps = [sigma for _, sigma in classes]
            assert reps == sorted(set(reps))


def _definition_pf(T, ell):
    """Pf_l as written: the prefactor times the signed sum over S_{2l} of
    the (2l)! complete contractions, one einsum each."""
    total = 0.0
    for sigma in itertools.permutations(range(2 * ell)):
        subs = _term_subscripts(sigma, ell)
        expr = ",".join("..." + s for s in subs) + "->..."
        total = total + _perm_sign(sigma) * np.einsum(
            expr, *([T] * ell), optimize=True)
    return _pf_prefactor(ell) * total


class TestPfBrute:
    # arbitrary rank-4 arrays, with neither pair antisymmetric nor the
    # pairs exchange-symmetric, so the antisymmetrization is exercised
    @pytest.mark.parametrize("dim,ell,batch", [
        (d, e, 3) for d in (4, 5, 6) for e in (1, 2)] + [(6, 3, 1)])
    def test_matches_definition(self, dim, ell, batch):
        T = np.random.default_rng([dim, ell]).normal(size=(batch,) + (dim,) * 4)
        got = pf_ell_brute(T, ell)
        assert got.shape == (batch,)
        assert got == pytest.approx(_definition_pf(T, ell), rel=1e-12)

    def test_unbatched(self):
        T = np.random.default_rng(5).normal(size=(5,) * 4)
        got = pf_ell_brute(T, 2)
        assert np.shape(got) == ()
        assert got == pytest.approx(_definition_pf(T, 2), rel=1e-12)

    def test_nan_propagates(self):
        T = np.random.default_rng(6).normal(size=(2,) + (4,) * 4)
        T[1, 0, 1, 2, 3] = np.nan
        got = pf_ell_brute(T, 2)
        assert np.isfinite(got[0]) and np.isnan(got[1])


class TestPfEll:
    @pytest.mark.parametrize("dim,ell", [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3)])
    def test_matches_brute_force(self, dim, ell):
        W = random_weyl(dim, seed=10 * dim + ell, nsamples=3)
        assert pf_ell(W, ell) == pytest.approx(pf_ell_brute(W, ell),
                                               rel=1e-12, abs=1e-12)

    def test_nonidentity_metric(self):
        rng = np.random.default_rng(7)
        dim = 4
        W = random_weyl(dim, seed=3)
        a = rng.normal(size=(dim, dim))
        g = a @ a.T + 3 * np.eye(dim)
        # abstract-index value: consistent between the two evaluators
        Wud = _raise_pair(W, g)
        assert pf_ell(Wud, 2) == pytest.approx(pf_ell_brute(Wud, 2), rel=1e-12)

    def test_dimension_guard(self):
        T = np.zeros((4,) * 4)
        with pytest.raises(ValueError):
            pf_ell(T, 3)
        for pf, arg in ((pf_ell, T), (pf_ell_brute, T),
                        (pf_ell_poly, _weyl_jet(4, 2, seed=3))):
            with pytest.raises(ValueError, match="l = -1"):
                pf(arg, -1)
        with pytest.raises(ValueError):
            pfaffian_field(sphere(3).geometry(order=2))

    def test_pf_zero_is_one(self):
        assert pf_ell(np.zeros((2, 4, 4, 4, 4)), 0) == pytest.approx([1.0, 1.0])
        assert pf_ell(np.zeros((4,) * 4), 0) == 1.0
        assert np.shape(pf_ell(random_weyl(4, seed=1), 2)) == ()

    @pytest.mark.parametrize("name,value", [("S4", 3.0), ("S2xS2", 1.0),
                                            ("CP2", 24.0)])
    def test_pfaffian_model_values(self, name, value):
        # (2 pi)^{n/2} chi = Pf * Vol on these homogeneous spaces.
        m = get_model(name)
        geo = m.geometry(order=2)
        pf = pfaffian_field(geo).value()[0]
        assert pf == pytest.approx(value, rel=1e-10)
        assert pf * m.volume == pytest.approx((2 * np.pi) ** (m.dim // 2) * m.chi,
                                              rel=1e-10)

    def test_pf2_weyl_s2xs2(self):
        # Pf_2(W) = |W|^2 / 8 = 2/3 on S^2 x S^2.
        m = get_model("S2xS2")
        geo = m.geometry(order=2)
        val = pf_ell_weyl_field(geo, 2).value()[0]
        assert val == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_pf_ell_poly_matches_values(self):
        m = get_model("S2xS2xS2")
        rng = np.random.default_rng(11)
        pts = m.base_point[None, :] + 0.1 * rng.uniform(-1, 1, size=(2, m.dim))
        geo = m.geometry(pts, order=2)
        Wud = raise_last_two(geo.weyl, geo.ginv)
        for ell in (2, 3):
            jet = pf_ell_poly(Wud, ell).value()
            direct = pf_ell(_raise_pair(geo.weyl.value(), geo.g.value()), ell)
            assert jet == pytest.approx(direct, rel=1e-11)

    def test_pf_ell_poly_zero_is_one(self):
        Tud = _weyl_jet(4, 2, seed=3)
        one = pf_ell_poly(Tud, 0)
        assert one.basis is Tud.basis and one.batch_ndim == 1
        assert one.coeffs.shape == (2, Tud.basis.size)
        assert np.array_equal(one.value(), pf_ell(Tud.value(), 0))
        assert not one.coeffs[:, 1:].any()


def _brute_pf_classes(ell):
    """The class list by explicit orbits: conjugate every permutation and
    its inverse by each element of the pair-block group."""
    def invert(p):
        return tuple(sorted(range(len(p)), key=p.__getitem__))

    group = []
    for blocks in itertools.permutations(range(ell)):
        for swaps in itertools.product((False, True), repeat=ell):
            pi = []
            for j, swap in zip(blocks, swaps):
                pi += [2 * j + 1, 2 * j] if swap else [2 * j, 2 * j + 1]
            group.append(tuple(pi))
    seen, classes = set(), []
    for sigma in itertools.permutations(range(2 * ell)):
        if sigma in seen:
            continue
        orbit = {tuple(pi[s[k]] for k in invert(pi))
                 for pi in group for s in (sigma, invert(sigma))}
        seen |= orbit
        classes.append((_perm_sign(sigma) * len(orbit), sigma))
    return classes


def _per_class_pf_poly(Tud, ell, order):
    """Pf_l on jets with each class contracted on its own: self-traces
    first, then repeatedly the two factors sharing the most letters."""
    total = None
    for mult, sigma in _pf_classes(ell):
        factors = []
        for s in _term_subscripts(sigma, ell):
            t = Tud
            while len(set(s)) < len(s):
                i = next(i for i, c in enumerate(s) if s.count(c) > 1)
                j = s.index(s[i], i + 1)
                t = pt_trace(t, i, j)
                s = s[:i] + s[i + 1:j] + s[j + 1:]
            factors.append((s, t))
        while len(factors) > 1:
            best = None
            for i in range(len(factors)):
                for j in range(i + 1, len(factors)):
                    shared = len(set(factors[i][0]) & set(factors[j][0]))
                    if best is None or shared > best[0]:
                        best = (shared, i, j)
            _, i, j = best
            (si, ti), (sj, tj) = factors[i], factors[j]
            out = "".join(c for c in si + sj if (si + sj).count(c) == 1)
            merged = jcontract(f"{si},{sj}->{out}", ti, tj, order)
            factors = [f for k, f in enumerate(factors) if k not in (i, j)]
            factors.append((out, merged))
        term = float(mult) * factors[0][1]
        total = term if total is None else total + term
    return _pf_prefactor(ell) * total


def _raise_pair(T, g):
    """T_{ab}{}^{cd} from batched dense T_{abcd} and metric g."""
    gi = np.linalg.inv(g)
    return np.einsum("...abef,...ec,...fd->...abcd", T, gi, gi)


def _per_class_pf(Tud, ell):
    """Dense Pf_l with each class contracted by its own multi-operand
    einsum, and the same sum taken over the absolute class terms."""
    total = size = 0.0
    for mult, sigma in _pf_classes(ell):
        expr = ",".join("..." + s for s in _term_subscripts(sigma, ell))
        term = mult * np.einsum(expr + "->...", *([Tud] * ell), optimize=True)
        total, size = total + term, size + np.abs(term)
    return _pf_prefactor(ell) * total, _pf_prefactor(ell) * size


def _weyl_jet(dim, order, seed, live=None, nvars=3, batch=2):
    """Random jets whose every coefficient is a Weyl-type tensor; with
    `live`, only index values below it carry nonzero components."""
    b = basis(nvars, order)
    live = live or dim
    W = random_weyl(live, seed=seed, nsamples=batch * b.size)
    coeffs = np.zeros((batch, b.size) + (dim,) * 4)
    coeffs[:, :, :live, :live, :live, :live] = W.reshape(
        (batch, b.size) + (live,) * 4)
    return PolyTensor(np.moveaxis(coeffs, 1, -1), b, 1)


class TestPfPlan:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_classes_match_orbit_enumeration(self, ell):
        assert _pf_classes(ell) == _brute_pf_classes(ell)

    @pytest.mark.parametrize("dim,ell,live", [(6, 2, None), (8, 2, 6),
                                              (6, 3, None), (8, 3, None),
                                              (8, 3, 6)])
    def test_matches_per_class_evaluation(self, dim, ell, live):
        # Jets nonzero on every component and jets living on six of eight
        # index values both run through the support kernel of contract.
        Tud = _weyl_jet(dim, 2, seed=dim + ell, live=live)
        got = pf_ell_poly(Tud, ell)
        assert np.array_equal(got.coeffs, _per_class_pf_poly(Tud, ell, 2).coeffs)

    def test_ell4_order0(self):
        Tud = _weyl_jet(8, 0, seed=48, batch=3)
        got = pf_ell_poly(Tud, 4)
        assert np.array_equal(got.coeffs, _per_class_pf_poly(Tud, 4, 0).coeffs)
        assert got.value() == pytest.approx(pf_ell_brute(Tud.value(), 4),
                                            rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("with_metric", [False, True])
    @pytest.mark.parametrize("dim,ell", [(d, e) for d in range(4, 9)
                                         for e in (2, 3, 4) if 2 * e <= d])
    def test_dense_matches_per_class_evaluation(self, dim, ell, with_metric):
        rng = np.random.default_rng([dim, ell])
        W = random_weyl(dim, seed=dim * ell, nsamples=3)
        if with_metric:
            a = rng.normal(size=(3, dim, dim))
            W = _raise_pair(W, a @ np.swapaxes(a, 1, 2) + dim * np.eye(dim))
        want, size = _per_class_pf(W, ell)
        # Relative to the summed absolute class terms, where roundoff
        # arises: at l = 4 the terms cancel to ~1e-3 of their size, so two
        # summation orders differ by up to ~1e-12 of the value itself.
        assert np.all(np.abs(pf_ell(W, ell) - want) <= 1e-13 * size)

    @pytest.mark.parametrize("evaluate", [
        lambda: pf_ell(random_weyl(8, seed=2, nsamples=2), 4),
        lambda: pf_ell_poly(_weyl_jet(8, 0, seed=1), 4)], ids=["dense", "jet"])
    def test_one_contraction_per_merge_step(self, monkeypatch, evaluate):
        # a merge of two scalars is one scalar jet product, every other
        # merge one contract; at order 0 contract runs no jet product
        calls, products = [], []

        def counting(*args):
            calls.append(args[0])
            return jcontract(*args)

        def counting_mul(*args):
            products.append(args[2:])
            return jet_mul(*args)

        jet_mul = jets._jet_mul
        monkeypatch.setattr(inv, "jcontract", counting)
        monkeypatch.setattr(jets, "_jet_mul", counting_mul)
        evaluate()
        steps = _pf_plan(4)[0]
        merges = [s for s in steps if s[0] == "merge"]
        scalar = [s for s in steps if s[0] == "product"]
        assert all(s[1] == ",->" for s in scalar)
        assert len(calls) == len(merges) and len(products) == len(scalar)
        assert len(merges) + len(scalar) < 513

    @pytest.mark.parametrize("ell", [2, 3])
    def test_nan_stays_in_its_sample(self, ell):
        T = random_weyl(6, seed=ell, nsamples=3)
        T[1, 0, 1, 2, 3] = np.nan
        got = pf_ell(T, ell)
        assert np.isnan(got[1]) and np.isfinite(got[[0, 2]]).all()
        Tud = _weyl_jet(6, 2, seed=ell, batch=3)
        Tud.coeffs[1, 0, 1, 2, 3, 0] = np.nan
        got = pf_ell_poly(Tud, ell).coeffs
        assert np.isnan(got[1]).any() and np.isfinite(got[[0, 2]]).all()


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


class TestRandomWeyl:
    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_symmetries(self, dim):
        W = random_weyl(dim, seed=dim, nsamples=2)
        res = curvature_symmetry_residuals(W)
        assert max(res.values()) < 1e-12
        assert np.abs(W).max() > 0.1  # not degenerate

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            random_weyl(3, seed=0)


class TestWeylBasisIdentity:
    @pytest.mark.parametrize("dim,ell", [(4, 2), (5, 2), (6, 2), (6, 3), (8, 4)])
    def test_low_order_identity(self, dim, ell):
        W = random_weyl(dim, seed=100 + dim + ell, nsamples=5)
        rep = low_order_pfaffian_identity(W, ell, tol=1e-10)
        assert rep.passed, rep

    @pytest.mark.parametrize("name", ["S4", "S2xS2", "CP2", "S2xS2xS2"])
    def test_einstein_expansion(self, name):
        rep = einstein_pfaffian_expansion(get_model(name))
        assert rep.passed, rep


def _handwritten_weyl_basis(W, k):
    """The Weyl contraction bases as hand-written einsums (oracle)."""
    w21 = np.einsum("...abcd,...abcd->...", W, W, optimize=True)
    if k == 2:
        return [w21]
    if k == 3:
        w31 = np.einsum("...abcd,...cdef,...efab->...", W, W, W, optimize=True)
        w32 = np.einsum("...acbd,...cedf,...eafb->...", W, W, W, optimize=True)
        return [w31, w32]
    w41 = w21 ** 2
    w42 = np.einsum("...abcd,...cdef,...efgh,...ghab->...", W, W, W, W,
                    optimize=True)
    A = np.einsum("...acde,...bcde->...ab", W, W, optimize=True)
    w43 = np.einsum("...ab,...ab->...", A, A, optimize=True)
    w44 = np.einsum("...abcd,...cdef,...ageh,...bgfh->...", W, W, W, W,
                    optimize=True)
    w45 = np.einsum("...abcd,...cdef,...aegh,...bfgh->...", W, W, W, W,
                    optimize=True)
    w46 = np.einsum("...acbd,...cedf,...egfh,...gahb->...", W, W, W, W,
                    optimize=True)
    w47 = np.einsum("...acbd,...ecfd,...ageh,...bgfh->...", W, W, W, W,
                    optimize=True)
    return [w41, w42, w43, w44, w45, w46, w47]


def _jet_weyl_rows():
    """(name, k, i, raised) of every catalog field that evaluates a row of
    `WEYL_BASIS` on jets."""
    rows = [(name, fn.keywords["k"], fn.keywords["i"], fn.keywords["raised"])
            for name, (fn, _) in STRAIGHTENABLE_FIELDS.items()
            if getattr(fn, "func", None) is weyl_contraction_field]
    assert len(rows) == 2
    return rows


class TestWeylTable:
    @pytest.mark.parametrize("dim", [6, 8])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_table_matches_handwritten_basis(self, dim, k):
        W = random_weyl(dim, seed=dim + k, nsamples=7)
        got, want = weyl_basis(W, k), _handwritten_weyl_basis(W, k)
        assert len(got) == len(want) == len(WEYL_BASIS[k])
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("name", ["CP2", "perturbed-S4", "S2xS2xS2"])
    def test_jet_fields_match_orthonormal_frame(self, name):
        m = get_model(name)
        rng = np.random.default_rng(17)
        pts = m.base_point[None, :] + 0.1 * rng.uniform(-1, 1, size=(3, m.dim))
        geo = m.geometry(pts, order=2)
        # columns of E are a g-orthonormal frame: E^T g E = I
        lam, V = np.linalg.eigh(geo.g.value())
        E = V / np.sqrt(lam)[:, None, :]
        W_on = np.einsum("...abcd,...ai,...bj,...ck,...dl->...ijkl",
                         geo.weyl.value(), E, E, E, E)
        want = weyl_basis(W_on, 3)
        for fn, w in ((w31_field, want[0]), (w32_field, want[1])):
            got = fn(geo).value()
            assert np.all(np.abs(got - w) <= 1e-12 * np.abs(w).max()), fn

    @pytest.mark.parametrize("row", _jet_weyl_rows(), ids=lambda r: r[0])
    def test_jet_rows_raise_each_letter_once(self, row):
        _, k, i, raised = row
        slots = {}
        for f in WEYL_BASIS[k][i - 1][0].split(","):
            for pos, c in enumerate(f):
                slots.setdefault(c, []).append(pos in raised)
        assert all(sorted(v) == [False, True] for v in slots.values()), slots


class TestIellOperator:
    def test_closed_form_coefficients(self):
        assert i_ell_closed_form_coeff(6, 2, 1, 1.0) == pytest.approx(-4.0 / 3.0)
        assert i_ell_closed_form_coeff(8, 2, 2, 1.0) == pytest.approx(4.5)
        assert i_ell_closed_form_coeff(8, 3, 1, 1.0) == pytest.approx(-1.5)
        # ell = 0 is the identity
        assert i_ell_closed_form_coeff(6, 2, 0, 2.3) == pytest.approx(1.0)

    def test_operator_matches_closed_form_homogeneous(self):
        # On a homogeneous Einstein space I is constant, so I_ell reduces to
        # the closed-form multiple pointwise.
        m = get_model("S2xS2xS2")
        geo0 = m.geometry(order=2)
        base = weyl_norm2_field(geo0).value()[0]
        got = i_ell_operator(weyl_norm2_field, 2, 1, m)[0]
        want = i_ell_closed_form_coeff(m.dim, 2, 1, m.j_value) * base
        assert got == pytest.approx(want, rel=1e-9)

    def test_operator_rejects_non_einstein(self):
        m = get_model("perturbed-S4")
        with pytest.raises(ValueError):
            i_ell_operator(weyl_norm2_field, 2, 1, m)

    def test_field_catalog_entries(self):
        m = get_model("S2xS2xS2")  # dim 6, so pf3-weyl is defined
        geo = m.geometry(order=2)  # the metric jet order every field reads
        for name, (fn, k) in STRAIGHTENABLE_FIELDS.items():
            vals = fn(geo).value()
            assert np.all(np.isfinite(vals)), name
            assert k in (2, 3)


class TestDivergenceConstruction:
    def test_singular_weight_rejected(self):
        m = get_model("S4")
        geo = m.geometry(order=3)
        T = geo.ricci  # rank 2, symmetric
        with pytest.raises(ValueError):
            divergence_construction(geo, T, w=2.0)  # w = 2k-2 with k = 2

    def test_rank_and_shape(self):
        m = get_model("S2xS2")
        geo = m.geometry(order=3)
        U = divergence_construction(geo, geo.ricci, w=0.0)
        assert U.rank == 1
        assert np.all(np.isfinite(U.value()))
