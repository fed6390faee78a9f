"""Tests for generalized Pfaffians, Weyl-basis identities, and the
iterated-Laplacian operator."""

import itertools
import math

import numpy as np
import pytest

import rcint.invariants as inv
from rcint.geometry import get_model, pt_trace
from rcint.invariants import (
    STRAIGHTENABLE_FIELDS,
    _perm_sign,
    _pf_classes,
    _pf_plan,
    _pf_prefactor,
    _term_subscripts,
    curvature_symmetry_residuals,
    divergence_construction,
    double_factorial,
    einstein_pfaffian_expansion,
    i_ell_closed_form_coeff,
    i_ell_operator,
    low_order_pfaffian_identity,
    pf_ell,
    pf_ell_brute,
    pf_ell_poly,
    pfaffian,
    raise_array,
    raise_last_two,
    random_weyl,
    weyl_norm2_field,
)
from rcint.jets import PolyTensor, basis, contract as jcontract


class TestHelpers:
    def test_double_factorial(self):
        assert [double_factorial(m) for m in (-1, 0, 1, 3, 5, 7)] == \
            [1, 1, 1, 3, 15, 105]

    def test_class_counts(self):
        # Conjugation by the pair-block group plus inversion collapses
        # S_{2l} to these many contraction classes.
        assert [len(_pf_classes(ell)) for ell in (1, 2, 3, 4)] == [2, 8, 34, 171]

    def test_class_multiplicities_cover_group(self):
        for ell in (1, 2, 3):
            total = sum(abs(mult) for mult, _ in _pf_classes(ell))
            assert total == math.factorial(2 * ell)


class TestPfEll:
    @pytest.mark.parametrize("dim,ell", [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3)])
    def test_matches_brute_force(self, dim, ell):
        W = random_weyl(dim, seed=10 * dim + ell, nsamples=3)
        g = np.broadcast_to(np.eye(dim), (3, dim, dim))
        assert pf_ell(W, ell, g) == pytest.approx(pf_ell_brute(W, ell, g),
                                                  rel=1e-12, abs=1e-12)

    def test_nonidentity_metric(self):
        rng = np.random.default_rng(7)
        dim = 4
        W = random_weyl(dim, seed=3)
        a = rng.normal(size=(dim, dim))
        g = a @ a.T + 3 * np.eye(dim)
        # abstract-index value: consistent between the two evaluators
        assert pf_ell(W, 2, g) == pytest.approx(pf_ell_brute(W, 2, g), rel=1e-12)

    def test_dimension_guard(self):
        T = np.zeros((4,) * 4)
        with pytest.raises(ValueError):
            pf_ell(T, 3)
        with pytest.raises(ValueError):
            pfaffian(np.zeros((3,) * 4))

    def test_pf_zero_is_one(self):
        assert pf_ell(np.zeros((2, 4, 4, 4, 4)), 0) == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("name,value", [("S4", 3.0), ("S2xS2", 1.0),
                                            ("CP2", 24.0)])
    def test_pfaffian_model_values(self, name, value):
        # (2 pi)^{n/2} chi = Pf * Vol on these homogeneous spaces.
        m = get_model(name)
        geo = m.geometry(order=2)
        pf = pfaffian(geo.riemann.value(), geo.g.value())[0]
        assert pf == pytest.approx(value, rel=1e-10)
        assert pf * m.volume == pytest.approx((2 * np.pi) ** (m.dim // 2) * m.chi,
                                              rel=1e-10)

    def test_pf2_weyl_s2xs2(self):
        # Pf_2(W) = |W|^2 / 8 = 2/3 on S^2 x S^2.
        m = get_model("S2xS2")
        geo = m.geometry(order=2)
        val = pf_ell(geo.weyl.value(), 2, geo.g.value())[0]
        assert val == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_pf_ell_poly_matches_values(self):
        m = get_model("S2xS2xS2")
        rng = np.random.default_rng(11)
        pts = m.base_point[None, :] + 0.1 * rng.uniform(-1, 1, size=(2, m.dim))
        geo = m.geometry(pts, order=2)
        Wud = raise_last_two(geo.weyl, geo.ginv)
        for ell in (2, 3):
            jet = pf_ell_poly(Wud, ell).value()
            direct = pf_ell(geo.weyl.value(), ell, geo.g.value())
            assert jet == pytest.approx(direct, rel=1e-11)

    def test_pf_ell_poly_zero_is_one(self):
        Tud = _weyl_jet(4, 2, seed=3)
        one = pf_ell_poly(Tud, 0)
        assert one.basis is Tud.basis and one.batch_ndim == 1
        assert one.coeffs.shape == (2, Tud.basis.size)
        assert np.array_equal(one.value(), pf_ell(Tud.value(), 0))
        assert not one.coeffs[:, 1:].any()

    @pytest.mark.parametrize("slots,pattern", [
        ((2, 3), "...abef,...ec,...fd->...abcd"),
        ((1, 3), "...aebf,...ec,...fd->...acbd"),
        ((0, 1, 2, 3), "...efgh,...ea,...fb,...gc,...hd->...abcd"),
    ])
    def test_raise_array_matches_einsum(self, slots, pattern):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 5, 5))
        g = a @ np.swapaxes(a, 1, 2) + 3 * np.eye(5)
        T = rng.normal(size=(3, 5, 5, 5, 5))
        gi = np.linalg.inv(g)
        want = np.einsum(pattern, T, *[gi] * len(slots))
        np.testing.assert_allclose(raise_array(T, gi, slots), want,
                                   rtol=1e-12, atol=1e-12)


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


def _per_class_pf(T, ell, metric=None):
    """Dense Pf_l with each class contracted by its own multi-operand
    einsum, and the same sum taken over the absolute class terms."""
    Tud = T if metric is None else raise_array(T, np.linalg.inv(metric), (2, 3))
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
        # Dense jets take only the einsum kernel of contract; jets living on
        # six of eight index values also reach its sparse kernel.
        Tud = _weyl_jet(dim, 2, seed=dim + ell, live=live)
        got = pf_ell_poly(Tud, ell)
        assert np.array_equal(got.coeffs, _per_class_pf_poly(Tud, ell, 2).coeffs)

    def test_ell4_order0(self):
        # one point, because pf_ell_brute sums 8! einsums
        Tud = _weyl_jet(8, 0, seed=48, batch=1)
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
        g = None
        if with_metric:
            a = rng.normal(size=(3, dim, dim))
            g = a @ np.swapaxes(a, 1, 2) + dim * np.eye(dim)
        want, size = _per_class_pf(W, ell, g)
        # Relative to the summed absolute class terms, where roundoff
        # arises: at l = 4 the terms cancel to ~1e-3 of their size, so two
        # summation orders differ by up to ~1e-12 of the value itself.
        assert np.all(np.abs(pf_ell(W, ell, g) - want) <= 1e-13 * size)

    def test_dense_one_einsum_per_merge_step(self, monkeypatch):
        W = random_weyl(8, seed=2, nsamples=2)
        calls = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            calls.append(args)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        pf_ell(W, 4)
        merges = [s for s in _pf_plan(4)[0] if s[0] == "merge"]
        assert len(calls) == len(merges) < 513
        assert all(len(args) == 3 for args in calls)  # pattern, x, y

    def test_one_contraction_per_merge_step(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return jcontract(*args)

        monkeypatch.setattr(inv, "jcontract", counting)
        pf_ell_poly(_weyl_jet(8, 0, seed=1), 4)
        merges = [s for s in _pf_plan(4)[0] if s[0] == "merge"]
        assert len(calls) == len(merges) < 513


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
        geo = m.geometry(order=2)
        for name, (fn, k, base_order) in STRAIGHTENABLE_FIELDS.items():
            vals = fn(geo).value()
            assert np.all(np.isfinite(vals)), name
            assert k in (2, 3) and base_order == 2


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
