"""Tests for curvature machinery on the model catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcint import invariants
from rcint.ambient import AmbientChart, p_ell_n_ambient
from rcint.geometry import (
    MODEL_NAMES,
    Geometry,
    _coordinate_jets,
    get_model,
    perturbed_sphere,
    product_of_spheres,
    sphere,
    sphere_volume,
    pt_transpose,
    raise_slots,
)
from rcint.integrate import (
    cotton_divergence_scalar,
    weyl_squared_divergence_scalar,
)
from rcint.jets import PolyTensor, basis, contract, poly_matrix_inverse


def _sample_points(model, count=4, seed=0, spread=0.2):
    rng = np.random.default_rng(seed)
    return model.base_point[None, :] + spread * rng.uniform(
        -1.0, 1.0, size=(count, model.dim))


class TestRoundSphere:
    def test_s2_christoffels(self):
        # Unit S^2 in (theta, phi): Gamma^theta_{phi phi} = -sin t cos t,
        # Gamma^phi_{theta phi} = cot t.
        m = sphere(2)
        pts = np.array([[1.1, 0.7], [0.4, 2.0]])
        geo = m.geometry(pts, order=1)
        gam = geo.christoffel.value()  # (B, up, low, low)
        t = pts[:, 0]
        assert gam[:, 0, 1, 1] == pytest.approx(-np.sin(t) * np.cos(t))
        assert gam[:, 1, 0, 1] == pytest.approx(np.cos(t) / np.sin(t))
        assert gam[:, 1, 1, 0] == pytest.approx(np.cos(t) / np.sin(t))
        assert gam[:, 0, 0, 0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_constant_curvature(self, n):
        # Unit S^n: R_abcd = g_ac g_bd - g_ad g_bc, Scal = n(n-1).
        m = sphere(n)
        pts = _sample_points(m, count=3, seed=1)
        geo = m.geometry(pts, order=2)
        g = geo.g.value()
        rm = geo.riemann.value()
        want = (np.einsum("...ac,...bd->...abcd", g, g)
                - np.einsum("...ad,...bc->...abcd", g, g))
        assert np.abs(rm - want).max() < 1e-10
        scal = geo.scalar_curvature.value()
        assert scal == pytest.approx(n * (n - 1), rel=1e-10)

    @pytest.mark.parametrize("n", [4, 6])
    def test_weyl_vanishes(self, n):
        m = sphere(n)
        geo = m.geometry(_sample_points(m, count=2, seed=2), order=2)
        assert np.abs(geo.weyl.value()).max() < 1e-10

    def test_laplacian_eigenfunction(self):
        # Delta cos(theta_1) = -n cos(theta_1) on the unit S^n (first
        # spherical harmonic, geometer's sign convention).
        n = 4
        m = sphere(n)
        pts = _sample_points(m, count=3, seed=3)
        geo = m.geometry(pts, order=2)

        from rcint.jets import coordinate_poly
        u = coordinate_poly(geo.basis, 0, pts[:, 0]).cos()
        lap = geo.laplacian(u).value()
        assert lap == pytest.approx(-n * np.cos(pts[:, 0]), rel=1e-9)


class TestEinsteinCatalog:
    @pytest.mark.parametrize("name", ["S4", "S2xS2", "CP2", "S2xS2xS2", "S6"])
    def test_einstein_condition(self, name):
        # Ric = 2 lam (n-1) g at off-base sample points.
        m = get_model(name)
        geo = m.geometry(_sample_points(m, count=3, seed=4, spread=0.1), order=2)
        ric = geo.ricci.value()
        g = geo.g.value()
        want = 2 * m.lam * (m.dim - 1) * g
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(ric - want).max() / scale < 1e-9

    def test_cp2_constants(self):
        m = get_model("CP2")
        geo = m.geometry(order=2)
        assert geo.scalar_curvature.value()[0] == pytest.approx(24.0, rel=1e-10)
        w2 = geo.norm_squared(geo.weyl).value()[0]
        assert w2 == pytest.approx(96.0, rel=1e-9)

    @pytest.mark.parametrize("order", [2, 4])
    def test_cp2_chart_matches_complex_arithmetic(self, order):
        # h_ij = (delta_ij (1+s) - conj(z_i) z_j)/(1+s)^2 in complex jets,
        # with g(dx_i, dx_j) = Re h_ij and g(dx_i, dy_j) = Im h_ij
        m = get_model("CP2")
        pts = _sample_points(m, count=5, seed=7, spread=0.3)
        geo = m.geometry(pts, order=order)
        x1, y1, x2, y2 = _coordinate_jets(pts, geo.basis, range(4))
        z = [x1 + 1j * y1, x2 + 1j * y2]
        zb = [x1 - 1j * y1, x2 - 1j * y2]
        s = zb[0] * z[0] + zb[1] * z[1]
        want = np.zeros(geo.g.coeffs.shape)
        for i in range(2):
            for j in range(2):
                h = (((1.0 + s) if i == j else 0.0) - zb[i] * z[j]) * (
                    (1.0 + s) ** (-2))
                for a, b, part in ((2 * i, 2 * j, h.coeffs.real),
                                   (2 * i + 1, 2 * j + 1, h.coeffs.real),
                                   (2 * i, 2 * j + 1, h.coeffs.imag),
                                   (2 * i + 1, 2 * j, -h.coeffs.imag)):
                    want[:, a, b] = part
        assert geo.g.coeffs.dtype == np.float64
        assert np.abs(geo.g.coeffs - want).max() < 1e-13 * np.abs(want).max()

    def test_s2xs2_weyl_norm(self):
        # |W|^2 = 16/3 pointwise on S^2 x S^2 with unit factors
        # (integral 256 pi^2 / 3 over volume 16 pi^2).
        m = get_model("S2xS2")
        geo = m.geometry(_sample_points(m, count=2, seed=5), order=2)
        w2 = geo.norm_squared(geo.weyl).value()
        assert w2 == pytest.approx(16.0 / 3.0, rel=1e-9)

    @pytest.mark.parametrize("name", ["S4", "S2xS2", "CP2"])
    def test_cotton_vanishes_einstein(self, name):
        m = get_model(name)
        geo = m.geometry(_sample_points(m, count=2, seed=6, spread=0.1), order=3)
        assert np.abs(geo.cotton.value()).max() < 1e-8


class TestCurvatureIdentities:
    def test_riemann_symmetries_perturbed(self):
        m = perturbed_sphere(4, amp=0.1)
        geo = m.geometry(_sample_points(m, count=2, seed=7, spread=0.1), order=2)
        rm = geo.riemann
        v = rm.value()
        assert np.abs(v + pt_transpose(rm, (1, 0, 2, 3)).value()).max() < 1e-9
        assert np.abs(v + pt_transpose(rm, (0, 1, 3, 2)).value()).max() < 1e-9
        assert np.abs(v - pt_transpose(rm, (2, 3, 0, 1)).value()).max() < 1e-9
        bianchi = (v + pt_transpose(rm, (1, 2, 0, 3)).value()
                   + pt_transpose(rm, (2, 0, 1, 3)).value())
        assert np.abs(bianchi).max() < 1e-9

    @pytest.mark.parametrize("name,order", [("CP2", 2), ("CP2", 4),
                                            ("perturbed-S4", 4)])
    def test_weyl_is_riemann_minus_four_kulkarni_nomizu_terms(self, name,
                                                              order):
        # `weyl` lowers `weyl_ud`, written with deltas; the four
        # contractions of the Kulkarni-Nomizu product are an independent
        # oracle, equal up to the roundoff of R-sized terms
        m = get_model(name)
        geo = m.geometry(_sample_points(m, count=3, seed=5, spread=0.1),
                         order=order)
        p, g = geo.schouten, geo.g
        kn = (contract("ac,bd->abcd", p, g) - contract("ad,bc->abcd", p, g)
              + contract("bd,ac->abcd", p, g) - contract("bc,ad->abcd", p, g))
        assert geo.weyl.coeffs.shape == geo.riemann.coeffs.shape
        _assert_close(geo.weyl, geo.riemann - kn,
                      np.abs(geo.riemann.coeffs).max())

    def test_perturbed_sphere_not_conformally_flat(self):
        m = perturbed_sphere(4, amp=0.1)
        geo = m.geometry(order=3)
        assert np.abs(geo.weyl.value()).max() > 1e-4
        assert np.abs(geo.cotton.value()).max() > 1e-5

    def test_second_bianchi_contracted(self):
        # div Ric = (1/2) d Scal on a non-symmetric example.
        m = perturbed_sphere(4, amp=0.1)
        pts = _sample_points(m, count=2, seed=8, spread=0.1)
        geo = m.geometry(pts, order=3)
        ric = geo.ricci
        dric = geo.covariant_derivative(ric)  # (B, a, b, c) = grad_a Ric_bc
        gi = geo.ginv.value()
        div = np.einsum("...ab,...abc->...c", gi, dric.value())
        dscal = geo.covariant_derivative(geo.scalar_curvature).value()
        assert np.abs(div - 0.5 * dscal).max() < 1e-8


#: (space, metric order): perturbed-S4 is the one non-Einstein case, and
#: the only one where P_a^c is not a multiple of delta_a^c, so the only one
#: where a delta on the wrong index pair of W_{ab}^{cd} changes a value
_MIXED_CASES = [(name, order) for name in ("perturbed-S4", "CP2",
                                           "S2xS2xS2", "ambient-S2xS2")
                for order in (2, 4)]


def _mixed_geometry(name, order):
    if name.startswith("ambient-"):
        chart = AmbientChart(get_model(name.removeprefix("ambient-")))
        return chart.geometry(chart.sample_points(3, seed=7), order)
    m = get_model(name)
    return m.geometry(_sample_points(m, count=3, seed=5, spread=0.1), order)


def _assert_close(got, want, scale=None, rtol=1e-13):
    """`got` equals `want` to `rtol` of `scale`, by default the largest
    coefficient of `want`."""
    scale = np.abs(want.coeffs).max() if scale is None else scale
    assert got.basis is want.basis
    assert np.abs(got.coeffs - want.coeffs).max() <= rtol * scale


class TestMixedCurvature:
    """R_{ab}^{cd} and W_{ab}^{cd}, built with one raise, against the
    lower tensors raised in both last slots."""

    @pytest.mark.parametrize("name,order", _MIXED_CASES)
    def test_riemann_ud_is_riemann_raised(self, name, order):
        geo = _mixed_geometry(name, order)
        _assert_close(geo.riemann_ud,
                      invariants.raise_last_two(geo.riemann, geo.ginv))

    @pytest.mark.parametrize("name,order", _MIXED_CASES)
    def test_weyl_ud_is_weyl_raised_and_lowers_to_weyl(self, name, order):
        geo = _mixed_geometry(name, order)
        got = geo.weyl_ud
        # W is a difference of R-sized terms, so raising W raises their
        # roundoff too: on perturbed-S4, |W| is about |R| / 200
        want = invariants.raise_last_two(geo.weyl, geo.ginv)
        _assert_close(got, want, np.abs(geo.riemann_ud.coeffs).max())
        # lowering by g adds no such roundoff: W's own scale
        low = contract("abed,ec->abcd",
                       contract("abef,fd->abed", got, geo.g), geo.g)
        _assert_close(low, geo.weyl)

    @pytest.mark.parametrize("name,order", _MIXED_CASES)
    def test_weyl_norm2_is_norm_squared_of_weyl(self, name, order):
        geo = _mixed_geometry(name, order)
        _assert_close(invariants.weyl_norm2_field(geo),
                      geo.norm_squared(geo.weyl))


def _random_metric_jet(dim=4, order=2, batch=2, seed=0):
    """A symmetric, positive-definite metric jet at `batch` points."""
    rng = np.random.default_rng(seed)
    b = basis(dim, order)
    coeffs = 0.1 * rng.normal(size=(batch, dim, dim, b.size))
    coeffs = coeffs + np.swapaxes(coeffs, 1, 2)
    coeffs[..., 0] += 2.0 * np.eye(dim)
    return PolyTensor(coeffs, b, 1)


#: slots -> the same raising written as an explicit contraction chain; the
#: rank-3 entry is the Cotton tensor's
_RAISE_CHAINS = {
    (2, 3): ["abcd,cx->abxd", "abxd,dy->abxy"],
    (1, 3): ["abcd,bx->axcd", "axcd,dy->axcy"],
    (0,): ["abcd,ax->xbcd"],
    (1,): ["abcd,bx->axcd"],
    (1, 2, 3): ["abcd,bx->axcd", "axcd,cy->axyd", "axyd,dz->axyz"],
    (0, 1, 2, 3): ["abcd,ax->xbcd", "xbcd,by->xycd", "xycd,cz->xyzd",
                   "xyzd,dw->xyzw"],
    (0, 1, 2): ["abc,ax->xbc", "xbc,by->xyc", "xyc,cz->xyz"],
}


class TestRaiseSlots:
    @pytest.mark.parametrize("slots", list(_RAISE_CHAINS))
    def test_matches_contraction_chain(self, slots):
        g = _random_metric_jet()
        ginv = poly_matrix_inverse(g.truncate(2))
        chain = _RAISE_CHAINS[slots]
        rank = chain[0].index(",")
        rng = np.random.default_rng(len(slots))
        t = PolyTensor(rng.normal(size=(2,) + (4,) * rank + (g.basis.size,)),
                       g.basis, 1)
        want = t
        for pattern in chain:
            want = contract(pattern, want, ginv)
        got = raise_slots(t, ginv, slots)
        assert got.basis is want.basis
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-13,
                                   atol=1e-13)

    def test_raise_all_then_lower_roundtrip(self):
        m = perturbed_sphere(4, amp=0.1)
        geo = m.geometry(_sample_points(m, count=2, seed=9, spread=0.1),
                         order=4)
        rm = geo.riemann
        back = geo.raise_all(rm)
        assert back.basis.order == rm.basis.order
        for pattern in ("xbcd,xa->abcd", "axcd,xb->abcd", "abxd,xc->abcd",
                        "abcx,xd->abcd"):
            back = contract(pattern, back, geo.g, rm.basis.order)
        scale = np.abs(rm.coeffs).max()
        assert np.abs(back.coeffs - rm.coeffs).max() <= 1e-12 * scale


def _riemann_up_full_then_truncate(geo):
    """Reference R_{abc}^d: Gamma Gamma at order K - 1, truncated after."""
    gam = geo.christoffel
    dgam = geo.gradient(gam)
    t1 = pt_transpose(dgam, (0, 2, 3, 1))
    t2 = pt_transpose(dgam, (2, 0, 3, 1))
    q1 = contract("fac,dbf->abcd", gam, gam)
    q2 = contract("fbc,daf->abcd", gam, gam)
    return -t1 + t2 + (q1 - q2).truncate(t1.basis.order)


class TestFieldOrders:
    """Each field is built only to the order its consumers read."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_field_orders(self, order):
        m = perturbed_sphere(4, amp=0.1)
        geo = m.geometry(_sample_points(m, count=2, seed=3), order=order)
        want = {"g": order, "ginv": order - 1, "christoffel": order - 1,
                "riemann_up": order - 2, "riemann": order - 2,
                "ricci": order - 2, "scalar_curvature": order - 2,
                "schouten": order - 2, "weyl": order - 2}
        got = {name: getattr(geo, name).basis.order for name in want}
        assert got == want
        if order >= 3:
            assert geo.cotton.basis.order == order - 3

    def test_derivative_past_the_jet_order_names_the_order_needed(self):
        # Scal is an order-0 jet at metric order 2; its Laplacian needs 4
        geo = get_model("S4").geometry(order=2)
        scal = geo.scalar_curvature
        with pytest.raises(ValueError, match="at order >= 4"):
            geo.laplacian(scal)
        with pytest.raises(ValueError, match="at order >= 3"):
            geo.gradient(scal)
        with pytest.raises(ValueError, match="at order >= 3"):
            geo.covariant_derivative(geo.ricci)
        with pytest.raises(ValueError, match="order >= 0"):
            contract("ab,ab->", geo.g, geo.g, -1)
        geo4 = get_model("S4").geometry(order=4)
        assert abs(geo4.laplacian(geo4.scalar_curvature).value()[0]) < 1e-12

    def test_ginv_is_bitwise_symmetric(self):
        geo = get_model("CP2").geometry(order=2)
        c = geo.ginv.coeffs
        assert np.array_equal(c, c.swapaxes(-2, -3))

    @pytest.mark.parametrize("name", ["CP2", "perturbed-S4"])
    def test_riemann_up_matches_full_order_formula(self, name):
        m = get_model(name)
        geo = m.geometry(_sample_points(m, count=3, seed=6, spread=0.1),
                         order=4)
        got, want = geo.riemann_up, _riemann_up_full_then_truncate(geo)
        assert got.basis is want.basis
        scale = np.abs(want.coeffs).max()
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * scale

    def test_no_contraction_reads_above_operand_order(self):
        # `contract` raises for an order above either operand's: operands
        # of a `Geometry` field are truncated jets, so such an order would
        # read coefficients never built
        m = perturbed_sphere(6, amp=0.1)
        geo = m.geometry(_sample_points(m, count=2, seed=4, spread=0.1),
                         order=4)
        for name in ("ginv", "christoffel", "riemann_up", "riemann", "ricci",
                     "scalar_curvature", "j_scalar", "schouten", "weyl",
                     "cotton"):
            getattr(geo, name)
        w2 = geo.norm_squared(geo.weyl)
        geo.laplacian(w2)
        geo.laplacian(geo.schouten)
        geo.norm_squared(geo.cotton)
        weyl_squared_divergence_scalar(geo)
        cotton_divergence_scalar(geo)
        chart = AmbientChart(get_model("S4"))
        assert np.isfinite(p_ell_n_ambient(chart, 2)).all()


def _embed_reduced(p, free, nvars):
    """Coefficients of a jet over the variables `free` of an `nvars`-variable
    chart, written in the full basis of the same order."""
    full = basis(nvars, p.basis.order)
    exps = np.zeros((p.basis.size, nvars), dtype=np.int64)
    exps[:, list(free)] = p.basis.exps
    out = np.zeros(p.coeffs.shape[:-1] + (full.size,))
    out[..., full.lookup(exps)] = p.coeffs
    return out


def _cyclic_cases():
    """(name, metric_fn, dim, cyclic, points) for the reduced-basis tests."""
    cases = []
    for name in ("S2xS2", "perturbed-S4"):
        m = get_model(name)
        cases.append((name, m.metric_fn, m.dim, m.cyclic,
                      _sample_points(m, count=3, seed=11, spread=0.1)))
    chart = AmbientChart(get_model("S4"))
    cases.append(("ambient-S4", chart.metric_fn, chart.dim, chart.cyclic,
                  chart.sample_points(3, seed=11)))
    return cases


def _fields(geo):
    """Metric-derived fields of every kind: g^{-1}, Gamma, curvature, a
    covariant derivative and a Laplacian of a non-constant scalar."""
    u = contract("ab,ab->", geo.g, geo.g)  # sum of squared components
    return {"ginv": geo.ginv, "christoffel": geo.christoffel,
            "riemann_up": geo.riemann_up, "riemann": geo.riemann,
            "weyl": geo.weyl,
            "nabla_riemann": geo.covariant_derivative(geo.riemann),
            "nabla_u": geo.covariant_derivative(u),
            "laplacian_u": geo.laplacian(u)}


class TestCyclicCoordinates:
    """A basis over the non-cyclic coordinates gives the same fields as the
    full basis, whose coefficients along cyclic variables all vanish."""

    @pytest.mark.parametrize("case", _cyclic_cases(), ids=lambda c: c[0])
    def test_reduced_fields_match_full_basis(self, case):
        name, metric_fn, dim, cyclic, pts = case
        assert cyclic
        reduced = Geometry(metric_fn, dim, pts, 4, cyclic)
        full = Geometry(metric_fn, dim, pts, 4)
        assert reduced.basis.nvars == dim - len(cyclic)
        got, want = _fields(reduced), _fields(full)
        for field_name, f in want.items():
            emb = _embed_reduced(got[field_name], reduced.free, dim)
            # fields that vanish identically (the ambient curvature over
            # S4) are compared at the metric's unit scale
            scale = max(np.abs(f.coeffs).max(), 1.0)
            err = np.abs(emb - f.coeffs).max()
            assert err <= 1e-12 * scale, (name, field_name, err)

    def test_gradient_is_zero_along_cyclic_coordinates(self):
        m = get_model("S2xS2")
        geo = m.geometry(_sample_points(m, count=2, seed=12), order=3)
        dg = geo.gradient(geo.g)
        assert dg.comp_shape == (4, 4, 4)
        for i in m.cyclic:
            assert not dg.coeffs[:, i].any()
        for v, i in enumerate(geo.free):
            np.testing.assert_array_equal(dg.coeffs[:, i],
                                          geo.g.diff(v).coeffs)

    def test_wrong_declaration_names_the_coordinate(self):
        m = sphere(2)
        pts = np.array([[1.1, 0.7], [0.4, 2.0]])
        with pytest.raises(ValueError, match="coordinate 0 is declared "
                                             "cyclic"):
            Geometry(m.metric_fn, 2, pts, 2, cyclic=(0,))
        Geometry(m.metric_fn, 2, pts, 2, cyclic=(1,))

    def test_dependence_through_a_free_coordinate_is_seen(self):
        # x1 enters g_00 only in a product with the free x0, so its jet in
        # the cyclic coordinates alone meets x0 as a constant
        def fn(x):
            return [[1.0 + x[0] * x[1], 0.0], [0.0, 1.0]]

        pts = np.array([[0.3, 0.5], [0.2, 0.1]])
        with pytest.raises(ValueError, match="coordinate 1 is declared "
                                             "cyclic"):
            Geometry(fn, 2, pts, 2, cyclic=(1,))
        Geometry(lambda x: [[1.0 + x[0] * x[0], 0.0], [0.0, 1.0]], 2, pts, 2,
                 cyclic=(1,))

    def test_catalog_declarations(self):
        assert get_model("S4").cyclic == (3,)
        assert get_model("S2xS2xS2xS2").cyclic == (1, 3, 5, 7)
        assert get_model("perturbed-S4").cyclic == (3,)
        assert get_model("H4").cyclic == (3,)
        assert get_model("CP2").cyclic == ()
        assert AmbientChart(get_model("S2xS2")).cyclic == (2, 4)


#: homogeneous models with a Weyl tensor (dimension >= 3)
_HOMOGENEOUS = [name for name in MODEL_NAMES
                if get_model(name).homogeneous and get_model(name).dim >= 3]


class TestHomogeneousWeylNorm:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(_HOMOGENEOUS),
           offset=st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8))
    def test_weyl_norm_is_constant(self, name, offset):
        # |W|^2 is an invariant, so it takes one value on a homogeneous
        # model; evaluated on the reduced-basis geometry
        m = get_model(name)
        pts = np.stack([m.base_point,
                        m.base_point + np.array(offset[: m.dim])])
        geo = m.geometry(pts, order=2)
        assert geo.basis.nvars == m.dim - len(m.cyclic)
        w2 = invariants.weyl_norm2_field(geo).value()
        assert abs(w2[1] - w2[0]) <= 1e-9 * max(abs(w2[0]), 1.0)


class TestNonFiniteMetric:
    def test_rejected_naming_first_point(self):
        def metric_fn(coords):
            x, _ = coords
            return [[1.0 + x * x, 0.0], [0.0, (x - 0.5) ** (-1.0)]]

        pts = np.array([[0.1, 0.0], [0.5, 0.2], [0.5, 0.3]])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"point 1 \[0\.5, 0\.2\]"):
                Geometry(metric_fn, 2, pts, 2)


class TestModelRegistry:
    def test_all_models_instantiate(self):
        for name in MODEL_NAMES:
            m = get_model(name)
            assert m.dim >= 2
            assert m.base_point.shape == (m.dim,)

    def test_aliases_and_case(self):
        # one spelling per model: the catalog name, exactly
        for name in ("s4", "(S2)^2", "perturbed-sphere", "perturbed_S4"):
            with pytest.raises(KeyError, match="available: CP2, H4, H6, "):
                get_model(name)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("nope")

    def test_volume_constants(self):
        assert get_model("S4").volume == pytest.approx(sphere_volume(4))
        assert get_model("S2xS2").volume == pytest.approx((4 * np.pi) ** 2)
        assert get_model("CP2").volume == pytest.approx(np.pi ** 2 / 2)

    def test_product_of_spheres_scaling(self):
        m = product_of_spheres(3)
        assert m.dim == 6
        assert m.lam == pytest.approx(0.1)  # Ric = g on each unit S^2 factor
