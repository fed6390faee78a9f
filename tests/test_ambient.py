"""Tests for the explicit Ricci-flat ambient chart and the two evaluation
routes for the renormalized integrands P_{l,n}."""

import numpy as np
import pytest

import rcint.geometry as geometry
from rcint.ambient import (
    AmbientChart,
    ambient_christoffel_check,
    ambient_christoffels_exact,
    ambient_curvature_check,
    ambient_iterated_laplacian,
    ambient_laplacian_homogeneous,
    ambient_ricci_check,
    check_straightenable,
    p_ell_n_ambient,
    p_ell_n_einstein,
)
from rcint.geometry import (JET_BUDGET_BYTES, Model, get_model,
                            product_of_spheres)
from rcint.invariants import raise_last_two, weyl_norm2_field


@pytest.fixture(scope="module")
def s4_chart():
    return AmbientChart(get_model("S4"))


@pytest.fixture(scope="module")
def s2xs2_chart():
    return AmbientChart(get_model("S2xS2"))


class TestAmbientStructure:
    def test_dimensions_and_tau(self, s4_chart):
        chart = s4_chart
        assert chart.dim == 6
        pts = chart.sample_points(5, seed=1)
        t, rho = pts[:, 0], pts[:, -1]
        assert np.allclose(chart.tau(pts), t * (1 + chart.base.lam * rho))
        assert np.all(t > 0)
        assert np.all(np.abs(chart.base.lam * rho) <= 0.25)

    def test_embed_base_points(self, s4_chart):
        x = np.array([[1.0, 1.1, 0.9, 1.2]])
        pts = s4_chart.embed_base_points(x)
        assert pts.shape == (1, 6)
        assert pts[0, 0] == 1.0 and pts[0, -1] == 0.0
        assert np.allclose(pts[0, 1:-1], x[0])

    def test_domain_validation(self, s4_chart):
        bad_t = s4_chart.embed_base_points(
            s4_chart.base.base_point[None, :]).copy()
        bad_t[0, 0] = -1.0
        with pytest.raises(ValueError):
            s4_chart.geometry(bad_t, order=1)
        bad_rho = s4_chart.embed_base_points(
            s4_chart.base.base_point[None, :]).copy()
        bad_rho[0, -1] = 10.0
        with pytest.raises(ValueError):
            s4_chart.geometry(bad_rho, order=1)

    def test_ambient_chart_rejects_non_einstein(self):
        with pytest.raises(ValueError):
            AmbientChart(get_model("perturbed-S4"))


class TestAmbientCurvature:
    @pytest.mark.parametrize("base", ["S4", "S2xS2"])
    def test_ricci_flat(self, base):
        chart = AmbientChart(get_model(base))
        pts = chart.sample_points(8, seed=2)
        for rep in ambient_ricci_check(chart, pts, tol=1e-8):
            assert rep.passed, rep

    def test_riemann_is_scaled_weyl(self, s2xs2_chart):
        pts = s2xs2_chart.sample_points(6, seed=3)
        rep = ambient_curvature_check(s2xs2_chart, pts, tol=1e-9)
        assert rep.passed, rep

    def test_christoffels_match_closed_form(self, s4_chart):
        pts = s4_chart.sample_points(6, seed=4)
        rep = ambient_christoffel_check(s4_chart, pts, tol=1e-10)
        assert rep.passed, rep
        exact = ambient_christoffels_exact(s4_chart, pts)
        # spot-check a closed-form block: Gamma^rho_{0 rho} = 1/t
        assert exact[:, -1, 0, -1] == pytest.approx(1.0 / pts[:, 0])


class TestAmbientLaplacian:
    def test_homogeneous_push_pull(self, s4_chart):
        # Delta~(tau^w pullback(u)) = tau^{w-2} pullback((Delta + 2 lam w (n+w-1)) u)
        pts = s4_chart.sample_points(4, seed=5)
        lhs, rhs = ambient_laplacian_homogeneous(
            s4_chart, weyl_norm2_field, w=-4.0, points=pts, base_order=2)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_constant_field(self, s4_chart):
        # u = 1 with weight w: Delta~ tau^w = 2 lam w (n+w-1) tau^{w-2}.
        from rcint.jets import const_poly

        def const_field(geo):
            return const_poly(np.ones(geo.g.value().shape[0]), geo.basis, 1)

        pts = s4_chart.sample_points(4, seed=6)
        lhs, rhs = ambient_laplacian_homogeneous(
            s4_chart, const_field, w=-4.0, points=pts, base_order=0)
        assert lhs == pytest.approx(rhs, abs=1e-11)


class TestStraightenable:
    def test_weyl_norm2_is_straightenable(self, s4_chart):
        rep = check_straightenable(weyl_norm2_field, w=-4.0, chart=s4_chart,
                                   tol=1e-9, name="weyl-norm2")
        assert rep.passed, rep

    def test_weyl_tensor_is_straightenable(self, s4_chart):
        rep = check_straightenable(lambda geo: geo.weyl, w=2.0,
                                   chart=s4_chart, tol=1e-9, name="weyl")
        assert rep.passed, rep

    def test_riemann_is_not_straightenable(self, s4_chart):
        # Negative control: the full curvature tensor carries metric terms
        # that do not scale homogeneously, so the residual must be large.
        rep = check_straightenable(lambda geo: geo.riemann, w=2.0,
                                   chart=s4_chart, tol=1e-9,
                                   name="riemann")
        assert not rep.passed
        assert rep.abs_err > 0.1


class TestRouteEquivalence:
    @pytest.mark.parametrize("base,ell", [("S4", 2), ("S2xS2", 2),
                                          ("S2xS2xS2", 2), ("S2xS2xS2", 3)])
    def test_p_ell_n_routes_agree(self, base, ell):
        model = get_model(base)
        chart = AmbientChart(model)
        amb = p_ell_n_ambient(chart, ell)
        ein = p_ell_n_einstein(model, ell)
        # abs-or-rel: on S4 the Weyl tensor vanishes, so both routes give 0
        err = abs(amb[0] - ein[0])
        assert err < 1e-7 or err / abs(ein[0]) < 1e-7

    def test_p_2_4_equals_weyl_norm(self):
        # In dimension 4, P_{2,4} = Pf_2(W) = |W|^2 / 8.
        model = get_model("S2xS2")
        chart = AmbientChart(model)
        val = p_ell_n_ambient(chart, 2)[0]
        w2 = model.geometry(order=2).norm_squared(
            model.geometry(order=2).weyl).value()[0]
        assert val == pytest.approx(w2 / 8.0, rel=1e-10)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_argument_validation(self, s4_chart):
        with pytest.raises(ValueError):
            p_ell_n_ambient(s4_chart, 3)  # l > n/2
        with pytest.raises(ValueError):
            p_ell_n_einstein(get_model("perturbed-S4"), 2)

    def test_iterated_laplacian_zero_steps(self, s2xs2_chart):
        # m = 0 reduces to plain evaluation at the lifted point.
        def field(geo):
            from rcint.invariants import pf_ell_poly
            tud = raise_last_two(geo.riemann, geo.ginv)
            return pf_ell_poly(tud, 2)

        val = ambient_iterated_laplacian(s2xs2_chart, field, 0)
        assert val[0] == pytest.approx(2.0 / 3.0, rel=1e-10)


class TestPointBatches:
    @pytest.mark.parametrize("base,ell", [("S2xS2", 2), ("S2xS2xS2", 2),
                                          ("S2xS2xS2", 3)])
    def test_batched_route_matches_stacked_points(self, base, ell):
        model = get_model(base)
        chart = AmbientChart(model)
        rng = np.random.default_rng(11)
        x = model.base_point + rng.uniform(-0.25, 0.25, (6, model.dim))
        batched = p_ell_n_ambient(chart, ell, x)
        stacked = np.concatenate([p_ell_n_ambient(chart, ell, row[None, :])
                                  for row in x])
        assert batched.shape == (6,)
        np.testing.assert_allclose(batched, stacked, rtol=1e-13, atol=0)
        np.testing.assert_allclose(batched, p_ell_n_einstein(model, ell, x),
                                   rtol=1e-12, atol=0)

    def test_p_4_10_routes_agree(self):
        # (S2)^5: the ambient jets at l = 4 fit the budget, whatever n is
        model = product_of_spheres(5)
        amb = p_ell_n_ambient(AmbientChart(model), 4)
        ein = p_ell_n_einstein(model, 4)
        np.testing.assert_allclose(amb, ein, rtol=1e-12, atol=0)

    def test_p_2_10_refused_by_bytes_before_any_geometry(self, monkeypatch):
        def unbuilt(self, points, order):
            raise AssertionError("Geometry built before the budget check")

        monkeypatch.setattr(AmbientChart, "geometry", unbuilt)
        chart = AmbientChart(product_of_spheres(5))
        # 12^4 components x 1716 order-6 monomials in 7 variables x 8 bytes
        budget = f"{JET_BUDGET_BYTES / 2 ** 20:.0f} MiB budget"
        with pytest.raises(ValueError, match=f"271 MiB, over the {budget}"):
            p_ell_n_ambient(chart, 2)

    def test_einstein_route_slices_by_bytes(self, monkeypatch):
        model = get_model("S2xS2xS2")
        rng = np.random.default_rng(5)
        x = model.base_point + rng.uniform(-0.25, 0.25, (5, model.dim))
        single = np.concatenate([p_ell_n_einstein(model, 2, row[None, :])
                                 for row in x])
        sizes = []
        build = Model.geometry

        def recorded(self, points, order):
            sizes.append(len(points))
            return build(self, points, order)

        # 2 points' order-4 jets (6^4 x 10 monomials in 3 variables x 8 bytes)
        monkeypatch.setattr(geometry, "JET_BUDGET_BYTES", 2 * 6 ** 4 * 10 * 8)
        monkeypatch.setattr(Model, "geometry", recorded)
        batched = p_ell_n_einstein(model, 2, x)
        assert sizes == [2, 2, 1]
        np.testing.assert_allclose(batched, single, rtol=1e-13, atol=0)

    def test_einstein_route_refused_by_bytes_before_any_geometry(
            self, monkeypatch):
        def unbuilt(self, points, order):
            raise AssertionError("Geometry built before the budget check")

        monkeypatch.setattr(geometry, "JET_BUDGET_BYTES", 6 ** 4 * 10 * 8 - 1)
        monkeypatch.setattr(Model, "geometry", unbuilt)
        with pytest.raises(ValueError, match="estimated at .* MiB, over the"):
            p_ell_n_einstein(get_model("S2xS2xS2"), 2)
