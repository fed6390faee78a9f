"""Tests for quadrature, renormalized volumes, and the Gauss-Bonnet-type
verification suites."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import rcint.cli as cli
import rcint.geometry as geometry
import rcint.integrate as integ
from rcint.geometry import (EPS_POLE, MODEL_NAMES, Model, chart_slice,
                            get_model, sphere_volume)
from rcint.integrate import (
    LaurentSeries,
    QuadratureRule,
    divergence_identity_checks,
    integrate_scalar,
    remark_divergence_scalars,
    renormalized_volume,
    renormalized_volume_exact,
    verify_cgb,
    verify_gbc,
    verify_main_theorem_coefficient,
    verify_worked_examples,
)
from rcint.invariants import pfaffian_field, weyl_norm2_field
from rcint.jets import const_poly, contract


def _one(geo):
    return const_poly(np.ones(geo.g.value().shape[0]), geo.basis, 1)


#: the catalog models that declare a zero-axis orbit slice
_ORBIT_MODELS = [name for name in MODEL_NAMES
                 if get_model(name).orbit_slice is not None]


def _g_squares(geo):
    """Sum of the squared metric components: a chart-dependent integrand
    that varies along every non-cyclic coordinate of the catalog charts."""
    return contract("ab,ab->", geo.g, geo.g)


class TestQuadrature:
    def test_sphere_volume_quadrature(self):
        m = get_model("S4")
        got = integrate_scalar(_one, m, order=0, force_quadrature=True)
        assert got == pytest.approx(sphere_volume(4), rel=1e-10)

    def test_cp2_volume_quadrature(self):
        m = get_model("CP2")
        got = integrate_scalar(_one, m, order=0, force_quadrature=True)
        assert got == pytest.approx(math.pi ** 2 / 2, rel=1e-9)

    def test_quadrature_convergence(self):
        # doubling the nodes changes the answer by less than 1e-8 (relative)
        m = get_model("perturbed-S4")
        a = integrate_scalar(weyl_norm2_field, m, order=2, nodes_per_axis=24)
        b = integrate_scalar(weyl_norm2_field, m, order=2, nodes_per_axis=48)
        assert abs(a - b) / abs(b) < 1e-8
        assert b == pytest.approx(0.145366600945, rel=1e-8)

    def test_homogeneous_shortcut_matches_quadrature(self):
        m = get_model("S2xS2")
        fast = integrate_scalar(weyl_norm2_field, m, order=2)
        slow = integrate_scalar(weyl_norm2_field, m, order=2,
                                force_quadrature=True)
        assert fast == pytest.approx(slow, rel=1e-9)
        assert fast == pytest.approx(256 * math.pi ** 2 / 3, rel=1e-12)

    @pytest.mark.parametrize("name", ["perturbed-S4", "CP2"])
    def test_rule_is_the_product_rule_with_the_first_axis_slowest(self,
                                                                   name):
        m = get_model(name)
        x, w = np.polynomial.legendre.leggauss(3)
        half = [(0.5 * (hi - lo), 0.5 * (hi + lo)) for lo, hi in m.slice.bounds]
        u = np.stack(np.meshgrid(*[h * x + c for h, c in half],
                                 indexing="ij"), axis=-1).reshape(-1, len(half))
        gl = np.prod(np.meshgrid(*[h * w for h, _ in half], indexing="ij"),
                     axis=0).ravel()
        rule = QuadratureRule(m, 3)
        np.testing.assert_array_equal(rule.points, m.slice.embed(u))
        np.testing.assert_array_equal(rule.weights, gl * m.slice.weight(u))

    @pytest.mark.parametrize("name", _ORBIT_MODELS)
    def test_orbit_slice_is_the_base_point_weighted_to_the_volume(self,
                                                                   name):
        m = get_model(name)
        rule = QuadratureRule(m, 24, m.orbit_slice)
        np.testing.assert_array_equal(rule.points, m.base_point[None, :])
        assert integrate_scalar(_one, m, order=0) == pytest.approx(
            m.volume, rel=1e-14)

    @pytest.mark.parametrize("name", [name for name in _ORBIT_MODELS
                                      if get_model(name).dim >= 3])
    def test_orbit_slice_weyl_norm_matches_chart_rule(self, name):
        # |W|^2 is constant on these models, so its chart integral over
        # that of 1 at the same nodes reads its value at any node count
        m = get_model(name)
        k = max(2, int(300 ** (1 / len(m.slice.bounds))))
        chart = [integrate_scalar(f, m, order=o, nodes_per_axis=k,
                                  force_quadrature=True)
                 for f, o in ((weyl_norm2_field, 2), (_one, 0))]
        assert integrate_scalar(weyl_norm2_field, m, order=2) == \
            pytest.approx(chart[0] / chart[1] * m.volume, rel=1e-9,
                          abs=1e-9 * m.volume)

    @pytest.mark.parametrize("name", ["S2xS2", "S4"])
    def test_collapsed_rule_matches_full_rule(self, name):
        # one node per cyclic axis, weighted by its period, integrates
        # exactly what a full Gauss-Legendre axis over the period does
        m = get_model(name)
        box = {a: (0.0, 2 * math.pi) if a in m.cyclic
               else (EPS_POLE, math.pi - EPS_POLE) for a in range(m.dim)}
        full = dataclasses.replace(m, cyclic=(),
                                   slice=chart_slice(m.dim, box, 0.0, 1.0))
        rule, full_rule = QuadratureRule(m, 8), QuadratureRule(full, 8)
        assert len(rule.points) == 8 ** (m.dim - len(m.cyclic))
        assert len(full_rule.points) == 8 ** m.dim
        assert rule.weights.sum() == pytest.approx(full_rule.weights.sum(),
                                                   rel=1e-12)
        for field in (_g_squares, weyl_norm2_field):
            got = integrate_scalar(field, m, order=2, nodes_per_axis=8,
                                   force_quadrature=True)
            want = integrate_scalar(field, full, order=2, nodes_per_axis=8,
                                    force_quadrature=True)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_perturbed_sphere_orbit_slice_matches_chart_rule(self):
        # the 2d slice theta_3 = pi/2 weighted by vol(S^2) against the
        # round S4 chart rule on theta_1..theta_3, azimuth collapsed
        m = get_model("perturbed-S4")
        chart = dataclasses.replace(m, slice=get_model("S4").slice)
        assert len(QuadratureRule(m, 20).points) == 20 ** 2
        assert len(QuadratureRule(chart, 20).points) == 20 ** 3
        for field in (weyl_norm2_field, pfaffian_field):
            got = integrate_scalar(field, m, order=2, nodes_per_axis=20)
            want = integrate_scalar(field, chart, order=2, nodes_per_axis=20)
            assert got == pytest.approx(want, rel=1e-11)

    def test_batches_cover_each_node_once_and_keep_the_value(
            self, monkeypatch):
        def lap_w2(geo):
            return geo.laplacian(weyl_norm2_field(geo))

        m = get_model("perturbed-S4")
        one = integrate_scalar(lap_w2, m, order=4, nodes_per_axis=8)
        batches, build = [], Model.geometry

        def recorded(self, points=None, order=2):
            batches.append(points)
            return build(self, points, order)

        # 20 points' order-4 jets (4^4 x 10 monomials x 8 bytes each)
        monkeypatch.setattr(geometry, "JET_BUDGET_BYTES", 20 * 4 ** 4 * 10 * 8)
        monkeypatch.setattr(Model, "geometry", recorded)
        split = integrate_scalar(lap_w2, m, order=4, nodes_per_axis=8)
        assert [len(b) for b in batches] == [20, 20, 20, 4]
        np.testing.assert_array_equal(np.concatenate(batches),
                                      QuadratureRule(m, 8).points)
        assert split == pytest.approx(one, rel=1e-13, abs=1e-13)

    def test_no_slice_rejected(self):
        m = dataclasses.replace(get_model("perturbed-S4"), slice=None)
        with pytest.raises(ValueError, match="no quadrature slice"):
            QuadratureRule(m, 4)

    def test_cp2_weyl_integral(self):
        m = get_model("CP2")
        assert integrate_scalar(weyl_norm2_field, m, order=2) == \
            pytest.approx(48 * math.pi ** 2, rel=1e-9)

    def test_noncompact_rejected(self):
        with pytest.raises(ValueError):
            integrate_scalar(_one, get_model("H4"), order=0)


class TestLaurentSeries:
    def test_fp_reads_constant_term(self):
        s = LaurentSeries()
        s.add(-2, Fraction(5)).add(0, Fraction(3, 7)).add(2, Fraction(1))
        assert s.fp() == Fraction(3, 7)

    def test_pure_divergent_fp_is_zero(self):
        s = LaurentSeries()
        s.add(-4, Fraction(1)).add(-2, Fraction(-2))
        assert s.fp() == 0

    def test_log_term_blocks_fp(self):
        s = LaurentSeries(log_coeff=Fraction(1, 2))
        with pytest.raises(ValueError):
            s.fp()


class TestRenormalizedVolume:
    def test_exact_values(self):
        # V(H^4) = 4 pi^2 / 3, V(H^6) = -8 pi^3 / 15
        assert renormalized_volume_exact(4) == Fraction(4, 3)
        assert renormalized_volume_exact(6) == Fraction(-8, 15)

    def test_float_wrapper(self):
        assert renormalized_volume(4) == pytest.approx(4 * math.pi ** 2 / 3,
                                                       abs=1e-12)
        assert renormalized_volume(6) == pytest.approx(-8 * math.pi ** 3 / 15,
                                                       abs=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            renormalized_volume_exact(5)


class TestGaussBonnet:
    @pytest.mark.parametrize("name", ["S4", "S2xS2", "CP2", "S2xS2xS2",
                                      "perturbed-S4"])
    def test_cgb(self, name):
        rep = verify_cgb(get_model(name))
        assert rep.passed, rep

    @pytest.mark.parametrize("name", ["S4", "S2xS2", "CP2", "S2xS2xS2"])
    def test_gbc_both_routes(self, name):
        for rep in verify_gbc(get_model(name)):
            assert rep.passed, rep

    def test_gbc_over_a_chart_slice_matches_the_orbit_slice(self):
        # the same identity through the 2-d chart slice of S2xS2, 24^2
        # nodes, with the orbit slice removed
        orbit = get_model("S2xS2")
        chart = dataclasses.replace(orbit, orbit_slice=None)
        assert len(QuadratureRule(chart, 24).points) == 24 ** 2
        for got, want in zip(verify_gbc(chart), verify_gbc(orbit)):
            assert got.passed, got
            assert got.check_id == want.check_id
            assert got.rhs == pytest.approx(want.rhs, rel=1e-11)

    def test_main_theorem_over_a_chart_slice_matches_the_orbit_slice(
            self, monkeypatch):
        # S2xS2xS2 through its 3-d chart slice at 3 nodes per axis: both
        # sides, over the rule's own volume, read the orbit-slice values
        orbit = get_model("S2xS2xS2")
        chart = dataclasses.replace(orbit, orbit_slice=None)
        want = verify_main_theorem_coefficient(orbit, "weyl-norm2")
        integrate = integ.integrate_scalar

        def few_nodes(field_fn, model, order=2, **kw):
            return integrate(field_fn, model, order, nodes_per_axis=3, **kw)

        monkeypatch.setattr(integ, "integrate_scalar", few_nodes)
        got = verify_main_theorem_coefficient(chart, "weyl-norm2")
        assert got.passed, got
        volume = few_nodes(_one, chart, order=0)
        for side in ("lhs", "rhs"):
            assert getattr(got, side) / volume == pytest.approx(
                getattr(want, side) / orbit.volume, rel=1e-11)

    def test_gbc_rejects_nonhomogeneous(self):
        with pytest.raises(ValueError):
            verify_gbc(get_model("perturbed-S4"))


class TestMainTheorem:
    def test_dim6_weyl_norm2(self):
        rep = verify_main_theorem_coefficient(get_model("S2xS2xS2"),
                                              "weyl-norm2")
        assert rep.passed, rep

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            verify_main_theorem_coefficient(get_model("S2xS2xS2"), "nope")


class TestDivergenceIdentities:
    @pytest.mark.parametrize("name", ["S2xS2", "CP2"])
    def test_worked_examples_homogeneous(self, name):
        for rep in verify_worked_examples(get_model(name)):
            assert rep.passed, rep

    def test_worked_examples_perturbed(self):
        for rep in verify_worked_examples(get_model("perturbed-S4")):
            assert rep.passed, rep

    def test_worked_examples_build_one_base_geometry(self, monkeypatch):
        builds, geometry = [], Model.geometry

        def counted(self, points=None, order=2):
            if points is None:
                builds.append(order)
            return geometry(self, points, order)

        monkeypatch.setattr(Model, "geometry", counted)
        verify_worked_examples(get_model("S2xS2"))
        assert builds == [4]

    def test_lemma_4_1_is_integrated_once(self, monkeypatch, tmp_path):
        # divergence and worked-examples share the perturbed sphere; only
        # `int-div-perturbed-S4` integrates Delta |W|^2 over it, and the
        # other two order-4 integrals are those of `ibp-u` and of
        # <W, Delta W> in `ibp-nablaW`
        calls, integrate = [], integ.integrate_scalar

        def recorded(field_fn, model, order=2, **kw):
            calls.append((model.name, order))
            return integrate(field_fn, model, order, **kw)

        monkeypatch.setattr(integ, "integrate_scalar", recorded)
        out = tmp_path / "reports.jsonl"
        assert cli.main(["verify", "divergence", "worked-examples",
                         "--out", str(out)]) == cli.EXIT_OK
        assert calls.count(("perturbed-S4", 4)) == 3
        ids = [json.loads(line)["check_id"]
               for line in out.read_text().splitlines()]
        assert ids.count("int-div-perturbed-S4") == 1
        assert not any(i.startswith("divergence-int") for i in ids)

    def test_remark_scalars_vanish(self):
        for rep in remark_divergence_scalars(get_model("S2xS2xS2xS2")):
            assert rep.passed, rep

    def test_divergence_identity_suite(self):
        for rep in divergence_identity_checks():
            assert rep.passed, rep

    def test_suite_fails_without_the_trace_term(self, monkeypatch):
        # `divergence_construction` with its trace term dropped: the Cotton
        # form of the Weyl-squared divergence scalar no longer holds at the
        # non-Einstein six-dimensional point, where neither side vanishes
        def plain_divergence(geo, T, w, order=None):
            idx = "abcdefg"[:T.rank - 1]
            return contract(f"e{idx}b,eb->{idx}",
                            geo.covariant_derivative(T), geo.ginv,
                            T.basis.order - 1 if order is None else order)

        monkeypatch.setattr(integ, "divergence_construction",
                            plain_divergence)
        reports = {r.check_id: r for r in divergence_identity_checks()}
        assert not reports["w6-divergence-cotton-dim6"].passed
