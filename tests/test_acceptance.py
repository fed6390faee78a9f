"""Acceptance criteria: one test per criterion, pinned tolerances.

Run with `pytest -v` to get one pass/fail line per criterion.  Criterion
ordering matters for wall time: the expensive n = 8 ambient quantities are
computed once in criterion 4 and reused from the module-level cache in
criterion 6.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rcint.ambient import (
    AmbientChart,
    ambient_christoffel_check,
    ambient_curvature_check,
    ambient_laplacian_homogeneous,
    ambient_ricci_check,
)
from rcint.geometry import get_model
from rcint.integrate import (
    divergence_identity_checks,
    integrate_scalar,
    p_ell_n_values,
    renormalized_volume,
    renormalized_volume_exact,
    verify_cgb,
    verify_gbc,
    verify_main_theorem_coefficient,
    verify_worked_examples,
)
from rcint.invariants import (
    low_order_pfaffian_identity,
    pf_ell,
    pf_ell_brute,
    random_weyl,
    weyl_norm2_field,
)
from rcint.jets import const_poly
from rcint.tensor import kronecker_recursion_residual


def test_criterion_01_kronecker_recursion_exact():
    t0 = time.time()
    worst = 0
    for n in range(2, 9):
        for k in range(2, n + 1):
            worst = max(worst, kronecker_recursion_residual(k, n, samples=300))
    assert worst <= 1e-12
    assert time.time() - t0 < 10.0


def test_criterion_02_pfaffian_weyl_basis_fuzz():
    t0 = time.time()
    for dim in (4, 5, 6, 8):
        W = random_weyl(dim, seed=dim, nsamples=100)
        for ell in (2, 3, 4):
            if 2 * ell > dim:
                continue
            rep = low_order_pfaffian_identity(W, ell, tol=1e-10)
            assert rep.passed, rep
            # independent brute-force oracle in the tractable range
            if dim <= 6 and ell <= 3:
                sub = W[:5]
                assert pf_ell(sub, ell) == pytest.approx(
                    pf_ell_brute(sub, ell), rel=1e-12, abs=1e-12)
    # Pf_4 in dimension 8 must evaluate in under a second per point
    W8 = random_weyl(8, seed=99)
    t1 = time.time()
    pf_ell(W8, 4)
    assert time.time() - t1 < 1.0
    assert time.time() - t0 < 300.0


def test_criterion_03_compact_gauss_bonnet():
    for name in ("S4", "S2xS2", "CP2", "S2xS2xS2"):
        rep = verify_cgb(get_model(name), tol=1e-6)
        assert rep.passed, rep


def test_criterion_04_gauss_bonnet_with_corrections():
    # the two pinned curvature integrals feeding the n = 4 cases
    assert integrate_scalar(weyl_norm2_field, get_model("S2xS2")) == \
        pytest.approx(256 * math.pi ** 2 / 3, rel=1e-12)
    assert integrate_scalar(weyl_norm2_field, get_model("CP2")) == \
        pytest.approx(48 * math.pi ** 2, rel=1e-9)
    for name in ("S4", "S2xS2", "CP2", "S2xS2xS2", "S2xS2xS2xS2"):
        for rep in verify_gbc(get_model(name), tol=1e-6):
            assert rep.passed, rep


def test_criterion_05_ambient_space():
    for base in ("S4", "S2xS2"):
        chart = AmbientChart(get_model(base))
        pts = chart.sample_points(20, seed=0)
        for rep in ambient_ricci_check(chart, pts, tol=1e-8):
            assert rep.passed, rep
        rep = ambient_curvature_check(chart, pts, tol=1e-9)
        assert rep.passed, rep
        rep = ambient_christoffel_check(chart, pts, tol=1e-10)
        assert rep.passed, rep
        lhs, rhs = ambient_laplacian_homogeneous(
            chart, weyl_norm2_field, w=-4.0, points=pts[:4], base_order=2)
        assert np.abs(lhs - rhs).max() <= 1e-8


def _p_ell_n_integral(model, ell, route):
    """Integral of P_{l,n} by `route` over the model's slice, from the
    memoized route values that `verify_gbc` integrates."""
    def field(geo):
        values = p_ell_n_values(model, ell, route, geo.points)
        return const_poly(values, geo.basis, 1)

    return integrate_scalar(field, model, order=0)


def test_criterion_06_route_equivalence():
    # P_{l,n} by the ambient iterated-Laplacian route vs the intrinsic
    # Einstein-operator route, all 2 <= l <= n/2 for n in {4, 6, 8}.  These
    # models declare one-point orbit slices, so the integrals read the
    # route values memoized by criterion 4.
    cases = {4: "S2xS2", 6: "S2xS2xS2", 8: "S2xS2xS2xS2"}
    for n, name in cases.items():
        model = get_model(name)
        for ell in range(2, n // 2 + 1):
            amb = _p_ell_n_integral(model, ell, "ambient")
            ein = _p_ell_n_integral(model, ell, "einstein")
            err = abs(amb - ein)
            assert err <= 1e-7 or err / abs(ein) <= 1e-7, (n, ell, amb, ein)
    # P_{2,4} = (1/8)|W|^2
    m = get_model("S2xS2")
    per_point = _p_ell_n_integral(m, 2, "ambient") / m.volume
    geo = m.geometry(order=2)
    assert per_point == pytest.approx(
        geo.norm_squared(geo.weyl).value()[0] / 8.0, rel=1e-7)


def test_criterion_07_divergence_identities():
    for rep in divergence_identity_checks(tol_pointwise=1e-8, tol_int=1e-6):
        assert rep.passed, rep


def test_criterion_08_renormalized_volume_exact():
    assert renormalized_volume_exact(4) == Fraction(4, 3)
    assert renormalized_volume_exact(6) == Fraction(-8, 15)
    assert abs(renormalized_volume(4) - 4 * math.pi ** 2 / 3) <= 1e-12
    assert abs(renormalized_volume(6) + 8 * math.pi ** 3 / 15) <= 1e-12


def test_criterion_09_main_theorem_coefficients():
    cases = [("S2xS2xS2", "weyl-norm2"),       # (n, k) = (6, 2)
             ("S2xS2xS2xS2", "weyl-norm2"),    # (n, k) = (8, 2)
             ("S2xS2xS2xS2", "pf3-weyl")]      # (n, k) = (8, 3)
    for name, field in cases:
        rep = verify_main_theorem_coefficient(get_model(name), field,
                                              tol=1e-7)
        assert rep.passed, rep


def test_criterion_10_worked_examples():
    for rep in verify_worked_examples(get_model("S2xS2"),
                                      tol_pointwise=1e-8):
        assert rep.passed, rep
