"""Quadrature on compact catalog manifolds, finite-part extraction for
renormalized volumes, and the end-to-end Gauss--Bonnet-type checks.

Integrals use product Gauss--Legendre rules on the chart boxes declared by
each catalog model; homogeneous models short-circuit to value x volume.
When a model integrates over its chart box itself (no `quad_map`), each of
its cyclic coordinates is an axis the integrand cannot vary along: the rule
collapses that axis to one node weighted by its period, and the jets at the
nodes carry no variable for it.  Finite parts are exact rational series
bookkeeping in the cutoff, never a numeric limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import Geometry, Model, get_model, raise_slots
from .jets import contract as jcontract
from .invariants import (
    STRAIGHTENABLE_FIELDS,
    double_factorial,
    i_ell_closed_form_coeff,
    pfaffian_field,
    raise_last_two,
    weyl_norm2_field,
)
from .reports import CheckReport

_CHUNK = 2048  # quadrature nodes per jet-pipeline batch


class QuadratureRule:
    """Product Gauss--Legendre rule over a model's chart box.

    Chart boxes exclude an epsilon neighborhood of coordinate
    degeneracies; the omitted measure is far below the tolerance budget.
    A model without `quad_map` integrates over its chart box, and there
    each cyclic axis is one node at its midpoint weighted by its period.
    """

    def __init__(self, model: Model, nodes_per_axis=24):
        if not model.quad_bounds:
            raise ValueError(f"{model.name} has no quadrature chart")
        collapsed = model.cyclic if model.quad_map is None else ()
        axes_x, axes_w = [], []
        for axis, (lo, hi) in enumerate(model.quad_bounds):
            if axis in collapsed:
                axes_x.append(np.array([0.5 * (hi + lo)]))
                axes_w.append(np.array([hi - lo]))
                continue
            x, w = np.polynomial.legendre.leggauss(nodes_per_axis)
            axes_x.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            axes_w.append(0.5 * (hi - lo) * w)
        grids = np.meshgrid(*axes_x, indexing="ij")
        u = np.column_stack([g.ravel() for g in grids])
        wgrids = np.meshgrid(*axes_w, indexing="ij")
        weights = np.ones(len(u))
        for wg in wgrids:
            weights *= wg.ravel()
        if model.quad_density is not None:
            weights = weights * model.quad_density(u)
        self.points = model.quad_map(u) if model.quad_map else u
        self.weights = weights


def integrate_scalar(field_fn, model: Model, order=2, nodes_per_axis=24,
                     force_quadrature=False) -> float:
    """Integral of a scalar invariant over a compact catalog model.

    `field_fn(geo) -> scalar PolyTensor`; `order` is the metric jet order
    the field consumes.  Homogeneous models with a known exact volume
    short-circuit to value x volume unless `force_quadrature`.
    """
    if not model.compact:
        raise ValueError(f"{model.name} is not compact")
    if model.homogeneous and model.volume is not None and not force_quadrature:
        geo = model.geometry(order=order)
        return float(field_fn(geo).value()[0]) * model.volume
    rule = QuadratureRule(model, nodes_per_axis)
    total = 0.0
    for start in range(0, len(rule.points), _CHUNK):
        pts = rule.points[start:start + _CHUNK]
        w = rule.weights[start:start + _CHUNK]
        geo = model.geometry(pts, order)
        vals = field_fn(geo).value() * geo.sqrt_det_g()
        total += float(np.sum(w * vals))
    return total


# ---------------------------------------------------------------------------
# finite parts


@dataclass
class LaurentSeries:
    """Finite Laurent expansion in the cutoff, with an optional log term.

    Coefficients are exact rationals; `fp` reads off the exponent-0
    coefficient after asserting the log coefficient vanishes.
    """

    coeffs: dict = field(default_factory=dict)  # exponent -> Fraction
    log_coeff: Fraction = Fraction(0)

    def add(self, exponent: int, value):
        value = Fraction(value)
        self.coeffs[exponent] = self.coeffs.get(exponent, Fraction(0)) + value
        return self

    def __add__(self, other):
        out = LaurentSeries(dict(self.coeffs), self.log_coeff)
        for e, v in other.coeffs.items():
            out.add(e, v)
        out.log_coeff += other.log_coeff
        return out

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return LaurentSeries({e: v * scalar for e, v in self.coeffs.items()},
                             self.log_coeff * scalar)

    __rmul__ = __mul__

    def fp(self) -> Fraction:
        if self.log_coeff != 0:
            raise ValueError("nonzero log coefficient in finite-part "
                             "extraction")
        return self.coeffs.get(0, Fraction(0))


def renormalized_volume_exact(n: int) -> Fraction:
    """fp of Vol({r > eps}) for the hyperbolic normal form
    g = r^-2 (dr^2 + (1 - r^2/4)^2 h_{S^{n-1}}), as a multiple of pi^{n/2}.

    The density r^{-n} (1 - r^2/4)^{n-1} is a Laurent polynomial in r, so
    each term integrates exactly on [eps, 2]; the eps-side primitives are
    pure nonzero powers (n even), so the finite part is the upper-limit
    value alone.
    """
    if n % 2 or n < 2:
        raise ValueError("even n >= 2 required")
    series = LaurentSeries()  # expansion of -F(eps), F a primitive
    upper = Fraction(0)
    for k in range(n):
        c = Fraction(math.comb(n - 1, k)) * Fraction(-1, 4) ** k
        p = 2 * k - n  # exponent of r in this density term
        if p == -1:
            # would integrate to a log; cannot occur for even n
            series.log_coeff += -c
            continue
        upper += c * Fraction(2) ** (p + 1) / (p + 1)
        series.add(p + 1, -c / (p + 1))
    total = series
    total.add(0, upper)
    fp = total.fp()
    # Vol(S^{n-1}) = 2 pi^{n/2} / (n/2 - 1)!
    return fp * Fraction(2, math.factorial(n // 2 - 1))


def renormalized_volume(n: int) -> float:
    return float(renormalized_volume_exact(n)) * math.pi ** (n // 2)


# ---------------------------------------------------------------------------
# Gauss--Bonnet-type verifications


def verify_cgb(model: Model, tol=1e-6) -> CheckReport:
    """Compact Gauss--Bonnet: integral of the Pfaffian = (2 pi)^{n/2} chi."""
    _require(model.compact, f"{model.name} is not compact")
    _require(model.dim % 2 == 0, "even dimension required")
    _require(model.chi is not None, f"{model.name} has no Euler "
             "characteristic on record")
    lhs = integrate_scalar(pfaffian_field, model)
    rhs = (2 * math.pi) ** (model.dim // 2) * model.chi
    return CheckReport.compare(f"cgb-{model.name}", "Eq. (1.1)", lhs, rhs,
                               tol)


_P_ELL_CACHE: dict = {}


def _p_ell_n_integrals(model: Model, ell: int, ambient_route: bool):
    """Integral of P_{l,n} over a homogeneous Einstein model, by either
    route.  Cached: the n = 8 ambient jets are expensive."""
    from .ambient import AmbientChart, p_ell_n_ambient, p_ell_n_einstein

    key = (model.name, ell, ambient_route)
    if key not in _P_ELL_CACHE:
        if ambient_route:
            val = p_ell_n_ambient(AmbientChart(model), ell)[0]
        else:
            val = p_ell_n_einstein(model, ell)[0]
        _P_ELL_CACHE[key] = float(val)
    return _P_ELL_CACHE[key] * model.volume


def verify_gbc(model: Model, tol=1e-6, routes=("einstein", "ambient")):
    """(2 pi)^{n/2} chi = (2 lam)^{n/2} (n-1)!! Vol
    + sum_{l=2}^{n/2} (-2)^{l-n/2} (l-1)!/(n/2-1)! * integral of P_{l,n}.

    Returns one CheckReport per requested P_{l,n} route.
    """
    _require(model.compact and model.lam is not None
             and model.homogeneous, "compact homogeneous Einstein required")
    n = model.dim
    _require(n % 2 == 0 and n <= 8, "even dimension <= 8 required")
    _require(model.chi is not None, "Euler characteristic unknown")
    lhs = (2 * math.pi) ** (n // 2) * model.chi
    base = ((2 * model.lam) ** (n // 2) * double_factorial(n - 1)
            * model.volume)
    reports = []
    for route in routes:
        rhs = base
        for ell in range(2, n // 2 + 1):
            coeff = ((-2.0) ** (ell - n // 2) * math.factorial(ell - 1)
                     / math.factorial(n // 2 - 1))
            rhs += coeff * _p_ell_n_integrals(model, ell,
                                              route == "ambient")
        reports.append(CheckReport.compare(
            f"gbc-{model.name}-{route}", "Cor. 1.8", lhs, rhs, tol))
    return reports


def verify_main_theorem_coefficient(model: Model, field_name: str, k=None,
                                    tol=1e-7) -> CheckReport:
    """Coefficient algebra of the renormalized-integral theorem, compact
    shadow: integral of I_{n/2-k} (computed ambiently) equals the
    closed-form constant times the integral of I.
    """
    from .ambient import AmbientChart, ambient_iterated_laplacian

    _require(field_name in STRAIGHTENABLE_FIELDS,
             f"{field_name} is not a straightenable catalog scalar")
    field_fn, k_cat, field_order = STRAIGHTENABLE_FIELDS[field_name]
    if k is None:
        k = k_cat
    _require(k == k_cat, f"{field_name} has weight -2k with k = {k_cat}")
    _require(model.compact and model.homogeneous and model.lam is not None,
             "compact homogeneous Einstein required")
    n = model.dim
    m = n // 2 - k
    _require(m >= 0, "need k <= n/2")
    chart = AmbientChart(model)
    amb = ambient_iterated_laplacian(chart, field_fn, m,
                                     field_order=field_order)[0]
    lhs = float(amb) * model.volume
    coeff = i_ell_closed_form_coeff(n, k, m, model.j_value)
    rhs = coeff * integrate_scalar(field_fn, model, order=field_order)
    return CheckReport.compare(
        f"main-theorem-{model.name}-{field_name}-k{k}", "Thm. 1.6", lhs,
        rhs, tol)


# ---------------------------------------------------------------------------
# worked examples and divergence identities


def verify_worked_examples(model: Model, tol_pointwise=1e-8, tol_int=1e-6):
    """Integration-by-parts closures and the curvature-Laplacian identity
    for the Weyl tensor of an Einstein metric:

        Delta W_abcd = 4 lam (n-1) W_abcd - W_ab^ef W_efcd
                       - 2 W_aecf W_b^e_d^f + 2 W_aedf W_b^e_c^f.

    On homogeneous models the integral identities are evaluated pointwise
    (gradients of invariants vanish); on the perturbed chart they exercise
    genuine quadrature.  Gradients are `Geometry.gradient`, whose slices at
    the model's cyclic coordinates are zero by construction, so d|W|^2 is
    checked along the other coordinates.
    """
    reports = []
    if model.lam is not None:
        geo = model.geometry(order=4)
        W = geo.weyl
        lap = geo.laplacian(W).value()
        Wud = raise_last_two(W, geo.ginv, 0)
        Wm = raise_slots(W, geo.ginv, (1, 3), 0)
        n = model.dim
        rhs = (4 * model.lam * (n - 1) * W
               - jcontract("abef,efcd->abcd", Wud, W, 0)
               - 2 * jcontract("aecf,bedf->abcd", W, Wm, 0)
               + 2 * jcontract("aedf,becf->abcd", W, Wm, 0))
        reports.append(CheckReport.compare(
            f"delta-weyl-{model.name}", "Eq. (DeltaWeyl)", lap, rhs.value(),
            tol_pointwise))

    if model.homogeneous:
        geo = model.geometry(order=4)
        W = geo.weyl
        # |grad W|^2 + <W, Delta W> = (1/2) Delta |W|^2 = 0 pointwise on a
        # homogeneous model, so the integral identity holds pointwise.
        lhs = geo.norm_squared(geo.covariant_derivative(W)).value()[0]
        rhs = -_weyl_dot_lap(geo, W)
        reports.append(CheckReport.compare(
            f"ibp-nablaW-{model.name}", "§5 Examples", lhs, rhs,
            tol_pointwise))
        # int |grad|W|^2|^2 = -int |W|^2 Delta|W|^2: both integrands vanish
        grad_w2 = np.abs(geo.gradient(weyl_norm2_field(geo)).value()).max()
        lap_w2 = np.abs(geo.laplacian(weyl_norm2_field(geo)).value()).max()
        reports.append(CheckReport.compare(
            f"ibp-u-{model.name}", "§5 Examples",
            max(grad_w2 ** 2, lap_w2), 0.0, tol_pointwise))
    else:
        # integration by parts with u = |W|^2: int <grad u, grad u> + u Du = 0
        def ibp_field(geo):
            u = weyl_norm2_field(geo)
            gu = geo.gradient(u)
            quad = jcontract("a,a->", jcontract("ab,b->a", geo.ginv, gu), gu)
            return quad + jcontract(",->", u, geo.laplacian(u))

        val = integrate_scalar(ibp_field, model, order=4)
        scale = abs(integrate_scalar(weyl_norm2_field, model, order=2))
        reports.append(CheckReport.compare(
            f"ibp-u-{model.name}", "§5 Examples", val / max(scale, 1e-30),
            0.0, tol_int))

        def lap_w2_field(geo):
            return geo.laplacian(weyl_norm2_field(geo))

        val = integrate_scalar(lap_w2_field, model, order=4)
        reports.append(CheckReport.compare(
            f"divergence-int-{model.name}", "Lemma 4.1",
            val / max(scale, 1e-30), 0.0, tol_int))
    return reports


def _weyl_dot_lap(geo: Geometry, W):
    """<W, Delta W> value at the model's points (all indices lowered)."""
    lap = geo.laplacian(W)
    up = geo.raise_all(W)
    return jcontract("abcd,abcd->", up, lap).value()[0]


# ---------------------------------------------------------------------------
# divergence identities


def _div_div(geo: Geometry, T):
    """grad^a grad^b T_ab for an all-lower rank-2 jet tensor."""
    ddT = geo.covariant_derivative(geo.covariant_derivative(T))
    s = jcontract("feab,fb->ea", ddT, geo.ginv)
    return jcontract("ea,ea->", s, geo.ginv)


def _w3_rank2_fields(geo: Geometry):
    """The two rank-2 symmetric partial contractions of three Weyl
    factors:

        T1_ab = W_acbd W^cefg W^d_efg
        T2_ab = W_acde W_b^c_fg W^defg
    """
    W = geo.weyl
    gi = geo.ginv
    Wuuu = geo.raise_all(W)
    Wfu = raise_slots(W, gi, (0,))                    # W^a_cde
    B = jcontract("cefg,defg->cd", Wuuu, Wfu)         # B^cd
    T1 = jcontract("acbd,cd->ab", W, B)
    W2u = raise_slots(W, gi, (1,))                    # W_b^c_fg
    V = jcontract("bcfg,defg->bcde", W2u, Wuuu)       # V_b^cde
    T2 = jcontract("acde,bcde->ab", W, V)
    return T1, T2


def remark_divergence_scalars(model: Model, tol=1e-8):
    """The two weight -8 straightenable divergence scalars built from
    three Weyl factors vanish pointwise on the homogeneous n = 8 catalog
    model."""
    _require(model.homogeneous and model.lam is not None,
             "homogeneous Einstein model required")
    geo = model.geometry(order=4)
    T1, T2 = _w3_rank2_fields(geo)
    from .invariants import w31_field

    s1 = _div_div(geo, T1).value()
    s2 = (_div_div(geo, T2)
          - (1.0 / 6.0) * geo.laplacian(w31_field(geo))).value()
    r1 = CheckReport.compare(f"w8-divergence-1-{model.name}", "Remark 3.7",
                             s1, 0.0, tol)
    r2 = CheckReport.compare(f"w8-divergence-2-{model.name}", "Remark 3.7",
                             s2, 0.0, tol)
    return [r1, r2]


def weyl_squared_divergence_scalar(geo: Geometry):
    """grad^a grad^b (W_acde W_b^cde) - (1/4) Delta |W|^2; equals
    (n-4) grad^a (W_abcd C^cdb), hence zero in dimension four and at all
    Einstein metrics."""
    W = geo.weyl
    T = jcontract("acde,bcde->ab", W, raise_slots(W, geo.ginv, (1, 2, 3)))
    return _div_div(geo, T) - 0.25 * geo.laplacian(geo.norm_squared(W))


def cotton_divergence_scalar(geo: Geometry):
    """grad^a (W_abcd C^cdb) with the Cotton tensor raised on all slots."""
    V = jcontract("abcd,cdb->a", geo.weyl, geo.raise_all(geo.cotton))
    dV = geo.covariant_derivative(V)
    return jcontract("ea,ea->", dV, geo.ginv)


def divergence_identity_checks(tol_pointwise=1e-8, tol_int=1e-6):
    """Criterion-level divergence suite: the quadrature vanishing on the
    perturbed chart, the n = 4 collapse of the Weyl-squared divergence
    scalar, the weight -8 scalars, and Cotton vanishing at Einstein
    metrics."""
    reports = []
    pert = get_model("perturbed-S4")

    def lap_w2(geo):
        return geo.laplacian(weyl_norm2_field(geo))

    scale = abs(integrate_scalar(weyl_norm2_field, pert, order=2))
    val = integrate_scalar(lap_w2, pert, order=4)
    reports.append(CheckReport.compare(
        "int-div-perturbed-S4", "Lemma 4.1", val / max(scale, 1e-30), 0.0,
        tol_int))

    geo = pert.geometry(pert.base_point[None, :] * 0.9, order=4)
    d4 = weyl_squared_divergence_scalar(geo).value()
    reports.append(CheckReport.compare(
        "w6-divergence-dim4", "Remark 3.7", d4, 0.0, tol_pointwise))

    reports += remark_divergence_scalars(get_model("S2xS2xS2xS2"),
                                         tol_pointwise)

    for name in ("S2xS2", "CP2"):
        geo = get_model(name).geometry(order=4)
        c = np.abs(geo.cotton.value()).max()
        dv = np.abs(cotton_divergence_scalar(geo).value()).max()
        reports.append(CheckReport.compare(
            f"cotton-einstein-{name}", "Remark 3.7", max(c, dv), 0.0,
            tol_pointwise))

    # nontrivial check of the Cotton form of the divergence scalar, at a
    # non-Einstein six-dimensional metric where neither side vanishes
    from .geometry import perturbed_sphere
    m6 = perturbed_sphere(6, amp=0.1)
    pts = m6.base_point[None, :] * np.array([[0.9, 1.1, 0.95, 1.05, 1.0,
                                              0.8]])
    geo6 = m6.geometry(pts, order=4)
    reports.append(CheckReport.compare(
        "w6-divergence-cotton-dim6", "Remark 3.7",
        weyl_squared_divergence_scalar(geo6).value(),
        (m6.dim - 4) * cotton_divergence_scalar(geo6).value(),
        tol_pointwise))
    return reports


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)
