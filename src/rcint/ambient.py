"""The explicit Ricci-flat ambient space over an Einstein base.

For a base (M^n, g) with Ric = 2*lam*(n-1)*g, the ambient metric on
coordinates (t, x^1..x^n, rho) is

    gt = 2 rho dt^2 + 2t dt drho + tau^2 g,      tau = t (1 + lam rho),

which solves Ric~ = 0 exactly.  Everything here runs the generic jet
curvature pipeline of `geometry.Geometry` on this metric; the closed-form
Christoffel blocks and the push-pull Laplacian identity are kept as
independent cross-checks.  Its route to P_{l,n} runs through
`geometry.laplacian_values`, the evaluator the Einstein route shares, which
batches points by jet bytes, so no dimension cap limits which n it takes.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .geometry import Geometry, Model, laplacian_values
from .jets import PolyTensor, coordinate_poly
from .invariants import i_ell_operator, pf_ell_poly, pf_ell_weyl_field
from .reports import CheckReport


class AmbientChart:
    """Ambient coordinates (t, x^1..x^n, rho) over an Einstein catalog model.

    Evaluation is restricted to |lam * rho| <= 1/4 to stay away from the
    degeneration of tau.
    """

    def __init__(self, base: Model):
        if base.lam is None:
            raise ValueError(f"{base.name} is not an Einstein catalog model")
        self.base = base
        self.lam = base.lam
        self.n = base.dim
        self.dim = base.dim + 2
        self.cyclic = tuple(c + 1 for c in base.cyclic)  # after t

        lam = self.lam
        base_fn = base.metric_fn

        def metric_fn(coords):
            t, rho = coords[0], coords[-1]
            xs = coords[1:-1]
            tau2 = (t * (1.0 + lam * rho)) ** 2
            inner = base_fn(xs)
            d = len(coords)
            rows = [[0.0] * d for _ in range(d)]
            rows[0][0] = 2.0 * rho
            rows[0][d - 1] = t
            rows[d - 1][0] = t
            for i in range(d - 2):
                for j in range(d - 2):
                    e = inner[i][j]
                    if isinstance(e, (int, float)) and e == 0.0:
                        continue
                    rows[1 + i][1 + j] = tau2 * e
            return rows

        self.metric_fn = metric_fn

    def geometry(self, points, order) -> Geometry:
        points = np.atleast_2d(points)
        if np.any(np.abs(self.lam * points[:, -1]) > 0.25 + 1e-14):
            raise ValueError("ambient point outside |lam rho| <= 1/4")
        if np.any(points[:, 0] <= 0):
            raise ValueError("ambient requires t > 0")
        return Geometry(self.metric_fn, self.dim, points, order, self.cyclic)

    def tau(self, points):
        points = np.atleast_2d(points)
        return points[:, 0] * (1.0 + self.lam * points[:, -1])

    def sample_points(self, count, seed):
        """Random ambient points: t in [1/2, 2], x near the base point,
        rho within both |rho| <= 1/(4|lam|+1) and |lam rho| <= 1/4."""
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.5, 2.0, count)
        x = self.base.base_point[None, :] + rng.uniform(
            -0.25, 0.25, (count, self.n))
        rho_max = min(1.0 / (4 * abs(self.lam) + 1.0),
                      0.25 / max(abs(self.lam), 1e-30))
        rho = rng.uniform(-rho_max, rho_max, count)
        return np.column_stack([t, x, rho])

    def embed_base_points(self, x):
        """(1, x, 0) rows for pulling back along the inclusion."""
        x = np.atleast_2d(x)
        return np.column_stack([np.ones(len(x)), x, np.zeros(len(x))])


def ambient_christoffels_exact(chart: AmbientChart, points) -> np.ndarray:
    """Closed-form ambient Christoffel blocks Gamma^C_{AB}; shape (B,d,d,d).

    Blocks: Gamma^0_{ab} = -lam tau g_ab; Gamma^c_{0b} = delta/t;
    Gamma^c_{ab} = base Christoffels; Gamma^c_{a rho} = lam delta / sigma;
    Gamma^rho_{0 rho} = 1/t; Gamma^rho_{ab} = sigma (lam rho - 1) g_ab,
    with sigma = 1 + lam rho.
    """
    points = np.atleast_2d(points)
    B = len(points)
    n, d, lam = chart.n, chart.dim, chart.lam
    t, rho = points[:, 0], points[:, -1]
    sigma = 1.0 + lam * rho
    tau = t * sigma
    base_geo = chart.base.geometry(points[:, 1:-1], order=1)
    g = base_geo.g.value()
    gam_base = base_geo.christoffel.value()
    out = np.zeros((B, d, d, d))
    sl = slice(1, d - 1)
    eye = np.eye(n)
    out[:, 0, sl, sl] = -lam * tau[:, None, None] * g
    out[:, sl, 0, sl] = eye[None, :, :] / t[:, None, None]
    out[:, sl, sl, 0] = eye[None, :, :] / t[:, None, None]
    out[:, sl, sl, sl] = gam_base
    out[:, sl, sl, d - 1] = lam * eye[None, :, :] / sigma[:, None, None]
    out[:, sl, d - 1, sl] = lam * eye[None, :, :] / sigma[:, None, None]
    out[:, d - 1, 0, d - 1] = 1.0 / t
    out[:, d - 1, d - 1, 0] = 1.0 / t
    out[:, d - 1, sl, sl] = (sigma * (lam * rho - 1.0))[:, None, None] * g
    return out


def ambient_curvature_check(chart: AmbientChart, points,
                            tol=1e-9) -> CheckReport:
    """Residual of Rm~ = tau^2 * pullback(W) componentwise: all components
    with a t- or rho-slot must vanish, the base block must equal tau^2 W(x).
    """
    return _pullback_check(lambda g: g.riemann, lambda g: g.weyl, 2, chart,
                           points, f"ambient-curvature-{chart.base.name}",
                           "Lemma 3.3", tol)


def ambient_ricci_check(chart: AmbientChart, points, tol=1e-8):
    geo = chart.geometry(points, order=2)
    ric = CheckReport.compare(f"ambient-ricci-{chart.base.name}", "Lemma 3.1",
                              geo.ricci.value(), 0.0, tol)
    scal = CheckReport.compare(f"ambient-scalar-{chart.base.name}",
                               "Lemma 3.1", geo.scalar_curvature.value(),
                               0.0, tol)
    return [ric, scal]


def ambient_christoffel_check(chart: AmbientChart, points,
                              tol=1e-10) -> CheckReport:
    geo = chart.geometry(points, order=2)
    jet = geo.christoffel.value()
    exact = ambient_christoffels_exact(chart, points)
    return CheckReport.compare(f"ambient-christoffel-{chart.base.name}",
                               "Prop. 3.5", jet, exact, tol)


# ---------------------------------------------------------------------------
# pullback helpers


def embed_base_poly(p: PolyTensor, ambient_basis) -> PolyTensor:
    """Reindex base-coordinate jets into an ambient basis (two more
    variables) as functions constant in t and rho (x_i -> variable 1+i).
    Both bases leave out the same cyclic coordinates, so the base jet
    variables are the ambient ones between t and rho."""
    bb = p.basis
    exps = np.zeros((bb.size, ambient_basis.nvars), dtype=np.int64)
    exps[:, 1:-1] = bb.exps
    idx = ambient_basis.lookup(exps)
    coeffs = np.zeros(p.coeffs.shape[:-1] + (ambient_basis.size,))
    coeffs[..., idx] = p.coeffs
    return PolyTensor(coeffs, ambient_basis, p.batch_ndim)


def tau_power_poly(chart: AmbientChart, geo: Geometry, w: float) -> PolyTensor:
    """tau^w as a scalar jet in the basis of an ambient geometry, at its
    points; t is the first jet variable and rho the last."""
    b = geo.basis
    t = coordinate_poly(b, 0, geo.points[:, 0])
    rho = coordinate_poly(b, b.nvars - 1, geo.points[:, -1])
    tau = t * (1.0 + chart.lam * rho)
    return tau ** w


def ambient_laplacian_homogeneous(chart: AmbientChart, base_field_fn, w,
                                  points, base_order):
    """The two sides of Delta~(tau^w pi* u) = tau^{w-2} pi*((Delta + c) u),
    c = 2 lam w (n + w - 1).

    `base_field_fn(geo) -> scalar PolyTensor` builds u on the base.
    Returns (lhs, rhs) value arrays at the points.
    """
    points = np.atleast_2d(points)
    order = base_order + 2
    geo = chart.geometry(points, order=order)
    base_geo = chart.base.geometry(points[:, 1:-1], order=order)
    u = base_field_fn(base_geo)
    u_amb = embed_base_poly(u, geo.basis)
    tau_w = tau_power_poly(chart, geo, w)
    lhs = geo.laplacian(tau_w * u_amb).value()

    lap_u = base_geo.laplacian(u).value()
    c = 2.0 * chart.lam * w * (chart.n + w - 1)
    tau = chart.tau(points)
    rhs = tau ** (w - 2) * (lap_u + c * u.value())
    return lhs, rhs


# ---------------------------------------------------------------------------
# the conformal invariants P_{l,n}


def ambient_iterated_laplacian(chart: AmbientChart, field_fn, m: int,
                               x_points=None):
    """i*(Delta~^m of field_fn(ambient geometry)) at base points x.

    `field_fn(geo) -> scalar PolyTensor` must be an ambient-evaluable
    invariant formula (fixed coefficients) of a metric jet of order 2.
    Points are lifted to (1, x, 0) and run through `laplacian_values`; the
    jets are expanded there, so the pullback is just the value after m
    Laplacians.
    """
    x = chart.base.base_point if x_points is None else x_points
    return laplacian_values(chart, chart.embed_base_points(x), field_fn, m)


def _laplacian_count(n: int, ell: int) -> int:
    """n/2 - l, the Laplacians P_{l,n} takes; raises unless n is even and
    2 <= l <= n/2."""
    if n % 2 or not 2 <= ell <= n // 2:
        raise ValueError("need even n and 2 <= l <= n/2")
    return n // 2 - ell


def p_ell_n_ambient(chart: AmbientChart, ell: int, x_points=None):
    """P_{l,n} = i*(Delta~^{n/2-l} Pf_l(Rm~)) at base points, n the base
    dimension."""
    m = _laplacian_count(chart.n, ell)

    def field(geo):
        return pf_ell_poly(geo.riemann_ud, ell)

    return ambient_iterated_laplacian(chart, field, m, x_points)


def p_ell_n_einstein(model: Model, ell: int, x_points=None):
    """P_{l,n} at an Einstein base of dimension n via the
    iterated-Laplacian operator acting on Pf_l(W) (the base route of the
    straightening argument)."""
    m = _laplacian_count(model.dim, ell)
    return i_ell_operator(partial(pf_ell_weyl_field, ell=ell), ell, m, model,
                          x_points)


# ---------------------------------------------------------------------------
# straightenability certification


def check_straightenable(field_fn, w, chart: AmbientChart, points=None,
                         tol=1e-9, name="field") -> CheckReport:
    """Componentwise residual of (ambient evaluation) = tau^w * pullback.

    `field_fn(geo) -> PolyTensor` evaluates one invariant formula on the
    base and the ambient geometry, each built at metric jet order 2; `w`
    is the scaling weight of the all-lower-index value.  Components with a
    t- or rho-slot must vanish.  A large residual is a *finding* (the
    invariant is not straightenable), so this returns a report.
    """
    if points is None:
        points = chart.sample_points(3, seed=7)
    return _pullback_check(field_fn, field_fn, w, chart, points,
                           f"straightenable-{name}-{chart.base.name}",
                           "Def. 1.5", tol)


def _pullback_check(ambient_fn, base_fn, w, chart, points, check_id, anchor,
                    tol) -> CheckReport:
    """The one pullback comparison: `ambient_fn` at the ambient `points`
    against tau^w times `base_fn` at their x in the base block, and zero
    on every component with a t- or rho-slot; order-2 metric jets."""
    points = np.atleast_2d(points)
    val = ambient_fn(chart.geometry(points, order=2)).value()
    base_val = base_fn(chart.base.geometry(points[:, 1:-1], order=2)).value()
    want = np.zeros_like(val)
    rank = val.ndim - 1
    sl = (slice(None),) + (slice(1, chart.dim - 1),) * rank
    want[sl] = (chart.tau(points) ** w).reshape((-1,) + (1,) * rank) * base_val
    return CheckReport.compare(check_id, anchor, val, want, tol)
