"""Curvature pipeline on jet-valued metrics, plus the model catalog.

A `Geometry` expands a metric's closed-form components as truncated Taylor
polynomials around a batch of points and derives Christoffel symbols,
curvature, Schouten/Weyl/Cotton tensors, covariant derivatives and
Laplacians, all as `PolyTensor`s.  Each derivative costs one order of the
jet, so a caller that needs k derivatives of curvature builds the metric at
order >= k + 2.  `raise_slots` is the one index-raising path.

Each field is built only to the order it keeps.  For a metric jet of order
K: g at K; g^{-1} and Gamma at K - 1; Rm, Ric, Scal, Schouten and Weyl at
K - 2; Cotton at K - 3.  Every consumer of g^{-1} reads it at K - 1 or
below.

A chart may declare cyclic coordinates: coordinates the metric never reads,
such as the last azimuth of a round sphere or every phi_j of (S^2)^k.  Each
`Model` lists them in `cyclic`.  A `Geometry` builds its jet basis over the
other coordinates only and passes each cyclic one to `metric_fn` as a
constant jet.  `Geometry.gradient` puts a zero slice at every cyclic
coordinate, which is exact: d_phi vanishes on every field built from a
phi-independent metric.  A declaration the metric contradicts is rejected
when the `Geometry` is built.

Conventions (verified against round spheres in the test suite):

* R_{abc}{}^d = -d_a Gamma^d_{bc} + d_b Gamma^d_{ac}
               + Gamma^f_{ac} Gamma^d_{bf} - Gamma^f_{bc} Gamma^d_{af},
  so the unit sphere has R_{abcd} = g_{ac} g_{bd} - g_{ad} g_{bc}.
* Ric_{ab} = R_{acb}{}^c, and an Einstein metric satisfies
  Ric = 2*lam*(n-1)*g for the constant `lam` stored on the model.
* Delta = g^{ab} nabla_a nabla_b (negative spectrum on compact manifolds).
* Schouten P = (Ric - J g)/(n-2) with J = Scal/(2(n-1));
  Weyl W_{abcd} = R_{abcd} - P_{ac}g_{bd} + P_{ad}g_{bc}
                 + P_{bc}g_{ad} - P_{bd}g_{ac};
  Cotton C_{abc} = nabla_a P_{bc} - nabla_b P_{ac}.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jets import (PolyTensor, TaylorScalar, basis, contract,
                   poly_matrix_inverse, scalars_to_poly)

EPS_POLE = 1e-6  # chart clearance from coordinate degeneracies


# ---------------------------------------------------------------------------
# small PolyTensor helpers


def pt_transpose(t: PolyTensor, perm) -> PolyTensor:
    """Permute the component axes of a PolyTensor."""
    nb = t.batch_ndim
    axes = (tuple(range(nb)) + tuple(nb + p for p in perm)
            + (t.coeffs.ndim - 1,))
    return PolyTensor(np.transpose(t.coeffs, axes), t.basis, nb)


def pt_trace(t: PolyTensor, ax1: int, ax2: int) -> PolyTensor:
    """Trace over two component axes (no metric inserted)."""
    letters = string.ascii_lowercase[: t.rank]
    sub = list(letters)
    sub[ax2] = sub[ax1]
    out = "".join(c for i, c in enumerate(letters) if i not in (ax1, ax2))
    expr = f"...{''.join(sub)}P->...{out}P"
    return PolyTensor(np.einsum(expr, t.coeffs), t.basis, t.batch_ndim)


def _letters(n, banned="P"):
    pool = [c for c in string.ascii_lowercase + string.ascii_uppercase
            if c not in banned]
    return pool[:n]


def raise_slots(t: PolyTensor, ginv: PolyTensor, slots,
                order=None) -> PolyTensor:
    """Raise the listed component axes of `t` with the inverse metric.

    One contraction per slot, T^{..x..} = T_{..d..} g^{dx}; the raised
    index stays in the slot's place.  `order` is passed to each `contract`.
    """
    *names, new = _letters(t.rank + 1)
    idx = "".join(names)
    for s in slots:
        out = idx[:s] + new + idx[s + 1:]
        t = contract(f"{idx},{idx[s]}{new}->{out}", t, ginv, order)
    return t


# ---------------------------------------------------------------------------
# geometry


class Geometry:
    """Batched jet expansion of a metric with derived curvature data.

    Parameters
    ----------
    metric_fn : callable mapping a list of coordinate `TaylorScalar`s to a
        nested dim x dim list of metric components (jets or constants).
    dim : manifold dimension.
    points : array (B, dim) of expansion points.
    order : jet truncation order of the metric components.
    cyclic : chart coordinates the metric does not depend on.  The jet
        basis runs over the other coordinates, in order; a cyclic
        coordinate enters `metric_fn` as a constant jet.
    """

    def __init__(self, metric_fn, dim, points, order, cyclic=()):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != dim:
            raise ValueError("points have wrong dimension")
        self.dim = dim
        self.order = order
        self.points = points
        self.cyclic = tuple(sorted(cyclic))
        self.free = tuple(i for i in range(dim) if i not in self.cyclic)
        self.basis = basis(len(self.free), order)
        coords = [TaylorScalar.constant(self.basis, points[:, i])
                  for i in range(dim)]
        for v, i in enumerate(self.free):
            coords[i] = TaylorScalar.coordinate(self.basis, v, points[:, i])
        entries = metric_fn(coords)
        self.g = scalars_to_poly(entries, self.basis, batch_ndim=1)
        if self.g.comp_shape != (dim, dim):
            raise ValueError("metric_fn did not return a dim x dim matrix")
        bad = ~np.isfinite(self.g.coeffs).all(axis=(1, 2, 3))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"metric jet is not finite at point {i} "
                             f"{points[i].tolist()}")
        if self.cyclic:
            _check_cyclic(metric_fn, points, self.cyclic)

    # -- core fields ---------------------------------------------------------
    @cached_property
    def ginv(self) -> PolyTensor:
        """g^{ab}; order - 1, the most any consumer reads.  Symmetrized so
        that both indices carry the same values bit for bit."""
        x = poly_matrix_inverse(self.g, max(self.order - 1, 0))
        return 0.5 * (x + pt_transpose(x, (1, 0)))

    @cached_property
    def christoffel(self) -> PolyTensor:
        """Gamma^d_{ab}, component axes (d, a, b); order - 1."""
        dg = self.gradient(self.g)  # dg[c, a, b] = d_c g_ab
        # low[a, b, c] = (d_a g_bc + d_b g_ac - d_c g_ab)/2 = Gamma_{c ab}
        low = 0.5 * (dg + pt_transpose(dg, (1, 0, 2))
                     - pt_transpose(dg, (1, 2, 0)))
        return contract("dc,abc->dab", self.ginv, low)

    @cached_property
    def riemann_up(self) -> PolyTensor:
        """R_{abc}{}^d, axes (a, b, c, d); order - 2."""
        gam = self.christoffel
        dgam = self.gradient(gam)  # (e, d, a, b) = d_e Gamma^d_{ab}
        t1 = pt_transpose(dgam, (0, 2, 3, 1))  # [a,b,c,d] = d_a Gamma^d_{bc}
        t2 = pt_transpose(dgam, (2, 0, 3, 1))  # [a,b,c,d] = d_b Gamma^d_{ac}
        q1 = contract("fac,dbf->abcd", gam, gam, t1.basis.order)
        q2 = pt_transpose(q1, (1, 0, 2, 3))  # Gamma^f_{bc} Gamma^d_{af}
        return -t1 + t2 + (q1 - q2)

    @cached_property
    def riemann(self) -> PolyTensor:
        """R_{abcd} fully covariant; order - 2."""
        return contract("abce,ed->abcd", self.riemann_up, self.g)

    @cached_property
    def ricci(self) -> PolyTensor:
        return pt_trace(self.riemann_up, 1, 3)

    @cached_property
    def scalar_curvature(self) -> PolyTensor:
        return contract("ab,ab->", self.ginv, self.ricci)

    @cached_property
    def j_scalar(self) -> PolyTensor:
        return self.scalar_curvature * (1.0 / (2 * (self.dim - 1)))

    @cached_property
    def schouten(self) -> PolyTensor:
        jg = contract(",ab->ab", self.j_scalar, self.g)
        return (self.ricci - jg) * (1.0 / (self.dim - 2))

    @cached_property
    def weyl(self) -> PolyTensor:
        g, p = self.g, self.schouten
        kn = (contract("ac,bd->abcd", p, g) - contract("ad,bc->abcd", p, g)
              + contract("bd,ac->abcd", p, g) - contract("bc,ad->abcd", p, g))
        return self.riemann - kn

    @cached_property
    def cotton(self) -> PolyTensor:
        dp = self.covariant_derivative(self.schouten)  # (a, b, c)
        return dp - pt_transpose(dp, (1, 0, 2))

    # -- differential operators ----------------------------------------------
    def gradient(self, t: PolyTensor) -> PolyTensor:
        """Partial derivatives d_a T along every chart coordinate; the new
        axis of length dim is the first comp axis, zero at the cyclic
        coordinates."""
        nb = t.batch_ndim
        b = basis(t.basis.nvars, t.basis.order - 1)
        shape = t.coeffs.shape
        out = np.zeros(shape[:nb] + (self.dim,) + shape[nb:-1] + (b.size,),
                       dtype=t.coeffs.dtype)
        for v, i in enumerate(self.free):
            out[(slice(None),) * nb + (i,)] = t.diff(v).coeffs
        return PolyTensor(out, b, nb)

    def covariant_derivative(self, t: PolyTensor) -> PolyTensor:
        """nabla_a T_{b1..bk} for an all-lower-index T; new axis is first."""
        out = self.gradient(t)
        gam = self.christoffel.truncate(min(self.christoffel.basis.order,
                                            out.basis.order))
        k = t.rank
        names = _letters(k + 2)
        a, c, idx = names[0], names[1], names[2: 2 + k]
        for i in range(k):
            tin = idx.copy()
            tin[i] = c
            pat = f"{c}{a}{idx[i]},{''.join(tin)}->{a}{''.join(idx)}"
            out = out - contract(pat, gam, t, out.basis.order)
        return out

    def laplacian(self, t: PolyTensor) -> PolyTensor:
        """g^{ab} nabla_a nabla_b T (rough Laplacian); costs two orders."""
        ddt = self.covariant_derivative(self.covariant_derivative(t))
        names = _letters(t.rank + 2)
        rest = "".join(names[2:])
        return contract(f"ab,ab{rest}->{rest}", self.ginv, ddt,
                        ddt.basis.order)

    def raise_all(self, t: PolyTensor) -> PolyTensor:
        """All-lower tensor with every slot raised by the inverse metric."""
        return raise_slots(t, self.ginv, range(t.rank), t.basis.order)

    def norm_squared(self, t: PolyTensor) -> PolyTensor:
        """|T|^2 for an all-lower-index tensor field."""
        up = self.raise_all(t)
        idx = "".join(_letters(t.rank + 2)[2:])
        return contract(f"{idx},{idx}->", t, up, t.basis.order)

    def sqrt_det_g(self) -> np.ndarray:
        """Riemannian volume density at the expansion points; shape (B,)."""
        return np.sqrt(np.linalg.det(self.g.value()))


def _check_cyclic(metric_fn, points, cyclic):
    """Raise if the metric has a nonzero first derivative along a declared
    cyclic coordinate at some point; checked on an order-1 jet in every
    coordinate."""
    full = basis(points.shape[1], 1)
    coords = [TaylorScalar.coordinate(full, i, points[:, i])
              for i in range(points.shape[1])]
    g = scalars_to_poly(metric_fn(coords), full, batch_ndim=1)
    for i in cyclic:
        if np.any(g.diff(i).coeffs != 0):
            raise ValueError(f"coordinate {i} is declared cyclic but the "
                             f"metric depends on it")


# ---------------------------------------------------------------------------
# model catalog


@dataclass
class Model:
    """A catalog manifold: metric chart plus exact reference constants."""

    name: str
    dim: int
    metric_fn: object
    lam: float | None          # Einstein constant: Ric = 2 lam (n-1) g
    chi: int | None            # Euler characteristic
    volume: float | None       # exact total volume (compact models)
    homogeneous: bool
    compact: bool
    base_point: np.ndarray
    quad_bounds: list = field(default_factory=list)  # [(lo, hi), ...]
    # (B, q) quad vars -> (B, dim) chart coords; None: the box is the chart
    quad_map: object = None
    quad_density: object = None    # extra Jacobian factor, (B, q) -> (B,)
    cyclic: tuple = ()             # chart coordinates the metric never reads
    description: str = ""

    def geometry(self, points=None, order=2) -> Geometry:
        if points is None:
            points = self.base_point[None, :]
        return Geometry(self.metric_fn, self.dim, points, order, self.cyclic)

    @property
    def j_value(self):
        """J = Scal/(2(n-1)) = n*lam for the Einstein members."""
        return None if self.lam is None else self.dim * self.lam


# -- round spheres -----------------------------------------------------------


def sphere_metric_fn(n, radius=1.0):
    def fn(coords):
        dim = len(coords)
        rows = [[0.0] * dim for _ in range(dim)]
        running = TaylorScalar.constant(coords[0].basis, radius ** 2)
        for i in range(n):
            rows[i][i] = running
            if i < n - 1:
                s = coords[i].sin()
                running = running * s * s
        return rows
    return fn


def sphere_volume(n, radius=1.0):
    return 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2) * radius ** n


def _sphere_bounds(n):
    return [(EPS_POLE, math.pi - EPS_POLE)] * (n - 1) + [(0.0, 2 * math.pi)]


def sphere(n, radius=1.0) -> Model:
    base = np.linspace(0.6, 1.9, n)
    return Model(
        name=f"S{n}" + ("" if radius == 1.0 else f"(r={radius})"),
        dim=n,
        metric_fn=sphere_metric_fn(n, radius),
        lam=1.0 / (2 * radius ** 2),
        chi=2 if n % 2 == 0 else 0,
        volume=sphere_volume(n, radius),
        homogeneous=True,
        compact=True,
        base_point=base,
        quad_bounds=_sphere_bounds(n),
        cyclic=(n - 1,),
        description=f"round sphere of radius {radius}",
    )


# -- products of unit 2-spheres ----------------------------------------------


def product_of_spheres(k) -> Model:
    """(S^2)^k with unit factors; Einstein with Ric = g."""
    def fn(coords):
        dim = 2 * k
        rows = [[0.0] * dim for _ in range(dim)]
        for j in range(k):
            th = coords[2 * j]
            one = TaylorScalar.constant(th.basis, 1.0)
            rows[2 * j][2 * j] = one
            s = th.sin()
            rows[2 * j + 1][2 * j + 1] = s * s
        return rows

    n = 2 * k
    bounds = []
    for _ in range(k):
        bounds += [(EPS_POLE, math.pi - EPS_POLE), (0.0, 2 * math.pi)]
    base = np.array([0.7 + 0.15 * i if i % 2 == 0 else 1.1 + 0.2 * i
                     for i in range(n)])
    return Model(
        name="x".join(["S2"] * k),
        dim=n,
        metric_fn=fn,
        lam=1.0 / (2 * (n - 1)),
        chi=2 ** k,
        volume=(4 * math.pi) ** k,
        homogeneous=True,
        compact=True,
        base_point=base,
        quad_bounds=bounds,
        cyclic=tuple(range(1, n, 2)),
        description=f"product of {k} unit 2-spheres",
    )


# -- complex projective plane --------------------------------------------------


def cp2_metric_fn():
    """Fubini-Study metric on the affine chart, normalized so Ric = 6 g.

    In real coordinates (x1, y1, x2, y2) with z_j = x_j + i y_j the Hermitian
    components are h_{ij} = (delta_ij (1+s) - conj(z_i) z_j)/(1+s)^2 with
    s = |z|^2, and the real metric blocks are Re h and Im h.
    """
    def fn(coords):
        x1, y1, x2, y2 = coords
        b = x1.basis
        i_unit = TaylorScalar.constant(b, np.complex128(1j))
        z = [x1 + i_unit * y1, x2 + i_unit * y2]
        zb = [x1 - i_unit * y1, x2 - i_unit * y2]
        s = zb[0] * z[0] + zb[1] * z[1]
        denom = (1.0 + s) ** (-2)
        h = [[((1.0 + s if i == j else 0.0) - zb[i] * z[j]) * denom
              for j in range(2)] for i in range(2)]

        def re(t):
            return TaylorScalar(b, t.coeffs.real.copy())

        def im(t):
            return TaylorScalar(b, t.coeffs.imag.copy())

        # coordinate order (x1, y1, x2, y2); g(dx_i, dx_j) = g(dy_i, dy_j)
        # = Re h_ij, g(dx_i, dy_j) = Im h_ij, g(dy_i, dx_j) = -Im h_ij.
        rows = [[None] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                rows[2 * i][2 * j] = re(h[i][j])
                rows[2 * i + 1][2 * j + 1] = re(h[i][j])
                rows[2 * i][2 * j + 1] = im(h[i][j])
                rows[2 * i + 1][2 * j] = -im(h[i][j])
        return rows
    return fn


def _cp2_quad_map(u):
    chi, t1, t2, t3 = u.T
    r = np.tan(chi)
    w = np.stack([np.cos(t1),
                  np.sin(t1) * np.cos(t2),
                  np.sin(t1) * np.sin(t2) * np.cos(t3),
                  np.sin(t1) * np.sin(t2) * np.sin(t3)], axis=1)
    return r[:, None] * w


def _cp2_quad_density(u):
    chi, t1, t2, _ = u.T
    r = np.tan(chi)
    return (1.0 + r ** 2) * r ** 3 * np.sin(t1) ** 2 * np.sin(t2)


def cp2() -> Model:
    return Model(
        name="CP2",
        dim=4,
        metric_fn=cp2_metric_fn(),
        lam=1.0,
        chi=3,
        volume=math.pi ** 2 / 2,
        homogeneous=True,
        compact=True,
        base_point=np.array([0.31, -0.24, 0.47, 0.12]),
        quad_bounds=[(EPS_POLE, math.pi / 2 - EPS_POLE),
                     (EPS_POLE, math.pi - EPS_POLE),
                     (EPS_POLE, math.pi - EPS_POLE),
                     (0.0, 2 * math.pi)],
        quad_map=_cp2_quad_map,
        quad_density=_cp2_quad_density,
        description="Fubini-Study metric with Ric = 6g",
    )


# -- perturbed sphere ----------------------------------------------------------


def perturbed_sphere(n=4, amp=0.1) -> Model:
    """Unit S^n pulled back from the flat metric plus amp * X1^2 dX2 (x) dX2.

    Cohomogeneity-two, so generically non-Einstein with nonvanishing Weyl and
    Cotton tensors; used wherever a non-symmetric compact test metric is
    needed.
    """
    round_fn = sphere_metric_fn(n, 1.0)

    def fn(coords):
        rows = round_fn(coords)
        t1, t2 = coords[0], coords[1]
        c1, s1 = t1.cos(), t1.sin()
        c2, s2 = t2.cos(), t2.sin()
        # v_i = dX2/dtheta_i for X2 = sin t1 cos t2
        v = [c1 * c2, -(s1 * s2)]
        x1sq = c1 * c1  # X1^2 = cos^2 t1
        for i in range(2):
            for j in range(2):
                rows[i][j] = rows[i][j] + amp * (x1sq * v[i] * v[j])
        return rows

    return Model(
        name=f"perturbed-S{n}",
        dim=n,
        metric_fn=fn,
        lam=None,
        chi=2 if n % 2 == 0 else 0,
        volume=None,
        homogeneous=False,
        compact=True,
        base_point=np.linspace(0.5, 2.0, n),
        quad_bounds=_sphere_bounds(n)[:2],
        quad_map=_perturbed_orbit_map(n),
        quad_density=_perturbed_orbit_density(n),
        cyclic=(n - 1,),
        description=f"unit S^{n} with a cohomogeneity-two perturbation "
                    f"(amp={amp})",
    )


def _perturbed_orbit_map(n):
    """The perturbation involves only (theta_1, theta_2), so the isometry
    group of the remaining round S^{n-2} factor acts transitively on the
    other angles: integrate over a 2d slice at theta_i = pi/2 and account
    for the orbit volume exactly."""

    def qmap(u):
        out = np.full((len(u), n), math.pi / 2)
        out[:, :2] = u
        out[:, -1] = 1.0  # any azimuth; the grid never touches it
        return out

    return qmap


def _perturbed_orbit_density(n):
    # vol(round unit S^{n-2}) divided by the slice's own angular density,
    # which is 1 at theta_3 = ... = pi/2
    orbit = sphere_volume(n - 2)

    def density(u):
        return np.full(len(u), orbit)

    return density


# -- hyperbolic normal-form metric ----------------------------------------------


def hyperbolic_metric_fn(n):
    """g = r^-2 (dr^2 + (1 - r^2/4)^2 h_round) on (0, 2) x S^{n-1}."""
    round_fn = sphere_metric_fn(n - 1, 1.0)

    def fn(coords):
        r = coords[0]
        rows = [[0.0] * n for _ in range(n)]
        rinv2 = r ** (-2)
        rows[0][0] = rinv2
        f = 1.0 - 0.25 * (r * r)
        conf = rinv2 * f * f
        inner = round_fn(coords[1:])
        for i in range(n - 1):
            for j in range(n - 1):
                if not isinstance(inner[i][j], float) or inner[i][j] != 0.0:
                    rows[1 + i][1 + j] = conf * inner[i][j]
        return rows
    return fn


def hyperbolic_normal_form(n) -> Model:
    base = np.concatenate([[0.8], np.linspace(0.7, 1.8, n - 1)])
    return Model(
        name=f"H{n}",
        dim=n,
        metric_fn=hyperbolic_metric_fn(n),
        lam=-0.5,
        chi=None,
        volume=None,
        homogeneous=True,
        compact=False,
        base_point=base,
        cyclic=(n - 1,),
        description="hyperbolic space in geodesic normal form at the "
                    "conformal boundary",
    )


# -- registry --------------------------------------------------------------------


def _registry():
    reg = {
        "S2": lambda: sphere(2),
        "S4": lambda: sphere(4),
        "S6": lambda: sphere(6),
        "S8": lambda: sphere(8),
        "S2xS2": lambda: product_of_spheres(2),
        "S2xS2xS2": lambda: product_of_spheres(3),
        "S2xS2xS2xS2": lambda: product_of_spheres(4),
        "CP2": cp2,
        "perturbed-S4": lambda: perturbed_sphere(4),
        "H4": lambda: hyperbolic_normal_form(4),
        "H6": lambda: hyperbolic_normal_form(6),
    }
    return reg


MODEL_NAMES = tuple(_registry())


def get_model(name: str) -> Model:
    key = name.replace("_", "-")
    aliases = {"(S2)^2": "S2xS2", "(S2)^3": "S2xS2xS2", "(S2)^4": "S2xS2xS2xS2",
               "perturbed-sphere": "perturbed-S4"}
    key = aliases.get(key, aliases.get(name, key))
    reg = _registry()
    if key not in reg:
        lower = {k.lower(): k for k in reg}
        key = lower.get(key.lower(), key)
    if key not in reg:
        raise KeyError(f"unknown model {name!r}; available: "
                       f"{', '.join(sorted(reg))}")
    return reg[key]()
