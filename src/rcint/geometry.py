"""Curvature pipeline on jet-valued metrics, plus the model catalog.

A `Geometry` expands a metric's closed-form components as truncated Taylor
polynomials around a batch of points and derives Christoffel symbols,
curvature, Schouten/Weyl/Cotton tensors, covariant derivatives and
Laplacians, all as `PolyTensor`s.  Each derivative costs one order of the
jet, so a caller that needs k derivatives of curvature builds the metric at
order >= k + 2.  `raise_slots` is the one index-raising path (g lowers)
and `minus_kulkarni_nomizu` the one writer of W.  Many points
run through `point_values`, one `Geometry` per slice that fits
`JET_BUDGET_BYTES`, and both P_{l,n} routes through `laplacian_values`.

Each field is built only to the order it keeps.  For a metric jet of order
K: g at K; g^{-1} and Gamma at K - 1; Rm, Ric, Scal, Schouten and Weyl at
K - 2, and so are the mixed R_{ab}{}^{cd} and W_{ab}{}^{cd} that Pf_l and
|W|^2 read; Cotton at K - 3.  Every consumer of g^{-1} reads it at K - 1 or
below.

A chart may declare cyclic coordinates: coordinates the metric never reads,
such as the last azimuth of a round sphere or every phi_j of (S^2)^k.  Each
`Model` lists them in `cyclic`.  A `Geometry` builds its jet basis over the
other coordinates only and passes each cyclic one to `metric_fn` as a
constant jet.  `Geometry.gradient` puts a zero slice at every cyclic
coordinate, which is exact: d_phi vanishes on every field built from a
phi-independent metric.  A declaration the metric contradicts is rejected
when the `Geometry` is built; a derivative of a jet of too low an order is
rejected naming the metric order it needs.

Each compact `Model` declares its quadrature domain once, as a `Slice`,
and a homogeneous one its base point, as a zero-axis `orbit_slice`.

Conventions (verified against round spheres in the test suite):

* R_{abc}{}^d = -d_a Gamma^d_{bc} + d_b Gamma^d_{ac}
               + Gamma^f_{ac} Gamma^d_{bf} - Gamma^f_{bc} Gamma^d_{af},
  so the unit sphere has R_{abcd} = g_{ac} g_{bd} - g_{ad} g_{bc}.
* Ric_{ab} = R_{acb}{}^c, and an Einstein metric satisfies
  Ric = 2*lam*(n-1)*g for the constant `lam` stored on the model.
* Delta = g^{ab} nabla_a nabla_b (negative spectrum on compact manifolds).
* Schouten P = (Ric - J g)/(n-2) with J = Scal/(2(n-1));
  Weyl W_{ab}{}^{cd} = R_{ab}{}^{cd} - P_a^c delta_b^d + P_a^d delta_b^c
                      + P_b^c delta_a^d - P_b^d delta_a^c, lowered by g;
  Cotton C_{abc} = nabla_a P_{bc} - nabla_b P_{ac}.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .jets import (PolyTensor, basis, const_poly, contract, coordinate_poly,
                   poly_matrix_inverse, scalars_to_poly)

EPS_POLE = 1e-6  # chart clearance from coordinate degeneracies
JET_BUDGET_BYTES = 128 * 2 ** 20  # estimated dense curvature jets per batch


# ---------------------------------------------------------------------------
# small PolyTensor helpers


def pt_transpose(t: PolyTensor, perm) -> PolyTensor:
    """Permute the component axes of a PolyTensor."""
    nb = t.batch_ndim
    axes = (tuple(range(nb)) + tuple(nb + p for p in perm)
            + (t.coeffs.ndim - 1,))
    return PolyTensor(np.transpose(t.coeffs, axes), t.basis, nb)


def pt_symmetrize(t: PolyTensor) -> PolyTensor:
    """Average of `t` over every permutation of its component axes."""
    perms = list(itertools.permutations(range(t.rank)))
    acc = t.coeffs  # perms[0] is the identity
    for p in perms[1:]:
        acc = acc + pt_transpose(t, p).coeffs
    return PolyTensor(acc / len(perms), t.basis, t.batch_ndim)


def pt_trace(t: PolyTensor, ax1: int, ax2: int) -> PolyTensor:
    """Trace over two component axes (no metric inserted)."""
    letters = string.ascii_lowercase[: t.rank]
    sub = list(letters)
    sub[ax2] = sub[ax1]
    out = "".join(c for i, c in enumerate(letters) if i not in (ax1, ax2))
    expr = f"...{''.join(sub)}P->...{out}P"
    return PolyTensor(np.einsum(expr, t.coeffs), t.basis, t.batch_ndim)


def _letters(n):
    return [c for c in string.ascii_letters if c != "P"][:n]  # P: jet axis


def raise_slots(t: PolyTensor, ginv: PolyTensor, slots) -> PolyTensor:
    """Raise the listed component axes of `t` with the inverse metric (or
    lower them with g).

    One contraction per slot, T^{..x..} = T_{..d..} g^{dx}; the raised
    index stays in the slot's place.  The result has the lower order of
    `t` and `ginv`; a lower one is `t.truncate(k)`.
    """
    *names, new = _letters(t.rank + 1)
    idx = "".join(names)
    for s in slots:
        out = idx[:s] + new + idx[s + 1:]
        t = contract(f"{idx},{idx[s]}{new}->{out}", t, ginv)
    return t


def minus_kulkarni_nomizu(r, p):
    """W_{ab}{}^{cd} from arrays R_{ab}{}^{cd}, axes (*batch, a, b, c, d,
    jet), and P_a^c, axes (*batch, a, c, jet), as in the conventions above;
    a dense tensor has a jet axis of length 1.  Each delta term is one
    strided update per index value of a copy of `r`: no metric product."""
    w = r.copy()
    for i in range(r.shape[-2]):
        w[..., :, i, :, i, :] -= p  # P_a^c delta_b^d
        w[..., :, i, i, :, :] += p  # P_a^d delta_b^c
        w[..., i, :, :, i, :] += p  # P_b^c delta_a^d
        w[..., i, :, i, :, :] -= p  # P_b^d delta_a^c
    return w


# ---------------------------------------------------------------------------
# geometry


class Geometry:
    """Batched jet expansion of a metric with derived curvature data.

    Parameters
    ----------
    metric_fn : callable mapping a list of coordinate jets (rank-0
        `PolyTensor`s, one per chart coordinate) to a nested dim x dim list
        of metric components (scalar jets or numbers).
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
        entries = metric_fn(_coordinate_jets(points, self.basis, self.free))
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
        return pt_symmetrize(poly_matrix_inverse(
            self.g.truncate(max(self.order - 1, 0))))

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
        """R_{abc}{}^d, axes (a, b, c, d); order - 2.  Summed as
        -t1 + t2 + (q1 - q2), in place, so at most three dense rank-4 jets
        are held at once: d Gamma, q1 - q2 and the running sum."""
        gam = self.christoffel
        dgam = self.gradient(gam)  # (e, d, a, b) = d_e Gamma^d_{ab}
        t1 = pt_transpose(dgam, (0, 2, 3, 1))  # [a,b,c,d] = d_a Gamma^d_{bc}
        t2 = pt_transpose(dgam, (2, 0, 3, 1))  # [a,b,c,d] = d_b Gamma^d_{ac}
        q1 = contract("fac,dbf->abcd", gam, gam, t1.basis.order)
        q2 = pt_transpose(q1, (1, 0, 2, 3))  # Gamma^f_{bc} Gamma^d_{af}
        q = q1.coeffs - q2.coeffs
        del q1, q2
        r = np.negative(t1.coeffs, order="C")  # not t1's transposed strides
        r += t2.coeffs
        r += q
        return PolyTensor(r, t1.basis, t1.batch_ndim)

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
        """W_{abcd}: `weyl_ud` with its upper pair lowered by g; order - 2."""
        return raise_slots(self.weyl_ud, self.g, (2, 3))

    @cached_property
    def riemann_ud(self) -> PolyTensor:
        """R_{ab}{}^{cd}, axes (a, b, c, d); order - 2.  One raise of the
        third slot of `riemann_up`."""
        return raise_slots(self.riemann_up, self.ginv, (2,))

    @cached_property
    def weyl_ud(self) -> PolyTensor:
        """W_{ab}{}^{cd}: `riemann_ud` minus the Kulkarni-Nomizu terms of
        P_a^c (`minus_kulkarni_nomizu`); order - 2."""
        rud = self.riemann_ud
        p = raise_slots(self.schouten, self.ginv, (1,))  # P_a^c
        return PolyTensor(minus_kulkarni_nomizu(rud.coeffs, p.coeffs),
                          rud.basis, rud.batch_ndim)

    @cached_property
    def cotton(self) -> PolyTensor:
        dp = self.covariant_derivative(self.schouten)  # (a, b, c)
        return dp - pt_transpose(dp, (1, 0, 2))

    # -- differential operators ----------------------------------------------
    def gradient(self, t: PolyTensor) -> PolyTensor:
        """Partial derivatives d_a T along every chart coordinate; the new
        axis of length dim is the first comp axis, zero at the cyclic
        coordinates."""
        self._require_order(t, 1)
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
        gam = self.christoffel.truncate(out.basis.order)
        k = t.rank
        names = _letters(k + 2)
        a, c, idx = names[0], names[1], names[2: 2 + k]
        for i in range(k):
            tin = idx.copy()
            tin[i] = c
            pat = f"{c}{a}{idx[i]},{''.join(tin)}->{a}{''.join(idx)}"
            out = out - contract(pat, gam, t)
        return out

    def laplacian(self, t: PolyTensor) -> PolyTensor:
        """g^{ab} nabla_a nabla_b T (rough Laplacian); costs two orders."""
        self._require_order(t, 2)
        ddt = self.covariant_derivative(self.covariant_derivative(t))
        names = _letters(t.rank + 2)
        rest = "".join(names[2:])
        return contract(f"ab,ab{rest}->{rest}", self.ginv, ddt)

    def _require_order(self, t: PolyTensor, cost: int):
        if t.basis.order < cost:  # name the metric order that would do
            raise ValueError(
                f"{cost} derivative(s) of an order-{t.basis.order} jet; build "
                f"the Geometry at order >= {self.order + cost - t.basis.order}")

    def raise_all(self, t: PolyTensor) -> PolyTensor:
        """All-lower tensor with every slot raised by the inverse metric."""
        return raise_slots(t, self.ginv, range(t.rank))

    def norm_squared(self, t: PolyTensor) -> PolyTensor:
        """|T|^2 for an all-lower-index tensor field."""
        up = self.raise_all(t)
        idx = "".join(_letters(t.rank + 2)[2:])
        return contract(f"{idx},{idx}->", t, up)

    def sqrt_det_g(self) -> np.ndarray:
        """Riemannian volume density at the expansion points; shape (B,)."""
        return np.sqrt(np.linalg.det(self.g.value()))


def point_values(space, points, order, fn):
    """`fn(geo)` at `points` of `space` (a `Model` or an `AmbientChart`),
    concatenated; one `Geometry` at metric order `order` per slice whose
    dense curvature jets (dim^4 x basis size at order - 2 x 8 bytes a
    point) fit in `JET_BUDGET_BYTES`.  One point over it raises
    `ValueError` before any `Geometry` is built."""
    points = np.atleast_2d(points)
    per_point = space.dim ** 4 * 8 * basis(space.dim - len(space.cyclic),
                                           max(order - 2, 0)).size
    if per_point > JET_BUDGET_BYTES:
        raise ValueError(f"dense curvature jets of one point estimated at "
                         f"{per_point / 2 ** 20:.0f} MiB, over the "
                         f"{JET_BUDGET_BYTES / 2 ** 20:.0f} MiB budget")
    step = JET_BUDGET_BYTES // per_point
    return np.concatenate([np.empty(0)] + [  # no points: an empty array
        fn(space.geometry(points[i:i + step], order))
        for i in range(0, len(points), step)])


def laplacian_values(space, points, field_fn, m, shifts=None):
    """`point_values` at metric order 2 + 2m of `field_fn(geo)`, a scalar
    jet read at order 2, after m steps u <- Delta u, or u <- Delta u - c u
    with c the step's entry of `shifts`."""
    def values(geo):
        u = field_fn(geo)
        for j in range(m):
            lap = geo.laplacian(u)
            u = lap if shifts is None else lap - shifts[j] * u
        return u.value()

    return point_values(space, points, 2 + 2 * m, values)


def _coordinate_jets(points, basis_, expanded):
    """One jet per chart coordinate at `points`: the coordinates listed in
    `expanded` are the jet variables, in order, and every other one is a
    constant jet."""
    coords = [const_poly(points[:, i], basis_, 1)
              for i in range(points.shape[1])]
    for v, i in enumerate(expanded):
        coords[i] = coordinate_poly(basis_, v, points[:, i])
    return coords


def _check_cyclic(metric_fn, points, cyclic):
    """Raise if the metric has a nonzero first derivative along a declared
    cyclic coordinate at some point; checked on order-1 jets in the cyclic
    coordinates only, every other coordinate a constant jet.  The d_i
    coefficient of each sum, product, power, sin and cos is the number
    the jets in every coordinate would give."""
    b = basis(len(cyclic), 1)
    g = scalars_to_poly(metric_fn(_coordinate_jets(points, b, cyclic)), b,
                        batch_ndim=1)
    for v, i in enumerate(cyclic):
        if np.any(g.diff(v).coeffs != 0):
            raise ValueError(f"coordinate {i} is declared cyclic but the "
                             f"metric depends on it")


# ---------------------------------------------------------------------------
# model catalog


@dataclass(frozen=True)
class Slice:
    """A compact model's quadrature domain: the box `bounds` of slice
    variables u, their chart points `embed(u)`, and `weight(u)`, the
    Jacobian of `embed` times the orbit volume each point stands for."""

    bounds: tuple      # ((lo, hi), ...), one per slice variable
    embed: object      # (B, q) slice variables -> (B, dim) chart points
    weight: object     # (B, q) -> (B,)


def chart_slice(dim, box, held, orbit) -> Slice:
    """A slice over the chart axes `box` maps to (lo, hi); every other
    axis is held at `held`, and each point carries the constant `orbit`
    (a cyclic axis: held at its midpoint, with its period as orbit)."""
    axes = sorted(box)

    def embed(u):
        out = np.full((len(u), dim), float(held))
        out[:, axes] = u
        return out

    return Slice(tuple(box[a] for a in axes), embed,
                 lambda u: np.full(len(u), orbit))


@dataclass
class Model:
    """A catalog manifold: metric chart, exact reference constants and,
    if compact, the slices that carry its quadrature's symmetry."""

    name: str
    dim: int
    metric_fn: object
    lam: float | None          # Einstein constant: Ric = 2 lam (n-1) g
    chi: int | None            # Euler characteristic
    volume: float | None       # exact total volume (compact models)
    compact: bool
    base_point: np.ndarray
    slice: Slice | None = None     # quadrature domain over chart axes
    cyclic: tuple = ()             # chart coordinates the metric never reads
    orbit_slice: Slice | None = None  # zero-axis slice: `with_orbit_point`

    def geometry(self, points=None, order=2) -> Geometry:
        points = self.base_point if points is None else points
        return Geometry(self.metric_fn, self.dim, points, order, self.cyclic)

    @property
    def j_value(self):
        """J = Scal/(2(n-1)) = n*lam for the Einstein members."""
        return None if self.lam is None else self.dim * self.lam


def with_orbit_point(model: Model) -> Model:
    """`model`, homogeneous, with its zero-axis `orbit_slice`: the base
    point alone, weighted by volume / sqrt det g there (computed once, on
    first use, from an order-0 `Geometry` with no cyclic check)."""
    weight = cache(lambda: model.volume / Geometry(
        model.metric_fn, model.dim, model.base_point, 0).sqrt_det_g()[0])
    model.orbit_slice = Slice((), lambda u: np.tile(model.base_point,
                                                    (len(u), 1)),
                              lambda u: np.full(len(u), weight()))
    return model


# -- round spheres -----------------------------------------------------------


def sphere_metric_fn(n):
    def fn(coords):
        dim = len(coords)
        rows = [[0.0] * dim for _ in range(dim)]
        running = const_poly(1.0, coords[0].basis)
        for i in range(n):
            rows[i][i] = running
            if i < n - 1:
                s = coords[i].sin()
                running = running * s * s
        return rows
    return fn


def sphere_volume(n):
    return 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def _polar(axes):
    """Polar angles on (0, pi), clear of the poles: a `chart_slice` box."""
    return {a: (EPS_POLE, math.pi - EPS_POLE) for a in axes}


def sphere(n) -> Model:
    base = np.linspace(0.6, 1.9, n)
    return with_orbit_point(Model(
        name=f"S{n}",
        dim=n,
        metric_fn=sphere_metric_fn(n),
        lam=0.5,
        chi=2 if n % 2 == 0 else 0,
        volume=sphere_volume(n),
        compact=True,
        base_point=base,
        slice=chart_slice(n, _polar(range(n - 1)), math.pi, 2 * math.pi),
        cyclic=(n - 1,),
    ))


# -- products of unit 2-spheres ----------------------------------------------


def product_of_spheres(k) -> Model:
    """(S^2)^k with unit factors; Einstein with Ric = g."""
    def fn(coords):
        dim = 2 * k
        rows = [[0.0] * dim for _ in range(dim)]
        for j in range(k):
            rows[2 * j][2 * j] = 1.0
            s = coords[2 * j].sin()
            rows[2 * j + 1][2 * j + 1] = s * s
        return rows

    n = 2 * k
    base = np.array([0.7 + 0.15 * i if i % 2 == 0 else 1.1 + 0.2 * i
                     for i in range(n)])
    return with_orbit_point(Model(
        name="x".join(["S2"] * k),
        dim=n,
        metric_fn=fn,
        lam=1.0 / (2 * (n - 1)),
        chi=2 ** k,
        volume=(4 * math.pi) ** k,
        compact=True,
        base_point=base,
        slice=chart_slice(n, _polar(range(0, n, 2)), math.pi,
                          (2 * math.pi) ** k),
        cyclic=tuple(range(1, n, 2)),
    ))


# -- complex projective plane --------------------------------------------------


def cp2_metric_fn():
    """Fubini-Study metric on the affine chart, normalized so Ric = 6 g.

    In real coordinates (x1, y1, x2, y2) with z_j = x_j + i y_j the Hermitian
    components are h_{ij} = (delta_ij (1+s) - conj(z_i) z_j)/(1+s)^2 with
    s = |z|^2, and the real metric blocks are Re h and Im h.  They are
    built in real arithmetic, with no complex jets: Re conj(z_i) z_j =
    x_i x_j + y_i y_j and Im conj(z_i) z_j = x_i y_j - y_i x_j, so h_11 =
    (1 + |z_2|^2)/(1+s)^2, h_22 = (1 + |z_1|^2)/(1+s)^2, and
    h_12 = -(x_1 x_2 + y_1 y_2 + i (x_1 y_2 - y_1 x_2))/(1+s)^2.
    """
    def fn(coords):
        x1, y1, x2, y2 = coords
        r11, r22 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2  # Re conj(z_i) z_i
        denom = (1.0 + r11 + r22) ** (-2)
        h11, h22 = (1.0 + r22) * denom, (1.0 + r11) * denom
        re12 = -(x1 * x2 + y1 * y2) * denom
        im12 = (y1 * x2 - x1 * y2) * denom
        # coordinate order (x1, y1, x2, y2); g(dx_i, dx_j) = g(dy_i, dy_j)
        # = Re h_ij, g(dx_i, dy_j) = Im h_ij, g(dy_i, dx_j) = -Im h_ij, and
        # h is Hermitian with a real diagonal
        return [[h11, 0.0, re12, im12],
                [0.0, h11, -im12, re12],
                [re12, -im12, h22, 0.0],
                [im12, re12, 0.0, h22]]
    return fn


def _cp2_embed(u):
    chi, t1, t2, t3 = u.T
    r = np.tan(chi)
    w = np.stack([np.cos(t1),
                  np.sin(t1) * np.cos(t2),
                  np.sin(t1) * np.sin(t2) * np.cos(t3),
                  np.sin(t1) * np.sin(t2) * np.sin(t3)], axis=1)
    return r[:, None] * w


def _cp2_weight(u):
    chi, t1, t2, _ = u.T
    r = np.tan(chi)
    return (1.0 + r ** 2) * r ** 3 * np.sin(t1) ** 2 * np.sin(t2)


def cp2() -> Model:
    return with_orbit_point(Model(
        name="CP2",
        dim=4,
        metric_fn=cp2_metric_fn(),
        lam=1.0,
        chi=3,
        volume=math.pi ** 2 / 2,
        compact=True,
        base_point=np.array([0.31, -0.24, 0.47, 0.12]),
        slice=Slice(((EPS_POLE, math.pi / 2 - EPS_POLE),
                     (EPS_POLE, math.pi - EPS_POLE),
                     (EPS_POLE, math.pi - EPS_POLE),
                     (0.0, 2 * math.pi)), _cp2_embed, _cp2_weight),
    ))


# -- perturbed sphere ----------------------------------------------------------


def perturbed_sphere(n, amp=0.1) -> Model:
    """Unit S^n pulled back from the flat metric plus amp * X1^2 dX2 (x) dX2.

    Cohomogeneity-two, so generically non-Einstein with nonvanishing Weyl and
    Cotton tensors; used wherever a non-symmetric compact test metric is
    needed.
    """
    round_fn = sphere_metric_fn(n)

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
        compact=True,
        base_point=np.linspace(0.5, 2.0, n),
        # the perturbation reads only (theta_1, theta_2), so the isometries
        # of the round S^{n-2} factor carry the slice theta_i = pi/2
        # (i >= 3) onto every other point: each slice point stands for an
        # orbit of volume vol(S^{n-2})
        slice=chart_slice(n, _polar(range(2)), math.pi / 2,
                          sphere_volume(n - 2)),
        cyclic=(n - 1,),
    )


# -- hyperbolic normal-form metric ----------------------------------------------


def hyperbolic_metric_fn(n):
    """g = r^-2 (dr^2 + (1 - r^2/4)^2 h_round) on (0, 2) x S^{n-1}."""
    round_fn = sphere_metric_fn(n - 1)

    def fn(coords):
        r = coords[0]
        rows = [[0.0] * n for _ in range(n)]
        rinv2 = r ** (-2)
        rows[0][0] = rinv2
        f = 1.0 - 0.25 * (r * r)
        conf = rinv2 * f * f
        inner = round_fn(coords[1:])  # the round metric is diagonal
        for i in range(n - 1):
            rows[1 + i][1 + i] = conf * inner[i][i]
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
        compact=False,
        base_point=base,
        cyclic=(n - 1,),
    )


# -- registry --------------------------------------------------------------------


def _registry():
    return {
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


MODEL_NAMES = tuple(_registry())


def get_model(name: str) -> Model:
    """The catalog model spelled exactly `name`, one of `MODEL_NAMES`; any
    other spelling raises `KeyError` listing the catalog."""
    reg = _registry()
    if name not in reg:
        raise KeyError(f"unknown model {name!r}; available: "
                       f"{', '.join(sorted(reg))}")
    return reg[name]()
