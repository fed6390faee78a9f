"""The in-process workloads.  Each is built from a seed variant and runs
one repetition at a time; a repetition returns `Op`s, one per identity
check.

Every call goes through a module attribute (`amb.p_ell_n_ambient`,
`integ.integrate_scalar`, ...) so that the layer wrappers of
`tracing.Tracer` see it.  A repetition builds fresh `AmbientChart` and
`Geometry` objects and calls the uncached route functions, never
`integrate._p_ell_n_integrals`, whose cache would let later repetitions skip
the ambient work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rcint import ambient as amb
from rcint import geometry as geo
from rcint import integrate as integ
from rcint import invariants as inv
from rcint.reports import CheckReport


@dataclass
class Op:
    """One identity check and any further values the gate compares with
    the reference."""

    report: CheckReport
    values: dict = field(default_factory=dict)


class AmbientP8:
    """P_{l,8} on S2xS2xS2xS2 by the ambient and the Einstein route.

    l = 2 is left out: one evaluation takes about 41 s and peaks at 3.9 GB,
    so a run could not time the eleven repetitions its tail needs.
    """

    name = "ambient-p8"
    ells = (3, 4)
    tol = 1e-7  # pinned route-equivalence tolerance

    def __init__(self, variant: int):
        self.model = geo.get_model("S2xS2xS2xS2")
        rng = np.random.default_rng([variant, 8])
        x = self.model.base_point + rng.uniform(-0.25, 0.25, self.model.dim)
        self.x = x[None, :]

    def run(self):
        ops = []
        for ell in self.ells:
            chart = amb.AmbientChart(self.model)
            a = amb.p_ell_n_ambient(chart, ell, x_points=self.x)
            e = amb.p_ell_n_einstein(self.model, ell, x_points=self.x)
            ops.append(Op(CheckReport.compare(
                f"route-P-{ell}-8-{self.model.name}", "Prop. 3.4", a, e,
                self.tol)))
        return ops


def lap_weyl_norm2(g):
    return g.laplacian(inv.weyl_norm2_field(g))


class Quadrature:
    """Gauss-Legendre integrals of |W|^2 over S2xS2 and CP2, and of
    Delta|W|^2 over a perturbed S4 whose amplitude comes from the seed."""

    name = "quadrature"
    # nodes per axis: 5^4 and 6^4 product nodes resolve the two |W|^2
    # integrals to 1e-7 and 6e-7; 14^2 resolves the perturbed divergence
    # integral, relative to the |W|^2 integral, to 1e-7 for amplitudes up
    # to 0.04
    nodes = {"S2xS2": 5, "CP2": 6, "perturbed-S4": 14}
    exact = {"S2xS2": 256 * math.pi ** 2 / 3, "CP2": 48 * math.pi ** 2}
    tol = 1e-6

    def __init__(self, variant: int):
        rng = np.random.default_rng([variant, 4])
        self.models = {name: geo.get_model(name) for name in self.exact}
        self.perturbed = geo.perturbed_sphere(4, 0.02 + 0.02 * rng.uniform())

    def run(self):
        ops = []
        for name, model in self.models.items():
            val = integ.integrate_scalar(
                inv.weyl_norm2_field, model, order=2,
                nodes_per_axis=self.nodes[name], force_quadrature=True)
            ops.append(Op(CheckReport.compare(
                f"quad-weyl-norm2-{name}", "|W|^2 integral", val,
                self.exact[name], self.tol)))
        k = self.nodes["perturbed-S4"]
        scale = integ.integrate_scalar(inv.weyl_norm2_field, self.perturbed,
                                       order=2, nodes_per_axis=k)
        val = integ.integrate_scalar(lap_weyl_norm2, self.perturbed,
                                     order=4, nodes_per_axis=k)
        ops.append(Op(CheckReport.compare(
            "quad-divergence-perturbed-S4", "Lemma 4.1", val / scale, 0.0,
            self.tol),
            values={"int-weyl-norm2-perturbed-S4": scale}))
        return ops


IN_PROCESS = {cls.name: cls for cls in (AmbientP8, Quadrature)}
