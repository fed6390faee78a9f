"""Command-line entry point: run verification suites by name, emit
machine-readable reports, and evaluate renormalized volumes.

Subcommands:
  verify SUITE [SUITE ...]   run check suites (JSON-lines reports + summary)
  rvol --space hyperbolic --n N   finite-part renormalized volume
  list-suites                catalog of suites with their source anchors

Exit codes: 0 all checks pass; 2 invalid configuration (unknown suite,
manifold, or flag values, rejected before any computation); 3 numerical
failure (at least one failing check, or an internal error; the failing
check id is reported).  A suite that raises adds one failing report,
`<suite>/error`, and writes its traceback to stderr; the other suites still
run and every report is emitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import traceback

import numpy as np

from . import ambient as amb
from . import integrate as integ
from .geometry import get_model
from .invariants import (
    einstein_pfaffian_expansion,
    low_order_pfaffian_identity,
    pf_ell,
    pf_ell_brute,
    random_weyl,
)
from .reports import CheckReport
from .tensor import kronecker_recursion_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_EINSTEIN_DEFAULTS = ("S4", "S2xS2")
_GBC_DEFAULTS = ("S4", "S2xS2", "CP2", "S2xS2xS2")


# ---------------------------------------------------------------------------
# suite runners: each takes the parsed config and yields CheckReports


def _models(cfg, defaults):
    names = [cfg.manifold] if cfg.manifold else list(defaults)
    return [get_model(n) for n in names]


def _suite_kronecker(cfg):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for k in range(2, n + 1):
            worst = max(worst, float(kronecker_recursion_residual(
                k, n, samples=cfg.samples or 300, seed=cfg.seed)))
    yield CheckReport.compare("kronecker-recursion", "Lemma 5.1", worst,
                              0.0, cfg.tol or 1e-12,
                              wall_time=time.perf_counter() - t0)


def _suite_pfaffian_identities(cfg):
    dims = [cfg.n] if cfg.n else [4, 5, 6, 8]
    samples = cfg.samples or 100
    tol = cfg.tol or 1e-10
    for dim in dims:
        t0 = time.perf_counter()
        W = random_weyl(dim, seed=cfg.seed, nsamples=samples)
        for ell in (2, 3, 4):
            if 2 * ell > dim:
                continue
            rep = low_order_pfaffian_identity(W, ell, tol=tol)
            rep.check_id = f"pfaffian-weyl-basis-d{dim}-l{ell}"
            rep.wall_time = time.perf_counter() - t0
            yield rep
        if dim <= 6:
            for ell in (2, 3):
                if 2 * ell > dim:
                    continue
                fast = pf_ell(W, ell)
                brute = pf_ell_brute(W, ell)
                yield CheckReport.compare(
                    f"pfaffian-brute-d{dim}-l{ell}", "Eq. (1.4)", fast,
                    brute, tol, wall_time=time.perf_counter() - t0)


def _suite_einstein_pfaffian(cfg):
    for model in _models(cfg, ("S4", "S2xS2", "CP2", "S2xS2xS2")):
        yield einstein_pfaffian_expansion(model, tol=cfg.tol or 1e-9)


def _suite_cgb(cfg):
    for model in _models(cfg, _GBC_DEFAULTS):
        yield integ.verify_cgb(model, tol=cfg.tol or 1e-6)


def _suite_gbc(cfg):
    for model in _models(cfg, _GBC_DEFAULTS):
        yield from integ.verify_gbc(model, tol=cfg.tol or 1e-6)


def _ambient_points(cfg, chart, count=20):
    return chart.sample_points(count, seed=cfg.seed)


def _suite_ambient_ricci(cfg):
    for model in _models(cfg, _EINSTEIN_DEFAULTS):
        chart = amb.AmbientChart(model)
        yield from amb.ambient_ricci_check(chart, _ambient_points(cfg, chart),
                                           tol=cfg.tol or 1e-8)


def _suite_ambient_curvature(cfg):
    for model in _models(cfg, _EINSTEIN_DEFAULTS):
        chart = amb.AmbientChart(model)
        yield amb.ambient_curvature_check(
            chart, _ambient_points(cfg, chart), tol=cfg.tol or 1e-9)


def _suite_ambient_christoffel(cfg):
    for model in _models(cfg, _EINSTEIN_DEFAULTS):
        chart = amb.AmbientChart(model)
        yield amb.ambient_christoffel_check(
            chart, _ambient_points(cfg, chart), tol=cfg.tol or 1e-10)


def _suite_ambient_laplacian(cfg):
    from .invariants import weyl_norm2_field
    from .jets import const_poly

    def unit_field(geo):
        return const_poly(np.ones(len(geo.points)), geo.basis, 1)

    cases = [("unit", unit_field, -4.0, 0),
             ("weyl-norm2", weyl_norm2_field, -4.0, 2)]
    for model in _models(cfg, _EINSTEIN_DEFAULTS):
        chart = amb.AmbientChart(model)
        pts = _ambient_points(cfg, chart, count=5)
        for name, field, w, base_order in cases:
            lhs, rhs = amb.ambient_laplacian_homogeneous(
                chart, field, w, pts, base_order=base_order)
            yield CheckReport.compare(
                f"ambient-laplacian-{name}-{model.name}", "Prop. 3.4",
                lhs, rhs, cfg.tol or 1e-8)


def _suite_straightenable(cfg):
    for model in _models(cfg, _EINSTEIN_DEFAULTS):
        chart = amb.AmbientChart(model)
        yield amb.check_straightenable(lambda g: g.weyl, 2, chart,
                                       tol=cfg.tol or 1e-9, name="weyl")


def _suite_route_equivalence(cfg):
    tol = cfg.tol or 1e-7
    for model in _models(cfg, ("S2xS2", "S2xS2xS2")):
        n = model.dim
        chart = amb.AmbientChart(model)
        for ell in range(2, n // 2 + 1):
            a = amb.p_ell_n_ambient(chart, ell)
            e = amb.p_ell_n_einstein(model, ell)
            yield CheckReport.compare(
                f"route-P-{ell}-{n}-{model.name}", "Prop. 3.4", a, e, tol)


def _suite_divergence(cfg):
    yield from integ.divergence_identity_checks(
        tol_pointwise=cfg.tol or 1e-8)


def _suite_main_theorem(cfg):
    cases = [("S2xS2xS2", "weyl-norm2"), ("S2xS2xS2xS2", "pf3-weyl")]
    if cfg.manifold:
        cases = [(cfg.manifold, "weyl-norm2")]
    for name, fieldname in cases:
        yield integ.verify_main_theorem_coefficient(
            get_model(name), fieldname, tol=cfg.tol or 1e-7)


def _suite_worked_examples(cfg):
    for model in _models(cfg, ("S2xS2", "perturbed-S4")):
        yield from integ.verify_worked_examples(
            model, tol_pointwise=cfg.tol or 1e-8)


def _suite_rvol(cfg):
    import math

    for n, expect in ((4, 4 * math.pi ** 2 / 3),
                      (6, -8 * math.pi ** 3 / 15)):
        yield CheckReport.compare(
            f"rvol-H{n}", "Eq. (1.2)", integ.renormalized_volume(n),
            expect, cfg.tol or 1e-12)


#: suite name -> (source anchor, description, runner)
SUITES = {
    "kronecker": ("Lemma 5.1",
                  "normalized delta Laplace recursion, exact arithmetic",
                  _suite_kronecker),
    "pfaffian-identities": ("Lemma 5.2",
                            "Pf_l Weyl-basis expansions on random Weyl "
                            "tensors + brute-force oracle",
                            _suite_pfaffian_identities),
    "einstein-pfaffian": ("Lemma 5.1",
                          "Pfaffian of an Einstein metric from Pf_l(W)",
                          _suite_einstein_pfaffian),
    "cgb": ("Eq. (1.1)",
            "compact Gauss-Bonnet: integral of Pf = (2pi)^{n/2} chi",
            _suite_cgb),
    "gbc": ("Cor. 1.8",
            "Gauss-Bonnet with renormalized curvature corrections",
            _suite_gbc),
    "ambient-ricci": ("Lemma 3.1", "ambient space is Ricci-flat",
                      _suite_ambient_ricci),
    "ambient-curvature": ("Lemma 3.3", "ambient curvature = tau^2 W",
                          _suite_ambient_curvature),
    "ambient-christoffel": ("Prop. 3.5",
                            "closed-form ambient Christoffel blocks",
                            _suite_ambient_christoffel),
    "ambient-laplacian": ("Prop. 3.4",
                          "push-pull identity for the ambient Laplacian",
                          _suite_ambient_laplacian),
    "straightenable": ("Def. 1.5", "tau^w push-pull certification",
                       _suite_straightenable),
    "route-equivalence": ("Prop. 3.4",
                          "P_{l,n}: ambient route vs Einstein route",
                          _suite_route_equivalence),
    "divergence": ("Remark 3.7", "divergence scalars vanish as predicted",
                   _suite_divergence),
    "main-theorem": ("Thm. 1.6", "renormalized-integral coefficient algebra",
                     _suite_main_theorem),
    "worked-examples": ("§5 Examples",
                        "integration-by-parts and Weyl-Laplacian identities",
                        _suite_worked_examples),
    "rvol": ("Eq. (1.2)", "renormalized volumes of hyperbolic space",
             _suite_rvol),
}


# ---------------------------------------------------------------------------
# output formatting

_FORMATS = ("json", "csv", "table")
_CSV_FIELDS = ["check_id", "anchor", "lhs", "rhs", "abs_err", "rel_err",
               "tol", "passed", "criterion"]


def _emit(reports, fmt, stream):
    if fmt == "json":
        for r in reports:
            stream.write(r.to_json(include_wall_time=False) + "\n")
    elif fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(_CSV_FIELDS)
        for r in reports:
            writer.writerow([getattr(r, f) for f in _CSV_FIELDS])
    else:  # table
        for r in reports:
            stream.write(str(r) + "\n")


def _summary(reports, stream):
    npass = sum(r.passed for r in reports)
    width = max((len(r.check_id) for r in reports), default=10)
    stream.write("\n== summary ==\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        stream.write(f"{r.check_id:<{width}}  {status}  "
                     f"abs={r.abs_err:.3e} rel={r.rel_err:.3e} "
                     f"[{r.anchor}]\n")
    stream.write(f"{npass}/{len(reports)} checks passed\n")


# ---------------------------------------------------------------------------
# argument handling


def _build_parser():
    p = argparse.ArgumentParser(
        prog="rcint",
        description="numerical certification of renormalized curvature "
                    "integral identities on model Einstein manifolds")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suites", nargs="*", help="suite names (see list-suites)")
    v.add_argument("--config", help="JSON config file mirroring the flags")
    v.add_argument("--manifold", help="restrict to one catalog manifold")
    v.add_argument("--tol", type=float, help="tolerance override")
    v.add_argument("--seed", type=int, help="fuzz seed (default 0)")
    v.add_argument("--samples", type=int, help="fuzz sample count")
    v.add_argument("--n", "--dim", dest="n", type=int,
                   help="dimension for pfaffian-identities")
    v.add_argument("--format", choices=_FORMATS,
                   help="report format (default json)")
    v.add_argument("--out", help="write the report stream to this path")

    r = sub.add_parser("rvol", help="renormalized volume (finite part)")
    r.add_argument("--space", default="hyperbolic",
                   choices=["hyperbolic"])
    r.add_argument("--n", type=int, required=True, help="even dimension")

    sub.add_parser("list-suites", help="list suites with source anchors")
    return p


#: flag defaults, applied after the config file merge so its keys count
_VERIFY_DEFAULTS = {"seed": 0, "format": "json"}


def _apply_config_file(args):
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = {"suites", "manifold", "tol", "seed", "samples", "n",
               "format", "out"}
    for key, val in doc.items():
        attr = key.replace("-", "_")
        if attr not in allowed:
            raise ConfigError(f"unknown config key {key!r}")
        # explicit flags win over the config file
        if attr == "suites":
            if not args.suites:
                args.suites = val
        elif getattr(args, attr, None) is None:
            setattr(args, attr, val)
    return args


class ConfigError(Exception):
    pass


#: verify setting -> the type its value must have (flags or config file)
_SETTING_TYPES = {"manifold": str, "tol": (int, float), "seed": int,
                  "samples": int, "n": int, "format": str, "out": str}


def _validate(args):
    if not isinstance(args.suites, list) or not all(
            isinstance(s, str) for s in args.suites):
        raise ConfigError("suites must be a list of suite names")
    for attr, kind in _SETTING_TYPES.items():
        val = getattr(args, attr)
        if val is not None and (isinstance(val, bool)
                                or not isinstance(val, kind)):
            raise ConfigError(f"{attr} has the wrong type: {val!r}")
    if not args.suites:
        raise ConfigError("no suites given; see `rcint list-suites`")
    for s in args.suites:
        if s not in SUITES:
            raise ConfigError(f"unknown suite {s!r}; available: "
                              f"{', '.join(sorted(SUITES))}")
    if args.manifold:
        try:
            get_model(args.manifold)
        except KeyError as exc:
            raise ConfigError(str(exc))
    if args.format not in _FORMATS:
        raise ConfigError(f"--format must be one of {', '.join(_FORMATS)}")
    if args.tol is not None and args.tol <= 0:
        raise ConfigError("--tol must be positive")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    if args.samples is not None and args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    if args.n is not None:
        if "pfaffian-identities" not in args.suites:
            raise ConfigError("--n applies only to pfaffian-identities")
        if args.n not in (4, 5, 6, 8):
            raise ConfigError("--n must be one of 4, 5, 6, 8")


def _run_verify(args, out_stream) -> int:
    reports = []
    for name in args.suites:
        anchor, _, runner = SUITES[name]
        try:
            for rep in runner(args):
                reports.append(rep)
        except Exception:  # noqa: BLE001 - reported, the other suites run
            print(f"internal failure in suite {name}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            reports.append(CheckReport(f"{name}/error", anchor, 0.0, 0.0,
                                       0.0, 0.0, 0.0, False, "error"))
    _emit(reports, args.format, out_stream)
    _summary(reports, sys.stdout)
    if all(r.passed for r in reports):
        return EXIT_OK
    failing = ", ".join(r.check_id for r in reports if not r.passed)
    print(f"numerical failure in: {failing}", file=sys.stderr)
    return EXIT_NUMERICAL


def _run_rvol(args) -> int:
    if args.n % 2 or args.n < 2 or args.n > 10:
        raise ConfigError("--n must be even, 2 <= n <= 10")
    from .integrate import renormalized_volume, renormalized_volume_exact

    val = renormalized_volume(args.n)
    coeff = renormalized_volume_exact(args.n)
    print(f"V(H^{args.n}) = {coeff} * pi^{args.n // 2} = {val:.10g}")
    return EXIT_OK


def _run_list_suites() -> int:
    width = max(len(s) for s in SUITES)
    for name, (anchor, desc, _) in SUITES.items():
        print(f"{name:<{width}} → {anchor} — {desc}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-suites":
            return _run_list_suites()
        if args.command == "rvol":
            return _run_rvol(args)
        args = _apply_config_file(args)
        for attr, val in _VERIFY_DEFAULTS.items():
            if getattr(args, attr) is None:
                setattr(args, attr, val)
        _validate(args)
        try:
            out_stream = open(args.out, "w") if args.out else sys.stdout
        except OSError as exc:
            raise ConfigError(f"cannot write --out file: {exc}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _run_verify(args, out_stream)
    except Exception as exc:  # noqa: BLE001 - numerical failure surface
        print(f"internal numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if args.out:
            out_stream.close()


if __name__ == "__main__":
    sys.exit(main())
