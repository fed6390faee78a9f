"""Command-line entry point: run verification suites by name, emit
machine-readable reports, and evaluate renormalized volumes.

Subcommands:
  verify SUITE [SUITE ...]   run check suites (JSON-lines reports + summary)
  rvol --n N                 finite-part renormalized volume of H^N
  list-suites                catalog of suites with their source anchors

`--tol` overrides the tolerance of every check of the selected suites:
`_run_verify` re-judges each report a suite yields from its stored errors,
so no suite reads it.  A suite declared with default models runs on
`--manifold` alone when it is given, else on each of its defaults.  The
`pfaffian-identities` brute-force oracle and Weyl-basis checks both cover
every sample.

Exit codes: 0 all checks pass; 2 invalid configuration (unknown suite,
manifold, or flag values, a manifold that a selected suite cannot take, or
a --manifold, --seed, --samples or --n that no selected suite reads,
rejected before any computation); 3 numerical
failure (at least one failing check, or an internal error; the failing
check id is reported).  A suite that raises adds one failing report,
`<suite>/error`, and writes its traceback to stderr; the other suites still
run and every report is emitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
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
    weyl_norm2_field,
)
from .jets import const_poly
from .reports import CheckReport
from .tensor import kronecker_recursion_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_EINSTEIN_DEFAULTS = ("S4", "S2xS2")
_GBC_DEFAULTS = ("S4", "S2xS2", "CP2", "S2xS2xS2")
#: the dimensions `pfaffian-identities` fuzzes by default, and the --n it takes
_PFAFFIAN_DIMS = (4, 5, 6, 8)

#: what a manifold must be, as tests on its catalog `Model`
_PROPERTIES = {"compact": lambda m: m.compact,
               "homogeneous": lambda m: m.homogeneous,
               "Einstein": lambda m: m.lam is not None,
               "of dimension >= 4": lambda m: m.dim >= 4}
_EINSTEIN_4 = ("Einstein", "of dimension >= 4")

#: suite name -> (source anchor, description, runner); written by `_suite`
SUITES = {}
#: suite name -> (the settings it reads, what it needs from its manifold)
_DECLARED = {}


def _suite(name, anchor, description, reads=(), needs=(), models=()):
    """Declare a runner (parsed config -> CheckReports) as suite `name`.

    `reads` names the `_SETTINGS` it reads that not every suite reads;
    `needs` names the `_PROPERTIES` its --manifold must have.  With
    `models`, the declared function is a check(cfg, model), and the suite
    runs it on the --manifold model, or else on each of `models`.  A suite
    that needs any property, or has models, reads --manifold.  A setting
    given by flag or config key when no selected suite reads it is
    rejected.  No runner reads --tol: `_run_verify` re-judges every report
    a runner yields at a given --tol."""
    def declare(check):
        def runner(cfg):
            names = [cfg.manifold] if cfg.manifold is not None else models
            for model in map(get_model, names):
                yield from check(cfg, model)
        SUITES[name] = (anchor, description, runner if models else check)
        _DECLARED[name] = ((*reads, "manifold") if needs or models else reads,
                           needs)
        return check
    return declare


# ---------------------------------------------------------------------------
# suite runners: each takes the parsed config (and its model, for a suite
# declared with `models`) and yields CheckReports


@_suite("kronecker", "Lemma 5.1",
        "normalized delta Laplace recursion, exact arithmetic",
        reads=("seed", "samples"))
def _suite_kronecker(cfg):
    worst = 0.0
    for n in range(2, 9):
        for k in range(2, n + 1):
            worst = max(worst, float(kronecker_recursion_residual(
                k, n, samples=cfg.samples or 300, seed=cfg.seed)))
    yield CheckReport.compare("kronecker-recursion", "Lemma 5.1", worst,
                              0.0, 1e-12)


@_suite("pfaffian-identities", "Lemma 5.2",
        "Pf_l Weyl-basis expansions on random Weyl tensors + brute-force "
        "oracle", reads=("seed", "samples", "n"))
def _suite_pfaffian_identities(cfg):
    for dim in [cfg.n] if cfg.n else _PFAFFIAN_DIMS:
        W = random_weyl(dim, seed=cfg.seed, nsamples=cfg.samples or 100)
        for ell in range(2, dim // 2 + 1):
            yield low_order_pfaffian_identity(W, ell)
        if dim <= 6:
            for ell in range(2, dim // 2 + 1):
                yield CheckReport.compare(
                    f"pfaffian-brute-d{dim}-l{ell}", "Eq. (1.4)",
                    pf_ell(W, ell), pf_ell_brute(W, ell), 1e-10)


@_suite("einstein-pfaffian", "Lemma 5.1",
        "Pfaffian of an Einstein metric from Pf_l(W)", needs=_EINSTEIN_4,
        models=_GBC_DEFAULTS)
def _suite_einstein_pfaffian(cfg, model):
    yield einstein_pfaffian_expansion(model)


@_suite("cgb", "Eq. (1.1)",
        "compact Gauss-Bonnet: integral of Pf = (2pi)^{n/2} chi",
        needs=("compact",), models=_GBC_DEFAULTS)
def _suite_cgb(cfg, model):
    yield integ.verify_cgb(model)


@_suite("gbc", "Cor. 1.8",
        "Gauss-Bonnet with renormalized curvature corrections",
        needs=("compact", "homogeneous", "Einstein"), models=_GBC_DEFAULTS)
def _suite_gbc(cfg, model):
    yield from integ.verify_gbc(model)


@_suite("ambient-ricci", "Lemma 3.1", "ambient space is Ricci-flat",
        reads=("seed",), needs=("Einstein",), models=_EINSTEIN_DEFAULTS)
def _suite_ambient_ricci(cfg, model):
    chart = amb.AmbientChart(model)
    yield from amb.ambient_ricci_check(chart,
                                       chart.sample_points(20, cfg.seed))


@_suite("ambient-curvature", "Lemma 3.3", "ambient curvature = tau^2 W",
        reads=("seed",), needs=_EINSTEIN_4, models=_EINSTEIN_DEFAULTS)
def _suite_ambient_curvature(cfg, model):
    chart = amb.AmbientChart(model)
    yield amb.ambient_curvature_check(chart,
                                      chart.sample_points(20, cfg.seed))


@_suite("ambient-christoffel", "Prop. 3.5",
        "closed-form ambient Christoffel blocks", reads=("seed",),
        needs=("Einstein",), models=_EINSTEIN_DEFAULTS)
def _suite_ambient_christoffel(cfg, model):
    chart = amb.AmbientChart(model)
    yield amb.ambient_christoffel_check(chart,
                                        chart.sample_points(20, cfg.seed))


def _unit_field(geo):
    return const_poly(np.ones(len(geo.points)), geo.basis, 1)


@_suite("ambient-laplacian", "Prop. 3.4",
        "push-pull identity for the ambient Laplacian", reads=("seed",),
        needs=_EINSTEIN_4, models=_EINSTEIN_DEFAULTS)
def _suite_ambient_laplacian(cfg, model):
    chart = amb.AmbientChart(model)
    pts = chart.sample_points(5, cfg.seed)
    for name, field, base_order in (("unit", _unit_field, 0),
                                    ("weyl-norm2", weyl_norm2_field, 2)):
        lhs, rhs = amb.ambient_laplacian_homogeneous(
            chart, field, -4.0, pts, base_order=base_order)
        yield CheckReport.compare(f"ambient-laplacian-{name}-{model.name}",
                                  "Prop. 3.4", lhs, rhs, 1e-8)


@_suite("straightenable", "Def. 1.5", "tau^w push-pull certification",
        needs=_EINSTEIN_4, models=_EINSTEIN_DEFAULTS)
def _suite_straightenable(cfg, model):
    yield amb.check_straightenable(lambda g: g.weyl, 2,
                                   amb.AmbientChart(model), name="weyl")


@_suite("route-equivalence", "Prop. 3.4",
        "P_{l,n}: ambient route vs Einstein route", needs=_EINSTEIN_4,
        models=("S2xS2", "S2xS2xS2"))
def _suite_route_equivalence(cfg, model):
    n = model.dim
    for ell in range(2, n // 2 + 1):
        yield CheckReport.compare(
            f"route-P-{ell}-{n}-{model.name}", "Prop. 3.4",
            integ.p_ell_n_base(model, ell, True),
            integ.p_ell_n_base(model, ell, False), 1e-7)


@_suite("divergence", "Remark 3.7", "divergence scalars vanish as predicted")
def _suite_divergence(cfg):
    yield from integ.divergence_identity_checks()


@_suite("main-theorem", "Thm. 1.6",
        "renormalized-integral coefficient algebra", needs=tuple(_PROPERTIES))
def _suite_main_theorem(cfg):
    cases = [("S2xS2xS2", "weyl-norm2"), ("S2xS2xS2xS2", "pf3-weyl")]
    if cfg.manifold is not None:
        cases = [(cfg.manifold, "weyl-norm2")]
    for name, fieldname in cases:
        yield integ.verify_main_theorem_coefficient(get_model(name),
                                                    fieldname)


@_suite("worked-examples", "§5 Examples",
        "integration-by-parts and Weyl-Laplacian identities",
        needs=("of dimension >= 4",), models=("S2xS2", "perturbed-S4"))
def _suite_worked_examples(cfg, model):
    yield from integ.verify_worked_examples(model)


@_suite("rvol", "Eq. (1.2)", "renormalized volumes of hyperbolic space")
def _suite_rvol(cfg):
    for n, expect in ((4, 4 * math.pi ** 2 / 3),
                      (6, -8 * math.pi ** 3 / 15)):
        yield CheckReport.compare(
            f"rvol-H{n}", "Eq. (1.2)", integ.renormalized_volume(n),
            expect, 1e-12)

# ---------------------------------------------------------------------------
# output formatting

_FORMATS = ("json", "csv", "table")
_CSV_FIELDS = ["check_id", "anchor", "lhs", "rhs", "abs_err", "rel_err",
               "tol", "passed", "criterion"]


def _emit(reports, fmt, stream):
    if fmt == "json":
        for r in reports:
            stream.write(r.to_json() + "\n")
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
        prog="rcint", allow_abbrev=False,
        description="numerical certification of renormalized curvature "
                    "integral identities on model Einstein manifolds")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", allow_abbrev=False,
                       help="run verification suites")
    v.add_argument("suites", nargs="*", help="suite names (see list-suites)")
    v.add_argument("--config", help="JSON config file mirroring the flags")
    v.add_argument("--manifold", help="restrict to one catalog manifold")
    v.add_argument("--tol", type=float, help="tolerance override")
    v.add_argument("--seed", type=int, help="fuzz seed (default 0)")
    v.add_argument("--samples", type=int, help="fuzz sample count")
    v.add_argument("--n", type=int, help="dimension for pfaffian-identities")
    v.add_argument("--format", choices=_FORMATS,
                   help="report format (default json)")
    v.add_argument("--out", help="write the report stream to this path")

    r = sub.add_parser("rvol", allow_abbrev=False,
                       help="renormalized volume (finite part) of hyperbolic "
                            "space")
    r.add_argument("--n", type=int, required=True, help="even dimension")

    sub.add_parser("list-suites", help="list suites with source anchors")
    return p


#: verify setting -> (type, validity rule, message when the rule fails,
#: default); defaults apply after the config-file merge and validation, so
#: only a setting that was given must be read by a selected suite
_SETTINGS = {
    "manifold": (str, None, None, None),
    "tol": ((int, float), lambda v: 0 < v < math.inf,
            "--tol must be positive and finite", None),
    "seed": (int, lambda v: v >= 0, "--seed must be non-negative", 0),
    "samples": (int, lambda v: v >= 1, "--samples must be at least 1", None),
    "n": (int, lambda v: v in _PFAFFIAN_DIMS,
          f"--n must be one of {', '.join(map(str, _PFAFFIAN_DIMS))}", None),
    "format": (str, lambda v: v in _FORMATS,
               f"--format must be one of {', '.join(_FORMATS)}", "json"),
    "out": (str, None, None, None),
}


def _apply_config_file(args):
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, val in doc.items():
        attr = key.replace("-", "_")
        # explicit flags win over the config file
        if attr == "suites":
            if not args.suites:
                args.suites = val
        elif attr not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        elif getattr(args, attr) is None:
            setattr(args, attr, val)
    return args


class ConfigError(Exception):
    pass


def _validate(args):
    if not isinstance(args.suites, list) or not all(
            isinstance(s, str) for s in args.suites):
        raise ConfigError("suites must be a list of suite names")
    for attr, (kind, *_) in _SETTINGS.items():
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
    for attr in _SETTINGS:
        readers = [s for s, (reads, _) in _DECLARED.items() if attr in reads]
        if readers and getattr(args, attr) is not None and not set(
                args.suites) & set(readers):
            raise ConfigError(f"--{attr} (or config key {attr!r}) is read "
                              f"by none of the selected suites; only "
                              f"{', '.join(readers)} read it")
    if args.manifold is not None:
        try:
            model = get_model(args.manifold)
        except KeyError as exc:
            raise ConfigError(exc.args[0])
        for s in args.suites:
            missing = [p for p in _DECLARED[s][1] if not _PROPERTIES[p](model)]
            if missing:
                raise ConfigError(f"suite {s} cannot take --manifold "
                                  f"{args.manifold}: it is not "
                                  f"{' and '.join(missing)}")
    for attr, (_, valid, message, _) in _SETTINGS.items():
        val = getattr(args, attr)
        if val is not None and valid and not valid(val):
            raise ConfigError(message)


def _run_verify(args, out_stream) -> int:
    reports = []
    for name in args.suites:
        anchor, _, runner = SUITES[name]
        try:
            for rep in runner(args):
                reports.append(rep if args.tol is None
                               else rep.judged(args.tol))
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
    val = integ.renormalized_volume(args.n)
    coeff = integ.renormalized_volume_exact(args.n)
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
        _validate(args)
        for attr, (*_, default) in _SETTINGS.items():
            if getattr(args, attr) is None:
                setattr(args, attr, default)
        try:
            out_stream = (open(args.out, "w") if args.out is not None
                          else sys.stdout)
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
        if args.out is not None:
            out_stream.close()


if __name__ == "__main__":
    sys.exit(main())
