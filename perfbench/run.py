"""rcint benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

  ambient-p8    P_{l,8}, l = 3, 4, on S2xS2xS2xS2 by the ambient and the
                Einstein route, in this process
  quadrature    forced Gauss-Legendre integrals of |W|^2 and Delta|W|^2,
                in this process
  cli-defaults  `rcint verify` through `cli.main`, one fresh interpreter
                per repetition

Repetitions run back to back until at least S seconds have been timed and
at least 11 samples exist, the fewest for which a percentile has ten
samples beyond it.  Every operation (identity check) of every repetition is
checked twice: the check itself must pass, and each side that is not at
roundoff level (at most the check's tolerance) must match the reference
recorded for the seed in perfbench/reference.json to 1e-12 relative.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1, untraced and traced repetitions
alternate and it holds the per-layer metrics.  The exit code is 1 when an
operation failed or a count differed between repetitions, 2 when the
checkout has no rcint sources.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import env

VARIANTS = 16          # seeds map to input variants seed % VARIANTS
MIN_SAMPLES = 11       # a percentile with ten samples beyond it needs 11
MAX_MEASURE_S = 120.0  # stop adding repetitions after this long
SETUP_RUNS = 5         # fresh-process set-ups per run (median reported)
MIN_TRACED = 3         # traced repetitions per --trace 1 run
DRIFT = 1e-12          # allowed relative drift from the reference

WORKLOADS = ("ambient-p8", "quadrature", "cli-defaults")

#: layer figures the traced run prints for every workload (0 where the
#: workload never enters the layer) after the per-layer metrics of
#: BENCHMARK.json, which are the layers every workload exercises
LAYER_EXTRA = [
    "geometry.raise_all.self_s",
    "invariants.raise_last_two.self_s",
    "invariants.pf_ell_poly.self_s",
    "invariants.i_ell_operator.self_s",
    "invariants.pf_ell.self_s",
    "invariants.pf_ell_brute.self_s",
    "invariants.weyl_basis.self_s",
    "ambient.iterated_laplacian.self_s",
    "ambient.chart_geometry.calls",
    "integrate.quadrature_rule.self_s",
    "integrate.nodes",
    "integrate.nodes_per_s",
    "tensor.kronecker.self_s",
]


def metric_units(section):
    """name -> unit of one metric section of BENCHMARK.json."""
    with open(env.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def tail(samples):
    """(value, percentile, count, beyond): the highest order statistic with
    ten samples beyond it, or the maximum when there are fewer than 11."""
    xs = sorted(samples)
    n = len(xs)
    k = n - MIN_SAMPLES if n >= MIN_SAMPLES else n - 1
    return xs[k], 100.0 * (k + 1) / n, n, n - 1 - k


# ---------------------------------------------------------------------------
# correctness gate


class Gate:
    """Counts operations and failures against the seed's reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # op id -> first reason it failed

    def fail(self, op_id, why):
        self.failed += 1
        self.failures.setdefault(op_id, why)

    def check(self, op_id, lhs, rhs, tol, passed, values=None):
        self.attempted += 1
        why = self._verdict(op_id, {"lhs": lhs, "rhs": rhs, **(values or {})},
                            tol, passed)
        if why:
            self.fail(op_id, why)

    def _verdict(self, op_id, sides, tol, passed):
        if not all(math.isfinite(v) for v in sides.values()):
            return f"non-finite value in {sides}"
        if not passed:
            return f"check failed: {sides} tol={tol:g}"
        ref = self.reference.get(op_id)
        if ref is None:
            return "no reference value for this operation"
        want = {"lhs": ref["lhs"], "rhs": ref["rhs"], **ref.get("values", {})}
        for side, v in sides.items():
            w = want.get(side)
            if w is None:
                return f"no reference for {side}"
            if side in ("lhs", "rhs") and abs(w) <= ref["tol"]:
                continue  # roundoff-level residual
            if abs(v - w) > DRIFT * abs(w):
                return f"{side}={v!r} drifted from reference {w!r}"
        return None

    def check_ids(self, got_ids):
        """Every reference operation must be present in a repetition."""
        for op_id in sorted(set(self.reference) - set(got_ids)):
            self.attempted += 1
            self.fail(op_id, "operation missing from the repetition")


def check_ops(gate, ops):
    for op in ops:
        r = op.report
        gate.check(r.check_id, r.lhs, r.rhs, r.tol, r.passed, op.values)
    gate.check_ids([op.report.check_id for op in ops])


def check_reports(gate, reports):
    for r in reports:
        gate.check(r["check_id"], r["lhs"], r["rhs"], r["tol"], r["passed"])
    gate.check_ids([r["check_id"] for r in reports])


# ---------------------------------------------------------------------------
# runners


@dataclass
class Result:
    walls: list = field(default_factory=list)  # untraced repetitions
    traced_walls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    layer_reps: list = field(default_factory=list)  # per traced repetition
    spans: list = field(default_factory=list)


def _keep_measuring(t0, n, seconds, minimum):
    elapsed = time.perf_counter() - t0
    if elapsed >= MAX_MEASURE_S:
        return False
    return n < minimum or elapsed < seconds


def run_in_process(name, variant, seconds, trace, gate, keys_path):
    from tracing import LazyTableRecorder, Tracer, rep_layers
    from workloads import IN_PROCESS

    res = Result()
    wl = IN_PROCESS[name](variant)
    recorder = LazyTableRecorder().install()
    try:
        check_ops(gate, wl.run())  # warm-up: fills the lazy tables
    finally:
        recorder.uninstall()
    if not trace:
        import worker
        keys_path.write_text(json.dumps(recorder.keys))

    t0 = time.perf_counter()
    while _keep_measuring(t0, len(res.traced_walls) if trace
                          else len(res.walls), seconds,
                          MIN_TRACED if trace else MIN_SAMPLES):
        t = time.perf_counter()
        ops = wl.run()
        res.walls.append(time.perf_counter() - t)
        check_ops(gate, ops)
        if (not trace and len(res.walls) % 2
                and len(res.setups) < SETUP_RUNS):
            # after every other repetition, so that one slow spell of the
            # machine does not shift every set-up sample
            res.setups.append(worker.spawn_setup(name, variant, keys_path))
        if trace:
            tracer = Tracer(rep=len(res.traced_walls)).install()
            try:
                t = time.perf_counter()
                ops = wl.run()
                res.traced_walls.append(time.perf_counter() - t)
            finally:
                tracer.uninstall()
            check_ops(gate, ops)
            res.layer_reps.append(rep_layers(tracer.spans))
            res.spans += tracer.spans
    res.rss_mb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return res


def run_cli(variant, seconds, trace, gate, out_dir):
    import worker
    from tracing import rep_layers

    res = Result()
    t0 = time.perf_counter()
    while _keep_measuring(t0, len(res.traced_walls) if trace
                          else len(res.walls), seconds,
                          MIN_TRACED if trace else MIN_SAMPLES):
        for traced in ((False, True) if trace else (False,)):
            spans_path = out_dir / f"cli-worker-{len(res.walls)}.jsonl"
            out = worker.spawn_cli(variant, traced, spans_path)
            check_reports(gate, out["reports"])
            if traced:
                res.traced_walls.append(out["wall_s"])
                with open(spans_path) as fh:
                    spans = [json.loads(line) for line in fh]
                spans_path.unlink()
                for s in spans:
                    s["rep"] = len(res.layer_reps)
                res.layer_reps.append(rep_layers(spans))
                res.spans += spans
            else:
                res.walls.append(out["wall_s"])
                res.setups.append(out["setup_s"])
                res.rss_mb.append(out["rss_mb"])
    return res


# ---------------------------------------------------------------------------
# output


def end_to_end(res):
    value, pct, n, beyond = tail(res.walls)
    metrics = {
        "setup_s": statistics.median(res.setups),
        "wall_s": statistics.median(res.walls),
        "wall_s.tail": value,
        "peak_rss_mb": statistics.median(res.rss_mb),
    }
    notes = {
        "setup_s": f"median of {len(res.setups)} fresh-process set-ups",
        "wall_s": f"median of {len(res.walls)} repetitions",
        "wall_s.tail": f"p{pct:.1f} of {n} samples, {beyond} beyond it",
        "peak_rss_mb": "peak resident set of the workload process",
    }
    return metrics, notes


def layers(res):
    from tracing import summarize

    medians, mismatched = summarize(res.layer_reps)
    medians["trace.overhead_s"] = (statistics.median(res.traced_walls)
                                   - statistics.median(res.walls))
    return medians, mismatched


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env.prepare()
    if not env.have_source():
        print(f"error: no rcint sources under {env.SRC}", file=sys.stderr)
        return 2
    with open(env.ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    variant = args.seed % VARIANTS
    gate = Gate(reference[args.workload][str(variant)])
    env.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace = bool(args.trace)

    if args.workload == "cli-defaults":
        res = run_cli(variant, args.seconds, trace, gate, env.OUT)
    else:
        res = run_in_process(args.workload, variant, args.seconds, trace,
                             gate, env.OUT / f"{stem}-lazy-keys.json")

    mismatched = []
    print(f"# environment {json.dumps(env.record(), sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} variant={variant} "
          f"trace={args.trace}")
    if trace:
        from tracing import write_jsonl

        units = metric_units("per_layer")
        figures, mismatched = layers(res)
        suites = sorted(k for k in figures
                        if k.startswith("cli.suite.") and k.endswith(".s"))
        for key in [*units, *LAYER_EXTRA, *suites]:
            print(f"{key:<40} {figures.get(key, 0):.6g}")
        print(f"{'layers.self_sum_s':<40} {figures['layers.self_sum_s']:.6g}"
              f"  (traced median; untraced wall_s "
              f"{statistics.median(res.walls):.6g})")
        metrics = {k: figures.get(k, 0) for k in units}
        write_jsonl(env.OUT / f"{stem}.spans.jsonl", res.spans)
        (env.OUT / f"{stem}.layers.json").write_text(
            json.dumps(figures, indent=1, sort_keys=True))
        for key in mismatched:
            print(f"FAILED repetition self-check: {key} differs between "
                  "repetitions", file=sys.stderr)
    else:
        units = metric_units("end_to_end")
        metrics, notes = end_to_end(res)
        for key, val in metrics.items():
            print(f"{key:<14} {val:.6g} {units[key]:<3} ({notes[key]})")
        (env.OUT / f"{stem}.samples.json").write_text(json.dumps({
            "metrics": metrics, "wall_s": res.walls, "setup_s": res.setups,
            "peak_rss_mb": res.rss_mb, "environment": env.record()}))
    share = gate.failed / max(gate.attempted, 1)
    print(f"{'ops_failed':<14} {share:.6g} share "
          f"({gate.failed} of {gate.attempted} operations)")
    for op_id, why in gate.failures.items():
        print(f"FAILED {op_id}: {why}", file=sys.stderr)

    correct = gate.failed == 0 and not mismatched
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
