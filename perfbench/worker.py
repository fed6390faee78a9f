"""Fresh-process steps of the benchmark.

    python3 perfbench/worker.py setup WORKLOAD VARIANT KEYS_JSON
        import rcint, build the workload's models and fill the lazy tables
        listed in KEYS_JSON; print {"setup_s": ...}
    python3 perfbench/worker.py cli VARIANT TRACE SPANS_JSONL
        one `cli-defaults` repetition: `rcint verify` through `cli.main`;
        print its timings, peak RSS and check reports as one JSON line

Each prints a single JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import sys
import time

if __name__ == "__main__":
    t_start = time.perf_counter()  # before rcint or NumPy is imported

import env

#: the `cli-defaults` repetition: every suite whose defaults finish in under
#: a second, then the dense Pfaffian fuzz in dimension 6 with 10 samples;
#: `divergence`, `main-theorem` and `worked-examples` (17 s together) and
#: the default Pfaffian fuzz (dimensions 4 to 8, 100 samples, 2.9 s) do not
#: fit a repetition
CLI_SUITES = ("kronecker", "einstein-pfaffian", "cgb", "gbc", "ambient-ricci",
              "ambient-curvature", "ambient-christoffel", "ambient-laplacian",
              "straightenable", "route-equivalence", "rvol")
CLI_RUNS = (["verify", *CLI_SUITES],
            ["verify", "pfaffian-identities", "--n", "6", "--samples", "10"])


def setup(workload, variant, keys_path):
    from tracing import fill_lazy_tables
    from workloads import IN_PROCESS

    IN_PROCESS[workload](variant)
    with open(keys_path) as fh:
        fill_lazy_tables(json.load(fh))
    return {"setup_s": time.perf_counter() - t_start}


def cli_rep(variant, trace, spans_path):
    import contextlib
    import io
    import resource

    import rcint.cli as cli

    ready = time.monotonic()  # CLOCK_MONOTONIC is system-wide on Linux
    tracer = None
    if trace:
        from tracing import Tracer, write_jsonl
        tracer = Tracer().install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        for argv in CLI_RUNS:
            cli.main(argv + ["--seed", str(variant)])
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        write_jsonl(spans_path, tracer.spans)
    reports = [json.loads(line) for line in buf.getvalue().splitlines()
               if line.startswith("{")]
    return {"ready": ready, "wall_s": wall,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024, "reports": reports}


def _spawn(*args, timeout=150):
    """Run one worker step in a fresh interpreter; returns its JSON line."""
    import subprocess

    cmd = [sys.executable, str(env.ROOT / "perfbench" / "worker.py"),
           *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, cwd=env.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_cli(variant, trace, spans_path):
    """One `cli-defaults` repetition; `setup_s` is the time from spawning
    the interpreter to `import rcint.cli` being done."""
    spawned = time.monotonic()
    out = _spawn("cli", variant, int(trace), spans_path)
    out["setup_s"] = out.pop("ready") - spawned
    return out


def spawn_setup(workload, variant, keys_path):
    return _spawn("setup", workload, variant, keys_path)["setup_s"]


def main(argv):
    env.prepare()
    if argv[0] == "setup":
        out = setup(argv[1], int(argv[2]), argv[3])
    elif argv[0] == "cli":
        out = cli_rep(int(argv[1]), argv[2] == "1", argv[3])
    else:
        raise SystemExit(f"unknown worker step {argv[0]!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
