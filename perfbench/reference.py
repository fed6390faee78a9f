"""Record the reference values the benchmark's correctness gate compares
against: lhs, rhs and tolerance of every operation of every workload, for
each of the seed variants 0 .. VARIANTS-1.

    python3 perfbench/reference.py

Run it only when a change is meant to alter computed values; a change that
claims only speed must leave perfbench/reference.json as it is.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import env


def record_workload(name, variant):
    import worker
    from workloads import IN_PROCESS

    if name in IN_PROCESS:
        ops = [(asdict(op.report), op.values)
               for op in IN_PROCESS[name](variant).run()]
    else:
        reports = worker.spawn_cli(variant, False, "-")["reports"]
        ops = [(r, {}) for r in reports]
    out = {}
    for rep, values in ops:
        entry = {"lhs": rep["lhs"], "rhs": rep["rhs"], "tol": rep["tol"]}
        if values:
            entry["values"] = values
        if not rep["passed"]:
            raise SystemExit(f"{name} variant {variant}: {rep['check_id']} "
                             f"fails: {rep}")
        out[rep["check_id"]] = entry
    return out


def main():
    env.prepare()
    from run import VARIANTS, WORKLOADS

    doc = {name: {str(v): record_workload(name, v) for v in range(VARIANTS)}
           for name in WORKLOADS}
    (env.ROOT / "perfbench" / "reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
