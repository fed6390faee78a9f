"""Uniform pass/fail reporting for numerical identity checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np


@dataclass
class CheckReport:
    """Result of comparing two numerically computed sides of an identity."""

    check_id: str
    anchor: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    criterion: str  # "abs" or "rel" if it passed, else "none" or "nonfinite"
    wall_time: float = 0.0

    @classmethod
    def compare(cls, check_id, anchor, lhs, rhs, tol, wall_time=0.0):
        """Build a report from two sides; arrays are reduced by max-norm.

        For array inputs lhs/rhs record the max-norm of each side and the
        residual is the componentwise max error.  A side holding NaN or inf
        fails with criterion "nonfinite", whatever the tolerance.
        """
        a = np.asarray(lhs, dtype=np.float64)
        b = np.asarray(rhs, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # inf - inf; failed below
            abs_err = float(np.abs(a - b).max(initial=0.0))
        scale = max(float(np.abs(a).max(initial=0.0)),
                    float(np.abs(b).max(initial=0.0)))
        rel_err = abs_err / scale if scale > 0 else 0.0
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            passed, criterion = False, "nonfinite"
        elif abs_err <= tol:
            passed, criterion = True, "abs"
        elif rel_err <= tol:
            passed, criterion = True, "rel"
        else:
            passed, criterion = False, "none"
        return cls(check_id=check_id, anchor=anchor,
                   lhs=float(np.abs(a).max(initial=0.0)) if a.ndim else float(a),
                   rhs=float(np.abs(b).max(initial=0.0)) if b.ndim else float(b),
                   abs_err=abs_err, rel_err=rel_err, tol=tol,
                   passed=passed, criterion=criterion, wall_time=wall_time)

    def to_json(self, include_wall_time=True):
        d = asdict(self)
        if not include_wall_time:
            d.pop("wall_time")
        return json.dumps(d, sort_keys=True)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.check_id} ({self.anchor}): "
                f"lhs={self.lhs:.12g} rhs={self.rhs:.12g} "
                f"abs={self.abs_err:.3e} rel={self.rel_err:.3e} tol={self.tol:g}")
