"""Uniform pass/fail reporting for numerical identity checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace

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
    criterion: str  # "abs"/"rel" if passed, else "none"/"nonfinite"/"error"

    @classmethod
    def compare(cls, check_id, anchor, lhs, rhs, tol):
        """Build a report from two sides; arrays are reduced by max-norm.

        For array inputs lhs/rhs record the max-norm of each side and the
        residual is the componentwise max error.  Two array sides must have
        one shape; a number compares with every component.  A side holding
        NaN or inf fails with criterion "nonfinite", whatever the tolerance.
        """
        a = np.asarray(lhs, dtype=np.float64)
        b = np.asarray(rhs, dtype=np.float64)
        if a.ndim and b.ndim and a.shape != b.shape:
            raise ValueError(f"{check_id}: sides of shapes {a.shape} and "
                             f"{b.shape}")
        # inf - inf is NaN, and finite sides far apart overflow to inf;
        # both fail below
        with np.errstate(invalid="ignore", over="ignore"):
            abs_err = float(np.abs(a - b).max(initial=0.0))
        scale = max(float(np.abs(a).max(initial=0.0)),
                    float(np.abs(b).max(initial=0.0)))
        rel_err = abs_err / scale if scale > 0 else 0.0
        finite = np.isfinite(a).all() and np.isfinite(b).all()
        return cls(check_id=check_id, anchor=anchor,
                   lhs=float(np.abs(a).max(initial=0.0)) if a.ndim else float(a),
                   rhs=float(np.abs(b).max(initial=0.0)) if b.ndim else float(b),
                   abs_err=abs_err, rel_err=rel_err, tol=tol,
                   passed=False,
                   criterion="none" if finite else "nonfinite").judged(tol)

    def judged(self, tol):
        """This report re-judged at `tol` from its stored errors.  A
        "nonfinite" or "error" report fails at every tolerance."""
        if self.criterion in ("nonfinite", "error"):
            return replace(self, tol=tol)
        criterion = ("abs" if self.abs_err <= tol else
                     "rel" if self.rel_err <= tol else "none")
        return replace(self, tol=tol, passed=criterion != "none",
                       criterion=criterion)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.check_id} ({self.anchor}): "
                f"lhs={self.lhs:.12g} rhs={self.rhs:.12g} "
                f"abs={self.abs_err:.3e} rel={self.rel_err:.3e} tol={self.tol:g}")
