"""CheckReport comparison criteria."""

import math

import numpy as np
import pytest

from rcint.reports import CheckReport


class TestCompare:
    @pytest.mark.parametrize("lhs,rhs,criterion,passed", [
        (1.0, 1.0 + 1e-12, "abs", True),
        (1e6, 1e6 * (1 + 1e-12), "rel", True),
        (1.0, 2.0, "none", False),
    ])
    def test_finite_sides(self, lhs, rhs, criterion, passed):
        r = CheckReport.compare("id", "anchor", lhs, rhs, 1e-10)
        assert (r.criterion, r.passed) == (criterion, passed)

    @pytest.mark.parametrize("lhs,rhs", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf),
        (-math.inf, 0.0), (np.array([0.0, math.nan]), np.zeros(2)),
        (np.zeros(3), np.array([1.0, math.inf, 0.0])),
    ])
    def test_nonfinite_side_fails_loudly(self, lhs, rhs):
        r = CheckReport.compare("id", "anchor", lhs, rhs, math.inf)
        assert r.criterion == "nonfinite"
        assert not r.passed
