"""CheckReport comparison criteria."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcint.reports import CheckReport


class TestCompare:
    @pytest.mark.parametrize("lhs,rhs,criterion,passed", [
        (1.0, 1.0 + 1e-12, "abs", True),
        (1e6, 1e6 * (1 + 1e-12), "rel", True),
        (1.0, 2.0, "none", False),
        # the difference overflows to inf: a failure, not a RuntimeWarning
        (1.7e308, -1.7e308, "none", False),
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

    @pytest.mark.parametrize("lhs,rhs", [
        (np.zeros((3, 1)), np.array([0.0, 1.0, 2.0])),
        (np.zeros(2), np.zeros(3)),
    ])
    def test_array_sides_of_different_shapes_rejected(self, lhs, rhs):
        # broadcasting would compare every pair of components
        with pytest.raises(ValueError, match="sides of shapes"):
            CheckReport.compare("id", "anchor", lhs, rhs, 1e-10)


_SIDES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
_TOLS = st.floats(min_value=1e-300, max_value=1e3)


def _fields(report):
    """A report's fields, with NaN made comparable."""
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v
            for k, v in asdict(report).items()}


class TestJudged:
    @settings(max_examples=300, deadline=None)
    @given(_SIDES, _SIDES, _TOLS, _TOLS)
    def test_rejudging_equals_comparing_at_the_new_tolerance(self, lhs, rhs,
                                                             t1, t2):
        got = CheckReport.compare("id", "anchor", lhs, rhs, t1).judged(t2)
        assert _fields(got) == _fields(
            CheckReport.compare("id", "anchor", lhs, rhs, t2))

    def test_error_report_fails_at_every_tolerance(self):
        error = CheckReport("s/error", "anchor", 0.0, 0.0, 0.0, 0.0, 0.0,
                            False, "error")
        got = error.judged(1.0)
        assert (got.passed, got.criterion, got.tol) == (False, "error", 1.0)
