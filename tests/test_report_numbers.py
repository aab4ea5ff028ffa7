"""The report's numbers: rounded once per distinct value, compared leaf by leaf."""

import math
import pathlib
import sys

import numpy as np
import pytest

from signed_influence import run_analysis
from signed_influence.centrality import _num, _nums
from signed_influence.specfile import build_report, diff_reports

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from synth import synth_network  # noqa: E402

EXTREMES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300,
            1e-300, -1e-300, 0.1 + 0.2, 1.0000000000004, 2.5]
ARRAYS = {
    "extremes": np.array([EXTREMES, EXTREMES[::-1]]),
    "zero-signs": np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]),
    "nans": np.array([[math.nan, 1.0, math.nan], [-math.nan, math.nan, 1.0]]),
    "repeats": np.random.default_rng(0).choice(EXTREMES, size=(9, 13)),
    "one-row": np.array([[1e300, 1e300, 1e-300, 1e-300]]),
    "empty-rows": np.zeros((3, 0)),
}


@pytest.mark.parametrize("array", ARRAYS.values(), ids=ARRAYS)
def test_rounding_once_per_value_matches_num_bit_for_bit(array):
    rows = array.tolist()
    got = _nums(rows)
    want = [[_num(x) for x in row] for row in rows]
    assert [list(map(float.hex, row)) for row in got] == [list(map(float.hex, row))
                                                         for row in want]


def test_build_report_rounds_each_distinct_value_once(count_calls):
    # the fallback benchmark's network: Θ is 100 x 100 and mostly zeros
    s = synth_network(100, 0)
    res = run_analysis(s.net, s.params, s.x0, gain_method="solve")
    arrays = [res.steady.z, res.steady.z_o, res.steady.z_s, res.centrality.scores,
              res.collective.c, res.influence.theta]
    rows = [row for a in arrays for row in np.atleast_2d(a).tolist()]
    entries = sum(map(len, rows))
    distinct = len(set().union(*rows))
    assert distinct < entries / 5  # so a per-entry loop cannot pass
    calls = count_calls("_num")
    build_report(res, 1e-10, 100_000)
    assert len(calls) <= distinct + 2  # and the spectral radius and tol


@pytest.mark.parametrize(
    "a,b",
    [(1, 1.0), (True, 1), (False, 0.0), ("true", True), (0.0, -0.0), (1.0, 1.0000000000001),
     (math.nan, 1.0), (1.0, math.inf), ([1.0], {"a": 1.0}), (1.0, [1.0])],
    ids=repr,
)
def test_leaves_written_differently_differ(a, b):
    assert diff_reports({"k": a}, {"k": b}) == [f"/k: {a!r} != {b!r}"]
    assert diff_reports({"k": [b]}, {"k": [a]}) == [f"/k[0]: {b!r} != {a!r}"]


def test_leaves_written_alike_agree():
    a = {"k": [math.nan, 1.0, 0.0, -math.inf, 3, True, "w"], "m": {"x": 1e-300}}
    b = {"k": [float("nan"), 1.0, 0.0, -math.inf, 3, True, "w"], "m": {"x": 1e-300}}
    assert diff_reports(a, b) == []
