"""The report writer: byte-identical to PyYAML's libyaml dump, or a TypeError.

PyYAML's `CSafeDumper` is the oracle here and nowhere in the library.
"""

import copy
import math
import pathlib
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REF11, ZOO17
from netgen import random_network
from signed_influence import run_analysis
from signed_influence.cli import main
from signed_influence.specfile import build_report, dump_report, load_spec

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from synth import synth_network  # noqa: E402

RESERVED = {"yes", "Yes", "YES", "no", "No", "NO", "true", "True", "TRUE", "false", "False",
            "FALSE", "on", "On", "ON", "off", "Off", "OFF", "null", "Null", "NULL"}


def libyaml(doc) -> str:
    return yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=False, default_flow_style=None)


def _report(net, params, x0, method) -> dict:
    return build_report(run_analysis(net, params, x0, gain_method=method), 1e-10, 100_000)


@pytest.mark.parametrize("method", ["mason", "solve"])
@pytest.mark.parametrize("path", [REF11, ZOO17], ids=["reference11", "showcase17"])
def test_fixture_reports_match_libyaml(path, method):
    spec = load_spec(str(path))
    report = _report(spec.net, spec.params, spec.x0, method)
    assert dump_report(report) == libyaml(report)


def test_netgen_reports_match_libyaml():
    differ = []
    for seed in range(200):
        rn = random_network(seed)
        report = _report(rn.net, rn.params, rn.x0, "mason")
        if dump_report(report) != libyaml(report):
            differ.append(seed)
    assert differ == []


@pytest.mark.parametrize("n", [100, 400])
def test_synth_reports_match_libyaml(n):
    s = synth_network(n, 0)
    report = _report(s.net, s.params, s.x0, "solve")
    assert dump_report(report) == libyaml(report)


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan,
                     1e16, -2e22, 1e-5, 0.1]),
    st.floats(),
)
LETTERS = "abcxyzABCXYZ"
WORDS = st.builds(
    str.__add__, st.sampled_from(LETTERS), st.text(LETTERS + "019_/-", max_size=11)
).filter(lambda s: s not in RESERVED)
# long keys push a row's first item past column 80; libyaml's simple keys end at 128
KEYS = WORDS | st.integers(60, 128).map(lambda k: "k" * k)
SCALARS = st.one_of(st.integers(), st.integers(-(2**80), 2**80), st.booleans(), FLOATS, WORDS)
LEAVES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=24),  # wide rows wrap, empty ones are []
    st.lists(FLOATS, max_size=60),  # rows of floats alone, as Θ's are
    st.dictionaries(KEYS, SCALARS, max_size=5),  # flow maps, empty ones are {}
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(report=st.dictionaries(KEYS, VALUES, max_size=6))
def test_report_shaped_dicts_match_libyaml(report):
    assert dump_report(report) == libyaml(report)


ROW = [0.123456789012 * (-1) ** k * (k + 1) for k in range(200)]
LONG_KEY = "k" * 100  # the row opens past column 80


def _with(item, at: int) -> list:
    row = list(ROW)
    row[at] = item
    return row


def _nested(row: list, depth: int) -> dict:
    for _ in range(depth):
        row = {"a": row}
    return row


FLOAT_ROWS = {
    **{f"{item!r}-at-{at}": _with(item, at)
       for item in (1e16, 5e-324, math.inf, math.nan) for at in (0, 100, 199)},
    "long-key-one-item": {LONG_KEY: [0.5]},
    "long-key-many-items": {LONG_KEY: ROW[:30]},
    "long-key-dot-less": {LONG_KEY: [1e16, 0.5, -math.inf]},
    "negative-zeros": [-0.0] * 50,
    "empty": [],
    "long-key-empty": {LONG_KEY: []},
    "float-and-int": [0.5, 1, 0.25] * 20,
    "theta-rows": {"theta": [ROW[:40], [0.0] * 40, _with(-0.0, 3)[:40]]},
    "indent-past-80": _nested(ROW[:10], 45),
    "indent-past-80-dot-less": _nested([math.inf, 0.5, 1e16, 2.5], 45),
}


@pytest.mark.parametrize("row", FLOAT_ROWS.values(), ids=FLOAT_ROWS)
def test_float_rows_match_libyaml(row):
    # each place gets its own copy: the writer refuses a shared one
    report = {"row": row, "nested": {"in_map": copy.deepcopy(row)},
              "in_list": [copy.deepcopy(row), ROW[:3]]}
    assert dump_report(report) == libyaml(report)


@pytest.mark.parametrize(
    "value",
    [np.float64(1.0), np.int64(1), (1, 2), None, "yes", "1.0", "a b", "", "S:1"],
    ids=repr,
)
def test_values_outside_the_schema_are_refused(value):
    for report in ({"k": value}, {"k": [value]}, {"k": [[value]]}):
        with pytest.raises(TypeError):
            dump_report(report)


def test_keys_and_shared_collections_outside_the_schema_are_refused():
    shared = [1.0]
    for report in ({"k" * 129: 1}, {1: 1}, {"no": 1}, {"a": shared, "b": shared}, [1]):
        with pytest.raises(TypeError):
            dump_report(report)


@pytest.mark.parametrize("path", [REF11, ZOO17], ids=["reference11", "showcase17"])
def test_influence_writes_reports_without_pyyaml_dumping(tmp_path, monkeypatch, path):
    def refuse(*args, **kwargs):
        raise AssertionError("the report went through PyYAML's dumper")

    monkeypatch.setattr(yaml, "dump", refuse)
    monkeypatch.setattr(yaml, "dump_all", refuse)
    monkeypatch.setattr(yaml.representer.BaseRepresenter, "represent", refuse)
    out = tmp_path / "report.yaml"
    assert main(["influence", str(path), "--out", str(out)]) == 0
    monkeypatch.undo()
    text = out.read_text()
    assert text == libyaml(yaml.safe_load(text))
