"""Command-line surface: commands, formats, exit codes, round-trips."""

import contextlib
import copy
import csv
import dataclasses
import functools
import io
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import signed_influence
from conftest import ZOO17, REF11
from signed_influence import cli
from signed_influence.cli import main
from signed_influence.specfile import diff_reports

REF11_PATH = str(REF11)
ZOO17_PATH = str(ZOO17)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _write_spec(tmp_path, name="net.yaml", **overrides):
    doc = {
        "schema": "signed-influence/1",
        "n": 2,
        "edges": [[0, 1, 1.0]],
        "gamma": [0.3, 0.4],
        "beta": [0.1, 0.0],
        "x0": [1.0, -2.0],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _scaled_ref11(tmp_path, scale):
    doc = yaml.safe_load(pathlib.Path(REF11_PATH).read_text())
    doc["x0"] = [v * scale for v in doc["x0"]]
    path = tmp_path / "scaled.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestClassifyCommand:
    def test_reference_network(self, capsys):
        assert main(["classify", REF11_PATH]) == 0
        out = capsys.readouterr().out
        assert "S_n = {S_1, S_3}" in out
        assert "V_S  (stubborn)           = {1, 6}" in out
        assert "semi-convergent" in out

    def test_single_agent(self, tmp_path, capsys):
        path = _write_spec(
            tmp_path, n=1, edges=[], gamma=[0.5], beta=[0.0], x0=[2.0]
        )
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "V_o1 (singleton leaders)  = {0}" in out
        assert "V_F  (followers)          = {}" in out

    def test_constraint_violation_exits_2(self, tmp_path, capsys):
        path = _write_spec(tmp_path, gamma=[0.8, 0.4], beta=[0.3, 0.0])
        assert main(["classify", path]) == 2
        assert "gamma+beta" in capsys.readouterr().err

    def test_gamma_beta_rule_names_listening_agents(self, tmp_path, capsys):
        # agent 1 is in the cooperative sink {1, 2}, and it listens to agent 2
        path = _write_spec(tmp_path, n=3, edges=[[0, 1, 1.0], [1, 2, 1.0], [2, 1, 1.0]],
                           gamma=[0.2, 1.0, 0.5], beta=[0.0, 0.0, 0.0], x0=[1.0, 2.0, 3.0])
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "agent 1: gamma+beta=1.0 must be < 1 at an agent that listens to others" in err
        assert "off sinks" not in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["classify", "/nonexistent.yaml"]) == 2

    @pytest.mark.parametrize("edge", ["[0, 1.0, 1.0]", '[0, "1", 1.0]', "[0.0, 1, 1.0]"],
                             ids=["float-id", "string-id", "float-source-id"])
    def test_id_that_is_not_an_integer_exits_2(self, tmp_path, capsys, edge):
        path = tmp_path / "bad.yaml"
        path.write_text(f"schema: signed-influence/1\nn: 2\nedges: [{edge}]\n"
                        "gamma: [0.3, 0.4]\nbeta: [0.1, 0.0]\nx0: [1.0, 2.0]\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: edge [") and err.endswith(": agent ids must be integers\n")

    @pytest.mark.parametrize(
        "text",
        [
            "schema: wrong\n",
            "schema: signed-influence/1\nn: true\n",
            "schema: signed-influence/1\nn: 2\nedges: [[0, 1, 1.0]]\n"
            "gamma: [0.3, 0.4]\nbeta: [0.1, 0.0]\nx0: [.nan, 1.0]\n",
            "schema: signed-influence/1\nn: 2\nedges: [[0, 1, 1.0]]\n"
            f"gamma: [0.3, 0.4]\nbeta: [0.1, 0.0]\nx0: [1{'0' * 400}, 1.0]\n",
            "schema: signed-influence/1\nn: 2\nedges: [[0, 1, true]]\n"
            "gamma: [0.3, 0.4]\nbeta: [0.1, 0.0]\nx0: [1.0, 2.0]\n",
            "schema: signed-influence/1\nn: 2\nedges: [[0, 1, \"2.5\"]]\n"
            "gamma: [0.3, 0.4]\nbeta: [0.1, 0.0]\nx0: [1.0, 2.0]\n",
            "schema: signed-influence/1\nn: 2\nedges: [[true, 0, 1.5]]\n"
            "gamma: [0.3, 0.4]\nbeta: [0.0, 0.1]\nx0: [1.0, 2.0]\n",
            "n: [1",
            b"\xff\xfe\xfa",
        ],
        ids=["wrong-schema", "bool-n", "nan-x0", "huge-int-x0",
             "bool-weight", "string-weight", "bool-id", "unparsable-yaml", "not-utf8"],
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["x0: " + "[" * 40_000 + "]" * 40_000 + "\n",
                                      "- " * 60_000 + "1\n"], ids=["flow", "block"])
    def test_deeply_nested_spec_exits_2(self, tmp_path, text):
        # libyaml's composer would recurse once per level and crash the interpreter
        path = tmp_path / "deep.yaml"
        path.write_text(text)
        src = pathlib.Path(signed_influence.__file__).resolve().parent.parent
        run = subprocess.run([sys.executable, "-m", "signed_influence.cli", "classify", str(path)],
                             env=dict(os.environ, PYTHONPATH=str(src)),
                             capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr == f"error: {path} nests collections more than 64 levels deep\n"

    def test_nesting_limit_is_64_levels(self, tmp_path, capsys):
        # x0 sits one level inside the top mapping
        for depth, message in ((63, "x0 must be a list of length n"),
                               (64, "nests collections more than 64 levels deep")):
            path = _write_spec(tmp_path, x0=functools.reduce(lambda x, _: [x], range(depth), 1.0))
            assert main(["classify", path]) == 2
            assert message in capsys.readouterr().err


class TestInvalidArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["influence", REF11_PATH, "--out"],
            ["simulate", REF11_PATH, "--csv"],
            ["export-sfg", REF11_PATH, "--dot"],
        ],
        ids=["influence-out", "simulate-csv", "export-sfg-dot"],
    )
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, argv):
        target = str(tmp_path / "missing-dir" / "out.txt")
        assert main(argv + [target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", REF11_PATH, "--tol", "nan"], "--tol"),
            (["simulate", REF11_PATH, "--max-iters", "-3"], "--max-iters"),
            (["influence", REF11_PATH, "--check", "--tol", "-1"], "--tol"),
            (["whatif", REF11_PATH, "--perturb", "6", "abc"], "--perturb"),
            (["whatif", REF11_PATH, "--perturb", "6", "0x10"], "--perturb"),
        ],
        ids=[
            "simulate-tol-nan",
            "simulate-max-iters-negative",
            "influence-tol-negative",
            "whatif-perturb-word",
            "whatif-perturb-hex",
        ],
    )
    def test_invalid_number_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err


_REF11_DOC = yaml.safe_load(pathlib.Path(REF11_PATH).read_text())
_JUNK = st.sampled_from([
    None, True, False, 0, -1, 2**70, -(2**70), 0.5, -0.0,
    float("nan"), float("inf"), float("-inf"), "1", "", [], {}, [0, 1],
])
_COMMANDS = (
    ["classify"], ["simulate"], ["influence"], ["centrality"],
    ["whatif", "--perturb", "1", "0.5"], ["export-sfg"],
)


@st.composite
def _mutated_ref11(draw):
    """reference11's spec with one to three fields dropped, replaced, cut short
    or given a bad entry; a bad edge is junk, short, long, a self edge, out of
    range or a duplicate."""
    doc = copy.deepcopy(_REF11_DOC)
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(sorted(_REF11_DOC)))
        value = doc.get(field)
        how = draw(st.sampled_from(("drop", "replace", "shorten", "entry")))
        if how == "drop":
            doc.pop(field, None)
        elif how == "replace" or not isinstance(value, list) or not value:
            doc[field] = draw(_JUNK)
        elif how == "shorten":
            doc[field] = value[: draw(st.integers(0, len(value) - 1))]
        else:
            k = draw(st.integers(0, len(value) - 1))
            bad = _JUNK
            if field == "edges":
                ints = st.integers(-1, 12)
                bad = st.one_of(_JUNK, st.just(list(value[k - 1])), st.lists(
                    st.one_of(ints, ints.map(float), _JUNK), min_size=0, max_size=4))
            value[k] = draw(bad)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=_mutated_ref11())
def test_mutated_specs_exit_cleanly(tmp_path_factory, doc):
    # every command either runs or names the fault in one line; none raises
    path = tmp_path_factory.mktemp("fuzz") / "spec.yaml"
    path.write_text(yaml.safe_dump(doc))
    for command in _COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path)] + command[1:])
        assert code in (0, 2, 3, 4), (command, code)
        if code:
            assert err.getvalue().count("\n") == 1, (command, err.getvalue())


@functools.cache
def _packages_loaded_by_import():
    """Top-level names in sys.modules after a fresh interpreter imports the library."""
    src = pathlib.Path(signed_influence.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, signed_influence, signed_influence.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.split()


def test_import_loads_no_scipy():
    # scipy.sparse.csgraph alone would add ~27 MB of resident memory
    assert "scipy" not in _packages_loaded_by_import()


def test_import_loads_no_networkx():
    # networkx is a test oracle only: importing it takes ~0.2 s and ~19 MB
    assert "networkx" not in _packages_loaded_by_import()


class TestSimulateCommand:
    def test_reference_final_value(self, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        assert main(["simulate", REF11_PATH, "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        final = [float(v) for v in out.splitlines()[-1].split()[2:]]
        assert final[0] == pytest.approx(5.15, abs=0.05)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k"] + [f"x_{i}" for i in range(11)]
        assert [float(v) for v in rows[1][1:]] == pytest.approx(
            [8.0, 9.0, 6.0, 5.0, 7.0, 3.0, 6.5, -10.0, 7.0, 0.3, 2.5]
        )

    def test_max_iters_zero_keeps_partial_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        code = main(
            ["simulate", REF11_PATH, "--max-iters", "0", "--csv", str(csv_path)]
        )
        assert code == 3  # cap reached before convergence
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + x(0) only
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["influence", REF11_PATH, "--check"],
        ["simulate", REF11_PATH],
        ["simulate", REF11_PATH, "--csv"],
    ], ids=["influence-check", "simulate", "simulate-csv"])
    def test_iterates_kept_only_for_the_csv(self, tmp_path, monkeypatch, capsys, argv):
        logs = []

        def spy(*args, **kwargs):
            logs.append(signed_influence.simulate(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr(cli, "simulate", spy)
        with_csv = argv[-1] == "--csv"
        assert main(argv + [str(tmp_path / "t.csv")] * with_csv) == 0
        capsys.readouterr()
        (log,) = logs
        assert log.iterations > 1
        assert len(log.xs) <= 2  # --csv streams the iterates to the file instead

    def test_csv_memory_does_not_grow_with_iterations(self, tmp_path, capsys):
        # a slow chain: 0.995 self-belief never settles to 1e-10 within the cap
        n = 100
        spec = _write_spec(
            tmp_path, n=n, edges=[[i, i + 1, 1.0] for i in range(n - 1)],
            gamma=[0.995] * n, beta=[0.0] * n, x0=[float(i % 7) for i in range(n)],
        )
        peaks = []
        for iters in (200, 2000):
            csv_path = tmp_path / f"traj-{iters}.csv"
            tracemalloc.start()
            try:
                code = main(["simulate", spec, "--max-iters", str(iters), "--csv", str(csv_path)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 3
            assert len(csv_path.read_text().splitlines()) == iters + 2
        capsys.readouterr()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_tolerance_sweep_finals_agree(self, capsys):
        finals = []
        for tol in ("1e-6", "1e-12"):
            assert main(["simulate", REF11_PATH, "--tol", tol]) == 0
            out = capsys.readouterr().out
            finals.append([float(v) for v in out.splitlines()[-1].split()[2:]])
        assert np.allclose(finals[0], finals[1], atol=1e-5)


class TestInfluenceCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "report.yaml"
        assert main(["influence", REF11_PATH, "--out", str(out)]) == 0
        report = yaml.safe_load(out.read_text())
        assert report["schema"] == "signed-influence/report/1"
        c = np.array(report["collective_influence"]["c"])
        assert np.allclose(c[0], [0.02, 0.12, 0.04, 0.5, 0.32], atol=1e-9)
        assert report["provenance"]["gain_method"] == "mason"  # auto, under cap

    def test_exponent_without_decimal_point_is_a_number(self, tmp_path, capsys):
        # YAML 1.1 reads 1e300 as a string; the spec reads it as YAML 1.2 does
        spec = (
            "schema: signed-influence/1\nn: 3\n"
            "edges: [[0, 1, {big}], [0, 2, {small}], [1, 2, {neg}], [2, 1, 1]]\n"
            "gamma: [0.3, 0.2, 0.1]\nbeta: [0.1, 0.0, 0.0]\nx0: [{neg}, {small}, {big}]\n"
        )
        reports = []
        for name, numbers in (("bare", ("1e300", "2E-3", "-5e2")),
                              ("dotted", ("1.0e+300", "2.0e-3", "-5.0e+2"))):
            path = tmp_path / f"{name}.yaml"
            path.write_text(spec.format(**dict(zip(("big", "small", "neg"), numbers))))
            assert main(["influence", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_mantissa_starting_with_a_point_is_a_number(self, tmp_path, capsys):
        # YAML 1.1 reads .5e3, -.25E-1 and -.5 as strings; the spec reads them as YAML 1.2 does
        spec = (
            "schema: signed-influence/1\nn: 3\n"
            "edges: [[0, 1, {big}], [0, 2, {small}], [1, 2, {half}], [2, 1, 1]]\n"
            "gamma: [0.3, 0.2, 0.1]\nbeta: [0.1, 0.0, 0.0]\nx0: [{half}, {small}, {big}]\n"
        )
        reports = []
        for name, numbers in (("point", (".5e3", "-.25E-1", "-.5")),
                              ("plain", ("500.0", "-0.025", "-0.5"))):
            path = tmp_path / f"{name}.yaml"
            path.write_text(spec.format(**dict(zip(("big", "small", "half"), numbers))))
            assert main(["influence", str(path)]) == 0, capsys.readouterr().err
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_special_floats_still_resolve(self):
        loader = signed_influence.specfile._Loader
        doc = yaml.load("[.inf, -.inf, +.inf, .nan, .5, ._e3]", Loader=loader)
        assert doc[:3] == [np.inf, -np.inf, np.inf] and np.isnan(doc[3])
        assert doc[4:] == [0.5, "._e3"]

    @pytest.mark.parametrize("method", ["auto", "solve"])
    @pytest.mark.parametrize("path", [REF11_PATH, ZOO17_PATH], ids=["reference11", "showcase17"])
    def test_reproduces_golden_report(self, tmp_path, path, method):
        # tests/golden holds the reports as committed; any drift in the output shows here
        out = tmp_path / "report.yaml"
        assert main(["influence", path, "--method", method, "--out", str(out)]) == 0
        golden = GOLDEN / f"{pathlib.Path(path).stem}-{method}.yaml"
        assert out.read_bytes() == golden.read_bytes()

    def test_round_trip_diff_is_empty(self, tmp_path):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        assert main(["influence", REF11_PATH, "--out", str(a)]) == 0
        assert main(["influence", REF11_PATH, "--out", str(b)]) == 0
        ra = yaml.safe_load(a.read_text())
        rb = yaml.safe_load(b.read_text())
        assert diff_reports(ra, rb) == []

    def test_report_prints_no_signed_zeros(self, ref11):
        res = signed_influence.run_analysis(ref11.net, ref11.params, ref11.x0, "solve")
        z_o = np.full(11, -0.0)
        res = dataclasses.replace(res, steady=dataclasses.replace(res.steady, z_o=z_o))
        text = signed_influence.dump_report(signed_influence.build_report(res, 1e-10, 10))
        line = next(row for row in text.splitlines() if row.lstrip().startswith("z_o:"))
        assert line.split(":", 1)[1].split() == ["[0.0,"] + ["0.0,"] * 9 + ["0.0]"]
        assert re.search(r"-0\.0(?![0-9])", text) is None

    def test_unreadable_report_is_one_line(self, tmp_path):
        path = tmp_path / "report.yaml"
        for content in (b"\xff\xfe\xfa", b"schema: [1"):
            path.write_bytes(content)
            with pytest.raises(signed_influence.SpecFileError) as exc:
                signed_influence.load_report(str(path))
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("path", [REF11_PATH, ZOO17_PATH], ids=["reference11", "showcase17"])
    def test_mason_and_solve_agree(self, tmp_path, path):
        reports = {}
        for method in ("mason", "solve"):
            out = tmp_path / f"{method}.yaml"
            assert main(["influence", path, "--method", method, "--out", str(out)]) == 0
            reports[method] = yaml.safe_load(out.read_text())
        tm = np.array(reports["mason"]["individual_influence"]["theta"])
        ts = np.array(reports["solve"]["individual_influence"]["theta"])
        assert np.max(np.abs(tm - ts)) < 1e-9

    def test_check_passes(self, tmp_path, capsys):
        out = tmp_path / "r.yaml"
        assert main(["influence", REF11_PATH, "--check", "--out", str(out)]) == 0
        assert "check: prediction matches simulation" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e12])
    def test_check_bound_scales_with_x0(self, tmp_path, capsys, scale):
        # the bound is 1e-6 + 1e-12 * max|x0|: rounding at large opinions is no mismatch
        path = _scaled_ref11(tmp_path, scale)
        out = str(tmp_path / "r.yaml")
        assert main(["influence", path, "--check", "--out", out]) == 0
        assert main(["influence", path, "--check", "--out", out, "--max-iters", "1"]) == 3

    def test_mason_cap_exits_4_and_auto_falls_back(self, tmp_path, capsys):
        # a dense follower web has far too many loops for enumeration
        n = 9
        edges = [[i, j, 1.0] for i in range(8) for j in range(8) if i != j]
        edges.append([0, 8, 1.0])
        path = _write_spec(
            tmp_path,
            n=n,
            edges=edges,
            gamma=[0.1] * 8 + [0.5],
            beta=[0.0] * n,
            x0=[1.0] * n,
        )
        assert main(["influence", path, "--method", "mason"]) == 4
        capsys.readouterr()
        out = tmp_path / "r.yaml"
        assert main(["influence", path, "--method", "auto", "--out", str(out)]) == 0
        report = yaml.safe_load(out.read_text())
        assert report["provenance"]["gain_method"] == "solve"

    def test_zero_mason_determinant_exits_3_and_auto_falls_back(self, tmp_path, capsys):
        # three followers' self-loops of gain 0.999999 make Mason's Δ cancel to 0
        path = _write_spec(
            tmp_path,
            n=5,
            edges=[[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 3, 1.0]],
            gamma=[0.999999] * 3 + [0.5, 0.5],
            beta=[0.0] * 5,
            x0=[0.0, 0.0, 0.0, 1.0, 3.0],
        )
        assert main(["influence", path, "--method", "mason"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        out = tmp_path / "r.yaml"
        assert main(["influence", path, "--method", "auto", "--out", str(out)]) == 0
        report = yaml.safe_load(out.read_text())
        assert report["provenance"]["gain_method"] == "solve"
        assert np.allclose(report["collective_influence"]["c"], [[1.0]] * 3, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("gamma", [0.999, 0.9999, 0.99999])
    def test_mason_cancellation_exits_3_and_auto_solves(self, tmp_path, capsys, gamma):
        # followers' self-loops near 1: Δ and the cofactors lose their digits
        x0 = [0.0, 0.0, 0.0, 1.0, 3.0]
        path = _write_spec(
            tmp_path,
            n=5,
            edges=[[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 3, 1.0]],
            gamma=[gamma] * 3 + [0.5, 0.5],
            beta=[0.0] * 5,
            x0=x0,
        )
        assert main(["influence", path, "--method", "mason"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        spec = signed_influence.load_spec(path)
        res = signed_influence.run_analysis(spec.net, spec.params, spec.x0, gain_method="auto")
        assert res.gain_method_used == "solve"
        assert np.max(np.abs(res.influence.theta @ np.array(x0) - res.steady.z)) <= 1e-12


class TestCentralityCommand:
    def test_reference_ranking(self, capsys):
        assert main(["centrality", REF11_PATH]) == 0
        out = capsys.readouterr().out
        assert "most_influential: 6" in out
        scores = [float(v) for v in out.splitlines()[0].split()[1:]]
        assert scores[5] == pytest.approx(3.92, abs=1e-6)

    def test_tied_symmetric_leaders(self, tmp_path, capsys):
        # two identical singleton leaders feeding one follower equally
        path = _write_spec(
            tmp_path,
            n=3,
            edges=[[0, 1, 1.0], [0, 2, 1.0]],
            gamma=[0.2, 0.5, 0.5],
            beta=[0.0, 0.0, 0.0],
            x0=[0.0, 1.0, -1.0],
        )
        assert main(["centrality", path]) == 0
        out = capsys.readouterr().out
        assert "ranking: 1 2 0" in out  # tie between leaders broken by id


class TestWhatifCommand:
    def test_sign_flip_experiment(self, capsys):
        code = main(
            ["whatif", REF11_PATH, "--flip-edge", "1", "6", "--flip-edge", "2", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        dev = float(out.splitlines()[1].split()[-1])
        assert dev == pytest.approx(0.15, abs=0.01)
        assert "unchanged:" in out

    def test_perturbation(self, capsys):
        assert main(["whatif", REF11_PATH, "--perturb", "6", "1.0"]) == 0
        out = capsys.readouterr().out
        dev = float(out.splitlines()[1].split()[-1])
        assert dev == pytest.approx(3.92, abs=0.01)

    def test_zero_score_agent(self, capsys):
        assert main(["whatif", REF11_PATH, "--perturb", "2", "1.0"]) == 0
        dev = float(capsys.readouterr().out.splitlines()[1].split()[-1])
        assert dev == 0.0

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["whatif", REF11_PATH]) == 2
        capsys.readouterr()
        assert (
            main(
                ["whatif", REF11_PATH, "--perturb", "1", "1.0", "--flip-edge", "1", "6"]
            )
            == 2
        )

    def test_zero_delta_exits_2(self, capsys):
        assert main(["whatif", REF11_PATH, "--perturb", "1", "0.0"]) == 2

    def test_delta_lost_against_x0_exits_2(self, tmp_path, capsys):
        # 8e17 + 1 rounds back to 8e17: no shift happened, so no deviation per unit
        path = _scaled_ref11(tmp_path, 1e17)
        assert main(["whatif", path, "--perturb", "1", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", [["--perturb", "x", "2"], ["--flip-edge", "1", "x"]],
                             ids=["perturb", "flip-edge"])
    def test_token_neither_label_nor_id_exits_2(self, capsys, flag):
        assert main(["whatif", REF11_PATH, *flag]) == 2
        assert capsys.readouterr().err == "error: agent 'x' is neither a label nor an agent id\n"

    def test_repeated_edge_exits_2(self, tmp_path, capsys):
        labelled = _write_spec(tmp_path, labels=["a", "b"])
        unlabelled = _write_spec(tmp_path, "ids.yaml")
        for path, flags, edge in ((REF11_PATH, ["1", "6", "--flip-edge", "1", "6"], "(1, 6)"),
                                  (labelled, ["a", "b", "--flip-edge", "0", "1"], "(a, b)"),
                                  (unlabelled, ["0", "1", "--flip-edge", "0", "1"], "(0, 1)")):
            assert main(["whatif", path, "--flip-edge", *flags]) == 2
            assert capsys.readouterr().err == f"error: duplicate edge {edge}\n"

    def test_missing_edge_exits_2(self, tmp_path, capsys):
        assert main(["whatif", REF11_PATH, "--flip-edge", "5", "1"]) == 2
        assert capsys.readouterr().err == "error: edge (5, 1) does not exist\n"
        assert main(["whatif", _write_spec(tmp_path), "--flip-edge", "1", "0"]) == 2
        assert capsys.readouterr().err == "error: edge (1, 0) does not exist\n"

    def test_labelled_spec_names_edges_by_label(self, tmp_path, capsys):
        path = _write_spec(tmp_path, n=3, edges=[[0, 1, 1.0], [1, 2, -1.0]], labels=["a", "b", "c"],
                           gamma=[0.3, 0.4, 0.2], beta=[0.1, 0.0, 0.0], x0=[1.0, -2.0, 3.0])
        assert main(["whatif", path, "--flip-edge", "a", "b", "--flip-edge", "a", "b"]) == 2
        assert capsys.readouterr().err == "error: duplicate edge (a, b)\n"
        assert main(["whatif", path, "--flip-edge", "b", "a"]) == 2
        assert capsys.readouterr().err == "error: edge (b, a) does not exist\n"
        assert main(["whatif", path, "--flip-edge", "b", "c"]) == 0
        assert capsys.readouterr().out.startswith("flipped: (b, c)\n")

    def test_flip_of_an_underflowed_edge_matches_a_fresh_build(self, tmp_path, capsys):
        # p_02 underflows to zero against row 0's 1e300, so the flip moves nothing
        edges = [(0, 1, 1e300), (0, 2, 1e-300), (1, 3, 1.0), (2, 3, 1.0)]
        gamma, beta, x0 = (0.5, 0.5, 0.5, 0.0), (0.0, 0.2, 0.0, 0.0), [1.0, 2.0, -3.0, 4.0]
        path = _write_spec(tmp_path, n=4, edges=[list(e) for e in edges],
                           gamma=list(gamma), beta=list(beta), x0=x0)
        assert main(["whatif", path, "--flip-edge", "0", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        params = signed_influence.AgentParams(gamma=gamma, beta=beta)
        z = [signed_influence.run_analysis(signed_influence.build_network(4, es), params,
                                           np.array(x0), gain_method="solve").steady.z
             for es in (edges, [(i, j, -w if (i, j) == (0, 2) else w) for i, j, w in edges])]
        want = z[1] - z[0]
        assert out[1] == f"mean_abs_deviation: {np.abs(want).mean():.12g}"
        assert [float(v) for v in out[2].split()[1:]] == pytest.approx(want.tolist(), abs=1e-12)


class TestExportSfgCommand:
    def test_reduced_has_five_sources(self, tmp_path):
        dot = tmp_path / "g.dot"
        assert main(["export-sfg", REF11_PATH, "--reduced", "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert sum(1 for line in text.splitlines() if "source_" in line and "shape=" in line) == 5
        assert 'label="S_3 (+)"' in text
        assert 'label="x6(0)"' in text

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("path", [REF11_PATH, ZOO17_PATH], ids=["reference11", "showcase17"])
    def test_reproduces_golden_dot(self, tmp_path, path, reduced):
        # tests/golden holds the DOT as committed; drift in the graph or its labels shows here
        dot = tmp_path / "g.dot"
        assert main(["export-sfg", path, "--dot", str(dot)] + ["--reduced"] * reduced) == 0
        golden = GOLDEN / f"{pathlib.Path(path).stem}-sfg{'-reduced' * reduced}.dot"
        assert dot.read_bytes() == golden.read_bytes()

    def test_full_has_thirteen_nodes(self, capsys):
        assert main(["export-sfg", REF11_PATH]) == 0
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if "shape=" in line) == 13

    def test_labels_are_escaped(self, tmp_path, capsys):
        path = _write_spec(tmp_path, labels=['a"b', "c\\d"])
        assert main(["export-sfg", path]) == 0
        out = capsys.readouterr().out
        assert 'label="a\\"b"' in out
        assert 'label="xa\\"b(0)"' in out
        assert 'label="leader c\\\\d"' in out

    def test_single_agent_graph(self, tmp_path, capsys):
        path = _write_spec(tmp_path, n=1, edges=[], gamma=[0.5], beta=[0.0], x0=[1.0])
        assert main(["export-sfg", path]) == 0
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if "shape=" in line) == 1
        assert "->" not in out

    def test_degenerate_sink_still_exports_the_reduced_graph(self, tmp_path, capsys):
        # the reduced graph reads the structure alone; the gains need the sink's
        # unit eigenpair, which is not simple at gamma = 1 - 1e-12
        path = _write_spec(tmp_path, edges=[[0, 1, 1.0], [1, 0, 1.0]],
                           gamma=[1 - 1e-12] * 2, beta=[0.0, 0.0])
        assert main(["export-sfg", path, "--reduced"]) == 0
        out = capsys.readouterr().out
        assert 'label="S_1"' in out and "->" not in out
        for command in ("influence", "centrality"):
            assert main([command, path]) == 3
            assert capsys.readouterr().err == "error: unit eigenvalue of sink 0 is not simple\n"


def _analysis(path):
    spec = signed_influence.load_spec(path)
    signed_influence.run_analysis(spec.net, spec.params, spec.x0)


# each route, and whether it reads the sink spectra
_SETUP_ROUTES = {
    "run_analysis": (_analysis, True),
    "influence": (["influence"], True),
    "centrality": (["centrality"], True),
    "whatif-perturb": (["whatif", "--perturb", "0", "1.0"], True),
    "export-sfg-reduced": (["export-sfg", "--reduced"], False),
    "simulate": (["simulate"], False),
    "export-sfg": (["export-sfg"], False),
}


@pytest.mark.parametrize("route", list(_SETUP_ROUTES))
@pytest.mark.parametrize("path", [REF11_PATH, ZOO17_PATH], ids=["reference11", "showcase17"])
def test_one_setup_per_route(path, route, count_calls, capsys):
    # P is built once per run, and the unit eigenpairs are computed once per
    # stubborn-free balanced sink by the routes that read them, never by the others
    run, reads_spectra = _SETUP_ROUTES[route]
    spec = signed_influence.load_spec(path)
    builds, sinks = count_calls("build_matrices"), count_calls("sink_spectrum")
    if callable(run):
        run(path)
    else:
        assert main([run[0], path, *run[1:]]) == 0
    assert len(builds) == 1
    cls = signed_influence.classify(spec.net, spec.params)
    want = sorted(cls.influence_free_sinks) if reads_spectra else []
    assert sorted(args[2] for args in sinks) == want
