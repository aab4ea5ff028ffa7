"""The four benchmark workloads: inputs made from the seed, the op, its checks.

Every op calls the library through module attributes looked up at call
time (`si.run_analysis`, `cli.main`, ...), so the traced run sees the
wrappers that `tracing.instrument` installs.

    sweep     the 200 netgen seeds plus both fixtures through the CLI
              (`influence --method auto --check`); Mason always completes
    scale     `run_analysis(gain_method="solve")` on one synthetic n = 1000
              network: the dense layers, Mason bypassed
    whatif    `perturb_initial` and `flip_edge_signs` alternating on one
              synthetic n = 200 network; half the flips hit sink edges
    fallback  the CLI `influence` with its default `--method auto` on one
              synthetic n = 100 network: Mason runs into its cap, then the
              solve takes over

The networks are fixed: the 200 netgen seeds, and one member of the
synthetic family per size (FAMILY_SEED).  The workload seed draws the
initial opinions, the order of the ops and the what-if targets.  How long
power iteration takes to settle varies several-fold between family
members, so networks drawn from the workload seed would make the
run-to-run spread measure that draw rather than the code.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

import signed_influence as si
from signed_influence import cli
from synth import SynthNetwork, spec_text, synth_network

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = (ROOT / "fixtures" / "reference11.yaml", ROOT / "fixtures" / "showcase17.yaml")
NETGEN_SEEDS = range(200)
FAMILY_SEED = 0
SCALE_N = 1000
WHATIF_N = 200
WHATIF_OPS = 200  # one pass: perturbations and flips alternating
WHATIF_DELTA = 1.3
# Mason's capped attempt costs about the same at any n, the YAML report
# grows as n**2; at n = 100 the wasted attempt is still the largest layer.
FALLBACK_N = 100
WARMUP_N = 60
Z_TOL = 1e-9
CENTRALITY_TOL = 1e-8
CHECK_LINE = "check: prediction matches simulation"
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class Prepared:
    """One workload made ready: a pass of ops and how to run and check one."""

    ops: list
    run: Callable[[Any, str], Any]  # (op, tag) -> output; tag keeps outputs apart
    check: Callable[[Any, Any], str | None]  # (op, output) -> failure or None
    same: Callable[[Any, Any], bool]  # untraced output == traced output


@dataclass(frozen=True)
class CliOutput:
    code: int
    out: str
    err: str
    report: Path | None


def run_cli(argv: list[str], report: Path | None = None) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue(), report)


def load_yaml(path: Path) -> dict:
    with open(path) as fh:
        return yaml.load(fh, Loader=_LOADER)


def update_matrix(n: int, edges, gamma, beta) -> np.ndarray:
    """P = Gamma + (I - Gamma - B) Q, built here independently of the library."""
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i, j] = w
    absrow = np.abs(a).sum(axis=1)
    q = np.eye(n)
    rows = absrow > 0
    q[rows] = a[rows] / absrow[rows, None]
    gamma, beta = np.asarray(gamma), np.asarray(beta)
    return np.diag(gamma) + (1.0 - gamma - beta)[:, None] * q


def fixed_point_error(p: np.ndarray, beta, x0, z) -> float:
    return float(np.max(np.abs(p @ z + np.asarray(beta) * x0 - z)))


def family_member(n: int, seed: int) -> SynthNetwork:
    """The fixed family member of size n, with initial opinions from the seed."""
    x0 = np.random.default_rng(seed).uniform(-10.0, 10.0, size=n)
    return replace(synth_network(n, FAMILY_SEED), x0=x0)


# --- CLI workloads: sweep and fallback -------------------------------------


@dataclass(frozen=True)
class CliOp:
    spec: Path
    x0: np.ndarray
    argv: tuple[str, ...]  # command arguments after the spec path
    want_method: str | None  # required provenance.gain_method, if any


def _cli_prepared(ops: list[CliOp], workdir: Path) -> Prepared:
    def run(op: CliOp, tag: str) -> CliOutput:
        report = workdir / f"report-{tag}.yaml"
        return run_cli(["influence", str(op.spec), *op.argv, "--out", str(report)], report)

    def check(op: CliOp, res: CliOutput) -> str | None:
        if res.code != 0:
            return f"{op.spec.name}: exit {res.code}: {res.err.strip()}"
        if CHECK_LINE not in res.out:
            return f"{op.spec.name}: --check line missing"
        report = load_yaml(res.report)
        theta = np.array(report["individual_influence"]["theta"], dtype=float)
        z = np.array(report["steady_state"]["z"], dtype=float)
        err = float(np.max(np.abs(theta @ op.x0 - z)))
        if not err <= Z_TOL:
            return f"{op.spec.name}: |theta x0 - z| = {err:.3g}"
        used = report["provenance"]["gain_method"]
        if op.want_method is not None and used != op.want_method:
            return f"{op.spec.name}: gain_method {used}, want {op.want_method}"
        return None

    def same(a: CliOutput, b: CliOutput) -> bool:
        return (a.code, a.out) == (b.code, b.out) and not si.diff_reports(
            load_yaml(a.report), load_yaml(b.report))

    return Prepared(ops=ops, run=run, check=check, same=same)


def _fixture_ops(argv, want_method) -> list[CliOp]:
    return [CliOp(f, si.load_spec(str(f)).x0, argv, want_method) for f in FIXTURES]


def _warm_up(prep: Prepared, op) -> None:
    """Run one op untimed; whether it is right is for the timed ops to find."""
    try:
        prep.run(op, "warmup")
    except Exception:  # the same failure is counted when the timed ops hit it
        pass


def prepare_sweep(seed: int, workdir: Path) -> Prepared:
    import netgen  # tests/netgen.py, put on sys.path by run.py

    argv = ("--method", "auto", "--check")
    ops = _fixture_ops(argv, None)
    spec_dir = workdir / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    for s in NETGEN_SEEDS:
        rn = netgen.random_network(s)
        path = spec_dir / f"netgen-{s}.yaml"
        path.write_text(spec_text(rn.net, rn.params, rn.x0))
        ops.append(CliOp(path, rn.x0, argv, None))
    order = np.random.default_rng(seed).permutation(len(ops))
    prep = _cli_prepared([ops[k] for k in order], workdir)
    _warm_up(prep, ops[0])
    return prep


def prepare_fallback(seed: int, workdir: Path) -> Prepared:
    s = family_member(FALLBACK_N, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"synth-{FALLBACK_N}.yaml"
    path.write_text(spec_text(s.net, s.params, s.x0))
    # the default --method auto, so the op pays for Mason before the solve
    prep = _cli_prepared([CliOp(path, s.x0, ("--check",), "solve")], workdir)
    _warm_up(prep, _fixture_ops(("--check",), None)[0])
    return prep


# --- API workloads: scale and whatif ---------------------------------------


def prepare_scale(seed: int, workdir: Path) -> Prepared:
    def run(op: SynthNetwork, tag: str):
        return si.run_analysis(op.net, op.params, op.x0, gain_method="solve")

    def check(op: SynthNetwork, result) -> str | None:
        z = result.steady.z
        err = float(np.max(np.abs(result.influence.theta @ op.x0 - z)))
        if not err <= Z_TOL:
            return f"|theta x0 - z| = {err:.3g}"
        p = update_matrix(op.net.n, op.net.edges, op.params.gamma, op.params.beta)
        err = fixed_point_error(p, op.params.beta, op.x0, z)
        if not err <= Z_TOL:
            return f"fixed point residual {err:.3g}"
        return None

    def same(a, b) -> bool:
        return np.array_equal(a.steady.z, b.steady.z)

    prep = Prepared(ops=[family_member(SCALE_N, seed)], run=run, check=check, same=same)
    # warm up on a small member of the family: same code path, a fraction of the cost
    _warm_up(prep, synth_network(WARMUP_N, seed))
    return prep


@dataclass(frozen=True)
class WhatIfOp:
    kind: str  # "perturb" or "flip"
    agent: int = -1
    edge: tuple[int, int] = (-1, -1)


def prepare_whatif(seed: int, workdir: Path) -> Prepared:
    s = family_member(WHATIF_N, seed)
    net, params, x0 = s.net, s.params, s.x0
    base = si.run_analysis(net, params, x0, gain_method="solve")
    scores = base.centrality.scores

    sink_of = {a: k for k, members in enumerate(s.sinks) for a in members}
    internal = [(i, j) for i, j, _ in net.edges if i in sink_of and sink_of.get(j) == sink_of[i]]
    follower = [(i, j) for i, j, _ in net.edges if i < s.follower_count]
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k in range(WHATIF_OPS):
        if k % 2 == 0:
            ops.append(WhatIfOp("perturb", agent=int(rng.integers(net.n))))
        else:
            pool = internal if k % 4 == 1 else follower
            ops.append(WhatIfOp("flip", edge=pool[int(rng.integers(len(pool)))]))

    def run(op: WhatIfOp, tag):
        if op.kind == "perturb":
            return si.perturb_initial(net, params, x0, op.agent, WHATIF_DELTA)
        return si.flip_edge_signs(net, params, x0, (op.edge,))

    def check(op: WhatIfOp, res) -> str | None:
        if op.kind == "perturb":
            err = abs(res.deviation_per_unit - scores[op.agent])
            if not err <= CENTRALITY_TOL:
                return f"perturb {op.agent}: deviation - centrality = {err:.3g}"
            return None
        flipped = [(i, j, -w if (i, j) == op.edge else w) for i, j, w in net.edges]
        p = update_matrix(net.n, flipped, params.gamma, params.beta)
        err = fixed_point_error(p, params.beta, x0, res.z_flipped)
        if not err <= Z_TOL:
            return f"flip {op.edge}: fixed point residual {err:.3g}"
        return None

    def same(a, b) -> bool:
        changed = "z_perturbed" if isinstance(a, si.PerturbationResult) else "z_flipped"
        return (np.array_equal(a.z_base, b.z_base)
                and np.array_equal(getattr(a, changed), getattr(b, changed)))

    prep = Prepared(ops=ops, run=run, check=check, same=same)
    _warm_up(prep, ops[0])
    return prep


WORKLOADS = {
    "sweep": prepare_sweep,
    "scale": prepare_scale,
    "whatif": prepare_whatif,
    "fallback": prepare_fallback,
}


# --- fixture pass: all six commands on both fixtures ----------------------


def fixture_pass(workdir: Path) -> tuple[dict[str, float], list[str]]:
    """Run every CLI command once per fixture; wall seconds per command."""
    workdir.mkdir(parents=True, exist_ok=True)
    walls: dict[str, float] = {}
    failures = []
    for fixture in FIXTURES:
        f = str(fixture)
        commands = {
            "classify": ["classify", f],
            "simulate": ["simulate", f],
            "influence": ["influence", f, "--check", "--out", str(workdir / "fixture-report.yaml")],
            "centrality": ["centrality", f],
            "whatif": ["whatif", f, "--perturb", "0", "1.0"],
            "export-sfg": ["export-sfg", f, "--reduced", "--dot", str(workdir / "fixture.dot")],
        }
        for name, argv in commands.items():
            t0 = time.perf_counter()
            res = run_cli(argv)
            walls[name] = walls.get(name, 0.0) + time.perf_counter() - t0
            if res.code != 0:
                failures.append(f"{name} {fixture.name}: exit {res.code}: {res.err.strip()}")
    return walls, failures

