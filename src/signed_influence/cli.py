"""Command-line interface.

Subcommands: classify, simulate, influence, centrality, whatif, export-sfg.
Exit codes: 0 success, 2 input validation failure, 3 internal consistency
failure (check mismatch, iteration cap, singular solve, zero Mason
determinant), 4 enumeration complexity cap hit with no fallback permitted.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .centrality import flip_edge_signs, perturb_initial
from .dynamics import prepare, simulate
from .errors import (
    ComplexityCapExceededError,
    DuplicateEdgeError,
    NetworkValidationError,
    NoSuchEdgeError,
    NotWeaklyConnectedError,
    ParamConstraintViolatedError,
    SignedInfluenceError,
    SpecFileError,
    ZeroDeltaError,
)
from .graph import classify
from .pipeline import run_analysis
from .sfg import build_full_sfg, reduce_sfg
from .specfile import (
    NetworkSpec,
    build_report,
    dump_report,
    export_dot,
    load_spec,
    trajectory_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSISTENCY = 3
EXIT_COMPLEXITY = 4


def _fmt_set(ids, spec: NetworkSpec) -> str:
    return "{" + ", ".join(spec.label_of(i) for i in sorted(ids)) + "}"


def cmd_classify(args) -> int:
    spec = load_spec(args.file)
    cls = classify(spec.net, spec.params)
    print(f"V_F  (followers)          = {_fmt_set(cls.followers, spec)}")
    print(f"V_o1 (singleton leaders)  = {_fmt_set(cls.singleton_leaders, spec)}")
    print(f"V_o2 (group leaders)      = {_fmt_set(cls.group_leaders, spec)}")
    print(f"V_S  (stubborn)           = {_fmt_set(cls.stubborn, spec)}")
    for idx, members in enumerate(cls.sinks):
        tag = "stubborn-free" if not cls.sink_has_stubborn(idx) else "has stubborn"
        print(
            f"S_{idx + 1}: members {_fmt_set(members, spec)}"
            f" kind={cls.sink_kind[idx].value} ({tag})"
        )
    sn = ", ".join(f"S_{s + 1}" for s in sorted(cls.influence_free_sinks))
    print(f"S_n = {{{sn}}}")
    print(f"convergence: {cls.convergence}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = load_spec(args.file)
    matrices = prepare(spec.net, spec.params).matrices
    # --csv streams each iterate to the file as it is computed
    table = trajectory_csv(args.csv, spec.net.n) if args.csv else contextlib.nullcontext()
    with table as row:
        log = simulate(matrices, spec.x0, tol=args.tol, max_iters=args.max_iters, on_iterate=row)
    final = log.xs[-1]
    print(f"iterations: {log.iterations}  residual: {log.residual:.6g}")
    print("final x:", " ".join(f"{v:.12g}" for v in final))
    if not log.converged:
        print("error: iteration cap reached before the residual dropped below tol",
              file=sys.stderr)
        return EXIT_CONSISTENCY
    return EXIT_OK


def cmd_influence(args) -> int:
    spec = load_spec(args.file)
    result = run_analysis(spec.net, spec.params, spec.x0, gain_method=args.method)
    report = build_report(result, tol=args.tol, max_iters=args.max_iters)
    text = dump_report(report, args.out)
    if args.out is None:
        sys.stdout.write(text)
    if args.check:
        log = simulate(result.model.matrices, spec.x0, tol=args.tol, max_iters=args.max_iters)
        predicted = result.influence.theta @ spec.x0
        mismatch = float(np.max(np.abs(predicted - log.xs[-1])))
        # absolute at unit scale, relative to the opinions' scale beyond it
        if not log.converged or mismatch > 1e-6 + 1e-12 * np.max(np.abs(spec.x0)):
            print(
                f"error: influence-matrix prediction disagrees with simulation "
                f"(max |diff| = {mismatch:.3g}, converged={log.converged})",
                file=sys.stderr,
            )
            return EXIT_CONSISTENCY
        print(f"check: prediction matches simulation (max |diff| = {mismatch:.3g})")
    return EXIT_OK


def cmd_centrality(args) -> int:
    spec = load_spec(args.file)
    result = run_analysis(spec.net, spec.params, spec.x0, gain_method="solve")
    cen = result.centrality
    print("scores:", " ".join(f"{v:.12g}" for v in cen.scores))
    print("ranking:", " ".join(spec.label_of(i) for i in cen.ranking))
    print(f"most_influential: {spec.label_of(cen.most_influential)}")
    return EXIT_OK


def cmd_whatif(args) -> int:
    spec = load_spec(args.file)
    if bool(args.flip_edge) == (args.perturb is not None):
        raise SpecFileError("whatif needs exactly one of --flip-edge or --perturb")
    if args.perturb is not None:
        agent = spec.resolve_agent(args.perturb[0])
        delta = args.perturb[1]
        res = perturb_initial(spec.net, spec.params, spec.x0, agent, delta)
        print(f"agent: {spec.label_of(agent)}  delta: {delta:.12g}")
        print(f"deviation_per_unit: {res.deviation_per_unit:.12g}")
        print("z_base:     ", " ".join(f"{v:.12g}" for v in res.z_base))
        print("z_perturbed:", " ".join(f"{v:.12g}" for v in res.z_perturbed))
        return EXIT_OK
    edges = tuple(
        (spec.resolve_agent(a), spec.resolve_agent(b)) for a, b in args.flip_edge
    )
    try:
        res = flip_edge_signs(spec.net, spec.params, spec.x0, edges)
    except (NoSuchEdgeError, DuplicateEdgeError) as exc:  # name the edge as the user did
        raise type(exc)(spec.label_of(exc.src), spec.label_of(exc.dst)) from None
    flipped = ", ".join(f"({spec.label_of(a)}, {spec.label_of(b)})" for a, b in res.flipped)
    print(f"flipped: {flipped}")
    print(f"mean_abs_deviation: {res.mean_abs_deviation:.12g}")
    print("deltas:   ", " ".join(f"{v:.12g}" for v in res.deltas))
    print(f"unchanged: {_fmt_set(res.unchanged, spec)}")
    return EXIT_OK


def cmd_export_sfg(args) -> int:
    spec = load_spec(args.file)
    model = prepare(spec.net, spec.params)
    g = reduce_sfg(model) if args.reduced else build_full_sfg(model)
    text = export_dot(g, args.dot, labels=spec.labels)
    if args.dot is None:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other validation error
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def _checked(convert, ok, what):
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_tol = _checked(float, lambda v: np.isfinite(v) and v > 0.0, "a finite number > 0")
_iters = _checked(int, lambda v: v >= 0, "a non-negative integer")


class _Perturb(argparse.Action):  # I stays a label; DELTA must be a number
    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, (values[0], float(values[1])))
        except ValueError:
            parser.error(f"argument {option_string}: DELTA must be a number, got {values[1]!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="signed-influence",
        description="Opinion dynamics, influence and centrality on signed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="network spec file (YAML)")
        p.set_defaults(func=func)
        return p

    add("classify", cmd_classify, help="agent and sink classification")

    p = add("simulate", cmd_simulate, help="iterate the opinion update rule")
    p.add_argument("--tol", type=_tol, default=1e-10)
    p.add_argument("--max-iters", type=_iters, default=100_000)
    p.add_argument("--csv", metavar="PATH", help="write the trajectory table")

    p = add("influence", cmd_influence, help="collective and individual influence")
    p.add_argument("--method", choices=["mason", "solve", "auto"], default="auto")
    p.add_argument("--check", action="store_true",
                   help="verify the influence prediction against a simulation run")
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--tol", type=_tol, default=1e-10)
    p.add_argument("--max-iters", type=_iters, default=100_000)

    add("centrality", cmd_centrality, help="absolute influence centrality and ranking")

    p = add("whatif", cmd_whatif, help="sign-flip and perturbation experiments")
    p.add_argument("--flip-edge", nargs=2, action="append", metavar=("A", "B"),
                   default=[], help="negate the weight of edge (A, B); repeatable")
    p.add_argument("--perturb", nargs=2, metavar=("I", "DELTA"), action=_Perturb,
                   help="shift agent I's initial opinion by DELTA")

    p = add("export-sfg", cmd_export_sfg, help="emit the signal-flow graph as DOT")
    p.add_argument("--reduced", action="store_true", help="export the reduced graph")
    p.add_argument("--dot", metavar="PATH", help="write DOT here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        SpecFileError,
        NetworkValidationError,
        NotWeaklyConnectedError,
        ParamConstraintViolatedError,
        NoSuchEdgeError,
        ZeroDeltaError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComplexityCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPLEXITY
    except SignedInfluenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
