"""Write the 404 `influence` reports and 202 `simulate` runs, or compare two corpora.

The corpus is the CLI's `influence` report under `--method mason`, the
oracle, and `--method solve`, the production route that the default
`auto` also takes, for both fixtures and the 200 netgen seeds, and for each
of those specs the `simulate --csv` table with the lines `simulate` prints,
written with PYTHONHASHSEED=0.  Two corpora, say from a commit and from its
parent, are the same outputs when every report is byte-identical or
`diff_reports`-clean and every simulate file is byte-identical.

    python tests/report_corpus.py write DIR [--src SRC]
    python tests/report_corpus.py compare DIR_A DIR_B

`write` runs the package found in SRC (default: this checkout's `src`), so
`--src` pointed at another checkout's `src` writes that commit's reports
from the same specs.  `compare` prints how many reports are byte-identical,
how many only `diff_reports`-clean and how many dirty (a report missing on
one side counts as dirty), then how many simulate files differ or are
missing and the largest |delta| between their numbers.  It lists the dirty
ones, each simulate file that differs with its largest |delta| and whether
its row and iteration counts match, and exits 1 if there are any.  A
directory that is missing or holds no reports or no simulate files is an
error of one line and exit 1, so two empty directories do not compare
clean.
It is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
METHODS = ("mason", "solve")
NETGEN_SEEDS = 200


def _write_specs(spec_dir: Path) -> list[Path]:
    """Both fixtures and a spec per netgen seed."""
    sys.path[:0] = [str(TESTS), str(REPO / "perfbench")]
    from netgen import random_network
    from synth import spec_text

    spec_dir.mkdir(parents=True, exist_ok=True)
    specs = [REPO / "fixtures" / "reference11.yaml", REPO / "fixtures" / "showcase17.yaml"]
    for seed in range(NETGEN_SEEDS):
        rn = random_network(seed)
        path = spec_dir / f"netgen-{seed}.yaml"
        path.write_text(spec_text(rn.net, rn.params, rn.x0))
        specs.append(path)
    return specs


def write(out: Path, src: Path) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":  # the hash seed is fixed at start-up
        env = dict(os.environ, PYTHONHASHSEED="0")
        cmd = [sys.executable, __file__, "write", str(out), "--src", str(src)]
        return subprocess.run(cmd, env=env).returncode
    sys.path.insert(0, str(src))
    from signed_influence import cli

    specs = _write_specs(out / "specs")
    failed = 0
    for spec in specs:
        for method in METHODS:
            report = out / f"{spec.stem}-{method}.yaml"
            code = cli.main(["influence", str(spec), "--method", method, "--out", str(report)])
            if code != 0:
                print(f"{report.name}: exit {code}", file=sys.stderr)
                failed += 1
        table = out / f"{spec.stem}-simulate.csv"
        with open(out / f"{spec.stem}-simulate.out", "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(["simulate", str(spec), "--csv", str(table)])
        if code != 0:
            print(f"{table.name}: exit {code}", file=sys.stderr)
            failed += 1
    written = len(specs) * (len(METHODS) + 1) - failed
    print(f"{written} reports and simulate runs written to {out}, {failed} failed")
    return 1 if failed else 0


def _numbers(path: Path) -> list[list[float]]:
    """Each line's numbers, in order; words that are not numbers are skipped."""
    lines = []
    for line in path.read_text().splitlines():
        row = []
        for word in re.split(r"[,\s]+", line):
            with contextlib.suppress(ValueError):
                row.append(float(word))
        lines.append(row)
    return lines


def _move(a: Path, b: Path) -> tuple[float, bool, bool]:
    """How far simulate file b moved from a: the largest |delta| between
    corresponding numbers, and whether the row and iteration counts match.

    The iteration count is the last table row's k in a `.csv` and the
    number after `iterations:` in a `.out`.
    """
    na, nb = _numbers(a), _numbers(b)
    delta = max((abs(x - y) for ra, rb in zip(na, nb) for x, y in zip(ra, rb)), default=0.0)
    at = -1 if a.suffix == ".csv" else 0
    iterations = [lines[at][:1] if lines else None for lines in (na, nb)]
    return delta, len(na) == len(nb), iterations[0] == iterations[1]


def compare(a_dir: Path, b_dir: Path) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from signed_influence.specfile import diff_reports, load_report

    for d in (a_dir, b_dir):
        if not any(d.glob("*.yaml")):
            print(f"error: {d} is missing or holds no reports", file=sys.stderr)
            return 1
        if not any(d.glob("*-simulate.*")):
            print(f"error: {d} holds no simulate files", file=sys.stderr)
            return 1
    names = sorted({p.name for p in a_dir.glob("*.yaml")} | {p.name for p in b_dir.glob("*.yaml")})
    identical, clean, dirty = 0, 0, []
    for name in names:
        a, b = a_dir / name, b_dir / name
        if not (a.exists() and b.exists()):
            dirty.append(f"{name}: only in {a_dir if a.exists() else b_dir}")
        elif a.read_bytes() == b.read_bytes():
            identical += 1
        elif diffs := diff_reports(load_report(str(a)), load_report(str(b))):
            dirty.append(f"{name}: {len(diffs)} differences, first {diffs[0]}")
        else:
            clean += 1
    print(f"{len(names)} reports: {identical} byte-identical, "
          f"{clean} diff_reports-clean, {len(dirty)} dirty")
    runs = sorted({p.name for d in (a_dir, b_dir) for p in d.glob("*-simulate.*")})
    moved, largest = [], 0.0
    for name in runs:
        a, b = a_dir / name, b_dir / name
        if not (a.exists() and b.exists()):
            moved.append(f"{name}: only in {a_dir if a.exists() else b_dir}")
        elif a.read_bytes() != b.read_bytes():
            delta, rows, iters = _move(a, b)
            largest = max(largest, delta)
            moved.append(f"{name}: max |delta| {delta:.3g}, "
                         f"rows {'same' if rows else 'DIFFER'}, "
                         f"iterations {'same' if iters else 'DIFFER'}")
    print(f"{len(runs)} simulate files: {len(runs) - len(moved)} byte-identical, "
          f"{len(moved)} differ or missing, max |delta| {largest:.3g}")
    dirty += moved
    for line in dirty:
        print(f"  {line}")
    return 1 if dirty else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("write", help="write the corpus into DIR")
    p.add_argument("dir", type=Path)
    p.add_argument("--src", type=Path, default=REPO / "src",
                   help="the src directory whose package writes the reports")
    p = sub.add_parser("compare", help="compare two corpora")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.dir.resolve(), args.src.resolve())
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
