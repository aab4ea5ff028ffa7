"""`report_corpus.py`: the committed corpus digests, and when two corpora
count as the same outputs."""

import hashlib
import pathlib
import shutil

import pytest

import report_corpus

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPORTS = ("reference11-solve.yaml", "showcase17-solve.yaml")
SIMULATE = "reference11-simulate.out"
# one `sha256sum` line per report and simulate file that `write` makes; a
# change that moves an output on purpose rewrites it, from the corpus DIR:
#   (cd DIR && sha256sum *.yaml *-simulate.*) > tests/golden/corpus.sha256
MANIFEST = GOLDEN / "corpus.sha256"


def _corpus(path: pathlib.Path, simulate: bool = True) -> pathlib.Path:
    path.mkdir()
    for name in REPORTS:
        shutil.copy(GOLDEN / name, path / name)
    if simulate:
        (path / SIMULATE).write_text("iterations: 74\n")
    return path


def test_identical_corpora_compare_clean(tmp_path, capsys):
    assert report_corpus.compare(_corpus(tmp_path / "a"), _corpus(tmp_path / "b")) == 0
    out = capsys.readouterr().out
    assert "2 reports: 2 byte-identical, 0 diff_reports-clean, 0 dirty" in out
    assert "1 simulate files: 1 byte-identical, 0 differ or missing" in out


def test_one_changed_number_is_dirty_and_named(tmp_path, capsys):
    b = _corpus(tmp_path / "b")
    report = b / REPORTS[0]
    text = report.read_text()
    assert "z_s: [4.96," in text
    report.write_text(text.replace("z_s: [4.96,", "z_s: [4.97,", 1))
    assert report_corpus.compare(_corpus(tmp_path / "a"), b) == 1
    out = capsys.readouterr().out
    assert "1 dirty" in out and f"{REPORTS[0]}: 1 differences" in out


def test_missing_directory_is_an_error(tmp_path, capsys):
    assert report_corpus.compare(_corpus(tmp_path / "a"), tmp_path / "missing") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing" in err


@pytest.mark.parametrize("side", ["a", "b"])
def test_corpus_without_simulate_files_is_an_error(tmp_path, capsys, side):
    a = _corpus(tmp_path / "a", simulate=side != "a")
    b = _corpus(tmp_path / "b", simulate=side != "b")
    assert report_corpus.compare(a, b) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / side} holds no simulate files\n"


def test_corpus_matches_the_committed_digests(tmp_path):
    assert report_corpus.write(tmp_path, report_corpus.REPO / "src") == 0
    want = dict(line.split("  ")[::-1] for line in MANIFEST.read_text().splitlines())
    files = [*tmp_path.glob("*.yaml"), *tmp_path.glob("*-simulate.*")]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert len(want) == 808
    assert sorted(name for name in want.keys() | got.keys()
                  if want.get(name) != got.get(name)) == []
