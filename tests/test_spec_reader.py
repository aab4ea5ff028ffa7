"""The spec reader's plain form: yaml.load's document, with its types, or nothing.

`specfile._read_plain` reads the spec's plain form without PyYAML and
declines everything else, which then takes the YAML route.  PyYAML's
`yaml.load` with the spec loader is its oracle here.
"""

import math
import re

import pytest
import yaml
from hypothesis import find, given, settings
from hypothesis import strategies as st

from conftest import REF11, ZOO17
from netgen import random_network
from signed_influence import SpecFileError, specfile
from signed_influence.specfile import load_spec
from synth import spec_text, synth_network


def same(a, b) -> bool:
    """Equal, with the same type at every level; floats bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is float:
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    return a == b


def _texts() -> dict[str, str]:
    texts = {path.name: path.read_text() for path in (REF11, ZOO17)}
    for seed in range(200):
        rn = random_network(seed)
        texts[f"netgen-{seed}"] = spec_text(rn.net, rn.params, rn.x0)
    for n in (60, 100, 1000):
        s = synth_network(n, 0)
        texts[f"synth-{n}"] = spec_text(s.net, s.params, s.x0)
    return texts


TEXTS = _texts()


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, text in TEXTS.items():
        paths[name] = folder / f"{name}.yaml"
        paths[name].write_text(text)
    return paths


def _load_by_yaml(path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(specfile, "_read_plain", lambda text: None)
        return load_spec(str(path))


def test_both_routes_load_the_same_spec(spec_files, monkeypatch):
    for name, path in spec_files.items():
        plain, by_yaml = load_spec(str(path)), _load_by_yaml(path, monkeypatch)
        assert plain.net.n == by_yaml.net.n, name
        assert same([list(e) for e in plain.net.edges], [list(e) for e in by_yaml.net.edges]), name
        assert same(list(plain.params.gamma), list(by_yaml.params.gamma)), name
        assert same(list(plain.params.beta), list(by_yaml.params.beta)), name
        assert plain.x0.dtype == by_yaml.x0.dtype and plain.x0.tobytes() == by_yaml.x0.tobytes()
        assert plain.labels == by_yaml.labels, name


def test_generated_specs_and_fixtures_take_no_yaml(spec_files, monkeypatch):
    # the benchmark's specs are read by the plain reader; a generator or
    # reader change that sent them back to PyYAML would fail here
    def refuse(*args, **kwargs):
        raise AssertionError("PyYAML was called")

    monkeypatch.setattr(yaml, "parse", refuse)
    monkeypatch.setattr(yaml, "load", refuse)
    for name in (REF11.name, ZOO17.name, "netgen-0", "synth-100"):
        load_spec(str(spec_files[name]))


def test_every_text_is_accepted_as_yaml_reads_it():
    for name, text in TEXTS.items():
        doc = specfile._read_plain(text)
        assert doc is not None, name
        assert same(doc, yaml.load(text, Loader=specfile._Loader)), name


_SPEC = ("schema: signed-influence/1\nn: 2\nedges:\n- [0, 1, 1.0]\n"
         "gamma: [0.3, 0.4]\nbeta: [0.1, 0.0]\nx0: [1.0, {x}]\n")
_BASE = _SPEC.format(x="2.0")


@pytest.mark.parametrize("text", [
    _SPEC.format(x="1e5"), _SPEC.format(x="-5E-2"), _SPEC.format(x="2.5e+3"),
    _SPEC.format(x="3."), _SPEC.format(x="-0"), _SPEC.format(x="-0.0"),
    _BASE + 'labels: ["yes", b]\n', _BASE + "labels: ['1', x-y/z]\n",
    _BASE.replace("- [", "    - [") + "# the end\n",
    _BASE.replace("- [0, 1, 1.0]\n", "  # one edge\n\n  - [ 0,1 , 1.0 ]\n"),
    _BASE.replace("edges:\n- [0, 1, 1.0]", "edges: [[0, 1, 1.0],\n    [1, 0, 2]]"),
    _BASE.replace("[0.3, 0.4]", "[0.3,\n  0.4\n  ]"),
    _BASE.replace("edges:\n- [0, 1, 1.0]", "edges: []"),
    _BASE.rstrip("\n"),
], ids=["1e5", "-5E-2", "2.5e+3", "3.", "-0", "-0.0", "quoted-yes", "quoted-and-plain",
        "indented-block", "spaced-block", "flow-edges", "wrapped", "no-edges", "no-last-newline"])
def test_accepts_the_plain_form(text):
    doc = specfile._read_plain(text)
    assert doc is not None and same(doc, yaml.load(text, Loader=specfile._Loader))


@pytest.mark.parametrize("x", ["010", "1_0", "1:30", "+.5", ".5e3", ".5", "0x1F", "0o7", "+1",
                               "1e", ".inf", "-.inf", ".nan", "1" * 30, "yes", "~", "null",
                               "&a 1.0", "*a", "!!float 1", "1.0 # note", "'a,b'", '"a\\"b"',
                               "{a: 1}", "[1.0]", "1.0, 2.0]", "2020-02-01", "2020-02-30"])
def test_declines_other_scalars(x):
    assert specfile._read_plain(_SPEC.format(x=x)) is None


@pytest.mark.parametrize("x,why", [("2020-02-30", "day is out of range for month"),
                                   ("2020-13-01", "month must be in 1..12"),
                                   ("2020-02-01 25:00:00", "hour must be in 0..23")])
def test_timestamp_that_names_no_date_is_a_yaml_error(tmp_path, x, why):
    # YAML 1.1 reads each as a timestamp, and no date or time has it
    path = tmp_path / "spec.yaml"
    path.write_text(_SPEC.format(x=x))
    with pytest.raises(SpecFileError) as info:
        load_spec(str(path))
    assert str(info.value) == (f"{path} is not valid YAML: {x!r} is not a valid timestamp"
                               f' ({why}) in "{path}", line 7, column 11')


@pytest.mark.parametrize("text", [
    _BASE + "n: 3\n", "\ufeff" + _BASE, "---\n" + _BASE, _BASE + "...\n",
    _BASE.replace("\n", "\r\n"), _BASE.replace("- [", "\t- ["), _BASE.replace("n: 2", "n: 2 "),
    _BASE.replace("beta: [0.1, 0.0]", "beta:\n- 0.1\n- 0.0"), _BASE + "labels:\n",
    _BASE.replace("[0.3, 0.4]", "[0.3,\n0.4]"), _BASE.replace("[0.3, 0.4]", "[0.3, 0.4,]"),
    _BASE.replace("- [0, 1, 1.0]\n", "- [0, 1, 1.0]\n  - [1, 0, 1.0]\n"),
    _BASE + "on: 1\n", _BASE + "Labels: [a, b]\n", _BASE + "  # indented comment\n  x: 1\n",
    _BASE.replace("[0.3, 0.4]", "[0.3, [0.4]]"), "", "# only a comment\n",
], ids=["duplicate-key", "bom", "document-start", "document-end", "crlf", "tab",
        "trailing-space", "block-scalar-list", "empty-value", "unindented-wrap", "trailing-comma",
        "two-indentations", "bool-key", "capital-key", "nested-mapping", "nested-scalar-list",
        "empty", "comment-only"])
def test_declines_other_documents(text):
    assert specfile._read_plain(text) is None


# --- property: mutate the texts above; the reader agrees with yaml.load or declines

_BASES = [TEXTS[name] for name in (REF11.name, ZOO17.name, "netgen-0", "netgen-7", "synth-60")]
_NUMBER = re.compile(r"(?<![\w.])-?[0-9][0-9.eE+-]*")
_FORMS = ["010", "1_0", "1:30", "+.5", ".5e3", "1e5", "-0", "1.", "2E+3", "0x1F", ".inf",
          ".nan", "-.5", "1e400", '"7"', "'x'", "yes", "No", "~", "null", "abc", "a b"]
_LIST = re.compile(r"^(\w+): \[([^\[\]]*)\]\n", re.M)


def _comment(draw, text):
    lines = text.split("\n")
    k = draw(st.integers(0, len(lines) - 1))
    lines.insert(k, " " * draw(st.integers(0, 4)) + "# note")
    return "\n".join(lines)


def _trailing(draw, text):
    lines = text.split("\n")
    k = draw(st.integers(0, len(lines) - 1))
    lines[k] += draw(st.sampled_from([" ", " # after", "  ", "\t"]))
    return "\n".join(lines)


def _number(draw, text):
    hits = list(_NUMBER.finditer(text))
    m = hits[draw(st.integers(0, len(hits) - 1))]
    return text[:m.start()] + draw(st.sampled_from(_FORMS)) + text[m.end():]


def _quote(draw, text):
    hits = list(_NUMBER.finditer(text))
    m = hits[draw(st.integers(0, len(hits) - 1))]
    q = draw(st.sampled_from(['"', "'"]))
    return text[:m.start()] + q + m[0] + q + text[m.end():]


def _one_list(draw, text):
    """text with its wrapped flow lists on one line each, and one such list drawn."""
    flat = re.sub(r",\n +", ", ", text)
    hits = list(_LIST.finditer(flat))
    return flat, hits[draw(st.integers(0, len(hits) - 1))] if hits else None


def _rewrap(draw, text):
    # a flow list of scalars over lines of a drawn width and indentation
    flat, m = _one_list(draw, text)
    if m is None:
        return text
    items, per = m[2].split(", "), draw(st.integers(1, 6))
    indent = "\n" + " " * draw(st.integers(0, 3))
    body = ("," + indent).join(", ".join(items[i:i + per]) for i in range(0, len(items), per))
    return flat.replace(m[0], f"{m[1]}: [{body}]\n")


def _block_list(draw, text):
    flat, m = _one_list(draw, text)
    if m is None:
        return text
    return flat.replace(m[0], f"{m[1]}:\n" + "".join(f"- {x}\n" for x in m[2].split(", ")))


def _edges_style(draw, text):
    items = re.findall(r"^ *- (\[.*\])$", text, re.M)
    if draw(st.booleans()):  # the block at another indentation
        pad = " " * draw(st.integers(0, 4))
        return re.sub(r"^ *- \[", pad + "- [", text, flags=re.M)
    flow = "edges: [" + ("," + "\n" + " " * draw(st.integers(0, 4))).join(items) + "]\n"
    return re.sub(r"edges:\n(?:(?: *- \[.*\]| *#.*)?\n)*", flow, text, count=1)


def _duplicate(draw, text):
    lines = [line for line in text.split("\n") if re.match(r"[a-z]\w*: ", line)]
    return text + draw(st.sampled_from(lines)) + "\n" if lines else text


def _markers(draw, text):
    how = draw(st.sampled_from(["crlf", "bom", "start", "end", "tab"]))
    if how == "crlf":
        return text.replace("\n", "\r\n")
    if how == "bom":
        return "\ufeff" + text
    if how == "start":
        return "---\n" + text
    if how == "end":
        return text + "...\n"
    return text.replace(", ", ",\t", 1)


def _labels(draw, text):
    n = re.search(r"^n: ([0-9]{1,3})$", text, re.M)
    if n is None:
        return text
    words = st.sampled_from(["a", "b1", "yes", "no", "on", "Off", "~", '"yes"', "'no'", "x/y",
                             "1", "2.5", "1e5", "null", "_a"])
    labels = [f"{draw(words)}{k}" if draw(st.booleans()) else draw(words)
              for k in range(int(n[1]))]
    return text + "labels: [" + ", ".join(labels) + "]\n"


def _character(draw, text):
    # into a comment or a quoted label, too: YAML refuses some, and reads NEL as a line break
    spots = [m.end() - 1 for m in re.finditer(r'#|"[^"\n]|\n', text)]
    k = draw(st.sampled_from(spots))
    odd = draw(st.sampled_from(["\x00", "\x01", "\x7f", "\x85", "\u2028", "\ufeff", "\xe9",
                                "\t", "\r", "\\"]))
    return text[:k] + odd + text[k:]


_MUTATIONS = [_comment, _trailing, _number, _quote, _rewrap, _block_list, _edges_style,
              _duplicate, _markers, _labels, _character]


@st.composite
def _mutated(draw):
    text = draw(st.sampled_from(_BASES))
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.sampled_from(_MUTATIONS))(draw, text)
    return text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_mutated())
def test_mutated_texts_read_as_yaml_reads_them_or_decline(text):
    doc = specfile._read_plain(text)
    if doc is None:
        return
    want = yaml.load(text, Loader=specfile._Loader)  # raises if the reader took a text YAML refuses
    assert same(doc, want)


@pytest.mark.parametrize("accepted", [True, False], ids=["accepted", "declined"])
def test_mutations_reach_both_outcomes(accepted):
    # the property above would mean little if every mutant declined, or none did
    find(_mutated(), lambda text: (specfile._read_plain(text) is not None) == accepted,
         settings=settings(derandomize=True, database=None, max_examples=200))
