"""Network spec files, analysis reports, DOT export and trajectory CSV.

A network spec is a small YAML document:

    schema: signed-influence/1
    n: 3
    edges:
      - [0, 1, 2.5]     # agent 0 listens to agent 1 with weight 2.5
      - [1, 2, -1.0]
    gamma: [0.3, 0.3, 0.3]
    beta: [0.1, 0.0, 0.0]
    x0: [1.0, -2.0, 0.5]
    labels: ["a", "b", "c"]   # optional display names

`load_spec` checks what only a spec has: its shape, n, the list lengths
against n, x(0) and the labels.  `build_network` alone checks the edges and
`AgentParams` gamma and beta, and their errors get the spec's path.

Reports are YAML as well, schema ``signed-influence/report/1``, with every
number serialized to 12 significant digits so that a re-ingested report
diffs clean against a fresh run.

A spec in the plain form that the fixtures and generated specs use is
read without a YAML parser: a top-level block mapping with its keys at
column 0, plain scalars in unambiguous decimal or word form, flow lists of
them (wrapped over indented lines or not), edges as ``- [i, j, w]`` lines
or a flow list of such lists, and comments on lines of their own.  That
reader returns the document PyYAML would, with the same types, or declines;
every other spec and every report is read with PyYAML (libyaml's parser
when present), because specs are user-written and may use any YAML.  A
repeated mapping key is an error, and so is a label that YAML reads as a
bool, null, list or mapping (``yes``, ``no``, ``~``; quoted, they are
names).  Reports are written by this module's own writer: its output is
byte-identical to PyYAML's libyaml dump, and it raises TypeError on a
value outside the report schema rather than write other YAML.
"""

from __future__ import annotations

import contextlib
import csv
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import yaml

from .centrality import _num, _nums
from .dynamics import block_spectral_radius
from .errors import BadIdError, SpecFileError
from .graph import AgentParams, SignedNetwork, _is_id, _is_real, build_network
from .pipeline import AnalysisResult
from .sfg import SfgGraph, SourceKind

SPEC_SCHEMA = "signed-influence/1"
REPORT_SCHEMA = "signed-influence/report/1"
_MAX_DEPTH = 64  # specs nest 3 levels deep, reports 5


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser when PyYAML was built with it.  It also reads an
    exponent without a sign or a decimal point, 1e300, -5E-2 or .5e3, and a
    signed number that starts with a point, -.5 or -.25E-1, as a float, as
    YAML 1.2 does; YAML 1.1 reads them as strings.  A mapping that repeats
    a key is an error, where PyYAML would keep the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            with contextlib.suppress(TypeError):  # unhashable: the base class says so
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)

    def construct_yaml_int(self, node):
        """An int as PyYAML reads it; one past Python's digit limit for text is a YAML error."""
        try:
            return super().construct_yaml_int(node)
        except ValueError as exc:
            raise yaml.constructor.ConstructorError(
                None, None, f"an integer of more than {sys.get_int_max_str_digits()} digits",
                node.start_mark) from exc

    def construct_yaml_timestamp(self, node):
        """A timestamp as PyYAML reads it; one that names no date or time is a YAML error."""
        try:
            return super().construct_yaml_timestamp(node)
        except ValueError as exc:
            raise yaml.constructor.ConstructorError(
                None, None, f"{node.value!r} is not a valid timestamp ({exc})",
                node.start_mark) from exc


_Loader.add_constructor("tag:yaml.org,2002:int", _Loader.construct_yaml_int)
_Loader.add_constructor("tag:yaml.org,2002:timestamp", _Loader.construct_yaml_timestamp)
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?([0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+"
               r"|\.[0-9][0-9_]*([eE][-+]?[0-9]+)?)$"),
    list("-+.0123456789"),
)


@dataclass(frozen=True)
class NetworkSpec:
    net: SignedNetwork
    params: AgentParams
    x0: np.ndarray
    labels: tuple[str, ...] | None

    def resolve_agent(self, token: str) -> int:
        """Map a CLI token to an agent id: display label first, then raw id."""
        if self.labels is not None and token in self.labels:
            return self.labels.index(token)
        try:
            agent = int(token)
        except ValueError:
            raise SpecFileError(f"agent {token!r} is neither a label nor an agent id") from None
        if not (0 <= agent < self.net.n):
            raise BadIdError(token)
        return agent

    def label_of(self, agent: int) -> str:
        return self.labels[agent] if self.labels is not None else str(agent)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecFileError(message)


def _open_out(path: str, newline: str | None = None):
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise SpecFileError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _finite(x: int | float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


# The plain form: the YAML that spec_text and the fixtures write.  _read_plain
# reads it without PyYAML and returns the document that
# yaml.load(text, Loader=_Loader) returns, with the same types, or None for
# any text outside it.  Its scalars have one reading only: no token that
# YAML 1.1 reads otherwise (010 octal, 1_0, 1:30, +.5, yes, ~) is accepted.
_PLAIN = re.compile(r"[A-Za-z][A-Za-z0-9_/-]*")
# YAML 1.1 reads these as bools or null
_RESERVED = frozenset("yes Yes YES no No NO true True TRUE false False FALSE "
                      "on On ON off Off OFF null Null NULL".split())
_INT = r"-?(?:0|[1-9][0-9]{0,17})"  # longer ones decline: int() refuses past 4300 digits
_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]*(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_INTS = re.compile(rf"(?:{_INT}\n)*{_INT}")
_FLOATS = re.compile(rf"(?:{_FLOAT}\n)*{_FLOAT}")
_QUOTED = re.compile(r""""[^"\\,\[\]\n]*"|'[^'\\,\[\]\n]*'""")
_TOKEN = rf"""(?:{_QUOTED.pattern}|[^ \n,\[\]"']+)"""  # a scalar's text, typed afterwards
_LIST3 = rf"\[ *{_TOKEN} *, *{_TOKEN} *, *{_TOKEN} *\]"  # [a, b, c] on one line
_TRIPLE = re.compile(rf"\[ *({_TOKEN}) *, *({_TOKEN}) *, *({_TOKEN}) *\]")
_NOTE = r" *(?:#[^\n]*)?\n"  # a blank line or a comment line
_NOTES = re.compile(f"(?:{_NOTE})*")
_SECTION = re.compile(r"^(?=[^ #\n-])", re.M)  # a line that can only start an entry
_ENTRY = re.compile(
    r"([a-z_][a-z0-9_]{0,127}):"
    r"(?: +([^ \n\[][^\n]*)"  # 2: a scalar
    r"| +(\[[^\n]*(?:\n +[^ #\n][^\n]*)*)"  # 3: a flow list, wrapped over indented lines
    r"|)\n")  # neither: a block list follows
_BLOCK = re.compile(rf"(?:{_NOTE})*( *)- {_LIST3}\n(?:\1- {_LIST3}\n|{_NOTE})*")
_ITEMS = re.compile(rf"^ *- {_TRIPLE.pattern}$", re.M)
_FLOW = re.compile(r"\[[ \n]*([^\[\]]*?)[ \n]*\]")
_FLOW_TRIPLES = re.compile(rf"\[[ \n]*{_LIST3}(?:[ \n]*,[ \n]*{_LIST3})*[ \n]*\]")
_COMMA = re.compile(r"[ \n]*,[ \n]*")


class _NotPlain(Exception):
    pass


def _token_value(token: str):
    if _INTS.fullmatch(token):
        return int(token)
    if _FLOATS.fullmatch(token):
        return float(token)
    if _QUOTED.fullmatch(token):
        return token[1:-1]
    if _PLAIN.fullmatch(token) and token not in _RESERVED:
        return token
    raise _NotPlain


def _token_values(tokens) -> list:
    """The tokens' values; a list of all ints or all floats converts in bulk."""
    text = "\n".join(tokens)
    if _INTS.fullmatch(text):
        return list(map(int, tokens))
    if _FLOATS.fullmatch(text):
        return list(map(float, tokens))
    return [_token_value(t) for t in tokens]


def _rows(triples: list) -> list:  # typed column by column
    return list(map(list, zip(*map(_token_values, zip(*triples)))))


def _flow_list(text: str) -> list:
    if "[" in text[1:]:  # a list of [a, b, c] lists
        if not _FLOW_TRIPLES.fullmatch(text):
            raise _NotPlain
        return _rows(_TRIPLE.findall(text))
    m = _FLOW.fullmatch(text)
    if m is None:
        raise _NotPlain
    return _token_values(_COMMA.split(m[1])) if m[1] else []


def _read_plain(text: str) -> dict | None:
    """A top-level block mapping with keys at column 0 whose values are plain
    scalars, flow lists of them, or lists of [a, b, c] lists (flow, or block
    lines at one indentation); comments only on lines of their own."""
    if not text.endswith("\n"):
        text += "\n"
    # tabs, CR, a BOM, other non-ASCII and trailing spaces all decline
    if not (text.isascii() and text.replace("\n", " ").isprintable()) or " \n" in text:
        return None
    head, *sections = _SECTION.split(text)
    if not sections or not _NOTES.fullmatch(head):
        return None
    doc = {}
    try:
        for section in sections:
            m = _ENTRY.match(section)
            if m is None or m[1] in doc or m[1] in _RESERVED:
                return None
            rest = section[m.end():]
            if m[2] is not None:
                value = _token_value(m[2])
            elif m[3] is not None:
                value = _flow_list(m[3])
            elif _BLOCK.fullmatch(rest):  # an empty value declines here
                doc[m[1]] = _rows(_ITEMS.findall(rest))
                continue
            else:
                return None
            if not _NOTES.fullmatch(rest):
                return None
            doc[m[1]] = value
    except _NotPlain:
        return None
    return doc


def _read_yaml(path: str):
    """Parse a YAML file; every way that can fail is a one-line SpecFileError.

    The file is read once; text in the plain form needs no parser.  For any
    other text, libyaml's composer recurses once per nesting level, so a file
    nested some 10⁴ levels deep would crash the interpreter: the events are
    read first, and nesting past _MAX_DEPTH is refused before anything is
    composed.  (The plain form nests 3 levels.)
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = _read_plain(fh.read())
            if doc is not None:
                return doc
            fh.seek(0)
            depth = 0
            for event in yaml.parse(fh, Loader=_Loader):
                if isinstance(event, yaml.CollectionStartEvent):
                    depth += 1
                    _require(depth <= _MAX_DEPTH,
                             f"{path} nests collections more than {_MAX_DEPTH} levels deep")
                elif isinstance(event, yaml.CollectionEndEvent):
                    depth -= 1
            fh.seek(0)
            return yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except yaml.YAMLError as exc:  # PyYAML's message spans lines; join them
        raise SpecFileError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from exc


def load_spec(path: str) -> NetworkSpec:
    """Load and validate a network spec file; the module docstring says which rule lives where."""
    doc = _read_yaml(path)
    _require(isinstance(doc, dict), "top level must be a mapping")
    _require(doc.get("schema") == SPEC_SCHEMA, f"schema must be {SPEC_SCHEMA!r}")
    _require(_is_id(doc.get("n")) and doc["n"] >= 1, "n must be a positive integer")
    n = doc["n"]
    edges = doc.get("edges", [])
    _require(isinstance(edges, list), "edges must be a list")
    for field in ("gamma", "beta", "x0"):  # before anything is sized by n
        v = doc.get(field)
        _require(isinstance(v, list) and len(v) == n, f"{field} must be a list of length n")
    _require(all(map(_is_real, doc["x0"])), "x0 entries must be numbers")
    _require(all(map(_finite, doc["x0"])), "x0 entries must be finite")
    labels = doc.get("labels")
    if labels is not None:
        _require(
            isinstance(labels, list) and len(labels) == n,
            "labels must be a list of length n",
        )
        for k, x in enumerate(labels):  # yes, no, on, ~ ... are YAML 1.1 bools and null
            _require(x is not None and not isinstance(x, (bool, list, dict)),
                     f"labels[{k}] is read as {x!r}, not a name: quote it")
        labels = tuple(str(x) for x in labels)
        _require(len(set(labels)) == n, "labels must be unique")

    try:
        net = build_network(n, edges)
        params = AgentParams(gamma=doc["gamma"], beta=doc["beta"])
    except Exception as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    return NetworkSpec(
        net=net, params=params, x0=np.array(doc["x0"], dtype=float), labels=labels
    )


def _source_entry(spec) -> dict:
    entry = {"kind": spec.kind.value, "members": list(spec.members)}
    if spec.agent is not None:
        entry["agent"] = spec.agent
    if spec.sink is not None:
        entry["sink"] = spec.sink
    if spec.side is not None:
        entry["side"] = spec.side
    return entry


def build_report(result: AnalysisResult, tol: float, max_iters: int) -> dict:
    """Machine-readable analysis report (plain dict, YAML-serializable)."""
    model = result.model
    cls = model.classification
    steady = result.steady
    c = np.asarray(result.collective.c).tolist()
    # each distinct number is rounded once: Θ is mostly zeros and repeats its values
    z, z_o, z_s, scores, *rows = _nums(
        [np.ravel(v).tolist() for v in (steady.z, steady.z_o, steady.z_s, result.centrality.scores)]
        + c + result.influence.theta.tolist())
    return {
        "schema": REPORT_SCHEMA,
        "classification": {
            "followers": sorted(cls.followers),
            "singleton_leaders": sorted(cls.singleton_leaders),
            "group_leaders": sorted(cls.group_leaders),
            "stubborn": sorted(cls.stubborn),
            "sinks": [
                {
                    "name": f"S_{idx + 1}",
                    "members": list(members),
                    "kind": cls.sink_kind[idx].value,
                    "stubborn_free": not cls.sink_has_stubborn(idx),
                }
                for idx, members in enumerate(cls.sinks)
            ],
            "influence_free_sinks": [f"S_{s + 1}" for s in sorted(cls.influence_free_sinks)],
        },
        "convergence": {
            "kind": cls.convergence,
            # semi-convergent: ||P||_inf = max(1 - beta_i) <= 1 and a unit eigenvalue
            "spectral_radius_estimate": 1.0 if cls.convergence == "semi-convergent"
            else _num(block_spectral_radius(model.matrices, cls.blocks)),
            "unit_eigen_count": cls.unit_eigen_count,
        },
        "steady_state": {
            "z": z,
            "z_o": z_o,
            "z_s": z_s,
            "method": steady.method.value,
        },
        "collective_influence": {
            "agents": list(result.collective.agents),
            "sources": [_source_entry(s) for s in result.collective.sources],
            "c": rows[:len(c)],
        },
        "individual_influence": {"theta": rows[len(c):]},
        "centrality": {
            "scores": scores,
            "ranking": list(result.centrality.ranking),
            "most_influential": result.centrality.most_influential,
        },
        "provenance": {
            "gain_method": result.gain_method_used,
            "tol": _num(tol),
            "max_iters": max_iters,
        },
    }


# The report writer emits the bytes PyYAML's CSafeDumper emits with
# sort_keys=False and default_flow_style=None: mappings and sequences of
# scalars in flow style, all else in block style. It knows only the values
# a report holds; any other value is a TypeError, never other YAML.
#
# A row of exact floats, such as a row of Θ, is written from repr(list), one
# C call for the whole row, when that text holds one "." per item: a float's
# repr holds at most one ".", and one that holds it is already the text
# _float writes.  A row with 1e16, 5e-324, inf or nan among its items has
# too few dots and is written item by item.  Either way the items are joined
# by ", ", which no item holds, so _wrap finds the line breaks in that text.
_WIDTH = 80  # libyaml breaks a flow collection once the column passes this
_FLOAT_WORDS = {"inf": ".inf", "-inf": "-.inf", "nan": ".nan"}


def _float(x: float) -> str:  # SafeRepresenter.represent_float
    r = repr(x)
    return r if "." in r else _FLOAT_WORDS.get(r) or r.replace("e", ".0e", 1)


def _str(s: str) -> str:
    if s in _RESERVED or not _PLAIN.fullmatch(s):
        raise TypeError(f"report string {s!r} would need quoting")
    return s


def _key(k) -> str:
    if type(k) is not str or len(k) > 128:  # libyaml writes a longer key as "? key"
        raise TypeError(f"report key {k!r} is not a short string")
    return _str(k)


_SCALAR = {bool: lambda b: "true" if b else "false", int: int.__repr__, float: _float, str: _str}


def _once(value, seen: set) -> None:  # PyYAML would write a shared one as an anchor and alias
    if id(value) in seen:
        raise TypeError("a report holds the same list or mapping twice")
    seen.add(id(value))


def _wrap(items: str, indent: int, col: int) -> str:
    """items, a flow collection's ", "-joined texts starting at column col,
    broken as libyaml breaks them: the next item starts a new line at indent
    once the column after an item's comma passes _WIDTH, and the first item
    does when col already has."""
    if not items:
        return ""
    lines, start = [], 0
    if col > _WIDTH:
        lines.append("")
        col = indent
    # a line ends at the first item whose comma passes _WIDTH, the first ", "
    # from column _WIDTH on; past it (a deep indent) each item is a line
    while (end := items.find(", ", start + max(_WIDTH - col, 0))) >= 0:
        lines.append(items[start:end + 1])
        start, col = end + 2, indent
    lines.append(items[start:])
    return ("\n" + " " * indent).join(lines)


def _flow(value, indent: int, col: int, seen: set) -> str | None:
    """value in flow style, opened at column col and wrapped as libyaml wraps
    it (continuation lines at indent), or None for a block collection."""
    kind = type(value)
    if kind in _SCALAR:
        return _SCALAR[kind](value)
    if kind is not list and kind is not dict:
        raise TypeError(f"a report cannot hold {kind.__name__} {value!r}")
    if kind is list and set(map(type, value)) == {float} and (
            (text := repr(value)).count(".") == len(value)):
        items = text[1:-1]  # every item's repr is _float's text
    else:
        try:
            if kind is list:
                items = ", ".join([_SCALAR[type(x)](x) for x in value])
            else:
                items = ", ".join([f"{_key(k)}: {_SCALAR[type(v)](v)}" for k, v in value.items()])
        except KeyError:  # it holds a collection (or a value _block refuses)
            return None
    _once(value, seen)
    brackets = "[]" if kind is list else "{}"
    return brackets[0] + _wrap(items, indent, col + 1) + brackets[1]


def _block(value, indent: int, lead: str, out: list, seen: set) -> None:
    """A block collection with its entries at indent; lead goes before the first."""
    _once(value, seen)
    for i, entry in enumerate(value.items() if type(value) is dict else value):
        out.append(lead if i == 0 else "\n" + " " * indent)
        if type(value) is dict:
            key = _key(entry[0])
            out.append(key + ":")
            _value(entry[1], indent, indent + len(key) + 1, True, out, seen)
        else:
            out.append("-")
            _value(entry, indent, indent + 1, False, out, seen)


def _value(value, indent: int, col: int, in_map: bool, out: list, seen: set) -> None:
    """value after a "key:" (in_map) or "-" ending at column col, in a block at indent."""
    text = _flow(value, indent + 2, col + 1, seen)
    if text is not None:
        out += [" ", text]
    elif in_map:  # a sequence in a mapping is not indented further
        inner = indent + 2 if type(value) is dict else indent
        _block(value, inner, "\n" + " " * inner, out, seen)
    else:
        _block(value, indent + 2, " ", out, seen)


def dump_report(report: dict, path: str | None = None) -> str:
    if type(report) is not dict:
        raise TypeError(f"a report is a dict, not {type(report).__name__}")
    out, seen = [], set()
    flow = _flow(report, 2, 0, seen)
    if flow is None:
        _block(report, 0, "", out, seen)
    text = ("".join(out) if flow is None else flow) + "\n"
    if path is not None:
        with _open_out(path) as fh:
            fh.write(text)
    return text


def load_report(path: str) -> dict:
    doc = _read_yaml(path)
    _require(isinstance(doc, dict) and doc.get("schema") == REPORT_SCHEMA,
             f"report schema must be {REPORT_SCHEMA!r}")
    return doc


def diff_reports(a: dict, b: dict, _path: str = "") -> list[str]:
    """Paths at which two reports disagree; empty means identical.

    Two leaves agree when the YAML would show them alike: they have the same
    type, and the same value, or for floats the same repr.  So 1, 1.0 and
    true differ, -0.0 differs from 0.0, and NaN agrees with NaN.
    """
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                diffs.append(f"{_path}/{key}: only on one side")
            else:
                diffs.extend(diff_reports(a[key], b[key], f"{_path}/{key}"))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{_path}: length {len(a)} != {len(b)}")
        else:
            for k, (x, y) in enumerate(zip(a, b)):
                diffs.extend(diff_reports(x, y, f"{_path}[{k}]"))
    elif type(a) is not type(b) or (repr(a) != repr(b) if type(a) is float else a != b):
        diffs.append(f"{_path}: {a!r} != {b!r}")
    return diffs


_SOURCE_SHAPE = {
    SourceKind.SINGLETON_LEADER: "doublecircle",
    SourceKind.COOPERATIVE_SINK: "diamond",
    SourceKind.BALANCED_PARTITION: "trapezium",
    SourceKind.STUBBORN_INITIAL: "box",
}


def _dot_id(node) -> str:
    return f"{node[0]}_{node[1]}"


def export_dot(g: SfgGraph, path: str | None = None, labels=None) -> str:
    """Graphviz DOT rendering; node shape encodes the source kind."""
    def agent_label(i: int) -> str:  # escaped for a quoted DOT string
        shown = labels[i] if labels is not None else str(i)
        return shown.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph sfg {", "  rankdir=LR;"]
    for node in g.nodes:
        tag, idx = node
        if tag == "source":
            spec = g.sources[idx]
            shape = _SOURCE_SHAPE[spec.kind]
            lines.append(f'  {_dot_id(node)} [shape={shape}, label="{spec.label(agent_label)}"];')
        else:
            lines.append(f'  {_dot_id(node)} [shape=circle, label="{agent_label(idx)}"];')
    for src, dst, gain in g.branches:
        lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="{gain:.6g}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with _open_out(path) as fh:
            fh.write(text)
    return text


@contextlib.contextmanager
def trajectory_csv(path: str, n: int) -> Iterator[Callable[[int, np.ndarray], object]]:
    """Trajectory table with columns k, x_0, ..., x_{n-1}, one row per call.

    Yields ``row(k, x)``, which writes the row at once: pass it to
    `simulate` as ``on_iterate`` and the table streams to the file.
    """
    with _open_out(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"x_{i}" for i in range(n)])
        yield lambda k, x: writer.writerow([k] + [f"{v:.12g}" for v in x.tolist()])
