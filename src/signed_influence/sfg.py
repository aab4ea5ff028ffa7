"""Signal-flow graphs for influence quantification.

The steady-state equations are encoded as a signal-flow graph whose branch
direction is the reverse of the information flow in the network.  The full
graph carries one node per final opinion plus one per stubborn initial
opinion; the reduced graph collapses stubborn-free sinks into collective
sources so every influential agent (group) is represented by a source.

The production route never builds a graph: `solve_gain` takes the reduced
node equations straight from P's blocks and solves them, and
`individual_influence` assembles Θ = G·W from the gains.  Mason's formula
is the paper's method, the first try of the `auto` gain route and the
oracle the solve is checked against; the `SfgGraph` is built only for it
and for DOT export.  `mason_influence` enumerates the loops, their
conflicts and the graph determinant Δ once per graph, walks each source's
simple paths once and memoises each path's cofactor on the loops the path
touches.  A capped enumeration raises `ComplexityCapExceededError` and a
Δ of zero `SingularSystemError`; `auto` falls back to the solve on both.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .dynamics import ModelMatrices, SinkSpectrum
from .errors import (
    ComplexityCapExceededError,
    MissingSpectrumError,
    SingularSystemError,
)
from .graph import AgentClassification, SinkKind

NodeKey = tuple[str, int]  # ("agent", i) | ("source", r)

DEFAULT_ENUM_CAP = 1_000_000
DEFAULT_SUBSET_CAP = 100_000


class SourceKind(enum.Enum):
    SINGLETON_LEADER = "singleton-leader"
    COOPERATIVE_SINK = "cooperative-sink"
    BALANCED_PARTITION = "balanced-partition"
    STUBBORN_INITIAL = "stubborn-initial"


@dataclass(frozen=True)
class SourceSpec:
    """Catalog entry for one source of a (reduced) signal-flow graph."""

    kind: SourceKind
    agent: int | None = None  # singleton leader / stubborn agent
    sink: int | None = None  # collective sources
    side: int | None = None  # +1 or -1 for balanced partitions
    members: tuple[int, ...] = ()  # agents aggregated into this source

    def label(self) -> str:
        if self.kind == SourceKind.SINGLETON_LEADER:
            return f"leader {self.agent}"
        if self.kind == SourceKind.STUBBORN_INITIAL:
            return f"x{self.agent}(0)"
        if self.kind == SourceKind.COOPERATIVE_SINK:
            return f"S_{self.sink + 1}"
        sign = "+" if self.side == 1 else "-"
        return f"S_{self.sink + 1} ({sign})"


@dataclass(frozen=True)
class SfgGraph:
    nodes: tuple[NodeKey, ...]
    sources: tuple[SourceSpec, ...]  # index r matches ("source", r) nodes
    branches: tuple[tuple[NodeKey, NodeKey, float], ...]
    reduced: bool

    def nonsource_agents(self) -> tuple[int, ...]:
        return tuple(i for tag, i in self.nodes if tag == "agent")

    def to_networkx(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        for src, dst, gain in self.branches:
            g.add_edge(src, dst, gain=gain)
        return g


@dataclass(frozen=True)
class CollectiveInfluence:
    """Gains from every source to every non-source node."""

    agents: tuple[int, ...]  # row order
    sources: tuple[SourceSpec, ...]  # column order
    c: np.ndarray  # len(agents) x len(sources)

    def row(self, agent: int) -> np.ndarray:
        return self.c[self.agents.index(agent)]


@dataclass(frozen=True)
class InfluenceMatrix:
    theta: np.ndarray


def source_catalog(
    classification: AgentClassification, stubborn_ids: tuple[int, ...]
) -> tuple[SourceSpec, ...]:
    """Deterministic source ordering: singleton leaders, cooperative sinks,
    balanced partition pairs (+ side first), then stubborn initial opinions."""
    cls = classification
    sources: list[SourceSpec] = []
    for sink in range(len(cls.sinks)):
        if sink not in cls.influence_free_sinks:
            continue
        if cls.sink_kind[sink] == SinkKind.SINGLETON_LEADER:
            (agent,) = cls.sinks[sink]
            sources.append(
                SourceSpec(SourceKind.SINGLETON_LEADER, agent=agent, sink=sink, members=(agent,))
            )
    for sink in range(len(cls.sinks)):
        if sink not in cls.influence_free_sinks:
            continue
        if cls.sink_kind[sink] == SinkKind.COOPERATIVE:
            sources.append(
                SourceSpec(SourceKind.COOPERATIVE_SINK, sink=sink, members=cls.sinks[sink])
            )
    for sink in range(len(cls.sinks)):
        if sink not in cls.influence_free_sinks:
            continue
        if cls.sink_kind[sink] == SinkKind.BALANCED:
            for side in (1, -1):
                members = tuple(m for m in cls.sinks[sink] if cls.sigma[m] == side)
                sources.append(
                    SourceSpec(SourceKind.BALANCED_PARTITION, sink=sink, side=side, members=members)
                )
    for agent in stubborn_ids:
        sources.append(SourceSpec(SourceKind.STUBBORN_INITIAL, agent=agent, members=(agent,)))
    return tuple(sources)


def build_full_sfg(matrices: ModelMatrices, classification: AgentClassification) -> SfgGraph:
    """One node per final opinion plus one source per stubborn initial opinion.

    Non-stubborn singleton leaders are tagged as sources (their trivial
    unit self-loop is dropped); every other agent node is a non-source.
    """
    cls = classification
    leader_sources = {}
    sources: list[SourceSpec] = []
    for agent in sorted(cls.singleton_leaders):
        if agent in cls.stubborn:
            continue
        sink = cls.sink_of[agent]
        leader_sources[agent] = len(sources)
        sources.append(
            SourceSpec(SourceKind.SINGLETON_LEADER, agent=agent, sink=sink, members=(agent,))
        )
    init_sources = {}
    for agent in matrices.stubborn_ids:
        init_sources[agent] = len(sources)
        sources.append(SourceSpec(SourceKind.STUBBORN_INITIAL, agent=agent, members=(agent,)))

    def node_of(agent: int) -> NodeKey:
        if agent in leader_sources:
            return ("source", leader_sources[agent])
        return ("agent", agent)

    nodes = [node_of(i) for i in range(matrices.n)]
    nodes += [("source", init_sources[a]) for a in matrices.stubborn_ids]
    # keep node list unique when a leader id also appears in ids order
    nodes = list(dict.fromkeys(nodes))

    branches = []
    for i in range(matrices.n):
        if i in leader_sources:
            continue  # row reads y_i = y_i; no branch
        for j in range(matrices.n):
            if matrices.P[i, j] != 0.0:
                branches.append((node_of(j), ("agent", i), float(matrices.P[i, j])))
    for agent in matrices.stubborn_ids:
        branches.append(
            (("source", init_sources[agent]), ("agent", agent), float(matrices.beta[agent]))
        )
    return SfgGraph(
        nodes=tuple(nodes), sources=tuple(sources), branches=tuple(branches), reduced=False
    )


def _fold_matrix(sources: tuple[SourceSpec, ...], n: int) -> np.ndarray:
    """F[j, r] = 1 when agent j is folded into collective source r."""
    fold = np.zeros((n, len(sources)))
    for r, spec in enumerate(sources):
        if spec.kind != SourceKind.STUBBORN_INITIAL:
            fold[list(spec.members), r] = 1.0
    return fold


@dataclass(frozen=True)
class _Reduction:
    """Node equations u = P'u + C_in v of the reduced signal-flow graph."""

    agents: tuple[int, ...]  # non-source agents N
    sources: tuple[SourceSpec, ...]
    pprime: np.ndarray  # P[N, N]
    cin: np.ndarray  # P[N, :] F, stubborn-initial columns from Btilde[N]


def _reduction(
    matrices: ModelMatrices,
    classification: AgentClassification,
    spectra: dict[int, SinkSpectrum],
) -> _Reduction:
    """Collapse stubborn-free sinks into collective sources.

    Singleton leaders stay single sources, cooperative stubborn-free sinks
    become one source, balanced ones a pair (one per partition), members of
    stubborn-free unbalanced sinks are deleted, and members of sinks with
    any stubborn leader remain ordinary non-source nodes.
    """
    cls = classification
    for sink in cls.influence_free_sinks:
        if sink not in spectra:
            raise MissingSpectrumError(sink)

    sources = source_catalog(cls, matrices.stubborn_ids)
    fold = _fold_matrix(sources, matrices.n)
    folded = fold.any(axis=1)
    deleted = set()
    for sink in range(len(cls.sinks)):
        if cls.sink_kind[sink] == SinkKind.UNBALANCED and not cls.sink_has_stubborn(sink):
            deleted.update(cls.sinks[sink])
    agents = tuple(i for i in range(matrices.n) if not folded[i] and i not in deleted)

    rows = matrices.P[list(agents)]
    cin = rows @ fold
    cin[:, len(sources) - len(matrices.stubborn_ids):] = matrices.Btilde[list(agents)]
    return _Reduction(agents, sources, rows[:, list(agents)], cin)


def reduce_sfg(
    matrices: ModelMatrices,
    classification: AgentClassification,
    spectra: dict[int, SinkSpectrum],
) -> SfgGraph:
    """The reduced signal-flow graph: one branch per nonzero of P' and C_in."""
    red = _reduction(matrices, classification, spectra)
    branches: list[tuple[NodeKey, NodeKey, float]] = []
    for row, i in enumerate(red.agents):
        for col in np.flatnonzero(red.pprime[row]):
            branches.append((("agent", red.agents[col]), ("agent", i), float(red.pprime[row, col])))
        for r in np.flatnonzero(red.cin[row]):
            branches.append((("source", int(r)), ("agent", i), float(red.cin[row, r])))
    nodes = [("agent", i) for i in red.agents] + [("source", r) for r in range(len(red.sources))]
    return SfgGraph(
        nodes=tuple(nodes), sources=red.sources, branches=tuple(branches), reduced=True
    )


def _loop_conflicts(
    loops: list[tuple[frozenset, float]], cap: int = DEFAULT_ENUM_CAP
) -> list[set[int]]:
    if len(loops) * (len(loops) - 1) // 2 > cap:
        raise ComplexityCapExceededError(cap)
    conflicts = [set() for _ in loops]
    for a, b in itertools.combinations(range(len(loops)), 2):
        if loops[a][0] & loops[b][0]:
            conflicts[a].add(b)
            conflicts[b].add(a)
    return conflicts


def _alternating_sum(
    loops: list[tuple[frozenset, float]],
    conflicts: list[set[int]],
    allowed: set[int],
    cap: int,
) -> float:
    """Sum over independent loop subsets of (-1)^|subset| * product of gains.

    Depth first over the subsets in increasing loop order, on an explicit
    stack, so a long run of non-touching loops cannot exhaust the
    interpreter's recursion limit.  A frame holds the next position to try,
    the loops blocked so far, its partial sum and the gain of the loop whose
    subsets it is expanding.
    """
    order = sorted(allowed)
    count = 0
    stack = [[0, set(), 1.0, 0.0]]
    while True:
        frame = stack[-1]
        pos, blocked = frame[0], frame[1]
        while pos < len(order) and order[pos] in blocked:
            pos += 1
        if pos == len(order):
            stack.pop()
            if not stack:
                return frame[2]
            stack[-1][2] += -stack[-1][3] * frame[2]
            continue
        idx = order[pos]
        count += 1
        if count > cap:
            raise ComplexityCapExceededError(cap)
        frame[0], frame[3] = pos + 1, loops[idx][1]
        stack.append([pos + 1, blocked | conflicts[idx] | {idx}, 1.0, 0.0])


def solve_gain(
    matrices: ModelMatrices,
    classification: AgentClassification,
    spectra: dict[int, SinkSpectrum],
) -> CollectiveInfluence:
    """All gains at once by solving the reduced node equations (I - P')C = C_in."""
    red = _reduction(matrices, classification, spectra)
    try:
        c = np.linalg.solve(np.eye(len(red.agents)) - red.pprime, red.cin)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("unit-gain loop among non-sources") from exc
    if red.agents and not np.all(np.isfinite(c)):
        raise SingularSystemError("non-finite gains; graph misreduced")
    return CollectiveInfluence(agents=red.agents, sources=red.sources, c=c)


def mason_influence(
    g: SfgGraph,
    enum_cap: int = DEFAULT_ENUM_CAP,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> CollectiveInfluence:
    """The full c matrix via Mason's formula, gain = Σ_paths gain·Δ_path / Δ.

    Δ_path is the alternating sum over the loops the path does not touch.
    The caps apply in turn to the loops, their pairs, each alternating sum
    and the paths walked from one source.
    """
    nxg = g.to_networkx()
    loops = []
    for cyc in nx.simple_cycles(nxg):
        gain = 1.0
        for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
            gain *= nxg[a][b]["gain"]
        loops.append((frozenset(cyc), gain))
        if len(loops) > enum_cap:
            raise ComplexityCapExceededError(enum_cap)
    conflicts = _loop_conflicts(loops, enum_cap)
    delta = _alternating_sum(loops, conflicts, set(range(len(loops))), subset_cap)
    if delta == 0.0 or not np.isfinite(delta):
        raise SingularSystemError(f"Mason's graph determinant is {delta}")

    touches = dict.fromkeys(nxg, 0)  # node -> bit mask of the loops through it
    for k, (nodes, _) in enumerate(loops):
        for node in nodes:
            touches[node] |= 1 << k
    cofactors = {0: delta}  # bit mask of touched loops -> cofactor

    agents = g.nonsource_agents()
    row = {("agent", i): k for k, i in enumerate(agents)}
    c = np.zeros((len(agents), len(g.sources)))
    for r in range(len(g.sources)):
        src = ("source", r)
        on_path = {src}
        stack = [(src, iter(nxg[src].items()), 1.0, 0)]
        walked = 0
        while stack:
            node, succ, gain, touched = stack[-1]
            for nxt, data in succ:
                if nxt not in on_path:
                    break
            else:
                stack.pop()
                on_path.remove(node)
                continue
            walked += 1
            if walked > enum_cap:
                raise ComplexityCapExceededError(enum_cap)
            gain *= data["gain"]
            touched |= touches[nxt]
            if touched not in cofactors:
                allowed = {k for k in range(len(loops)) if not touched >> k & 1}
                cofactors[touched] = _alternating_sum(loops, conflicts, allowed, subset_cap)
            c[row[nxt], r] += gain * cofactors[touched]
            on_path.add(nxt)
            stack.append((nxt, iter(nxg[nxt].items()), gain, touched))
    c /= delta
    return CollectiveInfluence(agents=agents, sources=g.sources, c=c)


def individual_influence(
    c: CollectiveInfluence,
    classification: AgentClassification,
    spectra: dict[int, SinkSpectrum],
) -> InfluenceMatrix:
    """Assemble the per-agent influence matrix Θ = G·W from collective gains.

    G (n x s) holds the gain rows of non-source agents and the fold rows of
    agents folded into a collective source; rows of deleted agents stay 0.
    W (s x n) maps each source back to its agents: 1 for a singleton leader
    or a stubborn initial opinion, w_j for a cooperative sink and ±w_j for
    the two sides of a balanced sink, w being the sink's left eigenvector.
    """
    n = len(classification.perm)
    g = _fold_matrix(c.sources, n)
    g[list(c.agents)] = c.c
    w = np.zeros((len(c.sources), n))
    for r, spec in enumerate(c.sources):
        if spec.kind in (SourceKind.SINGLETON_LEADER, SourceKind.STUBBORN_INITIAL):
            w[r, spec.agent] = 1.0
        else:
            spectrum = spectra[spec.sink]
            w[r, list(spectrum.members)] = -spectrum.w if spec.side == -1 else spectrum.w
    return InfluenceMatrix(theta=g @ w)
