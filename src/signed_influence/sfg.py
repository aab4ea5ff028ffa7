"""Signal-flow graphs for influence quantification.

The steady-state equations are encoded as a signal-flow graph whose branch
direction is the reverse of the information flow in the network.  The full
graph carries one node per final opinion plus one per stubborn initial
opinion; the reduced graph collapses stubborn-free sinks into collective
sources so every influential agent (group) is represented by a source.
Both graphs come from `_graph`, which reads the CSR rows of the non-source
agents alone and emits their branches from one sorted list of terms; the
reduced graph's non-source agents are K, the agents `solve_gain` solves
for.  Every graph and gain route takes the prepared `dynamics.Model`; of
these, only Θ reads its sink spectra: neither graph nor the solve does.

The production route builds neither: `solve_gain` makes the steady
state's complement solve (`dynamics._complete`) with the fold rows given,
and `individual_influence` keeps Θ as columns of one n x S matrix H:
agent j's column of Θ is a factor (1, or the sink's w_j) times one column
of H, and it is the one place that reads the source kinds and the sink
spectra to say which.  The centrality reads H's column norms; the n x n Θ
is built only when read, by one gather of H's columns.  Mason's
formula is the paper's method and the oracle the solve is checked
against (`--method mason`; the default `auto` is the solve); the
`SfgGraph` is built only for it and for DOT export.  `mason_influence`
enumerates the loops (Johnson's elementary circuits, on successor lists
read off the branches), their conflicts and the graph determinant Δ once
per graph, walks each source's simple paths once and memoises each path's
cofactor on the loops the path touches.  Loops in different components
of the loop-conflict graph never touch, so Δ and every cofactor are
products over the components, and each component's alternating sum is
walked on its own loops and memoised on those of them the path touches.
One walker, `_walk`, visits the sets of non-touching loops both to count
them and to sum them.  Before any sum the sets a single sum over all the
loops would visit are counted, the product over the components, and a
count over the cap raises `ComplexityCapExceededError` as a capped loop,
pair or path enumeration does; Δ or a cofactor that cancels to fewer than
8 significant digits (as when γ nears 1 at followers) raises
`SingularSystemError`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from .dynamics import Model, ModelMatrices, _complete, _entries, _solved_agents
from .errors import ComplexityCapExceededError, SingularSystemError
from .graph import AgentClassification, SinkKind, strong_components

NodeKey = tuple[str, int]  # ("agent", i) | ("source", r)

DEFAULT_ENUM_CAP = 1_000_000
DEFAULT_SUBSET_CAP = 100_000
# an alternating sum smaller than this share of its terms' |sum| has lost
# more than 8 of its ~16 digits to cancellation
_MIN_RELATIVE_SUM = 1e-8


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

    def label(self, name: Callable[[int], str] = str) -> str:
        """The source's name, with ``name(i)`` for agent i."""
        if self.kind == SourceKind.SINGLETON_LEADER:
            return f"leader {name(self.agent)}"
        if self.kind == SourceKind.STUBBORN_INITIAL:
            return f"x{name(self.agent)}(0)"
        if self.kind == SourceKind.COOPERATIVE_SINK:
            return f"S_{self.sink + 1}"
        sign = "+" if self.side == 1 else "-"
        return f"S_{self.sink + 1} ({sign})"


@dataclass(frozen=True)
class SfgGraph:
    nodes: tuple[NodeKey, ...]
    sources: tuple[SourceSpec, ...]  # index r matches ("source", r) nodes
    branches: tuple[tuple[NodeKey, NodeKey, float], ...]

    def nonsource_agents(self) -> tuple[int, ...]:
        return tuple(i for tag, i in self.nodes if tag == "agent")


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
    """The influence matrix Θ, kept as columns of one n x S matrix ``h``.

    Θ[:, agents[k]] = factor[k] · h[:, column[k]], and every other column
    of Θ is 0.  ``h`` holds G, the gains of the non-source agents, the fold
    rows of the agents folded into a collective source and zero rows for
    the deleted agents, with each balanced pair's + column replaced by
    G_r − G_{r+1}.  ``factor`` is 1 for a singleton leader or a stubborn
    initial opinion and w_j for a member j of a cooperative or balanced
    sink, w being the sink's left eigenvector.  The n x n ``theta`` is
    built anew on each read and not kept, so it lives only while its
    reader holds it.
    """

    h: np.ndarray
    agents: np.ndarray  # the agents whose column of Θ is not 0
    column: np.ndarray  # the column of h that each one's is a multiple of
    factor: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        """Θ itself, n x n: one gather of h's columns, scaled in place."""
        theta = np.zeros((len(self.h), len(self.h)))
        block = self.h[:, self.column]
        block *= self.factor
        theta[:, self.agents] = block
        return theta


def source_catalog(classification: AgentClassification) -> tuple[SourceSpec, ...]:
    """Deterministic source ordering: singleton leaders, cooperative sinks,
    balanced partition pairs (+ side first), then stubborn initial opinions.

    One pass over the stubborn-free balanced sinks, by kind in `SinkKind`'s
    order and then by index; the stubborn agents come last, by id.
    """
    cls = classification
    order = list(SinkKind)  # singleton leaders, cooperative, then balanced sinks
    sources: list[SourceSpec] = []
    for sink in sorted(cls.influence_free_sinks, key=lambda s: (order.index(cls.sink_kind[s]), s)):
        members, kind = cls.sinks[sink], cls.sink_kind[sink]
        if kind == SinkKind.SINGLETON_LEADER:
            sources.append(
                SourceSpec(SourceKind.SINGLETON_LEADER, agent=members[0], sink=sink, members=members)
            )
        elif kind == SinkKind.COOPERATIVE:
            sources.append(SourceSpec(SourceKind.COOPERATIVE_SINK, sink=sink, members=members))
        else:
            sources += [
                SourceSpec(SourceKind.BALANCED_PARTITION, sink=sink, side=side,
                           members=tuple(m for m in members if cls.sigma[m] == side))
                for side in (1, -1)
            ]
    sources += [
        SourceSpec(SourceKind.STUBBORN_INITIAL, agent=agent, members=(agent,))
        for agent in sorted(cls.stubborn)
    ]
    return tuple(sources)


def _fold_matrix(sources: tuple[SourceSpec, ...], n: int) -> np.ndarray:
    """F[j, r] = 1 when agent j is folded into collective source r."""
    fold = np.zeros((n, len(sources)))
    for r, spec in enumerate(sources):
        if spec.kind != SourceKind.STUBBORN_INITIAL:
            fold[list(spec.members), r] = 1.0
    return fold


def _stubborn_inputs(sources: tuple[SourceSpec, ...]) -> tuple[list[int], list[int]]:
    """The agent and the column of each stubborn-initial source; beta_i enters there."""
    pairs = [(s.agent, r) for r, s in enumerate(sources) if s.kind == SourceKind.STUBBORN_INITIAL]
    return [a for a, _ in pairs], [r for _, r in pairs]


def _graph(
    matrices: ModelMatrices, sources: tuple[SourceSpec, ...], agents: Sequence[int]
) -> SfgGraph:
    """The signal-flow graph whose non-source nodes are ``agents``, sorted.

    Only their rows of P are read.  Entry p_ij feeds agent j's node, the
    collective source j is folded into (any source but a stubborn-initial
    one) or, for a deleted agent, nothing; beta_i feeds agent i's
    stubborn-initial source.  The terms are sorted once, by row and then
    agents before sources, and a row's entries into one source add in
    column order; a term that adds to 0 has no branch.
    """
    agents = np.asarray(agents, dtype=np.intp)
    width = len(agents) + len(sources)
    term = np.full(matrices.n, -1)  # the term column j feeds in its row's equation
    term[agents] = np.arange(len(agents))
    for r, spec in enumerate(sources):
        if spec.kind != SourceKind.STUBBORN_INITIAL:
            term[list(spec.members)] = len(agents) + r
    idx, counts = _entries(matrices.indptr, agents)
    to = term[matrices.cols[idx]]
    stubborn, columns = _stubborn_inputs(sources)
    keys, at = np.unique(np.concatenate([
        (np.arange(len(agents)).repeat(counts) * width + to)[to >= 0],
        agents.searchsorted(stubborn) * width + len(agents) + np.array(columns, dtype=int),
    ]), return_inverse=True)
    gains = np.bincount(at, np.concatenate([matrices.vals[idx[to >= 0]], matrices.beta[stubborn]]))
    rows, terms = np.divmod(keys[gains != 0], width)
    nodes = [("agent", i) for i in agents.tolist()]
    nodes += [("source", r) for r in range(len(sources))]
    branches = zip(terms.tolist(), rows.tolist(), gains[gains != 0].tolist())
    return SfgGraph(tuple(nodes), sources, tuple((nodes[t], nodes[r], g) for t, r, g in branches))


def build_full_sfg(model: Model) -> SfgGraph:
    """One node per final opinion plus one source per stubborn initial opinion.

    Non-stubborn singleton leaders are sources (their row reads y_i = y_i,
    so it has no branch); every other agent node is a non-source.
    """
    kinds = (SourceKind.SINGLETON_LEADER, SourceKind.STUBBORN_INITIAL)
    sources = tuple(s for s in source_catalog(model.classification) if s.kind in kinds)
    leaders = {s.agent for s in sources if s.kind == SourceKind.SINGLETON_LEADER}
    return _graph(model.matrices, sources, [i for i in range(model.matrices.n) if i not in leaders])


def reduce_sfg(model: Model) -> SfgGraph:
    """The reduced signal-flow graph: stubborn-free sinks folded into sources.

    Singleton leaders stay single sources, cooperative stubborn-free sinks
    become one source, balanced ones a pair (one per partition), members of
    stubborn-free unbalanced sinks are deleted, and members of sinks with
    any stubborn leader remain ordinary non-source nodes.  So the non-source
    agents are K, the agents `solve_gain` returns rows for; the graph is
    read off the structure alone, and no sink spectrum is computed.
    """
    cls = model.classification
    return _graph(model.matrices, source_catalog(cls), _solved_agents(cls))


def _adjacency(g: SfgGraph) -> tuple[dict[NodeKey, int], list[dict[int, float]]]:
    """Each node's position in key order, and per position its successors'
    positions mapped to the branch gains, in branch order."""
    pos = {key: k for k, key in enumerate(sorted(g.nodes))}
    out = [{} for _ in pos]
    for src, dst, gain in g.branches:
        out[pos[src]][pos[dst]] = gain
    return pos, out


def _circuits(succ: Sequence[Collection[int]], cap: int) -> list[list[int]]:
    """The elementary circuits of the digraph on 0..n-1, each from its least node.

    Johnson's algorithm (SIAM J. Comput. 1975).  The circuits through the
    least node s of a strong component are walked depth first from s; a
    node stays blocked while no unblocked path from it leads back to s, so
    no walk enters a dead end twice.  Then s is removed and the rest split
    into strong components again.  A self-loop is a circuit of its own.
    Finding a circuit past ``cap`` raises at once.
    """
    circuits = []

    def found(circuit: list[int]) -> None:
        circuits.append(circuit)
        if len(circuits) > cap:
            raise ComplexityCapExceededError(cap, "loops")

    def parts(nodes) -> list[list[int]]:
        """The strong components of two or more nodes among ``nodes``, sorted."""
        pos = {v: k for k, v in enumerate(nodes)}
        arcs = ((pos[v], pos[w]) for v in nodes for w in succ[v] if w in pos and w != v)
        comps = strong_components(len(pos), arcs)
        return [[nodes[k] for k in comp] for comp in comps if len(comp) > 1]

    for v, ws in enumerate(succ):
        if v in ws:
            found([v])
    work = parts(range(len(succ)))
    while work:
        comp = work.pop()
        s, inside = comp[0], set(comp)
        local = {v: [w for w in succ[v] if w in inside and w != v] for v in comp}
        blocked, waiting, path = {s}, {}, [s]
        stack = [[iter(local[s]), False]]  # per node on the path: successors left, found
        while stack:
            frame = stack[-1]
            for w in frame[0]:
                if w == s:
                    found(path.copy())
                    frame[1] = True
                elif w not in blocked:
                    blocked.add(w)
                    path.append(w)
                    stack.append([iter(local[w]), False])
                    break
            else:
                stack.pop()
                v = path.pop()
                if frame[1]:  # v leads back to s: unblock it and whoever waits on it
                    todo = [v]
                    while todo:
                        u = todo.pop()
                        if u in blocked:
                            blocked.discard(u)
                            todo.extend(waiting.pop(u, ()))
                    if stack:
                        stack[-1][1] = True
                else:
                    for w in local[v]:
                        waiting.setdefault(w, set()).add(v)
        work.extend(parts(comp[1:]))
    return circuits


def _loop_conflicts(loops: list[frozenset[int]], cap: int) -> list[set[int]]:
    """conflicts[k]: the loops that share a node with loop k, k included.

    Read off a node -> loops map, so the cost follows the loops through
    each node; the number of loop pairs is capped before anything is built.
    """
    if len(loops) * (len(loops) - 1) // 2 > cap:
        raise ComplexityCapExceededError(cap, "loop pairs")
    through: dict[int, list[int]] = {}
    for k, nodes in enumerate(loops):
        for node in nodes:
            through.setdefault(node, []).append(k)
    conflicts = [set() for _ in loops]
    for ks in through.values():
        for k in ks:
            conflicts[k].update(ks)
    return conflicts


def _loop_groups(conflicts: list[set[int]]) -> Iterator[list[int]]:
    """The connected components of the loop-conflict graph, each sorted.

    Taken by least loop, each found only when the next is asked for, by a
    search from the least loop not yet seen.
    """
    seen = [False] * len(conflicts)
    for least in range(len(conflicts)):
        if seen[least]:
            continue
        seen[least], group = True, [least]
        for k in group:  # grows as the search reaches new loops
            for j in conflicts[k]:
                if not seen[j]:
                    seen[j] = True
                    group.append(j)
        group.sort()
        yield group


def _count_loop_sets(conflicts: list[set[int]], cap: int) -> int:
    """The number of nonempty sets of pairwise non-touching loops, capped.

    The sets factor over the connected components of the conflict graph
    (`_loop_groups`): there are Π_c I_c − 1 of them, I_c counting component
    c's sets with the empty one.  Each component is found only when the
    product reaches it, so a count that passes the cap early reads no
    further conflicts.  `_walk` counts each component's sets with zero
    gains, only as far as the cap leaves room for, and the product stops
    as soon as it passes the cap.  Mason's sums run per component, each
    over at most I_c − 1 sets, but the cap stays on the product: the
    number of sets a single sum over all the loops would visit.
    """
    product, zeros = 1, [0.0] * len(conflicts)
    for group in _loop_groups(conflicts):
        product *= 1 + _walk(zeros, conflicts, group, (cap + 1) // product - 1)[1]
        if product - 1 > cap:
            raise ComplexityCapExceededError(cap, "sets of non-touching loops", product - 1)
    return product - 1


def _walk(
    gains: list[float], conflicts: list[set[int]], order: Sequence[int], limit: float
) -> tuple[float, int]:
    """Sum over the sets of non-touching loops among ``order`` of
    (-1)^|set| * product of gains, and the number of nonempty sets visited.

    Depth first over the sets in increasing position in ``order``, on an
    explicit stack, so a long run of non-touching loops cannot exhaust the
    interpreter's recursion limit.  A frame holds the next position to try,
    the loops blocked so far, its partial sum and the gain of the loop whose
    sets it is expanding.  The walk stops as soon as it visits more than
    ``limit`` sets, and then the sum is NaN.
    """
    stack, visited = [[0, set(), 1.0, 0.0]], 0
    while True:
        frame = stack[-1]
        pos, blocked = frame[0], frame[1]
        while pos < len(order) and order[pos] in blocked:
            pos += 1
        if pos == len(order):
            stack.pop()
            if not stack:
                return frame[2], visited
            stack[-1][2] += -stack[-1][3] * frame[2]
            continue
        visited += 1
        if visited > limit:
            return math.nan, visited
        idx = order[pos]
        frame[0], frame[3] = pos + 1, gains[idx]
        stack.append([pos + 1, blocked | conflicts[idx], 1.0, 0.0])


def _alternating_sum(gains: list[float], conflicts: list[set[int]], order: Sequence[int]) -> float:
    """One group's factor of Δ, a cofactor or its Σ|terms|: the walk over the sets
    of the loops ``order``, uncapped here because `_count_loop_sets` capped
    their number before any sum."""
    return _walk(gains, conflicts, order, math.inf)[0]


class _Cofactors(dict):
    """Mason's Δ and cofactors, by the loops a path touches.

    ``self[touched]``, ``touched`` a bit mask of loops, is the alternating
    sum over the sets of non-touching loops that touch none of them, so
    ``self[0]`` is Δ; each is summed on its first lookup.  Loops in
    different groups (`_loop_groups`) never touch, so the sum is the
    product, in group order, of each group's sum over its loops left, and
    each group's sum is memoised on the loops of it that are touched.  A
    product that keeps fewer than 8 significant digits of its Σ|terms|,
    the product of the groups' Σ|terms|, raises `SingularSystemError`.
    """

    def __init__(self, gains: list[float], conflicts: list[set[int]], groups: list[list[int]]):
        super().__init__()
        self.gains, self.conflicts, self.groups = gains, conflicts, groups
        self.flipped = [-abs(gain) for gain in gains]  # turns every term of a sum into its |term|
        self.masks = [sum(1 << k for k in group) for group in groups]
        self.sums = {}  # (of |terms|, group, its loops touched) -> the group's sum

    def _product(self, weights: list[float], touched: int) -> float:
        total = 1.0
        for c, group in enumerate(self.groups):
            key = (weights is self.flipped, c, touched & self.masks[c])
            if key not in self.sums:
                left = [k for k in group if not key[2] >> k & 1]
                self.sums[key] = _alternating_sum(weights, self.conflicts, left)
            total *= self.sums[key]
        return total

    def __missing__(self, touched: int) -> float:
        total = self._product(self.gains, touched)
        if not np.isfinite(total):
            raise SingularSystemError(f"Mason's alternating sum is {total}")
        # Σ|terms| <= Π(1 + |g|); only a sum that bound cannot clear pays for Σ|terms|
        bound = math.prod(1.0 + abs(g) for k, g in enumerate(self.gains) if not touched >> k & 1)
        if abs(total) < _MIN_RELATIVE_SUM * bound:
            scale = self._product(self.flipped, touched)
            if abs(total) < _MIN_RELATIVE_SUM * scale:
                raise SingularSystemError(
                    f"Mason's alternating sum cancels to {total:.3g} of {scale:.3g}"
                )
        self[touched] = total
        return total


def solve_gain(model: Model) -> CollectiveInfluence:
    """All gains at once by one complement solve of X = P X + R.

    X is given as the fold matrix on the stubborn-free sinks, R is beta_i at
    stubborn agent i in its stubborn-initial column, and c is X on the
    non-source agents, K, read sorted off the model.  One n x S array holds
    both.
    """
    sources = source_catalog(model.classification)
    x = _fold_matrix(sources, model.matrices.n)
    stubborn, columns = _stubborn_inputs(sources)
    x[stubborn, columns] = model.matrices.beta[stubborn]
    x = _complete(model, x)
    agents = model._agents
    return CollectiveInfluence(agents=tuple(agents.tolist()), sources=sources, c=x[agents])


def mason_influence(
    g: SfgGraph,
    enum_cap: int = DEFAULT_ENUM_CAP,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> CollectiveInfluence:
    """The full c matrix via Mason's formula, gain = Σ_paths gain·Δ_path / Δ.

    Δ_path is the alternating sum over the loops the path does not touch.
    Loops are taken in a canonical order, so c is the same in every process.
    The caps are decided in turn: ``enum_cap`` on the loops as they are
    enumerated, then on their pairs before the conflicts are built;
    ``subset_cap`` on the sets of non-touching loops, counted by
    `_count_loop_sets` before any sum as the product over the loop groups
    (each group's sum visits at most that many); ``enum_cap`` again on the
    paths walked from one source.  Δ and the cofactors are products of the
    groups' sums (`_Cofactors`); one that keeps fewer than 8 significant
    digits raises `SingularSystemError`.
    """
    pos, out = _adjacency(g)
    loops = []
    for cyc in sorted(_circuits(out, enum_cap)):
        gain = 1.0
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            gain *= out[a][b]
        loops.append((frozenset(cyc), gain))
    conflicts = _loop_conflicts([nodes for nodes, _ in loops], enum_cap)
    _count_loop_sets(conflicts, subset_cap)
    cofactors = _Cofactors([gain for _, gain in loops], conflicts, list(_loop_groups(conflicts)))
    delta = cofactors[0]

    touches = [0] * len(pos)  # node -> bit mask of the loops through it
    for k, (nodes, _) in enumerate(loops):
        for node in nodes:
            touches[node] |= 1 << k

    agents = g.nonsource_agents()
    row = {pos["agent", i]: k for k, i in enumerate(agents)}
    c = np.zeros((len(agents), len(g.sources)))
    for r in range(len(g.sources)):
        src = pos["source", r]
        on_path = {src}
        stack = [(src, iter(out[src].items()), 1.0, 0)]
        walked = 0
        while stack:
            node, succ, gain, touched = stack[-1]
            for nxt, branch_gain in succ:
                if nxt not in on_path:
                    break
            else:
                stack.pop()
                on_path.remove(node)
                continue
            walked += 1
            if walked > enum_cap:
                raise ComplexityCapExceededError(enum_cap, "paths from one source")
            gain *= branch_gain
            touched |= touches[nxt]
            c[row[nxt], r] += gain * cofactors[touched]
            on_path.add(nxt)
            stack.append((nxt, iter(out[nxt].items()), gain, touched))
    c /= delta
    return CollectiveInfluence(agents=agents, sources=g.sources, c=c)


def individual_influence(c: CollectiveInfluence, model: Model) -> InfluenceMatrix:
    """The per-agent influence matrix Θ of the collective gains, as columns of H.

    G (n x S) is c's gain rows for the non-source agents, the fold rows of
    the agents folded into a collective source and zero rows for the
    deleted agents.  Θ = G·W, where W maps each source back to its agents
    with the factor 1, w_j or, for the two sides of a balanced sink, ±w_j;
    so a balanced sink member's column of Θ is (G_r − G_{r+1})·w_j, and H
    is G with that difference in the pair's + column.  Nothing n x n is
    built here: `InfluenceMatrix.theta` is, when read.
    """
    h = _fold_matrix(c.sources, model.matrices.n)
    h[list(c.agents)] = c.c
    agents, column, factor = [], [], []
    for r, spec in enumerate(c.sources):
        if spec.kind in (SourceKind.SINGLETON_LEADER, SourceKind.STUBBORN_INITIAL):
            members, w = (spec.agent,), [1.0]
        elif spec.side == -1:  # the pair's + side, source r - 1, carries its sink
            h[:, r - 1] -= h[:, r]
            continue
        else:
            spectrum = model.spectra[spec.sink]
            members, w = spectrum.members, spectrum.w.tolist()
        agents += members
        column += [r] * len(members)
        factor += w
    return InfluenceMatrix(h=h, agents=np.array(agents, dtype=int),
                           column=np.array(column, dtype=int), factor=np.array(factor))
