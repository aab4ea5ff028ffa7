"""Signed weighted digraphs and their structural classification.

The structural layer everything else builds on: strongly connected
components, the sinks of the condensation graph, the follower / opinion
leader split, and the balance taxonomy of each sink.  `classify` finds the
sinks in one pass over the edge list and decides each sink's kind with one
two-colouring of its internal edges; the pass reads no sign, so a network
keeps what it finds, and a network with flipped signs (`_flip`) shares
it.  The graph routines are the module's own, on plain lists: union-find
for weak connectivity while `build_network` validates the edges, and an
iterative Tarjan over flat successor lists for the strongly connected
components.

Agent ids are 0-based everywhere; human-facing 1-based names, when
wanted, belong in spec-file labels.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadIdError,
    DuplicateEdgeError,
    NetworkValidationError,
    NoSuchEdgeError,
    NotWeaklyConnectedError,
    ParamConstraintViolatedError,
    SelfLoopError,
    ZeroWeightError,
)

Edge = tuple[int, int, float]
_INT = (int, np.integer)
_REAL = (float, int, np.floating, np.integer)


def _is_real(x) -> bool:
    """A real number as the library takes one: a float or an int, numpy's too, but no bool."""
    return isinstance(x, _REAL) and not isinstance(x, bool)


def _is_id(x) -> bool:
    """An agent id as the library takes one: an int, numpy's too, but no bool."""
    return isinstance(x, _INT) and not isinstance(x, bool)


class _Structure(NamedTuple):
    """What `classify` finds without reading a sign."""

    blocks: tuple[tuple[int, ...], ...]  # sorted SCC members, listeners first
    sinks: tuple[tuple[int, ...], ...]  # sorted members, sinks ordered by min id
    internal: tuple[tuple[int, ...], ...]  # per sink, the positions in edges of its own edges


@dataclass(frozen=True)
class SignedNetwork:
    """A signed weighted digraph without self-loops.

    An edge ``(i, j, w)`` means agent ``i`` listens to agent ``j`` with
    signed weight ``w`` (the adjacency entry ``A[i, j]``).

    What depends on the edge pattern alone, never on a sign, is computed
    once per network, when first read: the out-degrees, the SCCs in
    condensation order, the sinks and the edges inside each sink
    (`_structure`, which `classify` reads), and each edge's position in
    ``edges`` (`_position`).  A sign flip keeps the pattern, so `_flip`
    hands the last two to the flipped network, and classifying that one
    costs only the two-colouring of its sinks.

    The network also remembers the last model `dynamics.prepare` made of
    it, with the `AgentParams` object it was made for: a later call with
    that same object, from any analysis or what-if function, gets the same
    read-only model, and any other params object prepares it anew.
    """

    n: int
    edges: tuple[Edge, ...]
    weakly_connected: bool

    @cached_property
    def out_degree(self) -> np.ndarray:
        listeners = np.fromiter((i for i, _, _ in self.edges), dtype=int, count=len(self.edges))
        return np.bincount(listeners, minlength=self.n)

    @cached_property
    def _structure(self) -> _Structure:
        """The SCCs from `strong_components`, then one pass over the edges.

        An edge inside an SCC is internal to it, one between SCCs rules out
        its listener's SCC as a sink; the sinks are the SCCs left.
        """
        comps = strong_components(self.n, self.edges)
        comp_of = [0] * self.n
        for idx, comp in enumerate(comps):
            for node in comp:
                comp_of[node] = idx
        internal = {}
        has_out = [False] * len(comps)
        for k, (i, j, _) in enumerate(self.edges):
            ci = comp_of[i]
            if ci == comp_of[j]:
                internal.setdefault(ci, []).append(k)
            else:
                has_out[ci] = True
        sink_comps = [c for c, out in enumerate(has_out) if not out]
        sink_comps.sort(key=lambda c: comps[c][0])
        return _Structure(
            blocks=tuple(comps),
            sinks=tuple(comps[c] for c in sink_comps),
            internal=tuple(tuple(internal.get(c, ())) for c in sink_comps),
        )

    @cached_property
    def _position(self) -> dict[tuple[int, int], int]:
        return {(i, j): k for k, (i, j, _) in enumerate(self.edges)}


@dataclass(frozen=True)
class AgentParams:
    """Per-agent self-belief gamma and stubbornness beta, checked here alone, stored as floats."""

    gamma: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        for name, values in (("gamma", self.gamma), ("beta", self.beta)):
            for i, v in enumerate(values):
                if not _is_real(v):
                    raise ParamConstraintViolatedError(i, f"{name}={v!r} is not a real number")
        for i, g in enumerate(self.gamma):
            if not (0.0 <= g <= 1.0):
                raise ParamConstraintViolatedError(i, f"gamma={g} outside [0, 1]")
        for i, b in enumerate(self.beta):
            if not (0.0 <= b < 1.0):
                raise ParamConstraintViolatedError(i, f"beta={b} outside [0, 1)")
        if len(self.gamma) != len(self.beta):
            raise ParamConstraintViolatedError(
                None, f"gamma has {len(self.gamma)} entries, beta {len(self.beta)}")
        object.__setattr__(self, "gamma", tuple(map(float, self.gamma)))
        object.__setattr__(self, "beta", tuple(map(float, self.beta)))

    def stubborn_agents(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.beta) if b > 0.0)


class SinkKind(enum.Enum):
    SINGLETON_LEADER = "singleton-leader"
    COOPERATIVE = "cooperative"
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"


@dataclass(frozen=True)
class AgentClassification:
    """Follower/leader/stubborn partition and the sink taxonomy.

    The sinks are the SCCs with no edge to another SCC, found in one pass
    over the edge list.  A sink of two or more agents is two-coloured once
    over its internal edges: no colouring means unbalanced, all +1 means
    cooperative (every internal tie positive), anything else balanced,
    with that colouring as sigma.

    ``blocks`` holds the SCCs in condensation order, listeners first.  With
    the agents laid out in that order I - P is block upper triangular, which
    is what lets the steady-state and gain solve (`dynamics._complete`) run
    chunk by chunk, from the sinks back.
    """

    followers: frozenset[int]
    singleton_leaders: frozenset[int]  # agents alone in their sink
    group_leaders: frozenset[int]  # agents sharing a sink
    stubborn: frozenset[int]
    sinks: tuple[tuple[int, ...], ...]  # sorted members, sinks ordered by min id
    sink_kind: Mapping[int, SinkKind]
    sigma: Mapping[int, int]  # defined exactly on members of balanced sinks
    influence_free_sinks: frozenset[int]  # balanced and stubborn-free (S_n)
    blocks: tuple[tuple[int, ...], ...]  # sorted SCC members, listeners first

    def sink_has_stubborn(self, sink: int) -> bool:
        return any(m in self.stubborn for m in self.sinks[sink])

    @property
    def unit_eigen_count(self) -> int:
        """Multiplicity of P's unit eigenvalue: one per stubborn-free balanced sink."""
        return len(self.influence_free_sinks)

    @property
    def convergence(self) -> str:
        """Structural decision: semi-convergent iff a stubborn-free balanced sink exists."""
        return "semi-convergent" if self.influence_free_sinks else "convergent"


def build_network(n: int, edges: Iterable[tuple[int, int, float]]) -> SignedNetwork:
    """Validate and freeze a signed network: the one check of an edge, spec or not.

    The first edge in input order that fails is named.  Weak connectivity is
    decided in the same pass, by union-find (path halving, union by size).
    """
    if not (_is_id(n) and n >= 1):
        raise NetworkValidationError(f"n={n!r} must be a positive integer")
    seen = set()
    frozen = []
    parent = list(range(n))
    size = [1] * n
    parts = n
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 3):
            raise NetworkValidationError(f"edge {e!r} must be [from, to, weight]")
        i, j, w = e
        if not (_is_id(i) and _is_id(j)):
            raise BadIdError(e, f"edge {e!r}: agent ids must be integers")
        i, j = int(i), int(j)
        if not (0 <= i < n):
            raise BadIdError(i)
        if not (0 <= j < n):
            raise BadIdError(j)
        if i == j:
            raise SelfLoopError(i)
        if (i, j) in seen:
            raise DuplicateEdgeError(i, j)
        if not _is_real(w):
            raise NetworkValidationError(f"edge ({i}, {j}): weight {w!r} is not a real number")
        try:
            w = float(w)
        except OverflowError:  # an int too large for a float
            w = math.inf
        if w == 0.0 or not math.isfinite(w):
            raise ZeroWeightError(i, j)
        seen.add((i, j))
        frozen.append((i, j, w))
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            if size[i] < size[j]:
                i, j = j, i
            parent[j] = i
            size[i] += size[j]
            parts -= 1
    return SignedNetwork(n=n, edges=tuple(sorted(frozen)), weakly_connected=parts == 1)


def _flip(
    net: SignedNetwork, edges: Iterable[tuple[int, int]]
) -> tuple[SignedNetwork, dict[tuple[int, int], int]]:
    """The network with the given edges' signs negated, and each one's position in ``edges``.

    Each edge is a pair of agent ids, named once, of an edge of ``net``.
    Only signs change, so ids, order, pattern and weak connectivity stay
    valid: the new network is not validated again, and it shares ``net``'s
    sign-free cache.
    """
    position = net._position
    flip = {}
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_id, e))):
            raise BadIdError(e, f"edge {e!r} must be a pair of integer agent ids")
        i, j = e
        if (i, j) not in position:
            raise NoSuchEdgeError(i, j)
        if (i, j) in flip:
            raise DuplicateEdgeError(i, j)
        flip[i, j] = position[i, j]
    signed = list(net.edges)
    for k in flip.values():
        i, j, w = signed[k]
        signed[k] = (i, j, -w)
    flipped = SignedNetwork(n=net.n, edges=tuple(signed), weakly_connected=net.weakly_connected)
    vars(flipped).update(_structure=net._structure, _position=position)
    return flipped, flip


def strong_components(n: int, arcs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The SCCs of the digraph on 0..n-1 with the given arcs, listeners first.

    Each SCC is the sorted tuple of its members.

    An arc is a pair (i, j); anything after j, such as an edge's weight,
    is ignored, so ``net.edges`` serve as arcs as they are.

    Tarjan's algorithm (SIAM J. Comput. 1972) on an explicit stack, so a
    long chain cannot exhaust the recursion limit.  The successors are kept
    flat, node v's at succ[first[v]:first[v + 1]] in arc order, and each
    node on the DFS path keeps an int cursor into them, so the search
    allocates no per-node list or iterator.  The roots are tried in id
    order and each node's successors in arc order; the pass emits every
    SCC after all the SCCs it listens to, and that order is kept, reversed.
    This is the condensation order: the SCCs are the condensation graph's
    nodes, and `SignedNetwork._structure` reads the sinks off them with one
    pass over the edges, never building the graph itself.
    """
    arcs = sorted(arcs, key=itemgetter(0))  # stable: each node's arcs in arc order
    tails = [arc[0] for arc in arcs]
    succ = [arc[1] for arc in arcs]
    first = [bisect_left(tails, v) for v in range(n + 1)]
    cursor, end = first[:n], first[1:]  # per node: its next successor to try, and its last + 1
    done = n + 1  # the preorder of a node whose SCC is emitted: above every live one
    order = [0] * n  # preorder number from 1; 0 = not visited yet
    low = [0] * n
    stack = []  # visited nodes whose SCC is not emitted yet
    comps = []
    count = 0
    for root in range(n):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path = [root]  # the DFS path
        while path:
            v = path[-1]
            k = cursor[v]
            while k < end[v]:
                w = succ[k]
                k += 1
                if not order[w]:
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                cursor[v] = k
                path.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == order[v] and stack[-1] == v:  # the common lone node
                    stack.pop()
                    order[v] = done
                    comps.append((v,))
                elif low[v] == order[v]:
                    k = len(stack) - 1
                    while stack[k] != v:
                        k -= 1
                    comp = stack[k:]
                    del stack[k:]
                    for w in comp:
                        order[w] = done
                    comps.append(tuple(sorted(comp)))
                continue
            cursor[v] = k
            count += 1
            order[w] = low[w] = count
            stack.append(w)
            path.append(w)
    return comps[::-1]


def _two_colour(members: Sequence[int], internal: Iterable[Edge]) -> dict[int, int] | None:
    """sigma with ``sigma_i * sigma_j == sign(a_ij)`` on every internal edge, or None.

    Each edge is read in both directions, so (i, j) and (j, i) of opposite
    signs leave no colouring.  Every undirected component is anchored at +1
    on its lowest member, members[0] first, so the labelling is canonical.
    """
    adj = {m: [] for m in members}
    for i, j, w in internal:
        s = 1 if w > 0 else -1
        adj[i].append((j, s))
        adj[j].append((i, s))

    sigma = {}
    for start in members:
        if start in sigma:
            continue
        sigma[start] = 1
        queue = [start]
        while queue:
            u = queue.pop()
            for v, s in adj[u]:
                want = sigma[u] * s
                if v not in sigma:
                    sigma[v] = want
                    queue.append(v)
                elif sigma[v] != want:
                    return None
    return sigma


def classify(net: SignedNetwork, params: AgentParams) -> AgentClassification:
    """Full agent and sink classification for a weakly connected network.

    The SCCs, the sinks and each sink's internal edges are read from the
    network's sign-free cache (`SignedNetwork`), found once per network;
    each sink's kind and sigma, which read the signs, are decided on every
    call.
    """
    if not net.weakly_connected:
        raise NotWeaklyConnectedError("network must be weakly connected")
    if len(params.gamma) != net.n:
        raise ParamConstraintViolatedError(
            None, f"parameters for {len(params.gamma)} agents, network has {net.n}")

    blocks, sinks, internal = net._structure
    singleton = frozenset(ms[0] for ms in sinks if len(ms) == 1)
    group = frozenset(m for ms in sinks if len(ms) > 1 for m in ms)
    followers = frozenset(range(net.n)).difference(*sinks)
    stubborn = frozenset(params.stubborn_agents())

    for i in np.flatnonzero(np.add(params.gamma, params.beta) >= 1.0).tolist():
        if net.out_degree[i] > 0:  # the degrees are counted only when some sum reaches 1
            raise ParamConstraintViolatedError(
                i, f"gamma+beta={params.gamma[i] + params.beta[i]} must be < 1"
                " at an agent that listens to others",
            )
    for i in group:
        if params.gamma[i] <= 0.0:
            raise ParamConstraintViolatedError(i, "group opinion leaders need gamma > 0")

    sink_kind = {}
    sigma = {}
    for idx, members in enumerate(sinks):
        if len(members) == 1:
            sink_kind[idx] = SinkKind.SINGLETON_LEADER
            continue
        colour = _two_colour(members, map(net.edges.__getitem__, internal[idx]))
        if colour is None:
            sink_kind[idx] = SinkKind.UNBALANCED
        elif all(s == 1 for s in colour.values()):  # strongly connected: every tie positive
            sink_kind[idx] = SinkKind.COOPERATIVE
        else:
            sink_kind[idx] = SinkKind.BALANCED
            sigma.update(colour)
    influence_free = frozenset(
        idx
        for idx, kind in sink_kind.items()
        if kind != SinkKind.UNBALANCED and stubborn.isdisjoint(sinks[idx])
    )

    return AgentClassification(
        followers=followers,
        singleton_leaders=singleton,
        group_leaders=group,
        stubborn=stubborn,
        sinks=sinks,
        sink_kind=sink_kind,
        sigma=sigma,
        influence_free_sinks=influence_free,
        blocks=blocks,
    )
