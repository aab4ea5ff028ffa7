"""Scalable synthetic signed networks for the benchmark.

Agents 0..m-1 are followers.  Each listens to about five later agents
with random sign, so the followers form a DAG that drains into the sinks.
The last 5k agents form k ~ n/100 sinks of five members whose kinds rotate
through cooperative, balanced, cooperative with one stubborn member, and
unbalanced.  About 10 % of the followers are stubborn, with gamma+beta < 1.

The output depends only on (n, seed): the same pair gives the same spec
bytes, which is what the benchmark writes and the CLI reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from signed_influence import AgentParams, SignedNetwork, SinkKind, build_network

SINK_SIZE = 5
OUT_DEGREE = 5
STUBBORN_SHARE = 0.1
# planned kind -> (the kind classify must report, whether one member is stubborn)
SINK_ROTATION = (
    ("cooperative", SinkKind.COOPERATIVE, False),
    ("balanced", SinkKind.BALANCED, False),
    ("cooperative-stubborn", SinkKind.COOPERATIVE, True),
    ("unbalanced", SinkKind.UNBALANCED, False),
)


@dataclass(frozen=True)
class SynthNetwork:
    net: SignedNetwork
    params: AgentParams
    x0: np.ndarray
    follower_count: int
    sinks: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]  # planned kind of each sink, from SINK_ROTATION


def sink_count(n: int) -> int:
    return max(1, round(n / 100))


def _weight(rng, sign: int) -> float:
    return float(sign * rng.uniform(0.5, 2.0))


def _sink_edges(rng, kind: str, members: list[int]) -> list[tuple[int, int, float]]:
    """A directed ring plus two chords; signs follow the planned kind."""
    k = len(members)
    if kind == "balanced":
        # both sides occupied, so at least one internal edge is negative
        sides = [1, -1] + [int(rng.choice([1, -1])) for _ in range(k - 2)]
    else:
        sides = [1] * k
    pairs = [(idx, (idx + 1) % k) for idx in range(k)]
    pairs += [(idx, (idx + 2) % k) for idx in rng.choice(k, size=2, replace=False)]
    edges = []
    for a, b in pairs:
        sign = sides[a] * sides[b]
        if kind == "unbalanced" and (a, b) == (0, 1):
            sign = -1  # one negative edge on a positive ring: an odd cycle
        edges.append((members[a], members[b], _weight(rng, sign)))
    return edges


def synth_network(n: int, seed: int) -> SynthNetwork:
    """A weakly connected network of n agents, deterministic in (n, seed)."""
    k = sink_count(n)
    m = n - SINK_SIZE * k
    if m < 1:
        raise ValueError(f"n={n} leaves no followers for {k} sinks of {SINK_SIZE}")
    rng = np.random.default_rng([n, seed])

    sinks = tuple(tuple(range(m + SINK_SIZE * s, m + SINK_SIZE * (s + 1))) for s in range(k))
    kinds = tuple(SINK_ROTATION[s % len(SINK_ROTATION)][0] for s in range(k))
    edges: list[tuple[int, int, float]] = []
    for members, kind in zip(sinks, kinds):
        edges.extend(_sink_edges(rng, kind, list(members)))

    # Followers listen forward only: to f+1 (a chain that keeps the graph
    # weakly connected) and otherwise to sink members.  A second follower
    # target would make the number of simple paths grow exponentially in m;
    # with one, path enumeration stays small and what makes Mason
    # infeasible is its loop-subset sum over the m follower self-loops,
    # which never touch each other (2**m terms).
    targets = {f: set() for f in range(m)}
    for f in range(m - 1):
        targets[f].add(f + 1)
    for members in sinks:  # every sink is listened to
        targets[int(rng.integers(0, m))].add(int(rng.choice(members)))
    for f in range(m):
        while len(targets[f]) < OUT_DEGREE:
            targets[f].add(int(rng.integers(m, n)))
        for t in sorted(targets[f]):
            edges.append((f, t, _weight(rng, int(rng.choice([1, -1])))))

    gamma = np.zeros(n)
    beta = np.zeros(n)
    gamma[:m] = rng.uniform(0.05, 0.5, size=m)
    stubborn = rng.choice(m, size=max(1, round(STUBBORN_SHARE * m)), replace=False)
    for f in stubborn:
        beta[f] = rng.uniform(0.1, min(0.4, 0.9 - gamma[f]))
    for members, kind in zip(sinks, kinds):
        gamma[list(members)] = rng.uniform(0.1, 0.6, size=len(members))
        if kind == "cooperative-stubborn":
            beta[members[0]] = rng.uniform(0.1, 0.3)
    x0 = rng.uniform(-10.0, 10.0, size=n)
    return SynthNetwork(
        net=build_network(n, edges),
        params=AgentParams(gamma=tuple(float(g) for g in gamma),
                           beta=tuple(float(b) for b in beta)),
        x0=x0,
        follower_count=m,
        sinks=sinks,
        kinds=kinds,
    )


def spec_text(net: SignedNetwork, params: AgentParams, x0) -> str:
    """The network as a spec document the CLI loads back exactly."""
    doc = {
        "schema": "signed-influence/1",
        "n": net.n,
        "edges": [[i, j, w] for i, j, w in net.edges],
        "gamma": [float(g) for g in params.gamma],
        "beta": [float(b) for b in params.beta],
        "x0": [float(v) for v in x0],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
