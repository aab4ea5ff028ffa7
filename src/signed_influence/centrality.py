"""Absolute influence centrality and what-if perturbation experiments."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Model, ModelMatrices, prepare, steady_state
from .errors import BadIdError, DuplicateEdgeError, NoSuchEdgeError, ZeroDeltaError
from .graph import AgentParams, SignedNetwork, classify
from .sfg import InfluenceMatrix


@dataclass(frozen=True)
class CentralityResult:
    scores: np.ndarray  # absolute influence of each agent on the whole network
    ranking: tuple[int, ...]  # agent ids, most influential first, ties by id
    most_influential: int


@dataclass(frozen=True)
class PerturbationResult:
    """Steady-state response to nudging one initial opinion by delta."""

    agent: int
    delta: float
    z_base: np.ndarray
    z_perturbed: np.ndarray
    deviation_per_unit: float  # ||z' - z||_1 / |x0'[agent] - x0[agent]|


@dataclass(frozen=True)
class SignFlipResult:
    """Steady-state response to flipping the sign of selected edges."""

    flipped: tuple[tuple[int, int], ...]
    z_base: np.ndarray
    z_flipped: np.ndarray
    deltas: np.ndarray
    mean_abs_deviation: float
    unchanged: tuple[int, ...]  # agents whose final opinion is unaffected


def _num(v: float) -> float:
    """v at the 12 significant digits reports print, with -0.0 as 0.0."""
    return float(f"{float(v):.12g}") + 0.0  # -0.0 + 0.0 is +0.0


def absolute_centrality(influence: InfluenceMatrix) -> CentralityResult:
    """Θ's column L1 norms: how much each agent shapes all final opinions.

    Θ is not built: agent j's column of Θ is factor_j times one column of
    H (`InfluenceMatrix`), so its score is that column's L1 norm times
    |factor_j|; an agent with no column scores 0.

    Agents are ranked on their scores at report precision (`_num`), so two
    scores that print alike are a tie, broken by id.
    """
    h = influence.h
    scores = np.zeros(len(h))
    scores[influence.agents] = np.abs(h).sum(axis=0)[influence.column] * np.abs(influence.factor)
    order = sorted(range(len(scores)), key=lambda i: (-_num(scores[i]), i))
    return CentralityResult(scores=scores, ranking=tuple(order), most_influential=order[0])


def _flipped(matrices: ModelMatrices, edges) -> ModelMatrices:
    """The matrices with p_ij negated on the given edges.

    A flip keeps every |w|, so the |w| row sums, the other entries and the
    pattern are those of the base, and the entries come out the numbers
    `build_matrices` gives the flipped network.  An edge whose p_ij is not
    stored is zero in P and stays zero.
    """
    vals = matrices.vals.copy()
    at = [k for k in (matrices.entry(i, j) for i, j in edges) if k is not None]
    vals[at] = -vals[at]
    return replace(matrices, vals=vals)


def perturb_initial(
    net: SignedNetwork,
    params: AgentParams,
    x0: np.ndarray,
    agent: int,
    delta: float,
) -> PerturbationResult:
    """Recompute the steady state with x_agent(0) shifted by delta.

    The deviation is per unit of the shift the addition actually made; a
    delta lost to rounding against x0[agent] raises ZeroDeltaError.

    The per-unit L1 deviation equals the agent's absolute centrality score,
    which makes this an independent check on the influence matrix: both
    steady states are recomputed from one prepared model, never read off
    Theta.
    """
    if delta == 0.0 or not np.isfinite(delta):
        raise ZeroDeltaError("perturbation delta must be nonzero and finite")
    if not (0 <= agent < net.n):
        raise BadIdError(agent)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (net.n,):
        raise ValueError(f"x0 must have length {net.n}")
    x0p = x0.copy()
    x0p[agent] += delta
    shift = x0p[agent] - x0[agent]  # delta as rounded against x0[agent]
    if shift == 0.0 or not np.isfinite(shift):
        raise ZeroDeltaError(f"delta {delta:g} shifts x0[{agent}] = {x0[agent]:g} by {shift:g}")
    model = prepare(net, params)
    z_base = steady_state(model, x0).z
    z_pert = steady_state(model, x0p).z
    deviation = float(np.abs(z_pert - z_base).sum() / abs(shift))
    return PerturbationResult(
        agent=agent,
        delta=float(delta),
        z_base=z_base,
        z_perturbed=z_pert,
        deviation_per_unit=deviation,
    )


def flip_edge_signs(
    net: SignedNetwork,
    params: AgentParams,
    x0: np.ndarray,
    edges: tuple[tuple[int, int], ...],
    atol: float = 1e-9,
) -> SignFlipResult:
    """Negate the weights of the given edges, each named once, and compare steady states."""
    existing = {(i, j) for i, j, _ in net.edges}
    flip = set()
    for i, j in edges:
        if (i, j) not in existing:
            raise NoSuchEdgeError(i, j)
        if (i, j) in flip:
            raise DuplicateEdgeError(i, j)
        flip.add((i, j))
    # only signs change: ids, order, support and weak connectivity stay valid
    flipped_edges = tuple((i, j, -w if (i, j) in flip else w) for i, j, w in net.edges)
    net_flipped = replace(net, edges=flipped_edges)

    x0 = np.asarray(x0, dtype=float)
    base = prepare(net, params)
    z_base = steady_state(base, x0).z
    # the flipped network's taxonomy may differ, its rows only in the flipped signs
    flipped = Model(classify(net_flipped, params), _flipped(base.matrices, flip))
    z_flip = steady_state(flipped, x0).z
    deltas = z_flip - z_base
    unchanged = tuple(i for i in range(net.n) if abs(deltas[i]) <= atol)
    return SignFlipResult(
        flipped=tuple(sorted(flip)),
        z_base=z_base,
        z_flipped=z_flip,
        deltas=deltas,
        mean_abs_deviation=float(np.abs(deltas).mean()),
        unchanged=unchanged,
    )
