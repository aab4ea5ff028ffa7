"""Absolute influence centrality and what-if perturbation experiments."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Model, ModelMatrices, _final_opinions, _initial_opinions, _kept_inverses
from .dynamics import prepare, sink_spectrum, steady_state
from .errors import BadIdError, ZeroDeltaError
from .graph import AgentParams, SignedNetwork, _flip, _is_id, classify
from .sfg import InfluenceMatrix

# an agent whose final opinion moves by no more than this under a flip is unchanged
_UNCHANGED_ATOL = 1e-9


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


def _nums(rows: list[list[float]]) -> list[list[float]]:
    """`_num` of every entry, computed once per distinct value.

    The entries are Python floats (an array's `tolist()`): -0.0 and 0.0
    share a key, which is safe because `_num` maps both to 0.0, and a NaN
    is found by identity, so each NaN is its own key.
    """
    memo = {x: _num(x) for x in set().union(*rows)}
    return [list(map(memo.__getitem__, row)) for row in rows]


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
    rounded = [-x for x in _nums([scores.tolist()])[0]]
    order = sorted(range(len(scores)), key=rounded.__getitem__)  # stable: ties by id
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


def _flipped_model(
    base: Model, net: SignedNetwork, params: AgentParams, flip: dict[tuple[int, int], int]
) -> Model:
    """The flipped network ``net`` prepared from its base's model.

    ``flip`` maps each flipped edge to its position in ``net.edges``.  The
    taxonomy may differ, the rows only in the flipped signs.  A sink with
    no flipped edge inside keeps its block, its kind and its sigma, so its
    unit eigenpair is the base's; a sink with one inside gets its own.  P's
    pattern and K, the agents the solve is for, read no sign, so the solve
    layout is the base's.  So is the inverse of every chunk of the solve
    with no flipped entry inside its own block; a chunk with one is
    inverted anew.
    """
    cls = classify(net, params)
    model = Model(cls, _flipped(base.matrices, flip))
    at = set(flip.values())
    touched = {s for s, own in enumerate(net._structure.internal) if not at.isdisjoint(own)}
    vars(model).update(  # Model's cached properties, filled before their first read
        spectra={s: sink_spectrum(model.matrices, cls, s) if s in touched else base.spectra[s]
                 for s in sorted(cls.influence_free_sinks)},
        _layout=base._layout,
        _inverses=_kept_inverses(base, model.matrices.vals),
    )
    return model


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
    which makes this an independent check on the influence matrix: the
    network is prepared once and both steady states come from one solve,
    x0 and the shifted x0 as its two columns, never read off Theta.
    """
    if delta == 0.0 or not np.isfinite(delta):
        raise ZeroDeltaError("perturbation delta must be nonzero and finite")
    if not _is_id(agent):
        raise BadIdError(agent, f"agent {agent!r} is not an integer id")
    if not (0 <= agent < net.n):
        raise BadIdError(agent)
    x0 = _initial_opinions(x0, net.n)
    x0p = x0.copy()
    x0p[agent] += delta
    shift = x0p[agent] - x0[agent]  # delta as rounded against x0[agent]
    if shift == 0.0 or not np.isfinite(shift):
        raise ZeroDeltaError(f"delta {delta:g} shifts x0[{agent}] = {x0[agent]:g} by {shift:g}")
    z = _final_opinions(prepare(net, params), (x0, x0p))
    z_base, z_pert = z[:, 0], z[:, 1]
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
) -> SignFlipResult:
    """Negate the weights of the given edges, each named once, and compare steady states.

    The base network is prepared once.  The flipped one shares its
    sign-free structure (`graph._flip`) and its rows up to the flipped
    signs, and keeps the base's unit eigenpair on every sink that no
    flipped edge lies inside (`_flipped_model`): only its classification
    and the spectra of the sinks a flip touched are computed anew.
    """
    net_flipped, flip = _flip(net, edges)
    x0 = _initial_opinions(x0, net.n)
    base = prepare(net, params)
    z_base = steady_state(base, x0).z
    z_flip = steady_state(_flipped_model(base, net_flipped, params, flip), x0).z
    deltas = z_flip - z_base
    unchanged = tuple(np.flatnonzero(np.abs(deltas) <= _UNCHANGED_ATOL).tolist())
    return SignFlipResult(
        flipped=tuple(sorted(flip)),
        z_base=z_base,
        z_flipped=z_flip,
        deltas=deltas,
        mean_abs_deviation=float(np.abs(deltas).mean()),
        unchanged=unchanged,
    )
