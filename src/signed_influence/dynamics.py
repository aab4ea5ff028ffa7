"""Model matrices, spectral radius, sink spectra, simulation and steady states.

The update rule is

    x(k+1) = (Gamma + (I - Gamma - B) Q) x(k) + B x(0)

with Q the sign-preserving row normalisation of the adjacency matrix,
Gamma = diag(gamma) the self-belief and B = diag(beta) the stubbornness.

z, z_o and the gains c all solve x = P x + r, with x given on the sinks
without a stubborn member (v (w . x(0)) or the source fold when balanced,
else 0).  `_complete` solves for the other agents K in one solve on I - P_KK,
run chunk by chunk over the condensation: laid out in the classification's
listener-first block order, I - P_KK is block upper triangular, so the solve
is a back-substitution from the sinks, one small dense solve per chunk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    DegenerateEigenspaceError,
    MissingSpectrumError,
    SingularSystemError,
    StubbornSinkRejectedError,
)
from .graph import AgentClassification, AgentParams, SignedNetwork, SinkKind, strong_components

_SOLVE_RESIDUAL_TOL = 1e-8
# consecutive SCCs are solved together until a chunk holds this many agents
_CHUNK = 64


@dataclass(frozen=True)
class ModelMatrices:
    """P and the stubbornness input matrix, in the original agent indexing."""

    n: int
    P: np.ndarray
    Btilde: np.ndarray  # n x s, column h carries beta at the h-th stubborn agent
    stubborn_ids: tuple[int, ...]
    beta: np.ndarray

    def sink_block(self, classification: AgentClassification, sink: int) -> np.ndarray:
        members = classification.sinks[sink]
        return self.P[np.ix_(members, members)]


@dataclass(frozen=True)
class SinkSpectrum:
    """Unit-eigenvalue pair of a stubborn-free balanced sink block.

    ``w`` is the left eigenvector normalised so that sum(sigma * w) == 1;
    ``v`` is the right eigenvector (the sigma pattern, all ones for
    cooperative sinks).  Both are indexed by the sink's sorted members.
    """

    sink: int
    members: tuple[int, ...]
    w: np.ndarray
    v: np.ndarray


class SteadyStateMethod(enum.Enum):
    DIRECT_SOLVE = "direct-solve"
    EIGENPROJECTION = "eigenprojection"
    ITERATION = "iteration"


@dataclass(frozen=True)
class SteadyState:
    z: np.ndarray
    z_o: np.ndarray  # zero-stubbornness response (0 when convergent)
    z_s: np.ndarray  # stubborn response
    method: SteadyStateMethod


@dataclass(frozen=True)
class TrajectoryLog:
    xs: np.ndarray  # x(0) and the last iterate, one row each (x(0) alone after 0 steps)
    converged: bool
    iterations: int
    residual: float


def build_matrices(net: SignedNetwork, params: AgentParams) -> ModelMatrices:
    n = net.n
    a = np.zeros((n, n))
    for i, j, w in net.edges:
        a[i, j] = w
    with np.errstate(over="ignore"):  # an overflowed row is rescaled below
        absrow = np.abs(a).sum(axis=1)
    big = ~np.isfinite(absrow)
    if big.any():  # |a| row sum overflowed: scale by the row maximum first
        a = a.copy()
        a[big] /= np.abs(a[big]).max(axis=1, keepdims=True)
        absrow[big] = np.abs(a[big]).sum(axis=1)
    live = absrow > 0.0
    q = np.zeros((n, n))
    q[live] = a[live] / absrow[live, None]
    dead = np.flatnonzero(~live)
    q[dead, dead] = 1.0
    gamma = np.array(params.gamma, dtype=float)
    beta = np.array(params.beta, dtype=float)
    p = (1.0 - gamma - beta)[:, None] * q
    p[np.diag_indices(n)] += gamma

    stubborn_ids = params.stubborn_agents()
    btilde = np.zeros((n, len(stubborn_ids)))
    btilde[list(stubborn_ids), range(len(stubborn_ids))] = beta[list(stubborn_ids)]
    return ModelMatrices(n=n, P=p, Btilde=btilde, stubborn_ids=stubborn_ids, beta=beta)


def spectral_radius(m: np.ndarray) -> float:
    """Exact spectral radius of a bare matrix, over the SCCs of its support.

    `block_spectral_radius` over the components `strong_components` finds
    in m's off-diagonal nonzeros.
    """
    m = np.asarray(m, dtype=float)
    rows, cols = np.nonzero(m)
    off = rows != cols
    arcs = zip(rows[off].tolist(), cols[off].tolist())
    return block_spectral_radius(m, strong_components(m.shape[0], arcs))


def block_spectral_radius(m: np.ndarray, blocks: Iterable[Iterable[int]]) -> float:
    """Exact spectral radius: the maximum over m's diagonal blocks.

    ``blocks`` partitions m's indices into unions of SCCs of its support,
    as `AgentClassification.blocks` does for P.  Permuted to condensation
    order, m is block triangular over them, so its eigenvalues are those of
    the diagonal blocks.  A 1x1 block contributes |m_ii|; a larger one its
    dense eigenvalues.  Diagnostic only, read by the report; convergence
    decisions are structural, never spectral.
    """
    rho = 0.0
    for block in blocks:
        idx = sorted(block)
        if len(idx) == 1:
            rho = max(rho, abs(float(m[idx[0], idx[0]])))
        else:
            rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(m[np.ix_(idx, idx)])))))
    return rho


def simulate(
    matrices: ModelMatrices,
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 100_000,
    on_iterate: Callable[[int, np.ndarray], object] | None = None,
) -> TrajectoryLog:
    """Iterate the update rule until the sup-norm residual drops below tol.

    The log keeps x(0) and the last iterate only, so its memory does not
    grow with the iteration count; ``on_iterate(k, x)``, when given, is
    handed x(0) and then every iterate x(k) as it is computed.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (matrices.n,):
        raise ValueError(f"x0 must have length {matrices.n}")
    drive = matrices.beta * x0
    x = x0.copy()
    if on_iterate is not None:
        on_iterate(0, x)
    residual = np.inf
    iters = 0
    converged = False
    while iters < max_iters:
        nxt = matrices.P @ x + drive
        residual = float(np.max(np.abs(nxt - x)))
        x = nxt
        iters += 1
        if on_iterate is not None:
            on_iterate(iters, x)
        if residual < tol:
            converged = True
            break
    xs = np.array([x0, x] if iters else [x0])
    return TrajectoryLog(xs, converged=converged, iterations=iters, residual=residual)


def sink_spectrum(
    matrices: ModelMatrices, classification: AgentClassification, sink: int
) -> SinkSpectrum:
    """Left/right unit eigenpair of a stubborn-free balanced sink block."""
    if classification.sink_has_stubborn(sink):
        raise StubbornSinkRejectedError(f"sink {sink} contains stubborn agents")
    members = classification.sinks[sink]
    block = matrices.sink_block(classification, sink)
    kind = classification.sink_kind[sink]
    if kind == SinkKind.UNBALANCED:
        raise DegenerateEigenspaceError(f"sink {sink} is unbalanced; no unit eigenvalue")

    # sigma is defined on balanced sinks only; cooperative ones are all +1
    sigma = np.array([classification.sigma.get(m, 1) for m in members], dtype=float)
    a = block.T - np.eye(len(members))
    _, s, vh = np.linalg.svd(a)
    if len(members) > 1 and s[-2] < 1e-8:
        raise DegenerateEigenspaceError(f"unit eigenvalue of sink {sink} is not simple")
    if s[-1] > 1e-8:
        raise DegenerateEigenspaceError(f"sink {sink} block has no unit eigenvalue")
    w = vh[-1]
    scale = float(sigma @ w)
    if abs(scale) < 1e-12:
        raise DegenerateEigenspaceError(f"cannot normalise eigenvector of sink {sink}")
    w = w / scale
    return SinkSpectrum(sink=sink, members=members, w=w, v=sigma.copy())


def compute_spectra(
    matrices: ModelMatrices, classification: AgentClassification
) -> dict[int, SinkSpectrum]:
    """Unit eigenpairs of every stubborn-free balanced sink, singleton leaders too.

    A singleton leader's block is [1], so its pair is w = v = [1].
    """
    return {
        sink: sink_spectrum(matrices, classification, sink)
        for sink in sorted(classification.influence_free_sinks)
    }


def _solve_checked(a: np.ndarray, b: np.ndarray, *, bounds: list[int]) -> np.ndarray:
    """Solve a x = b, a being block upper triangular over the chunks ``bounds``.

    Chunk c spans rows and columns bounds[c]:bounds[c + 1]; x is found from
    the last chunk back, x_c = solve(a_cc, b_c - a_c,later x_later).  a must
    be exactly 0 below the chunk diagonal, which makes each chunk's residual
    that of the whole system; every row's must stay within the tolerance
    relative to max|b|.
    """
    chunks = list(zip(bounds[:-1], bounds[1:]))
    if any(np.any(a[lo:hi, :lo]) for lo, hi in chunks):
        raise SingularSystemError("matrix is not block upper triangular over its chunks")
    x = np.empty_like(b)
    resid = 0.0
    try:
        for lo, hi in reversed(chunks):
            rhs = b[lo:hi] - a[lo:hi, hi:] @ x[hi:]
            x[lo:hi] = np.linalg.solve(a[lo:hi, lo:hi], rhs)
            resid = max(resid, np.max(np.abs(a[lo:hi, lo:hi] @ x[lo:hi] - rhs), initial=0.0))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.isfinite(resid) or resid > _SOLVE_RESIDUAL_TOL * max(1.0, np.max(np.abs(b), initial=0.0)):
        raise SingularSystemError(f"solve residual {resid} too large")
    return x


def _unit_limits(matrices, classification, spectra, x0):
    """lim P^k x(0) on the sinks: v (w . x(0)) on each stubborn-free balanced sink."""
    if missing := classification.influence_free_sinks - spectra.keys():
        raise MissingSpectrumError(min(missing))
    z_o = np.zeros(matrices.n)
    for sink in classification.influence_free_sinks:
        spec = spectra[sink]
        members = list(spec.members)
        z_o[members] = spec.v * float(spec.w @ x0[members])
    return z_o


def _solved_blocks(classification: AgentClassification) -> list[tuple[int, ...]]:
    """K's SCCs, listeners first: every block but the stubborn-free sinks.

    K is the followers and the members of sinks with a stubborn member.
    """
    cls = classification
    given = {m for s, ms in enumerate(cls.sinks) if not cls.sink_has_stubborn(s) for m in ms}
    return [block for block in cls.blocks if block[0] not in given]


def _solved_agents(classification: AgentClassification) -> list[int]:
    """K, sorted."""
    return sorted(m for block in _solved_blocks(classification) for m in block)


def _chunk_bounds(sizes: list[int]) -> list[int]:
    """Chunk edges over consecutive blocks of the given sizes.

    A chunk closes at the first block end that gives it at least _CHUNK
    agents, and a block that large is a chunk of its own, so no block is
    split across chunks.
    """
    bounds, end = [0], 0
    for size in sizes:
        if size >= _CHUNK and end > bounds[-1]:
            bounds.append(end)
        end += size
        if end - bounds[-1] >= _CHUNK:
            bounds.append(end)
    if end > bounds[-1]:
        bounds.append(end)
    return bounds


def _complete(matrices, classification, x, rhs):
    """Complete x (n, or n x k) on K given its rows on the stubborn-free sinks.

    One solve of (I - P_KK) X_K = P_K,: X + R_K for all columns at once.
    P_KK is convergent (every sink in K has a stubborn member, every
    follower reaches a sink), so each column's solution is unique.  K is a
    union of whole SCCs; laid out in the listener-first block order I - P_KK
    is block upper triangular, and `_solve_checked` runs the solve chunk by
    chunk over the condensation, from the sinks back.
    """
    blocks = _solved_blocks(classification)
    if blocks:
        k = np.array([m for block in blocks for m in block])
        given = np.setdiff1d(np.arange(matrices.n), k)
        b = matrices.P[np.ix_(k, given)] @ x[given] + rhs[k]
        a = -matrices.P.take(k, axis=0).take(k, axis=1)  # twice as fast as np.ix_
        a[np.diag_indices(len(k))] += 1.0
        x[k] = _solve_checked(a, b, bounds=_chunk_bounds([len(block) for block in blocks]))
    return x


def steady_state(
    matrices: ModelMatrices,
    classification: AgentClassification,
    spectra: dict[int, SinkSpectrum],
    x0: np.ndarray,
    method: SteadyStateMethod = SteadyStateMethod.DIRECT_SOLVE,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> SteadyState:
    """Final opinion vector by one of three independent routes.

    Convergence is structural: semi-convergent iff a stubborn-free balanced
    sink exists.  Every route reads those sinks' unit eigenpairs from
    ``spectra``, computed once by ``compute_spectra``; a missing one raises
    MissingSpectrumError.

    z and z_o are v (w . x(0)) on the stubborn-free balanced sinks and 0 on
    the other stubborn-free sinks; `_complete` solves for every other agent.
    direct-solve: one complement solve with z and z_o as two right-hand
    sides.  eigenprojection: z_o and z_s by two complement solves, one per
    half of the right-hand side.  iteration: run the update rule to
    convergence, with z_o from the unit eigenpairs.
    """
    x0 = np.asarray(x0, dtype=float)
    n = matrices.n
    drive = matrices.beta * x0
    limits = _unit_limits(matrices, classification, spectra, x0)

    if method == SteadyStateMethod.DIRECT_SOLVE:
        zz = np.column_stack([limits, limits])
        zz = _complete(matrices, classification, zz, np.column_stack([drive, np.zeros(n)]))
        return SteadyState(z=zz[:, 0], z_o=zz[:, 1], z_s=zz[:, 0] - zz[:, 1], method=method)

    z_o = _complete(matrices, classification, limits, np.zeros(n))
    if method == SteadyStateMethod.ITERATION:
        z = simulate(matrices, x0, tol=tol, max_iters=max_iters).xs[-1]
        return SteadyState(z=z, z_o=z_o, z_s=z - z_o, method=method)

    # eigenprojection: z_s from the stubborn input alone, on its own solve
    z_s = _complete(matrices, classification, np.zeros(n), drive)
    return SteadyState(z=z_o + z_s, z_o=z_o, z_s=z_s, method=method)
