"""The prepared model, spectral radius, sink spectra, simulation and steady states.

The update rule is

    x(k+1) = (Gamma + (I - Gamma - B) Q) x(k) + B x(0)

with Q the sign-preserving row normalisation of the adjacency matrix,
Gamma = diag(gamma) the self-belief and B = diag(beta) the stubbornness.

`prepare(net, params)` makes the `Model` every later layer takes: the
classification, P's rows and, computed when first read, the unit
eigenpair of each stubborn-free balanced sink.  z, the gains, Θ and the
centrality are functions of that model and x(0) alone.

P is kept as CSR rows (`ModelMatrices`: indptr, cols, vals), one entry per
edge plus p_ii, built from the edge list with numpy; every route computes
on the rows, so no n x n array is made on the way to z, c, the
centrality or ρ, and one step of `simulate`, the iteration oracle, costs
O(edges).

z, z_o and the gains c all solve x = P x + r, with x given on the sinks
without a stubborn member (v (w . x(0)) or the source fold when balanced,
else 0) and r nonzero at stubborn agents only, never in those sinks, so one
array carries both.  `_complete` solves for the other agents K in one
solve on I - P_KK, run chunk by chunk over the condensation: laid out in
the classification's listener-first block order, I - P_KK is block upper
triangular, so the solve is a back-substitution from the sinks.  Each
chunk gathers its small dense block from its rows, and its coupling to the
known and the later agents into slabs over the columns it uses, one
product each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateEigenspaceError,
    IterationCapError,
    SingularSystemError,
    StubbornSinkRejectedError,
)
from .graph import AgentClassification, AgentParams, SignedNetwork, SinkKind, classify
from .graph import strong_components

_SOLVE_RESIDUAL_TOL = 1e-8
# consecutive SCCs are solved together until a chunk holds this many agents
_CHUNK = 64


@dataclass(frozen=True)
class ModelMatrices:
    """P as CSR rows, and the stubbornness beta, in the original agent indexing.

    Row i of P keeps its nonzeros, columns ascending, at entries
    indptr[i]:indptr[i + 1] of ``cols`` and ``vals``: one per edge i listens
    on, plus p_ii where it is nonzero.  The stubborn input B x(0) is beta
    times x(0): each stubborn initial opinion enters its own agent only.
    """

    n: int
    indptr: np.ndarray  # n + 1 row starts
    cols: np.ndarray
    vals: np.ndarray
    beta: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.arange(self.n).repeat(self.indptr[1:] - self.indptr[:-1])

    def dense(self) -> np.ndarray:
        """P as a dense n x n array, the same numbers as the rows.

        The tests' view of P; the library itself computes on the rows only.
        """
        p = np.zeros((self.n, self.n))
        p[self.rows, self.cols] = self.vals
        return p

    def diagonal(self) -> np.ndarray:
        """p_ii for every agent i."""
        on = self.rows == self.cols
        d = np.zeros(self.n)
        d[self.cols[on]] = self.vals[on]
        return d

    def block(self, members: Sequence[int]) -> np.ndarray:
        """The dense diagonal block P[members][:, members], ``members`` sorted."""
        members = np.asarray(members, dtype=np.intp)
        idx, counts = _entries(self.indptr, members)
        cols = self.cols[idx]
        at = members.searchsorted(cols).clip(max=len(members) - 1)
        hit = members[at] == cols
        out = np.zeros((len(members), len(members)))
        out[np.arange(len(members)).repeat(counts)[hit], at[hit]] = self.vals[idx[hit]]
        return out

    def entry(self, i: int, j: int) -> int | None:
        """The index into ``cols`` and ``vals`` of p_ij, or None when p_ij is
        not stored: it is zero, as when an edge's weight underflows against
        its row's sum."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        at = int(lo + self.cols[lo:hi].searchsorted(j))
        return at if at < hi and self.cols[at] == j else None


def _entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entry indices of the given CSR rows, row after row, and each row's count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = counts.cumsum()
    return (starts - ends + counts).repeat(counts) + np.arange(ends[-1] if len(ends) else 0), counts


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
    """P = Gamma + (I - Gamma - B) Q as CSR rows, from the edges, in numpy.

    q_ij is w_ij over the row's sum of |w|, and q_ii = 1 on a row without
    edges.  Each row's |w| sum is added left to right, in column order.  A
    row whose |w| sum overflows is divided by its largest |w| first.
    """
    n = net.n
    flat = np.fromiter(chain.from_iterable(net.edges), float, 3 * len(net.edges))
    rows, cols, w = flat[0::3].astype(np.intp), flat[1::3].astype(np.intp), flat[2::3]
    absrow = np.bincount(rows, np.abs(w), minlength=n)  # an overflowed row is rescaled below
    big = ~np.isfinite(absrow)
    if big.any():
        top = np.zeros(n)
        np.maximum.at(top, rows, np.abs(w))
        scaled = big[rows]
        w[scaled] /= top[rows[scaled]]
        absrow[big] = np.bincount(rows[scaled], np.abs(w[scaled]), minlength=n)[big]
    gamma = np.array(params.gamma, dtype=float)
    beta = np.array(params.beta, dtype=float)
    coef = 1.0 - gamma - beta
    diag = np.where(absrow > 0.0, gamma, coef + gamma)  # q_ii = 1 on a row without edges
    vals = np.concatenate((coef[rows] * (w / absrow[rows]), diag))
    rows = np.concatenate((rows, np.arange(n)))
    cols = np.concatenate((cols, np.arange(n)))
    order = np.argsort(rows * n + cols)  # by row, then column
    order = order[vals[order] != 0.0]  # only nonzeros are stored
    return ModelMatrices(
        n=n,
        indptr=np.searchsorted(rows[order], np.arange(n + 1)),
        cols=cols[order],
        vals=vals[order],
        beta=beta,
    )


def spectral_radius(m: np.ndarray) -> float:
    """Exact spectral radius of a bare matrix, over the SCCs of its support.

    The maximum of `_radius` over the diagonal blocks of the components
    `strong_components` finds in m's off-diagonal nonzeros.
    """
    m = np.asarray(m, dtype=float)
    rows, cols = np.nonzero(m)
    off = rows != cols
    comps = strong_components(m.shape[0], zip(rows[off].tolist(), cols[off].tolist()))
    return max((_radius(m[np.ix_(idx, idx)]) for idx in comps), default=0.0)


def block_spectral_radius(matrices: ModelMatrices, blocks: Sequence[Sequence[int]]) -> float:
    """Exact spectral radius of P: the maximum over its diagonal blocks.

    ``blocks`` partitions the agents into sorted unions of SCCs of P's
    support, as `AgentClassification.blocks` does.  Permuted to
    condensation order, P is block triangular over them, so its eigenvalues
    are those of the diagonal blocks.  A 1x1 block contributes |p_ii|; a larger one the
    dense eigenvalues of its block, gathered from the rows.  Diagnostic
    only, read by the report; convergence decisions are structural, never
    spectral.
    """
    singles = [block[0] for block in blocks if len(block) == 1]
    rho = float(np.max(np.abs(matrices.diagonal()[singles]), initial=0.0))
    for idx in blocks:
        if len(idx) > 1:
            rho = max(rho, _radius(matrices.block(idx)))
    return rho


def _radius(block: np.ndarray) -> float:
    if len(block) == 1:
        return abs(float(block[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(block))))


def simulate(
    matrices: ModelMatrices,
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 100_000,
    on_iterate: Callable[[int, np.ndarray], object] | None = None,
) -> TrajectoryLog:
    """Iterate the update rule until the sup-norm residual drops below tol.

    Each step is one product on P's rows, O(edges).  The log keeps x(0)
    and the last iterate only, so its memory does not grow with the
    iteration count; ``on_iterate(k, x)``, when given, is handed x(0) and
    then every iterate x(k) as it is computed.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (matrices.n,):
        raise ValueError(f"x0 must have length {matrices.n}")
    rows, cols, vals = matrices.rows, matrices.cols, matrices.vals
    drive = matrices.beta * x0
    x = x0.copy()
    if on_iterate is not None:
        on_iterate(0, x)
    residual = np.inf
    iters = 0
    converged = False
    while iters < max_iters:
        nxt = np.bincount(rows, vals * x[cols], minlength=matrices.n) + drive
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
    block = matrices.block(members)
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


@dataclass(frozen=True)
class Model:
    """A prepared network: everything z, the gains, Θ and the centrality read but x(0).

    ``spectra`` holds the unit eigenpair of every stubborn-free balanced
    sink, singleton leaders too (a singleton leader's block is [1], so its
    pair is w = v = [1]).  It is computed on first read, so a route that
    reads no spectrum, as `simulate` and the full signal-flow graph, does
    not pay for one or fail on one.
    """

    classification: AgentClassification
    matrices: ModelMatrices

    @cached_property
    def spectra(self) -> dict[int, SinkSpectrum]:
        cls = self.classification
        return {sink: sink_spectrum(self.matrices, cls, sink)
                for sink in sorted(cls.influence_free_sinks)}


def prepare(net: SignedNetwork, params: AgentParams) -> Model:
    """Classify the network and build P: the one set-up of every analysis."""
    return Model(classify(net, params), build_matrices(net, params))


def _solve_checked(
    indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray, x: np.ndarray, *, bounds: list[int]
) -> np.ndarray:
    """Solve x_N = M_N,: x + r_N in place, N = bounds[-1], M given as CSR rows of N.

    x (one row per column of M, and any number of columns) holds r on its
    first N rows and the known values on the rest.  I - M_NN must be block
    upper triangular over the chunks ``bounds``: chunk c spans rows and
    columns bounds[c]:bounds[c + 1], and an entry left of its row's chunk
    raises.  x is found from the last chunk back.  Each chunk gathers its
    small dense block from its rows' entries inside it, and its rows'
    entries to known and to later columns into two slabs over the columns
    they use, each taken in one product:

        b_c = r_c + M_c,known x_known,  x_c = solve(I - M_cc, b_c + M_c,later x_later).

    No chunk depends on an earlier one, so each chunk's residual is that of
    the whole system; every row's must stay within the tolerance relative
    to max|b|.
    """
    n_solved, width = bounds[-1], len(x)
    edges = np.array(bounds)
    row = np.arange(n_solved).repeat(indptr[1 : n_solved + 1] - indptr[:n_solved])
    chunk = edges.searchsorted(row, side="right") - 1
    if (cols < edges[chunk]).any():
        raise SingularSystemError("matrix is not block upper triangular over its chunks")
    # the entries by chunk, then inside (0), later (1) or known (2), then
    # column: each part is a run, and so are the distinct columns of each
    part = 3 * chunk + (cols >= edges[chunk + 1]) + (cols >= n_solved)
    key = part * width + cols
    order = key.argsort(kind="stable")
    key, part, cols, vals = key[order], part[order], cols[order], vals[order]
    rows = row[order] - edges[chunk[order]]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    new[1:] = key[1:] != key[:-1]
    used, slot = cols[new], new.cumsum() - 1
    runs = part.searchsorted(np.arange(3 * len(bounds) - 2))
    used_runs = part[new].searchsorted(np.arange(3 * len(bounds) - 2))
    slot -= used_runs[part]

    def product(p: int, height: int) -> np.ndarray | float:
        """Part p's entries times x, by one dense product over its columns."""
        e = slice(runs[p], runs[p + 1])
        if e.start == e.stop:
            return 0.0
        slab = np.zeros((height, used_runs[p + 1] - used_runs[p]))
        slab[rows[e], slot[e]] = vals[e]
        return slab @ x[used[used_runs[p]:used_runs[p + 1]]]

    resid = scale = 0.0
    try:
        for c in range(len(bounds) - 2, -1, -1):
            lo, hi = bounds[c], bounds[c + 1]
            b = x[lo:hi] + product(3 * c + 2, hi - lo)
            rhs = b + product(3 * c + 1, hi - lo)
            e = slice(runs[3 * c], runs[3 * c + 1])
            a = np.zeros((hi - lo, hi - lo))
            a[rows[e], cols[e] - lo] = -vals[e]
            a[np.diag_indices(hi - lo)] += 1.0
            x[lo:hi] = np.linalg.solve(a, rhs)
            resid = max(resid, np.max(np.abs(a @ x[lo:hi] - rhs), initial=0.0))
            scale = max(scale, np.max(np.abs(b), initial=0.0))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.isfinite(resid) or resid > _SOLVE_RESIDUAL_TOL * max(1.0, scale):
        raise SingularSystemError(f"solve residual {resid} too large")
    return x


def _unit_limits(model: Model, x0: np.ndarray) -> np.ndarray:
    """lim P^k x(0) on the sinks: v (w . x(0)) on each stubborn-free balanced sink."""
    z_o = np.zeros(model.matrices.n)
    for spec in model.spectra.values():
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


def _complete(model: Model, x: np.ndarray) -> np.ndarray:
    """Solve x = P x + R on K in place, x (n, or n x k) holding R_K and the given rows.

    On entry K's rows of x hold R and the others, the stubborn-free sinks,
    their given values; R is beta x(0) or beta at a stubborn agent, and no
    stubborn agent is in a stubborn-free sink.  One solve of
    (I - P_KK) X_K = P_K,given X_given + R_K for all columns at once.
    P_KK is convergent (every sink in K has a stubborn member, every
    follower reaches a sink), so each column's solution is unique.  K is a
    union of whole SCCs; laid out in the listener-first block order I - P_KK
    is block upper triangular, and `_solve_checked` runs the solve chunk by
    chunk over the condensation, from the sinks back, on K's rows of P with
    the given agents numbered after K.
    """
    matrices = model.matrices
    blocks = _solved_blocks(model.classification)
    if blocks:
        k = np.fromiter(chain.from_iterable(blocks), dtype=np.intp)
        free = np.ones(matrices.n, dtype=bool)
        free[k] = False
        order = np.concatenate((k, free.nonzero()[0]))
        place = np.empty(matrices.n, dtype=np.intp)
        place[order] = np.arange(matrices.n)
        idx, counts = _entries(matrices.indptr, k)
        indptr = np.concatenate(([0], counts.cumsum()))
        bounds = _chunk_bounds([len(block) for block in blocks])
        x[k] = _solve_checked(
            indptr, place[matrices.cols[idx]], matrices.vals[idx], x[order], bounds=bounds
        )[: len(k)]
    return x


def steady_state(
    model: Model,
    x0: np.ndarray,
    method: SteadyStateMethod = SteadyStateMethod.DIRECT_SOLVE,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> SteadyState:
    """Final opinion vector by one of three independent routes.

    Convergence is structural: semi-convergent iff a stubborn-free balanced
    sink exists.  Every route reads those sinks' unit eigenpairs from
    ``model.spectra``.

    z and z_o are v (w . x(0)) on the stubborn-free balanced sinks and 0 on
    the other stubborn-free sinks; `_complete` solves for every other agent,
    z with R = beta x(0) and z_o with R = 0.  direct-solve: one complement
    solve with z and z_o as two columns.  eigenprojection: z_o and z_s by
    two complement solves, z_s with the sinks' values 0.  iteration: run
    the update rule to convergence, with z_o from the unit eigenpairs; a
    run that reaches ``max_iters`` first raises `IterationCapError`.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.matrices.n,):
        raise ValueError(f"x0 must have length {model.matrices.n}")
    limits = _unit_limits(model, x0)
    beta = model.matrices.beta
    stubborn = beta > 0.0
    drive = np.where(stubborn, beta * x0, 0.0)  # R = beta x(0); 0 on the sinks

    if method == SteadyStateMethod.DIRECT_SOLVE:
        zz = _complete(model, np.column_stack([np.where(stubborn, drive, limits), limits]))
        return SteadyState(z=zz[:, 0], z_o=zz[:, 1], z_s=zz[:, 0] - zz[:, 1], method=method)

    z_o = _complete(model, limits)
    if method == SteadyStateMethod.ITERATION:
        log = simulate(model.matrices, x0, tol=tol, max_iters=max_iters)
        if not log.converged:
            raise IterationCapError(log.iterations, log.residual, tol)
        z = log.xs[-1]
        return SteadyState(z=z, z_o=z_o, z_s=z - z_o, method=method)

    # eigenprojection: z_s from the stubborn input alone, on its own solve
    z_s = _complete(model, drive)
    return SteadyState(z=z_o + z_s, z_o=z_o, z_s=z_s, method=method)
