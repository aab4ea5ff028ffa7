"""The prepared model, spectral radius, sink spectra, simulation and steady states.

The update rule is

    x(k+1) = (Gamma + (I - Gamma - B) Q) x(k) + B x(0)

with Q the sign-preserving row normalisation of the adjacency matrix,
Gamma = diag(gamma) the self-belief and B = diag(beta) the stubbornness.

`prepare(net, params)` makes the `Model` every later layer takes: the
classification, P's rows and, computed when first read, the unit
eigenpair of each stubborn-free balanced sink and the complement solve's
layout.  z, the gains, Θ and the centrality are functions of that model
and x(0) alone.  The network remembers the last model it was prepared
into, for that very `AgentParams` object, so every analysis and what-if
call on the same network and params shares one model and does its set-up
once; the model's arrays are read-only.

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
product each.  Where each entry of P goes in that solve reads no value:
the model lays it out once (`_solve_layout`), and a sign flip, which keeps
P's pattern and K, hands its layout on.  Nor does x(0) enter I - P_cc:
the model inverts each chunk of fewer than 2·_CHUNK agents once, on its
first solve, so every solve after takes x_c as one product with the held
inverse; a larger chunk, one big SCC, holds no m x m inverse and is
LU-solved each time.  A flip hands on the inverse of every chunk it
leaves alone inside.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

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

    def __post_init__(self):
        _read_only(self)

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each entry."""
        rows = np.arange(self.n).repeat(self.indptr[1:] - self.indptr[:-1])
        rows.flags.writeable = False
        return rows

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


def _read_only(record) -> None:
    """Mark every array field of a frozen dataclass non-writeable.

    A prepared `Model` is shared by every caller that prepares the same
    network and parameters, so no caller may change its numbers.
    """
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


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

    def __post_init__(self):
        _read_only(self)


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


def _initial_opinions(x0, n: int) -> np.ndarray:
    """x(0) as an array of n finite floats; any other raises a one-line ValueError."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 entries must be finite")
    return x0


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
    x0 = _initial_opinions(x0, matrices.n)
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
    not pay for one or fail on one.  So are ``_layout``, what the complement
    solve reads of P but its values, and ``_inverses``, the inverse of
    each chunk's I - P_cc that the solve multiplies by (None for a chunk of
    2·_CHUNK agents or more, which is solved afresh each time).  A model is
    shared by every caller that prepares the same network and parameters
    (`prepare`), so all its arrays are read-only.
    """

    classification: AgentClassification
    matrices: ModelMatrices

    @cached_property
    def spectra(self) -> dict[int, SinkSpectrum]:
        cls = self.classification
        return {sink: sink_spectrum(self.matrices, cls, sink)
                for sink in sorted(cls.influence_free_sinks)}

    @cached_property
    def _layout(self) -> _SolveLayout:
        """The layout of `_complete`'s solve: K in block order, chunked over its blocks."""
        blocks = _solved_blocks(self.classification)
        k = np.fromiter(chain.from_iterable(blocks), dtype=np.intp)
        bounds = _chunk_bounds([len(block) for block in blocks])
        return _solve_layout(self.matrices.indptr, self.matrices.cols, k, bounds)

    @cached_property
    def _inverses(self) -> tuple[np.ndarray | None, ...]:
        """(I - P_cc)⁻¹ of every chunk c of the solve, None where the chunk is large."""
        layout = self._layout
        return _chunk_inverses(layout, self.matrices.vals, range(len(layout.bounds) - 1))

    @cached_property
    def _agents(self) -> np.ndarray:
        """K sorted: the agents the solve is for, and the rows of the gains."""
        agents = np.sort(self._layout.order)
        agents.flags.writeable = False
        return agents


def prepare(net: SignedNetwork, params: AgentParams) -> Model:
    """Classify the network and build P: the one set-up of every analysis.

    The network remembers the model it last made, for that ``params``
    object: another call with the same network and the same object returns
    it, with the spectra and the solve layout it has computed since.  The
    key is the object, not its value, so a −0.0 in beta is never taken for
    0.0; a new `AgentParams` prepares the network again and is remembered
    in the old one's place.
    """
    held = vars(net).get("_prepared")
    if held is not None and held[0] is params:
        return held[1]
    model = Model(classify(net, params), build_matrices(net, params))
    vars(net)["_prepared"] = (params, model)  # the network's one remembered model
    return model


@dataclass(frozen=True)
class _SolveLayout:
    """What `_solve_checked` reads of M but its values: M's pattern laid out by chunk.

    N is ``order``, chunked at ``bounds``.  The entries of N's rows are
    ``gather`` into M's entries, sorted by chunk, then part (inside the
    chunk 0, to a later chunk 1, to a known column 2), then column, so that
    part p of chunk c, p' = 3 c + p, holds the entries runs[p']:runs[p' + 1].
    Per entry, ``rows`` is its row within its chunk, ``cols`` its column by
    layout position (the known columns after N, by id) and ``slot`` its
    column in its part's slab, whose columns are the agents
    used[used_runs[p']:used_runs[p' + 1]].
    """

    order: np.ndarray
    bounds: tuple[int, ...]
    gather: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    slot: np.ndarray
    used: np.ndarray
    runs: np.ndarray
    used_runs: np.ndarray

    def __post_init__(self):
        _read_only(self)


def _solve_layout(
    indptr: np.ndarray, cols: np.ndarray, order: np.ndarray, bounds: Sequence[int]
) -> _SolveLayout:
    """The layout of a chunked solve on the rows ``order`` of M, M's (n x n) pattern as CSR.

    Reads no value, so every M with this pattern shares it.  An entry left
    of its row's chunk raises: laid out in ``order``, I - M_NN must be
    block upper triangular over the chunks.
    """
    n_solved, width = bounds[-1], len(indptr) - 1 + bounds[-1]
    edges = np.array(bounds)
    place = np.arange(n_solved, width)  # the known agents after N, by id
    place[order] = np.arange(n_solved)
    idx, counts = _entries(indptr, order)
    agent_cols = cols[idx]
    cols = place[agent_cols]
    row = np.arange(n_solved).repeat(counts)
    chunk = edges.searchsorted(row, side="right") - 1
    if (cols < edges[chunk]).any():
        raise SingularSystemError("matrix is not block upper triangular over its chunks")
    # the entries by chunk, then inside (0), later (1) or known (2), then
    # column: each part is a run, and so are the distinct columns of each
    part = 3 * chunk + (cols >= edges[chunk + 1]) + (cols >= n_solved)
    key = part * width + cols
    perm = key.argsort(kind="stable")
    key, part = key[perm], part[perm]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    new[1:] = key[1:] != key[:-1]
    used_runs = part[new].searchsorted(np.arange(3 * len(bounds) - 2))
    return _SolveLayout(
        order=order,
        bounds=tuple(bounds),
        gather=idx[perm],
        rows=row[perm] - edges[chunk[perm]],
        cols=cols[perm],
        slot=new.cumsum() - 1 - used_runs[part],
        used=agent_cols[perm][new],
        runs=part.searchsorted(np.arange(3 * len(bounds) - 2)),
        used_runs=used_runs,
    )


def _chunk(layout: _SolveLayout, vals: np.ndarray, c: int) -> np.ndarray:
    """I - M_cc, chunk c's dense block, from its rows' entries inside it.

    ``vals`` are M's entries in the layout's order, ``vals[layout.gather]``.
    """
    lo, hi = layout.bounds[c], layout.bounds[c + 1]
    e = slice(layout.runs[3 * c], layout.runs[3 * c + 1])
    a = np.zeros((hi - lo, hi - lo))
    a[layout.rows[e], layout.cols[e] - lo] = -vals[e]
    a[np.diag_indices(hi - lo)] += 1.0
    return a


def _chunk_inverses(
    layout: _SolveLayout, vals: np.ndarray, chunks: Iterable[int]
) -> tuple[np.ndarray | None, ...]:
    """(I - M_cc)⁻¹ of each of the given chunks, read-only.

    ``vals`` are M's entries in the pattern the layout was made from.  A
    chunk of 2·_CHUNK agents or more, which `_chunk_bounds` makes only of
    one big block, gets None: `_solve_checked` solves it afresh each time
    rather than hold an m x m inverse.  A singular block raises.
    """
    vals = vals[layout.gather]
    inverses = []
    try:
        for c in chunks:
            if layout.bounds[c + 1] - layout.bounds[c] >= 2 * _CHUNK:
                inverses.append(None)
                continue
            inverse = np.linalg.inv(_chunk(layout, vals, c))
            inverse.flags.writeable = False
            inverses.append(inverse)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    return tuple(inverses)


def _kept_inverses(base: Model, vals: np.ndarray) -> tuple[np.ndarray | None, ...]:
    """The chunk inverses of ``base``'s solve for the values ``vals`` in its pattern.

    A chunk whose entries inside its own block ``vals`` leaves as they are
    keeps the base's inverse; only the others are inverted anew.
    """
    layout = base._layout
    moved = np.flatnonzero(vals[layout.gather] != base.matrices.vals[layout.gather])
    part = layout.runs.searchsorted(moved, side="right") - 1  # 3 c: inside chunk c
    inside = sorted(set((part[part % 3 == 0] // 3).tolist()))
    inverses = list(base._inverses)
    for c, inverse in zip(inside, _chunk_inverses(layout, vals, inside)):
        inverses[c] = inverse
    return tuple(inverses)


def _solve_checked(
    layout: _SolveLayout,
    vals: np.ndarray,
    inverses: Sequence[np.ndarray | None],
    x: np.ndarray,
) -> np.ndarray:
    """Solve x_N = M_N,: x + r_N in place, N the agents in the layout's ``order``.

    ``vals`` are M's entries in the pattern the layout was made from
    (`_solve_layout`); only N's rows are read.  ``inverses`` holds each
    chunk's (I - M_cc)⁻¹ from those values (`_chunk_inverses`), or None
    for a chunk to solve by LU here.  x (one row per agent, and any number
    of columns) holds r on N's rows and the known values on the rest.  x
    is found from the last chunk back, at each chunk's own rows.  Each
    chunk's rows' entries to known and to later columns go into two slabs
    over the columns they use, each taken in one product:

        b_c = r_c + M_c,known x_known,  x_c = (I - M_cc)⁻¹ (b_c + M_c,later x_later).

    No chunk depends on an earlier one, so each chunk's residual is that of
    the whole system; every row's, with I - M_cc gathered again from its
    rows, must stay within the tolerance relative to max|b|.  A solve that
    overflows leaves an inf or NaN residual, and that raises too.
    """
    order, bounds, rows, runs = layout.order, layout.bounds, layout.rows, layout.runs
    slot, used, used_runs = layout.slot, layout.used, layout.used_runs
    vals = vals[layout.gather]

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
            b = x[order[lo:hi]] + product(3 * c + 2, hi - lo)
            rhs = b + product(3 * c + 1, hi - lo)
            a = _chunk(layout, vals, c)
            inverse = inverses[c]
            solved = np.linalg.solve(a, rhs) if inverse is None else inverse @ rhs
            x[order[lo:hi]] = solved
            # np.maximum keeps a NaN, where max(0.0, nan) would drop it
            resid = np.maximum(resid, np.max(np.abs(a @ solved - rhs), initial=0.0))
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
    chunk over the condensation, from the sinks back, on P's own rows of K
    and in place in x.  It reads the model's layout (`Model._layout`) and
    chunk inverses (`Model._inverses`), both made on the first solve and
    read by every later one, so a later solve inverts nothing: each chunk
    of fewer than 2·_CHUNK agents costs its slab products and one product
    with its inverse, and only a larger one is LU-solved again.
    """
    return _solve_checked(model._layout, model.matrices.vals, model._inverses, x)


def _final_opinions(model: Model, x0s: Sequence[np.ndarray]) -> np.ndarray:
    """z for several x(0), one column each, by one `_complete`.

    Each column holds what `steady_state`'s direct-solve gives as z for its
    x(0), to the bit: the same column goes into the same solve, and the
    columns of a solve do not mix.  The x(0) are taken as checked floats.
    """
    beta = model.matrices.beta
    stubborn = beta > 0.0
    return _complete(model, np.column_stack(
        [np.where(stubborn, beta * x0, _unit_limits(model, x0)) for x0 in x0s]))


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
    x0 = _initial_opinions(x0, model.matrices.n)
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
