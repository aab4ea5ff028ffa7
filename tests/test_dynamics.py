"""Model matrices, convergence, simulation, spectra and steady states."""

import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import random_network
from signed_influence import (
    AgentParams,
    DegenerateEigenspaceError,
    IterationCapError,
    ModelMatrices,
    SingularSystemError,
    SinkKind,
    SteadyStateMethod,
    StubbornSinkRejectedError,
    build_matrices,
    build_network,
    build_report,
    classify,
    prepare,
    run_analysis,
    simulate,
    sink_spectrum,
    solve_gain,
    spectral_radius,
    steady_state,
)
from signed_influence.dynamics import (
    _CHUNK,
    block_spectral_radius,
    _chunk_bounds,
    _solve_checked,
    _solved_agents,
    _solved_blocks,
)
from signed_influence.sfg import _fold_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from synth import synth_network  # noqa: E402


def _row_abs_sums(a, edges):
    """Each row's sum of |a_ij| over the edges, left to right in edge order."""
    sums = np.zeros(len(a))
    for i, j, _ in edges:
        sums[i] += abs(a[i, j])
    return sums


def _dense_build(net, params):
    """P built densely from the edges: the reference the rows must equal bit for bit."""
    n = net.n
    a = np.zeros((n, n))
    for i, j, w in net.edges:
        a[i, j] = w
    with np.errstate(over="ignore"):
        absrow = _row_abs_sums(a, net.edges)
    big = ~np.isfinite(absrow)
    a[big] /= np.abs(a[big]).max(axis=1, keepdims=True)
    absrow[big] = _row_abs_sums(a, net.edges)[big]
    live = absrow > 0.0
    q = np.zeros((n, n))
    q[live] = a[live] / absrow[live, None]
    q[~live, ~live] = 1.0
    gamma, beta = np.array(params.gamma), np.array(params.beta)
    p = (1.0 - gamma - beta)[:, None] * q
    p[np.diag_indices(n)] += gamma
    return p


def _q(m, params):
    """Q read back from P = Gamma + (I - Gamma - B) Q, row by row."""
    gamma, beta = np.array(params.gamma), np.array(params.beta)
    return (m.dense() - np.diag(gamma)) / (1.0 - gamma - beta)[:, None]


class TestBuildMatrices:
    def test_two_node_cycle(self):
        net = build_network(2, [(0, 1, 2.0), (1, 0, 1.0)])
        params = AgentParams(gamma=(0.4, 0.4), beta=(0.0, 0.0))
        m = build_matrices(net, params)
        assert np.allclose(_q(m, params), [[0, 1], [1, 0]])
        assert np.allclose(m.dense(), [[0.4, 0.6], [0.6, 0.4]])

    def test_sign_preserving_normalization(self, ref11):
        m = build_matrices(ref11.net, ref11.params)
        q = _q(m, ref11.params)
        # antagonistic row: weights -5 and 11 normalize by |−5| + |11|
        assert q[9, 8] == pytest.approx(-5 / 16)
        assert q[9, 10] == pytest.approx(11 / 16)
        assert m.dense()[9, 8] == pytest.approx(-0.25)
        assert m.dense()[9, 10] == pytest.approx(0.55)

    def test_sink_row_self_normalizes(self):
        net = build_network(2, [(0, 1, 3.0)])
        params = AgentParams(gamma=(0.2, 0.5), beta=(0.1, 0.0))
        m = build_matrices(net, params)
        assert _q(m, params)[1, 1] == 1.0
        assert m.dense()[1, 1] == 1.0  # gamma + (1 - gamma) * 1

    def test_row_abs_sums_equal_one_minus_beta(self):
        for seed in range(25):
            rn = random_network(seed)
            m = build_matrices(rn.net, rn.params)
            sums = np.abs(m.dense()).sum(axis=1)
            assert np.allclose(sums, 1.0 - m.beta, atol=1e-12)

    def test_row_sum_overflow_is_rescaled(self):
        # |1e308| + |-1e308| overflows; the row must still normalise to [0, .5, -.5]
        net = build_network(3, [(0, 1, 1e308), (0, 2, -1e308)])
        params = AgentParams(gamma=(0.5, 0.5, 0.5), beta=(0.0, 0.0, 0.0))
        model = prepare(net, params)
        assert _q(model.matrices, params)[0].tolist() == [0.0, 0.5, -0.5]
        z = steady_state(model, np.array([0.0, 1.0, 3.0])).z
        assert z[0] == pytest.approx(-1.0)

    def test_rows_are_the_dense_build_bit_for_bit(self, ref11, zoo17):
        nets = [(ref11.net, ref11.params), (zoo17.net, zoo17.params)]
        nets += [(rn.net, rn.params) for rn in map(random_network, range(200))]
        nets += [(s.net, s.params) for s in (synth_network(200, 0), synth_network(1000, 1))]
        nets.append((build_network(3, [(0, 1, 1e308), (0, 2, -1e308), (1, 2, 3.0)]),
                     AgentParams(gamma=(0.5, 0.0, 0.5), beta=(0.0, 0.2, 0.0))))
        for k, (net, params) in enumerate(nets):
            m = build_matrices(net, params)
            assert np.array_equal(m.dense(), _dense_build(net, params)), k
            # columns ascending within each row, and only nonzeros stored
            rows = np.repeat(np.arange(m.n), np.diff(m.indptr))
            assert np.all((np.diff(m.cols) > 0) | (np.diff(rows) > 0)), k
            assert np.all(m.vals != 0.0) and m.indptr[-1] == len(m.cols) == len(m.vals), k

    def test_stubborn_input_matrix(self, ref11):
        cls, m = classify(ref11.net, ref11.params), build_matrices(ref11.net, ref11.params)
        assert sorted(cls.stubborn) == [0, 5]
        assert np.flatnonzero(m.beta).tolist() == [0, 5]
        assert m.beta[0] == pytest.approx(0.3)
        assert m.beta[5] == pytest.approx(0.2)


class TestSpectralRadius:
    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            expected = np.max(np.abs(np.linalg.eigvals(m)))
            assert spectral_radius(m) == pytest.approx(expected, rel=1e-6)

    def test_empty_matrix(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_reducible_matrices(self):
        # block upper triangular with blocks of sizes 1..4, then permuted
        rng = np.random.default_rng(11)
        for _ in range(30):
            sizes = rng.integers(1, 5, size=4)
            n = int(sizes.sum())
            m = np.triu(rng.standard_normal((n, n)))
            start = 0
            for k in sizes:
                m[start:start + k, start:start + k] = rng.standard_normal((k, k))
                start += k
            perm = rng.permutation(n)
            m = m[np.ix_(perm, perm)]
            expected = np.max(np.abs(np.linalg.eigvals(m)))
            assert spectral_radius(m) == pytest.approx(expected, abs=1e-12)

    def test_plus_minus_dominant_pair(self):
        # eigenvalues +-2 dominate: a power iteration oscillates between them
        m = np.array([
            [0.0, 2.0, 0.3, 0.0],
            [2.0, 0.0, 0.0, 0.1],
            [0.0, 0.0, 0.5, 0.2],
            [0.0, 0.0, -0.4, 0.1],
        ])
        assert spectral_radius(m) == pytest.approx(2.0, abs=1e-12)
        assert spectral_radius(m) == pytest.approx(np.max(np.abs(np.linalg.eigvals(m))), abs=1e-12)

    def test_update_matrix_of_every_netgen_network(self):
        for seed in range(200):
            rn = random_network(seed)
            m = build_matrices(rn.net, rn.params)
            expected = np.max(np.abs(np.linalg.eigvals(m.dense())))
            assert spectral_radius(m.dense()) == pytest.approx(expected, abs=1e-12), seed

    def test_classification_blocks_give_the_same_radius(self):
        for seed in range(200):
            rn = random_network(seed)
            cls, m = classify(rn.net, rn.params), build_matrices(rn.net, rn.params)
            assert block_spectral_radius(m, cls.blocks) == spectral_radius(m.dense()), seed

    def test_report_reads_rho_off_the_classification(self, ref11, count_calls):
        res = run_analysis(ref11.net, ref11.params, ref11.x0, gain_method="solve")
        searches = count_calls("strong_components")
        report = build_report(res, 1e-10, 10)
        assert searches == []
        assert report["convergence"]["spectral_radius_estimate"] == 1.0


class TestConvergenceVerdict:
    def test_reference_network_is_semi_convergent(self, ref11):
        cls, m = classify(ref11.net, ref11.params), build_matrices(ref11.net, ref11.params)
        assert cls.convergence == "semi-convergent"
        assert cls.unit_eigen_count == 2
        assert spectral_radius(m.dense()) == pytest.approx(1.0, abs=1e-12)

    def test_all_stubborn_sinks_give_convergence(self):
        rn = random_network(3, kinds=("cooperative", "balanced"),
                            stubborn_offsets=((0,), (1,)))
        cls, m = classify(rn.net, rn.params), build_matrices(rn.net, rn.params)
        assert cls.convergence == "convergent"
        assert cls.unit_eigen_count == 0
        assert spectral_radius(m.dense()) < 1 - 1e-6

    def test_decision_is_structural(self):
        # verdict must match the presence of stubborn-free balanced sinks
        for seed in range(30):
            rn = random_network(seed)
            cls = classify(rn.net, rn.params)
            expect_semi = len(cls.influence_free_sinks) > 0
            assert (cls.convergence == "semi-convergent") == expect_semi


class TestSimulate:
    def test_trajectory_starts_at_x0_and_converges(self, ref11):
        m = build_matrices(ref11.net, ref11.params)
        log = simulate(m, ref11.x0)
        assert np.array_equal(log.xs[0], ref11.x0)
        assert log.converged
        assert log.residual < 1e-10
        assert log.xs[-1][0] == pytest.approx(5.1787, abs=1e-3)

    def test_zero_initial_state_is_fixed(self, ref11):
        m = build_matrices(ref11.net, ref11.params)
        log = simulate(m, np.zeros(11))
        assert log.converged
        assert np.all(log.xs[-1] == 0.0)

    def test_max_iters_zero_records_only_x0(self, ref11):
        m = build_matrices(ref11.net, ref11.params)
        log = simulate(m, ref11.x0, max_iters=0)
        assert log.xs.shape == (1, 11)
        assert not log.converged

    def test_log_keeps_x0_and_last_iterate(self, ref11):
        m = build_matrices(ref11.net, ref11.params)
        seen = []
        log = simulate(m, ref11.x0, on_iterate=lambda k, x: seen.append((k, x.copy())))
        assert log.xs.shape == (2, 11)
        assert [k for k, _ in seen] == list(range(log.iterations + 1))
        assert np.array_equal(log.xs[0], seen[0][1]) and np.array_equal(log.xs[0], ref11.x0)
        assert np.array_equal(log.xs[-1], seen[-1][1])

    def test_rows_product_matches_a_dense_iteration(self):
        # the oracle iterates x <- P x + beta x(0) on the dense P, same stopping rule
        for seed in range(200):
            rn = random_network(seed)
            m = build_matrices(rn.net, rn.params)
            log = simulate(m, rn.x0)
            p, x, iters, residual = m.dense(), rn.x0.copy(), 0, np.inf
            while residual >= 1e-10:
                nxt = p @ x + m.beta * rn.x0
                residual, x, iters = np.max(np.abs(nxt - x)), nxt, iters + 1
            assert log.converged and log.iterations == iters, seed
            _assert_close(log.xs[-1], x)

    def test_memory_follows_the_edges(self):
        # a dense P of a 5000-agent chain alone would take 200 MB
        n = 5000
        net = build_network(n, [(i, i + 1, 1.0 if i % 2 else -1.0) for i in range(n - 1)])
        params = AgentParams(gamma=(0.3,) * n, beta=(0.0,) * n)
        m = build_matrices(net, params)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        peak = _traced_peak(simulate, m, x0, 1e-10, 50)
        assert peak <= 2**20, peak


class TestSinkSpectrum:
    def test_antagonistic_pair(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, -1.0), (2, 1, -1.0)])
        params = AgentParams(gamma=(0.2, 0.5, 0.5), beta=(0.0, 0.0, 0.0))
        cls, m = classify(net, params), build_matrices(net, params)
        spec = sink_spectrum(m, cls, cls.sinks.index((1, 2)))
        assert np.allclose(spec.w, [0.5, -0.5])
        assert np.allclose(spec.v, [1.0, -1.0])

    def test_reference_balanced_sink(self, ref11):
        cls, m = classify(ref11.net, ref11.params), build_matrices(ref11.net, ref11.params)
        spec = sink_spectrum(m, cls, 2)
        assert np.allclose(spec.w, [15 / 51, -16 / 51, -20 / 51], atol=1e-12)
        assert float(spec.v @ spec.w) == pytest.approx(1.0)
        # genuinely a left eigenvector of the sink block at eigenvalue 1
        block = m.block(cls.sinks[2])
        assert np.allclose(spec.w @ block, spec.w, atol=1e-12)

    def test_cooperative_sink_has_all_ones_pattern(self, zoo17):
        cls, m = classify(zoo17.net, zoo17.params), build_matrices(zoo17.net, zoo17.params)
        coop = next(s for s in sorted(cls.influence_free_sinks) if len(cls.sinks[s]) > 1)
        spec = sink_spectrum(m, cls, coop)
        assert np.all(spec.v == 1.0)
        assert spec.w.sum() == pytest.approx(1.0)
        assert np.all(spec.w > 0)

    def test_run_analysis_computes_each_spectrum_once(self, ref11, count_calls):
        calls = count_calls("sink_spectrum")
        run_analysis(ref11.net, ref11.params, ref11.x0, gain_method="solve")
        cls = classify(ref11.net, ref11.params)
        assert sorted(args[2] for args in calls) == sorted(cls.influence_free_sinks)

    def test_rejects_stubborn_sink(self, ref11):
        cls, m = classify(ref11.net, ref11.params), build_matrices(ref11.net, ref11.params)
        with pytest.raises(StubbornSinkRejectedError):
            sink_spectrum(m, cls, 1)

    def test_rejects_unbalanced_sink(self, zoo17):
        cls, m = classify(zoo17.net, zoo17.params), build_matrices(zoo17.net, zoo17.params)
        unb = next(s for s, kind in cls.sink_kind.items() if kind == SinkKind.UNBALANCED)
        with pytest.raises(DegenerateEigenspaceError):
            sink_spectrum(m, cls, unb)


class TestLeaderLimit:
    # lim P^k x(0) on a stubborn-free sink is steady_state(...).z_o on its members
    def test_singleton(self, ref11):
        model = prepare(ref11.net, ref11.params)
        assert model.classification.sinks[0] == (4,)
        z_o = steady_state(model, ref11.x0).z_o
        assert z_o[4] == 7.0

    def test_balanced_bipartite_consensus(self, ref11):
        z_o = steady_state(prepare(ref11.net, ref11.params), ref11.x0).z_o
        a = 50.2 / 51
        assert z_o[8] == pytest.approx(a)
        assert z_o[9] == pytest.approx(-a)
        assert z_o[10] == pytest.approx(-a)

    def test_unbalanced_limit_is_zero(self, zoo17):
        model = prepare(zoo17.net, zoo17.params)
        cls = model.classification
        unb = next(s for s, kind in cls.sink_kind.items() if kind == SinkKind.UNBALANCED)
        assert not cls.sink_has_stubborn(unb)
        z_o = steady_state(model, zoo17.x0).z_o
        assert all(z_o[i] == 0.0 for i in cls.sinks[unb])


class TestSteadyState:
    @pytest.mark.parametrize("method", list(SteadyStateMethod))
    def test_reference_network_three_routes(self, ref11, method):
        ss = steady_state(prepare(ref11.net, ref11.params), ref11.x0, method=method)
        assert ss.z[0] == pytest.approx(5.178745, abs=1e-4)
        assert ss.z[4] == pytest.approx(7.0, abs=1e-6)
        assert ss.z[5] == pytest.approx(3.0, abs=1e-6)
        assert np.allclose(ss.z, ss.z_o + ss.z_s, atol=1e-6)

    def test_iteration_route_raises_at_its_cap(self, ref11):
        # three steps leave z ~5 from the solve; the route must not return it as z
        model = prepare(ref11.net, ref11.params)
        with pytest.raises(IterationCapError, match="after 3 iterations: residual ") as exc:
            steady_state(model, ref11.x0, SteadyStateMethod.ITERATION, max_iters=3)
        assert exc.value.iterations == 3 and exc.value.residual >= 1e-10

    def test_routes_agree_on_random_networks(self):
        for seed in range(20):
            rn = random_network(seed)
            model = prepare(rn.net, rn.params)
            zs = [steady_state(model, rn.x0, method=meth).z for meth in SteadyStateMethod]
            assert np.allclose(zs[0], zs[1], atol=1e-8)
            assert np.allclose(zs[0], zs[2], atol=1e-6)

    def test_direct_route_makes_one_complement_solve(self, ref11, count_calls):
        # z and z_o share one solve on the 4 followers and the stubborn sink {5, 6, 7}
        model = prepare(ref11.net, ref11.params)
        solves = count_calls("_solve_checked")
        steady_state(model, ref11.x0, method=SteadyStateMethod.DIRECT_SOLVE)
        # 7 rows solved; x holds them and the 4 given agents, z and z_o side by side
        assert [(len(indptr) - 1, x.shape) for indptr, _, _, x in solves] == [(7, (11, 2))]

    def test_solve_route_makes_two_solves(self, ref11, count_calls):
        # one for the five gain columns, one for z and z_o, both on the same 7 agents
        solves = count_calls("_solve_checked")
        run_analysis(ref11.net, ref11.params, ref11.x0, gain_method="solve")
        assert sorted((len(indptr) - 1, x.shape) for indptr, _, _, x in solves) == [
            (7, (11, 2)), (7, (11, 5))]

    def test_convergent_case_solves_whole_system(self):
        rn = random_network(11, kinds=("cooperative",), stubborn_offsets=((0,),))
        model = prepare(rn.net, rn.params)
        ss = steady_state(model, rn.x0)
        m = model.matrices
        expected = np.linalg.solve(np.eye(m.n) - m.dense(), m.beta * rn.x0)
        assert np.allclose(ss.z, expected)
        assert np.all(ss.z_o == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity_in_initial_opinions(self, seed, a, b):
        rn = random_network(seed)
        model = prepare(rn.net, rn.params)
        rng = np.random.default_rng(seed + 1)
        x, y = rng.uniform(-5, 5, rn.net.n), rng.uniform(-5, 5, rn.net.n)
        zx = steady_state(model, x).z
        zy = steady_state(model, y).z
        zc = steady_state(model, a * x + b * y).z
        assert np.allclose(zc, a * zx + b * zy, atol=1e-7)


def _dense_complete(m, cls, x, rhs):
    """The whole-matrix oracle: one dense solve of (I - P_KK) X_K = P_K,given X_given + R_K."""
    k = _solved_agents(cls)
    given = np.setdiff1d(np.arange(m.n), k)
    x = x.copy()
    p = m.dense()
    a = np.eye(len(k)) - p[np.ix_(k, k)]
    x[k] = np.linalg.solve(a, p[np.ix_(k, given)] @ x[given] + rhs[k])
    return x


def _rows(m):
    """A dense matrix's CSR rows: indptr, cols and vals."""
    rows, cols = np.nonzero(m)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(m)))))
    return indptr, cols, m[rows, cols]


def _assert_close(got, want):
    scale = max(1.0, np.max(np.abs(want), initial=0.0))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


def _assert_matches_dense(net, params, x0):
    """z, z_o and the gains c of the chunked solve equal the dense oracle's."""
    model = prepare(net, params)
    cls, m = model.classification, model.matrices
    ss = steady_state(model, x0)  # the oracle reads only the given rows
    _assert_close(ss.z, _dense_complete(m, cls, ss.z, m.beta * x0))
    _assert_close(ss.z_o, _dense_complete(m, cls, ss.z_o, np.zeros(m.n)))
    ci = solve_gain(model)
    g = _fold_matrix(ci.sources, m.n)
    g[list(ci.agents)] = ci.c
    rhs = np.zeros_like(g)
    stubborn = sorted(cls.stubborn)
    rhs[stubborn, len(ci.sources) - len(stubborn) + np.arange(len(stubborn))] = m.beta[stubborn]
    _assert_close(ci.c, _dense_complete(m, cls, g, rhs)[list(ci.agents)])


def _chunked_network(seed=0):
    """Signed follower SCCs of 100, 30, 50, 3 and 70 agents in a chain, the
    last listening to a stubborn cooperative sink of 70 and a stubborn-free
    balanced sink of 4.  Every agent may also listen to a later block."""
    rng = np.random.default_rng(seed)
    sizes = (100, 30, 50, 3, 70, 70, 4)
    starts = np.cumsum((0,) + sizes).tolist()
    blocks = [list(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    sides = {m: 1 if m % 3 else -1 for m in blocks[-1]}  # the balanced sink's camps
    edges = {}
    for b, members in enumerate(blocks):
        for a, c in zip(members, members[1:] + members[:1]):
            if b == 6:
                sign = sides[a] * sides[c]
            elif b == 5:
                sign = 1
            else:
                sign = rng.choice([1, -1])
            edges[a, c] = sign * rng.uniform(0.5, 2.0)
        if b < 5:
            for a in members:
                if rng.random() < 0.5:
                    later = rng.integers(starts[b + 1], starts[-1])
                    edges[a, later] = rng.choice([1, -1]) * rng.uniform(0.5, 2.0)
        if b < 4:
            edges[members[0], blocks[b + 1][0]] = 1.0
    edges[blocks[4][0], blocks[5][0]] = -1.0
    edges[blocks[4][1], blocks[6][0]] = 1.0
    n = starts[-1]
    beta = np.where(rng.random(n) < 0.1, rng.uniform(0.05, 0.2, n), 0.0)
    beta[blocks[6]] = 0.0
    beta[blocks[5][0]] = 0.3
    gamma = rng.uniform(0.1, 0.5, n)
    net = build_network(n, [(i, j, float(w)) for (i, j), w in edges.items()])
    params = AgentParams(gamma=tuple(gamma.tolist()), beta=tuple(beta.tolist()))
    return net, params, rng.uniform(-5, 5, n)


class TestComplementSolve:
    """The chunked solve over the condensation against one dense solve."""

    def test_chunks_close_at_block_ends(self):
        assert _chunk_bounds([40, 100, 30, 50, 3]) == [0, 40, 140, 220, 223]
        assert _chunk_bounds([1] * 130) == [0, 64, 128, 130]
        assert _chunk_bounds([3]) == [0, 3]
        assert _chunk_bounds([_CHUNK]) == [0, _CHUNK]

    def test_matches_dense_on_netgen(self):
        for seed in range(200):
            rn = random_network(seed)
            _assert_matches_dense(rn.net, rn.params, rn.x0)

    @pytest.mark.parametrize("n", [200, 1000, 2000])
    def test_matches_dense_on_synth(self, n):
        s = synth_network(n, 0)
        _assert_matches_dense(s.net, s.params, s.x0)

    def test_matches_dense_across_big_blocks(self):
        # the SCCs of 100 and 70 and the stubborn sink are chunks of their own;
        # 30 + 50 close a chunk past _CHUNK, and the 3 before the 70 one more
        net, params, x0 = _chunked_network()
        cls = classify(net, params)
        sizes = [len(block) for block in _solved_blocks(cls)]
        assert sizes == [100, 30, 50, 3, 70, 70]
        assert _chunk_bounds(sizes) == [0, 100, 180, 183, 253, 323]
        _assert_matches_dense(net, params, x0)

    def test_rejects_nonzero_below_chunk_diagonal(self):
        # the rows are those of M in a = I - M
        a = np.eye(100)
        a[70, 3] = 0.5
        rows = _rows(np.eye(100) - a)
        assert np.allclose(a @ _solve_checked(*rows, np.ones(100), bounds=[0, 100]), 1.0)
        with pytest.raises(SingularSystemError):
            _solve_checked(*rows, np.ones(100), bounds=[0, 64, 100])

    def test_rejects_singular_chunk(self):
        a = np.eye(100) + np.triu(np.full((100, 100), 0.01), 1)
        a[90, 90] = 0.0
        a[90, 91:] = 0.0
        with pytest.raises(SingularSystemError):
            _solve_checked(*_rows(np.eye(100) - a), np.ones((100, 2)), bounds=[0, 64, 100])

    def test_known_columns_enter_the_right_hand_side(self):
        # x_N = M x + r with x given past N: the oracle is one dense solve
        rng = np.random.default_rng(3)
        m = np.triu(rng.uniform(-0.1, 0.1, (150, 180)) * (rng.random((150, 180)) < 0.2))
        m = np.vstack((m, np.zeros((30, 180))))
        x = np.concatenate((rng.uniform(-1, 1, (150, 3)), rng.uniform(-5, 5, (30, 3))))
        want = np.linalg.solve(np.eye(150) - m[:150, :150], x[:150] + m[:150, 150:] @ x[150:])
        got = _solve_checked(*_rows(m[:150]), x.copy(), bounds=[0, 64, 128, 150])[:150]
        _assert_close(got, want)


def _refuse_dense(monkeypatch):
    def refuse(self):
        raise AssertionError("dense P built")

    monkeypatch.setattr(ModelMatrices, "dense", refuse)


class TestNoDenseP:
    """The production routes, `simulate` and `--check` among them, read P's rows only."""

    @pytest.fixture(params=["reference11", "showcase17", "synth200"])
    def case(self, request, ref11, zoo17):
        if request.param == "synth200":
            s = synth_network(200, 0)
            return s.net, s.params, s.x0
        spec = ref11 if request.param == "reference11" else zoo17
        return spec.net, spec.params, spec.x0

    def test_analysis_report_and_whatif(self, case, monkeypatch, tmp_path, capsys):
        from signed_influence import flip_edge_signs, perturb_initial
        from signed_influence.cli import main
        from synth import spec_text

        net, params, x0 = case
        spec = tmp_path / "spec.yaml"
        spec.write_text(spec_text(net, params, x0))
        _refuse_dense(monkeypatch)
        res = run_analysis(net, params, x0, gain_method="solve")
        build_report(res, 1e-10, 100)
        for method in SteadyStateMethod:
            steady_state(res.model, x0, method=method)
        perturb_initial(net, params, x0, 0, 1.0)
        flip_edge_signs(net, params, x0, (net.edges[0][:2], net.edges[-1][:2]))
        assert simulate(res.model.matrices, x0).converged
        assert main(["influence", str(spec), "--check", "--out", str(tmp_path / "r.yaml")]) == 0
        assert capsys.readouterr().out.startswith("check: prediction matches simulation")


def _traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_matrices_memory_follows_the_edges(synth10k):
    # 975 stubborn agents: an n x s input matrix alone would take 74 MiB
    peak = _traced_peak(build_matrices, synth10k.net, synth10k.params)
    assert peak <= 15 * 2**20, peak


def test_solve_gain_makes_no_separate_right_hand_side():
    # S = 210 sources, 3.2 MiB per n x S array: the gains and the solve's
    # working copy stay under the bound, a third such array would not
    s = synth_network(2000, 0)
    model = prepare(s.net, s.params)
    peak = _traced_peak(solve_gain, model)
    assert peak <= 10 * 2**20, peak


def test_chain_of_a_hundred_thousand_in_linear_memory():
    # classify, the rows and z on a signed chain: no n x n array anywhere
    n = 100_000
    rng = np.random.default_rng(0)
    signs = np.where(rng.random(n - 1) < 0.5, -1.0, 1.0)
    net = build_network(n, [(i, i + 1, float(s)) for i, s in enumerate(signs)])
    gamma = np.full(n, 0.3)
    beta = np.zeros(n)
    beta[0] = 0.2
    params = AgentParams(gamma=tuple(gamma), beta=tuple(beta))
    x0 = rng.uniform(-1.0, 1.0, n)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        z = steady_state(prepare(net, params), x0).z
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert peak < 100e6, peak
    # the fixed point by the test's own row product: z_i = P_i,: z + beta_i x0_i
    nxt = gamma * z + beta * x0
    nxt[:-1] += (1.0 - gamma[:-1] - beta[:-1]) * signs * z[1:]
    nxt[-1] += (1.0 - gamma[-1] - beta[-1]) * z[-1]  # the leader listens to itself
    assert np.max(np.abs(nxt - z)) <= 1e-12
    assert z[-1] == x0[-1]
    print(f"n = {n}: {elapsed:.2f} s, peak {peak / 1e6:.1f} MB")
