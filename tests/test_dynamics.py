"""Model matrices, convergence, simulation, spectra and steady states."""

import ast
import sys
import time
import tracemalloc
from fractions import Fraction as F
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
    load_spec,
    prepare,
    run_analysis,
    simulate,
    sink_spectrum,
    solve_gain,
    spectral_radius,
    steady_state,
)
from conftest import REF11, new_params
from signed_influence import centrality
from signed_influence.dynamics import (
    _CHUNK,
    block_spectral_radius,
    _chunk_bounds,
    _chunk_inverses,
    _solve_checked,
    _solve_layout,
    _solved_agents,
    _solved_blocks,
)
from signed_influence.sfg import _fold_matrix, _stubborn_inputs

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

    def test_semi_convergent_rho_is_one_by_structure(self, ref11, zoo17, count_calls):
        # ||P||_inf <= 1 and a stubborn-free balanced sink has eigenvalue 1:
        # the eigenvalues agree with the 1.0 the report writes without them
        radii = count_calls("block_spectral_radius")
        semi = 0
        for case in [ref11, zoo17, *map(random_network, range(200))]:
            cls, m = classify(case.net, case.params), build_matrices(case.net, case.params)
            report = build_report(run_analysis(case.net, case.params, case.x0), 1e-10, 10)
            rho = report["convergence"]["spectral_radius_estimate"]
            if cls.convergence == "semi-convergent":
                semi += 1
                assert rho == 1.0 == centrality._num(block_spectral_radius(m, cls.blocks))
            else:
                assert rho == centrality._num(block_spectral_radius(m, cls.blocks)) < 1.0
        assert semi == 137
        assert len(radii) == 202 - semi  # the report computes rho on convergent models only


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

    def test_run_analysis_computes_each_spectrum_once(self, count_calls):
        # once per network and params object: a second analysis computes none
        s = load_spec(str(REF11))
        calls = count_calls("sink_spectrum")
        run_analysis(s.net, s.params, s.x0, gain_method="solve")
        want = sorted(classify(s.net, s.params).influence_free_sinks)
        assert sorted(args[2] for args in calls) == want
        run_analysis(s.net, s.params, 2.0 * s.x0, gain_method="solve")
        assert sorted(args[2] for args in calls) == want
        run_analysis(s.net, new_params(s.params), s.x0, gain_method="solve")
        assert sorted(args[2] for args in calls) == sorted(want * 2)

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

    def test_direct_route_makes_one_complement_solve(self, count_calls):
        # z and z_o share one solve on the 4 followers and the stubborn sink
        # {5, 6, 7}, laid out once per network and params object
        s = load_spec(str(REF11))
        solves, layouts = count_calls("_solve_checked"), count_calls("_solve_layout")
        model = prepare(s.net, s.params)
        steady_state(model, s.x0, method=SteadyStateMethod.DIRECT_SOLVE)
        # 7 rows solved; x holds them and the 4 given agents, z and z_o side by side
        assert [(len(layout.order), x.shape) for layout, _, _, x in solves] == [(7, (11, 2))]
        assert solves[0][2] is model._inverses
        assert len(layouts) == 1
        steady_state(prepare(s.net, s.params), s.x0, method=SteadyStateMethod.DIRECT_SOLVE)
        assert (len(solves), len(layouts)) == (2, 1)
        steady_state(prepare(s.net, new_params(s.params)), s.x0)
        assert (len(solves), len(layouts)) == (3, 2)

    def test_solve_route_makes_two_solves(self, count_calls):
        # one for the five gain columns, one for z and z_o, both on the same
        # 7 agents and in one layout, made once per network and params object
        s = load_spec(str(REF11))
        solves, layouts = count_calls("_solve_checked"), count_calls("_solve_layout")
        run_analysis(s.net, s.params, s.x0, gain_method="solve")
        assert sorted((len(layout.order), x.shape) for layout, _, _, x in solves) == [
            (7, (11, 2)), (7, (11, 5))]
        assert solves[0][0] is solves[1][0] and solves[0][2] is solves[1][2]
        assert len(layouts) == 1
        run_analysis(s.net, s.params, s.x0, gain_method="solve")
        assert (len(solves), len(layouts)) == (4, 1)
        run_analysis(s.net, new_params(s.params), s.x0, gain_method="solve")
        assert (len(solves), len(layouts)) == (6, 2)

    def test_convergent_case_solves_whole_system(self):
        rn = random_network(11, kinds=("cooperative",), stubborn_offsets=((0,),))
        model = prepare(rn.net, rn.params)
        ss = steady_state(model, rn.x0)
        m = model.matrices
        expected = np.linalg.solve(np.eye(m.n) - m.dense(), m.beta * rn.x0)
        assert np.allclose(ss.z, expected)
        assert np.all(ss.z_o == 0.0)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
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


class TestPreparedModel:
    """`prepare` remembers one read-only model per network, for one params object."""

    def test_remembered_for_the_same_params_object(self):
        s = load_spec(str(REF11))
        model = prepare(s.net, s.params)
        assert prepare(s.net, s.params) is model
        other = new_params(s.params)
        assert other == s.params and prepare(s.net, other) is not model
        assert prepare(s.net, other) is prepare(s.net, other)
        assert prepare(s.net, s.params) is not model  # the network keeps the last one only

    def test_negative_zero_beta_is_not_taken_for_zero(self):
        # equal params, but beta x(0) differs in the sign of its zeros
        net = build_network(2, [(0, 1, 1.0)])
        plus = AgentParams(gamma=(0.5, 0.5), beta=(0.0, 0.0))
        minus = AgentParams(gamma=(0.5, 0.5), beta=(-0.0, 0.0))
        assert plus == minus
        a, b = prepare(net, plus).matrices.beta, prepare(net, minus).matrices.beta
        assert a.tobytes() != b.tobytes() and b.tobytes() == np.array([-0.0, 0.0]).tobytes()

    def test_arrays_are_read_only(self):
        s = load_spec(str(REF11))
        first = run_analysis(s.net, s.params, s.x0, gain_method="solve")
        model = first.model
        m = model.matrices
        arrays = [m.indptr, m.cols, m.vals, m.beta, m.rows]
        arrays += [a for spec in model.spectra.values() for a in (spec.w, spec.v)]
        arrays += [a for a in vars(model._layout).values() if isinstance(a, np.ndarray)]
        arrays += [a for a in model._inverses if a is not None] + [model._agents]
        arrays.append(centrality._flipped(m, {(0, 5)}).vals)
        assert len(arrays) == 5 + 2 * 2 + 8 + 1 + 1 + 1
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        second = run_analysis(s.net, s.params, s.x0, gain_method="solve")
        assert second.model is model
        fresh = run_analysis(load_spec(str(REF11)).net, s.params, s.x0, gain_method="solve")
        for res in (second, fresh):
            assert res.steady.z.tobytes() == first.steady.z.tobytes()
            assert res.collective.c.tobytes() == first.collective.c.tobytes()
            assert res.influence.theta.tobytes() == first.influence.theta.tobytes()
            assert res.centrality.scores.tobytes() == first.centrality.scores.tobytes()


class TestChunkInverses:
    """Each small chunk of the complement solve is inverted once per model."""

    @pytest.mark.parametrize("case", ["synth 1000", "big blocks"])
    def test_run_analysis_inverts_each_chunk_once(self, case, linalg_calls):
        inversions, lu_solves = linalg_calls("inv"), linalg_calls("solve")
        if case == "synth 1000":
            s = synth_network(1000, 0)
            net, params, x0 = s.net, s.params, s.x0
        else:
            net, params, x0 = _chunked_network()
        first = run_analysis(net, params, x0, gain_method="solve")
        sizes = np.diff(first.model._layout.bounds).tolist()
        assert len(sizes) > 1 and max(sizes) < 2 * _CHUNK
        # solve_gain and steady_state share the inverses
        assert inversions == [(m, m) for m in sizes]
        again = run_analysis(net, params, x0, gain_method="solve")
        assert again.model is first.model and len(inversions) == len(sizes)
        assert lu_solves == []  # each solve multiplies by the inverses
        assert again.steady.z.tobytes() == first.steady.z.tobytes()
        assert again.collective.c.tobytes() == first.collective.c.tobytes()

    def test_large_scc_holds_no_inverse(self, linalg_calls):
        inversions, lu_solves = linalg_calls("inv"), linalg_calls("solve")
        # 10 followers in a chain listen to a signed follower SCC of 150,
        # which listens to one leader: chunks of 10 and of 150
        rng = np.random.default_rng(0)
        m, n = 150, 161
        edges = {(i, i + 1): 1.0 for i in range(10)}
        for i in range(10, 10 + m):
            edges[i, 10 + (i - 9) % m] = rng.choice([-1.0, 1.0])
            edges[i, int(rng.integers(10, 10 + m))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2)
        edges = {(i, j): w for (i, j), w in edges.items() if i != j}
        edges[10, n - 1] = 1.0
        net = build_network(n, [(i, j, w) for (i, j), w in edges.items()])
        gamma = rng.uniform(0.1, 0.5, n)
        beta = np.zeros(n)
        params = AgentParams(gamma=tuple(gamma.tolist()), beta=tuple(beta.tolist()))
        x0 = rng.uniform(-1.0, 1.0, n)
        model = prepare(net, params)
        z = steady_state(model, x0).z
        assert model._layout.bounds == (0, 10, 10 + m)
        assert [inv is None for inv in model._inverses] == [False, True]
        assert inversions == [(10, 10)] and lu_solves == [(150, 150)]
        steady_state(model, x0)
        assert inversions == [(10, 10)] and lu_solves == [(150, 150)] * 2
        # the fixed point by the rows: z_i = P_i,: z + beta_i x0_i
        mat = model.matrices
        nxt = np.bincount(mat.rows, mat.vals * z[mat.cols], minlength=n) + beta * x0
        assert np.max(np.abs(nxt - z)) <= 1e-12
        assert z[-1] == x0[-1]
        _assert_matches_dense(net, params, x0)


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


def _solve(m, x, order, bounds):
    """`_solve_checked` on the rows ``order`` of the square matrix m, chunked at ``bounds``."""
    indptr, cols, vals = _rows(m)
    layout = _solve_layout(indptr, cols, order, bounds)
    return _solve_checked(layout, vals, _chunk_inverses(layout, vals, range(len(bounds) - 1)), x)


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
        order = np.arange(100)
        assert np.allclose(a @ _solve(np.eye(100) - a, np.ones(100), order, [0, 100]), 1.0)
        with pytest.raises(SingularSystemError):
            _solve(np.eye(100) - a, np.ones(100), order, [0, 64, 100])

    def test_rejects_singular_chunk(self):
        a = np.eye(100) + np.triu(np.full((100, 100), 0.01), 1)
        a[90, 90] = 0.0
        a[90, 91:] = 0.0
        with pytest.raises(SingularSystemError):
            _solve(np.eye(100) - a, np.ones((100, 2)), np.arange(100), [0, 64, 100])

    def test_overflow_is_refused(self):
        # (I - M)⁻¹ x overflows to inf and its residual to NaN, which a
        # fold with the builtin max would drop; numpy warns of both
        m = np.array([[0.0, 0.9], [0.9, 0.0]])
        with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
            with pytest.raises(SingularSystemError, match="^solve residual nan too large$"):
                _solve(m, np.array([1e308, 1e308]), np.arange(2), [0, 2])

    def test_known_columns_enter_the_right_hand_side(self):
        # x_N = M x + r with x given past N: the oracle is one dense solve
        rng = np.random.default_rng(3)
        m = np.triu(rng.uniform(-0.1, 0.1, (150, 180)) * (rng.random((150, 180)) < 0.2))
        m = np.vstack((m, np.zeros((30, 180))))
        x = np.concatenate((rng.uniform(-1, 1, (150, 3)), rng.uniform(-5, 5, (30, 3))))
        want = np.linalg.solve(np.eye(150) - m[:150, :150], x[:150] + m[:150, 150:] @ x[150:])
        got = _solve(m, x.copy(), np.arange(150), [0, 64, 128, 150])[:150]
        _assert_close(got, want)


def _exact_p(net, params):
    """P in exact rationals, from the exact values of the float inputs."""
    n = net.n
    gamma, beta = [F(g) for g in params.gamma], [F(b) for b in params.beta]
    absrow = [F(0)] * n
    for i, _, w in net.edges:
        absrow[i] += abs(F(w))
    p = [[F(0)] * n for _ in range(n)]
    for i, j, w in net.edges:
        p[i][j] = (1 - gamma[i] - beta[i]) * F(w) / absrow[i]
    for i in range(n):
        p[i][i] += gamma[i] + (0 if absrow[i] else 1 - gamma[i] - beta[i])
    return p


def _exact_complete(p, k, given, rhs):
    """X_K of (I - P_KK) X_K = P_K,given X_given + R_K by Gauss-Jordan in rationals.

    ``given`` and ``rhs`` map an agent to its row of X and of R."""
    a = [[int(r == c) - p[r][c] for c in k] + [
        rhs[r][t] + sum(p[r][j] * row[t] for j, row in given.items()) for t in range(len(rhs[r]))]
        for r in k]
    for c in range(len(k)):
        pivot = next(r for r in range(c, len(k)) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        for r in range(len(k)):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [[x / a[r][r] for x in a[r][len(k):]] for r in range(len(k))]


def _exact_rel(got, exact) -> float:
    """max |got - exact| over max |exact|, both row lists, in rationals."""
    err = max(abs(F(g) - e) for grow, erow in zip(got, exact) for g, e in zip(grow, erow))
    scale = max(abs(e) for row in exact for e in row)
    return float(err / scale) if scale else float(err)


def _near_singular_table():
    """(name, net, params): 2-4-agent chains and small SCCs, each nearly
    decoupled from its source by 10⁻ᵏ for k = 4 ... 14.  Every sink is a
    singleton leader or stubborn, so the exact z needs no eigenvector."""
    for k in range(4, 15):
        eps = 10.0 ** -k
        for m in (2, 3, 4):
            # agent i listens to i + 1; m - 1 is the leader
            chain = build_network(m, [(i, i + 1, (-1.0) ** i) for i in range(m - 1)])
            for name, gamma, beta in (
                ("gamma -> 1", 1.0 - eps, 0.0),
                ("gamma + beta = 1 - eps", 0.5, 0.5 - eps),
                ("stubborn, gamma + beta = 1 - eps", 0.75 - eps, 0.25),
            ):
                yield f"chain of {m}, {name}, k={k}", chain, AgentParams(
                    gamma=(gamma,) * (m - 1) + (0.5,), beta=(beta,) * (m - 1) + (0.0,))
        for m in (2, 3):
            # a signed follower cycle, its first member listening to the leader m
            scc = build_network(m + 1, [(i, (i + 1) % m, (-1.0) ** i) for i in range(m)]
                                + [(0, m, 1.0)])
            yield f"follower SCC of {m}, gamma -> 1, k={k}", scc, AgentParams(
                gamma=(1.0 - eps,) * m + (0.5,), beta=(0.0,) * (m + 1))
            yield f"follower SCC of {m}, gamma + beta = 1 - eps, k={k}", scc, AgentParams(
                gamma=(0.5,) * (m + 1), beta=(0.5 - eps,) + (0.0,) * m)
            # a stubborn sink cycle with gamma -> 1, and one follower of it
            sink = build_network(m + 1, [(i, (i + 1) % m, 1.0) for i in range(m)] + [(m, 0, -1.0)])
            yield f"stubborn sink of {m}, gamma -> 1, k={k}", sink, AgentParams(
                gamma=(1.0 - 2 * eps,) + (1.0 - eps,) * (m - 1) + (0.3,), beta=(eps,) + (0.0,) * m)


class TestExactOracle:
    """The solve route against exact rational arithmetic near singularity."""

    def test_answers_within_1e_8_of_the_exact_z_and_c(self):
        # every case of the table is answered: none may be refused
        cases = 0
        for name, net, params in _near_singular_table():
            n = net.n
            x0 = np.array([0.3, -0.7, 0.9, -0.4, 0.6][:n])
            model = prepare(net, params)
            z = steady_state(model, x0).z
            ci = solve_gain(model)
            k = list(ci.agents)
            given = [i for i in range(n) if i not in k]
            assert all((i,) in model.classification.sinks for i in given), name
            p, beta = _exact_p(net, params), [F(b) for b in params.beta]
            exact_z = _exact_complete(p, k, {i: [F(x0[i])] for i in given},
                                      {i: [beta[i] * F(x0[i])] for i in k})
            assert _exact_rel([[z[i]] for i in k], exact_z) <= 1e-8, name
            fold = _fold_matrix(ci.sources, n)
            rhs = {i: [F(0)] * len(ci.sources) for i in k}
            for i, column in zip(*_stubborn_inputs(ci.sources)):
                rhs[i][column] = beta[i]
            exact_c = _exact_complete(p, k, {i: list(map(F, fold[i])) for i in given}, rhs)
            assert _exact_rel(ci.c.tolist(), exact_c) <= 1e-8, name
            cases += 1
        assert cases == 11 * (3 * 3 + 3 * 2)


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


def test_linear_solves_only_in_the_chunk_kernel():
    # the complement solve has one production route: np.linalg.solve and
    # np.linalg.inv are called in src/ only by the chunk kernel, and
    # np.linalg is never reached by another name
    src = Path(__file__).resolve().parents[1] / "src" / "signed_influence"
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "linalg" not in (node.module or ""), (path.name, node.lineno)
            if isinstance(node, ast.Import):
                assert not any("linalg" in alias.name for alias in node.names), path.name
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute) and node.attr in ("solve", "inv")
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                    found.add((path.name, func.name, node.attr))
        linalg = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "linalg"]
        used = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert all(id(node) in used for node in linalg), path.name  # no bare np.linalg
    assert found == {("dynamics.py", "_solve_checked", "solve"),
                     ("dynamics.py", "_chunk_inverses", "inv")}
