"""Absolute influence centrality and the what-if experiments."""

import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netgen import random_network
from signed_influence import (
    AgentParams,
    DuplicateEdgeError,
    InfluenceMatrix,
    NetworkValidationError,
    NoSuchEdgeError,
    ZeroDeltaError,
    absolute_centrality,
    build_network,
    flip_edge_signs,
    perturb_initial,
    prepare,
    steady_state,
)
from signed_influence import build_matrices, centrality
from signed_influence.cli import main
from signed_influence.pipeline import run_analysis

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from synth import spec_text, synth_network  # noqa: E402


def _influence(theta):
    """Θ as columns of H = Θ: agent j's column is H's column j, factor 1."""
    h = np.asarray(theta, dtype=float)
    agents = np.arange(h.shape[1])
    return InfluenceMatrix(h=h, agents=agents, column=agents, factor=np.ones(len(agents)))


class TestAbsoluteCentrality:
    def test_scores_are_column_abs_sums(self):
        theta = [[0.5, -0.25], [0.0, 0.75]]
        res = absolute_centrality(_influence(theta))
        assert np.allclose(res.scores, [0.5, 1.0])
        assert res.ranking == (1, 0)
        assert res.most_influential == 1

    def test_ties_break_by_lowest_id(self):
        res = absolute_centrality(_influence(np.eye(4)))
        assert res.ranking == (0, 1, 2, 3)
        assert res.most_influential == 0

    def test_scores_equal_at_report_precision_tie(self):
        # a zero third row makes Θ square: agents and sources are one set
        res = absolute_centrality(_influence([[0.0, 0.75, 0.7500000000000002]] * 2 + [[0.0] * 3]))
        assert res.scores[2] > res.scores[1]
        assert res.ranking == (1, 2, 0)

    def test_cooperative_pair_tie_breaks_by_id(self):
        # the pair's left eigenvector can come out [0.5, 0.5000000000000002]
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        params = AgentParams(gamma=(0.3, 0.3, 0.3), beta=(0.0, 0.0, 0.0))
        res = run_analysis(net, params, [1.0, 2.0, 3.0], gain_method="solve").centrality
        assert f"{res.scores[1]:.12g}" == f"{res.scores[2]:.12g}" == "1.5"
        assert res.ranking == (1, 2, 0)
        assert res.most_influential == 1

    def test_reference_network(self, ref11):
        res = run_analysis(ref11.net, ref11.params, ref11.x0, gain_method="solve")
        expected = [0.5, 0, 0, 0, 1.62, 3.92, 0, 0, 1.0824, 1.1545, 1.4431]
        assert np.allclose(res.centrality.scores, expected, atol=1e-3)
        assert res.centrality.most_influential == 5
        # ranking: stubborn leader, singleton leader, then antagonists
        assert res.centrality.ranking[:5] == (5, 4, 10, 9, 8)

    def test_independent_of_initial_opinions(self, ref11):
        a = run_analysis(ref11.net, ref11.params, ref11.x0, gain_method="solve")
        b = run_analysis(ref11.net, ref11.params, ref11.x0 * 13.7, gain_method="solve")
        assert np.allclose(a.centrality.scores, b.centrality.scores)
        assert a.centrality.ranking == b.centrality.ranking


_FACTORED_CASES = (
    [("fixture", name, method) for name in ("ref11", "zoo17") for method in ("auto", "solve")]
    + [("netgen", seed, "auto") for seed in range(0, 200, 10)]
    + [("synth", n, "solve") for n in (100, 200, 1000)]
)


class TestFactoredCentrality:
    @pytest.mark.parametrize("kind,which,method", _FACTORED_CASES,
                             ids=[f"{k}-{w}-{m}" for k, w, m in _FACTORED_CASES])
    def test_scores_are_thetas_column_norms(self, request, kind, which, method):
        # the oracle: Θ built whole and its columns' L1 norms summed
        case = {"fixture": request.getfixturevalue, "netgen": random_network,
                "synth": lambda n: synth_network(n, 0)}[kind](which)
        res = run_analysis(case.net, case.params, case.x0, gain_method=method)
        want = np.abs(res.influence.theta).sum(axis=0)
        np.testing.assert_allclose(res.centrality.scores, want, rtol=1e-13, atol=0.0)
        ranked = sorted(range(len(want)), key=lambda i: (-centrality._num(want[i]), i))
        assert res.centrality.ranking == tuple(ranked)

    def test_analysis_builds_no_n_by_n_array(self):
        # Θ at n = 4000 alone would be 122 MiB
        s = synth_network(4000, 0)
        tracemalloc.start()
        try:
            res = run_analysis(s.net, s.params, s.x0, gain_method="solve")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "theta" not in res.influence.__dict__
        assert peak <= 64 * 2**20, peak

    @pytest.mark.parametrize("command", ["centrality", "whatif --perturb", "whatif --flip-edge"])
    def test_commands_build_no_theta(self, tmp_path, monkeypatch, capsys, command):
        s = synth_network(200, 0)
        path = tmp_path / "synth.yaml"
        path.write_text(spec_text(s.net, s.params, s.x0))
        i, j, _ = s.net.edges[0]
        args = {"centrality": [], "whatif --perturb": ["0", "1.5"],
                "whatif --flip-edge": [str(i), str(j)]}[command]
        name, *flag = command.split()

        def refused(self):
            raise AssertionError("the n x n influence matrix was built")

        monkeypatch.setattr(InfluenceMatrix, "theta", property(refused))
        assert main([name, str(path), *flag, *args]) == 0, capsys.readouterr().err


class TestPerturbInitial:
    def test_rejects_zero_delta(self, ref11):
        with pytest.raises(ZeroDeltaError):
            perturb_initial(ref11.net, ref11.params, ref11.x0, 0, 0.0)

    def test_rejects_delta_lost_against_x0(self, ref11):
        # x0[0] = 8e17: adding 1 leaves it unchanged, though agent 0's centrality is 0.5
        with pytest.raises(ZeroDeltaError):
            perturb_initial(ref11.net, ref11.params, ref11.x0 * 1e17, 0, 1.0)

    def test_reference_stubborn_leader(self, ref11):
        res = perturb_initial(ref11.net, ref11.params, ref11.x0, 5, 1.0)
        assert res.deviation_per_unit == pytest.approx(3.92, abs=1e-9)

    def test_non_influential_agent_gives_zero(self, ref11):
        res = perturb_initial(ref11.net, ref11.params, ref11.x0, 1, 2.5)
        assert res.deviation_per_unit == pytest.approx(0.0, abs=1e-12)

    def test_homogeneous_in_delta(self, ref11):
        a = perturb_initial(ref11.net, ref11.params, ref11.x0, 8, 1.0)
        b = perturb_initial(ref11.net, ref11.params, ref11.x0, 8, 17.0)
        assert a.deviation_per_unit == pytest.approx(b.deviation_per_unit)

    def test_sets_up_once(self, ref11, count_calls):
        # base and perturbed runs share one network: classify it once
        calls = count_calls("classify")
        perturb_initial(ref11.net, ref11.params, ref11.x0, 5, 1.0)
        assert len(calls) == 1

    def test_one_spectrum_per_sink_and_no_rho(self, ref11, count_calls):
        # rho is a report diagnostic; both steady states share one set of spectra
        rho_calls = count_calls("spectral_radius")
        sinks = count_calls("sink_spectrum")
        perturb_initial(ref11.net, ref11.params, ref11.x0, 5, 1.0)
        assert rho_calls == []
        assert sorted(args[2] for args in sinks) == [0, 2]  # S_1 = {4}, S_3 = {8, 9, 10}

    def test_matches_centrality_scores(self):
        for seed in range(15):
            rn = random_network(seed)
            res = run_analysis(rn.net, rn.params, rn.x0, gain_method="solve")
            for agent in range(rn.net.n):
                dev = perturb_initial(
                    rn.net, rn.params, rn.x0, agent, 0.7
                ).deviation_per_unit
                assert dev == pytest.approx(
                    res.centrality.scores[agent], abs=1e-8
                ), (seed, agent)


def _stubborn_sink_chain():
    """0 -> 1 <-> 2 with agent 1 stubborn: no stubborn-free balanced sink."""
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    return net, AgentParams(gamma=(0.2,) * 3, beta=(0.0, 0.3, 0.0))


class TestWrongShapedX0:
    # a wrong-length x0 must not broadcast, with or without a stubborn-free balanced sink
    @pytest.mark.parametrize("x0", [[5.0], 5.0, "n + 1"])
    @pytest.mark.parametrize("network", ["stubborn-sink", "ref11"])
    def test_raises_value_error(self, ref11, network, x0):
        if network == "ref11":
            net, params = ref11.net, ref11.params
        else:
            net, params = _stubborn_sink_chain()
        if x0 == "n + 1":
            x0 = np.ones(net.n + 1)
        edge = net.edges[0][:2]
        calls = [
            lambda: steady_state(prepare(net, params), x0),
            lambda: run_analysis(net, params, x0),
            lambda: perturb_initial(net, params, x0, 0, 1.0),
            lambda: flip_edge_signs(net, params, x0, (edge,)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^x0 must have length {net.n}$"):
                call()


def _underflowing_edge():
    """A network whose edge (0, 2) has a p_02 that underflows to zero."""
    net = build_network(4, [(0, 1, 1e300), (0, 2, 1e-300), (1, 3, 1.0), (2, 3, 1.0)])
    params = AgentParams(gamma=(0.5, 0.5, 0.5, 0.0), beta=(0.0, 0.2, 0.0, 0.0))
    return net, params, np.array([1.0, 2.0, -3.0, 4.0])


def _flip(net, edge):
    """A fresh build of the network with the edge's sign flipped."""
    return build_network(net.n, [(i, j, -w if (i, j) == edge else w) for i, j, w in net.edges])


class TestFlipEdgeSigns:
    def test_rejects_missing_edge(self, ref11):
        with pytest.raises(NoSuchEdgeError):
            flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((4, 0),))

    def test_rejects_repeated_edge(self, ref11):
        # flipping an edge twice would restore it; it is an input error instead
        with pytest.raises(DuplicateEdgeError, match=r"duplicate edge \(0, 5\)") as info:
            flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((0, 5), (1, 9), (0, 5)))
        assert isinstance(info.value, NetworkValidationError)

    def test_one_spectrum_per_sink_and_no_rho(self, ref11, count_calls):
        # one set-up per network, base and flipped: each computes its spectra once
        rho_calls = count_calls("spectral_radius")
        sinks = count_calls("sink_spectrum")
        flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((0, 5),))
        assert rho_calls == []
        assert sorted(args[2] for args in sinks) == [0, 0, 2, 2]

    def test_flipped_matrices_equal_a_fresh_build(self, ref11):
        # negating the base's entries gives build_matrices' own numbers
        s = synth_network(200, 0)
        sink_edge = next((i, j) for i, j, _ in s.net.edges if i >= s.follower_count)
        cases = [(ref11.net, ref11.params, (i, j)) for i, j, _ in ref11.net.edges]
        cases += [(s.net, s.params, sink_edge), (s.net, s.params, s.net.edges[0][:2])]
        for net, params, edge in cases:
            base = build_matrices(net, params)
            flipped = dataclasses.replace(net, edges=tuple(
                (i, j, -w if (i, j) == edge else w) for i, j, w in net.edges))
            want = build_matrices(flipped, params)
            got = centrality._flipped(base, {edge})
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, (
                    edge, field.name)

    def test_flip_of_an_unstored_entry_matches_a_fresh_build(self):
        # 1e-300 underflows against its row's 1e300, so p_02 is zero and not stored
        net, params, x0 = _underflowing_edge()
        res = flip_edge_signs(net, params, x0, ((0, 2),))
        fresh = run_analysis(_flip(net, (0, 2)), params, x0, gain_method="solve").steady.z
        assert np.array_equal(res.z_flipped, fresh)
        assert np.array_equal(res.z_flipped, res.z_base)
        assert res.mean_abs_deviation == 0.0

    def test_flip_builds_matrices_once(self, ref11, count_calls):
        builds = count_calls("build_matrices")
        flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((0, 5), (8, 9)))
        assert len(builds) == 1

    def test_flip_builds_no_network(self, ref11, count_calls):
        # only signs change, so the flipped network is not validated again
        builds = count_calls("build_network")
        flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((0, 5), (8, 9)))
        assert builds == []

    def test_reference_experiment(self, ref11):
        res = flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((0, 5), (1, 9)))
        assert res.mean_abs_deviation == pytest.approx(0.1493, abs=1e-3)
        for agent in (5, 6, 7):
            assert agent in res.unchanged

    def test_flip_twice_is_identity(self, ref11):
        once = flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((0, 5),))
        import signed_influence as si

        net_flipped = si.build_network(
            ref11.net.n,
            [(i, j, -w if (i, j) == (0, 5) else w) for i, j, w in ref11.net.edges],
        )
        back = flip_edge_signs(net_flipped, ref11.params, ref11.x0, ((0, 5),))
        assert np.allclose(back.z_flipped, once.z_base, atol=1e-10)

    def test_flip_without_influence_path_changes_nothing(self, zoo17):
        # the unbalanced sink decays to zero, so flipping the edge that
        # listens to it cannot move any steady-state opinion
        res = flip_edge_signs(zoo17.net, zoo17.params, zoo17.x0, ((3, 14),))
        assert res.mean_abs_deviation == pytest.approx(0.0, abs=1e-12)
        assert len(res.unchanged) == zoo17.net.n

    def test_flip_can_change_sink_taxonomy(self, ref11):
        # flipping one internal antagonistic edge makes the sink unbalanced:
        # its members then decay to zero
        res = flip_edge_signs(ref11.net, ref11.params, ref11.x0, ((8, 9),))
        assert res.z_flipped[8] == pytest.approx(0.0, abs=1e-9)
        assert res.z_flipped[9] == pytest.approx(0.0, abs=1e-9)
