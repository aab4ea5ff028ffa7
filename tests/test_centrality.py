"""Absolute influence centrality and the what-if experiments."""

import dataclasses
import math
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
    Model,
    NetworkValidationError,
    NoSuchEdgeError,
    SinkKind,
    ZeroDeltaError,
    absolute_centrality,
    build_network,
    flip_edge_signs,
    individual_influence,
    load_spec,
    perturb_initial,
    prepare,
    simulate,
    solve_gain,
    steady_state,
)
from conftest import REF11, new_params
from signed_influence import build_matrices, centrality, classify, graph
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


def _ranked_per_entry(scores) -> tuple[int, ...]:
    """The ranking by the key it was first written with, one `_num` per score."""
    return tuple(sorted(range(len(scores)), key=lambda i: (-centrality._num(scores[i]), i)))


class TestRankingRoundsOncePerValue:
    def test_netgen_rankings_match_the_per_entry_key(self):
        differ = []
        for seed in range(200):
            rn = random_network(seed)
            res = run_analysis(rn.net, rn.params, rn.x0, gain_method="mason").centrality
            if res.ranking != _ranked_per_entry(res.scores):
                differ.append(seed)
        assert differ == []

    @pytest.mark.parametrize("scores,ranking", [
        ([2.0, 0.5, 2.0 + 4e-14, 0.0], (0, 2, 1, 3)),
        ([2.0 + 4e-14, 0.5, 2.0, 0.0], (0, 2, 1, 3)),
        ([0.0, 3.00000000000001, 0.0, 3.0, 1e-300], (1, 3, 4, 0, 2)),
    ])
    def test_scores_equal_to_twelve_digits_tie_by_id(self, scores, ranking):
        res = absolute_centrality(_influence(np.diag(scores)))
        assert len(set(res.scores.tolist())) == len(set(scores))  # the scores differ
        assert res.ranking == ranking == _ranked_per_entry(res.scores)


_FACTORED_CASES = (
    [("fixture", name, method) for name in ("ref11", "zoo17") for method in ("mason", "solve")]
    + [("netgen", seed, "mason") for seed in range(0, 200, 10)]
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
        assert res.centrality.ranking == _ranked_per_entry(want)

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

    def test_theta_is_not_kept(self, ref11):
        # each read builds Θ anew: the result holds no n x n array after its reader is done
        influence = run_analysis(ref11.net, ref11.params, ref11.x0).influence
        first = influence.theta
        assert "theta" not in influence.__dict__ and influence.theta is not first
        np.testing.assert_array_equal(influence.theta, first)

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

    def test_sets_up_once(self, count_calls):
        # base and perturbed runs share one set-up, and the network remembers
        # it for the same params object: a later call classifies nothing
        s = load_spec(str(REF11))
        calls = count_calls("classify")
        perturb_initial(s.net, s.params, s.x0, 5, 1.0)
        assert len(calls) == 1
        perturb_initial(s.net, s.params, s.x0, 8, 2.0)
        assert len(calls) == 1
        perturb_initial(s.net, new_params(s.params), s.x0, 5, 1.0)
        assert len(calls) == 2

    def test_one_spectrum_per_sink_and_no_rho(self, count_calls):
        # rho is a report diagnostic; both steady states share one set of
        # spectra, and so do later calls on the same network and params
        s = load_spec(str(REF11))
        rho_calls = count_calls("spectral_radius")
        sinks = count_calls("sink_spectrum")
        perturb_initial(s.net, s.params, s.x0, 5, 1.0)
        assert rho_calls == []
        assert sorted(args[2] for args in sinks) == [0, 2]  # S_1 = {4}, S_3 = {8, 9, 10}
        perturb_initial(s.net, s.params, s.x0, 8, 2.0)
        assert sorted(args[2] for args in sinks) == [0, 2]
        perturb_initial(s.net, new_params(s.params), s.x0, 5, 1.0)
        assert sorted(args[2] for args in sinks) == [0, 0, 2, 2]
        assert rho_calls == []

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_refuses_a_non_finite_x0(self, ref11, bad):
        net, params = ref11.net, ref11.params
        x0 = np.zeros(net.n)
        x0[2] = bad
        edge = net.edges[0][:2]
        calls = [
            lambda: simulate(prepare(net, params).matrices, x0),
            lambda: steady_state(prepare(net, params), x0),
            lambda: run_analysis(net, params, x0),
            lambda: perturb_initial(net, params, x0, 0, 1.0),
            lambda: flip_edge_signs(net, params, x0, (edge,)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^x0 entries must be finite$"):
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

    def test_one_spectrum_per_sink_and_no_rho(self, count_calls):
        # the base's spectra are computed once per network and params; the
        # flipped network computes again only those of the sinks a flipped
        # edge lies inside
        s = load_spec(str(REF11))
        rho_calls = count_calls("spectral_radius")
        sinks = count_calls("sink_spectrum")
        flip_edge_signs(s.net, s.params, s.x0, ((0, 5),))
        assert rho_calls == []
        assert sorted(args[2] for args in sinks) == [0, 2]
        sinks.clear()
        # every tie of agent 8 negated: sink 2 (8, 9, 10) turns cooperative
        flip_edge_signs(s.net, s.params, s.x0, ((8, 9), (8, 10), (9, 8), (10, 8)))
        assert sorted(args[2] for args in sinks) == [2]
        assert sinks[-1][1].sink_kind[2] == SinkKind.COOPERATIVE
        sinks.clear()
        flip_edge_signs(s.net, new_params(s.params), s.x0, ((0, 5),))
        assert sorted(args[2] for args in sinks) == [0, 2]
        assert rho_calls == []

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

    def test_flip_builds_matrices_once(self, count_calls):
        # the base's P and solve layout are made once per network and params;
        # the flipped P is the base's up to signs, and its solve the base's layout
        s = load_spec(str(REF11))
        builds, layouts = count_calls("build_matrices"), count_calls("_solve_layout")
        flip_edge_signs(s.net, s.params, s.x0, ((0, 5), (8, 9)))
        assert (len(builds), len(layouts)) == (1, 1)
        flip_edge_signs(s.net, s.params, s.x0, ((1, 9),))
        assert (len(builds), len(layouts)) == (1, 1)
        flip_edge_signs(s.net, new_params(s.params), s.x0, ((0, 5), (8, 9)))
        assert (len(builds), len(layouts)) == (2, 2)

    def test_flip_reinverts_only_the_chunks_it_touches(self, linalg_calls):
        # synth n = 200: K in chunks of about 64; only an edge between two
        # agents of one chunk lies inside its block
        s = synth_network(200, 0)
        inversions = linalg_calls("inv")
        base = prepare(s.net, s.params)
        steady_state(base, s.x0)
        bounds, order = base._layout.bounds, base._layout.order.tolist()
        chunks = len(bounds) - 1
        assert chunks > 2 and len(inversions) == chunks
        chunk = {}  # agent -> its chunk; the stubborn-free sinks are in none
        for c in range(chunks):
            chunk.update(dict.fromkeys(order[bounds[c]:bounds[c + 1]], c))
        where = {"inside": [], "to a later chunk": [], "to a sink": [], "in a sink": []}
        for i, j, _ in s.net.edges:
            if i not in chunk:
                where["in a sink"].append((i, j))
            elif j not in chunk:
                where["to a sink"].append((i, j))
            else:
                where["inside" if chunk[i] == chunk[j] else "to a later chunk"].append((i, j))
        assert min(map(len, where.values())) >= 2, where
        outside = [edges[k] for edges in list(where.values())[1:] for k in (0, -1)]
        for edges in [outside, where["inside"][:1], where["inside"][-1:] + outside]:
            del inversions[:]
            flip_edge_signs(s.net, s.params, s.x0, tuple(edges))
            touched = {chunk[i] for i, j in edges if (i, j) in where["inside"]}
            sizes = [(bounds[c + 1] - bounds[c],) * 2 for c in sorted(touched)]
            assert inversions == sizes, edges
            net_flipped, flip = graph._flip(s.net, edges)
            flipped = centrality._flipped_model(base, net_flipped, s.params, flip)
            kept = [a is b for a, b in zip(flipped._inverses, base._inverses)]
            assert kept == [c not in touched for c in range(chunks)], edges

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


def _what_if_networks(ref11, zoo17):
    """(name, net, params, x0) of both fixtures, the 200 netgen networks and synth n = 200."""
    yield "reference11", ref11.net, ref11.params, ref11.x0
    yield "showcase17", zoo17.net, zoo17.params, zoo17.x0
    for seed in range(200):
        rn = random_network(seed)
        yield f"netgen {seed}", rn.net, rn.params, rn.x0
    s = synth_network(200, 0)
    yield "synth 200", s.net, s.params, s.x0


class TestWhatIfEqualsAFreshRecomputation:
    """Both what-if functions give, to the bit, what fresh set-ups give."""

    def test_flips_inside_and_outside_a_sink(self, ref11, zoo17):
        # one edge inside a sink leaves it unbalanced; negating every tie of
        # one member re-colours it and keeps its unit eigenvalue
        flips = {"inside": 0, "outside": 0, "re-colour": 0}
        for name, net, params, x0 in _what_if_networks(ref11, zoo17):
            cls = classify(net, params)
            free = [m for s in sorted(cls.influence_free_sinks) for m in cls.sinks[s][1:2]]
            candidates = {
                "inside": [(i, j) for i, j, _ in net.edges if i in cls.group_leaders][:1],
                "outside": [(i, j) for i, j, _ in net.edges if i in cls.followers][:1],
                "re-colour": [(i, j) for i, j, _ in net.edges
                              if free and free[0] in (i, j) and i not in cls.followers],
            }
            for where, edges in candidates.items():
                if not edges:
                    continue
                flips[where] += 1
                fresh = _fresh_model(build_network(net.n, [
                    (i, j, -w if (i, j) in edges else w) for i, j, w in net.edges]), params)
                res = flip_edge_signs(net, params, x0, edges)
                assert np.array_equal(res.z_flipped, steady_state(fresh, x0).z), (name, edges)
                net_flipped, flip = graph._flip(net, edges)
                flipped = centrality._flipped_model(prepare(net, params), net_flipped, params, flip)
                for field in dataclasses.fields(fresh.classification):
                    got = getattr(flipped.classification, field.name)
                    assert got == getattr(fresh.classification, field.name), (name, edges, field)
                assert flipped.spectra.keys() == fresh.spectra.keys(), (name, edges)
                for sink, spec in fresh.spectra.items():
                    reused = flipped.spectra[sink]
                    assert reused.members == spec.members, (name, edges, sink)
                    assert np.array_equal(reused.w, spec.w), (name, edges, sink)
                    assert np.array_equal(reused.v, spec.v), (name, edges, sink)
        assert min(flips.values()) >= 90, flips

    def test_perturbation_equals_two_steady_states(self, ref11, zoo17):
        for k, (name, net, params, x0) in enumerate(_what_if_networks(ref11, zoo17)):
            agent = k % net.n
            res = perturb_initial(net, params, x0, agent, 0.75)
            model = _fresh_model(net, params)
            x0p = np.array(x0, dtype=float)
            x0p[agent] += 0.75
            assert np.array_equal(res.z_base, steady_state(model, x0).z), name
            assert np.array_equal(res.z_perturbed, steady_state(model, x0p).z), name


    def test_remembered_models_equal_fresh_ones(self, ref11, zoo17):
        # the network's remembered model, its solve layout and chunk inverses
        # made, and a flip that takes that layout and the inverses of the
        # chunks it leaves alone give z, c, Θ and every inverse bit for bit
        # as fresh models
        layouts, kept, made = 0, 0, 0
        for name, net, params, x0 in _what_if_networks(ref11, zoo17):
            base = prepare(net, params)
            steady_state(base, x0)  # the layout and inverses are made on the first solve
            fresh = _fresh_model(net, params)
            assert _outputs(base, x0) == _outputs(fresh, x0), name
            assert _inverse_bytes(base) == _inverse_bytes(fresh), name
            cls = base.classification
            for edges in ([(i, j) for i, j, _ in net.edges if i in cls.group_leaders][:1],
                          [(i, j) for i, j, _ in net.edges if i in cls.followers][:1]):
                if not edges:
                    continue
                net_flipped, flip = graph._flip(net, edges)
                flipped = centrality._flipped_model(base, net_flipped, params, flip)
                assert flipped._layout is base._layout, (name, edges)
                fresh = _fresh_model(build_network(net.n, [
                    (i, j, -w if (i, j) in edges else w) for i, j, w in net.edges]), params)
                assert _outputs(flipped, x0) == _outputs(fresh, x0), (name, edges)
                assert _inverse_bytes(flipped) == _inverse_bytes(fresh), (name, edges)
                shared = [a is b for a, b in zip(flipped._inverses, base._inverses)]
                kept, made = kept + sum(shared), made + shared.count(False)
                layouts += 1
        assert layouts >= 300, layouts
        assert min(kept, made) >= 100, (kept, made)


def _fresh_model(net, params) -> Model:
    """The network prepared from nothing, past any model it remembers."""
    return Model(classify(net, params), build_matrices(net, params))


def _inverse_bytes(model):
    """The bytes of each chunk's inverse, None for a chunk that holds none."""
    return [None if a is None else a.tobytes() for a in model._inverses]


def _outputs(model, x0):
    """The bytes of z, c and Θ."""
    collective = solve_gain(model)
    theta = individual_influence(collective, model).theta
    return steady_state(model, x0).z.tobytes(), collective.c.tobytes(), theta.tobytes()


def _rel(a, b) -> float:
    """max |a - b| relative to max |b|."""
    a, b = np.asarray(a), np.asarray(b)
    scale = np.abs(b).max()
    return float(np.abs(a - b).max() / scale) if scale else float(np.abs(a).max())


def _scale_row(net, agent, scale):
    return build_network(net.n, [(i, j, w * scale if i == agent else w) for i, j, w in net.edges])


class TestInvariances:
    """The model's own invariances, over the 200 netgen networks."""

    def test_row_scale_leaves_z_theta_and_centrality(self):
        checked = 0
        for seed in range(200):
            rn = random_network(seed)
            if not rn.net.edges:
                continue
            agent = rn.net.edges[0][0]  # an agent that listens to others
            base = run_analysis(rn.net, rn.params, rn.x0)
            for lam in (1e-300, 1e300):
                res = run_analysis(_scale_row(rn.net, agent, lam), rn.params, rn.x0)
                assert _rel(res.steady.z, base.steady.z) <= 1e-12, (seed, lam)
                assert _rel(res.influence.theta, base.influence.theta) <= 1e-12, (seed, lam)
                assert _rel(res.centrality.scores, base.centrality.scores) <= 1e-12, (seed, lam)
            checked += 1
        assert checked >= 150

    def test_row_scale_to_subnormal_weights_keeps_p_bit_identical(self):
        # integer weights m and m·2⁻¹⁰⁷⁴ are both exact, so each ratio w / Σ|w| is the same
        rn = random_network(0)
        agent = rn.net.edges[0][0]
        row = [(i, j, w) for i, j, w in rn.net.edges if i == agent]
        whole = {(i, j): np.sign(w) * (k + 1) for k, (i, j, w) in enumerate(row)}
        ints = build_network(rn.net.n, [(i, j, whole.get((i, j), w)) for i, j, w in rn.net.edges])
        tiny = _scale_row(ints, agent, 2.0**-1074)
        assert min(abs(w) for i, _, w in tiny.edges if i == agent) == 2.0**-1074
        a, b = build_matrices(ints, rn.params), build_matrices(tiny, rn.params)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.cols, b.cols)
        assert a.vals.tobytes() == b.vals.tobytes()

    def test_x0_scale_scales_z_and_leaves_theta(self):
        for seed in range(200):
            rn = random_network(seed)
            base = run_analysis(rn.net, rn.params, rn.x0)
            for lam in (1e-300, 3.0, 1e300):
                res = run_analysis(rn.net, rn.params, lam * rn.x0)
                assert _rel(res.steady.z, lam * base.steady.z) <= 1e-12, (seed, lam)
                assert res.influence.theta.tobytes() == base.influence.theta.tobytes()
