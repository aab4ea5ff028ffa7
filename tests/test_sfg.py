"""Signal-flow graph construction, reduction, gains and influence assembly."""

import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from conftest import REF11, ZOO17, new_params
from netgen import random_network
from signed_influence import (
    AgentParams,
    ComplexityCapExceededError,
    Model,
    SfgGraph,
    SinkKind,
    SourceKind,
    SourceSpec,
    build_full_sfg,
    build_network,
    individual_influence,
    load_spec,
    mason_influence,
    prepare,
    reduce_sfg,
    run_analysis,
    solve_gain,
)
from signed_influence.sfg import (
    DEFAULT_ENUM_CAP,
    DEFAULT_SUBSET_CAP,
    _adjacency,
    _circuits,
    _Cofactors,
    _count_loop_sets,
    _fold_matrix,
    _loop_conflicts,
    _loop_groups,
    _walk,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from synth import synth_network  # noqa: E402


def _stack(net, params):
    model = prepare(net, params)
    return model, build_full_sfg(model), reduce_sfg(model)


class TestFullSfg:
    def test_reference_network_node_and_source_count(self, ref11):
        _, full, _ = _stack(ref11.net, ref11.params)
        assert len(full.nodes) == 13  # 11 final opinions + 2 stubborn initials
        kinds = [s.kind for s in full.sources]
        assert kinds == [
            SourceKind.SINGLETON_LEADER,
            SourceKind.STUBBORN_INITIAL,
            SourceKind.STUBBORN_INITIAL,
        ]
        assert full.sources[0].agent == 4
        assert {s.agent for s in full.sources[1:]} == {0, 5}

    def test_sources_have_no_incoming_branches(self, ref11):
        _, full, reduced = _stack(ref11.net, ref11.params)
        for g in (full, reduced):
            for _, dst, _ in g.branches:
                assert dst[0] != "source"

    def test_single_stubborn_isolated_agent(self):
        net = build_network(1, [])
        params = AgentParams(gamma=(0.5,), beta=(0.3,))
        _, full, _ = _stack(net, params)
        assert len(full.nodes) == 2
        gains = {(src, dst): g for src, dst, g in full.branches}
        assert gains[("agent", 0), ("agent", 0)] == pytest.approx(0.7)
        assert gains[("source", 0), ("agent", 0)] == pytest.approx(0.3)

    def test_no_stubborn_agents_leaves_only_leader_sources(self, zoo17):
        _, full, _ = _stack(zoo17.net, zoo17.params)
        assert all(s.kind == SourceKind.SINGLETON_LEADER for s in full.sources)
        assert len(full.nodes) == 17

    def test_branch_gains_are_matrix_entries(self, ref11):
        model, full, _ = _stack(ref11.net, ref11.params)
        m = model.matrices
        gains = {(src, dst): g for src, dst, g in full.branches}
        assert gains[("agent", 1), ("agent", 0)] == pytest.approx(m.dense()[0, 1])
        assert gains[("agent", 7), ("agent", 0)] == pytest.approx(0.13)

    def test_one_branch_per_entry_of_p_and_beta(self):
        # one P[i, j] branch j -> i per nonzero, except in the rows of
        # non-stubborn singleton leaders, and one beta branch per stubborn agent;
        # the reduced graph's branches, in order, are the nonzeros of
        # [P[K, K] | P[K, :] F] row by row, beta_i in i's stubborn-initial column
        nets = [load_spec(str(REF11)), load_spec(str(ZOO17))]
        nets += [random_network(seed) for seed in range(200)]
        for k, rn in enumerate(nets):
            model, full, reduced = _stack(rn.net, rn.params)
            cls, m = model.classification, model.matrices
            leaders = {i for i in cls.singleton_leaders if i not in cls.stubborn}
            expected = [("P", int(j), int(i), float(m.dense()[i, j]))
                        for i, j in zip(*np.nonzero(m.dense())) if i not in leaders]
            expected += [("beta", i, i, float(m.beta[i])) for i in cls.stubborn]
            got = []
            for (tag, a), (_, i), gain in full.branches:
                spec = full.sources[a] if tag == "source" else None
                kind = "beta" if spec and spec.kind == SourceKind.STUBBORN_INITIAL else "P"
                got.append((kind, spec.agent if spec else a, i, gain))
            assert sorted(got) == sorted(expected), k
            assert len(set(full.nodes)) == len(full.nodes) == m.n + len(cls.stubborn), k

            free = {j for s, ms in enumerate(cls.sinks) if not cls.sink_has_stubborn(s) for j in ms}
            agents = [i for i in range(m.n) if i not in free]  # K
            terms = np.hstack([m.dense()[np.ix_(agents, agents)],
                               m.dense()[agents] @ _fold_matrix(reduced.sources, m.n)])
            for r, spec in enumerate(reduced.sources):
                if spec.kind == SourceKind.STUBBORN_INITIAL:
                    terms[agents.index(spec.agent), len(agents) + r] = m.beta[spec.agent]
            keys = [("agent", i) for i in agents]
            keys += [("source", r) for r in range(len(reduced.sources))]
            rows, cols = np.nonzero(terms)
            assert [(src, dst) for src, dst, _ in reduced.branches] == [
                (keys[col], keys[row]) for row, col in zip(rows, cols)], k
            np.testing.assert_allclose([gain for *_, gain in reduced.branches],
                                       terms[rows, cols], rtol=1e-14, atol=1e-15, err_msg=str(k))


class TestReduceSfg:
    def test_reference_network_source_catalog(self, ref11):
        _, _, reduced = _stack(ref11.net, ref11.params)
        labels = [(s.kind, s.agent, s.sink, s.side) for s in reduced.sources]
        assert labels == [
            (SourceKind.SINGLETON_LEADER, 4, 0, None),
            (SourceKind.BALANCED_PARTITION, None, 2, 1),
            (SourceKind.BALANCED_PARTITION, None, 2, -1),
            (SourceKind.STUBBORN_INITIAL, 0, None, None),
            (SourceKind.STUBBORN_INITIAL, 5, None, None),
        ]
        assert reduced.sources[1].members == (8,)
        assert reduced.sources[2].members == (9, 10)
        # stubborn-containing sink members stay non-source
        assert reduced.nonsource_agents() == (0, 1, 2, 3, 5, 6, 7)

    def test_partition_branch_gains_sum_members(self, ref11):
        model, _, reduced = _stack(ref11.net, ref11.params)
        m = model.matrices
        gains = {(src, dst): g for src, dst, g in reduced.branches}
        # follower 1 listens to both members of the negative partition
        assert gains[("source", 2), ("agent", 1)] == pytest.approx(m.dense()[1, 9] + m.dense()[1, 10])

    def test_cooperative_pair_sum_rule(self):
        net = build_network(
            3, [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 1.0), (2, 1, 1.0)]
        )
        params = AgentParams(gamma=(0.2, 0.3, 0.3), beta=(0.0, 0.0, 0.0))
        model, _, reduced = _stack(net, params)
        m = model.matrices
        gains = {(src, dst): g for src, dst, g in reduced.branches}
        assert gains[("source", 0), ("agent", 0)] == pytest.approx(m.dense()[0, 1] + m.dense()[0, 2])

    @pytest.mark.parametrize(
        "case", ["reference11", "showcase17", "netgen", "synth-200", "synth-1000"])
    def test_nonsource_agents_are_the_solved_agents(self, case):
        if case == "netgen":
            nets = [random_network(seed) for seed in range(200)]
        elif case.startswith("synth"):
            nets = [synth_network(int(case.split("-")[1]), 0)]
        else:
            nets = [load_spec(str({"reference11": REF11, "showcase17": ZOO17}[case]))]
        for k, rn in enumerate(nets):
            model = prepare(rn.net, rn.params)
            assert reduce_sfg(model).nonsource_agents() == solve_gain(model).agents, k

    @pytest.mark.parametrize("build", [reduce_sfg, build_full_sfg])
    def test_builds_no_dense_block(self, build):
        # the dense P[K, K] at n = 4000 alone would be over 100 MiB
        s = synth_network(4000, 0)
        model = prepare(s.net, s.params)
        tracemalloc.start()
        try:
            build(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak

    def test_unbalanced_members_deleted(self, zoo17):
        model, _, reduced = _stack(zoo17.net, zoo17.params)
        cls = model.classification
        unb = next(s for s, kind in cls.sink_kind.items() if kind == SinkKind.UNBALANCED)
        for agent in cls.sinks[unb]:
            assert ("agent", agent) not in reduced.nodes
        # and nothing references them
        for src, dst, _ in reduced.branches:
            assert src[0] != "agent" or src[1] not in cls.sinks[unb]


def _tiny_graph(g, loop):
    """source -> agent 0 with gain g, self-loop of gain loop on agent 0."""
    source = SourceSpec(SourceKind.STUBBORN_INITIAL, agent=0, members=(0,))
    branches = [(("source", 0), ("agent", 0), g)]
    if loop:
        branches.append((("agent", 0), ("agent", 0), loop))
    return SfgGraph(
        nodes=(("agent", 0), ("source", 0)),
        sources=(source,),
        branches=tuple(branches),
    )


def _follower_chain(followers, gamma):
    """Follower i listens to i + 1; the last one listens to a singleton leader."""
    net = build_network(followers + 1, [(i, i + 1, 1.0) for i in range(followers)])
    params = AgentParams(gamma=(gamma,) * followers + (0.5,), beta=(0.0,) * (followers + 1))
    return net, params


def _mason_c_in_process(hash_seed, net_seed):
    """Mason's c on a netgen network, as hex bytes, from a fresh interpreter."""
    tests = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = (
        "from netgen import random_network; import signed_influence as si; "
        f"rn = random_network({net_seed}); model = si.prepare(rn.net, rn.params); "
        "print(si.mason_influence(si.reduce_sfg(model)).c.tobytes().hex())"
    )
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def _recorded_walks(monkeypatch):
    """Every `_walk` call from then on, as (its arguments, its result)."""
    walks = []

    def recording(*args):
        walks.append((args, _walk(*args)))
        return walks[-1][1]

    monkeypatch.setattr("signed_influence.sfg._walk", recording)
    return walks


def _loops(g):
    """The loops of ``g`` as Mason's formula numbers them: node sets, sorted."""
    _, out = _adjacency(g)
    return [frozenset(cyc) for cyc in sorted(_circuits(out, DEFAULT_ENUM_CAP))]


def _loop_oracle_graphs():
    for path in (REF11, ZOO17):
        spec = load_spec(str(path))
        yield path.stem, _stack(spec.net, spec.params)[2]
    for seed in range(200):
        rn = random_network(seed)
        yield f"netgen-{seed}", _stack(rn.net, rn.params)[2]
    s = synth_network(100, 0)  # the benchmark's fallback network
    yield "synth-100", _stack(s.net, s.params)[2]
    yield "chain-1050", _stack(*_follower_chain(1050, 0.3))[2]


class TestMasonInfluence:
    def test_loops_match_networkx_simple_cycles(self):
        for name, g in _loop_oracle_graphs():
            nxg = nx.DiGraph((src, dst) for src, dst, _ in g.branches)
            want = []
            for cyc in nx.simple_cycles(nxg):
                first = cyc.index(min(cyc))
                want.append(cyc[first:] + cyc[:first])
            pos, out = _adjacency(g)
            keys = sorted(pos, key=pos.get)
            # each circuit comes out from its least node already: no rotation here
            got = [[keys[k] for k in cyc] for cyc in _circuits(out, DEFAULT_ENUM_CAP)]
            assert sorted(got) == sorted(want), name

    def test_single_path_single_loop(self):
        ci = mason_influence(_tiny_graph(0.3, 0.6))
        assert ci.c[0, 0] == pytest.approx(0.3 / (1 - 0.6))

    def test_series_chain(self):
        source = SourceSpec(SourceKind.SINGLETON_LEADER, agent=9, members=(9,))
        g = SfgGraph(
            nodes=(("agent", 0), ("agent", 1), ("source", 0)),
            sources=(source,),
            branches=(
                (("source", 0), ("agent", 0), 0.5),
                (("agent", 0), ("agent", 1), 0.4),
            ),
        )
        assert mason_influence(g).row(1)[0] == pytest.approx(0.2)

    def test_no_path_gives_zero(self):
        g = _tiny_graph(0.3, 0.0)
        extra = SourceSpec(SourceKind.SINGLETON_LEADER, agent=5, members=(5,))
        g = dataclasses.replace(
            g, nodes=g.nodes + (("source", 1),), sources=g.sources + (extra,)
        )
        assert mason_influence(g).c[0, 1] == 0.0

    def test_reference_table_entry(self, ref11):
        _, _, reduced = _stack(ref11.net, ref11.params)
        assert mason_influence(reduced).row(0)[0] == pytest.approx(0.02, abs=1e-12)

    def test_complexity_cap(self, ref11):
        _, _, reduced = _stack(ref11.net, ref11.params)
        with pytest.raises(ComplexityCapExceededError):
            mason_influence(reduced, enum_cap=1)
        with pytest.raises(ComplexityCapExceededError):
            mason_influence(reduced, subset_cap=1)

    def test_long_run_of_self_loops_hits_the_cap(self):
        # 1050 non-touching self-loops: one alternating-sum level per loop
        net, params = _follower_chain(1050, 0.3)
        _, _, reduced = _stack(net, params)
        with pytest.raises(ComplexityCapExceededError):
            mason_influence(reduced, subset_cap=5000)

    def test_subset_cap_boundary(self):
        # k non-touching self-loops make exactly 2^k - 1 sets of them
        k = 10
        net, params = _follower_chain(k, 0.3)
        _, _, reduced = _stack(net, params)
        mason_influence(reduced, subset_cap=2**k - 1)
        with pytest.raises(ComplexityCapExceededError) as err:
            mason_influence(reduced, subset_cap=2**k - 2)
        assert err.value.limit == 2**k - 2
        assert str(err.value) == "more than 1022 sets of non-touching loops (at least 1023)"

    def test_cap_error_names_what_it_capped(self, ref11):
        _, _, reduced = _stack(ref11.net, ref11.params)  # 8 loops, 28 pairs
        for cap, message in ((7, "more than 7 loops"), (27, "more than 27 loop pairs")):
            with pytest.raises(ComplexityCapExceededError, match=f"^{message}$") as err:
                mason_influence(reduced, enum_cap=cap)
            assert err.value.limit == cap
        net, params = _follower_chain(5, 0.0)  # no loops, 5 paths from the leader
        _, _, reduced = _stack(net, params)
        with pytest.raises(ComplexityCapExceededError, match="^more than 4 paths from one source$"):
            mason_influence(reduced, enum_cap=4)

    def test_loop_set_count_matches_brute_force(self):
        for seed in range(30):
            rn = random_network(seed)
            _, _, reduced = _stack(rn.net, rn.params)
            nxg = nx.DiGraph((src, dst) for src, dst, _ in reduced.branches)
            loops = [frozenset(cyc) for cyc in nx.simple_cycles(nxg)]
            brute = sum(
                len(frozenset().union(*subset)) == sum(map(len, subset))
                for size in range(1, len(loops) + 1)
                for subset in itertools.combinations(loops, size)
            )
            conflicts = _loop_conflicts(loops, len(loops) ** 2)
            assert _count_loop_sets(conflicts, brute) == brute, seed
            for cap in range(brute):
                with pytest.raises(ComplexityCapExceededError):
                    _count_loop_sets(conflicts, cap)

    def test_subset_cap_decided_before_any_sum(self, count_calls):
        # synth n = 100: 95 lone follower self-loops, 2^95 - 1 sets of them
        s = synth_network(100, 0)
        _, _, reduced = _stack(s.net, s.params)
        sums = count_calls("_alternating_sum")
        with pytest.raises(ComplexityCapExceededError) as err:
            mason_influence(reduced)
        assert sums == []
        assert err.value.limit == DEFAULT_SUBSET_CAP
        assert str(err.value) == "more than 100000 sets of non-touching loops (at least 131071)"

    def test_loop_set_count_stops_at_the_cap(self):
        # 20 lone loops: the tenth component takes the count to 1023 > 1000,
        # so the conflicts of the loops after it are never read
        class Unread(set):
            def __iter__(self):
                raise AssertionError("conflicts read past the cap")

        conflicts = [{k} for k in range(10)] + [Unread({k}) for k in range(10, 20)]
        with pytest.raises(ComplexityCapExceededError) as err:
            _count_loop_sets(conflicts, 1000)
        assert str(err.value) == "more than 1000 sets of non-touching loops (at least 1023)"
        # components are taken by least loop, each walked in loop order
        conflicts = [{0, 3}, {1}, {2, 4}, {0, 3}, {2, 4}]
        assert _count_loop_sets(conflicts, 100) == 3 * 2 * 3 - 1

    def test_cap_counts_the_sets_delta_walks(self, monkeypatch):
        # Δ is summed per loop group, group by group before any cofactor;
        # the cap counts the product of the groups' sets, the sets one sum
        # over all the loops would visit
        walks = _recorded_walks(monkeypatch)
        for name, g in itertools.islice(_loop_oracle_graphs(), 202):  # fixtures, netgen
            walks.clear()
            mason_influence(g)
            conflicts = _loop_conflicts(_loops(g), DEFAULT_ENUM_CAP)
            groups = list(_loop_groups(conflicts))
            delta_walks = [w for w in walks if w[0][3] == math.inf][:len(groups)]
            assert [list(args[2]) for args, _ in delta_walks] == groups, name
            visited = math.prod(1 + seen for _, (_, seen) in delta_walks) - 1
            for cap in (visited, visited + 1, 2 * visited):
                assert _count_loop_sets(conflicts, cap) == visited, name
            for cap in {0, visited // 2, visited - 1} & set(range(visited)):
                with pytest.raises(ComplexityCapExceededError):
                    _count_loop_sets(conflicts, cap)

    def test_grouped_sums_match_one_flat_sum(self, monkeypatch):
        # Δ, every cofactor and c against one walk over all the loops a
        # path leaves, as a single sum over every group would take them
        class Recording(_Cofactors):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        class Flat(Recording):
            def __missing__(self, touched):
                left = [k for k in range(len(self.gains)) if not touched >> k & 1]
                self[touched] = _walk(self.gains, self.conflicts, left, math.inf)[0]
                return self[touched]

        for name, g in itertools.islice(_loop_oracle_graphs(), 202):  # fixtures, netgen
            made = []
            monkeypatch.setattr("signed_influence.sfg._Cofactors", Recording)
            grouped = mason_influence(g)
            monkeypatch.setattr("signed_influence.sfg._Cofactors", Flat)
            flat = mason_influence(g)
            assert made[0].keys() == made[1].keys(), name
            for touched, value in made[0].items():
                assert value == pytest.approx(made[1][touched], rel=1e-12, abs=0), name
            assert np.allclose(grouped.c, flat.c, rtol=1e-12, atol=0), name

    def test_unbounded_walks_visit_each_group_alone(self, monkeypatch):
        # netgen seed 59: 42 352 sets when every sum walked all the loops
        rn = random_network(59)
        _, _, reduced = _stack(rn.net, rn.params)
        walks = _recorded_walks(monkeypatch)
        mason_influence(reduced)
        sums = [seen for args, (_, seen) in walks if args[3] == math.inf]
        assert sums and sum(sums) <= 1000

    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_disjoint_two_cycles_sum_in_linear_visits(self, k, monkeypatch):
        # agents 2i and 2i + 1 feed each other; 2i feeds 2i + 2 and the
        # source agent 0: k lone groups, k + 1 distinct touched sets
        source = SourceSpec(SourceKind.STUBBORN_INITIAL, agent=0, members=(0,))
        branches = [(("source", 0), ("agent", 0), 0.5)]
        for i in range(k):
            branches += [(("agent", 2 * i), ("agent", 2 * i + 1), 0.3),
                         (("agent", 2 * i + 1), ("agent", 2 * i), -0.4)]
            if i + 1 < k:
                branches.append((("agent", 2 * i), ("agent", 2 * i + 2), 0.6))
        nodes = tuple(("agent", i) for i in range(2 * k)) + (("source", 0),)
        g = SfgGraph(nodes=nodes, sources=(source,), branches=tuple(branches))
        walks = _recorded_walks(monkeypatch)
        ci = mason_influence(g, subset_cap=2**k)
        # Δ visits each lone loop once; a path's cofactor leaves a group
        # whole or empty, and whole ones are Δ's, already summed
        assert sum(seen for args, (_, seen) in walks if args[3] == math.inf) == k
        # the chain's first pair alone: 0.5 / (1 + 0.12) into agent 0
        assert ci.c[0, 0] == pytest.approx(0.5 / 1.12, rel=1e-12)

    def test_mason_stops_at_the_subset_cap_and_auto_runs_the_solve(self):
        s = synth_network(100, 0)
        with pytest.raises(ComplexityCapExceededError, match="^more than 100000 sets"):
            run_analysis(s.net, s.params, s.x0, "mason")
        assert run_analysis(s.net, s.params, s.x0, "auto").gain_method_used == "solve"

    def test_bit_identical_across_processes(self):
        # netgen seed 172's c depends on the loop order in its last bits, and
        # str hashing differs between these two hash seeds
        assert _mason_c_in_process(0, 172) == _mason_c_in_process(1, 172)

    def test_deep_path_walk_matches_solve(self):
        net, params = _follower_chain(1200, 0.0)
        model, _, reduced = _stack(net, params)
        enumerated = mason_influence(reduced)
        assert np.allclose(enumerated.c, solve_gain(model).c, rtol=0, atol=1e-12)


class TestSolveGain:
    def test_reference_table_rows(self, ref11):
        ci = solve_gain(prepare(ref11.net, ref11.params))
        assert np.allclose(ci.row(0), [0.02, 0.12, 0.04, 0.5, 0.32], atol=1e-12)
        for agent in (1, 2, 3):
            assert np.allclose(ci.row(agent), [0.2, 0.2, 0.4, 0.0, 0.2], atol=1e-12)
        for agent in (5, 6, 7):
            assert np.allclose(ci.row(agent), [0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_one_complement_solve(self, count_calls):
        # the five sources' gains on K = followers + stubborn sink {5, 6, 7},
        # laid out once per network and params object
        s = load_spec(str(REF11))
        solves, layouts = count_calls("_solve_checked"), count_calls("_solve_layout")
        model = prepare(s.net, s.params)
        solve_gain(model)
        # 7 rows solved, x holding them and the 4 given agents
        assert [(len(layout.order), x.shape) for layout, _, _, x in solves] == [(7, (11, 5))]
        assert solves[0][2] is model._inverses
        assert len(layouts) == 1
        solve_gain(prepare(s.net, s.params))
        assert (len(solves), len(layouts)) == (2, 1)
        solve_gain(prepare(s.net, new_params(s.params)))
        assert (len(solves), len(layouts)) == (3, 2)

    def test_matches_mason_on_random_networks(self):
        for seed in range(40):
            rn = random_network(seed)
            model, _, reduced = _stack(rn.net, rn.params)
            direct = solve_gain(model)
            enumerated = mason_influence(reduced)
            assert np.allclose(direct.c, enumerated.c, atol=1e-9), seed


class TestIndividualInfluence:
    def test_reference_entries(self, ref11):
        res = run_analysis(ref11.net, ref11.params, ref11.x0, gain_method="solve")
        th = res.influence.theta
        assert th[0, 0] == pytest.approx(0.5)
        assert th[0, 8] == pytest.approx(0.08 * 15 / 51)  # 0.023
        assert th[1, 10] == pytest.approx(0.2 * 20 / 51)  # 0.0784
        assert th[4, 4] == 1.0
        for i in (5, 6, 7):
            row = np.zeros(11)
            row[5] = 1.0
            assert np.allclose(th[i], row)
        assert th[8, 8] == pytest.approx(15 / 51)
        assert th[9, 8] == pytest.approx(-15 / 51)

    def test_zero_columns_match_non_influential_set(self):
        for seed in range(25):
            rn = random_network(seed)
            res = run_analysis(rn.net, rn.params, rn.x0, gain_method="solve")
            cls = res.model.classification
            influential = set(cls.stubborn)
            for sink in cls.influence_free_sinks:
                influential.update(cls.sinks[sink])
            for j in range(rn.net.n):
                col_zero = np.all(res.influence.theta[:, j] == 0.0)
                assert col_zero == (j not in influential), (seed, j)

    def test_rows_sum_to_one_without_stubbornness(self):
        for seed in range(10):
            rn = random_network(
                seed, kinds=("cooperative", "singleton"), allow_stubborn=False
            )
            # force every interaction cooperative so P is row-stochastic
            net = build_network(rn.net.n, [(i, j, abs(w)) for i, j, w in rn.net.edges])
            res = run_analysis(net, rn.params, rn.x0, gain_method="solve")
            sums = res.influence.theta.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9), seed

    def test_equals_the_product_of_g_and_w(self, zoo17):
        # Θ gathered from H's columns against the dense G·W, the product it stands for
        cases = [(zoo17.net, zoo17.params)] + [
            (rn.net, rn.params) for rn in map(random_network, range(200))]
        cases.append((synth_network(200, 0).net, synth_network(200, 0).params))
        for k, (net, params) in enumerate(cases):
            model = prepare(net, params)
            ci = solve_gain(model)
            g = _fold_matrix(ci.sources, net.n)
            g[list(ci.agents)] = ci.c
            w = np.zeros((len(ci.sources), net.n))
            for r, spec in enumerate(ci.sources):
                if spec.kind in (SourceKind.SINGLETON_LEADER, SourceKind.STUBBORN_INITIAL):
                    w[r, spec.agent] = 1.0
                else:
                    sw = model.spectra[spec.sink].w
                    w[r, list(model.spectra[spec.sink].members)] = -sw if spec.side == -1 else sw
            want = g @ w
            theta = individual_influence(ci, model).theta
            # one term per entry is exact; a balanced sink's (G_r − G_{r+1})·w_j may
            # round once apart from G_r·w_j − G_{r+1}·w_j
            assert np.max(np.abs(theta - want), initial=0.0) <= 4e-16 * max(
                1.0, np.max(np.abs(want), initial=0.0)), k

    def test_gauge_invariance_of_partition_labels(self, ref11):
        model = prepare(ref11.net, ref11.params)
        baseline = individual_influence(solve_gain(model), model)

        cls = model.classification
        flipped_sigma = dict(cls.sigma)
        for k in cls.sinks[2]:
            flipped_sigma[k] = -flipped_sigma[k]
        relabelled = Model(dataclasses.replace(cls, sigma=flipped_sigma), model.matrices)
        # the other gauge's pair for the balanced sink: w and v both negated
        spec, spec2 = model.spectra[2], relabelled.spectra[2]
        assert np.allclose(spec2.w, -spec.w, atol=1e-12) and np.array_equal(spec2.v, -spec.v)
        other = individual_influence(solve_gain(relabelled), relabelled)
        assert np.allclose(baseline.theta, other.theta, atol=1e-12)
