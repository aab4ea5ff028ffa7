"""Network validation, condensation, balance checks and classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import random_network
from signed_influence import (
    AgentParams,
    DuplicateEdgeError,
    NotStronglyConnectedError,
    NotWeaklyConnectedError,
    ParamConstraintViolatedError,
    SelfLoopError,
    SinkKind,
    ZeroWeightError,
    build_network,
    check_structural_balance,
    classify,
    condense,
)
from signed_influence.errors import BadIdError


class TestBuildNetwork:
    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_network(2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_network(2, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_rejects_zero_and_nonfinite_weights(self):
        with pytest.raises(ZeroWeightError):
            build_network(2, [(0, 1, 0.0)])
        with pytest.raises(ZeroWeightError):
            build_network(2, [(0, 1, float("nan"))])

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(BadIdError):
            build_network(2, [(0, 2, 1.0)])
        with pytest.raises(BadIdError):
            build_network(2, [(-1, 0, 1.0)])

    def test_adjacency_and_sinks(self):
        net = build_network(3, [(0, 1, 2.0), (1, 2, -3.0)])
        assert net.adjacency[0, 1] == 2.0
        assert net.adjacency[1, 2] == -3.0
        assert net.graph_sinks() == {2}
        assert net.weakly_connected

    def test_disconnected_flag(self):
        net = build_network(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not net.weakly_connected


class TestCondense:
    def test_cycle_plus_tail(self):
        net = build_network(4, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        cond = condense(net)
        assert set(cond.components) == {frozenset({0, 1}), frozenset({2}), frozenset({3})}
        assert len(cond.sinks) == 1
        assert cond.components[cond.sinks[0]] == frozenset({3})

    def test_representative_network_has_five_sinks(self, zoo17):
        cond = condense(zoo17.net)
        assert len(cond.components) == 6
        assert len(cond.sinks) == 5
        sink_sets = {cond.components[s] for s in cond.sinks}
        assert frozenset({10}) in sink_sets
        assert frozenset({14, 15, 16}) in sink_sets

    def test_condensation_is_acyclic(self):
        import networkx as nx

        for seed in range(20):
            rn = random_network(seed)
            cond = condense(rn.net)
            g = nx.DiGraph(list(cond.edges))
            assert nx.is_directed_acyclic_graph(g)


class TestStructuralBalance:
    def test_positive_cycle_is_balanced(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        res = check_structural_balance(net, [0, 1, 2])
        assert res.balanced
        assert res.sigma == {0: 1, 1: 1, 2: 1}

    def test_antagonistic_pair(self):
        net = build_network(2, [(0, 1, -1.0), (1, 0, -2.0)])
        res = check_structural_balance(net, [0, 1])
        assert res.balanced
        assert res.sigma == {0: 1, 1: -1}

    def test_odd_negative_cycle_is_unbalanced(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, -1.0)])
        res = check_structural_balance(net, [0, 1, 2])
        assert not res.balanced
        assert res.sigma is None

    def test_opposite_sign_directed_pair_is_unbalanced(self):
        net = build_network(2, [(0, 1, 1.0), (1, 0, -1.0)])
        res = check_structural_balance(net, [0, 1])
        assert not res.balanced

    def test_requires_strong_connectivity(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(NotStronglyConnectedError):
            check_structural_balance(net, [0, 1, 2])

    def test_sigma_reproduces_edge_signs(self):
        for seed in range(30):
            rn = random_network(seed, kinds=("balanced",), allow_stubborn=False)
            members = [i for i in range(rn.net.n) if i >= rn.follower_count]
            res = check_structural_balance(rn.net, members)
            assert res.balanced
            for i, j, w in rn.net.edges:
                if i in res.sigma and j in res.sigma:
                    assert res.sigma[i] * res.sigma[j] == (1 if w > 0 else -1)


class TestAgentParams:
    def test_rejects_gamma_outside_unit_interval(self):
        with pytest.raises(ParamConstraintViolatedError):
            AgentParams(gamma=(1.5,), beta=(0.0,))

    def test_rejects_beta_one(self):
        with pytest.raises(ParamConstraintViolatedError):
            AgentParams(gamma=(0.5,), beta=(1.0,))

    def test_stubborn_agents(self):
        params = AgentParams(gamma=(0.2, 0.2, 0.2), beta=(0.0, 0.3, 0.0))
        assert params.stubborn_agents() == (1,)


class TestClassify:
    def test_reference_network(self, ref11):
        cls = classify(ref11.net, ref11.params)
        assert cls.followers == {0, 1, 2, 3}
        assert cls.singleton_leaders == {4}
        assert cls.group_leaders == {5, 6, 7, 8, 9, 10}
        assert cls.stubborn == {0, 5}
        assert cls.sinks == ((4,), (5, 6, 7), (8, 9, 10))
        assert cls.sink_kind[0] == SinkKind.SINGLETON_LEADER
        assert cls.sink_kind[1] == SinkKind.COOPERATIVE
        assert cls.sink_kind[2] == SinkKind.BALANCED
        assert cls.influence_free_sinks == {0, 2}
        assert cls.sigma[8] == 1 and cls.sigma[9] == -1 and cls.sigma[10] == -1

    def test_all_sink_kinds_at_once(self, zoo17):
        cls = classify(zoo17.net, zoo17.params)
        kinds = [cls.sink_kind[s] for s in range(len(cls.sinks))]
        assert kinds.count(SinkKind.COOPERATIVE) == 2
        assert kinds.count(SinkKind.SINGLETON_LEADER) == 1
        assert kinds.count(SinkKind.BALANCED) == 1
        assert kinds.count(SinkKind.UNBALANCED) == 1
        # no stubbornness: every balanced sink contributes a unit eigenvalue
        assert len(cls.influence_free_sinks) == 4

    def test_rejects_disconnected(self):
        net = build_network(4, [(0, 1, 1.0), (2, 3, 1.0)])
        params = AgentParams(gamma=(0.2,) * 4, beta=(0.0,) * 4)
        with pytest.raises(NotWeaklyConnectedError):
            classify(net, params)

    def test_rejects_saturated_mixing_off_sinks(self):
        net = build_network(2, [(0, 1, 1.0)])
        params = AgentParams(gamma=(0.7, 0.2), beta=(0.3, 0.0))
        with pytest.raises(ParamConstraintViolatedError):
            classify(net, params)

    def test_rejects_zero_gamma_group_leader(self):
        net = build_network(2, [(0, 1, 1.0), (1, 0, 1.0)])
        params = AgentParams(gamma=(0.0, 0.2), beta=(0.0, 0.0))
        with pytest.raises(ParamConstraintViolatedError):
            classify(net, params)

    def test_blocks_listener_first(self, ref11):
        # follower 0 listens to the cycle {1, 2, 3}, which listens to all three sinks
        cls = classify(ref11.net, ref11.params)
        assert cls.blocks == ((0,), (1, 2, 3), (8, 9, 10), (5, 6, 7), (4,))
        assert cls.n == 11

    def test_blocks_come_before_what_they_listen_to(self):
        for seed in range(20):
            rn = random_network(seed)
            cls = classify(rn.net, rn.params)
            block_of = {m: b for b, members in enumerate(cls.blocks) for m in members}
            assert sorted(block_of) == list(range(rn.net.n))
            assert all(block_of[i] <= block_of[j] for i, j, _ in rn.net.edges), seed

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
    def test_edge_order_does_not_matter(self, seed, perm_seed):
        rn = random_network(seed)
        shuffled = list(rn.net.edges)
        np.random.default_rng(perm_seed).shuffle(shuffled)
        net2 = build_network(rn.net.n, shuffled)
        a = classify(rn.net, rn.params)
        b = classify(net2, rn.params)
        assert a.sinks == b.sinks
        assert a.followers == b.followers
        assert a.sink_kind == b.sink_kind
        assert a.sigma == b.sigma
