"""Network validation, classification and strongly connected components.

`classify` alone decides each sink's balance; its kinds and sigma are
checked against networkx's bipartiteness test, and `strong_components`
against networkx's SCCs.
"""

import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REF11, ZOO17
from netgen import KINDS, random_network
from signed_influence import (
    AgentParams,
    DuplicateEdgeError,
    NetworkValidationError,
    NotWeaklyConnectedError,
    ParamConstraintViolatedError,
    SelfLoopError,
    SinkKind,
    ZeroWeightError,
    build_matrices,
    build_network,
    classify,
    flip_edge_signs,
    load_spec,
    perturb_initial,
)
from signed_influence.errors import BadIdError
from signed_influence.graph import strong_components

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from synth import synth_network  # noqa: E402


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

    def test_rejects_bool_ids(self):
        for edge in ((True, 0, 1.0), (0, True, 1.0), (np.int64(0), False, 1.0)):
            with pytest.raises(BadIdError):
                build_network(2, [edge])

    def test_rejects_weights_that_are_not_real_numbers(self):
        for weight in ("2.5", True, np.bool_(True), None, 1j):
            with pytest.raises(NetworkValidationError) as err:
                build_network(2, [(0, 1, weight)])
            assert str(err.value) == f"edge (0, 1): weight {weight!r} is not a real number"
        with pytest.raises(NetworkValidationError, match=r"^edge \(0, 1\): weight 'a\\nb' is"):
            build_network(2, [(0, 1, "a\nb")])  # still one line

    def test_accepts_numpy_and_int_weights(self):
        net = build_network(3, [(0, 1, np.float32(0.5)), (1, 2, np.int64(-2)), (2, 0, 3)])
        assert net.edges == ((0, 1, 0.5), (1, 2, -2.0), (2, 0, 3.0))
        assert all(type(w) is float for _, _, w in net.edges)

    def test_rejects_int_weight_too_large_for_a_float(self):
        with pytest.raises(ZeroWeightError):
            build_network(2, [(0, 1, 10**400)])

    def test_adjacency_and_sinks(self):
        net = build_network(3, [(0, 1, 2.0), (1, 2, -3.0)])
        # with gamma = beta = 0, P is the sign-preserving normalised adjacency
        m = build_matrices(net, AgentParams(gamma=(0.0,) * 3, beta=(0.0,) * 3))
        assert m.dense().tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]
        assert net.weakly_connected

    def test_disconnected_flag(self):
        net = build_network(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not net.weakly_connected


_NET2 = build_network(2, [(1, 0, 1.0)])  # agent 1 listens to agent 0
_PARAMS2 = AgentParams(gamma=(0.5, 0.5), beta=(0.0, 0.0))
_X02 = np.array([1.0, -1.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_network(True, []), NetworkValidationError, "n=True must be a positive integer"),
    (lambda: build_network(2.5, []), NetworkValidationError, "n=2.5 must be a positive integer"),
    (lambda: build_network("3", []), NetworkValidationError, "n='3' must be a positive integer"),
    (lambda: build_network(0, []), NetworkValidationError, "n=0 must be a positive integer"),
    (lambda: build_network(2, [(0, 1)]), NetworkValidationError,
     "edge (0, 1) must be [from, to, weight]"),
    (lambda: build_network(2, [(0, 1.0, 1.0)]), BadIdError,
     "edge (0, 1.0, 1.0): agent ids must be integers"),
    (lambda: flip_edge_signs(_NET2, _PARAMS2, _X02, ((True, 0),)), BadIdError,
     "edge (True, 0) must be a pair of integer agent ids"),
    (lambda: flip_edge_signs(_NET2, _PARAMS2, _X02, ((1.0, 0),)), BadIdError,
     "edge (1.0, 0) must be a pair of integer agent ids"),
    (lambda: flip_edge_signs(_NET2, _PARAMS2, _X02, ((1, 0, 5),)), BadIdError,
     "edge (1, 0, 5) must be a pair of integer agent ids"),
    (lambda: flip_edge_signs(_NET2, _PARAMS2, _X02, ((0,),)), BadIdError,
     "edge (0,) must be a pair of integer agent ids"),
    (lambda: perturb_initial(_NET2, _PARAMS2, _X02, True, 0.5), BadIdError,
     "agent True is not an integer id"),
    (lambda: perturb_initial(_NET2, _PARAMS2, _X02, 1.0, 0.5), BadIdError,
     "agent 1.0 is not an integer id"),
    (lambda: AgentParams(gamma=(0.1, 0.2), beta=(0.0,)), ParamConstraintViolatedError,
     "gamma has 2 entries, beta 1"),
    (lambda: classify(_NET2, AgentParams(gamma=(0.1,) * 3, beta=(0.0,) * 3)),
     ParamConstraintViolatedError, "parameters for 3 agents, network has 2"),
], ids=["bool-n", "float-n", "string-n", "zero-n", "edge-pair", "float-id",
        "flip-bool-id", "flip-float-id", "flip-triple", "flip-single", "perturb-bool-agent",
        "perturb-float-agent", "params-lengths", "classify-lengths"])
def test_api_inputs_get_one_line_library_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def _sink_classification(n, edges):
    """The classification of a network that is one sink of n agents."""
    cls = classify(build_network(n, edges), AgentParams(gamma=(0.2,) * n, beta=(0.0,) * n))
    assert cls.sinks == (tuple(range(n)),)
    return cls


class TestStructuralBalance:
    def test_positive_cycle_is_balanced(self):
        # cooperative is the balanced kind whose internal ties are all positive
        cls = _sink_classification(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        assert cls.sink_kind == {0: SinkKind.COOPERATIVE}
        assert cls.sigma == {}

    def test_antagonistic_pair(self):
        cls = _sink_classification(2, [(0, 1, -1.0), (1, 0, -2.0)])
        assert cls.sink_kind == {0: SinkKind.BALANCED}
        assert cls.sigma == {0: 1, 1: -1}

    def test_odd_negative_cycle_is_unbalanced(self):
        cls = _sink_classification(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, -1.0)])
        assert cls.sink_kind == {0: SinkKind.UNBALANCED}
        assert cls.sigma == {}

    def test_opposite_sign_directed_pair_is_unbalanced(self):
        cls = _sink_classification(2, [(0, 1, 1.0), (1, 0, -1.0)])
        assert cls.sink_kind == {0: SinkKind.UNBALANCED}

    def test_sigma_reproduces_edge_signs(self):
        for seed in range(30):
            rn = random_network(seed, kinds=("balanced",), allow_stubborn=False)
            cls = classify(rn.net, rn.params)
            assert [cls.sink_kind[s] for s in range(len(cls.sinks))] == [SinkKind.BALANCED]
            assert set(cls.sigma) == set(cls.sinks[0])
            for i, j, w in rn.net.edges:
                if i in cls.sigma and j in cls.sigma:
                    assert cls.sigma[i] * cls.sigma[j] == (1 if w > 0 else -1)


class TestAgentParams:
    def test_rejects_gamma_outside_unit_interval(self):
        with pytest.raises(ParamConstraintViolatedError):
            AgentParams(gamma=(1.5,), beta=(0.0,))

    def test_rejects_beta_one(self):
        with pytest.raises(ParamConstraintViolatedError):
            AgentParams(gamma=(0.5,), beta=(1.0,))

    def test_rejects_entries_that_are_not_real_numbers(self):
        for value in (True, np.bool_(False), "0.5", None, [0.1]):
            for name, gamma, beta in (("gamma", (0.5, value), (0.0, 0.0)),
                                      ("beta", (0.5, 0.5), (0.0, value))):
                with pytest.raises(ParamConstraintViolatedError) as err:
                    AgentParams(gamma=gamma, beta=beta)
                assert str(err.value) == f"agent 1: {name}={value!r} is not a real number"

    def test_takes_numpy_scalars(self):
        params = AgentParams(gamma=(np.float64(0.5), np.int64(1)), beta=(np.float32(0.25), 0))
        assert params.stubborn_agents() == (0,)

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

    def test_cycle_plus_tail(self):
        net = build_network(4, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        cls = classify(net, AgentParams(gamma=(0.2,) * 4, beta=(0.0,) * 4))
        assert set(cls.blocks) == {(0, 1), (2,), (3,)}
        assert cls.sinks == ((3,),)

    def test_representative_network_has_five_sinks(self, zoo17):
        cls = classify(zoo17.net, zoo17.params)
        assert len(cls.blocks) == 6
        assert len(cls.sinks) == 5
        assert (10,) in cls.sinks
        assert (14, 15, 16) in cls.sinks

    def test_blocks_listener_first(self, ref11):
        # follower 0 listens to the cycle {1, 2, 3}, which listens to all three sinks
        cls = classify(ref11.net, ref11.params)
        assert cls.blocks == ((0,), (1, 2, 3), (8, 9, 10), (5, 6, 7), (4,))

    def test_blocks_come_before_what_they_listen_to(self):
        for seed in range(20):
            rn = random_network(seed)
            cls = classify(rn.net, rn.params)
            block_of = {m: b for b, members in enumerate(cls.blocks) for m in members}
            assert sorted(block_of) == list(range(rn.net.n))
            assert all(block_of[i] <= block_of[j] for i, j, _ in rn.net.edges), seed

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
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


def _oracle_networks():
    for seed in range(200):
        rn = random_network(seed)
        yield f"netgen-{seed}", rn.net, rn.params
    for n in (100, 1000):
        s = synth_network(n, 0)
        yield f"synth-{n}", s.net, s.params


class TestOnePassClassify:
    def test_kinds_agree_with_edge_signs_and_balance_check(self):
        for name, net, params in _oracle_networks():
            cls = classify(net, params)
            balanced_members = set()
            for idx, members in enumerate(cls.sinks):
                kind = cls.sink_kind[idx]
                if len(members) == 1:
                    assert kind == SinkKind.SINGLETON_LEADER, name
                    continue
                inside = set(members)
                internal = [(i, j, w) for i, j, w in net.edges if i in inside and j in inside]
                assert (kind == SinkKind.COOPERATIVE) == all(w > 0 for _, _, w in internal), name
                # sigma_i * sigma_j = sign(a_ij): a negative edge joins opposite colours,
                # a positive one is split in two so that its ends share a colour
                g = nx.Graph()
                g.add_nodes_from(members)
                for i, j, w in internal:
                    mid = ("mid", i, j)
                    g.add_edges_from([(i, j)] if w < 0 else [(i, mid), (mid, j)])
                balanced = nx.is_bipartite(g)
                assert (kind != SinkKind.UNBALANCED) == balanced, (name, idx)
                if not balanced:
                    continue
                colour = nx.bipartite.color(g)
                want = {m: 1 if colour[m] == colour[members[0]] else -1 for m in members}
                if kind == SinkKind.COOPERATIVE:
                    assert set(want.values()) == {1}, (name, idx)
                else:
                    assert {m: cls.sigma[m] for m in members} == want, (name, idx)
                    balanced_members |= inside
            assert set(cls.sigma) == balanced_members, name

    def test_makes_one_strong_components_call(self, zoo17, count_calls):
        # the SCCs are found once per network: classifying it again and
        # flipping signs, inside a sink or not, reuse them
        net = build_network(zoo17.net.n, zoo17.net.edges)
        searches = count_calls("strong_components")
        cls = classify(net, zoo17.params)
        assert SinkKind.BALANCED in cls.sink_kind.values()
        assert SinkKind.UNBALANCED in cls.sink_kind.values()
        assert len(searches) == 1
        classify(net, zoo17.params)
        inside = next((i, j) for i, j, _ in net.edges if i in cls.group_leaders)
        outside = next((i, j) for i, j, _ in net.edges if i in cls.followers)
        flip_edge_signs(net, zoo17.params, zoo17.x0, (inside, outside))
        assert len(searches) == 1

    def test_memory_stays_linear(self):
        # a dense n x n array at n = 3000 alone would take 72 MB
        s = synth_network(3000, 0)
        tracemalloc.start()
        try:
            classify(s.net, s.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak


def _scc_oracle_networks(synth10k):
    for path in (REF11, ZOO17):
        spec = load_spec(str(path))
        yield path.stem, spec.net
    for seed in range(200):
        yield f"netgen-{seed}", random_network(seed).net
    for k, seed in enumerate(range(1000, 1200)):
        yield f"kinds-{seed}", random_network(seed, kinds=(KINDS[k % 4], KINDS[k // 4 % 4])).net
    for n in (100, 1000):
        yield f"synth-{n}", synth_network(n, 0).net
    yield "synth-10000", synth10k.net


class TestNetworkxOracle:
    def test_strong_components_in_networkx_order_reversed(self, synth10k):
        for name, net in _scc_oracle_networks(synth10k):
            arcs = [(i, j) for i, j, _ in net.edges]
            g = nx.DiGraph()
            g.add_nodes_from(range(net.n))
            g.add_edges_from(arcs)
            want = [frozenset(c) for c in nx.strongly_connected_components(g)][::-1]
            got = strong_components(net.n, arcs)
            assert all(type(c) is tuple and list(c) == sorted(c) for c in got), name
            assert [frozenset(c) for c in got] == want, name

    def test_long_chain_and_cycle_need_no_recursion(self):
        n = 100_000
        chain = strong_components(n, [(i, i + 1) for i in range(n - 1)])
        assert len(chain) == n and chain[0] == (0,) and chain[-1] == (n - 1,)
        assert strong_components(n, [(i, (i + 1) % n) for i in range(n)]) == [tuple(range(n))]

    def test_weakly_connected_matches_networkx(self):
        rng = np.random.default_rng(0)
        disconnected = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            size = (int(rng.integers(0, 9)), 2)
            pairs = {(int(i), int(j)) for i, j in rng.integers(0, n, size=size)}
            edges = [(i, j, 1.0) for i, j in sorted(pairs) if i != j]
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from((i, j) for i, j, _ in edges)
            assert build_network(n, edges).weakly_connected == nx.is_connected(g), (n, edges)
            disconnected += not nx.is_connected(g)
        assert 50 < disconnected < 250
