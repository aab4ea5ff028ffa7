"""The synthetic family behaves as planned: sink kinds, connectivity, determinism."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from signed_influence import classify, load_spec  # noqa: E402
from synth import SINK_ROTATION, SINK_SIZE, spec_text, synth_network  # noqa: E402

PLAN = {name: (kind, stubborn) for name, kind, stubborn in SINK_ROTATION}
CASES = [(n, seed) for n in (100, 200, 450, 1000) for seed in (0, 1, 2)]


@pytest.mark.parametrize("n,seed", CASES)
def test_classify_recovers_planned_sinks(n, seed):
    s = synth_network(n, seed)
    cls = classify(s.net, s.params)
    assert cls.sinks == s.sinks
    assert all(len(members) == SINK_SIZE for members in cls.sinks)
    for idx, planned in enumerate(s.kinds):
        kind, stubborn = PLAN[planned]
        assert cls.sink_kind[idx] == kind
        assert cls.sink_has_stubborn(idx) == stubborn
    assert cls.followers == frozenset(range(s.follower_count))


@pytest.mark.parametrize("n,seed", CASES)
def test_followers_form_a_forward_dag_and_the_network_is_connected(n, seed):
    s = synth_network(n, seed)
    assert s.net.weakly_connected
    m = s.follower_count
    assert all(i < j for i, j, _ in s.net.edges if i < m)
    assert all(s.net.out_degree[f] == 5 for f in range(m))
    stubborn_followers = sum(1 for f in range(m) if s.params.beta[f] > 0)
    assert stubborn_followers == max(1, round(0.1 * m))
    gamma, beta = np.array(s.params.gamma), np.array(s.params.beta)
    assert np.all(gamma + beta < 1.0)


def test_rotation_covers_every_kind_at_n_400():
    assert synth_network(400, 0).kinds == tuple(name for name, _, _ in SINK_ROTATION)


def test_same_seed_same_bytes_and_other_seed_other_bytes():
    def text(n, seed):
        s = synth_network(n, seed)
        return spec_text(s.net, s.params, s.x0).encode()

    assert text(300, 7) == text(300, 7)
    assert text(300, 7) != text(300, 8)
    assert text(300, 7) != text(301, 7)


def test_spec_text_loads_back_exactly(tmp_path):
    s = synth_network(150, 3)
    path = tmp_path / "net.yaml"
    path.write_text(spec_text(s.net, s.params, s.x0))
    spec = load_spec(str(path))
    assert spec.net == s.net
    assert spec.params == s.params
    assert np.array_equal(spec.x0, s.x0)


def test_too_small_for_its_sinks():
    with pytest.raises(ValueError):
        synth_network(5, 0)
