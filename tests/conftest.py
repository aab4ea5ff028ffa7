import importlib
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))

from signed_influence import AgentParams
from signed_influence.specfile import load_spec
from synth import synth_network

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
REF11 = FIXTURES / "reference11.yaml"
ZOO17 = FIXTURES / "showcase17.yaml"


def new_params(params: AgentParams) -> AgentParams:
    """A new params object equal to ``params``, which no network's remembered model is for."""
    return AgentParams(gamma=params.gamma, beta=params.beta)


@pytest.fixture(scope="session")
def ref11():
    return load_spec(str(REF11))


@pytest.fixture(scope="session")
def zoo17():
    return load_spec(str(ZOO17))


@pytest.fixture(scope="session")
def synth10k():
    """The synth network of 10⁴ agents, seed 0, made once: it takes over a second."""
    return synth_network(10_000, 0)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) -> the argument tuples of every call the library
    makes to its function `name` from then on, whichever module calls it."""

    def count(name):
        mods = [importlib.import_module("signed_influence")] + [
            mod for key, mod in sys.modules.items() if key.startswith("signed_influence.")
        ]
        real = next(getattr(mod, name) for mod in mods if hasattr(mod, name))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in mods:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return count


@pytest.fixture
def linalg_calls(monkeypatch):
    """linalg_calls(name) -> the shape of the matrix of every call to
    `np.linalg.<name>` from then on."""

    def count(name):
        real, shapes = getattr(np.linalg, name), []

        def counting(a, *args):
            shapes.append(a.shape)
            return real(a, *args)

        monkeypatch.setattr(np.linalg, name, counting)
        return shapes

    return count
