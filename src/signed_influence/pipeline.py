"""End-to-end analysis: classification through centrality in one call."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import CentralityResult, absolute_centrality
from .dynamics import Model, SteadyState, prepare, steady_state
from .graph import AgentParams, SignedNetwork
from .sfg import (
    CollectiveInfluence,
    InfluenceMatrix,
    individual_influence,
    mason_influence,
    reduce_sfg,
    solve_gain,
)


@dataclass(frozen=True)
class AnalysisResult:
    model: Model
    x0: np.ndarray
    collective: CollectiveInfluence
    influence: InfluenceMatrix
    steady: SteadyState
    centrality: CentralityResult
    gain_method_used: str  # "mason" or "solve"


def run_analysis(
    net: SignedNetwork,
    params: AgentParams,
    x0,
    gain_method: str = "solve",
) -> AnalysisResult:
    """Run the whole stack and return every intermediate product.

    gain_method: "solve" (or its alias "auto") for the algebraic gains,
    "mason" for path/loop enumeration, the oracle, which raises on the
    complexity cap or a sum that cancels.
    """
    x0 = np.asarray(x0, dtype=float)
    model = prepare(net, params)

    if gain_method in ("solve", "auto"):
        collective, used = solve_gain(model), "solve"
    elif gain_method == "mason":
        collective, used = mason_influence(reduce_sfg(model)), "mason"
    else:
        raise ValueError(f"unknown gain method {gain_method!r}")

    influence = individual_influence(collective, model)
    return AnalysisResult(
        model=model,
        x0=x0,
        collective=collective,
        influence=influence,
        steady=steady_state(model, x0),
        centrality=absolute_centrality(influence),
        gain_method_used=used,
    )
