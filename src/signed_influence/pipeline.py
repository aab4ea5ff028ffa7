"""End-to-end analysis: classification through centrality in one call."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import CentralityResult, absolute_centrality
from .dynamics import (
    ModelMatrices,
    SinkSpectrum,
    SteadyState,
    build_matrices,
    compute_spectra,
    steady_state,
)
from .errors import ComplexityCapExceededError, SingularSystemError
from .graph import AgentClassification, AgentParams, SignedNetwork, classify
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
    net: SignedNetwork
    params: AgentParams
    x0: np.ndarray
    classification: AgentClassification
    matrices: ModelMatrices
    spectra: dict[int, SinkSpectrum]
    collective: CollectiveInfluence
    influence: InfluenceMatrix
    steady: SteadyState
    centrality: CentralityResult
    gain_method_used: str  # "mason" or "solve"


def run_analysis(
    net: SignedNetwork,
    params: AgentParams,
    x0,
    gain_method: str = "auto",
) -> AnalysisResult:
    """Run the whole stack and return every intermediate product.

    gain_method: "solve" for the algebraic gains, "mason" for path/loop
    enumeration (raises on the complexity cap or a zero determinant),
    "auto" for enumeration with algebraic fallback on either.
    """
    x0 = np.asarray(x0, dtype=float)
    cls = classify(net, params)
    matrices = build_matrices(net, params)
    spectra = compute_spectra(matrices, cls)

    if gain_method == "solve":
        collective, used = solve_gain(matrices, cls, spectra), "solve"
    elif gain_method in ("mason", "auto"):
        try:
            collective, used = mason_influence(reduce_sfg(matrices, cls, spectra)), "mason"
        except (ComplexityCapExceededError, SingularSystemError):
            if gain_method == "mason":
                raise
            collective, used = solve_gain(matrices, cls, spectra), "solve"
    else:
        raise ValueError(f"unknown gain method {gain_method!r}")

    influence = individual_influence(collective, cls, spectra)
    steady = steady_state(matrices, cls, spectra, x0)
    centrality = absolute_centrality(influence)
    return AnalysisResult(
        net=net,
        params=params,
        x0=x0,
        classification=cls,
        matrices=matrices,
        spectra=spectra,
        collective=collective,
        influence=influence,
        steady=steady,
        centrality=centrality,
        gain_method_used=used,
    )
