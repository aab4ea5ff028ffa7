"""Opinion dynamics on signed networks.

Classify agents and sinks of a signed weighted digraph, decide convergence
of the stubborn opinion update structurally, compute steady states by three
independent routes, quantify influence through signal-flow-graph gains
(Mason's formula with an algebraic cross-check), and rank agents by
absolute influence centrality.
"""

from .centrality import (
    CentralityResult,
    PerturbationResult,
    SignFlipResult,
    absolute_centrality,
    flip_edge_signs,
    perturb_initial,
)
from .dynamics import (
    Model,
    ModelMatrices,
    SinkSpectrum,
    SteadyState,
    SteadyStateMethod,
    TrajectoryLog,
    build_matrices,
    prepare,
    simulate,
    sink_spectrum,
    spectral_radius,
    steady_state,
)
from .errors import (
    BadIdError,
    ComplexityCapExceededError,
    DegenerateEigenspaceError,
    DuplicateEdgeError,
    IterationCapError,
    NetworkValidationError,
    NoSuchEdgeError,
    NotWeaklyConnectedError,
    ParamConstraintViolatedError,
    SelfLoopError,
    SignedInfluenceError,
    SingularSystemError,
    SpecFileError,
    StubbornSinkRejectedError,
    ZeroDeltaError,
    ZeroWeightError,
)
from .graph import (
    AgentClassification,
    AgentParams,
    SignedNetwork,
    SinkKind,
    build_network,
    classify,
)
from .pipeline import AnalysisResult, run_analysis
from .sfg import (
    CollectiveInfluence,
    InfluenceMatrix,
    SfgGraph,
    SourceKind,
    SourceSpec,
    build_full_sfg,
    individual_influence,
    mason_influence,
    reduce_sfg,
    solve_gain,
    source_catalog,
)
from .specfile import (
    NetworkSpec,
    build_report,
    diff_reports,
    dump_report,
    export_dot,
    load_report,
    load_spec,
    trajectory_csv,
)

__version__ = "0.1.0"
