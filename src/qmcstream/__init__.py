"""Streaming estimation, exact oracles, and Fourier checks for Quantum Max-Cut."""

from .graph import (
    GraphParseError,
    InfeasibleSizeError,
    WeightedEdge,
    WeightedGraph,
    dfs_decomposition,
    heaviest_edge_decomposition,
    is_bipartite,
    max_incident_sum,
    parse_edge_list,
    read_edge_list,
    total_weight,
)
from .oracles import (
    constructive_energies,
    max_cut_bruteforce,
    qmc_bounds,
    qmc_exact,
)
from .estimator import (
    EstimatorBank,
    QmcEstimateAlgorithm,
    ReservoirState,
    estimate_qmc,
    estimate_w,
    expectation_oracle,
    finalize_sample,
)
from .relaxation import solve_vector_program
from .dihp import (
    DihpInstance,
    reduce_to_stream,
    run_protocol,
    sample_instance,
    separation_experiment,
)
from .fourier import (
    ToyProtocol,
    hypercontractivity_sums,
    phibound_experiment,
    protocol_states,
    transform,
)
from .fourier_suite import verify_fourier_lemmas

__version__ = "0.1.0"
