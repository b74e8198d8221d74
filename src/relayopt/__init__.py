"""Exact toolkit for message-forwarding protocols on unreliable
two-terminal networks: protocol construction, finiteness, exact
reliability polynomials, optimal finite protocols with piecewise
envelopes, series-parallel constructions, asymptotic heads, and Monte
Carlo cross-validation."""

from .asymptotics import (
    CutCensus,
    PathCensus,
    cut_census,
    near_one_expansion,
    near_zero_expansion,
    path_census,
    robustness,
)
from .constructions import (
    Expansion,
    SPTree,
    build_breakpoint_graph,
    build_crossing_pair,
    delta_rho,
    edge,
    expand,
    extend_protocol,
    implied_distribution,
    join_parallel,
    join_series,
    kelmans_compose,
    parallel,
    parse_sptree,
    path_graph,
    profile,
    profile_multiplicities,
    realize,
    series,
    sp_level_injection,
    sptree_json,
)
from .engine import (
    StateGraph,
    a_paths,
    a_walks,
    bounded_protocol,
    cfp,
    enumerate_sr_paths,
    essential_circuits,
    essential_instructions,
    finiteness_witness,
    instructions_in,
    is_finite,
    loop_erase,
    spfp_reduce,
    strongly_essential_instructions,
)
from .errors import (
    DomainError,
    FormatError,
    GraphError,
    GuardExceededError,
    InfiniteProtocolError,
    InstructionError,
    ProbabilityError,
    RelayoptError,
    UnknownVertexError,
    ZeroPolynomialError,
)
from .graphs import (
    EdgeProbabilityMap,
    Instruction,
    Protocol,
    TwoTerminalGraph,
    all_instructions,
    b0,
    edge_key,
    graph_json,
    parse_graph,
    parse_protocol,
    protocol_json,
    validate_graph,
)
from .optimizer import (
    Breakpoint,
    DiscrepancyReport,
    Piece,
    PiecewiseReliability,
    breakpoint_free_check,
    brute_force_rho_hat,
    candidate_polynomials,
    circuit_instructions,
    discrepancy,
    min_discrepancy,
    minimal_removal_sets,
    optimal_protocol,
    rho_hat_at,
    rho_hat_piecewise,
)
from .polys import Poly, parse_rational
from .reliability import (
    connectivity_counts,
    path_spectrum,
    rho,
    rho_A,
    rho_by_connectivity,
    rho_prime_A,
    rho_prime_inclusion_exclusion,
    subset_admits_walk,
    walk_spectrum,
)
from .roots import AlgebraicNumber, isolate_roots_01, roots_with_multiplicity
from .simulate import TrialReport, expected_copies, simulate

__version__ = "0.1.0"
