"""Rational time-step encodings of linear autonomous ODEs, with full checks.

The package builds the block-sparse linear systems that encode m steps of the
diagonal rational (and rival truncated-series) propagation, solves them
exactly, verifies every published condition/accuracy/success-probability
bound numerically, and constructs the matching block-encoding circuits at
desk scale, realized as dense unitaries below 9 qubits and as products of
sparse (CSR) gate matrices from 9 qubits.
"""

from .pade_core import (
    OdeProblem,
    PadeCoefficients,
    eval_pade_parts,
    pade_coefficients,
    pade_propagator,
    reference_expm,
)
from .error_bounds import (
    RemainderModel,
    SolverParams,
    make_params,
    min_order,
    padding_rule,
    remainder_bound,
    remainder_coeffs,
    select_parameters,
    theta_max,
)
from .system_builder import (
    BlockSystem,
    TrajectoryReference,
    build_pade_system,
    build_taylor_system,
    classical_reference_trajectory,
    load_problem,
    save_problem,
)
from .classical_solver import (
    SolutionBundle,
    solve_block_forward,
    state_distance,
)
from .analysis import (
    AnalysisReport,
    condition_report,
    inverse_norm_bounds,
    propagator_drift,
)
from .circuit_sim import (
    BlockEncodingUnitary,
    CircuitSpec,
    build_l_encoding,
    hermitian_encoding,
    primitive_encodings,
    verify_block_encoding,
    zero_matrix_encoding,
)
from .experiments import SweepReport, random_stable_matrix, sweep_k, sweep_m

__version__ = "0.1.0"
