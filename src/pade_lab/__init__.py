"""Rational time-step encodings of linear autonomous ODEs, with full checks.

The package builds the block-sparse linear systems that encode m steps of the
diagonal rational (and rival truncated-series) propagation, solves them
exactly, verifies every published condition/accuracy/success-probability
bound numerically, and constructs the matching block-encoding circuits at
desk scale, each stage realized densely by ``circuit_sim.realize_dense``.
"""

from .pade_core import (
    OdeProblem,
    PadeCoefficients,
    pade_coefficients,
    reference_expm,
)
# classical_solver before system_builder, so that scipy.linalg loads before
# scipy.sparse: the other order measured about 25 ms (8 %) more set-up per
# fresh process (perfbench condition-sweep, 2 cores, numpy 2.4, scipy 1.17)
from .classical_solver import (
    SolutionBundle,
    solve_block_forward,
    state_distance,
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
