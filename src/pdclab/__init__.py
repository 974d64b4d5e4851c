"""Numerical laboratory for metrology in driven-dissipative down-conversion.

The package is organized around one physical system, a parametrically driven
pump mode feeding a signal mode through two-photon exchange, studied along two
routes that are kept deliberately independent so each can check the other:

``hilbert``
    truncated Fock spaces, operators, states.
``dynamics``
    Lindblad generators for the full two-mode system and for the adiabatically
    reduced signal mode, closed (exact exponential) and open time evolution,
    steady states, spectral gaps, and the three-level model, the reduced mode
    at d = 3.
``analytic``
    closed-form steady-state moments, quantum Fisher information, measurement
    uncertainties, and the coupling-sensor figures of merit.
``metrology``
    finite-difference quantum Fisher information (pure-state, spectral, and
    Gaussian), photon-counting and homodyne error propagation.
``meanfield``
    factorized steady states, linear stability, fluctuation moments via both
    closed forms and a Lyapunov solve.
``cli``
    scenario runner producing CSV tables with JSON sidecars.
"""

from .analytic import (
    Classical,
    FullyQuantum,
    Semiclassical,
    SensorOptimum,
    critical_lambda,
    delta2_g,
    delta2_g_homodyne_phase,
    lambda_sensor,
    moment_gb0,
    moment_ss,
    optimal_allocation,
    qfi_closed_form,
    qfi_gb0_closed,
)
from .dynamics import (
    LindbladModel,
    SteadyStateResult,
    SystemParams,
    auto_truncated_steady,
    build_full_model,
    build_reduced_model,
    evolve_closed,
    evolve_open,
    liouvillian_matrix,
    spectral_gap,
    spectral_gap_converged,
    steady_state,
    three_level_evolve,
    three_level_occupation,
    three_level_steady,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    IntegratorError,
    PdclabError,
    ResidualError,
    SeriesConvergenceError,
    StabilityError,
    SteadyStateDegenerateError,
    TruncationError,
)
from .hilbert import (
    DensityMatrix,
    FockSpace,
    Operator,
    StateVector,
    TensorSpace,
    annihilation,
    coherent_state,
    density_from_state,
    embed,
    expectation,
    fock_state,
    identity_operator,
    number_operator,
    tensor_state,
    top_level_population,
)
from .meanfield import (
    FluctuationMoments,
    MeanFieldSolution,
    StabilityReport,
    build_W,
    delta2_g_normal,
    fluct_moments_analytic,
    fluct_moments_lyapunov,
    mean_field_residual,
    steady_solutions,
)
from .metrology import (
    GaussianDerivatives,
    GaussianMoments,
    MeasurementRecord,
    QfiResult,
    error_propagation,
    gaussian_moments,
    homodyne_stats,
    photon_stats,
    qfi_gaussian,
    qfi_gaussian_family,
    qfi_pure,
    qfi_spectral,
)

__version__ = "0.1.0"
