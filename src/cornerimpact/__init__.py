"""cornerimpact: over-damped penalty dynamics at a planar wedge corner.

A point mass approaches the corner of a convex wedge under a stiff penalty
force with super-critical normal damping.  The package provides the exact
linear-phase closed forms, an adaptive integrator for the scaled corner
passage, matched-asymptotic references with their error metrics, the
anelastic impact limit, and a harness that assembles full trajectories and
convergence/validation reports (also exposed as the ``cornerimpact`` CLI).
"""
from .asymptotics import (
    AsymptoticTimes,
    LyapunovData,
    asymptotic_times,
    critical_point,
    delta_bound,
    exit_equivalents,
    first_asymptotic_R1,
    first_asymptotic_Theta1,
    first_asymptotic_dR1,
    kernel_J,
    kernel_K,
    kernel_solutions_z,
    lyapunov_F,
    lyapunov_Q,
    obtuse_exponents,
    second_asymptotic_R2,
    trapping_threshold,
)
from .corner_phase import (
    CornerResult,
    OracleRun,
    integrate_corner,
    oracle_fast_time_integration,
    radial_rhs,
)
from .errors import (
    ConfigError,
    CornerImpactError,
    IntegrationFailure,
    InvalidInput,
    NoCrossing,
    NotOverDamped,
    NumericFailure,
    OutOfPhase,
    ScaleFreeRun,
    ScaleUnderflow,
    SingularRadius,
)
from .geometry import (
    ConeGeometry,
    damping_force_G,
    penalty_field,
    pi1,
    pi2,
    project_onto_cone,
    tangent_cone_project,
)
from .linear_phase import (
    DampingParams,
    InitialData,
    characteristic_roots,
    face_phase_state,
    first_crossing_time,
    kernel_K2_dot,
    kernels_K2_H2,
    r1_phase_state,
)
from .config import SimConfig, load_config, parse_config
from .harness import (
    Trajectory,
    asymptotic_report,
    convergence_study,
    phase_portrait,
    simulate_full,
    write_csv,
)
from .moreau import (
    LimitTrajectory,
    build_limit,
    limit_trajectory,
)
from .scaling import (
    ScaledParams,
    ScaledState,
    scaled_params_direct,
    scaled_params_from_physical,
    scaled_to_cartesian,
)

__version__ = "0.1.0"
# The corner kernel runs as plain Python.  The benchmark records this name
# with each result and will not compare results whose values differ.
BACKEND = "numpy"
