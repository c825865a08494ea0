"""Control allocation, singularity handling, and closed-loop simulation
for a 12-rotor, six-tilt-arm omnidirectional multirotor."""

from .allocation import (
    ActuatorCommand,
    Allocator,
    build_A_alpha,
    extract_rotor_speeds,
    extract_tilt_angles,
)
from .analysis import (
    condition_map,
    force_envelope,
    hover_sweep,
    power_efficiency,
    torque_envelope,
    wasted_force_index,
)
from .config import ConfigError, RunConfig, load_run_config
from .controller import ControlErrors, Gains, TrajectorySetpoint, compute_errors, control_wrench
from .simulation import SimConfig, SimLog, SimulationDiverged, TrackingSummary, simulate, tracking_summary
from .singularity import (
    SingularityParams,
    apply_damping_and_unwind,
    apply_tilt_bias,
    arm_alignment,
    damping_multiplier,
    derivative_allocation,
    tilt_bias_multiplier,
    z_misalignment,
)
from .trajectories import (
    Trajectory,
    make_cartwheel,
    make_flip,
    make_hover,
    make_rotation,
    make_singular_translation,
    make_translation,
    quintic_blend,
)
from .vehicle import (
    RigidBodyState,
    VehicleParams,
    Wrench,
    integrate_step,
    rigid_body_derivative,
    rotor_columns,
)

__version__ = "0.1.0"
