"""Closed-loop simulation driver with structured logging.

Each control tick evaluates the controller and the allocation pipeline,
holds the resulting actuator commands (zero-order hold), and advances
the plant through an integer number of physics steps. The wrench is one
float64 6-vector [F; tau] throughout: the controller's command goes to the
allocation and the log as it is, and the plant gets A(alpha) Omega. The
run is fully deterministic: no randomness, no wall-clock dependence. Each
tick logs one row of LOG_FIELDS, resolved once at import into LOG_COLUMNS
and LOG_HEADER.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .allocation import Allocator, build_A_alpha
from .controller import Gains, compute_errors, control_wrench
from .mathcore import rotation_to_quat, wrap_angle
from .singularity import SingularityParams
from .trajectories import Trajectory
from .vehicle import RigidBodyState, VehicleParams, integrate_step, store_floats


# Smallest accepted time step, s. Far below any control or physics rate;
# it keeps the number of physics steps and log rows of a run finite.
MIN_TIME_STEP = 1e-6
# Largest log simulate accepts, in rows (control ticks + 1): 1e6 rows of the
# LOG_FIELDS columns hold about 570 MB. The longest experiment at the
# default 200 Hz control rate logs 3201 rows.
MAX_LOG_ROWS = 1_000_000
# Rows that write_csv formats and writes at a time.
CSV_BLOCK_ROWS = 64


class ConfigError(Exception):
    """Invalid or unreadable run configuration (the CLI exits 2).

    Raised by the loader in omnidyn.config, and by simulate for a run whose
    log would pass MAX_LOG_ROWS.
    """


@dataclass(frozen=True)
class SimConfig:
    """Loop rates and optional overrides for a simulation run.

    Both time steps must be at least MIN_TIME_STEP, and dt_control an
    integer multiple of dt_physics. The time steps and a given duration are
    stored as Python floats (see vehicle.store_floats); the block is frozen, so
    no assignment after construction can skip that or the checks.
    """

    dt_physics: float = 0.001
    dt_control: float = 0.005
    duration: float | None = None
    initial_state: RigidBodyState | None = None

    def __post_init__(self):
        store_floats(self, ("dt_physics", "dt_control"), "time steps must be finite")
        if self.duration is not None:
            store_floats(self, ("duration",), "duration must be finite and nonnegative")
            if self.duration < 0.0:
                raise ValueError("duration must be finite and nonnegative")
        if self.dt_physics < MIN_TIME_STEP or self.dt_control < MIN_TIME_STEP:
            raise ValueError(f"time steps must be at least {MIN_TIME_STEP} s")
        ratio = self.dt_control / self.dt_physics
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("dt_control must be an integer multiple of dt_physics")


# Flat log column layout: (name, width) in order.
LOG_FIELDS = (
    ("t", 1),
    ("x", 3), ("v", 3), ("q", 4), ("omega", 3),
    ("x_sp", 3), ("v_sp", 3), ("q_sp", 4), ("omega_sp", 3),
    ("e_p", 3), ("e_v", 3), ("e_R", 3), ("e_omega", 3),
    ("F_cmd", 3), ("tau_cmd", 3),
    ("alpha_cmd", 6), ("Omega_cmd", 12),
    ("eta_f", 1), ("k_t", 1), ("k_alpha", 6),
)


def _resolve_log_layout():
    """LOG_FIELDS as ({name: column index, or slice for width > 1}, CSV header)."""
    columns, header, offset = {}, [], 0
    for name, width in LOG_FIELDS:
        columns[name] = offset if width == 1 else slice(offset, offset + width)
        header.extend([name] if width == 1 else [f"{name}{k}" for k in range(width)])
        offset += width
    return columns, tuple(header)


LOG_COLUMNS, LOG_HEADER = _resolve_log_layout()


def write_csv(path, header, rows):
    """Header line, then one line per row of shortest round-trip floats.

    Each block of CSV_BLOCK_ROWS rows goes through ndarray.tolist, so every
    value is a Python float whose repr is its shortest round-trip form, and
    is written with one call. Formatting the whole table at once held about
    18 MB more for the cartwheel log; a block holds about 0.1 MB.
    """
    rows = np.asarray(rows, dtype=float)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS].tolist()
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in block]))


@dataclass
class SimLog:
    """Row-per-control-tick time series of a simulation run."""

    data: np.ndarray  # shape (n_rows, n_columns) per LOG_FIELDS
    dt_control: float

    def column(self, name):
        """All rows of one named field, 1-D for scalar fields."""
        return self.data[:, LOG_COLUMNS[name]]

    def to_csv(self, path):
        write_csv(path, LOG_HEADER, self.data)


class SimulationDiverged(RuntimeError):
    """Raised when the plant state stops being finite, or a tick's wrench has
    no finite allocation; carries the partial log of every completed row.

    simulate's message names the control tick that diverged and its time.
    """

    def __init__(self, message, log: SimLog):
        super().__init__(message)
        self.log = log


def simulate(trajectory: Trajectory, params: VehicleParams, gains: Gains,
             sing_params: SingularityParams | None = None,
             config: SimConfig | None = None) -> SimLog:
    """Run the controller/allocation/plant loop over a trajectory.

    Raises ConfigError, before the first tick, when the log would have more
    than MAX_LOG_ROWS rows, or when the tilt step limit alpha_dot_max *
    dt_control overflows: a finite limit keeps every tilt command finite.
    """
    config = config or SimConfig()
    duration = config.duration if config.duration is not None else trajectory.duration
    ticks = duration / config.dt_control
    # Capped before round, which raises OverflowError on a tick count of inf.
    n_ticks = round(min(ticks, MAX_LOG_ROWS))
    if n_ticks + 1 > MAX_LOG_ROWS:
        raise ConfigError(f"a run of {duration:g} s at dt_control {config.dt_control:g} s logs "
                          f"{ticks + 1:.0f} rows, more than the {MAX_LOG_ROWS} allowed")
    if not math.isfinite(params.alpha_dot_max * config.dt_control):
        raise ConfigError(f"the tilt step limit alpha_dot_max * dt_control overflows "
                          f"({params.alpha_dot_max:g} rad/s at {config.dt_control:g} s)")
    steps_per_tick = int(round(config.dt_control / config.dt_physics))

    allocator = Allocator(params, sing_params)
    sp0 = trajectory.sampler(0.0)
    if config.initial_state is not None:
        state = config.initial_state
    else:
        state = RigidBodyState(x=sp0.x_sp.copy(), v=sp0.v_sp.copy(),
                               R=sp0.R_sp.copy(), omega_b=sp0.omega_sp.copy())
    alpha = np.zeros(6)

    rows = np.empty((n_ticks + 1, len(LOG_HEADER)))

    def diverged(exc, n_rows):
        partial = SimLog(data=rows[:n_rows].copy(), dt_control=config.dt_control)
        return SimulationDiverged(f"{exc} in control tick {k} (t = {t:.9g} s)", partial)

    for k in range(n_ticks + 1):
        t = k * config.dt_control
        sp = trajectory.sampler(t)
        errors = compute_errors(state, sp)
        wrench_des = control_wrench(errors, state, sp, gains, params)
        try:
            cmd = allocator.allocate(wrench_des, alpha, config.dt_control)
        except FloatingPointError as exc:
            raise diverged(exc, k) from exc
        alpha = cmd.alpha_cmd

        A_alpha = build_A_alpha(params, alpha)
        realized = A_alpha @ cmd.Omega_cmd
        thrusts = params.c_f * cmd.Omega_cmd
        thrust_sum = float(thrusts.sum())
        F = realized[:3]
        # math.sqrt(F.dot(F)) is np.linalg.norm(F), without its dispatch.
        eta_f = math.sqrt(F.dot(F)) / thrust_sum if thrust_sum > 0.0 else 0.0

        # One flat list of Python floats, in LOG_FIELDS order.
        rows[k] = [
            t, *state.x.tolist(), *state.v.tolist(), *rotation_to_quat(state.R).tolist(),
            *state.omega_b.tolist(),
            *sp.x_sp.tolist(), *sp.v_sp.tolist(), *rotation_to_quat(sp.R_sp).tolist(),
            *sp.omega_sp.tolist(),
            *errors.e_p.tolist(), *errors.e_v.tolist(), *errors.e_R.tolist(), *errors.e_omega.tolist(),
            *wrench_des.tolist(), *cmd.alpha_cmd.tolist(), *cmd.Omega_cmd.tolist(),
            eta_f, cmd.k_t, *cmd.k_alpha.tolist(),
        ]

        if k == n_ticks:
            break
        try:
            state = integrate_step(state, realized, config.dt_physics, params, steps_per_tick)
        except RuntimeError as exc:
            raise diverged(exc, k + 1) from exc

    return SimLog(data=rows, dt_control=config.dt_control)


@dataclass
class TrackingSummary:
    max_pos_err_m: float
    rms_pos_err_m: float
    max_att_err_deg: float
    rms_att_err_deg: float
    max_tilt_rate_rad_s: float
    min_eta_f: float

    def as_dict(self):
        return asdict(self)


def tracking_summary(log: SimLog) -> TrackingSummary:
    """Aggregate tracking errors, tilt rates, and forced-efficiency floor."""
    if log.data.shape[0] == 0:
        raise ValueError("empty log")
    pos_err = np.linalg.norm(log.column("e_p"), axis=1)

    q = log.column("q")
    q_sp = log.column("q_sp")
    dots = np.clip(np.abs(np.sum(q * q_sp, axis=1)), 0.0, 1.0)
    att_err = 2.0 * np.arccos(dots)

    alpha = log.column("alpha_cmd")
    if alpha.shape[0] > 1:
        steps = wrap_angle(np.diff(alpha, axis=0))
        max_tilt_rate = float(np.max(np.abs(steps)) / log.dt_control)
    else:
        max_tilt_rate = 0.0

    return TrackingSummary(
        max_pos_err_m=float(np.max(pos_err)),
        rms_pos_err_m=float(np.sqrt(np.mean(pos_err**2))),
        max_att_err_deg=float(np.rad2deg(np.max(att_err))),
        rms_att_err_deg=float(np.rad2deg(np.sqrt(np.mean(att_err**2)))),
        max_tilt_rate_rad_s=max_tilt_rate,
        min_eta_f=float(np.min(log.column("eta_f"))),
    )
