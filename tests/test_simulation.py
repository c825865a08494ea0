"""Tests for the closed-loop simulation harness and its log format."""

import array_formulas
import numpy as np
import pytest
from numpy.testing import assert_allclose

from omnidyn.controller import Gains
from omnidyn import simulation
from omnidyn.simulation import (
    LOG_FIELDS,
    LOG_HEADER,
    MAX_LOG_ROWS,
    MIN_TIME_STEP,
    ConfigError,
    SimConfig,
    SimLog,
    SimulationDiverged,
    simulate,
    tracking_summary,
    write_csv,
)
from omnidyn.singularity import SingularityParams
from omnidyn.trajectories import make_hover, make_singular_translation, make_translation
from omnidyn.vehicle import RigidBodyState, VehicleParams


def run_short_hover(duration=1.0):
    p = VehicleParams()
    cfg = SimConfig(duration=duration)
    return simulate(make_hover(10.0), p, Gains(), SingularityParams(), cfg)


def test_sim_config_validates_rates():
    SimConfig(dt_physics=0.001, dt_control=0.005)
    with pytest.raises(ValueError):
        SimConfig(dt_physics=0.0, dt_control=0.005)
    with pytest.raises(ValueError):
        SimConfig(dt_physics=0.002, dt_control=0.005)  # not an integer multiple
    SimConfig(dt_physics=MIN_TIME_STEP, dt_control=5 * MIN_TIME_STEP)
    for tiny in (1e-300, 0.5 * MIN_TIME_STEP):
        with pytest.raises(ValueError, match="at least"):
            SimConfig(dt_physics=tiny, dt_control=0.005)
        with pytest.raises(ValueError, match="at least"):
            SimConfig(dt_physics=tiny, dt_control=tiny)


def test_log_layout_is_consistent():
    names = LOG_HEADER
    assert len(names) == sum(w for _, w in LOG_FIELDS)
    assert names[0] == "t"
    assert "eta_f" in names
    assert "alpha_cmd0" in names and "Omega_cmd11" in names
    assert len(set(names)) == len(names)


def test_simulate_row_count_and_time_grid():
    log = run_short_hover(duration=1.0)
    assert log.data.shape == (201, sum(w for _, w in LOG_FIELDS))
    t = log.column("t")
    assert_allclose(t, np.arange(201) * 0.005, atol=1e-12)
    assert np.all(np.isfinite(log.data))


def test_simulate_tracks_hover():
    log = run_short_hover(duration=2.0)
    pos_err = np.linalg.norm(log.column("e_p"), axis=1)
    assert pos_err.max() < 2e-3
    q = log.column("q")
    assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-9)
    # full-bias hover: the straight-up force keeps the bias handler active
    assert_allclose(log.column("k_t"), 1.0, atol=1e-12)


def test_simulate_starts_from_setpoint_by_default():
    log = run_short_hover(duration=0.5)
    assert_allclose(log.column("x")[0], 0.0, atol=1e-15)
    assert_allclose(log.column("v")[0], 0.0, atol=1e-15)
    assert_allclose(log.column("q")[0], [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_simulate_accepts_initial_state():
    # offset small enough that the commanded force stays inside the
    # envelope; larger offsets saturate the rotors and tumble
    p = VehicleParams()
    start = RigidBodyState(x=np.array([0.005, 0.0, 0.0]), v=np.zeros(3),
                           R=np.eye(3), omega_b=np.zeros(3))
    cfg = SimConfig(duration=0.5, initial_state=start)
    log = simulate(make_hover(), p, Gains(), SingularityParams(), cfg)
    assert_allclose(log.column("x")[0], [0.005, 0.0, 0.0])
    # the controller pulls the offset back toward the setpoint
    assert np.linalg.norm(log.column("x")[-1]) < 0.002


def test_simulate_is_deterministic():
    a = run_short_hover(duration=0.5)
    b = run_short_hover(duration=0.5)
    assert a.data.tobytes() == b.data.tobytes()


def test_simulate_diverged_carries_partial_log():
    p = VehicleParams()
    start = RigidBodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                           omega_b=np.array([1e200, 0.0, 0.0]))
    cfg = SimConfig(duration=1.0, initial_state=start)
    with np.errstate(all="ignore"):
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(make_hover(), p, Gains(), SingularityParams(), cfg)
    log = excinfo.value.log
    assert isinstance(log, SimLog)
    assert log.data.shape[0] >= 1
    k = log.data.shape[0] - 1
    assert f"in control tick {k} (t = {log.column('t')[-1]:.9g} s)" in str(excinfo.value)
    # the partial log still carries the pre-divergence plant state
    assert np.all(np.isfinite(log.column("x")))
    assert np.all(np.isfinite(log.column("q")))


def test_log_column_lookup():
    log = run_short_hover(duration=0.2)
    assert log.column("alpha_cmd").shape == (41, 6)
    assert log.column("Omega_cmd").shape == (41, 12)
    assert log.column("eta_f").ndim == 1
    with pytest.raises(KeyError):
        log.column("nope")


def test_log_csv_round_trips_floats(tmp_path):
    log = run_short_hover(duration=0.2)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert tuple(lines[0].split(",")) == LOG_HEADER
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert parsed.shape == log.data.shape
    assert np.array_equal(parsed, log.data)


def test_tracking_summary_consistent_with_log():
    p = VehicleParams()
    cfg = SimConfig(duration=2.0)
    log = simulate(make_translation(0.5, 2.0), p, Gains(), SingularityParams(), cfg)
    s = tracking_summary(log)
    pos_err = np.linalg.norm(log.column("e_p"), axis=1)
    assert_allclose(s.max_pos_err_m, pos_err.max())
    assert_allclose(s.rms_pos_err_m, np.sqrt(np.mean(pos_err**2)))
    assert s.max_att_err_deg >= 0.0
    assert 0.0 < s.min_eta_f <= 1.0
    assert 0.0 <= s.max_tilt_rate_rad_s <= p.alpha_dot_max + 1e-9
    d = s.as_dict()
    assert set(d) == {"max_pos_err_m", "rms_pos_err_m", "max_att_err_deg",
                      "rms_att_err_deg", "max_tilt_rate_rad_s", "min_eta_f"}


def test_tracking_summary_attitude_metric():
    """The quaternion-based attitude error reproduces a known rotation angle."""
    log = run_short_hover(duration=0.2)
    data = log.data.copy()
    names = LOG_HEADER
    theta = 0.2
    # overwrite the attitude columns with a fixed 0.2 rad roll offset
    qi = names.index("q0")
    data[:, qi:qi + 4] = [np.cos(theta / 2.0), np.sin(theta / 2.0), 0.0, 0.0]
    qsi = names.index("q_sp0")
    data[:, qsi:qsi + 4] = [1.0, 0.0, 0.0, 0.0]
    s = tracking_summary(SimLog(data=data, dt_control=log.dt_control))
    assert_allclose(s.max_att_err_deg, np.rad2deg(theta), rtol=1e-9)
    assert_allclose(s.rms_att_err_deg, np.rad2deg(theta), rtol=1e-9)


def test_tracking_summary_rejects_empty_log():
    with pytest.raises(ValueError):
        tracking_summary(SimLog(data=np.empty((0, 5)), dt_control=0.005))


def test_write_csv_keeps_the_bytes_of_the_row_by_row_writer(tmp_path):
    """The one-write CSV writer gives the file of the old row-by-row writer,
    on a closed-loop log and on signed zeros, NaN, inf, integers, subnormals
    and an empty table."""
    log = run_short_hover(duration=0.5)
    odd = np.array([[-0.0, 0.0, np.nan, np.inf], [-np.inf, 5e-324, 1e300, 0.1], [3.0, -2.0, 1.0 / 3.0, 1e-7]])
    tables = [(LOG_HEADER, log.data), (["a", "b", "c", "d"], odd),
              (["i", "j"], np.array([[1, -2], [0, 7]])), (["e"], np.empty((0, 1)))]
    for header, rows in tables:
        write_csv(tmp_path / "new.csv", header, rows)
        array_formulas.write_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_simulate_refuses_a_log_over_the_row_cap_before_any_set_up(monkeypatch):
    """A run whose log would pass MAX_LOG_ROWS, a tick count that overflows to
    inf included, is a ConfigError raised before the allocator, the first
    sample or the log exist; one row under the cap is accepted."""
    def never(*args, **kwargs):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(simulation, "Allocator", never)
    traj = make_hover(16.0)
    traj.sampler = never
    for cfg in (SimConfig(dt_physics=1e-6, dt_control=1e-6),
                SimConfig(duration=MAX_LOG_ROWS * 0.005, dt_control=0.005),
                SimConfig(duration=1e308, dt_physics=1e-6, dt_control=1e-6)):
        with pytest.raises(ConfigError, match="rows"):
            simulate(traj, VehicleParams(), Gains(), SingularityParams(), cfg)
    with pytest.raises(AssertionError, match="set-up ran"):
        simulate(traj, VehicleParams(), Gains(), SingularityParams(),
                 SimConfig(duration=(MAX_LOG_ROWS - 1) * 0.005, dt_control=0.005))


def test_numpy_scalar_parameters_give_the_bytes_of_python_floats():
    """A vehicle drawn with numpy (m and c_f of type np.float64, as the
    scatter benchmark draws them) runs on Python floats and logs the bytes of
    the same values given as floats; and so does the tick when numpy scalars
    are forced past the coercion, since + - * /, sqrt, sin, cos and ** 2.0
    give the same bits on both."""
    m, c_f = 4.0 * np.float64(1.03), 1.0e-5 * np.float64(0.97)
    as_floats = VehicleParams(m=float(m), c_f=float(c_f))
    as_numpy = VehicleParams(m=m, c_f=c_f)
    assert type(as_numpy.m) is float and type(as_numpy.c_f) is float
    forced = VehicleParams(m=float(m), c_f=float(c_f))
    object.__setattr__(forced, "m", m)
    object.__setattr__(forced, "c_f", c_f)
    handlers = SingularityParams()
    forced_handlers = SingularityParams()
    for name in ("phi_0", "phi_d", "phi_t", "c_t", "omega_u"):
        object.__setattr__(forced_handlers, name, np.float64(getattr(handlers, name)))

    def run(params, singularity):
        return simulate(make_singular_translation(params), params, Gains(), singularity,
                        SimConfig(duration=0.2)).data.tobytes()

    expected = run(as_floats, handlers)
    assert run(as_numpy, handlers) == expected
    assert run(forced, forced_handlers) == expected
