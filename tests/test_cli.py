"""End-to-end tests of the omnidyn command-line interface."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from omnidyn import cli, simulation
from omnidyn.config import MAX_DIRECTIONS, RunConfig
from omnidyn.simulation import log_column_names
from omnidyn.vehicle import DIVERGED

CLI = [sys.executable, "-m", "omnidyn.cli"]


def run_cli(*args, **kw):
    return subprocess.run([*CLI, *map(str, args)], capture_output=True, text=True, **kw)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_console_script_installed():
    assert shutil.which("omnidyn") is not None
    out = subprocess.run(["omnidyn", "envelope", "--n-dirs", "6", "--out", "/tmp/omnidyn_script_check"],
                         capture_output=True, text=True)
    assert out.returncode == 0


def test_no_arguments_is_usage_error():
    assert run_cli().returncode == 1


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate").returncode == 1


def test_simulate_requires_experiment(tmp_path):
    out = run_cli("simulate", "--out", tmp_path)
    assert out.returncode == 1


def test_unknown_experiment_writes_nothing(tmp_path):
    out = run_cli("simulate", "--experiment", "wat", "--out", tmp_path)
    assert out.returncode == 1
    assert list(tmp_path.iterdir()) == []


def test_unknown_experiment_is_found_before_the_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out = run_cli("simulate", "--experiment", "wat", "--config", cfg, "--out", tmp_path / "out")
    assert out.returncode == 1
    assert "invalid choice" in out.stderr and "config error" not in out.stderr


def test_bad_config_is_config_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out = run_cli("envelope", "--config", cfg, "--out", tmp_path, "--n-dirs", 4)
    assert out.returncode == 2
    assert "line" in out.stderr


@pytest.mark.parametrize("text", [
    '{"vehicle": {"m": NaN}}',
    '{"vehicle": {"c_f": Infinity}}',
    '{"vehicle": {"x_com": [0, 0.1]}}',
    '{"vehicle": {"g": -9.81}}',
    '{"vehicle": {"m": "heavy"}}',
    '{"gains": {"k_p": NaN}}',
    '{"singularity": {"phi_t_deg": NaN}}',
    '{"sim": {"dt_control": Infinity}}',
    '{"n_dirs": -5}',
    '{"n_dirs": 0}',
    '{"n_dirs": Infinity}',
    '{"n_dirs": 2.7}',
    '{"vehicle": {"c_d": 1e300}}',                  # allocation matrix rank deficient
    '{"vehicle": {"c_f": 1e-320}}',                 # pseudo-inverse overflows
    '{"vehicle": {"c_f": 1e10, "l_x": 1e300}}',     # allocation matrix overflows
    '{"vehicle": {"m": 1e-320}}',                   # subnormal: m * g underflows
    '{"vehicle": {"J_diag": [1e-320, 0.08, 0.14]}}',  # subnormal principal inertia
    '{"vehicle": {"g": 5e-324}}',                   # subnormal: 1e-6 m g underflows to 0
    '{"vehicle": {"m": 1e300}}',                    # (m g)^2 overflows the force norm
    '{"vehicle": {"c_f": 2.2e-308}}',               # subnormal: rotor-pair sums overflow
    '{"vehicle": {"c_f": 2.2250738585072014e-308}}',  # smallest normal: A^+ w of the weight overflows
    '{"vehicle": {"m": 1e300, "g": 1e10}}',         # m * g overflows
    '{"vehicle": {"m": 1e-200, "g": 1e-200}}',      # m * g underflows
    '{"vehicle": {"Omega_max": 5e-324}}',           # hover thrust c_f * Omega_max underflows
    '{"vehicle": {"c_f": 1e300, "m": 1e-300}}',     # hover speed m g / (12 c_f) underflows
    '{"vehicle": [["m", 3.5]]}',                    # blocks must be objects, not pair lists
    '{"gains": []}',
    '{"sim": [["dt_control", 0.01]]}',
])
def test_non_finite_or_misshaped_config_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["envelope", "--config", str(cfg), "--out", str(out), "--n-dirs", "4"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize("block", [
    {"vehicle": {"m": "4.5", "l_x": True}, "gains": {"k_p": " 600 "}},
    {"vehicle": {"m": "4.5"}},
    {"vehicle": {"l_x": True}},
    {"gains": {"k_p": " 600 "}},
    {"singularity": {"phi_0_deg": False}},
    {"sim": {"dt_physics": None}},
    {"vehicle": {"g": [9.81]}},
])
def test_strings_booleans_and_non_numbers_are_config_errors(tmp_path, capsys, block):
    """A scalar key takes a JSON number: "4.5", true and " 600 " were once
    read as 4.5, 1.0 and 600.0."""
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(block))
    out = tmp_path / "out"
    assert cli.main(["envelope", "--config", str(cfg), "--out", str(out), "--n-dirs", "4"]) == 2
    assert "must be a real number" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize("block, key", [
    ({"vehicle": {"m": "4.5"}}, "vehicle.m"),
    ({"singularity": {"phi_0_deg": "4"}}, "singularity.phi_0_deg"),
    ({"gains": {"k_p": [1]}}, "gains.k_p"),
])
def test_a_value_of_the_wrong_type_names_its_key(tmp_path, capsys, block, key):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(block))
    out = tmp_path / "out"
    assert cli.main(["envelope", "--config", str(cfg), "--out", str(out), "--n-dirs", "4"]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "must be a real number" in err
    assert not (out / "effective_config.json").exists()


@pytest.mark.parametrize("block, names", [
    ({"vehicle": {"J_diag": [1, 2]}}, ["'vehicle.J_diag'", "3 entries"]),
    ({"vehicle": {"x_com": [[0.0, 0.0, 0.0]]}}, ["'vehicle.x_com'", "3 entries"]),
    ({"singularity": {"phi_0_deg": 90}}, ["'singularity'", "(phi_0_deg)", "phi_0 < phi_d"]),
    ({"vehicle": {"m": 4.0, "c_f": 0}}, ["'vehicle'", "(m, c_f)", "c_f must be positive"]),
])
def test_a_rule_error_names_the_keys_given(tmp_path, capsys, block, names):
    """The dataclass rules name fields (J_b, phi_0); the config error names
    the JSON key of a misshaped vector and the keys given in a block that
    breaks a rule."""
    cfg = tmp_path / "rule.json"
    cfg.write_text(json.dumps(block))
    out = tmp_path / "out"
    assert cli.main(["envelope", "--config", str(cfg), "--out", str(out), "--n-dirs", "4"]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not (out / "effective_config.json").exists()


def test_n_dirs_flag_overrides_the_config_and_the_echo_keeps_the_config(tmp_path):
    cfg = tmp_path / "dirs.json"
    cfg.write_text(json.dumps({"n_dirs": 6}))
    for command in (["envelope"], ["condmap"], ["condmap", "--biased"], ["efficiency"]):
        for flag, rows in (([], 6), (["--n-dirs", "4"], 4)):
            out = tmp_path / "-".join(command + flag)
            assert cli.main([*command, "--config", str(cfg), "--out", str(out), *flag]) == 0
            for path in out.glob("*.csv"):
                assert read_csv(path)[1].shape[0] == rows
            assert json.loads((out / "effective_config.json").read_text())["n_dirs"] == 6


@pytest.mark.parametrize("n_dirs", ["0", "-5"])
def test_n_dirs_below_one_is_usage_error(tmp_path, capsys, n_dirs):
    assert cli.main(["envelope", "--n-dirs", n_dirs, "--out", str(tmp_path)]) == 1
    assert "--n-dirs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def no_sweeps(monkeypatch):
    """Fail any sweep that starts: a refused direction count builds no array."""
    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    for name in ("force_envelope", "torque_envelope", "condition_map", "hover_sweep"):
        monkeypatch.setattr(cli, name, never)


@pytest.mark.parametrize("n_dirs", [10**30, MAX_DIRECTIONS + 1])
def test_n_dirs_above_the_cap_is_usage_error(tmp_path, capsys, no_sweeps, n_dirs):
    """10**30 directions died in fibonacci_sphere with an uncaught ValueError."""
    assert cli.main(["envelope", "--n-dirs", str(n_dirs), "--out", str(tmp_path)]) == 1
    assert f"between 1 and {MAX_DIRECTIONS}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n_dirs", [10**30, MAX_DIRECTIONS + 1])
def test_config_n_dirs_above_the_cap_is_config_error(tmp_path, capsys, no_sweeps, n_dirs):
    cfg = tmp_path / "many.json"
    cfg.write_text(json.dumps({"n_dirs": n_dirs}))
    out = tmp_path / "out"
    assert cli.main(["efficiency", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"n_dirs must be between 1 and {MAX_DIRECTIONS}" in capsys.readouterr().err
    assert not out.exists()


def test_the_direction_cap_itself_is_accepted():
    assert cli._direction_count(str(MAX_DIRECTIONS)) == MAX_DIRECTIONS
    assert RunConfig(n_dirs=MAX_DIRECTIONS).n_dirs == MAX_DIRECTIONS


def test_linear_algebra_failure_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "condition_map", singular)
    assert cli.main(["condmap", "--n-dirs", "4", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "effective_config.json").exists()


def test_diverged_run_keeps_its_partial_log(tmp_path, capsys, monkeypatch):
    step = simulation.integrate_step
    ticks = []

    def diverge_in_tick_1(*args, **kwargs):
        ticks.append(None)
        if len(ticks) == 2:
            raise RuntimeError(DIVERGED)
        return step(*args, **kwargs)

    monkeypatch.setattr(simulation, "integrate_step", diverge_in_tick_1)
    assert cli.main(["simulate", "--experiment", "hover", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    # The exit-3 line names the tick whose physics steps diverged and its time.
    assert "control tick 1 (t = 0.005 s)" in err
    assert [p.name for p in tmp_path.iterdir()] == ["hover_log.csv"]
    header, rows = read_csv(tmp_path / "hover_log.csv")
    assert header == log_column_names()
    assert rows.shape[0] == 2


def test_non_finite_summary_is_numerical_failure(tmp_path, capsys):
    # A tiny normal mass passes validation; the position error then
    # overflows the summary norms while every state stays finite.
    cfg = tmp_path / "light.json"
    cfg.write_text('{"vehicle": {"m": 1e-300}}')
    out = tmp_path / "out"
    assert cli.main(["simulate", "--experiment", "flip", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["flip_log.csv"]


@pytest.mark.parametrize("sim", [{"dt_physics": 1e-300}, {"dt_physics": 1e-300, "dt_control": 1e-300},
                                 {"dt_physics": 9.9e-7, "dt_control": 9.9e-7}])
def test_time_step_below_floor_is_config_error(tmp_path, capsys, sim):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"sim": sim}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--experiment", "hover", "--config", str(cfg), "--out", str(out)]) == 2
    assert "time steps must be at least 1e-06 s" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("vehicle", [{"m": 1e300}, {"c_f": 2.2e-308}, {"c_f": 2.2250738585072014e-308}])
def test_extreme_vehicles_exit_2_without_a_warning(tmp_path, vehicle):
    """Run with numpy warnings as errors, these vehicles used to end in a
    traceback (overflow in the force norm, overflow in the rotor-pair sums,
    overflow in A^+ w and in the tilt extraction)."""
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps({"vehicle": vehicle}))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "omnidyn.cli", "simulate",
                          "--experiment", "hover", "--config", str(cfg), "--out", str(tmp_path / "out")],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "config error" in out.stderr and "Warning" not in out.stderr


def test_smallest_normal_thrust_coefficient_is_config_error_for_efficiency(tmp_path, capsys):
    """c_f of 2.2250738585072014e-308 passed validation, and `efficiency`
    then raised an uncaught ValueError (zero total thrust). `simulate` with
    it is in test_extreme_vehicles_exit_2_without_a_warning."""
    cfg = tmp_path / "tiny_c_f.json"
    cfg.write_text('{"vehicle": {"c_f": 2.2250738585072014e-308}}')
    out = tmp_path / "out"
    assert cli.main(["efficiency", "--n-dirs", "20", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("vehicle", [{"Omega_max": 5e-324}, {"c_f": 1e300, "m": 1e-300}])
@pytest.mark.parametrize("args", [("efficiency", "--n-dirs", "20"), ("envelope", "--n-dirs", "20"),
                                  ("simulate", "--experiment", "hover")])
def test_vehicles_whose_hover_thrust_underflows_are_config_errors(tmp_path, capsys, vehicle, args):
    """These vehicles passed validation: `efficiency` then raised an uncaught
    ValueError (zero total thrust), and `envelope` and `simulate` exited 0."""
    cfg = tmp_path / "underflow.json"
    cfg.write_text(json.dumps({"vehicle": vehicle}))
    out = tmp_path / "out"
    assert cli.main([*args, "--config", str(cfg), "--out", str(out)]) == 2
    assert "hover thrust per rotor" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("args", [("efficiency", "--n-dirs", "20"), ("envelope", "--n-dirs", "20"),
                                  ("simulate", "--experiment", "hover")])
def test_vehicle_whose_full_thrust_cannot_carry_its_weight_is_config_error(tmp_path, capsys, args):
    """12 c_f Omega_max of 1.2e-304 N against a weight of 0.981 N: `simulate`
    fell for 5.8 s and exited 3, and `efficiency` and `envelope` exited 0."""
    cfg = tmp_path / "weak.json"
    cfg.write_text(json.dumps({"vehicle": {"c_f": 1e-305, "m": 0.1}}))
    out = tmp_path / "out"
    assert cli.main([*args, "--config", str(cfg), "--out", str(out)]) == 2
    assert "cannot carry the weight" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_tilt_step_limit_that_overflows_is_config_error(tmp_path, capsys):
    """alpha_dot_max * dt_control of 3e308 let the unwinding of a damped arm
    reach the rotor projection as an infinite tilt angle (math.sin raised,
    exit 1); the run is refused before its first tick."""
    cfg = tmp_path / "fast_tilt.json"
    cfg.write_text(json.dumps({"vehicle": {"alpha_dot_max": 1e308},
                               "singularity": {"omega_u": 1e308, "phi_0_deg": 5.0, "phi_d_deg": 89.0},
                               "sim": {"dt_physics": 3.0, "dt_control": 3.0}}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--experiment", "translation", "--config", str(cfg), "--out", str(out)]) == 2
    assert "alpha_dot_max * dt_control overflows" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_overflowing_wrench_exits_3_with_a_finite_partial_log(tmp_path, capsys):
    """The largest float as k_p overflows A^+ w of the commanded wrench in
    tick 2 of hover. The allocation's finiteness rule stops the run there:
    exit 3, the message names the tick, and the log holds the two completed
    rows, all finite."""
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps({"gains": {"k_p": 1.7976931348623157e308}}))
    out = tmp_path / "out"
    status = cli.main(["simulate", "--experiment", "hover", "--config", str(cfg), "--out", str(out)])
    assert status == 3
    err = capsys.readouterr().err
    assert "numerical failure: allocation is not finite" in err
    assert "control tick 2 (t = 0.01 s)" in err
    assert [p.name for p in out.iterdir()] == ["hover_log.csv"]
    header, rows = read_csv(out / "hover_log.csv")
    assert header == log_column_names()
    assert rows.shape[0] == 2 and np.all(np.isfinite(rows))


def test_overflowing_wrench_exits_3_without_a_warning(tmp_path):
    """numpy warned "overflow encountered in dot" (the force norm) and "in
    matmul" (A^+ w) before the allocation's finiteness rule stopped the run."""
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps({"gains": {"k_p": 1.7976931348623157e308}}))
    out = subprocess.run([*CLI, "simulate", "--experiment", "hover", "--config", str(cfg),
                          "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert out.returncode == 3, out.stderr
    assert "numerical failure" in out.stderr and "Warning" not in out.stderr


def test_log_over_the_row_cap_is_config_error(tmp_path, capsys, monkeypatch):
    """1 us time steps on the 16 s cartwheel would log 16 000 001 rows (9.1 GB);
    the run exits 2 before the allocation pipeline is even built."""
    def never(*args, **kwargs):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(simulation, "Allocator", never)
    cfg = tmp_path / "fine.json"
    cfg.write_text(json.dumps({"sim": {"dt_physics": 1e-6, "dt_control": 1e-6}}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--experiment", "cartwheel", "--config", str(cfg), "--out", str(out)]) == 2
    assert "16000001 rows" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_missing_config_file_is_config_error(tmp_path):
    out = run_cli("envelope", "--config", tmp_path / "nope.json", "--out", tmp_path)
    assert out.returncode == 2


def test_envelope_outputs(tmp_path):
    out = run_cli("envelope", "--n-dirs", 40, "--out", tmp_path)
    assert out.returncode == 0
    for fname in ("force_envelope.csv", "torque_envelope.csv"):
        header, rows = read_csv(tmp_path / fname)
        assert header == ["dx", "dy", "dz", "radius"]
        assert rows.shape == (40, 4)
        assert np.all(rows[:, 3] > 0.0)
    _, rows = read_csv(tmp_path / "force_envelope.csv")
    z_row = rows[np.all(np.isclose(rows[:, :3], [0, 0, 1]), axis=1)][0]
    assert np.isclose(z_row[3], 120.0, rtol=1e-9)
    assert (tmp_path / "effective_config.json").exists()


def test_condmap_outputs_and_sentinels(tmp_path):
    out = run_cli("condmap", "--n-dirs", 30, "--out", tmp_path)
    assert out.returncode == 0
    path = tmp_path / "condmap_unbiased.csv"
    text = path.read_text()
    assert "inf" in text
    header, rows = read_csv(path)
    assert header == ["dx", "dy", "dz", "log10_cond"]
    assert rows.shape == (30, 4)
    assert np.isinf(rows[0, 3])  # +z row

    out = run_cli("condmap", "--n-dirs", 30, "--biased", "--out", tmp_path)
    assert out.returncode == 0
    text = (tmp_path / "condmap_biased.csv").read_text()
    assert "inf" not in text


def test_efficiency_outputs(tmp_path):
    out = run_cli("efficiency", "--n-dirs", 20, "--out", tmp_path)
    assert out.returncode == 0
    header, rows = read_csv(tmp_path / "efficiency.csv")
    assert header == ["dx", "dy", "dz", "eta_P", "eta_f", "total_power"]
    assert rows.shape == (20, 6)
    assert np.isclose(rows[0, 4], 1.0)  # +z row eta_f
    assert np.all(rows[:, 3:5] > 0.0) and np.all(rows[:, 3:5] <= 1.0)


def test_simulate_outputs(tmp_path):
    out = run_cli("simulate", "--experiment", "rotation", "--out", tmp_path)
    assert out.returncode == 0
    header, rows = read_csv(tmp_path / "rotation_log.csv")
    assert header[0] == "t"
    assert rows.shape[0] == 1201  # 6 s at 200 Hz, end-inclusive
    summary = json.loads((tmp_path / "rotation_summary.json").read_text())
    assert summary["max_pos_err_m"] < 0.05
    assert summary["max_att_err_deg"] < 4.0


def test_effective_config_echo_round_trip(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli("envelope", "--n-dirs", 24, "--out", first).returncode == 0
    echo = first / "effective_config.json"
    payload = json.loads(echo.read_text())
    assert payload["sources"]["gains"] == "assumed"
    assert run_cli("envelope", "--n-dirs", 24, "--config", echo, "--out", second).returncode == 0
    for fname in ("force_envelope.csv", "torque_envelope.csv"):
        assert (first / fname).read_bytes() == (second / fname).read_bytes()


def test_config_override_changes_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vehicle": {"Omega_max": 2.0e6}}))
    base = tmp_path / "base"
    strong = tmp_path / "strong"
    run_cli("envelope", "--n-dirs", 8, "--out", base)
    run_cli("envelope", "--n-dirs", 8, "--config", cfg, "--out", strong)
    _, rows_base = read_csv(base / "force_envelope.csv")
    _, rows_strong = read_csv(strong / "force_envelope.csv")
    assert np.allclose(rows_strong[:, 3], 2.0 * rows_base[:, 3])


@pytest.mark.parametrize("args", [
    ("envelope", "--n-dirs", 32),
    ("condmap", "--n-dirs", 24),
    ("condmap", "--n-dirs", 24, "--biased"),
    ("efficiency", "--n-dirs", 16),
])
def test_reruns_are_byte_identical(tmp_path, args):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(*args, "--out", a).returncode == 0
    assert run_cli(*args, "--out", b).returncode == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()
