"""Tests for JSON run-configuration loading and the effective-config echo."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from omnidyn.config import ConfigError, RunConfig, load_run_config


def test_defaults_without_file():
    cfg = load_run_config(None)
    assert isinstance(cfg, RunConfig)
    assert cfg.vehicle.m == 4.0
    assert cfg.n_dirs == 2000


def test_partial_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "vehicle": {"m": 3.5, "g": 9.8, "J_diag": [0.1, 0.1, 0.2]},
        "gains": {"k_p": 100.0},
        "singularity": {"phi_t_deg": 12.0},
        "n_dirs": 64,
    }))
    cfg = load_run_config(path)
    assert cfg.vehicle.m == 3.5
    assert cfg.vehicle.g_mag == 9.8
    assert_allclose(np.diag(cfg.vehicle.J_b), [0.1, 0.1, 0.2])
    assert cfg.gains.k_p == 100.0
    assert cfg.gains.k_v == 50.6  # untouched default
    assert_allclose(np.rad2deg(cfg.singularity.phi_t), 12.0)
    assert cfg.n_dirs == 64


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"vehicle": {"mass": 3.5}}))
    with pytest.raises(ConfigError, match="mass"):
        load_run_config(path)
    path.write_text(json.dumps({"nonsense": {}}))
    with pytest.raises(ConfigError, match="nonsense"):
        load_run_config(path)


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"vehicle": {"m": -2.0}}))
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_scalar_keys_take_numbers_not_strings_or_booleans(tmp_path):
    path = tmp_path / "cfg.json"
    for block in ({"vehicle": {"m": "4.5"}}, {"vehicle": {"l_x": True}}, {"gains": {"k_p": " 600 "}},
                  {"singularity": {"c_t_deg": True}}, {"sim": {"dt_control": "0.005"}}):
        path.write_text(json.dumps(block))
        with pytest.raises(ConfigError, match="must be a real number"):
            load_run_config(path)
    path.write_text(json.dumps({"vehicle": {"m": 5}, "singularity": {"phi_t_deg": 12}}))
    cfg = load_run_config(path)
    assert type(cfg.vehicle.m) is float and type(cfg.singularity.phi_t) is float


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "vehicle": {\n}')
    with pytest.raises(ConfigError, match="line"):
        load_run_config(path)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_run_config("/nonexistent/path.json")


def test_effective_dict_is_json_and_annotated():
    cfg = RunConfig()
    d = cfg.effective_dict()
    json.dumps(d)  # must be serializable as-is
    assert d["vehicle"]["m"] == 4.0
    assert d["singularity"]["phi_t_deg"] == 10.0
    assert d["singularity"]["c_t_deg"] == 10.0
    assert d["sources"]["gains"] == "assumed"
    assert d["sources"]["vehicle.c_f"] == "assumed"
    # no filesystem paths leak into the echo
    assert "out" not in d and "config" not in d


def test_effective_dict_round_trips_through_loader(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(cfg.effective_dict()))
    reloaded = load_run_config(path)
    assert reloaded.vehicle.m == cfg.vehicle.m
    assert reloaded.gains.k_p == cfg.gains.k_p
    assert_allclose(reloaded.singularity.phi_t, cfg.singularity.phi_t)
    assert reloaded.sim.dt_control == cfg.sim.dt_control
    assert reloaded.n_dirs == cfg.n_dirs
    assert reloaded.effective_dict() == cfg.effective_dict()


# Every key of every block, each set away from its default. Listed by hand,
# not from config.BLOCKS, so that a dropped or mis-mapped schema row fails.
ALL_KEYS = {
    "vehicle": {"m": 3.5, "J_diag": [0.07, 0.09, 0.15], "x_com": [0.004, -0.002, 0.001], "l_x": 0.25,
                "c_f": 1.2e-5, "c_d": 0.02, "Omega_max": 9e5, "alpha_dot_max": 5.0, "g": 9.8},
    "gains": {"k_p": 500.0, "k_v": 45.0, "k_R": 1000.0, "k_omega": 60.0},
    "singularity": {"phi_0_deg": 4.0, "phi_d_deg": 20.0, "phi_t_deg": 12.0, "c_t_deg": 8.0,
                    "omega_u": 6.0},
    "sim": {"dt_physics": 0.002, "dt_control": 0.004},
    "n_dirs": 64,
}


def test_every_key_reaches_its_field_and_its_echo(tmp_path):
    path = tmp_path / "all.json"
    path.write_text(json.dumps(ALL_KEYS))
    cfg = load_run_config(path)
    v, g, s = cfg.vehicle, cfg.gains, cfg.singularity
    assert (v.m, v.l_x, v.c_f, v.c_d, v.Omega_max, v.alpha_dot_max, v.g_mag) == (
        3.5, 0.25, 1.2e-5, 0.02, 9e5, 5.0, 9.8)
    assert np.array_equal(v.J_b, np.diag([0.07, 0.09, 0.15]))
    assert np.array_equal(v.x_com, [0.004, -0.002, 0.001])
    assert (g.k_p, g.k_v, g.k_R, g.k_omega) == (500.0, 45.0, 1000.0, 60.0)
    assert (s.phi_0, s.phi_d, s.phi_t, s.c_t) == tuple(np.deg2rad([4.0, 20.0, 12.0, 8.0]).tolist())
    assert s.omega_u == 6.0
    assert (cfg.sim.dt_physics, cfg.sim.dt_control) == (0.002, 0.004)
    assert cfg.n_dirs == 64

    echo = cfg.effective_dict()
    assert echo["n_dirs"] == 64
    for block in ("vehicle", "gains", "singularity", "sim"):
        assert set(echo[block]) == set(ALL_KEYS[block])
        for key, value in ALL_KEYS[block].items():
            # Degrees go through radians and back: equal to rounding.
            assert_allclose(echo[block][key], value, rtol=1e-15, atol=0, err_msg=f"{block}.{key}")
    path.write_text(json.dumps(echo))
    assert load_run_config(path).effective_dict() == echo


@pytest.mark.parametrize("content", [b'{"n_dirs": 1' + b"0" * 5000 + b"}", b'{"vehicle": {"m": 4.0}}\xff'])
def test_undecodable_file_is_config_error(tmp_path, content):
    """An integer of more than 4300 digits and bytes that are not UTF-8 raised
    ValueError past the JSON error handling."""
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(path)
