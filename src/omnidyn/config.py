"""Run configuration: JSON loading, validation, and the effective-config echo.

The JSON schema mirrors the parameter dataclasses block by block; any
subset may be given and the rest falls back to defaults. Placeholder
values that are design choices rather than measured properties carry a
"source": "assumed" annotation in the echoed effective configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .controller import Gains
# ConfigError is defined next to SimConfig, so that simulate can raise it too.
from .simulation import ConfigError, SimConfig
from .singularity import SingularityParams
from .vehicle import VehicleParams


# Parameters that are plausible placeholders, not physically measured values.
ASSUMED_SOURCES = {
    "vehicle.J_diag": "assumed",
    "vehicle.x_com": "assumed",
    "vehicle.l_x": "assumed",
    "vehicle.c_f": "assumed",
    "vehicle.c_d": "assumed",
    "vehicle.Omega_max": "assumed",
    "vehicle.alpha_dot_max": "assumed",
    "gains": "assumed",
    "sim": "assumed",
}


@dataclass
class RunConfig:
    """All parameter blocks a command needs, plus sweep defaults."""

    vehicle: VehicleParams = field(default_factory=VehicleParams)
    gains: Gains = field(default_factory=Gains)
    singularity: SingularityParams = field(default_factory=SingularityParams)
    sim: SimConfig = field(default_factory=SimConfig)
    n_dirs: int = 2000

    def __post_init__(self):
        if self.n_dirs < 1:
            raise ValueError("n_dirs must be at least 1")

    def effective_dict(self):
        """JSON-serializable echo of every effective parameter."""
        v = self.vehicle
        return {
            "vehicle": {
                "m": v.m,
                "J_diag": list(np.diag(v.J_b)),
                "x_com": list(v.x_com),
                "l_x": v.l_x,
                "c_f": v.c_f,
                "c_d": v.c_d,
                "Omega_max": v.Omega_max,
                "alpha_dot_max": v.alpha_dot_max,
                "g": v.g_mag,
            },
            "gains": {
                "k_p": self.gains.k_p,
                "k_v": self.gains.k_v,
                "k_R": self.gains.k_R,
                "k_omega": self.gains.k_omega,
            },
            "singularity": {
                "phi_0_deg": float(np.rad2deg(self.singularity.phi_0)),
                "phi_d_deg": float(np.rad2deg(self.singularity.phi_d)),
                "phi_t_deg": float(np.rad2deg(self.singularity.phi_t)),
                "c_t_deg": float(np.rad2deg(self.singularity.c_t)),
                "omega_u": self.singularity.omega_u,
            },
            "sim": {
                "dt_physics": self.sim.dt_physics,
                "dt_control": self.sim.dt_control,
            },
            "n_dirs": self.n_dirs,
            "sources": dict(ASSUMED_SOURCES),
        }


def _check_keys(block_name, block, allowed):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{block_name}': {sorted(unknown)}")


def _block(raw, name, allowed):
    """A copy of the parameter block `name` ({} when absent), checked to be
    an object with known keys."""
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    _check_keys(name, block, allowed)
    return dict(block)


def _build(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level configuration must be a JSON object")
    _check_keys("<top level>", raw, {"vehicle", "gains", "singularity", "sim", "n_dirs", "sources"})

    v = _block(raw, "vehicle", {"m", "J_diag", "x_com", "l_x", "c_f", "c_d",
                                "Omega_max", "alpha_dot_max", "g"})
    vehicle_kwargs = {}
    if "J_diag" in v:
        vehicle_kwargs["J_b"] = np.diag(np.asarray(v.pop("J_diag"), dtype=float))
    if "g" in v:
        vehicle_kwargs["g_mag"] = float(v.pop("g"))
    if "x_com" in v:
        vehicle_kwargs["x_com"] = np.asarray(v.pop("x_com"), dtype=float)
    vehicle_kwargs.update({k: float(val) for k, val in v.items()})

    g = _block(raw, "gains", {"k_p", "k_v", "k_R", "k_omega"})
    s = _block(raw, "singularity", {"phi_0_deg", "phi_d_deg", "phi_t_deg", "c_t_deg", "omega_u"})
    sing_kwargs = {}
    for deg_key, rad_key in (("phi_0_deg", "phi_0"), ("phi_d_deg", "phi_d"),
                             ("phi_t_deg", "phi_t"), ("c_t_deg", "c_t")):
        if deg_key in s:
            sing_kwargs[rad_key] = float(np.deg2rad(s[deg_key]))
    if "omega_u" in s:
        sing_kwargs["omega_u"] = float(s["omega_u"])

    sim = _block(raw, "sim", {"dt_physics", "dt_control"})

    n_dirs = raw.get("n_dirs", 2000)
    if isinstance(n_dirs, bool) or not isinstance(n_dirs, int):
        raise ConfigError(f"n_dirs must be an integer, got {n_dirs!r}")

    return RunConfig(
        vehicle=VehicleParams(**vehicle_kwargs),
        gains=Gains(**{k: float(val) for k, val in g.items()}),
        singularity=SingularityParams(**sing_kwargs),
        sim=SimConfig(**{k: float(val) for k, val in sim.items()}),
        n_dirs=n_dirs,
    )


def load_run_config(path=None) -> RunConfig:
    """Defaults when path is None, otherwise defaults overlaid with the file."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    # Conversions and dataclass checks anywhere in _build raise these.
    try:
        return _build(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid parameter value: {exc}") from exc
