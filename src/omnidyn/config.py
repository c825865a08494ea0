"""Run configuration: JSON loading, validation, and the effective-config echo.

BLOCKS is the schema. Each parameter block names its dataclass and has one
row per JSON key: (key, dataclass field, load conversion, echo conversion).
The allowed keys, the loading and the echo all read it, and the defaults
live in the dataclasses and RunConfig alone. Any subset of keys may be
given and the rest falls back to the defaults. Placeholder values that are
design choices rather than measured properties carry a "source": "assumed"
annotation in the echoed effective configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .controller import Gains
# ConfigError is defined next to SimConfig, so that simulate can raise it too.
from .simulation import ConfigError, SimConfig
from .singularity import SingularityParams
from .vehicle import VehicleParams, as_float

# Larger sweeps are refused before any direction array is built.
MAX_DIRECTIONS = 1_000_000

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


def _three(values):
    shape = np.shape(values)
    if shape != (3,):
        raise ValueError(f"needs 3 entries, got an array of shape {shape}")
    return np.array([as_float(value, f"entry {k}") for k, value in enumerate(values)])


# (load, echo) conversions between a JSON value and a dataclass field.
# A scalar, and each entry of a vector, is a JSON number: as_float refuses
# strings and booleans.
SCALAR = (as_float, float)
VECTOR = (_three, list)
DIAGONAL = (lambda d: np.diag(_three(d)), lambda J: list(np.diag(J)))
DEGREES = (lambda deg: np.deg2rad(as_float(deg)), lambda rad: float(np.rad2deg(rad)))

BLOCKS = {
    "vehicle": (VehicleParams, (
        ("m", "m", *SCALAR),
        ("J_diag", "J_b", *DIAGONAL),
        ("x_com", "x_com", *VECTOR),
        ("l_x", "l_x", *SCALAR),
        ("c_f", "c_f", *SCALAR),
        ("c_d", "c_d", *SCALAR),
        ("Omega_max", "Omega_max", *SCALAR),
        ("alpha_dot_max", "alpha_dot_max", *SCALAR),
        ("g", "g_mag", *SCALAR),
    )),
    "gains": (Gains, (
        ("k_p", "k_p", *SCALAR),
        ("k_v", "k_v", *SCALAR),
        ("k_R", "k_R", *SCALAR),
        ("k_omega", "k_omega", *SCALAR),
    )),
    "singularity": (SingularityParams, (
        ("phi_0_deg", "phi_0", *DEGREES),
        ("phi_d_deg", "phi_d", *DEGREES),
        ("phi_t_deg", "phi_t", *DEGREES),
        ("c_t_deg", "c_t", *DEGREES),
        ("omega_u", "omega_u", *SCALAR),
    )),
    "sim": (SimConfig, (
        ("dt_physics", "dt_physics", *SCALAR),
        ("dt_control", "dt_control", *SCALAR),
    )),
}


@dataclass
class RunConfig:
    """All parameter blocks a command needs, plus the sweep direction count."""

    vehicle: VehicleParams = field(default_factory=VehicleParams)
    gains: Gains = field(default_factory=Gains)
    singularity: SingularityParams = field(default_factory=SingularityParams)
    sim: SimConfig = field(default_factory=SimConfig)
    n_dirs: int = 2000

    def __post_init__(self):
        if isinstance(self.n_dirs, bool) or not isinstance(self.n_dirs, int):
            raise TypeError(f"n_dirs must be an integer, got {self.n_dirs!r}")
        if not 1 <= self.n_dirs <= MAX_DIRECTIONS:
            raise ValueError(f"n_dirs must be between 1 and {MAX_DIRECTIONS}")

    def effective_dict(self):
        """JSON-serializable echo of every effective parameter."""
        echo = {name: {key: to_json(getattr(getattr(self, name), attr))
                       for key, attr, _, to_json in rows}
                for name, (_, rows) in BLOCKS.items()}
        return {**echo, "n_dirs": self.n_dirs, "sources": dict(ASSUMED_SOURCES)}


def _check_keys(block_name, block, allowed):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{block_name}': {sorted(unknown)}")


def _checked(where, fn, /, *args, **kwargs):
    """fn(*args, **kwargs); a value error says where the values came from."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid parameter value {where}: {exc}") from exc


def _build(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level configuration must be a JSON object")
    _check_keys("<top level>", raw, [*BLOCKS, "n_dirs", "sources"])
    kwargs = {"n_dirs": raw["n_dirs"]} if "n_dirs" in raw else {}
    for name, (cls, rows) in BLOCKS.items():
        block = raw.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"'{name}' must be a JSON object")
        _check_keys(name, block, [key for key, *_ in rows])
        # A load error names its key; a rule error names the block and its keys.
        loaded = {attr: _checked(f"for '{name}.{key}'", load, block[key])
                  for key, attr, load, _ in rows if key in block}
        kwargs[name] = _checked(f"in '{name}' ({', '.join(block)})", cls, **loaded)
    return _checked("for 'n_dirs'", RunConfig, **kwargs)


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
    except ValueError as exc:
        # Bytes that are not UTF-8, or an integer of more than 4300 digits.
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return _build(raw)
