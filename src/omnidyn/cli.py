"""Command-line entry point.

Commands:
  simulate    closed-loop run of one experiment, CSV log + JSON summary
  envelope    force and torque envelope sweeps
  condmap     condition-number map of the allocation matrix
  efficiency  hover efficiency sweep

Exit codes: 0 success, 1 usage error, 2 configuration error or unwritable
--out, 3 numerical failure (a diverged simulate run, or one whose tracking
summary is not finite, still writes its log). All outputs are
deterministic: re-running a command reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import condition_map, force_envelope, hover_sweep, torque_envelope
from .config import MAX_DIRECTIONS, ConfigError, load_run_config
from .simulation import SimulationDiverged, simulate, tracking_summary
# Bound under this name so that perfbench/tracer.py can time CSV export.
from .simulation import write_csv as _write_csv
from .trajectories import (
    make_cartwheel,
    make_flip,
    make_hover,
    make_rotation,
    make_singular_translation,
    make_translation,
)

# Experiment name -> trajectory factory of the run configuration.
TRAJECTORIES = {
    "translation": lambda cfg: make_translation(),
    "rotation": lambda cfg: make_rotation(),
    "flip": lambda cfg: make_flip(),
    "singular-translation": lambda cfg: make_singular_translation(cfg.vehicle),
    "cartwheel": lambda cfg: make_cartwheel(),
    "hover": lambda cfg: make_hover(),
}
EXPERIMENTS = tuple(TRAJECTORIES)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _direction_count(text):
    value = int(text)
    if not 1 <= value <= MAX_DIRECTIONS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_DIRECTIONS}, got {value}")
    return value


def _build_parser():
    parser = _Parser(prog="omnidyn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_dirs=False):
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory")
        if n_dirs:
            p.add_argument("--n-dirs", type=_direction_count, metavar="N",
                           help="number of sweep directions (default from config)")

    p_sim = sub.add_parser("simulate", help="run one closed-loop experiment")
    common(p_sim)
    p_sim.add_argument("--experiment", metavar="NAME", required=True, choices=EXPERIMENTS,
                       help=f"one of: {', '.join(EXPERIMENTS)}")

    p_env = sub.add_parser("envelope", help="force/torque envelope sweeps")
    common(p_env, n_dirs=True)

    p_cond = sub.add_parser("condmap", help="allocation condition-number map")
    common(p_cond, n_dirs=True)
    p_cond.add_argument("--biased", action="store_true",
                        help="apply the singularity tilt bias before evaluating")

    p_eff = sub.add_parser("efficiency", help="hover efficiency sweep")
    common(p_eff, n_dirs=True)

    return parser


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _cmd_simulate(args, cfg, out_dir):
    name = args.experiment
    trajectory = TRAJECTORIES[name](cfg)
    log_path = os.path.join(out_dir, f"{name}_log.csv")
    try:
        log = simulate(trajectory, cfg.vehicle, cfg.gains, cfg.singularity, cfg.sim)
    except SimulationDiverged as exc:
        exc.log.to_csv(log_path)
        print(f"omnidyn: numerical failure: {exc}; partial log in {log_path}", file=sys.stderr)
        return 3
    log.to_csv(log_path)
    # Finite states can still overflow the error norms of a diverged run.
    with np.errstate(over="ignore", invalid="ignore"):
        summary = tracking_summary(log).as_dict()
    if not np.all(np.isfinite(list(summary.values()))):
        print(f"omnidyn: numerical failure: tracking summary is not finite; log in {log_path}",
              file=sys.stderr)
        return 3
    _write_json(os.path.join(out_dir, f"{name}_summary.json"), summary)
    return 0


def _cmd_envelope(args, cfg, out_dir):
    for fname, sweep in (("force_envelope.csv", force_envelope),
                         ("torque_envelope.csv", torque_envelope)):
        _write_csv(os.path.join(out_dir, fname), ["dx", "dy", "dz", "radius"],
                   np.column_stack(sweep(cfg.vehicle, args.n_dirs)))
    return 0


def _cmd_condmap(args, cfg, out_dir):
    columns = condition_map(cfg.vehicle, args.n_dirs, cfg.singularity if args.biased else None)
    fname = "condmap_biased.csv" if args.biased else "condmap_unbiased.csv"
    _write_csv(os.path.join(out_dir, fname), ["dx", "dy", "dz", "log10_cond"],
               np.column_stack(columns))
    return 0


def _cmd_efficiency(args, cfg, out_dir):
    _write_csv(os.path.join(out_dir, "efficiency.csv"),
               ["dx", "dy", "dz", "eta_P", "eta_f", "total_power"],
               np.column_stack(hover_sweep(cfg.vehicle, args.n_dirs)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_run_config(args.config)
    except ConfigError as exc:
        print(f"omnidyn: config error: {exc}", file=sys.stderr)
        return 2

    # The sweeps' direction count: --n-dirs, else the config's. cfg.n_dirs
    # keeps the config's value for the effective-config echo.
    if getattr(args, "n_dirs", None) is None:
        args.n_dirs = cfg.n_dirs

    handlers = {
        "simulate": _cmd_simulate,
        "envelope": _cmd_envelope,
        "condmap": _cmd_condmap,
        "efficiency": _cmd_efficiency,
    }
    try:
        os.makedirs(args.out, exist_ok=True)
        status = handlers[args.command](args, cfg, args.out)
        if status == 0:
            _write_json(os.path.join(args.out, "effective_config.json"), cfg.effective_dict())
    except ConfigError as exc:
        # simulate refuses a run whose log would be too long before its first tick.
        print(f"omnidyn: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"omnidyn: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"omnidyn: numerical failure: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    raise SystemExit(main())
