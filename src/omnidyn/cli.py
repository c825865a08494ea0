"""Command-line entry point.

Commands:
  simulate    closed-loop run of one experiment, CSV log + JSON summary
  envelope    force and torque envelope sweeps
  condmap     condition-number map of the allocation matrix
  efficiency  hover efficiency sweep

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 numerical failure (a diverged simulate run, or one whose tracking
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
from .config import ConfigError, load_run_config
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

EXPERIMENTS = ("translation", "rotation", "flip", "singular-translation", "cartwheel", "hover")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _direction_count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
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
    p_sim.add_argument("--experiment", metavar="NAME", required=True,
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


def _make_trajectory(name, run_config):
    if name == "translation":
        return make_translation()
    if name == "rotation":
        return make_rotation()
    if name == "flip":
        return make_flip()
    if name == "singular-translation":
        return make_singular_translation(run_config.vehicle)
    if name == "cartwheel":
        return make_cartwheel()
    if name == "hover":
        return make_hover()
    raise KeyError(name)


def _cmd_simulate(args, cfg, out_dir):
    if args.experiment not in EXPERIMENTS:
        print(f"omnidyn: error: unknown experiment '{args.experiment}' "
              f"(choose from {', '.join(EXPERIMENTS)})", file=sys.stderr)
        return 1
    trajectory = _make_trajectory(args.experiment, cfg)
    name = args.experiment
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
    n = cfg.n_dirs if args.n_dirs is None else args.n_dirs
    for fname, sweep in (("force_envelope.csv", force_envelope),
                         ("torque_envelope.csv", torque_envelope)):
        _write_csv(os.path.join(out_dir, fname), ["dx", "dy", "dz", "radius"],
                   np.column_stack(sweep(cfg.vehicle, n)))
    return 0


def _cmd_condmap(args, cfg, out_dir):
    n = cfg.n_dirs if args.n_dirs is None else args.n_dirs
    columns = condition_map(cfg.vehicle, n, cfg.singularity if args.biased else None)
    fname = "condmap_biased.csv" if args.biased else "condmap_unbiased.csv"
    _write_csv(os.path.join(out_dir, fname), ["dx", "dy", "dz", "log10_cond"],
               np.column_stack(columns))
    return 0


def _cmd_efficiency(args, cfg, out_dir):
    n = cfg.n_dirs if args.n_dirs is None else args.n_dirs
    _write_csv(os.path.join(out_dir, "efficiency.csv"),
               ["dx", "dy", "dz", "eta_P", "eta_f", "total_power"],
               np.column_stack(hover_sweep(cfg.vehicle, n)))
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

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    handlers = {
        "simulate": _cmd_simulate,
        "envelope": _cmd_envelope,
        "condmap": _cmd_condmap,
        "efficiency": _cmd_efficiency,
    }
    try:
        status = handlers[args.command](args, cfg, out_dir)
    except ConfigError as exc:
        # simulate refuses a run whose log would be too long before its first tick.
        print(f"omnidyn: config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"omnidyn: numerical failure: {exc}", file=sys.stderr)
        return 3
    if status == 0:
        _write_json(os.path.join(out_dir, "effective_config.json"), cfg.effective_dict())
    return status


if __name__ == "__main__":
    raise SystemExit(main())
