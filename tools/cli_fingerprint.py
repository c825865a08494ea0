"""Print the sha256 of every file the omnidyn CLI writes for a fixed set of runs.

Runs, in-process through `omnidyn.cli.main` and with default configuration,
`envelope`, `condmap`, `condmap --biased` and `efficiency` at 400 directions
and `simulate` for each of the six experiments. Then, with a non-default
vehicle written to OUT_DIR/vehicle.json, runs `envelope`, `condmap --biased`
and `simulate --experiment singular-translation`, so that the path from a
config file to the vehicle's derived allocation geometry is checked too.
Each run writes into its own subdirectory of OUT_DIR. Then prints one
sorted `sha256  path` line per file, with paths relative to OUT_DIR.

The omnidyn on the import path is the one measured, so two commits compare as

    PYTHONPATH=src python tools/cli_fingerprint.py /tmp/new > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/cli_fingerprint.py /tmp/old > old.txt
    diff old.txt new.txt

An empty diff means the change left every output byte as it was.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from omnidyn import cli

N_DIRS = "400"
RUNS = (
    ("envelope", ["envelope", "--n-dirs", N_DIRS]),
    ("condmap", ["condmap", "--n-dirs", N_DIRS]),
    ("condmap-biased", ["condmap", "--biased", "--n-dirs", N_DIRS]),
    ("efficiency", ["efficiency", "--n-dirs", N_DIRS]),
    *((f"simulate-{name}", ["simulate", "--experiment", name]) for name in cli.EXPERIMENTS),
)
VEHICLE = {"vehicle": {"m": 3.5, "l_x": 0.25, "c_f": 1.2e-5, "x_com": [0.005, 0.0, 0.0]}}
VEHICLE_RUNS = (
    ("vehicle-envelope", ["envelope", "--n-dirs", N_DIRS]),
    ("vehicle-condmap-biased", ["condmap", "--biased", "--n-dirs", N_DIRS]),
    ("vehicle-simulate-singular-translation", ["simulate", "--experiment", "singular-translation"]),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: cli_fingerprint.py OUT_DIR", file=sys.stderr)
        return 1
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    config = out / "vehicle.json"
    config.write_text(json.dumps(VEHICLE, sort_keys=True) + "\n")
    runs = [*RUNS, *((name, [*args, "--config", str(config)]) for name, args in VEHICLE_RUNS)]
    for name, args in runs:
        status = cli.main([*args, "--out", str(out / name)])
        if status != 0:
            print(f"cli_fingerprint: `{' '.join(args)}` exited {status}", file=sys.stderr)
            return status
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
