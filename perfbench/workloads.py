"""The benchmark's workloads: the inputs each hands to omnidyn, the unit of
work it repeats, and the checks on what comes back.

All three are closed loops in one process and one thread: an operation
starts only when the previous one has returned. A unit is one cartwheel
command, one pass of the four sweep commands, or one scatter batch. Only
``scatter`` draws its inputs from the seed.

Every workload offers:

* ``inputs(seed)``: a plain description of what the program receives;
* ``probe_setup(seed, out_dir)``: the program's set-up path up to its first
  control tick or sweep direction, in seconds (import excluded);
* ``run_unit(seed, out_dir, tracer)``: one timed unit, returning a ``Unit``;
* ``check(unit, reference)``: the correctness checks, which fill in the
  unit's operations, invariants, fingerprint and handler counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from omnidyn import allocation, analysis, cli, config, simulation, singularity, trajectories, vehicle

perf = time.perf_counter

# Criterion 6: tracking error bounds, applied to the whole cartwheel run and
# to the last tick of every scatter run.
POS_BOUND_M = 0.01
ATT_BOUND_DEG = 1.0
# Criterion 4: radius of the force envelope along +z, and its 6-fold symmetry.
Z_RADIUS_N = 120.0
Z_RADIUS_TOL_N = 0.12
SYMMETRY_RTOL = 1e-9
SYMMETRY_SAMPLES = 40


class FirstStep(Exception):
    """Stops a set-up probe at the first control tick or sweep direction."""


@dataclass
class Unit:
    """What one unit of a workload did: timings first, then check results."""

    wall_s: float                # first program call to last output file
    setup_s: float               # program call to first tick or direction, summed
    steps_s: np.ndarray          # host seconds per control tick or sweep direction
    sim_s: float = 0.0           # simulated seconds covered by steps_s
    command_s: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)          # (name, ok, detail)
    invariants_ok: bool = True
    fingerprint: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_json(path, payload):
    """The CLI's JSON layout, so files match `omnidyn simulate` byte for byte."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def patched(owner, attr, value):
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def instrument(trajectory, stamps, tracer=None):
    """Stamp every sampler call of a benchmark-supplied trajectory.

    simulate calls the sampler once before its loop and then once at the
    top of every tick, so consecutive stamps after the first bound a tick.
    Traced, the sampler also opens the tick span and a sample span.
    """
    inner = trajectory.sampler
    if tracer is None:
        def sampler(t):
            stamps.append(perf())
            return inner(t)
    else:
        sample = tracer.wrap("trajectories.sample", inner)

        def sampler(t):
            stamps.append(perf())
            if len(stamps) > 1:
                tracer.next_tick()
            return sample(t)
    trajectory.sampler = sampler
    return trajectory


def stop_at_first_tick(trajectory, stamps):
    def sampler(t):
        stamps.append(perf())
        raise FirstStep

    trajectory.sampler = sampler
    return trajectory


def tick_steps(stamps):
    return np.diff(np.asarray(stamps[1:], dtype=float))


def end_errors(log):
    """Position (m) and attitude (deg) error at the last logged tick."""
    q, q_sp = log.column("q")[-1], log.column("q_sp")[-1]
    att = 2.0 * np.arccos(min(1.0, abs(float(q @ q_sp))))
    return float(np.linalg.norm(log.column("e_p")[-1])), float(np.rad2deg(att))


def max_tilt_rate(log):
    alpha = log.column("alpha_cmd")
    if alpha.shape[0] < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(alpha, axis=0))) / log.dt_control)


def handler_counts(log, alpha_dot_max):
    """Rate-limit hits and handler activity read back from the logged commands."""
    steps = np.abs(np.diff(log.column("alpha_cmd"), axis=0))
    k_alpha = log.column("k_alpha")
    return {
        "rate_limit_hits": int(np.count_nonzero(steps >= alpha_dot_max * log.dt_control * (1.0 - 1e-9))),
        "arm_steps": int(steps.size),
        "bias_ticks": int(np.count_nonzero(log.column("k_t") > 0.0)),
        "ticks": int(log.data.shape[0]),
        "damped_arm_ticks": int(np.count_nonzero(k_alpha > 0.0)),
        "arm_ticks": int(k_alpha.size),
    }


def add_counts(total, counts):
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def singularity_failures(log, params, sing):
    """Criterion 7 beyond the rate limit: the freeze set matches the arms
    aligned with the force on every tick, and frozen arms unwind toward
    zero at no more than omega_u."""
    failures = []
    F, k_alpha, alpha = log.column("F_cmd"), log.column("k_alpha"), log.column("alpha_cmd")
    for k in range(log.data.shape[0]):
        fn = np.linalg.norm(F[k])
        if fn < 1e-6 * params.m * params.g_mag:
            continue
        eta = [singularity.arm_alignment(F[k] / fn, i, params) for i in range(6)]
        expected = np.array([singularity.damping_multiplier(e, sing) for e in eta])
        frozen = {i for i in range(6) if k_alpha[k, i] == 1.0}
        if frozen != {i for i in range(6) if eta[i] <= sing.phi_0} or not np.allclose(
                k_alpha[k], expected, atol=1e-12):
            failures.append(f"freeze set wrong at tick {k}")
            break
    seen = False
    for k in range(1, log.data.shape[0]):
        for i in range(6):
            if k_alpha[k, i] != 1.0 or alpha[k - 1, i] == 0.0:
                continue
            step = abs(alpha[k, i]) - abs(alpha[k - 1, i])
            if step > 1e-12 or abs(alpha[k, i] - alpha[k - 1, i]) / log.dt_control > sing.omega_u + 1e-9:
                failures.append(f"arm {i} does not unwind at tick {k}")
                return failures
            seen = seen or step < -1e-12
    if not seen:
        failures.append("no frozen arm unwound")
    return failures


class Cartwheel:
    """Full cartwheel experiment with the default configuration.

    Why: it is the longest experiment, and its force direction sweeps the
    whole body z-plane, so all three singularity handlers fire. It is the
    work of `omnidyn simulate --experiment cartwheel`: RK4 plant (five steps,
    about 2/3 of a tick), controller, per-tick allocation, log assembly and
    CSV export, with analysis idle. The seed does not change it.
    """

    name = "cartwheel"
    ops_must_pass = True
    files = ("cartwheel_log.csv", "cartwheel_summary.json", "effective_config.json")

    def __init__(self, duration=None):
        self.duration = duration  # None runs the whole experiment

    def inputs(self, seed):
        return {"experiment": "cartwheel", "config": "defaults", "duration": self.duration}

    def _start(self):
        cfg = config.load_run_config(None)
        if self.duration is not None:
            cfg.sim = simulation.SimConfig(duration=self.duration)
        return cfg, trajectories.make_cartwheel()

    def probe_setup(self, seed, out_dir):
        stamps = []
        t0 = perf()
        cfg, trajectory = self._start()
        stop_at_first_tick(trajectory, stamps)
        with contextlib.suppress(FirstStep):
            simulation.simulate(trajectory, cfg.vehicle, cfg.gains, cfg.singularity, cfg.sim)
        return stamps[0] - t0

    def run_unit(self, seed, out_dir, tracer=None):
        stamps, diverged, summary = [], None, None
        path = {name: os.path.join(out_dir, name) for name in self.files}
        t0 = perf()
        cfg, trajectory = self._start()
        instrument(trajectory, stamps, tracer)
        try:
            log = simulation.simulate(trajectory, cfg.vehicle, cfg.gains, cfg.singularity, cfg.sim)
        except simulation.SimulationDiverged as exc:
            log, diverged = exc.log, str(exc)
        else:
            log.to_csv(path["cartwheel_log.csv"])
            summary = simulation.tracking_summary(log).as_dict()
            write_json(path["cartwheel_summary.json"], summary)
            write_json(path["effective_config.json"], cfg.effective_dict())
        wall = perf() - t0
        steps = tick_steps(stamps)
        return Unit(wall_s=wall, setup_s=stamps[0] - t0, steps_s=steps,
                    sim_s=steps.size * cfg.sim.dt_control,
                    raw={"log": log, "cfg": cfg, "diverged": diverged,
                         "summary": summary, "path": path})

    def check(self, unit, reference):
        log, cfg = unit.raw["log"], unit.raw["cfg"]
        unit.counts = handler_counts(log, cfg.vehicle.alpha_dot_max)
        unit.invariants_ok = bool(np.all(np.isfinite(log.data))) and (
            max_tilt_rate(log) <= cfg.vehicle.alpha_dot_max + 1e-9)
        if unit.raw["diverged"]:
            unit.invariants_ok = False
            unit.ops = [(self.name, False, f"diverged: {unit.raw['diverged']}")]
            return
        unit.fingerprint = {name: sha256_file(p) for name, p in unit.raw["path"].items()}
        unit.fingerprint["tracking_summary"] = unit.raw["summary"]
        if reference is not None:
            same = unit.fingerprint == reference
            unit.invariants_ok = unit.invariants_ok and same
            unit.ops = [(self.name, same, "identical to the first run" if same else "outputs changed")]
            return
        s = unit.raw["summary"]
        failures = []
        if not unit.invariants_ok:
            failures.append("non-finite log or tilt rate above alpha_dot_max")
        if not (s["max_pos_err_m"] < POS_BOUND_M and s["max_att_err_deg"] < ATT_BOUND_DEG):
            failures.append(f"tracking {s['max_pos_err_m'] * 1e3:.2f} mm / "
                            f"{s['max_att_err_deg']:.3f} deg over bound")
        failures += singularity_failures(log, cfg.vehicle, cfg.singularity)
        unit.ops = [(self.name, not failures, "; ".join(failures) or
                     f"criteria 6 and 7 hold: {s['max_pos_err_m'] * 1e3:.2f} mm / "
                     f"{s['max_att_err_deg']:.3f} deg")]


# (name, CLI arguments, files written). `envelope` writes two sweeps.
SWEEP_COMMANDS = (
    ("envelope", ("envelope",), ("force_envelope.csv", "torque_envelope.csv")),
    ("condmap", ("condmap",), ("condmap_unbiased.csv",)),
    ("condmap_biased", ("condmap", "--biased"), ("condmap_biased.csv",)),
    ("efficiency", ("efficiency",), ("efficiency.csv",)),
)
# The sweep functions the CLI calls; each loops over directions and calls
# analysis.static_allocation once per direction.
SWEEP_FUNCTIONS = ("force_envelope", "torque_envelope", "condition_map", "hover_sweep")


def load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def envelope_symmetry_error(params):
    """Largest relative radius change under a 60-degree turn about z, over
    fixed random force directions (criterion 4)."""
    allocator = allocation.Allocator(params)
    c, s = np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def radius(d):
        _, Omega, _ = analysis.static_allocation(np.concatenate([d, np.zeros(3)]), allocator)
        return params.Omega_max / np.max(Omega)

    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(SYMMETRY_SAMPLES):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        r0 = radius(d)
        worst = max(worst, abs(radius(Rz @ d) - r0) / r0)
    return worst


class Sweeps:
    """envelope, condmap, condmap --biased and efficiency through the
    in-process `omnidyn.cli.main` at one fixed direction count.

    Why: it loads analysis, the static allocation path (static_allocation,
    build_A_alpha) and the per-direction SVD while vehicle, controller and
    simulation stay idle. A batched allocation core shows its gain here and
    none on cartwheel. The seed does not change it.
    """

    name = "sweeps"
    ops_must_pass = True

    def __init__(self, n_dirs=2000):
        self.n_dirs = n_dirs

    def inputs(self, seed):
        return [self._argv(args, "OUT") for _, args, _ in SWEEP_COMMANDS]

    def _argv(self, args, out_dir):
        return [*args, "--n-dirs", str(self.n_dirs), "--out", out_dir]

    @contextlib.contextmanager
    def _stamping(self, sweeps, stop=False):
        """Stamp each direction; each sweep function starts a new list."""
        def start_sweep(fn):
            def wrapper(*args, **kwargs):
                sweeps.append([])
                return fn(*args, **kwargs)
            return wrapper

        static_allocation = analysis.static_allocation

        def stamp(*args, **kwargs):
            sweeps[-1].append(perf())
            if stop:
                raise FirstStep
            return static_allocation(*args, **kwargs)

        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(analysis, "static_allocation", stamp))
            for name in SWEEP_FUNCTIONS:
                stack.enter_context(patched(cli, name, start_sweep(getattr(cli, name))))
            yield

    def probe_setup(self, seed, out_dir):
        total = 0.0
        for _, args, _ in SWEEP_COMMANDS:
            sweeps = []
            with self._stamping(sweeps, stop=True), contextlib.suppress(FirstStep):
                t0 = perf()
                cli.main(self._argv(args, out_dir))
            total += sweeps[0][0] - t0
        return total

    def run_unit(self, seed, out_dir, tracer=None):
        """One pass of the four commands. A step is one direction: its time
        summed over the five sweeps (envelope runs two) of the pass."""
        all_sweeps, command_s, status, setup = [], {}, {}, 0.0
        for name, args, _ in SWEEP_COMMANDS:
            sweeps = []
            with self._stamping(sweeps), span(tracer, f"cli.main.{name}"):
                t0 = perf()
                status[name] = cli.main(self._argv(args, out_dir))
                command_s[name] = perf() - t0
            if sweeps and sweeps[0]:
                setup += sweeps[0][0] - t0
            all_sweeps += sweeps
        diffs = [np.diff(np.asarray(s, dtype=float)) for s in all_sweeps if len(s) == self.n_dirs]
        return Unit(wall_s=sum(command_s.values()), setup_s=setup,
                    steps_s=np.sum(diffs, axis=0) if diffs else np.zeros(0),
                    command_s=command_s, raw={"status": status, "out_dir": out_dir})

    def _failures(self, name, out_dir):
        files = next(files for command, _, files in SWEEP_COMMANDS if command == name)
        data = {f: load_csv(os.path.join(out_dir, f)) for f in files}
        failures = [f"{f}: {len(d)} rows" for f, d in data.items() if len(d) != self.n_dirs]
        if name == "envelope":
            z_radius = data["force_envelope.csv"][4, 3]  # canonical +z row
            if abs(z_radius - Z_RADIUS_N) > Z_RADIUS_TOL_N:
                failures.append(f"+z radius {z_radius:.6f} N")
            sym = envelope_symmetry_error(config.load_run_config(None).vehicle)
            if sym > SYMMETRY_RTOL:
                failures.append(f"6-fold symmetry error {sym:.2e}")
        elif name == "condmap":
            if np.any(np.isnan(data["condmap_unbiased.csv"][:, 3])):
                failures.append("NaN condition number")
        elif name == "condmap_biased":
            if not np.all(np.isfinite(data["condmap_biased.csv"][:, 3])):
                failures.append("biased condition number not finite")
        elif name == "efficiency":
            eta = data["efficiency.csv"][:, 3:5]
            if not np.all((eta > 0.0) & (eta <= 1.0)):
                failures.append("efficiency index outside (0, 1]")
        return failures

    def check(self, unit, reference):
        out_dir = unit.raw["out_dir"]
        names = [f for _, _, files in SWEEP_COMMANDS for f in files] + ["effective_config.json"]
        unit.fingerprint = {f: sha256_file(os.path.join(out_dir, f))
                            for f in names if os.path.exists(os.path.join(out_dir, f))}
        log10_cond = load_csv(os.path.join(out_dir, "condmap_unbiased.csv"))[:, 3]
        unit.counts = {"inf_rows": int(np.count_nonzero(np.isinf(log10_cond))),
                       "condmap_rows": int(log10_cond.size)}
        unit.ops = []
        for name, _, files in SWEEP_COMMANDS:
            code = unit.raw["status"][name]
            if code != 0:
                unit.ops.append((name, False, f"exit code {code}"))
            elif reference is not None:
                same = all(unit.fingerprint.get(f) == reference.get(f) for f in files)
                unit.invariants_ok = unit.invariants_ok and same
                unit.ops.append((name, same, "identical to the first pass" if same else "outputs changed"))
            else:
                failures = self._failures(name, out_dir)
                unit.ops.append((name, not failures, "; ".join(failures) or "checks hold"))


# Experiments of a scatter batch, in order, with the simulated seconds each
# run is truncated to. singular-translation runs long enough to reach its
# hold, where arm 1 lies on the force line and stays frozen.
SCATTER_CYCLE = (("flip", 1.0), ("singular-translation", 5.0), ("rotation", 1.0), ("hover", 1.0))
SCATTER_RUNS = 8
# Draw ranges around the default vehicle and around the trajectory start.
# Starts up to 1.5 cm, 4 deg and 0.2 rad/s off include ones the controller
# is known not to recover from (a hover 1 cm off in x, or 3 deg off in yaw);
# those show up in fail_frac and are kept on purpose.
PARAM_REL_RANGE = 0.10
X_COM_RANGE_M = 0.005
POS_OFFSET_M = 0.015
ATT_OFFSET_DEG = 4.0
RATE_OFFSET_RAD_S = 0.2


def _unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rotation(axis, angle):
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def make_trajectory(experiment, params):
    if experiment == "singular-translation":
        return trajectories.make_singular_translation(params)
    return {"flip": trajectories.make_flip, "rotation": trajectories.make_rotation,
            "hover": trajectories.make_hover}[experiment]()


class Scatter:
    """A seeded batch of short closed-loop runs with scattered vehicles and starts.

    Why: it uses simulation differently from cartwheel: many short runs,
    set-up per run, no CSV. Each run draws its vehicle (m, J diagonal,
    x_com, c_f) and its start offset (position, attitude about a random
    axis that includes yaw, body rate) from the seed, so robustness shows
    in fail_frac. Singular-translation keeps arm 1 frozen, so damping and
    unwinding act on every tick of its hold. A batched or lockstep closed
    loop would show here and not on cartwheel.
    """

    name = "scatter"
    # A run that ends outside the criterion-6 bounds counts in fail_frac; the
    # program is known to miss them for some starts, so correctness covers
    # only the invariants every run must keep.
    ops_must_pass = False

    def __init__(self, runs=SCATTER_RUNS, time_scale=1.0):
        self.runs = runs
        self.time_scale = time_scale

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        nominal = vehicle.VehicleParams()
        draws = []
        for k in range(self.runs):
            experiment, duration = SCATTER_CYCLE[k % len(SCATTER_CYCLE)]
            scale = rng.uniform(1.0 - PARAM_REL_RANGE, 1.0 + PARAM_REL_RANGE, size=6)
            draws.append({
                "experiment": experiment,
                "duration": duration * self.time_scale,
                "m": nominal.m * scale[0],
                "J_diag": np.diag(nominal.J_b) * scale[1:4],
                "x_com": rng.uniform(-X_COM_RANGE_M, X_COM_RANGE_M, size=3),
                "c_f": nominal.c_f * scale[4],
                "x0": _unit_vector(rng) * rng.uniform(0.0, POS_OFFSET_M),
                "R0": _rotation(_unit_vector(rng), np.deg2rad(rng.uniform(0.0, ATT_OFFSET_DEG))),
                "omega0": _unit_vector(rng) * rng.uniform(0.0, RATE_OFFSET_RAD_S),
            })
        return draws

    @staticmethod
    def _start(draw):
        params = vehicle.VehicleParams(m=draw["m"], J_b=np.diag(draw["J_diag"]),
                                       x_com=draw["x_com"], c_f=draw["c_f"])
        state = vehicle.RigidBodyState(x=draw["x0"], R=draw["R0"], omega_b=draw["omega0"])
        sim_config = simulation.SimConfig(duration=draw["duration"], initial_state=state)
        return params, make_trajectory(draw["experiment"], params), sim_config

    def probe_setup(self, seed, out_dir):
        draws = self.inputs(seed)
        t0 = perf()
        cfg = config.load_run_config(None)
        total = perf() - t0
        for draw in draws:
            stamps = []
            t0 = perf()
            params, trajectory, sim_config = self._start(draw)
            stop_at_first_tick(trajectory, stamps)
            with contextlib.suppress(FirstStep):
                simulation.simulate(trajectory, params, cfg.gains, cfg.singularity, sim_config)
            total += stamps[0] - t0
        return total

    def run_unit(self, seed, out_dir, tracer=None):
        draws = self.inputs(seed)
        results, steps, sim_s = [], [], 0.0
        t_unit = perf()
        cfg = config.load_run_config(None)
        setup = perf() - t_unit
        for draw in draws:
            stamps, diverged = [], None
            t0 = perf()
            params, trajectory, sim_config = self._start(draw)
            instrument(trajectory, stamps, tracer)
            try:
                log = simulation.simulate(trajectory, params, cfg.gains, cfg.singularity, sim_config)
            except simulation.SimulationDiverged as exc:
                log, diverged = exc.log, str(exc)
            setup += stamps[0] - t0
            run_steps = tick_steps(stamps)
            steps.append(run_steps)
            sim_s += run_steps.size * sim_config.dt_control
            results.append((draw["experiment"], log, diverged, params.alpha_dot_max))
        wall = perf() - t_unit
        return Unit(wall_s=wall, setup_s=setup, steps_s=np.concatenate(steps), sim_s=sim_s,
                    raw={"results": results})

    def check(self, unit, reference):
        digest = hashlib.sha256()
        summaries, unit.ops, unit.counts = [], [], {}
        for k, (experiment, log, diverged, alpha_dot_max) in enumerate(unit.raw["results"]):
            digest.update(log.data.tobytes())
            add_counts(unit.counts, handler_counts(log, alpha_dot_max))
            unit.invariants_ok = unit.invariants_ok and bool(np.all(np.isfinite(log.data))) and (
                max_tilt_rate(log) <= alpha_dot_max + 1e-9)
            label = f"{experiment}#{k}"
            if diverged:
                unit.ops.append((label, False, f"diverged: {diverged}"))
                summaries.append(None)
                continue
            pos, att = end_errors(log)
            summaries.append(simulation.tracking_summary(log).as_dict())
            unit.ops.append((label, pos < POS_BOUND_M and att < ATT_BOUND_DEG,
                             f"end error {pos * 1e3:.3f} mm / {att:.4f} deg"))
        unit.fingerprint = {"logs_sha256": digest.hexdigest(), "tracking_summaries": summaries}
        if reference is not None and unit.fingerprint != reference:
            unit.invariants_ok = False


WORKLOADS = {w.name: w for w in (Cartwheel(), Sweeps(), Scatter())}
