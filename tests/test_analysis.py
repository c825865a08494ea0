"""Tests for the characterization sweeps: envelopes, condition maps, efficiency."""

import array_formulas
import numpy as np
import pytest
from array_formulas import same_bits
from numpy.testing import assert_allclose

from omnidyn import analysis
from omnidyn.allocation import Allocator
from omnidyn.analysis import (
    BLOCK_DIRS,
    condition_map,
    condmap_directions,
    efficiency_directions,
    envelope_directions,
    fibonacci_sphere,
    force_envelope,
    hover_power,
    hover_sweep,
    log10_cond,
    power_efficiency,
    static_allocation,
    torque_envelope,
    wasted_force_index,
)
from omnidyn.mathcore import rotation_from_axis_angle
from omnidyn.singularity import SingularityParams
from omnidyn.vehicle import VehicleParams, build_A_alpha


def test_fibonacci_sphere_units_and_determinism():
    d = fibonacci_sphere(500)
    assert d.shape == (500, 3)
    assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(d, fibonacci_sphere(500))
    # reasonable spread: no two samples coincide
    gram = d @ d.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 1.0 - 1e-6


def test_direction_sets_prepend_canonicals():
    d = envelope_directions(100)
    assert d.shape == (100, 3)
    assert_allclose(d[:6], [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])

    d = condmap_directions(50)
    assert d.shape == (50, 3)
    assert_allclose(d[0], [0, 0, 1])
    assert_allclose(d[1], [0, 0, -1])
    # twelve in-plane azimuths offset from the arm grid by 15 degrees
    az = np.deg2rad(15.0 + 30.0 * np.arange(12))
    assert_allclose(d[2:14], np.column_stack([np.cos(az), np.sin(az), np.zeros(12)]),
                    atol=1e-12)

    d = efficiency_directions(20)
    assert_allclose(d[0], [0, 0, 1])
    assert_allclose(d[1], [0, 0, -1])
    az = np.arange(6) * np.pi / 3.0
    assert_allclose(d[2:8], np.column_stack([np.cos(az), np.sin(az), np.zeros(6)]),
                    atol=1e-12)


def test_direction_sets_truncate_small_n():
    assert envelope_directions(3).shape == (3, 3)
    assert condmap_directions(2).shape == (2, 3)


def test_static_allocation_hover():
    p = VehicleParams()
    alc = Allocator(p)
    w = np.array([0.0, 0.0, p.m * p.g_mag, 0.0, 0.0, 0.0])
    alpha, Omega, u = static_allocation(w, alc)
    assert_allclose(alpha, 0.0, atol=1e-12)
    assert_allclose(Omega, p.m * p.g_mag / (12.0 * p.c_f), rtol=1e-12)
    assert_allclose(p.A @ u, w, atol=1e-9)


def test_static_allocation_biased_adds_offsets():
    p = VehicleParams()
    sp = SingularityParams()
    w = np.array([0.0, 0.0, p.m * p.g_mag, 0.0, 0.0, 0.0])
    alpha, _, _ = static_allocation(w, Allocator(p, sp))
    assert_allclose(alpha, sp.b * sp.c_t, atol=1e-12)
    # an allocator without singularity params does not bias
    alpha, _, _ = static_allocation(w, Allocator(p))
    assert_allclose(alpha, 0.0, atol=1e-12)


def test_force_envelope_axis_values():
    p = VehicleParams()
    dirs, radius = force_envelope(p, 8)
    radii = dict(zip(map(tuple, np.round(dirs, 6)), radius))
    # +z: all twelve rotors at full thrust c_f * Omega_max = 10 N each
    assert_allclose(radii[(0.0, 0.0, 1.0)], 120.0, rtol=1e-12)
    assert_allclose(radii[(0.0, 0.0, -1.0)], 120.0, rtol=1e-12)
    # +x: frozen from an independent evaluation of the lateral geometry
    assert_allclose(radii[(1.0, 0.0, 0.0)], 69.28203230275507, rtol=1e-12)
    assert_allclose(radii[(1.0, 0.0, 0.0)], 40.0 * np.sqrt(3.0), rtol=1e-9)


def test_force_envelope_six_fold_symmetry():
    p = VehicleParams()
    rng = np.random.default_rng(50)
    alc = Allocator(p)

    def radius(d):
        _, Omega, _ = static_allocation(np.concatenate([d, np.zeros(3)]), alc)
        return p.Omega_max / np.max(Omega)

    Rz = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 3.0)
    for _ in range(20):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        assert_allclose(radius(Rz @ d), radius(d), rtol=1e-9)


def test_torque_envelope_frozen_values():
    p = VehicleParams()
    dirs, radius = torque_envelope(p, 6)
    radii = dict(zip(map(tuple, np.round(dirs, 6)), radius))
    assert_allclose(radii[(1.0, 0.0, 0.0)], 20.843730358391536, rtol=1e-9)
    assert_allclose(radii[(0.0, 1.0, 0.0)], 18.05120000000001, rtol=1e-9)
    assert np.all(radius > 0.0)


def test_condition_map_unbiased_sentinels():
    p = VehicleParams()
    _, log10_cond = condition_map(p, 14)
    # the fourteen canonical directions all sit on rank-deficient geometry
    assert np.all(np.isinf(log10_cond))


def test_condition_map_biased_is_finite_and_flat_at_singular_dirs():
    p = VehicleParams()
    sp = SingularityParams()
    _, log10_cond = condition_map(p, 14, sp)
    conds = 10.0**log10_cond
    assert np.all(np.isfinite(conds))
    # frozen value: same conditioning at every handled direction
    assert_allclose(conds, 18.09467005422965, rtol=1e-9)


def test_condition_map_generic_directions_are_finite_unbiased():
    p = VehicleParams()
    _, log10_cond = condition_map(p, 200)
    assert np.all(np.isfinite(log10_cond[14:]))


def test_wasted_force_index_bounds_and_errors():
    p = VehicleParams()
    thrusts = np.full(12, 3.0)
    assert wasted_force_index(thrusts, np.array([0.0, 0.0, 36.0])) == 1.0
    assert_allclose(wasted_force_index(thrusts, np.array([0.0, 0.0, 18.0])), 0.5)
    with pytest.raises(ValueError):
        wasted_force_index(np.zeros(12), np.zeros(3))
    with pytest.raises(ValueError):
        wasted_force_index(np.array([-1.0] + [1.0] * 11), np.zeros(3))


def test_hover_power_reference_value():
    p = VehicleParams()
    f_h = p.m * p.g_mag / 12.0
    assert_allclose(hover_power(p), 12.0 * f_h**1.5, rtol=1e-15)
    assert_allclose(hover_power(p), 70.9582465397786, rtol=1e-12)


def test_power_efficiency_hover_is_one():
    p = VehicleParams()
    f_h = p.m * p.g_mag / 12.0
    total, eta = power_efficiency(np.full(12, f_h), p)
    assert_allclose(total, hover_power(p), rtol=1e-12)
    assert_allclose(eta, 1.0, rtol=1e-12)
    # unequal thrusts carrying the same weight cost more power
    uneven = np.full(12, f_h)
    uneven[0] += 1.0
    uneven[6] -= 1.0
    total_uneven, eta_uneven = power_efficiency(uneven, p)
    assert total_uneven > total
    assert eta_uneven < 1.0


def test_hover_sweep_z_and_arm_axis_values():
    p = VehicleParams()
    _, eta_P, eta_f, total_power = hover_sweep(p, 8)
    # +z and -z: perfectly aligned thrust
    assert np.all(eta_f[:2] == 1.0)
    assert_allclose(eta_P[:2], 1.0, rtol=1e-9)
    assert_allclose(total_power[:2], hover_power(p), rtol=1e-9)
    # arm axes: the aligned pair idles and the rest fight geometry;
    # sqrt(3)/2 falls out of the 60 degree arm spacing
    assert_allclose(eta_f[2:8], np.sqrt(3.0) / 2.0, rtol=1e-9)
    assert_allclose(eta_P[2:8], 0.6580370064762462, rtol=1e-9)


def test_hover_sweep_mid_arm_value():
    """Halfway between adjacent arms the force index drops to exactly 3/4."""
    p = VehicleParams()
    alc = Allocator(p)
    d = np.array([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0), 0.0])
    w = np.concatenate([p.m * p.g_mag * d, np.zeros(3)])
    alpha, Omega, _ = static_allocation(w, alc)
    from omnidyn.allocation import build_A_alpha

    F = (build_A_alpha(p, alpha) @ Omega)[:3]
    eta = wasted_force_index(p.c_f * Omega, F)
    assert_allclose(eta, 0.75, rtol=1e-9)


def test_hover_sweep_ranges():
    p = VehicleParams()
    _, eta_P, eta_f, total_power = hover_sweep(p, 150)
    assert np.all(eta_f > 0.0) and np.all(eta_f <= 1.0)
    assert np.all(eta_P > 0.0) and np.all(eta_P <= 1.0)
    assert np.all(total_power >= hover_power(p) * (1.0 - 1e-12))


def test_envelope_runtime_budget():
    import time

    p = VehicleParams()
    t0 = time.perf_counter()
    force_envelope(p, 2000)
    assert time.perf_counter() - t0 < 5.0


NAN, INF = float("nan"), float("inf")


def sweep_wrenches(params, n=300):
    """The wrenches the four sweeps allocate at n directions."""
    zero = np.zeros((n, 3))
    weight = params.m * params.g_mag
    return np.vstack([np.hstack([envelope_directions(n), zero]), np.hstack([zero, envelope_directions(n)]),
                      np.hstack([condmap_directions(n), zero]),
                      np.hstack([weight * efficiency_directions(n), zero])])


def static_edge_wrenches(params):
    """Random wrenches over six decades, zero forces with and without torque,
    signed zeros, forces along each arm axis (the aligned pair degenerates)
    and a force whose norm overflows."""
    rng = np.random.default_rng(15)
    cases = list(rng.normal(size=(200, 6)) * np.repeat(10.0 ** np.arange(-3, 3), 200 // 6 + 1)[:200, None])
    cases += [np.zeros(6), -np.zeros(6), np.array([0.0, -0.0, 0.0, 0.1, -0.2, 0.3]),
              np.array([-0.0, 0.0, -0.0, -0.0, 0.0, -0.0])]
    cases += [np.concatenate([axis, np.zeros(3)]) for axis in params.arm_axes]
    cases += [np.array([1e300, 1e300, 1.0, 0.0, 0.0, 0.0])]
    return cases


NON_FINITE_WRENCHES = [np.array([INF, 0.0, 1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, NAN, 0.0, 0.0]),
                       np.array([NAN, 0.0, 0.0, 0.0, 0.0, 0.0]),
                       np.array([0.0, 0.0, 1.7976931348623157e308, 0.0, 0.0, 0.0])]


def test_static_allocation_matches_the_array_formulas_bit_for_bit(off_nominal_vehicle):
    """static_allocation on Python floats gives the bytes of the array
    formulas, biased and unbiased, for both vehicles, on every sweep wrench
    and on the edge cases; its outputs stay ndarrays. A wrench whose A^+ w
    is not finite raises FloatingPointError."""
    held = 0
    for p in (VehicleParams(), off_nominal_vehicle):
        for sp in (None, SingularityParams()):
            allocator = Allocator(p, sp)
            for w in NON_FINITE_WRENCHES:
                with pytest.raises(FloatingPointError, match="not finite"):
                    static_allocation(w, allocator)
            for w in [*sweep_wrenches(p, 100), *static_edge_wrenches(p)]:
                with np.errstate(over="ignore"):
                    want = array_formulas.static_allocation(p, sp, w)
                got = static_allocation(w, allocator)
                assert all(isinstance(a, np.ndarray) for a in got)
                for name, a, b in zip(("alpha", "Omega", "u"), got, want):
                    assert same_bits(a, b), (name, w)
                u = want[2]
                mag = np.hypot(u[0::4] + u[2::4], u[1::4] + u[3::4])
                held += bool(np.any(mag <= 1e-9 * mag.max()))
    # The arm-axis forces and the zero wrenches exercise the hold.
    assert held >= 4 * (6 + 4)
    zero_alpha, zero_Omega, _ = static_allocation(np.zeros(6), Allocator(VehicleParams(), SingularityParams()))
    assert same_bits(zero_alpha, np.zeros(6)) and same_bits(zero_Omega, np.zeros(12))


def test_envelopes_match_the_array_formula_bit_for_bit(off_nominal_vehicle):
    for p in (VehicleParams(), off_nominal_vehicle):
        for sweep, torque in ((force_envelope, False), (torque_envelope, True)):
            dirs, radius = sweep(p, 300)
            wrenches = np.hstack([np.zeros_like(dirs), dirs] if torque else [dirs, np.zeros_like(dirs)])
            assert same_bits(radius, array_formulas.envelope_radius(p, wrenches))


def test_envelope_peak_is_the_np_max_of_finite_speeds(monkeypatch):
    """The envelope peak is np.max of the speeds, and signed zeros give
    radius 0. NaN speeds cannot reach it: the wrenches that would give them
    raise FloatingPointError in static_allocation."""
    p = VehicleParams()
    for w in NON_FINITE_WRENCHES:
        with pytest.raises(FloatingPointError):
            static_allocation(w, Allocator(p))
    speeds = [np.array(row, dtype=float) for row in (
        [-0.0] * 12, [0.0, -0.0] * 6, [0.5] * 12, [0.0] * 11 + [p.Omega_max], list(range(12)))]
    calls = iter(speeds)
    monkeypatch.setattr(analysis, "static_allocation", lambda w, allocator: (np.zeros(6), next(calls), None))
    _, radius = force_envelope(p, len(speeds))
    peak = np.array([np.max(Omega) for Omega in speeds])
    assert same_bits(radius, np.divide(p.Omega_max, peak, out=np.zeros(len(peak)), where=peak > 0.0))
    assert np.array_equal(radius[:2], np.zeros(2))


# One direction, a whole block, a block and one more, and a partial last block.
SWEEP_SIZES = (1, BLOCK_DIRS, BLOCK_DIRS + 1, 300)


def test_condition_maps_match_the_array_formula_bit_for_bit(off_nominal_vehicle):
    """condition_map gives the bytes of the array formula of each direction,
    the +inf rank-deficient rows included, biased and unbiased, whether the
    directions fill one block, more, or less."""
    for n in SWEEP_SIZES:
        for p in (VehicleParams(), off_nominal_vehicle):
            for sp in (None, SingularityParams()):
                dirs, got = condition_map(p, n, sp)
                want = [array_formulas.log10_cond(array_formulas.build_A_alpha(
                    p, array_formulas.static_allocation(p, sp, np.concatenate([d, np.zeros(3)]))[0]))
                    for d in dirs]
                assert same_bits(got, want)
                # The unbiased map is rank deficient at both poles and the 12 in-plane azimuths.
                assert sp is not None or np.count_nonzero(np.isinf(got)) >= min(n, 14)


def test_stacked_log10_cond_gives_the_bytes_of_each_matrix():
    """One log10_cond call on a stack gives, per matrix, the bytes of the
    array formula and of its own call, the +inf rows included (the condition
    map's rank-deficient tilts, zero, rank one and scaled to the float
    limits); one matrix gives a 0-d ndarray."""
    rng = np.random.default_rng(16)
    p = VehicleParams()
    A = p.sin_cols + p.cos_cols
    rank_one = np.outer(rng.normal(size=6), rng.normal(size=12))
    poles = [static_allocation(np.array([0.0, 0.0, z, 0.0, 0.0, 0.0]), Allocator(p))[0] for z in (1.0, -1.0)]
    tilts = np.vstack([poles, np.zeros((1, 6)), rng.uniform(-np.pi, np.pi, (40, 6))])
    matrices = np.concatenate([
        np.stack([A, 1e-300 * A, 1e300 * A, 5e-324 * A, np.zeros((6, 12)), rank_one, rng.normal(size=(6, 12))]),
        build_A_alpha(p, tilts)])
    got = log10_cond(matrices)
    assert got.shape == (len(matrices),)
    assert np.count_nonzero(np.isinf(got)) >= 6
    for value, M in zip(got, matrices):
        single = log10_cond(M)
        assert isinstance(single, np.ndarray) and single.shape == ()
        assert same_bits(value, single) and same_bits(single, array_formulas.log10_cond(M))
    assert same_bits(log10_cond(matrices.reshape(2, -1, 6, 12)), got.reshape(2, -1))


def test_hover_sweep_matches_the_array_formulas_bit_for_bit(off_nominal_vehicle):
    for n in SWEEP_SIZES:
        for p in (VehicleParams(), off_nominal_vehicle):
            dirs, *got = hover_sweep(p, n)
            want = np.array([array_formulas.hover_indices(p, np.concatenate([p.m * p.g_mag * d, np.zeros(3)]))
                             for d in dirs]).T
            for a, b in zip(got, want):
                assert same_bits(a, b)


def test_stacked_matmul_gives_the_bytes_of_each_rows_dot(off_nominal_vehicle):
    """hover_sweep forms F_b as one stacked matmul per block. On build_A_alpha
    stacks of random and sweep tilts (the efficiency sweep's and the biased
    condition map's), with speeds in [0, Omega_max] ends included,
    (A @ Omega[..., None])[..., 0] gives each row's A_i.dot(Omega_i) byte for
    byte, in stacks of one, of a block and of more."""
    rng = np.random.default_rng(24)
    for p in (VehicleParams(), off_nominal_vehicle):
        efficiency = [static_allocation(np.concatenate([p.m * p.g_mag * d, np.zeros(3)]), Allocator(p))[:2]
                      for d in efficiency_directions(200)]
        biased = [static_allocation(np.concatenate([d, np.zeros(3)]), Allocator(p, SingularityParams()))[0]
                  for d in condmap_directions(200)]
        alpha = np.vstack([[a for a, _ in efficiency], biased, rng.uniform(-np.pi, np.pi, (200, 6))])
        ends = rng.choice([0.0, p.Omega_max], (200, 12))
        sweep_speeds = np.vstack([[o for _, o in efficiency], ends, rng.uniform(0.0, p.Omega_max, (200, 12))])
        for Omega in (sweep_speeds, rng.uniform(0.0, p.Omega_max, sweep_speeds.shape)):
            for rows in (slice(0, 1), slice(0, BLOCK_DIRS), slice(None)):
                A = build_A_alpha(p, alpha[rows])
                got = (A @ Omega[rows][..., None])[..., 0]
                assert same_bits(got, [A_i.dot(Omega_i) for A_i, Omega_i in zip(A, Omega[rows])])


def test_each_sweep_calls_static_allocation_once_per_direction(monkeypatch):
    """The benchmark stamps every sweep step at a call of the module global
    analysis.static_allocation, so each sweep makes exactly one such call
    per direction."""
    calls = []
    original = analysis.static_allocation

    def counted(w, allocator):
        calls.append(1)
        return original(w, allocator)

    monkeypatch.setattr(analysis, "static_allocation", counted)
    p = VehicleParams()
    sweeps = (lambda n: force_envelope(p, n), lambda n: torque_envelope(p, n), lambda n: condition_map(p, n),
              lambda n: condition_map(p, n, SingularityParams()), lambda n: hover_sweep(p, n))
    for sweep in sweeps:
        for n in (1, BLOCK_DIRS + 1, 300):
            calls.clear()
            sweep(n)
            assert len(calls) == n


def test_each_block_forms_its_own_wrenches(monkeypatch):
    """No wrench array spans the whole sweep: every wrench static_allocation
    receives is a row of an array of at most BLOCK_DIRS rows."""
    rows = []
    original = analysis.static_allocation

    def recorded(w, allocator):
        rows.append(len(w.base))
        return original(w, allocator)

    monkeypatch.setattr(analysis, "static_allocation", recorded)
    p = VehicleParams()
    n = 3 * BLOCK_DIRS + 5
    for sweep in (force_envelope, torque_envelope, condition_map,
                  lambda p, n: condition_map(p, n, SingularityParams()), hover_sweep):
        rows.clear()
        sweep(p, n)
        assert len(rows) == n and max(rows) <= BLOCK_DIRS


def test_efficiency_indices_match_the_array_formulas_bit_for_bit():
    """power_efficiency and wasted_force_index on floats return or raise as
    the array formulas do, on signed zeros, NaN, inf and negative thrusts."""
    p = VehicleParams()
    rng = np.random.default_rng(17)
    thrusts = [rng.uniform(0.0, 10.0, 12) for _ in range(50)]
    thrusts += [np.array(row, dtype=float) for row in (
        [0.0] * 12, [-0.0] * 12, [NAN] + [1.0] * 11, [INF] + [1.0] * 11, [-1.0] + [1.0] * 11,
        [NAN, -1.0] + [1.0] * 10, [1e300] * 12, [5e-324] * 12)]
    forces = [np.array([0.3, -0.4, 12.0]), np.array([-0.0, 0.0, -0.0]), np.array([NAN, 0.0, 0.0]), np.full(3, 1e300)]

    def outcome(f, *args):
        try:
            with np.errstate(all="ignore"):
                return f(*args)
        except ValueError as exc:
            return str(exc)

    for f in thrusts:
        got, want = outcome(power_efficiency, f, p), outcome(array_formulas.power_efficiency, f, p)
        assert got == want if isinstance(want, str) else same_bits(got, want)
        for F in forces:
            got, want = outcome(wasted_force_index, f, F), outcome(array_formulas.wasted_force_index, f, F)
            assert got == want if isinstance(want, str) else same_bits(got, want)


def test_stacked_efficiency_indices_keep_the_rules_on_every_row():
    """power_efficiency and wasted_force_index on a stack give each row the
    bytes of its own call: a zero-power row gives (0, 0), and one negative
    thrust, or one row of zero total thrust, raises for the whole stack."""
    p = VehicleParams()
    rng = np.random.default_rng(18)
    thrusts = np.vstack([rng.uniform(0.0, 10.0, (30, 12)), np.zeros((1, 12)), -np.zeros((1, 12)),
                         np.full((1, 12), INF), np.full((1, 12), 5e-324), [[NAN] + [1.0] * 11]])
    forces = np.vstack([rng.normal(size=(len(thrusts) - 1, 3)) * 20.0, [[-0.0, 0.0, -0.0]]])
    forces[3] = NAN
    with np.errstate(all="ignore"):
        total, eta = power_efficiency(thrusts, p)
        assert total.shape == eta.shape == (len(thrusts),)
        for k, f in enumerate(thrusts):
            assert same_bits((total[k], eta[k]), power_efficiency(f, p))
            assert same_bits((total[k], eta[k]), array_formulas.power_efficiency(f, p))
        assert same_bits((total[30:32], eta[30:32]), np.zeros((2, 2)))
        assert same_bits(power_efficiency(thrusts.reshape(5, -1, 12), p), (total.reshape(5, -1), eta.reshape(5, -1)))
        positive = np.r_[0:30, 32:len(thrusts)]
        eta_f = wasted_force_index(thrusts[positive], forces[positive])
        assert eta_f.shape == (len(positive),)
        for value, f, F in zip(eta_f, thrusts[positive], forces[positive]):
            assert same_bits(value, wasted_force_index(f, F))
            assert same_bits(value, array_formulas.wasted_force_index(f, F))
    negative = thrusts[:4].copy()
    negative[2, 5] = -1e-300
    for f, match in ((negative, "nonnegative"), (thrusts, "zero total thrust"), (-np.zeros((2, 12)), "zero total")):
        with pytest.raises(ValueError, match=match):
            wasted_force_index(f, np.ones((len(f), 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        power_efficiency(negative, p)
