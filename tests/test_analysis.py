"""Tests for the characterization sweeps: envelopes, condition maps, efficiency."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from omnidyn.allocation import Allocator
from omnidyn.analysis import (
    condition_map,
    condmap_directions,
    efficiency_directions,
    envelope_directions,
    fibonacci_sphere,
    force_envelope,
    hover_power,
    hover_sweep,
    power_efficiency,
    static_allocation,
    torque_envelope,
    wasted_force_index,
)
from omnidyn.mathcore import rotation_from_axis_angle
from omnidyn.singularity import SingularityParams
from omnidyn.vehicle import VehicleParams


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
