import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from potflow import planar_green as pg, vortex as vx
from potflow.errors import (
    CollisionError,
    DomainError,
    ParameterError,
    SingularConfigurationError,
)

DISK = pg.DomainDescriptor.disk(1.0)


def test_pair_force_opposite_attract():
    F = vx.pair_force(0, 1, 1.0, -1.0)
    assert abs(abs(F) - 1 / (2 * math.pi)) < 1e-15
    # directed from a toward b (along b - a)
    assert F.real > 0 and abs(F.imag) < 1e-15


def test_pair_force_equal_repel():
    F = vx.pair_force(0, 1, 1.0, 1.0)
    assert F.real < 0


@settings(max_examples=25, deadline=None)
@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.floats(-2, 2), st.floats(-2, 2))
def test_pair_force_action_reaction(a, b, ga, gb):
    if abs(a - b) < 1e-3:
        return
    assert abs(vx.pair_force(a, b, ga, gb) + vx.pair_force(b, a, gb, ga)) < 1e-12


def test_pair_force_coincident():
    with pytest.raises(SingularConfigurationError):
        vx.pair_force(0.3, 0.3, 1.0, 1.0)


def test_bound_force_zero_h1():
    assert vx.bound_vortex_force(0, 1.0) == 0


def test_bound_force_disk_wall_attraction():
    h1 = pg.robin_data(DISK, 0.5).h1
    F = vx.bound_vortex_force(h1, 1.0)
    assert abs(F - 1 / (3 * math.pi)) < 1e-12     # +0.1061033, toward the wall
    assert F.real > 0


def test_bound_force_reproduces_pair_force():
    # plane two-vortex expansion: h1(a) = 1/(a-b) for opposite strengths
    a, b = 0.2 + 0.1j, -0.7 + 0.4j
    F = vx.bound_vortex_force(1 / (a - b), 1.0)
    assert abs(F - vx.pair_force(a, b, 1.0, -1.0)) < 1e-15


def test_single_plane_vortex_is_still():
    assert vx.free_vortex_velocity(vx.VortexSystem([0.3 + 0.1j], [1.0]), 0) == 0


def test_single_disk_vortex_velocity():
    system = vx.VortexSystem([0.5], [1.0], DISK)
    v = vx.free_vortex_velocity(system, 0)
    assert abs(abs(v) - 1 / (3 * math.pi)) < 1e-12
    assert abs(v - 1j / (3 * math.pi)) < 1e-12      # tangential
    assert abs(abs(v) / 0.5 - 1 / (2 * math.pi * 0.75)) < 1e-12


def test_pair_translation_velocity():
    pair = vx.VortexSystem([0.0, 1.0], [1.0, -1.0])
    v0 = vx.free_vortex_velocity(pair, 0)
    v1 = vx.free_vortex_velocity(pair, 1)
    assert abs(v0 - v1) < 1e-15                      # rigid translation
    assert abs(abs(v0) - 1 / (2 * math.pi)) < 1e-15
    assert abs(v0.real) < 1e-15                      # perpendicular to the chord


def test_rotation_equivariance():
    rot = cmath.exp(0.7j)
    sys1 = vx.VortexSystem([0.5, -0.2 + 0.3j], [1.0, 0.5], DISK)
    sys2 = vx.VortexSystem([rot * z for z in sys1.positions], [1.0, 0.5], DISK)
    for k in range(2):
        v1 = vx.free_vortex_velocity(sys1, k)
        v2 = vx.free_vortex_velocity(sys2, k)
        assert abs(v2 - rot * v1) < 1e-12


def test_forced_velocity_cases():
    h1 = pg.robin_data(DISK, 0.5).h1
    assert vx.forced_vortex_velocity(h1, 1.0, 0.0) == \
        vx.free_vortex_velocity(vx.VortexSystem([0.5], [1.0], DISK), 0)
    # the bound force holds the vortex in place
    F = vx.bound_vortex_force(h1, 1.0)
    assert abs(vx.forced_vortex_velocity(h1, 1.0, F)) < 1e-15
    assert abs(vx.forced_vortex_velocity(0.0, 1.0, 1j) - 1.0) < 1e-15
    with pytest.raises(ParameterError):
        vx.forced_vortex_velocity(0.0, 0.0, 1j)


def test_stream_function_boundary_and_linearity():
    system = vx.VortexSystem([0.5], [1.0], DISK)
    for th in (0.0, 1.1, 3.9):
        assert abs(vx.stream_function(system, 0.999999999 * cmath.exp(1j * th))) < 1e-8
    double = vx.VortexSystem([0.5], [2.0], DISK)
    z = -0.3 + 0.2j
    assert abs(vx.stream_function(double, z)
               - 2 * vx.stream_function(system, z)) < 1e-14


def test_stream_function_near_vortex_expansion():
    system = vx.VortexSystem([0.5], [1.0], DISK)
    h0 = pg.robin_data(DISK, 0.5).h0
    for r in (1e-3, 1e-4):
        z = 0.5 + r * cmath.exp(0.3j)
        reg = vx.stream_function(system, z) + math.log(abs(z - 0.5)) / (2 * math.pi)
        assert abs(reg - h0 / (2 * math.pi)) < 5 * r


def test_vortex_system_validation():
    with pytest.raises(SingularConfigurationError):
        vx.VortexSystem([0.1, 0.3, 0.1], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError, match="outside the disk"):
        vx.VortexSystem([0.2, 1.5, 0.3j], [1.0, 1.0, 1.0], DISK)
    for zs, gs in (([], []), ([0.1, math.nan], [1.0, 1.0]),
                   ([0.1, 0.2], [1.0, math.inf]), ([0.1], [1.0, 1.0])):
        with pytest.raises(ParameterError):
            vx.VortexSystem(zs, gs, DISK)
    # moduli above 1e100 would overflow the monitors and the energy
    for zs, gs in (([0.1, 1e154j], [1.0, 1.0]), ([0.1, 0.2], [1.0, -1e300])):
        with pytest.raises(ParameterError, match="modulus"):
            vx.VortexSystem(zs, gs)
    vx.VortexSystem([0.1, 1e100], [1e100, 5e-324])


def test_simulate_rejects_nonfinite_t_end():
    system = vx.VortexSystem([0.5 + 0j], [1.0], DISK)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="t_end"):
            vx.simulate(system, t_end)


def test_pair_translation_simulation():
    pair = vx.VortexSystem([0.0, 1.0], [1.0, -1.0])
    traj = vx.simulate(pair, 10.0, 1e-10)
    displacement = abs(traj.final_state[0] - pair.positions[0])
    assert abs(displacement - 10 / (2 * math.pi)) < 1e-6
    assert np.max(np.abs(traj.monitors["energy"]
                         - traj.monitors["energy"][0])) < 1e-8
    assert np.max(np.abs(traj.monitors["moment"]
                         - traj.monitors["moment"][0])) < 1e-8
    assert np.max(np.abs(traj.monitors["angular"]
                         - traj.monitors["angular"][0])) < 1e-8


def test_equal_pair_period():
    period = 2 * math.pi ** 2            # T = 2 pi^2 d^2 / Gamma, d = 1
    pair = vx.VortexSystem([0.5, -0.5], [1.0, 1.0])
    traj = vx.simulate(pair, period, 1e-10)
    assert np.max(np.abs(traj.final_state - pair.positions)) < 1e-6
    assert np.max(np.abs(traj.monitors["energy"]
                         - traj.monitors["energy"][0])) < 1e-8


def test_disk_vortex_radius_conserved():
    system = vx.VortexSystem([0.5], [1.0], DISK)
    period = 4 * math.pi ** 2 * 0.75
    traj = vx.simulate(system, period, 1e-10)
    assert np.max(np.abs(traj.monitors["radius_0"] - 0.5)) < 1e-9
    assert abs(traj.final_state[0] - 0.5) < 1e-6


def test_disk_multivortex_energy_conserved():
    system = vx.VortexSystem([0.4, -0.3 + 0.2j, 0.1 - 0.5j],
                             [1.0, -0.7, 0.4], DISK)
    traj = vx.simulate(system, 5.0, 1e-10)
    drift = np.max(np.abs(traj.monitors["energy"] - traj.monitors["energy"][0]))
    assert drift < 1e-7


@pytest.mark.parametrize("domain", [DISK, None])
def test_hamiltonian_is_the_first_energy_monitor_bit_for_bit(domain):
    system = vx.VortexSystem([0.4, -0.3 + 0.2j, 0.1 - 0.5j], [1.0, -0.7, 0.4], domain)
    energy = vx.simulate(system, 0.1, 1e-10).monitors["energy"][0]
    assert np.float64(vx.hamiltonian(system)).tobytes() == np.float64(energy).tobytes()


def test_time_reversal():
    tol = 1e-10
    system = vx.VortexSystem([0.5, -0.5], [1.0, 1.0])
    fwd = vx.simulate(system, 5.0, tol)
    # negated strengths run the motion backwards in time
    back = vx.VortexSystem(fwd.final_state, -system.strengths)
    rev = vx.simulate(back, 5.0, tol)
    assert np.max(np.abs(rev.final_state - system.positions)) < 100 * tol


def test_collision_abort_with_time():
    # opposite-rotation merging pair: strengths tuned to draw them together
    system = vx.VortexSystem([0.2, -0.2], [1.0, -1.0], DISK)
    try:
        traj = vx.simulate(system, 50.0, 1e-8)
    except CollisionError as err:
        assert err.time > 0
        return
    # if no collision occurs, conservation must still hold
    drift = np.max(np.abs(traj.monitors["energy"] - traj.monitors["energy"][0]))
    assert drift < 1e-6


def test_separation_guard_pairs_and_wall(monkeypatch):
    guards = []

    def record(field, state0, *args, separation=None, **kwargs):
        guards.append(separation)
        return vx.numkit.Trajectory(np.zeros(1), np.array([state0]))

    monkeypatch.setattr(vx.numkit, "rk_integrate", record)
    vx.simulate(vx.VortexSystem([0.5, -0.5], [1.0, 1.0], DISK), 1.0)
    vx.simulate(vx.VortexSystem([0.5, -0.5], [1.0, 1.0]), 1.0)
    in_disk, in_plane = guards
    y = np.array([0.3, 0.3 + 2e-3j, 0.999j])      # pair 2e-3 apart, wall 1e-3 off
    assert abs(in_disk(y) - 1e-3) < 1e-15
    assert abs(in_plane(y) - 2e-3) < 1e-15


def test_vortex_json_roundtrip():
    system = vx.VortexSystem([0.5, -0.2 + 0.3j], [1.0, -0.5], DISK)
    import json
    again = vx.VortexSystem.from_dict(json.loads(system.to_json()))
    assert np.allclose(again.positions, system.positions)
    assert np.allclose(again.strengths, system.strengths)
    assert again.domain == system.domain


@st.composite
def vortex_configurations(draw):
    """(positions, strengths, domain): 2-40 vortices of mixed sign in the
    plane or a disk, kept 1e-3 R apart and 1e-3 R inside the wall."""
    domain = draw(st.sampled_from([None, "disk"]))
    R = 1.0 if domain is None else draw(st.floats(0.5, 2.0))
    if domain is not None:
        domain = pg.DomainDescriptor.disk(R)
    polar = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 2 * math.pi)),
                          min_size=2, max_size=40))
    kept = []
    for u, th in polar:
        z = R * (1 - 1e-3) * math.sqrt(u) * cmath.exp(1j * th)
        if all(abs(z - w) >= 1e-3 * R for w in kept):
            kept.append(z)
    assume(len(kept) >= 2)
    g = draw(st.lists(st.floats(-2, 2), min_size=len(kept), max_size=len(kept)))
    return np.array(kept), np.array(g), domain


def _config(z, g, R=None):
    return (np.array(z, dtype=complex), np.array(g, dtype=float),
            None if R is None else pg.DomainDescriptor.disk(R))


@settings(max_examples=60, deadline=None)
@given(vortex_configurations())
# cases the strategy cannot reach: a vortex exactly at the centre (its image
# is at infinity) or a subnormal distance off it beside others, a
# zero-strength tracer, the radii at the ends of the strategy's range, and a
# lone vortex at and off the centre
@example(_config([0, 0.5, -0.3 + 0.4j], [1.0, -0.7, 0.4], 1.0))
@example(_config([1e-310j, 0.5, -0.3 + 0.4j], [1.0, -0.7, 0.4], 1.0))
# a vortex 1e-154 from the centre beside a tracer: its own image term is its
# whole velocity, about 1e-154
@example(_config([1.0537e-154, 0.999], [1.0, 0.0], 1.0))
@example(_config([0, 0.5, -0.3 + 0.4j], [1.0, -0.7, 0.4]))
@example(_config([0.5, -0.2 + 0.3j, 0.1 - 0.6j], [1.0, 0.0, -0.5], 1.0))
@example(_config([0.2, -0.1 + 0.3j, 0.05 - 0.4j, 0], [0.6, -1.2, 0.9, 0.3], 0.5))
@example(_config([1.5, -1 + 1j, 0.3 - 1.8j, 0], [-0.6, 1.2, 0.9, 0.3], 2.0))
@example(_config([0], [1.3], 1.0))
@example(_config([0.3 - 0.4j], [-0.8], 1.0))
@example(_config([0.3 - 0.4j], [-0.8]))
def test_pairwise_arrays_match_scalar_kirchhoff_routh(config):
    # Scalar oracle, one pair at a time: in the plane dz_k/dt is the sum of
    # i * pair_force(z_k, z_j, 1, G_j); in the disk Gamma_k h1_k sums
    # G_j 4pi dG/dz(z_k, z_j) and adds Gamma_k h1_Robin(z_k).  Both sides
    # are sums of terms of either sign, so they are compared relative to
    # the sum of the terms' magnitudes.
    z, g, domain = config
    n = len(z)
    v = vx._field_of(g, domain)(z)
    for k in range(n):
        if domain is None:
            terms = [1j * vx.pair_force(z[k], z[j], 1.0, g[j])
                     for j in range(n) if j != k]
        else:
            parts = [g[j] * 4 * math.pi * pg.green_z_derivative(domain, z[k], z[j])
                     for j in range(n) if j != k]
            parts.append(g[k] * pg.robin_data(domain, z[k]).h1)
            terms = [p.conjugate() / (2j * math.pi) for p in parts]
        scale = sum(abs(t) for t in terms) + 1e-300
        assert abs(v[k] - sum(terms)) <= 1e-12 * scale
    terms = [g[j] * g[k] * (-math.log(abs(z[j] - z[k])) / (2 * math.pi)
                            if domain is None else pg.green(domain, z[j], z[k]))
             for j in range(n) for k in range(j + 1, n)]
    if domain is not None:
        terms += [g[k] ** 2 * pg.robin_data(domain, z[k]).h0 / (4 * math.pi)
                  for k in range(n)]
    scale = sum(abs(t) for t in terms) + 1e-300
    assert abs(vx._energy_of(g, domain)(z) - sum(terms)) <= 1e-12 * scale


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("theta", [0.0, 0.7, 2.0])
def test_field_beside_the_wall_matches_mpmath_to_its_conditioning(R, theta):
    # a vortex 1e-9 R inside the wall: its Robin term -conj(a)/(R^2 - |a|^2)
    # loses about log10(R / distance) = 9 digits to cancellation in any
    # double evaluation, the scalar oracle's expression above and the
    # field's R^2/a - conj(a) alike (each is off a 50-digit value by about
    # 2e-8 relative at random angles), so the 1e-12 comparison of the test
    # above cannot hold here.  The field is held to a 50-digit evaluation of
    # the same sums instead, within the rounding bound 10 eps R / distance
    # relative to the sum of the terms' magnitudes.
    mp = pytest.importorskip("mpmath")
    distance = 1e-9 * R
    z = np.array([(R - distance) * cmath.exp(1j * theta), 0.3 * R + 0.1j * R,
                  -0.4j * R])
    g = np.array([1.0, -0.5, 0.8])
    v = vx._field_of(g, pg.DomainDescriptor.disk(R))(z)
    with mp.workdps(50):
        zs = [mp.mpc(p.real, p.imag) for p in z]

        def image(a, b):
            return -mp.conj(b) / (R * R - a * mp.conj(b))

        for k in range(len(z)):
            parts = [g[j] * (-1 / (zs[k] - zs[j]) + image(zs[k], zs[j]))
                     for j in range(len(z)) if j != k]
            parts.append(g[k] * image(zs[k], zs[k]))
            terms = [mp.conj(p) / (2j * mp.pi) for p in parts]
            scale = sum(abs(t) for t in terms)
            err = abs(mp.mpc(v[k].real, v[k].imag) - sum(terms))
            assert err <= 10 * np.finfo(float).eps * R / distance * scale


def test_simulate_builds_no_vortex_system(monkeypatch):
    system = vx.VortexSystem([0.4, -0.3 + 0.2j, 0.1 - 0.5j], [1.0, -0.7, 0.4], DISK)
    builds = []
    post_init = vx.VortexSystem.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(vx.VortexSystem, "__post_init__", counted)
    traj = vx.simulate(system, 1.0, 1e-10)
    assert builds == [] and len(traj.times) > 2


def test_zero_strength_disk_vortex_is_a_tracer():
    # a zero-strength vortex moves with the flow and acts on nothing: the
    # other vortex keeps its radius and follows its lone orbit
    system = vx.VortexSystem([0.5, -0.2 + 0.3j], [1.0, 0.0], DISK)
    traj = vx.simulate(system, 3.0, 1e-10)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.monitors["radius_0"] - 0.5)) < 1e-9
    lone = vx.simulate(vx.VortexSystem([0.5], [1.0], DISK), 3.0, 1e-10)
    assert abs(traj.final_state[0] - lone.final_state[0]) < 1e-8
    assert abs(traj.final_state[1] - system.positions[1]) > 1e-2   # advected


def test_two_ring_disk_run_reproduces_recorded_steps_and_state():
    # 6 unit vortices on r = 0.3 and 10 on r = 0.6: counts and final state
    # recorded from the per-stage reference integrator (t = 2, tol = 1e-10)
    z0 = np.r_[0.3 * np.exp(2j * np.pi * np.arange(6) / 6),
               0.6 * np.exp(2j * np.pi * np.arange(10) / 10)]
    traj = vx.simulate(vx.VortexSystem(z0, np.ones(16), DISK), 2.0, 1e-10)
    recorded = np.array([
        -0.24267366008367214 + 0.15863575596419516j,
        -0.2819137527829033 - 0.1381116628638571j,
        -0.019651636619709253 - 0.2953839300363859j,
        0.24267366008367655 - 0.1586357559641983j,
        0.28191375278289904 + 0.1381116628638529j,
        0.019651636619707858 + 0.2953839300363899j,
        -0.5926480784065675 + 0.08223803802213012j,
        -0.5391188120488528 - 0.28357939846361296j,
        -0.2561420418566446 - 0.5362506037000238j,
        0.10931370725939986 - 0.5929885000232806j,
        0.42423356777612586 - 0.41708813415877477j,
        0.5926480784065683 - 0.08223803802212598j,
        0.5391188120488496 + 0.28357939846361335j,
        0.2561420418566457 + 0.5362506037000229j,
        -0.1093137072593997 + 0.5929885000232819j,
        -0.42423356777612353 + 0.41708813415877427j,
    ])
    assert (len(traj.times), traj.steps_rejected, traj.field_evals) == (316, 0, 1891)
    assert np.max(np.abs(traj.final_state - recorded)) < 1e-12


def test_disk_radius_monitors_are_abs_of_each_state_bit_for_bit():
    system = vx.VortexSystem([0.5, -0.3 + 0.2j, 0.1 - 0.6j], [1.0, -0.7, 2.0], DISK)
    traj = vx.simulate(system, 1.0)
    assert len(traj.times) > 10
    for k in range(system.n):
        want = np.array([abs(y[k]) for y in traj.states])
        assert traj.monitors[f"radius_{k}"].tobytes() == want.tobytes(), k


@pytest.mark.parametrize("R", [1e-20, 1e20])
def test_disk_collision_bounds_are_relative_to_the_radius(R):
    disk = pg.DomainDescriptor.disk(R)
    # a lone vortex at the centre stays there
    traj = vx.simulate(vx.VortexSystem([0j], [1.0], disk), 0.1)
    assert traj.final_state[0] == 0
    assert abs(traj.monitors["energy"][-1] - math.log(R) / (4 * math.pi)) < 1e-13
    with pytest.raises(SingularConfigurationError):
        vx.VortexSystem(np.array([0.3, 0.3 + 1e-11]) * R, [1.0, -0.5], disk)
    with pytest.raises(CollisionError):
        vx.simulate(vx.VortexSystem([R * (1 - 1e-11)], [1.0], disk), 0.1)
