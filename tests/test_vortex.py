import cmath
import math
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from potflow import numkit, planar_green as pg, vortex as vx
from rk_oracles import seven_call_dormand_prince
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
    with pytest.raises(DomainError, match=r"^\(1\.5\+0j\) is not interior to disk$"):
        vx.VortexSystem([0.2, 1.5, 0.3j], [1.0, 1.0, 1.0], DISK)
    for zs, gs in (([], []), ([0.1, 0.2], [1.0, math.inf]), ([0.1], [1.0, 1.0])):
        with pytest.raises(ParameterError):
            vx.VortexSystem(zs, gs, DISK)
    # a position the disk does not contain, nan included, is refused as a point
    with pytest.raises(DomainError, match=r"^\(0\.1\+nanj\) is not interior to disk$"):
        vx.VortexSystem([0.2, complex(0.1, math.nan)], [1.0, 1.0], DISK)
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
    # recorded from the 13-call DOP853 loop of rk_oracles (t = 2, tol = 1e-10)
    z0 = np.r_[0.3 * np.exp(2j * np.pi * np.arange(6) / 6),
               0.6 * np.exp(2j * np.pi * np.arange(10) / 10)]
    traj = vx.simulate(vx.VortexSystem(z0, np.ones(16), DISK), 2.0, 1e-10)
    recorded = np.array([
        -0.2426736601484885 + 0.1586357558395353j,
        -0.2819137527000971 - 0.1381116629854332j,
        -0.01965163647374836 - 0.2953839300385553j,
        0.242673660148466 - 0.1586357558395249j,
        0.28191375270011315 + 0.13811166298544558j,
        0.019651636473752884 + 0.2953839300385329j,
        -0.5926480784307762 + 0.0822380376090218j,
        -0.539118811807107 - 0.28357939882551786j,
        -0.2561420414742893 - 0.5362506038498978j,
        0.10931370766157941 - 0.5929884999061646j,
        0.42423356804721085 - 0.417088133837244j,
        0.5926480784307732 - 0.08223803760902995j,
        0.5391188118071131 + 0.28357939882552113j,
        0.25614204147428343 + 0.5362506038498956j,
        -0.10931370766157035 + 0.592988499906161j,
        -0.42423356804721385 + 0.4170881338372524j,
    ])
    assert (len(traj.times), traj.steps_rejected, traj.field_evals) == (42, 0, 493)
    assert np.max(np.abs(traj.final_state - recorded)) < 1e-12


def test_disk_radius_monitors_are_abs_of_each_state_bit_for_bit():
    system = vx.VortexSystem([0.5, -0.3 + 0.2j, 0.1 - 0.6j], [1.0, -0.7, 2.0], DISK)
    traj = vx.simulate(system, 2.0)
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
    with pytest.raises(CollisionError) as err:
        vx.simulate(vx.VortexSystem([R * (1 - 1e-11)], [1.0], disk), 0.1)
    # the reported gap is that of z, not of the integrated z / R
    assert 0 <= err.value.separation < vx.COLLISION_THRESHOLD * R
    assert f"(separation {err.value.separation:.3e})" in str(err.value)


def test_gaps_that_do_not_close_cap_no_step():
    # a plane dipole translates at speed 1 / (2pi d) with the gap d fixed:
    # a cap of d over the speed would take 2pi d^2 steps per unit of time
    dipole = vx.simulate(vx.VortexSystem([0j, 1e-2j], [1.0, -1.0]), 10.0)
    assert len(dipole.times) - 1 <= 30
    # a disk vortex near the wall circles at a fixed distance from it
    system = vx.VortexSystem([0.99], [1.0], DISK)
    free = numkit.rk_integrate(vx._field_of(system.strengths, DISK), system.positions,
                               0.2, 1e-10)
    guarded = vx.simulate(system, 0.2)
    assert guarded.times.tobytes() == free.times.tobytes()
    assert guarded.states.tobytes() == free.states.tobytes()


@pytest.mark.parametrize("R", [1e-20, 1e-3, 1e3])
def test_disk_run_is_the_unit_run_scaled(R):
    # z -> R z with t -> R^2 t maps the motion onto itself; the run
    # integrates z / R, so it also takes the same steps at every R
    z0, g = np.array([0.3, -0.2 + 0.1j]), [1.0, -0.5]
    unit = vx.simulate(vx.VortexSystem(z0, g, DISK), 0.1)
    traj = vx.simulate(vx.VortexSystem(R * z0, g, pg.DomainDescriptor.disk(R)), 0.1 * R * R)
    assert len(traj.times) == len(unit.times)
    assert np.max(np.abs(traj.states - R * unit.states)) < 1e-12 * R
    assert np.max(np.abs(traj.times - R * R * unit.times)) < 1e-12 * R * R


def _seed_1_vortex_disk_system():
    """The 16-vortex system of perfbench's vortex-disk workload, seed 1."""
    workloads = runpy.run_path(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    return vx.VortexSystem.from_dict(workloads["vortex_system"](1))


def test_dop853_is_as_accurate_as_the_5_4_method_at_equal_tol():
    system = _seed_1_vortex_disk_system()
    field = vx._field_of(system.strengths, system.domain)
    energy = vx._energy_of(system.strengths, system.domain)
    # the 5(4) loop at a tol 100 times below the tightest one tested
    ref = seven_call_dormand_prince(field, system.positions, 2.0, 1e-14)[1][-1]
    for tol in (1e-12, 1e-10, 1e-8):
        old = seven_call_dormand_prince(field, system.positions, 2.0, tol)[1]
        new = vx.simulate(system, 2.0, tol)
        assert np.max(np.abs(new.final_state - ref)) <= 1.1 * np.max(np.abs(old[-1] - ref)), tol
        old_energy = np.array([energy(z) for z in old])
        assert (np.max(np.abs(new.monitors["energy"] - new.monitors["energy"][0]))
                <= np.max(np.abs(old_energy - old_energy[0]))), tol
