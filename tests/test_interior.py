"""Every public function that takes a point of a domain refuses one outside
it with one message, ``<point> is not interior to <kind>[ (<bounds>)]``,
from ``planar_green._require_interior``; an array names its first bad
element.  Interior points keep their recorded values bit for bit."""

import math
import warnings

import numpy as np
import pytest

from potflow import equilibrium, hadamard, planar_green as pg, schottky, vortex
from potflow.errors import DomainError, ParameterError, PoleError

DISK = pg.DomainDescriptor.disk(1.0)
DISK2 = pg.DomainDescriptor.disk(2.0)
HALF = pg.DomainDescriptor.half_plane()
SLIT = pg.DomainDescriptor.slit_plane()
RECT = pg.DomainDescriptor.rectangle(2.0, 1.0)
DBL = schottky.StripDouble(2j)
VAR = hadamard.BoundaryVariation(DISK, math.cos, 1e-4)
SYSTEM = vortex.VortexSystem([0.3, -0.4j], [1.0, -0.5], DISK2)

# the kind a message names, its bounds, an interior point, a point outside
# and a boundary point
KINDS = {
    "unit disk": ("disk", "", 0.3 + 0.2j, 1.5j, 1 + 0j),
    "disk": ("disk", "", 0.6 + 0.4j, 3j, -2 + 0j),
    "half_plane": ("half_plane", " (Im z > 0, |z| < 1e+100)", 0.5 + 0.7j, 1 - 1j, 2 + 0j),
    "slit_plane": ("slit_plane", " (z off [0, inf), |z| < 1e+100)", -1 + 0.5j, 2 + 0j, 0j),
    "rectangle": ("rectangle", "", 1.2 + 0.3j, 2.5 + 0.5j, 0.5 + 0j),
    "strip": ("periodic_strip", " (-1/2 < Re z < 0, |Im z| <= 2^26 Im tau)",
              -0.2 + 0.3j, 0.3 + 0.1j, -0.5 + 0.4j),
}
NAN, INF = complex(math.nan, 0.5), complex(-0.25, math.inf)

def _mean_x(measure):
    return float(measure.weights @ measure.points.real)


# each public function that checks points: the KINDS entry of its domain,
# a call on one point p, and its value at that entry's interior point
CHECKS = {
    "green": ("half_plane", lambda p: pg.green(HALF, p, 1 + 2j),
              0.1080291398849417),
    "robin_data": ("slit_plane", lambda p: pg.robin_data(SLIT, p),
                   pg.GreenExpansion(1.4707508059779029,
                                     -0.423606797749979 - 0.15278640450004205j)),
    "h1_contour": ("disk", lambda p: pg.h1_contour(DISK2, p),
                   -0.17241379310344826 + 0.11494252873563217j),
    "poisson_value": ("unit disk", lambda p: pg.poisson_value(np.real, p),
                      0.29999999999999993),
    "harmonic_measure": ("rectangle",
                         lambda p: _mean_x(equilibrium.harmonic_measure(RECT, p)),
                         1.200000000000009),
    "hadamard_delta_green": ("unit disk",
                             lambda p: hadamard.hadamard_delta_green(VAR, 0.1j, p),
                             (0.04917197366921533, 0.04917197347164559)),
    "hadamard_delta_h0": ("unit disk", lambda p: hadamard.hadamard_delta_h0(VAR, p),
                          (0.6896551758792113, 0.6896551724137929)),
    "triple_green": ("unit disk", lambda p: hadamard.triple_green(0.1, p, -0.2j),
                     -0.024586487456849347),
    "g_electro_strip": ("strip", lambda p: schottky.g_electro_strip(p, -0.3 + 1.1j, DBL),
                        0.002039783147982352),
    "g_hydro_strip": ("strip", lambda p: schottky.g_hydro_strip(-0.3 + 1.1j, p, DBL),
                      0.06203978314798235),
    "gamma_electro": ("strip", lambda p: schottky.gamma_electro(p, DBL),
                      -1.194899058395439),
    "gamma_electro_gradient": ("strip", lambda p: schottky.gamma_electro_gradient(p, DBL),
                               -1.020791089288536 + 0j),
    "capacity_functions": ("strip", lambda p: schottky.capacity_functions(p, DBL).chain(),
                           [2.569141113857442, 2.7875071964863474, 3.280989226146237,
                            3.303224320909309, 3.3032997175631773]),
    "ahlfors_map_disk": ("unit disk", lambda p: schottky.ahlfors_map_disk(0.5j, p),
                         -0.37837837837837834 + 0.27027027027027023j),
    "circular_slit_map": ("unit disk", lambda p: schottky.circular_slit_map(0.5j, p),
                          -0.3291891891891892 + 0.23513513513513515j),
    "VortexSystem": ("disk", lambda p: vortex.hamiltonian(
        vortex.VortexSystem([0.3, p], [1.0, -0.5], DISK2)), -0.042325833881028604),
    "stream_function": ("disk", lambda p: vortex.stream_function(SYSTEM, p),
                        0.15497377102844065),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_point_check_refuses_with_one_message(name):
    where, call, value = CHECKS[name]
    kind, bounds, inside, outside, boundary = KINDS[where]
    assert call(inside) == value
    for point in (outside, boundary, NAN, INF):
        with pytest.raises(DomainError) as err:
            call(point)
        assert str(err.value) == f"{point} is not interior to {kind}{bounds}"


@pytest.mark.parametrize("call", [
    lambda zs: schottky.g_electro_strip(zs, -0.3 + 1.1j, DBL),
    lambda zs: schottky.g_electro_strip(-0.3 + 1.1j, zs, DBL),
    lambda zs: schottky.g_hydro_strip(zs, -0.3 + 1.1j, DBL),
    lambda zs: schottky.g_hydro_strip(-0.3 + 1.1j, zs, DBL),
], ids=["g_electro z", "g_electro a", "g_hydro z", "g_hydro a"])
def test_strip_arrays_name_their_first_bad_element(call):
    zs = np.array([[-0.2 + 0.3j, -0.1 + 0.5j], [0.3 + 0.1j, -0.5 + 0.4j]])
    with pytest.raises(DomainError) as err:
        call(zs)
    assert str(err.value).startswith("(0.3+0.1j) is not interior to periodic_strip (")


def test_vortex_positions_name_the_first_outside_the_disk():
    with pytest.raises(DomainError) as err:
        vortex.VortexSystem([0.3, 1.9j, 2 + 0j, 3j], [1.0] * 4, DISK2)
    assert str(err.value) == "(2+0j) is not interior to disk"
    # the plane has no domain to refuse them: a position is checked finite
    for point in (NAN, INF):
        with pytest.raises(ParameterError, match="must be finite"):
            vortex.VortexSystem([0.3, point], [1.0, -0.5])


def test_scale_free_kinds_refuse_points_beyond_the_size_bound():
    # G and h0 of larger points overflow (log of 2 Im a, |z - conj a|)
    for dom, big in ((HALF, 1.5e308j), (HALF, 1e100j), (SLIT, -1e308 + 0j), (SLIT, -1e100 + 0j)):
        for call in (lambda: pg.robin_data(dom, big), lambda: pg.green(dom, big, -1 + 1j)):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value).startswith(f"{big} is not interior to {dom.kind} (")
    assert pg.robin_data(HALF, 9e99j).h0 == math.log(1.8e100)
    assert math.isfinite(pg.robin_data(SLIT, -9e99).h0)
    assert math.isfinite(pg.green(HALF, 9e99j, 8e99j))


@pytest.mark.parametrize("dom, z, a", [
    (RECT, 0.7 + 0.3j, 0.7 + 0.3j),
    (pg.DomainDescriptor.periodic_strip(2j), -0.25 + 2.5j, -0.25 + 0.5j),
    (pg.DomainDescriptor.periodic_strip(2j), np.array([-0.1 + 0.2j, -0.25 + 2.5j, -0.25 + 0.5j]),
     -0.25 + 0.5j),
])
def test_poles_of_dg_dz_name_z(dom, z, a):
    with pytest.raises(PoleError) as err:
        pg.green_z_derivative(dom, z, a)
    bad = z if np.ndim(z) == 0 else z[1]
    assert str(err.value) == f"dG/dz pole at z = {bad}, on a or an image of a"


@pytest.mark.parametrize("dom, a", [
    (DISK2, 0.6 + 0.4j), (HALF, 0.5 + 0.7j), (SLIT, -1 + 0.5j), (RECT, 1.2 + 0.3j),
    (pg.DomainDescriptor.periodic_strip(2j), -0.2 + 0.3j)],
    ids=["disk", "half_plane", "slit_plane", "rectangle", "periodic_strip"])
def test_dg_dz_at_a_raises_a_pole_error_on_every_kind(dom, a):
    # where green refuses z, within 1e-14 times the kind's size of a, dG/dz
    # names z, as a scalar and as an array's element, and warns of nothing
    near = a + 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (a, np.array([a]), near, np.array([a + 0.1, near])):
            with pytest.raises(PoleError) as err:
                pg.green_z_derivative(dom, z, a)
            bad = z if np.ndim(z) == 0 else z[-1]
            assert str(err.value) == f"dG/dz pole at z = {bad}, on a or an image of a"
            with pytest.raises(PoleError):
                pg.green(dom, complex(bad), a)


def test_strip_green_at_a_periodic_image_names_z():
    strip, a = pg.DomainDescriptor.periodic_strip(2j), -0.25 + 0.5j
    with pytest.raises(PoleError) as err:
        pg.green(strip, a + 2j, a)
    assert str(err.value) == f"torus Green function pole at z = {a + 2j}, on a or an image of a"
    with pytest.raises(PoleError, match=r"z = \(-0\.25\+4\.5j\)"):
        schottky.g_electro_strip(np.array([-0.1 + 0.2j, a + 4j]), a, DBL)
