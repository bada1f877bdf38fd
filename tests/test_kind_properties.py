"""Property tests of each domain kind's Green function and Robin data under
the maps that carry the kind to itself or to a copy of itself: scaling
(G unchanged, h0 - log lambda, lambda h1), translation along the real axis
for the half-plane, the period i Im tau for the strip and the midline
reflections for the rectangle.

Points keep a tenth of the domain's size from its boundary and from each
other, where G, h0 and h1 are well conditioned; the bounds are relative."""

import math

from hypothesis import given, settings, strategies as st

from potflow import planar_green as pg

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

unit = st.floats(0.1, 0.9)
scales = st.floats(-20.0, 20.0).map(lambda e: 10.0 ** e)


def close(x, y, tol=1e-13) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def covariant(dom, scaled, z, a, lam, tol=1e-13) -> bool:
    """G(lam z, lam a) on the scaled domain is G(z, a); h0 gains log lam and
    h1 is divided by lam."""
    rd, rs = pg.robin_data(dom, a), pg.robin_data(scaled, lam * a)
    return (close(pg.green(scaled, lam * z, lam * a), pg.green(dom, z, a), tol)
            and close(rs.h0 - math.log(lam), rd.h0, tol * max(1.0, abs(math.log(lam))))
            and close(lam * rs.h1, rd.h1, tol))


def disk_point(r, t):
    return r * complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))


@PROPERTY
@given(unit, st.floats(0, 1), unit, st.floats(0, 1), scales)
def test_disk_scaling(rz, tz, ra, ta, lam):
    z, a = disk_point(rz, tz), disk_point(ra, ta)
    if abs(z - a) >= 0.1:
        assert covariant(pg.DomainDescriptor.disk(1.0), pg.DomainDescriptor.disk(lam),
                         z, a, lam)


@PROPERTY
@given(unit, unit, unit, unit, st.floats(0.5, 2.0), scales)
def test_rectangle_scaling(xz, yz, xa, ya, aspect, lam):
    z, a = complex(xz, yz * aspect), complex(xa, ya * aspect)
    if abs(z - a) >= 0.1:
        assert covariant(pg.DomainDescriptor.rectangle(1.0, aspect),
                         pg.DomainDescriptor.rectangle(lam, lam * aspect), z, a, lam)


@PROPERTY
@given(unit, unit, unit, unit, st.floats(0.5, 2.0))
def test_rectangle_midline_reflections(xz, yz, xa, ya, aspect):
    # x -> w - x keeps G and h0 and maps h1 to -conj(h1); y -> h - y maps it
    # to conj(h1)
    dom = pg.DomainDescriptor.rectangle(1.0, aspect)
    z, a = complex(xz, yz * aspect), complex(xa, ya * aspect)
    if abs(z - a) < 0.1:
        return
    rd = pg.robin_data(dom, a)
    for mirror, h1 in ((lambda s: 1.0 - s.conjugate(), -rd.h1.conjugate()),
                       (lambda s: s.conjugate() + 1j * aspect, rd.h1.conjugate())):
        rm = pg.robin_data(dom, mirror(a))
        assert close(pg.green(dom, mirror(z), mirror(a)), pg.green(dom, z, a))
        assert close(rm.h0, rd.h0) and close(rm.h1, h1)


# the scale-free kinds: a point in the upper half-plane, kept off the real
# axis, the slit plane's boundary among it
upper = st.tuples(st.floats(-3.0, 3.0), st.floats(0.2, 3.0)).map(lambda p: complex(*p))


@PROPERTY
@given(upper, upper, scales)
def test_half_plane_and_slit_plane_scaling(z, a, lam):
    if abs(z - a) >= 0.1:
        for dom in (pg.DomainDescriptor.half_plane(), pg.DomainDescriptor.slit_plane()):
            assert covariant(dom, dom, z, a, lam)


@PROPERTY
@given(upper, upper, st.floats(-1e3, 1e3))
def test_half_plane_translation(z, a, t):
    dom = pg.DomainDescriptor.half_plane()
    if abs(z - a) >= 0.1:
        rd, rt = pg.robin_data(dom, a), pg.robin_data(dom, a + t)
        assert close(pg.green(dom, z + t, a + t), pg.green(dom, z, a), 1e-11)
        assert rt.h0 == rd.h0 and rt.h1 == rd.h1   # they read Im a only


@PROPERTY
@given(st.floats(-0.45, -0.05), st.floats(0.0, 1.0), st.floats(-0.45, -0.05),
       st.floats(0.0, 1.0), st.floats(0.5, 3.0), st.integers(-3, 3))
def test_strip_period(xz, yz, xa, ya, T, k):
    # y is periodic with period Im tau, in both points
    dom = pg.DomainDescriptor.periodic_strip(1j * T)
    z, a, shift = complex(xz, yz * T), complex(xa, ya * T), 1j * k * T
    if min(abs(z - a - j * 1j * T) for j in (-1, 0, 1)) < 0.1:
        return
    rd, rs = pg.robin_data(dom, a), pg.robin_data(dom, a + shift)
    g = pg.green(dom, z, a)
    assert close(pg.green(dom, z + shift, a), g) and close(pg.green(dom, z, a + shift), g)
    assert close(rs.h0, rd.h0) and close(rs.h1, rd.h1) and close(rs.curvature, rd.curvature)
