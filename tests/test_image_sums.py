"""The rectangle's and the periodic strip's Green function, dG/dz and Robin
data against 40-digit mpmath: jtheta image sums on each double, with dG/dz
and h1 as central differences of the oracle's own G and h0, so that no
theta1'/theta1 formula and no projection of it is shared with the code."""

import numpy as np
import pytest

from potflow import planar_green as pg

mpmath = pytest.importorskip("mpmath")


def _log_theta(u, tau):
    """log|theta1(u | tau)| with the periods 1 and tau."""
    return mpmath.log(abs(mpmath.jtheta(1, mpmath.pi * u, mpmath.exp(1j * mpmath.pi * tau))))


def _oracle(tau, p, images, z, a):
    """(G, dG/dz, h0, h1) of the signed image sum -(1/2pi) sum_j s_j
    log|theta1((z - b_j) / p)|, images(a) listing a first."""
    with mpmath.workdps(40):
        z, a, p, tau, eps = mpmath.mpc(z), mpmath.mpc(a), mpmath.mpf(p), mpmath.mpc(tau), 1e-15

        def green(z, a):
            return -sum(s * _log_theta((z - b) / p, tau) for s, b in images(a)) / (2 * mpmath.pi)

        def h0(a):
            th0 = mpmath.pi * mpmath.jtheta(1, 0, mpmath.exp(1j * mpmath.pi * tau), 1)
            return mpmath.log(p / abs(th0)) - sum(s * _log_theta((a - b) / p, tau)
                                                   for s, b in images(a)[1:])

        def wirtinger(f, w):     # d/dw = (d/dx - i d/dy) / 2
            return ((f(w + eps) - f(w - eps)) - 1j * (f(w + 1j * eps) - f(w - 1j * eps))) / (4 * eps)

        return (complex(green(z, a)), complex(wirtinger(lambda w: green(w, a), z)),
                complex(h0(a)), complex(wirtinger(h0, a)))


def _with_near_pairs(pairs, rng):
    """The pairs, and three with z = a + 1e-6 e^{i theta}, where z - b_j
    must be formed before any rounding of z and a alone."""
    return pairs + [(a + 1e-6 * complex(np.exp(2j * np.pi * rng.uniform())), a)
                    for _, a in pairs[:3]]


def _errors(dom, oracle, pairs):
    """The worst error of G, dG/dz, h0 and h1 over the pairs, each relative
    to max(1, |oracle value|)."""
    worst = np.zeros(4)
    for z, a in pairs:
        r = pg.robin_data(dom, a)
        got = (pg.green(dom, z, a), pg.green_z_derivative(dom, z, a), r.h0, r.h1)
        worst = np.maximum(worst, [abs(g - w) / max(1.0, abs(w))
                                   for g, w in zip(got, oracle(z, a))])
    return worst


# Bounds on the errors of (G, dG/dz, h0, h1), each about 3 times the worst
# of seeds 1-20 of these draws.  The worst were 1.3e-15 for G, 2.1e-14 for
# dG/dz (the strip at Im tau = 10, near a) and 5.2e-15 for h0 (the strip at
# 60); dG/dz, h0 and h1 of the strip read the same before the image sums.
_STRIP_BOUNDS = {0.5: (4e-15, 1e-14, 2e-15, 2e-15), 2.0: (4e-15, 1.2e-14, 1e-15, 2e-15),
                 10.0: (4e-15, 6e-14, 2e-15, 2e-15), 60.0: (4e-15, 5e-15, 2e-14, 2e-15)}


@pytest.mark.parametrize("T", sorted(_STRIP_BOUNDS))
def test_strip_image_sum_matches_mpmath(T):
    # pairs up to five periods apart, all of Im tau's range of the tests
    dom = pg.DomainDescriptor.periodic_strip(1j * T)
    rng = np.random.default_rng(1)
    pairs = [(complex(rng.uniform(-0.49, -0.01), rng.uniform(-2.5, 2.5) * T),
              complex(rng.uniform(-0.49, -0.01), rng.uniform(-2.5, 2.5) * T)) for _ in range(12)]
    pairs = _with_near_pairs(pairs, rng)
    images = lambda a: ((1, a), (-1, -mpmath.conj(a)))
    worst = _errors(dom, lambda z, a: _oracle(1j * T, 1.0, images, z, a), pairs)
    assert (worst < _STRIP_BOUNDS[T]).all(), worst


_RECTANGLE_BOUNDS = {(1.0, 1.0): (1e-15, 2e-15, 2e-15, 4e-15),
                     (0.5, 3.0): (1e-15, 2e-15, 1e-14, 6e-15),
                     (2.0, 1.0): (1e-15, 2e-15, 5e-15, 4e-15)}


@pytest.mark.parametrize("w, h", sorted(_RECTANGLE_BOUNDS))
def test_rectangle_image_sum_matches_mpmath(w, h):
    # the oracle's lattice is (1, i h/w) in units of 2w for every aspect, so
    # the 2 x 1 rectangle checks the code's flip to the tall frame
    dom = pg.DomainDescriptor.rectangle(w, h)
    rng = np.random.default_rng(2)
    pairs = [(complex(rng.uniform(0.01, 0.99) * w, rng.uniform(0.01, 0.99) * h),
              complex(rng.uniform(0.01, 0.99) * w, rng.uniform(0.01, 0.99) * h))
             for _ in range(12)]
    pairs = _with_near_pairs(pairs, rng)
    images = lambda a: ((1, a), (1, -a), (-1, mpmath.conj(a)), (-1, -mpmath.conj(a)))
    worst = _errors(dom, lambda z, a: _oracle(1j * h / w, 2 * w, images, z, a), pairs)
    assert (worst < _RECTANGLE_BOUNDS[w, h]).all(), worst
