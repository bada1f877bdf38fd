"""verify's samplers and array calls: the block samplers draw the points of
the per-point rejection loops they replaced, the rows evaluate them in a
bounded number of calls, and the dGdn row can fail."""

import collections
import sys

import numpy as np
import pytest

from potflow import elliptic, equilibrium, numkit, planar_green as pg, verify

# the per-point rejection loops that verify ran before its block samplers,
# kept as their oracle
_LOOP_SAMPLERS = {
    "disk": lambda dom, rng: dom.R * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)),
    "half_plane": lambda dom, rng: rng.uniform(-3, 3) + 1j * rng.uniform(0.05, 3),
    "slit_plane": lambda dom, rng: rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3),
    "rectangle": lambda dom, rng: (rng.uniform(0.1, 0.9) * dom.w
                                   + 1j * rng.uniform(0.1, 0.9) * dom.h),
}


def _loop_interior_samples(dom, rng, count):
    sample, pts = _LOOP_SAMPLERS[dom.kind], []
    while len(pts) < count:
        p = sample(dom, rng)
        if dom.contains(p) and dom.boundary_distance(p) > 0.02:
            pts.append(p)
    return pts


def _loop_off_lattice_samples(L, rng, count):
    pts = []
    while len(pts) < count:
        t = complex(rng.uniform(0, 1), rng.uniform(0, 2))
        if abs(elliptic.reduce_to_cell(t, L.tau)[0]) >= 0.15:
            pts.append(t)
    return pts


def _same_draws(loop, block, seed):
    """Whether loop(rng) and block(rng) return the same points, bit for bit,
    and leave the generator in the same state."""
    rng_loop, rng_block = np.random.default_rng(seed), np.random.default_rng(seed)
    points, block_points = np.array(loop(rng_loop)), block(rng_block)
    return (points.tobytes() == block_points.tobytes()
            and rng_loop.bit_generator.state == rng_block.bit_generator.state
            and rng_loop.random() == rng_block.random())


@pytest.mark.parametrize("seed", [20260810, 7])
@pytest.mark.parametrize("dom", [pg.DomainDescriptor.disk(1.3), pg.DomainDescriptor.half_plane(),
                                 pg.DomainDescriptor.slit_plane(),
                                 pg.DomainDescriptor.rectangle(2.0, 0.5)], ids=lambda d: d.kind)
def test_interior_block_sampler_draws_the_loops_points(dom, seed):
    assert _same_draws(lambda rng: _loop_interior_samples(dom, rng, 50),
                       lambda rng: verify._interior_samples(dom, rng, 50), seed)


@pytest.mark.parametrize("seed", [31415, 7])
def test_off_lattice_block_sampler_draws_the_loops_points(seed):
    L = elliptic.lattice_constants(2j)
    assert _same_draws(lambda rng: _loop_off_lattice_samples(L, rng, 100),
                       lambda rng: verify._off_lattice_samples(L, rng, 100), seed)


def test_block_sampler_grows_its_block_until_enough_pass():
    # one candidate in about 20 passes, so the first blocks fall short
    keep = lambda p: abs(p) < 0.25
    loop_rng, block_rng = np.random.default_rng(1), np.random.default_rng(1)
    points = []
    while len(points) < 10:
        p = complex(loop_rng.uniform(-1, 1), loop_rng.uniform(-1, 1))
        if keep(p):
            points.append(p)
    block = verify._sample_block(block_rng, ((-1, 1), (-1, 1)), 10, lambda p: p, keep)
    assert np.array(points).tobytes() == block.tobytes()
    assert loop_rng.bit_generator.state == block_rng.bit_generator.state


def test_verify_array_call_budget(monkeypatch):
    # estimates, wpODE and h0h1disk make array calls: about 282 robin_data
    # and 245 wp/wp_prime calls when they looped over points
    calls, callers = collections.Counter(), collections.Counter()
    for module, name in ((pg, "robin_data"), (elliptic, "wp"), (elliptic, "wp_prime"),
                         (numkit, "contour_integral")):
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "contour_integral":
                callers[sys._getframe(1).f_code.co_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rows = verify.planar_checks() + verify.surface_checks()
    assert all(row.passed for row in rows), [row for row in rows if not row.passed]
    assert calls["robin_data"] <= 90, calls
    assert calls["wp"] + calls["wp_prime"] <= 50, calls
    assert callers["h1_contour"] == 1, callers


def test_dgdn_row_fails_when_the_poisson_density_is_1e8_off(monkeypatch):
    # the row sums the raw weights that harmonic_measure sums, so a mutant
    # that harmonic_measure would refuse (mass off by more than 1e-12) makes
    # the row fail instead of raising before it is built
    disk, a = pg.DomainDescriptor.disk(1.0), 0.37 + 0.21j

    def row():
        return next(c for c in verify.planar_checks() if c.anchor == "dGdn")

    assert row().passed
    assert row().residual == abs(equilibrium.harmonic_measure(disk, a).weights.sum() - 1)
    poisson = pg._disk_poisson
    monkeypatch.setattr(pg, "_disk_poisson", lambda R, a, z: poisson(R, a, z) * (1 + 1e-8))
    mutant = row()
    assert mutant.tolerance == 1e-10 and not mutant.passed
    assert mutant.residual <= 2e-8, mutant
