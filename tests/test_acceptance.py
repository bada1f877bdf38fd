"""Acceptance criteria, each with its stated tolerance and a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import cmath
import math
import time

import numpy as np
import pytest

from potflow import (
    elliptic,
    equilibrium as eq,
    hadamard as hd,
    numkit,
    planar_green as pg,
    schottky as sk,
    surface as sf,
    vortex as vx,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPT] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_ac01_logcap_circle():
    t0 = time.time()
    rep = eq.transfinite_diameter(eq.CompactSet.circle(1.0), n_max=64)
    dt = time.time() - t0
    err = abs(rep.logcap - 1.0)
    _report("AC1 logcap(circle)=1.000+-5e-3 in <30s",
            err < 5e-3 and dt < 30, f"err={err:.2e}, {dt:.1f}s")


def test_ac02_logcap_segment():
    t0 = time.time()
    rep = eq.transfinite_diameter(eq.CompactSet.segment(2.0), n_max=64)
    dt = time.time() - t0
    err = abs(rep.logcap - 0.5)
    _report("AC2 logcap(segment l=2)=0.500+-1e-2 in <30s",
            err < 1e-2 and dt < 30, f"err={err:.2e}, {dt:.1f}s")


def test_ac03_triple_identity():
    worst = 0.0
    for K in (eq.CompactSet.circle(1.0), eq.CompactSet.segment(2.0)):
        rep = eq.transfinite_diameter(K, n_max=64)
        worst = max(worst,
                    abs(rep.logcap - rep.delta),
                    abs(rep.logcap - math.exp(-4 * math.pi * rep.energy)))
    _report("AC3 logcap = delta = exp(-4 pi E) within 1e-2",
            worst < 1e-2, f"worst={worst:.2e}")


def test_ac04_elliptic_constants():
    t0 = time.time()
    worst_leg = 0.0
    for tau in (1.5j, 2j, 3j, 0.3 + 2j):
        L = elliptic.lattice_constants(tau)
        worst_leg = max(worst_leg, abs(L.eta1 * tau - L.eta2 - 2j * math.pi))
    L = elliptic.lattice_constants(2j)
    rng = np.random.default_rng(99)
    worst_ode = 0.0
    count = 0
    while count < 100:
        t = complex(rng.uniform(0, 1), rng.uniform(0, 2))
        tr, _, _ = elliptic.reduce_to_cell(t, L.tau)
        if abs(tr) < 0.15:
            continue
        count += 1
        lhs = elliptic.wp_prime(t, L) ** 2
        rhs = 4 * ((elliptic.wp(t, L) - L.e1) * (elliptic.wp(t, L) - L.e2)
                   * (elliptic.wp(t, L) - L.e3))
        worst_ode = max(worst_ode, abs(lhs - rhs))
    dt = time.time() - t0
    _report("AC4 Legendre<1e-12, wp ODE<1e-9, <1s",
            worst_leg < 1e-12 and worst_ode < 1e-9 and dt < 1.0,
            f"legendre={worst_leg:.2e}, ode={worst_ode:.2e}, {dt:.2f}s")


def test_ac05_h1_contour():
    disk = pg.DomainDescriptor.disk(1.0)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        a = 0.85 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        closed = -a.conjugate() / (1 - abs(a) ** 2)
        worst = max(worst, abs(pg.h1_contour(disk, a, 512) - closed))
    _report("AC5 disk h1 contour = closed form within 1e-8",
            worst < 1e-8, f"worst={worst:.2e}")


def test_ac06_hadamard():
    disk = pg.DomainDescriptor.disk(1.0)
    var = hd.BoundaryVariation(disk, lambda t: 1.0)
    lhs, rhs = hd.hadamard_delta_green(var, 0.0, 0.5)
    target = 1 / (2 * math.pi)
    worst = max(abs(lhs - target), abs(rhs - target))
    _report("AC6 Hadamard dilation both sides 1/(2pi) within 1e-6",
            worst < 1e-6, f"worst={worst:.2e}")


def test_ac07_vortex_dynamics():
    t0 = time.time()
    pair = vx.VortexSystem([0.0, 1.0], [1.0, -1.0])
    traj = vx.simulate(pair, 10.0, 1e-10)
    disp_err = abs(abs(traj.final_state[0] - pair.positions[0]) - 10 / (2 * math.pi))
    drift1 = np.max(np.abs(traj.monitors["energy"] - traj.monitors["energy"][0]))
    t_pair = time.time() - t0

    t0 = time.time()
    equal = vx.VortexSystem([0.5, -0.5], [1.0, 1.0])
    traj2 = vx.simulate(equal, 2 * math.pi ** 2, 1e-10)
    ret_err = np.max(np.abs(traj2.final_state - equal.positions))
    drift2 = np.max(np.abs(traj2.monitors["energy"] - traj2.monitors["energy"][0]))
    t_eq = time.time() - t0

    t0 = time.time()
    disk_sys = vx.VortexSystem([0.5], [1.0], pg.DomainDescriptor.disk(1.0))
    traj3 = vx.simulate(disk_sys, 4 * math.pi ** 2 * 0.75, 1e-10)
    rad_drift = np.max(np.abs(traj3.monitors["radius_0"] - 0.5))
    t_disk = time.time() - t0

    ok = (disp_err < 1e-6 and ret_err < 1e-6 and rad_drift < 1e-9
          and drift1 < 1e-8 and drift2 < 1e-8
          and max(t_pair, t_eq, t_disk) < 10)
    _report("AC7 vortex speeds/periods/drifts", ok,
            f"disp={disp_err:.1e}, return={ret_err:.1e}, radius={rad_drift:.1e}, "
            f"energy drift={max(drift1, drift2):.1e}, "
            f"max time={max(t_pair, t_eq, t_disk):.1f}s")


def test_ac08_strip_kernel_periods():
    dbl = sk.StripDouble(2j)
    a = -0.25 + 0.5j
    n = 256
    xs = -0.5 + np.arange(n) / n
    ys = 2.0 * np.arange(n) / n
    pa_e = sum(sk.strip_bergman_kernels(complex(x, 0), a, dbl)[0] for x in xs) / n
    pb_e = sum(sk.strip_bergman_kernels(complex(0, y), a, dbl)[0]
               for y in ys) * 2j / n
    pa_h = sum(sk.strip_bergman_kernels(complex(x, 0), a, dbl)[1] for x in xs) / n
    pb_h = sum(sk.strip_bergman_kernels(complex(0, y), a, dbl)[1]
               for y in ys) * 2j / n
    ke, kh, kd = sk.strip_bergman_kernels(-0.2 + 0.3j, a, dbl)
    kkh = abs(ke - kh - 2 * kd)
    worst = max(abs(pa_e), abs(pb_e - 2j), abs(pa_h + 1.0), abs(pb_h))
    _report("AC8 kernel periods (0, 2i, -1, 0) within 1e-8, KKH = 0",
            worst < 1e-8 and kkh == 0.0, f"periods={worst:.2e}, KKH={kkh:.1e}")


def test_ac09_torus_monopole():
    spec = elliptic.lattice_constants(2j)
    z, a = 0.31 + 0.77j, -0.12 + 0.4j
    pde = abs(numkit.wirtinger_derivative(
        lambda w: sf.torus_monopole_green(w, a, spec), z, "dzdzbar", 1e-4)
        - 1 / (4 * 2.0))
    mean = abs(sf.torus_green_mean(a, spec))
    sym = abs(sf.torus_monopole_green(z, a, spec)
              - sf.torus_monopole_green(a, z, spec))
    _report("AC9 torus Green: PDE<1e-5, mean<1e-6, symmetry<1e-10",
            pde < 1e-5 and mean < 1e-6 and sym < 1e-10,
            f"pde={pde:.1e}, mean={mean:.1e}, sym={sym:.1e}")


def test_ac10_reproducing():
    dbl = sk.StripDouble(2j)
    tau = dbl.tau
    F = lambda w: np.exp(2j * math.pi * w / tau)
    f = lambda w: (2j * math.pi / tau) * F(w)
    worst_h = max(abs(sk.reproducing_check("hydro", f, F, pt, dbl) - f(pt))
                  for pt in (-0.25 + 0.5j, -0.15 + 0.35j, -0.4 + 1.4j))
    err_e = abs(sk.reproducing_check("electro", lambda w: 1.0 + 0j, lambda w: w,
                                     -0.25 + 0.5j, dbl) - 1.0)
    orth = abs(sk.orthogonality_integral(-0.35 + 1.1j, dbl))
    _report("AC10 reproducing: hydro<1e-6, electro<1e-6, orthogonality<1e-8",
            worst_h < 1e-6 and err_e < 1e-6 and orth < 1e-8,
            f"hydro={worst_h:.1e}, electro={err_e:.1e}, orth={orth:.1e}")


def test_ac11_capacity_chain():
    dbl = sk.StripDouble(2j)
    min_margin = math.inf
    for p in (-0.25 + 0.5j, -0.1 + 0.3j, -0.37 + 1.7j, -0.3 + 1.0j, -0.2 + 0.05j):
        min_margin = min(min_margin, min(sk.capacity_functions(p, dbl).margins()))
    chain = sk.disk_capacity_functions(0.3).chain()
    spread = max(chain) - min(chain)
    _report("AC11 capacity chain strict on strip, equal on disk within 1e-8",
            min_margin > 0 and spread < 1e-8,
            f"min margin={min_margin:.2e}, disk spread={spread:.1e}")


def test_ac12_sphere_suite():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lap = numkit.laplacian_at(lambda w: sf.sphere_expansion(w).h0, p, 1e-4)
        worst = max(worst, abs(lap - sf.sphere_lambda_sq(p)))
    mean = abs(sf.sphere_green_mean(0.5))
    me = abs(sf.sphere_mutual_energy(0.3, -0.4 + 0.5j)
             - sf.sphere_green(0.3, -0.4 + 0.5j))
    _report("AC12 sphere: Delta h0=lambda^2<1e-6, mean<1e-13, energy<1e-12",
            worst < 1e-6 and mean < 1e-13 and me < 1e-12,
            f"lap={worst:.1e}, mean={mean:.1e}, mutual={me:.1e}")


def test_ac13_poisson():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        a = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        val = pg.poisson_value(lambda w: (w ** 3).real, a, 512)
        worst = max(worst, abs(val - (a ** 3).real))
    _report("AC13 Poisson reproduces Re z^3 within 1e-10",
            worst < 1e-10, f"worst={worst:.2e}")


def test_ac14_robin_sandwich():
    rng = np.random.default_rng(14)
    disk = pg.DomainDescriptor.disk(1.0)
    hp = pg.DomainDescriptor.half_plane()
    sp = pg.DomainDescriptor.slit_plane()
    worst = 0.0
    for dom, factor in ((disk, 2.0), (hp, 2.0), (sp, 4.0)):
        for _ in range(50):
            if dom.kind == "disk":
                p = 0.95 * math.sqrt(rng.uniform()) \
                    * cmath.exp(2j * math.pi * rng.uniform())
            elif dom.kind == "half_plane":
                p = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            else:
                p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if dom.boundary_distance(p) < 0.02:
                    p = p - 0.5
            h0 = pg.robin_data(dom, p).h0
            d = dom.boundary_distance(p)
            worst = max(worst, math.log(d) - h0, h0 - math.log(factor * d))
    # tightness checks
    tight = max(abs(pg.robin_data(hp, 0.7j).h0 - math.log(2 * 0.7)),
                abs(pg.robin_data(sp, -0.6).h0 - math.log(4 * 0.6)))
    _report("AC14 Robin sandwich at 50 points per kind, tight on hp/slit",
            worst <= 1e-9 and tight < 1e-12,
            f"worst violation={worst:.1e}, tightness={tight:.1e}")


def test_ac15_verify_all_under_five_minutes():
    from potflow import verify
    t0 = time.time()
    checks = verify.run_suite("all")
    dt = time.time() - t0
    failed = [c.anchor for c in checks if not c.passed]
    _report("AC15 full verify suite green in under 5 minutes",
            not failed and dt < 300,
            f"{len(checks)} checks, failed={failed or 'none'}, {dt:.1f}s")
