"""Verification suites: every closed-form identity as a named residual check.

Each check carries a short identity slug (``anchor``), the measured
residual and its tolerance; a suite passes when every residual is within
tolerance.  All random sampling is seeded, so reruns are byte-identical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import (
    elliptic,
    equilibrium,
    hadamard,
    numkit,
    planar_green,
    schottky,
    surface,
)
from .errors import EvaluationError, ParameterError

__all__ = ["Check", "run_suite", "torus_checks", "SUITES"]


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


def _laplacian_richardson(f, z: complex) -> float:
    coarse = numkit.laplacian_at(f, z, 1e-3)
    fine = numkit.laplacian_at(f, z, 5e-4)
    return (4 * fine - coarse) / 3


def _mixed_richardsons(f2, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Richardson extrapolation of d^2 f2 / dz dabar from steps 2e-4 and 1e-4,
    at each pair (z[i], a[i]).

    f2 takes arrays of z and a and is called once, on the (pairs, steps, 4,
    4) table of ``numkit.cross_stencil`` of z (axis 2) by that of a (axis
    3).  The table is differenced as ``numkit.mixed_second_derivative``
    differences its calls, d/dabar first, so each value is the scalar
    calls' Richardson to the bit.
    """
    h = np.array([2e-4, 1e-4])
    zs, as_ = (np.stack(numkit.cross_stencil(p[:, None], h), axis=-1) for p in (z, a))
    zs, as_ = np.broadcast_arrays(zs[..., :, None], as_[..., None, :])
    table = f2(zs.ravel(), as_.ravel()).reshape(zs.shape)
    bad = ~np.isfinite(table)
    if bad.any():
        raise EvaluationError(numkit.first_where(bad, zs))
    two_h = 2 * h[:, None]
    e, w, n, s = np.moveaxis(table, -1, 0)           # d/dabar along the a stencil
    dabar = 0.5 * ((e - w) / two_h + 1j * ((n - s) / two_h))
    e, w, n, s = np.moveaxis(dabar, -1, 0)           # then d/dz along the z stencil
    coarse, fine = (0.5 * ((e - w) / two_h[:, 0] - 1j * ((n - s) / two_h[:, 0]))).T
    return (4 * fine - coarse) / 3


# ---------------------------------------------------------------------------
# planar suite
# ---------------------------------------------------------------------------

def planar_checks() -> list[Check]:
    rng = np.random.default_rng(20260810)
    out = []
    disk = planar_green.DomainDescriptor.disk(1.0)

    # unit outward flux of -dG/dn (normalization convention)
    dens = equilibrium.harmonic_measure(disk, 0.37 + 0.21j, 256)
    out.append(Check("harmonic measure has unit mass", "dGdn",
                     abs(dens.weights.sum() - 1.0), 1e-10))

    # Robin data vs the h1 contour formula, 20 random points
    worst = 0.0
    for _ in range(20):
        a = 0.85 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        closed = planar_green.robin_data(disk, a).h1
        contour = planar_green.h1_contour(disk, a, 512)
        worst = max(worst, abs(closed - contour))
    out.append(Check("disk h1 contour formula vs closed form", "h0h1disk", worst, 1e-8))

    # -Delta h0 = 4 pi K(a,a) on the disk
    a = 0.5
    lap = _laplacian_richardson(lambda w: planar_green.robin_data(disk, w).h0, a)
    target = -4 * math.pi * planar_green.bergman_disk(a, a).real
    out.append(Check("disk Robin Laplacian vs Bergman diagonal", "Deltah0K",
                     abs(lap - target), 1e-8))

    # Liouville equation: curvature of exp(-h0)|dz| is -4
    kappa = planar_green.curvature_of_metric(
        lambda w: planar_green.robin_data(disk, w).h0, 0.5)
    out.append(Check("disk metric curvature is -4", "Liouville",
                     abs(kappa + 4.0), 1e-5))

    # transformation laws under random disk automorphisms
    worst0 = worst1 = 0.0
    for _ in range(20):
        b = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        at = 0.7 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        # f(z) = (z - b)/(1 - conj(b) z) maps the disk onto itself
        fp = (1 - abs(b) ** 2) / (1 - b.conjugate() * at) ** 2
        fs = 2 * b.conjugate() * (1 - abs(b) ** 2) / (1 - b.conjugate() * at) ** 3
        src = planar_green.robin_data(disk, at)
        img = planar_green.conformal_transport(src, fp, fs)
        target = planar_green.robin_data(disk, (at - b) / (1 - b.conjugate() * at))
        worst0 = max(worst0, abs(img.h0 - target.h0))
        worst1 = max(worst1, abs(img.h1 - target.h1))
    out.append(Check("h0 gains log|f'| under automorphisms", "h0h0log", worst0, 1e-10))
    out.append(Check("h1 transforms as an affine connection", "h1", worst1, 1e-10))

    # Poisson kernel reproduces Re z^3 at 10 interior points
    worst = 0.0
    for _ in range(10):
        p = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        val = planar_green.poisson_value(lambda w: (w ** 3).real, p, 512)
        worst = max(worst, abs(val - (p ** 3).real))
    out.append(Check("Poisson kernel reproduces Re z^3", "Poisson", worst, 1e-10))

    # Bergman reproducing property on the disk, by Stokes with F = z^3/3:
    # int_D z^2 conj(K) dA = (i/2) oint F conj(K dz)
    z, dz = numkit.circle_rule(0j, 1.0, 64)
    val = 0.5j * numkit.integrate(
        lambda w: planar_green.bergman_disk(w, 0.4).conjugate() * w ** 3 / 3,
        z, dz.conjugate())
    out.append(Check("Bergman kernel reproduces z^2 at 0.4", "Kreproducing0",
                     abs(val - 0.16), 1e-14))

    # Robin-function bounds: log d <= h0 <= log 2d (convex), log 4d (slit)
    worst = 0.0
    for dom, factor, count, slack in (
            (disk, 2.0, 50, 1e-9),
            (planar_green.DomainDescriptor.half_plane(), 2.0, 50, 1e-9),
            (planar_green.DomainDescriptor.slit_plane(), 4.0, 50, 1e-9),
            (planar_green.DomainDescriptor.rectangle(1.0, 1.0, 96), 2.0, 50, 1e-9)):
        for p in _interior_samples(dom, rng, count):
            h0 = planar_green.robin_data(dom, p).h0
            d = dom.boundary_distance(p)
            viol = max(math.log(d) - h0, h0 - math.log(factor * d), 0.0)
            worst = max(worst, viol - slack if viol > slack else 0.0)
    out.append(Check("Robin function distance bounds", "estimates", worst, 0.0))

    # tightness: half-plane attains log 2d, slit plane attains log 4d
    hp = planar_green.DomainDescriptor.half_plane()
    tight1 = abs(planar_green.robin_data(hp, 0.7j).h0 - math.log(2 * 0.7))
    sp = planar_green.DomainDescriptor.slit_plane()
    tight2 = abs(planar_green.robin_data(sp, -0.6).h0 - math.log(4 * 0.6))
    out.append(Check("half-plane bound attained", "estimates-convex", tight1, 1e-12))
    out.append(Check("slit-plane bound attained", "estimates-simply", tight2, 1e-12))

    # monotonicity of h0 under domain inclusion
    gap = (planar_green.robin_data(planar_green.DomainDescriptor.disk(2.0), 0.4).h0
           - planar_green.robin_data(disk, 0.4).h0)
    out.append(Check("h0 grows with the domain", "monotonicity",
                     0.0 if gap > 0 else -gap, 0.0))

    # Hadamard variation: dilation of the unit disk
    var = hadamard.BoundaryVariation(disk, lambda t: 1.0)
    lhs, rhs = hadamard.hadamard_delta_green(var, 0.0, 0.5)
    resid = max(abs(lhs - 1 / (2 * math.pi)), abs(rhs - 1 / (2 * math.pi)))
    out.append(Check("Hadamard formula under dilation", "Hadamard", resid, 1e-13))

    lh, rh = hadamard.hadamard_delta_h0(var, 0.5)
    out.append(Check("Robin variation under dilation", "Hadamardh",
                     max(abs(lh - 5 / 3), abs(rh - 5 / 3)), 1e-13))

    # triple Green symmetry
    pts = (0.31, 0.12j, -0.25 + 0.2j)
    vals = [hadamard.triple_green(*perm) for perm in
            ((pts[0], pts[1], pts[2]), (pts[2], pts[0], pts[1]),
             (pts[1], pts[2], pts[0]), (pts[0], pts[2], pts[1]))]
    out.append(Check("triple-Green permutation symmetry", "integrability",
                     max(abs(v - vals[0]) for v in vals), 1e-10))

    # capacity ladder identities on the circle
    rep = equilibrium.transfinite_diameter(equilibrium.CompactSet.circle(1.0), n_max=48)
    out.append(Check("circle transfinite diameter", "logcap",
                     abs(rep.delta - 1.0), 5e-3))
    out.append(Check("three-way capacity identity", "gammadelta",
                     abs(rep.logcap - math.exp(-4 * math.pi * rep.energy)), 1e-2))
    return out


# candidate sampling boxes; a candidate is kept when it lies at least 0.02
# inside the domain
_SAMPLERS = {
    "disk": lambda dom, rng: dom.R * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)),
    "half_plane": lambda dom, rng: rng.uniform(-3, 3) + 1j * rng.uniform(0.05, 3),
    "slit_plane": lambda dom, rng: rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3),
    "rectangle": lambda dom, rng: (rng.uniform(0.1, 0.9) * dom.w
                                   + 1j * rng.uniform(0.1, 0.9) * dom.h),
}


def _interior_samples(dom, rng, count: int):
    sample = _SAMPLERS[dom.kind]
    pts = []
    while len(pts) < count:
        p = sample(dom, rng)
        if dom.contains(p) and dom.boundary_distance(p) > 0.02:
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# surface suite
# ---------------------------------------------------------------------------

def surface_checks() -> list[Check]:
    rng = np.random.default_rng(31415)
    out = []

    # Legendre identity and wp ODE across moduli
    worst_leg = 0.0
    for tau in (1.5j, 2j, 3j, 0.3 + 2j):
        worst_leg = max(worst_leg, _legendre_residual(elliptic.lattice_constants(tau)))
    out.append(Check("Legendre identity across moduli", "Legendre", worst_leg, 1e-12))

    # the cubic grows like |t|^-6 at the lattice, so an absolute 1e-9
    # residual requires test points in general position (>= 0.15 away)
    L = elliptic.lattice_constants(2j)
    worst = 0.0
    count = 0
    while count < 100:
        t = complex(rng.uniform(0, 1), rng.uniform(0, 2))
        tr, _, _ = elliptic.reduce_to_cell(t, L.tau)
        if abs(tr) < 0.15:
            continue
        count += 1
        lhs = elliptic.wp_prime(t, L) ** 2
        p = elliptic.wp(t, L)
        rhs = 4 * (p - L.e1) * (p - L.e2) * (p - L.e3)
        worst = max(worst, abs(lhs - rhs))
    out.append(Check("wp differential equation", "wpODE", worst, 1e-9))

    # sphere: Delta h0 = lambda^2 at 10 points
    worst = 0.0
    for _ in range(10):
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lap = numkit.laplacian_at(lambda w: surface.sphere_expansion(w).h0, p, 1e-4)
        worst = max(worst, abs(lap - surface.sphere_lambda_sq(p)))
    out.append(Check("sphere Robin Laplacian equals metric density",
                     "Deltagammadouble", worst, 1e-6))

    out.append(Check("sphere Green zero mean", "normalization",
                     abs(surface.sphere_green_mean(0.5)), 1e-13))

    me = surface.sphere_mutual_energy(0.3, -0.4 + 0.5j)
    out.append(Check("sphere mutual-energy identity", "mutual energyG",
                     abs(me - surface.sphere_green(0.3, -0.4 + 0.5j)), 1e-12))

    # sphere kernels: K = 0 (separable regular part), L = 1/(pi (z-a)^2)
    z, a = 0.4 + 0.2j, -0.3 + 0.6j
    k_fd = numkit.mixed_second_derivative(
        lambda zz, aa: 2 * math.pi * surface.sphere_green(zz, aa)
        + math.log(abs(zz - aa)), z, a, 1e-4)
    out.append(Check("sphere Bergman kernel vanishes", "sphere-kernels",
                     abs(k_fd), 1e-6))

    # torus monopole Green function at tau = 2i (L): PDE, symmetry, zero mean
    zt, at = 0.31 + 0.77j, -0.12 + 0.4j
    dzz = numkit.wirtinger_derivative(
        lambda w: surface.torus_monopole_green(w, at, L), zt, "dzdzbar", 1e-4)
    out.append(Check("torus Green off-pole PDE", "Gtorus",
                     abs(dzz - 1.0 / (4 * L.volume)), 1e-5))
    out.append(Check("torus Green symmetric", "Gtorus-symmetry",
                     abs(surface.torus_monopole_green(zt, at, L)
                         - surface.torus_monopole_green(at, zt, L)), 1e-10))
    out.append(Check("torus Green zero mean", "normalization-torus",
                     abs(surface.torus_green_mean(at, L)), 1e-11))

    # torus kernels
    K, Lk = surface.torus_kernels(zt, at, L)
    out.append(Check("torus Bergman kernel is 1/Im tau", "Lwp",
                     abs(K - 0.5), 1e-14))
    r = 1e-4
    _, Ln = surface.torus_kernels(at + r, at, L)
    out.append(Check("Schiffer kernel double pole", "singularityL",
                     abs(r * r * Ln - 1 / math.pi), 1e-6))
    out.append(Check("Schiffer kernel zero principal value", "C",
                     abs(surface.schiffer_mean_value(L, at)), 1e-11))

    # harmonic basis, periods, period matrices
    basis = surface.torus_harmonic_basis(L)
    al, be = numkit.cycle_rule(0, 1, 128), numkit.cycle_rule(0, L.tau, 128)
    res = basis["periods"].residuals()
    out.append(Check("period matrices satisfy PQ = I + R^2", "PQR",
                     res["PQ_I_R2"], 1e-10))
    p1 = abs(surface.form_period(basis["eta_beta"], al) + 1.0)
    p2 = abs(surface.form_period(basis["eta_alpha"], be) - 1.0)
    out.append(Check("harmonic one-form period normalization", "etaalpha",
                     max(p1, p2), 1e-8))
    per = basis["periods"]
    z0 = 0.2 + 0.3j
    uqru = abs((1.0 / per.Q[0, 0]) * (per.R[0, 0] + 1j) * basis["omega_alpha"].f(z0)
               + basis["omega_beta"].f(z0))
    out.append(Check("holomorphic bases related by Q^-1(R+iI)", "UQRU", uqru, 1e-12))
    pa = abs(surface.form_period(basis["omega_alpha"], al) - (-1j * per.Q[0, 0]))
    pb = abs(surface.form_period(basis["omega_alpha"], be) - (1j * per.R[0, 0] + 1))
    out.append(Check("holomorphic period table", "GUU-periods", max(pa, pb), 1e-10))
    out.append(Check("Bergman expansion in either basis", "KPQ",
                     surface.bergman_expansion_check(L), 1e-12))
    out.append(Check("Bergman expansion, generic modulus", "KPQ-generic",
                     surface.bergman_expansion_check(
                         elliptic.lattice_constants(0.3 + 2j)), 1e-10))
    wedge = surface.wedge_integral_cell(basis["eta_alpha"], basis["eta_beta"], L)
    out.append(Check("intersection pairing alpha x beta", "gammacrosssigma1",
                     abs(wedge - 1.0), 1e-8))

    # reproducing property of K_double for f(z) dz = dz
    val = surface.wedge_integral_cell(
        surface.OneForm(lambda w: 1.0 + 0j, lambda w: 0j),
        surface.OneForm(lambda w: 0j, lambda w: (1.0 / L.volume)), L)
    out.append(Check("torus Bergman reproducing for dz", "Kreproducing",
                     abs(0.5j * val - 1.0), 1e-8))
    return out


# ---------------------------------------------------------------------------
# schottky suite
# ---------------------------------------------------------------------------

def schottky_checks() -> list[Check]:
    rng = np.random.default_rng(9124)
    out = []
    dbl = schottky.StripDouble(2j)
    a = -0.25 + 0.5j
    z = -0.2 + 0.3j
    b = -0.35 + 1.1j

    # Schwarz function of the circle
    w0 = 0.3 + 0.4j
    s_res = abs(schottky.schwarz_circle(
        schottky.schwarz_circle(w0).conjugate()).conjugate() - w0)
    th = 0.7
    tangent = 1j * cmath.exp(1j * th)
    s_res = max(s_res, abs(-cmath.exp(-2j * th) * tangent ** 2 - 1))
    out.append(Check("Schwarz function reflection identities", "SSz", s_res, 1e-12))

    out.append(Check("fundamental kernel identity Ke - Kh = 2Kd", "KKH",
                     _kkh_residual(z, a, dbl), 0.0))

    # Hermitean symmetry across the three kernels
    ke, kh, kd = schottky.strip_bergman_kernels(z, a, dbl)
    ke2, kh2, kd2 = schottky.strip_bergman_kernels(a, z, dbl)
    herm = max(abs(ke2 - ke.conjugate()), abs(kh2 - kh.conjugate()),
               abs(kd2 - kd.conjugate()))
    out.append(Check("Hermitean kernel symmetry", "symmetryK", herm, 1e-12))

    # kernel periods at tau in {1.5i, 2i, 3i}
    worst = 0.0
    for tau in (1.5j, 2j, 3j):
        d2 = schottky.StripDouble(tau)
        aa = complex(-0.25, 0.4 * tau.imag)
        worst = max(worst, _kernel_period_residual(d2, aa))
    out.append(Check("strip kernel periods across moduli", "kernels2", worst, 1e-8))

    r1, r2 = schottky.kkl_combinations(z, a, dbl)
    _, ld = surface.torus_kernels(z, schottky.StripDouble.involution(a), dbl.lattice)
    r3 = abs(ld - 0.5 * (ke + kh))
    r4 = abs(kd - 0.5 * (ke - kh))
    out.append(Check("planar kernels from the double (KKL)", "KKL",
                     max(r1, r2, r3, r4), 1e-10))

    # electro Green: boundary trace, symmetry, positivity
    trace = max(abs(schottky.g_electro_strip(complex(-1e-11, y), a, dbl))
                for y in (0.2, 0.9, 1.7))
    out.append(Check("electro Green vanishes on the walls", "GGG-boundary",
                     trace, 1e-8))
    out.append(Check("electro Green symmetric", "GGG-symmetry",
                     abs(schottky.g_electro_strip(z, a, dbl)
                         - schottky.g_electro_strip(a, z, dbl)), 1e-10))
    ps = np.array([complex(rng.uniform(-0.48, -0.02), rng.uniform(0, 2))
                   for _ in range(64)])
    ps = ps[np.abs(ps - a) > 1e-3]
    neg = min(0.0, np.min(schottky.g_electro_strip(ps, a, dbl)))
    out.append(Check("electro Green positive inside", "GGG-positive", -neg, 0.0))
    out.append(Check("electro Green unit flux", "GGG-flux",
                     abs(_strip_flux(a, dbl) - 1.0), 1e-12))

    # hydro Green: locally constant boundary, prescribed circulation
    worst_t = max(abs(_wall_tangential(dbl, a, x0)) for x0 in (0.0, -0.5))
    out.append(Check("hydro Green boundary-locally-constant", "dGhydro",
                     worst_t, 1e-8))
    worst_p = max(_circulation_residual(a, dbl, p) for p in (0.0, 0.7))
    out.append(Check("hydro circulation equals p", "ointdGp", worst_p, 1e-12))
    out.append(Check("hydro boundary pairing vanishes", "hydrohydro",
                     abs(_hydrohydro(dbl, a, b)), 1e-12))

    # Neumann function
    h = 1e-6
    dn = abs(schottky.neumann_strip(complex(h, 0.3), a, dbl)
             - schottky.neumann_strip(complex(-h, 0.3), a, dbl)) / (2 * h)
    out.append(Check("Neumann normal derivative vanishes", "Neumann-dn", dn, 1e-6))
    dzz = numkit.wirtinger_derivative(
        lambda w: schottky.neumann_strip(w, a, dbl), z, "dzdzbar", 1e-4)
    out.append(Check("Neumann Poisson equation off-pole", "Neumann-pde",
                     abs(dzz - 1.0 / (2 * dbl.T)), 1e-5))
    # five (z, a) pairs at each circulation p, one stencil table per call
    zz, aa = np.array([[complex(rng.uniform(-0.42, -0.08), rng.uniform(0.1, 1.9))
                        for _ in range(2)] for _ in range(10)]).T
    m1 = _mixed_richardsons(lambda u, v: schottky.neumann_strip(u, v, dbl), zz, aa)
    m2 = np.concatenate([_mixed_richardsons(
        lambda u, v: schottky.g_hydro_strip(u, v, dbl, p), zz[k:k + 5], aa[k:k + 5])
        for k, p in ((0, 0.0), (5, 0.7))])
    worst = float(np.max(np.abs(m1 + m2)))
    out.append(Check("Neumann relation to hydro Green", "NG", worst, 1e-6))

    # reproducing properties
    r_e = schottky.reproducing_check("electro", lambda w: 1.0 + 0j, lambda w: w, a, dbl)
    out.append(Check("electro kernel reproduces constants",
                     "Kelectroreproducing", abs(r_e - 1.0), 1e-6))
    tau = dbl.tau
    Fexp = lambda w: np.exp(2j * math.pi * w / tau)
    fexp = lambda w: (2j * math.pi / tau) * Fexp(w)
    pts = np.array([a, -0.15 + 0.35j, -0.4 + 1.4j])
    r_h = schottky.reproducing_check("hydro", fexp, Fexp, pts, dbl)
    out.append(Check("hydro kernel reproduces exact differentials",
                     "Khydroreproducing", float(np.max(np.abs(r_h - fexp(pts)))), 1e-6))
    out.append(Check("double/hydro kernel orthogonality", "orthogonal",
                     abs(schottky.orthogonality_integral(b, dbl)), 1e-8))

    # Abelian differential of the third kind
    ups = lambda w: schottky.upsilon_third_kind(w, a, b, dbl)
    res_a, res_b = _contour_residue(ups, a), _contour_residue(ups, b)
    out.append(Check("upsilon residues +1/-1", "upsilon",
                     max(abs(res_a - 1), abs(res_b + 1)), 1e-8))
    pa = numkit.integrate(ups, *numkit.cycle_rule(complex(-0.49, 0.25), 1.0, 256))
    pb = numkit.integrate(ups, *numkit.cycle_rule(complex(0.1, 0.0), dbl.tau, 256))
    out.append(Check("upsilon periods purely imaginary", "exupsilonab",
                     max(abs(pa.real), abs(pb.real)), 1e-8))
    ups_j = schottky.upsilon_third_kind(z, a, schottky.StripDouble.involution(a), dbl)
    dge = 2 * schottky._g_electro_dz(z, a, dbl.lattice)
    out.append(Check("upsilon matches the electro differential", "dGdGnu",
                     abs(ups_j + 2 * math.pi * dge), 1e-12))

    # Szego/Garabedian kernels
    rr = 1e-5
    L_near, kdiag = schottky.szego_genus1(a + rr, a, dbl)
    out.append(Check("Garabedian kernel simple pole", "LSzego",
                     abs(rr * L_near - 1 / (2 * math.pi)), 1e-8))
    worst = 0.0
    for y in (0.1, 0.7, 1.3):
        zz = complex(0.0, y)
        Lv, _ = schottky.szego_genus1(zz, a, dbl)
        Kv = schottky.szego_kernel(zz, a, dbl)
        worst = max(worst, abs(abs(Lv) - abs(Kv)))
    out.append(Check("Szego/Garabedian boundary modulus match",
                     "Szegoboundary", worst, 1e-8))

    # capacity chain: strict on the strip, degenerate on the disk
    margins = []
    for p in (-0.25 + 0.5j, -0.1 + 0.3j, -0.37 + 1.7j, -0.3 + 1.0j, -0.2 + 0.05j):
        margins.extend(schottky.capacity_functions(p, dbl).margins())
    min_margin = min(margins)
    out.append(Check("capacity chain strict on the strip", "inequalities",
                     0.0 if min_margin > 0 else -min_margin, 0.0))
    ch = schottky.disk_capacity_functions(0.3).chain()
    out.append(Check("capacities coincide on the disk", "inequalities-disk",
                     max(ch) - min(ch), 1e-8))

    worst = 0.0
    for p in (-0.25 + 0.5j, -0.1 + 0.3j, -0.37 + 1.7j, -0.3 + 1.0j, -0.15 + 0.9j):
        kappa = planar_green.curvature_of_metric(
            lambda w: schottky.gamma_electro(w, dbl), p)
        worst = max(worst, max(kappa + 4.0, 0.0))
    out.append(Check("electro metric curvature at most -4", "estimateskappa",
                     worst, 1e-3))

    # extremal maps
    fp = (schottky.ahlfors_map_disk(0.5 + 1e-6, 0.5)
          - schottky.ahlfors_map_disk(0.5 - 1e-6, 0.5)) / 2e-6
    ksz = planar_green.szego_disk(0.5, 0.5).real
    resid = abs(fp - 2 * math.pi * ksz)
    resid = max(resid, abs(abs(schottky.ahlfors_map_disk(cmath.exp(2.1j), 0.5)) - 1))
    out.append(Check("Ahlfors map: boundary modulus and derivative",
                     "Ahlfors", resid, 1e-8))

    am = 0.3
    bmod = abs(abs(schottky.circular_slit_map(cmath.exp(1.3j), am)) - (1 - am * am))
    rr = 0.05
    deriv = _contour_residue(
        lambda w: schottky.circular_slit_map(w, am) / (w - am) ** 2, am, rr, 16)
    out.append(Check("slit map: boundary modulus exp(gamma), f'(a)=1",
                     "fGG", max(bmod, abs(deriv - 1.0)), 1e-8))
    return out


# ---------------------------------------------------------------------------
# torus report: the genus-one identities at one modulus
# ---------------------------------------------------------------------------

# ointdGp's tolerance is an absolute 1e-8 and its roundoff a few ulp of p
# (3.7e-9 at |p| <= 1e7, failing from about 3e7), so larger p are refused
MAX_CIRCULATION = 1e7


def torus_checks(tau: complex, p: float) -> list[Check]:
    """The lattice identities at the modulus tau and, for a purely imaginary
    tau, the kernel identities of the strip double with hydro circulation
    p (|p| at most MAX_CIRCULATION).  The points scale with Im tau."""
    if not abs(p) <= MAX_CIRCULATION:
        raise ParameterError(f"p must be at most {MAX_CIRCULATION:g} in modulus")
    L = elliptic.lattice_constants(tau)
    at = 0.31 + 0.41j * tau.imag
    out = [
        Check("Legendre identity", "Legendre", _legendre_residual(L), 1e-12),
        Check("period matrices satisfy PQ = I + R^2", "PQR",
              surface.torus_harmonic_basis(L)["periods"].residuals()["PQ_I_R2"], 1e-10),
        Check("Bergman expansion in either basis", "KPQ",
              surface.bergman_expansion_check(L), 1e-10),
        Check("Schiffer kernel zero principal value", "C",
              abs(surface.schiffer_mean_value(L, at)), 1e-11),
    ]
    if abs(tau.real) < 1e-14:
        dbl = schottky.StripDouble(tau)
        a = complex(-0.25, 0.4 * tau.imag)
        z = complex(-0.2, 0.15 * tau.imag)
        out += [
            Check("fundamental kernel identity Ke - Kh = 2Kd", "KKH",
                  _kkh_residual(z, a, dbl), 0.0),
            Check("strip kernel periods", "kernels2", _kernel_period_residual(dbl, a), 1e-8),
            Check("planar kernels from the double (KKL)", "KKL",
                  max(schottky.kkl_combinations(z, a, dbl)), 1e-10),
            Check("hydro circulation equals p", "ointdGp",
                  _circulation_residual(a, dbl, p), 1e-8),
        ]
    return out


def _legendre_residual(L: elliptic.TorusLattice) -> float:
    return abs(L.eta1 * L.tau - L.eta2 - 2j * math.pi)


def _kkh_residual(z: complex, a: complex, dbl: schottky.StripDouble) -> float:
    ke, kh, kd = schottky.strip_bergman_kernels(z, a, dbl)
    return abs(ke - kh - 2 * kd)


def _circulation_residual(a: complex, dbl: schottky.StripDouble, p: float) -> float:
    return abs(schottky.hydro_circulation(a, dbl, p) - p)


def _kernel_period_residual(dbl: schottky.StripDouble, a: complex) -> float:
    # each trapezoid errs like exp(-2 pi d n / period), d the poles' distance
    # from its path; at a = -1/4 + 0.4i Im tau, d = 1/4 for y, 0.4 Im tau for x
    wall, wy = dbl.wall_rule(0.0, max(192, math.ceil(64 * dbl.T)))
    (pa_e, pa_h), (pb_e, pb_h) = (
        numkit.integrate(lambda z: schottky.strip_bergman_kernels(z, a, dbl)[:2],
                         nodes, dz)
        for nodes, dz in (numkit.cycle_rule(-0.5, 1.0, max(192, math.ceil(24 / dbl.T))),
                          (wall, 1j * wy)))
    return max(abs(pa_e), abs(pb_e - 2j), abs(pa_h + 2 / dbl.T), abs(pb_h))


def _strip_flux(a: complex, dbl: schottky.StripDouble) -> float:
    gx = lambda z: schottky._g_hydro_dx(z, a, dbl, 0.0)
    return float(numkit.integrate(gx, *dbl.wall_rule(-0.5, 96))
                 - numkit.integrate(gx, *dbl.wall_rule(0.0, 96)))


def _wall_tangential(dbl: schottky.StripDouble, a: complex, x0: float) -> float:
    h = 1e-5
    return (schottky._g_hydro_extended(complex(x0, 0.4 + h), a, dbl, 0.7)
            - schottky._g_hydro_extended(complex(x0, 0.4 - h), a, dbl, 0.7)) / (2 * h)


def _hydrohydro(dbl: schottky.StripDouble, a: complex, b: complex) -> float:
    integrand = lambda z: (schottky._g_hydro_extended(z, a, dbl, 0.7)
                           * schottky._g_hydro_dx(z, b, dbl, 0.7))
    # the wall x = 0 carries orientation +1, the wall x = -1/2 orientation -1
    return float(numkit.integrate(integrand, *dbl.wall_rule(0.0, 128))
                 - numkit.integrate(integrand, *dbl.wall_rule(-0.5, 128)))


def _contour_residue(f, c: complex, radius: float = 0.01, n: int = 64) -> complex:
    return numkit.contour_integral(f, *numkit.circle_rule(c, radius, n)) / (2j * math.pi)


SUITES = {
    "planar": planar_checks,
    "surface": surface_checks,
    "schottky": schottky_checks,
}


def run_suite(suite: str) -> list[Check]:
    if suite == "all":
        checks = []
        for name in ("planar", "surface", "schottky"):
            checks.extend(SUITES[name]())
        return checks
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite]()
