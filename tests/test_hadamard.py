import math

import numpy as np
import pytest

from potflow import hadamard as hd, planar_green as pg
from potflow.errors import DomainError, ParameterError, PoleError

DISK = pg.DomainDescriptor.disk(1.0)


def test_dilation_delta_green():
    var = hd.BoundaryVariation(DISK, lambda t: 1.0, 1e-5)
    lhs, rhs = hd.hadamard_delta_green(var, 0.0, 0.5)
    assert abs(lhs - 1 / (2 * math.pi)) < 1e-6
    assert abs(rhs - 1 / (2 * math.pi)) < 1e-12
    assert abs(lhs - rhs) < 1e-6


def test_zero_variation():
    var = hd.BoundaryVariation(DISK, lambda t: 0.0, 1e-5)
    lhs, rhs = hd.hadamard_delta_green(var, 0.0, 0.5)
    assert lhs == 0.0 and rhs == 0.0


def test_translation_mode_matches():
    var = hd.BoundaryVariation(DISK, math.cos, 1e-4)
    lhs, rhs = hd.hadamard_delta_green(var, 0.0, 0.5)
    assert abs(lhs - rhs) < 1e-5
    # independent oracle: the translated disk has a closed-form Green function
    eps = 1e-4
    fd = (pg.green(DISK, -eps, 0.5 - eps) - pg.green(DISK, eps, 0.5 + eps)) / (2 * eps)
    assert abs(lhs - fd) < 1e-9


def test_delta_h0_dilation():
    var = hd.BoundaryVariation(DISK, lambda t: 1.0, 1e-5)
    lhs, rhs = hd.hadamard_delta_h0(var, 0.0)
    assert abs(lhs - 1.0) < 1e-7 and abs(rhs - 1.0) < 1e-12
    lhs5, rhs5 = hd.hadamard_delta_h0(var, 0.5)
    assert abs(rhs5 - 5 / 3) < 1e-12
    assert abs(lhs5 - 5 / 3) < 1e-7


def test_one_conformal_model_serves_both_formulas_and_both_signs():
    samples = []

    def delta_n(t):
        samples.append(t)
        return math.cos(2 * t)

    var = hd.BoundaryVariation(DISK, delta_n, 1e-4)
    # delta_n is sampled once, at the boundary rule's angles, as Python floats
    assert len(samples) == hd._BOUNDARY_N and {type(t) for t in samples} == {float}
    assert samples == var.rule[0].tolist()
    samples.clear()
    # both formulas, each at +eps and -eps, read the samples taken at construction
    hd.hadamard_delta_green(var, 0.1, 0.5j)
    hd.hadamard_delta_h0(var, 0.3 - 0.2j)
    assert samples == []


# re-recorded when the conformal model lost its eps^2 term: every rhs kept its
# bits, and the lhs and the two model Green values moved by at most 7.8e-9
# relative (the symmetric difference cancels even orders in eps)
PINNED = {
    (1.0, "cos"): ((-0.01705824918263321, -0.017058249323386072),
                   (0.42105263182740105, 0.4210526315789473),
                   0.10940746665722205, 0.10941087830705858),
    (1.0, "cos2"): ((-0.0024938459114443035, -0.002493845898105638),
                    (0.09315789467941732, 0.09315789473684205),
                    0.10940892320240704, 0.10940942197158933),
    (1.3, "cos"): ((-0.009847029084769643, -0.009847029116273246),
                   (0.24390243907171372, 0.2439024390243901),
                   0.1486489949229196, 0.14865096432873656),
    (1.3, "cos2"): ((-0.0014613921490991277, -0.0014613921479645943),
                    (0.041797573182150716, 0.04179757318738404),
                    0.1486498335096792, 0.14865012578810902),
}
MODES = {"cos": math.cos, "cos2": lambda t: math.cos(2 * t)}


@pytest.mark.parametrize("R, mode", sorted(PINNED))
def test_hadamard_values_are_pinned(R, mode):
    a, b = 0.2 + 0.1j, -0.3 + 0.25j
    var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), MODES[mode], 1e-4)
    assert (hd.hadamard_delta_green(var, a, b), hd.hadamard_delta_h0(var, a),
            hd._PerturbedDisk(var, 1e-4).green(a, b),
            hd._PerturbedDisk(var, -1e-4).green(a, b)) == PINNED[R, mode]


def test_hadamard_sides_agree_on_the_pinned_modes():
    # both formulas, not only delta G: the eps^2 term of the model once left
    # delta h0 2.4e-9 off at (1, cos); the first-order model reads 2.5e-10
    a, b = 0.2 + 0.1j, -0.3 + 0.25j
    for R, mode in PINNED:
        var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), MODES[mode], 1e-4)
        for lhs, rhs in (hd.hadamard_delta_green(var, a, b), hd.hadamard_delta_h0(var, a)):
            assert abs(lhs - rhs) <= 1e-9, (R, mode)


def test_conformal_model_is_first_order():
    # A's coefficients alone; with A = 1 (dilation) f(w) = w (1 + eps) exactly
    var = hd.BoundaryVariation(DISK, lambda t: 1.0, 1e-4)
    assert var.model.tolist() == [1] + [0] * (len(var.model) - 1)
    assert hd._PerturbedDisk(var, 1e-4)._jet(0.3 + 0.2j) == ((0.3 + 0.2j) * (1 + 1e-4), 1 + 1e-4)


@pytest.mark.parametrize("R", [1e-20, 1e20])
def test_hadamard_formulas_scale_with_the_disk(R):
    # bounds relative to R: R lhs and R rhs do not depend on the disk's size
    a, b = 0.2 + 0.1j, -0.3 + 0.25j
    mode = lambda t: math.cos(2 * t) + 0.5 * math.sin(t)

    def scaled(R):
        var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), mode, 1e-4 * R)
        return ([R * v for v in hd.hadamard_delta_green(var, a * R, b * R)],
                [R * v for v in hd.hadamard_delta_h0(var, a * R)])

    (g_lhs, g_rhs), (h_lhs, h_rhs) = scaled(R)
    (g_lhs1, g_rhs1), (h_lhs1, h_rhs1) = scaled(1.0)
    assert abs(g_lhs - g_lhs1) <= 1e-9 * abs(g_lhs1)
    assert abs(g_rhs - g_rhs1) <= 1e-9 * abs(g_rhs1)
    assert abs(h_rhs - h_rhs1) <= 1e-12 * abs(h_rhs1)
    # lhs differences h0 ~ log R
    assert abs(h_lhs - h_lhs1) <= 1e-8 * abs(h_lhs1)


@pytest.mark.parametrize("R", [1e-100, 1.0, 1.3, 1e100])
def test_disk_poisson_density_has_unit_flux(R):
    # the outward-normal convention of every boundary integral here
    _, z, ds = pg._disk_rule(R, hd._BOUNDARY_N)
    assert abs(ds @ pg._disk_poisson(R, 0j, z) - 1.0) <= 1e-13


def test_delta_h0_odd_mode_vanishes():
    # tangential/odd normal speed: the quadrature integrand is odd
    var = hd.BoundaryVariation(DISK, math.cos, 1e-5)
    _, rhs = hd.hadamard_delta_h0(var, 0.0)
    assert abs(rhs) < 1e-10


def test_first_order_slope():
    for mode in (lambda t: 1.0, math.cos, lambda t: math.cos(2 * t)):
        discrepancies = []
        for eps in (1e-3, 1e-4, 1e-5):
            var = hd.BoundaryVariation(DISK, mode, eps)
            a, b = 0.2 + 0.1j, -0.3 + 0.25j
            _, rhs = hd.hadamard_delta_green(var, a, b)
            # the one-sided difference keeps the first-order-in-eps remainder
            lhs = (hd._PerturbedDisk(var, eps).green(a, b) - pg.green(DISK, a, b)) / eps
            discrepancies.append(abs(lhs - rhs) / abs(rhs))
        for hi, lo in zip(discrepancies[:-1], discrepancies[1:]):
            slope = math.log10(hi / lo)
            assert 0.8 <= slope <= 1.2


def test_triple_green_origin_value():
    val = hd.triple_green(0, 0, 0)
    assert abs(val + 1 / (4 * math.pi ** 2)) < 1e-14
    assert abs(abs(val) - 0.0253303) < 1e-7


def test_triple_green_full_symmetry():
    import itertools
    pts = (0.31, 0.12j, -0.25 + 0.2j)
    vals = [hd.triple_green(*perm) for perm in itertools.permutations(pts)]
    assert max(vals) - min(vals) < 1e-10


def test_triple_green_shares_one_disk_rule(monkeypatch):
    # the rule is built once, at import, and shared read-only: a triple_green
    # call (verify's integrability row makes one per permutation) builds none
    calls, rule = [], pg._disk_rule
    monkeypatch.setattr(pg, "_disk_rule", lambda *args: calls.append(args) or rule(*args))
    for _ in range(3):
        hd.triple_green(0.31, 0.12j, -0.25 + 0.2j)
    assert calls == []
    assert not (hd._UNIT_NODES.flags.writeable or hd._UNIT_DS.flags.writeable)


def test_triple_green_generates_hele_shaw():
    a, b, c = 0.3, 0.1j, -0.25 + 0.2j
    eps = 1e-4
    dens_c = lambda t: (1 - abs(c) ** 2) / (
        2 * math.pi * abs(np.exp(1j * t) - c) ** 2)
    var = hd.BoundaryVariation(DISK, dens_c, eps)     # delta_n = -dG/dn(.,c)
    lhs, _ = hd.hadamard_delta_green(var, a, b)
    assert abs(lhs + hd.triple_green(a, b, c)) < 1e-4


def test_variation_size_guard():
    with pytest.raises(DomainError):
        hd.BoundaryVariation(DISK, lambda t: 1.0, 0.2)


def test_interior_requirements():
    var = hd.BoundaryVariation(DISK, lambda t: 1.0, 1e-5)
    with pytest.raises(DomainError):
        hd.hadamard_delta_green(var, 1.5, 0.2)
    with pytest.raises(PoleError):
        hd.hadamard_delta_green(var, 0.2, 0.2)


@pytest.mark.parametrize("delta_n, epsilon, message", [
    (math.cos, math.nan, "epsilon must be finite and nonzero"),
    (math.cos, math.inf, "epsilon must be finite and nonzero"),
    (math.cos, 0.0, "epsilon must be finite and nonzero"),
    (lambda t: math.nan if t > 3 else math.cos(t), 1e-4,
     "delta_n must be finite on the boundary"),
    (lambda t: math.inf, 1e-4, "delta_n must be finite on the boundary"),
    # nan at one angle of the conformal model's 256 only
    (lambda t: math.nan if abs(t - 2 * math.pi / 256) < 1e-12 else math.cos(t), 1e-4,
     "delta_n must be finite on the boundary"),
    # nan at one odd angle, which only the formulas' 512 nodes see
    (lambda t: math.nan if abs(t - 2 * math.pi / 512) < 1e-12 else math.cos(t), 1e-4,
     "delta_n must be finite on the boundary"),
], ids=["nan-epsilon", "inf-epsilon", "zero-epsilon", "late-nan-delta_n", "inf-delta_n",
        "one-nan-delta_n", "odd-nan-delta_n"])
def test_variation_refuses_non_finite_and_zero_input(delta_n, epsilon, message):
    with pytest.raises(ParameterError, match=message):
        hd.BoundaryVariation(DISK, delta_n, epsilon)


def test_variation_size_guard_reads_every_boundary_sample():
    # a spike at an odd angle: the model's 256 angles miss it, the formulas'
    # 512 nodes do not, so the guard reads all 512
    spike = lambda t: 1e4 if abs(t - 2 * math.pi * 3 / 512) < 1e-12 else 0.0
    with pytest.raises(DomainError, match="perturbation too large"):
        hd.BoundaryVariation(DISK, spike, 1e-4)
