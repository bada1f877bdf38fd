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
    samples.clear()   # the size guard's samples
    hd.hadamard_delta_green(var, 0.1, 0.5j)
    hd.hadamard_delta_h0(var, 0.3 - 0.2j)
    # each right-hand side samples delta_n at its _BOUNDARY_N nodes; the model
    # of the perturbed disk takes its 256 samples once, for +eps and -eps alike
    assert len(samples) == hd._FOURIER_N + 2 * hd._BOUNDARY_N


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
], ids=["nan-epsilon", "inf-epsilon", "zero-epsilon", "late-nan-delta_n", "inf-delta_n",
        "one-nan-delta_n"])
def test_variation_refuses_non_finite_and_zero_input(delta_n, epsilon, message):
    with pytest.raises(ParameterError, match=message):
        hd.BoundaryVariation(DISK, delta_n, epsilon)
