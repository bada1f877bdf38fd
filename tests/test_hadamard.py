import math

import numpy as np
import pytest

from potflow import hadamard as hd, planar_green as pg, verify
from potflow.errors import DomainError, ParameterError, PoleError

DISK = pg.DomainDescriptor.disk(1.0)


def test_dilation_delta_green():
    var = hd.BoundaryVariation(DISK, lambda t: 1.0)
    lhs, rhs = hd.hadamard_delta_green(var, 0.0, 0.5)
    assert abs(lhs - 1 / (2 * math.pi)) < 1e-13
    assert abs(rhs - 1 / (2 * math.pi)) < 1e-12
    assert abs(lhs - rhs) < 1e-13


def test_zero_variation():
    var = hd.BoundaryVariation(DISK, lambda t: 0.0)
    lhs, rhs = hd.hadamard_delta_green(var, 0.0, 0.5)
    assert lhs == 0.0 and rhs == 0.0


def test_translation_mode_matches():
    var = hd.BoundaryVariation(DISK, math.cos)
    lhs, rhs = hd.hadamard_delta_green(var, 0.0, 0.5)
    assert abs(lhs - rhs) < 1e-13
    # independent oracle: the translated disk has a closed-form Green function
    eps = 1e-4
    fd = (pg.green(DISK, -eps, 0.5 - eps) - pg.green(DISK, eps, 0.5 + eps)) / (2 * eps)
    assert abs(lhs - fd) < 1e-9


def test_translation_mode_moves_h0_with_the_disk():
    # independent oracle for a model with A' != 0 (A(u) = u): the disk
    # translated by t has h0_t(a) = h0(a - t); the difference's own error
    # reads 4.7e-9 at h = 1e-4
    a, h = 0.2 + 0.1j, 1e-4
    lhs, rhs = hd.hadamard_delta_h0(hd.BoundaryVariation(DISK, math.cos), a)
    fd = (pg.robin_data(DISK, a - h).h0 - pg.robin_data(DISK, a + h).h0) / (2 * h)
    assert abs(lhs - fd) <= 1e-8
    assert abs(lhs - rhs) <= 1e-13


def test_delta_h0_dilation():
    var = hd.BoundaryVariation(DISK, lambda t: 1.0)
    lhs, rhs = hd.hadamard_delta_h0(var, 0.0)
    assert abs(lhs - 1.0) < 1e-13 and abs(rhs - 1.0) < 1e-12
    lhs5, rhs5 = hd.hadamard_delta_h0(var, 0.5)
    assert abs(rhs5 - 5 / 3) < 1e-12
    assert abs(lhs5 - 5 / 3) < 1e-13


def test_one_conformal_model_serves_both_formulas_and_both_signs():
    samples = []

    def delta_n(t):
        samples.append(t)
        return math.cos(2 * t)

    var = hd.BoundaryVariation(DISK, delta_n)
    # delta_n is sampled once, at the boundary rule's angles, as Python floats
    assert len(samples) == hd._BOUNDARY_N and {type(t) for t in samples} == {float}
    assert samples == var.rule[0].tolist()
    samples.clear()
    # both formulas read the samples taken at construction
    hd.hadamard_delta_green(var, 0.1, 0.5j)
    hd.hadamard_delta_h0(var, 0.3 - 0.2j)
    assert samples == []


# re-recorded when the lhs became the exact first variation in place of a
# symmetric difference in a model step: every rhs kept its bits, and each
# lhs now equals its rhs to 1.7e-15 relative
PINNED = {
    (1.0, "cos"): ((-0.017058249323386062, -0.017058249323386072),
                   (0.4210526315789474, 0.4210526315789473)),
    (1.0, "cos2"): ((-0.002493845898105642, -0.002493845898105638),
                    (0.09315789473684206, 0.09315789473684205)),
    (1.3, "cos"): ((-0.009847029116273227, -0.009847029116273246),
                   (0.24390243902439024, 0.2439024390243901)),
    (1.3, "cos2"): ((-0.001461392147964593, -0.0014613921479645943),
                    (0.041797573187384085, 0.04179757318738404)),
}
MODES = {"cos": math.cos, "cos2": lambda t: math.cos(2 * t)}


@pytest.mark.parametrize("R, mode", sorted(PINNED))
def test_hadamard_values_are_pinned(R, mode):
    a, b = 0.2 + 0.1j, -0.3 + 0.25j
    var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), MODES[mode])
    pinned = hd.hadamard_delta_green(var, a, b), hd.hadamard_delta_h0(var, a)
    assert pinned == PINNED[R, mode]
    for lhs, rhs in pinned:
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_hadamard_sides_agree_on_the_pinned_modes():
    # both formulas, not only delta G: a symmetric difference in a model step
    # of 1e-4 once left delta h0 2.5e-10 off at (1, cos); the first variation
    # reads 1.1e-16
    a, b = 0.2 + 0.1j, -0.3 + 0.25j
    for R, mode in PINNED:
        var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), MODES[mode])
        for lhs, rhs in (hd.hadamard_delta_green(var, a, b), hd.hadamard_delta_h0(var, a)):
            assert abs(lhs - rhs) <= 1e-13, (R, mode)


@pytest.mark.parametrize("R", [1.0, 1.3])
def test_hadamard_sides_agree_on_a_mode_with_many_harmonics(R):
    # the pinned modes give A one nonzero coefficient; this one gives it 15
    # to 19 above 1e-16, so the Horner pass's A' is read in every degree
    mode = lambda t: math.exp(math.cos(t - 0.4)) - 0.3 * math.sin(3 * t)
    var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), mode)
    for a, b in ((0.2 + 0.1j, -0.3 + 0.25j), (0.7j, -0.6 + 0.1j), (0.05, 0.8)):
        for lhs, rhs in (hd.hadamard_delta_green(var, a * R, b * R),
                         hd.hadamard_delta_h0(var, a * R), hd.hadamard_delta_h0(var, b * R)):
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs), (a, b)


def test_conformal_model_is_first_order():
    # A's coefficients alone; with A = 1 (dilation) f(w) = w (1 + t) exactly
    var = hd.BoundaryVariation(DISK, lambda t: 1.0)
    assert var.model.tolist() == [1] + [0] * (len(var.model) - 1)


@pytest.mark.parametrize("R", [1e-20, 1e20])
def test_hadamard_formulas_scale_with_the_disk(R):
    # bounds relative to R: R lhs and R rhs do not depend on the disk's size
    a, b = 0.2 + 0.1j, -0.3 + 0.25j
    mode = lambda t: math.cos(2 * t) + 0.5 * math.sin(t)

    def scaled(R):
        var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), mode)
        return ([R * v for v in hd.hadamard_delta_green(var, a * R, b * R)],
                [R * v for v in hd.hadamard_delta_h0(var, a * R)])

    (g_lhs, g_rhs), (h_lhs, h_rhs) = scaled(R)
    (g_lhs1, g_rhs1), (h_lhs1, h_rhs1) = scaled(1.0)
    assert abs(g_lhs - g_lhs1) <= 1e-13 * abs(g_lhs1)
    assert abs(g_rhs - g_rhs1) <= 1e-9 * abs(g_rhs1)
    assert abs(h_rhs - h_rhs1) <= 1e-12 * abs(h_rhs1)
    assert abs(h_lhs - h_lhs1) <= 1e-13 * abs(h_lhs1)
    for lhs, rhs in ((g_lhs, g_rhs), (h_lhs, h_rhs)):
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


@pytest.mark.parametrize("R", [1e-100, 1.0, 1.3, 1e100])
def test_disk_poisson_density_has_unit_flux(R):
    # the outward-normal convention of every boundary integral here
    _, z, ds = pg._disk_rule(R, hd._BOUNDARY_N)
    assert abs(ds @ pg._disk_poisson(R, 0j, z) - 1.0) <= 1e-13


def test_delta_h0_odd_mode_vanishes():
    # tangential/odd normal speed: the quadrature integrand is odd
    var = hd.BoundaryVariation(DISK, math.cos)
    _, rhs = hd.hadamard_delta_h0(var, 0.0)
    assert abs(rhs) < 1e-10


@pytest.mark.parametrize("R", [1.0, 1.3])
def test_dilation_matches_the_difference_of_larger_and_smaller_disks(R):
    # independent oracle: under delta_n = 1 the perturbed domain is exactly
    # the disk of radius R + t, so a central difference in the radius of
    # green and of robin_data's h0 approximates both left sides; the
    # difference's own error reads 2.4e-10 (G) and 5.6e-9 (h0) at h = 1e-4 R
    a, b = 0.2 + 0.1j, -0.3 + 0.25j
    var = hd.BoundaryVariation(pg.DomainDescriptor.disk(R), lambda t: 1.0)
    h = 1e-4 * R
    big, small = pg.DomainDescriptor.disk(R + h), pg.DomainDescriptor.disk(R - h)
    dg = (pg.green(big, a, b) - pg.green(small, a, b)) / (2 * h)
    dh0 = (pg.robin_data(big, a).h0 - pg.robin_data(small, a).h0) / (2 * h)
    assert abs(hd.hadamard_delta_green(var, a, b)[0] - dg) <= 1e-8
    assert abs(hd.hadamard_delta_h0(var, a)[0] - dh0) <= 1e-8


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
    dens_c = lambda t: (1 - abs(c) ** 2) / (
        2 * math.pi * abs(np.exp(1j * t) - c) ** 2)
    var = hd.BoundaryVariation(DISK, dens_c)     # delta_n = -dG/dn(.,c)
    lhs, _ = hd.hadamard_delta_green(var, a, b)
    assert abs(lhs + hd.triple_green(a, b, c)) < 1e-13


def test_interior_requirements():
    var = hd.BoundaryVariation(DISK, lambda t: 1.0)
    with pytest.raises(DomainError):
        hd.hadamard_delta_green(var, 1.5, 0.2)
    with pytest.raises(PoleError):
        hd.hadamard_delta_green(var, 0.2, 0.2)


@pytest.mark.parametrize("delta_n", [
    lambda t: math.nan if t > 3 else math.cos(t),
    lambda t: math.inf,
    # nan at one angle of the conformal model's 256 only
    lambda t: math.nan if abs(t - 2 * math.pi / 256) < 1e-12 else math.cos(t),
    # nan at one odd angle, which only the formulas' 512 nodes see
    lambda t: math.nan if abs(t - 2 * math.pi / 512) < 1e-12 else math.cos(t),
], ids=["late-nan-delta_n", "inf-delta_n", "one-nan-delta_n", "odd-nan-delta_n"])
def test_variation_refuses_non_finite_and_zero_input(delta_n):
    with pytest.raises(ParameterError, match="delta_n must be finite on the boundary"):
        hd.BoundaryVariation(DISK, delta_n)


def _scale_model_constant(var):
    # the left sides' mutant: A's constant coefficient, 1 under dilation
    var.model[0] *= 1 + 1e-8


def _scale_arc_length(var):
    # the right sides' mutant: the boundary rule's arc-length weights
    ds = var.rule[2]
    ds *= 1 + 1e-8


@pytest.mark.parametrize("mutate", [_scale_model_constant, _scale_arc_length],
                         ids=["model", "arc_length"])
def test_hadamard_rows_fail_when_one_side_is_1e8_off(monkeypatch, mutate):
    # each mutant moves a row's residual to 1.6e-9 (Hadamard) or 1.7e-8
    # (Hadamardh): it fails at the rows' tolerance 1e-13, and it passed at
    # their old tolerance 1e-6, which the step error of a symmetric
    # difference once needed
    post_init = hd.BoundaryVariation.__post_init__
    monkeypatch.setattr(hd.BoundaryVariation, "__post_init__",
                        lambda var: (post_init(var), mutate(var)))
    rows = {c.anchor: c for c in verify.planar_checks() if c.anchor.startswith("Hadamard")}
    assert sorted(rows) == ["Hadamard", "Hadamardh"]
    for row in rows.values():
        assert row.tolerance == 1e-13 and not row.passed, row
        assert row.residual <= 1e-6, row
