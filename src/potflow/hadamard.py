"""Hadamard variational formulas and the triple-Green symmetry on the disk.

A normal speed delta_n(theta) on the circle |z| = R moves the boundary to
r = R + t delta_n(theta) + O(t^2).  The maps f_t(w) = w (1 + t A(w/R)),
with A analytic in the unit disk and Re A = delta_n / R on its boundary,
carry the disk onto such domains, whose Green functions and Robin functions
are G_t(z, a) = G(f_t^{-1}(z), f_t^{-1}(a)) and h0_t(a) = h0(w) +
log|f_t'(w)|, w = f_t^{-1}(a).  The formulas' left sides are their
derivatives at t = 0, in closed form: a point p moves at v_p = -p A(p/R),
so delta G(a, b) = 2 Re(dG/dz(a, b) v_a + dG/dz(b, a) v_b) and
delta h0(a) = 2 Re(h1(a) v_a) + Re(A(u) + u A'(u)), u = a/R.  The O(t^2)
part of the model's boundary does not enter a first variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import planar_green
from .errors import ParameterError, PoleError

__all__ = [
    "BoundaryVariation",
    "hadamard_delta_green",
    "hadamard_delta_h0",
    "triple_green",
]

_FOURIER_N = 256
# trapezoid nodes of every boundary integral on the circle
_BOUNDARY_N = 512
# triple_green's rule on the unit circle, built once: nodes and arc length
_, _UNIT_NODES, _UNIT_DS = planar_green._disk_rule(1.0, _BOUNDARY_N)
_UNIT_NODES.flags.writeable = _UNIT_DS.flags.writeable = False


@dataclass(frozen=True)
class BoundaryVariation:
    """Normal-speed boundary perturbation of a disk.

    delta_n maps the boundary angle theta to the outward normal speed; the
    perturbed boundary is r = R + t*delta_n(theta) + O(t^2).  delta_n, a
    function of one angle, is called once per boundary node at
    construction; the conformal model and both formulas read them.
    """

    base: planar_green.DomainDescriptor
    delta_n: Callable[[float], float]
    rule: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    # power-series coefficients of the conformal model's A, lowest first
    model: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base.kind != "disk":
            raise ParameterError("boundary variations are implemented on disks")
        R = self.base.R
        rule = planar_green._disk_rule(R, _BOUNDARY_N)
        samples = np.array([self.delta_n(t) for t in rule[0].tolist()])
        if not np.isfinite(samples).all():
            raise ParameterError("delta_n must be finite on the boundary")
        # the model's _FOURIER_N angles are every other node: 2 pi (2k / 512)
        # equals 2 pi (k / 256) exactly
        ak = np.fft.rfft(samples[::2] / R) / _FOURIER_N
        # analytic completion: Re(A) = delta_n / R on |w| = 1 with A analytic in w
        a_coef = np.concatenate([[ak[0].real], 2 * ak[1:]])
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "model", a_coef)


def _model_jet(var: BoundaryVariation, p: complex) -> tuple[complex, complex]:
    """A(u) and u A'(u) at u = p/R, from one Horner pass over var.model."""
    u = p / var.base.R
    A = dA = 0j
    for c in var.model[::-1].tolist():
        dA = dA * u + A
        A = A * u + c
    return A, u * dA


def hadamard_delta_green(var: BoundaryVariation, a: complex,
                         b: complex) -> tuple[float, float]:
    """Both sides of the Hadamard formula for delta G(a,b).

    lhs: the first variation of G(a, b) as a and b move at v_a and v_b;
    rhs: oint dG/dn(.,a) dG/dn(.,b) delta_n ds over the base circle.
    """
    a, b = complex(a), complex(b)
    planar_green._require_interior(var.base, a, b)
    if abs(a - b) < 1e-12 * var.base.R:
        raise PoleError("a and b must be distinct")
    va, vb = (-p * _model_jet(var, p)[0] for p in (a, b))
    # G is symmetric, so its derivative in the second point is dG/dz(b, a)
    dgdz = planar_green.green_z_derivative
    lhs = 2 * (dgdz(var.base, a, b) * va + dgdz(var.base, b, a) * vb).real

    _, z, ds = var.rule
    pa, pb = (planar_green._disk_poisson(var.base.R, p, z) for p in (a, b))
    return lhs, float((var.samples * (ds * pa * pb)).sum())


def hadamard_delta_h0(var: BoundaryVariation, a: complex) -> tuple[float, float]:
    """Both sides of delta h0(a) = 2 pi oint (dG/dn(.,a))^2 delta_n ds."""
    a = complex(a)
    planar_green._require_interior(var.base, a)
    A, uA = _model_jet(var, a)
    # h0 moves with a, and log|f'| gains Re(A + u A') at first order
    lhs = 2 * (planar_green.robin_data(var.base, a).h1 * -a * A).real + (A + uA).real

    _, z, ds = var.rule
    pa = planar_green._disk_poisson(var.base.R, a, z)
    return lhs, 2 * math.pi * float((var.samples * (ds * pa ** 2)).sum())


def triple_green(a: complex, b: complex, c: complex) -> float:
    """oint dG/dn(.,a) dG/dn(.,b) dG/dn(.,c) ds on the unit disk.

    Completely symmetric in a, b, c; equal arguments are allowed.  This is
    the infinitesimal generator of Laplacian growth: the Hadamard variation
    with delta_n = -dG/dn(.,c) changes G(a,b) by -triple_green(a,b,c) per
    unit time.
    """
    points = tuple(map(complex, (a, b, c)))
    planar_green._require_interior(planar_green.UNIT_DISK, *points)
    pa, pb, pc = (planar_green._disk_poisson(1.0, p, _UNIT_NODES) for p in points)
    return -float(_UNIT_DS @ (pa * pb * pc))
