"""Hadamard variational formulas and the triple-Green symmetry on the disk.

The perturbed domain r < R + eps*delta_n(theta) + O(eps^2) is realized as
the image of the disk under the analytic map f(w) = w(1 + eps*A(w/R)),
whose boundary modulus matches the prescribed normal speed to first order
in eps.  Green functions of the model domain are exact (G_eps =
G_disk(f^{-1}(.), f^{-1}(.))), and the formulas take the symmetric
difference (G_eps - G_-eps) / 2 eps, in which every even order in eps
cancels: an O(eps^2) boundary correction would not change the first-order
Hadamard term, which is isolated without grid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import planar_green
from .errors import DomainError, ParameterError, PoleError

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
    perturbed boundary is r = R + epsilon*delta_n(theta) + O(epsilon^2).
    delta_n, a function of one angle, is called once per boundary node at
    construction; the guard, the conformal model and both formulas read them.
    """

    base: planar_green.DomainDescriptor
    delta_n: Callable[[float], float]
    epsilon: float
    rule: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    # power-series coefficients of A of ``_PerturbedDisk``; they depend on
    # delta_n alone, so every eps shares them
    model: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base.kind != "disk":
            raise ParameterError("boundary variations are implemented on disks")
        if not (math.isfinite(self.epsilon) and self.epsilon != 0):
            raise ParameterError("epsilon must be finite and nonzero")
        R = self.base.R
        rule = planar_green._disk_rule(R, _BOUNDARY_N)
        samples = np.array([self.delta_n(t) for t in rule[0].tolist()])
        # np.max, unlike max(), returns nan if any value is nan
        peak = np.max(np.abs(samples))
        if not math.isfinite(peak):
            raise ParameterError("delta_n must be finite on the boundary")
        if abs(self.epsilon) * peak > R / 10:
            raise DomainError("perturbation too large: domain may lose star shape")
        # the model's _FOURIER_N angles are every other node: 2 pi (2k / 512)
        # equals 2 pi (k / 256) exactly
        ak = np.fft.rfft(samples[::2] / R) / _FOURIER_N
        # analytic completion: Re(A) = delta_n / R on |w| = 1 with A analytic in w
        a_coef = np.concatenate([[ak[0].real], 2 * ak[1:]])
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "model", a_coef)


class _PerturbedDisk:
    """Conformal model of the perturbed disk, exact Green function.

    f(w) = w (1 + eps A(w/R)) with A the analytic completion of delta_n/R on
    the unit circle: the boundary radius is R + eps delta_n + O(eps^2), and
    the O(eps^2) error cancels in the formulas' symmetric difference.
    """

    def __init__(self, var: BoundaryVariation, eps: float):
        self.base, self.R, self.eps = var.base, var.base.R, eps
        self._a_coef = var.model[::-1]

    def _jet(self, w: complex) -> tuple[complex, complex]:
        """f(w) and f'(w), with A(u) and A'(u), u = w/R, from one Horner pass."""
        u = w / self.R
        A = dA = 0j
        for c in self._a_coef:
            dA = dA * u + A
            A = A * u + c
        val = 1 + self.eps * A
        return w * val, val + u * (self.eps * dA)

    def pull(self, z: complex) -> complex:
        w = z
        for _ in range(60):
            f, f_prime = self._jet(w)
            step = (f - z) / f_prime
            w -= step
            if abs(step) < 1e-15 * (self.R + abs(w)):
                return w
        raise ParameterError("conformal inversion did not converge")

    def green(self, z: complex, a: complex) -> float:
        return planar_green.green(self.base, self.pull(z), self.pull(a))

    def robin_h0(self, a: complex) -> float:
        w = self.pull(a)
        return planar_green.robin_data(self.base, w).h0 + math.log(abs(self._jet(w)[1]))


def hadamard_delta_green(var: BoundaryVariation, a: complex,
                         b: complex) -> tuple[float, float]:
    """Both sides of the Hadamard formula for delta G(a,b).

    lhs: central difference of the perturbed Green functions in epsilon;
    rhs: oint dG/dn(.,a) dG/dn(.,b) delta_n ds over the base circle.
    """
    a, b = complex(a), complex(b)
    planar_green._require_interior(var.base, a, b)
    if abs(a - b) < 1e-12 * var.base.R:
        raise PoleError("a and b must be distinct")
    eps = var.epsilon
    plus = _PerturbedDisk(var, +eps).green(a, b)
    minus = _PerturbedDisk(var, -eps).green(a, b)
    lhs = (plus - minus) / (2 * eps)

    R = var.base.R
    _, z, ds = var.rule
    pa, pb = (planar_green._disk_poisson(R, p, z) for p in (a, b))
    return lhs, float((var.samples * (ds * pa * pb)).sum())


def hadamard_delta_h0(var: BoundaryVariation, a: complex) -> tuple[float, float]:
    """Both sides of delta h0(a) = 2 pi oint (dG/dn(.,a))^2 delta_n ds."""
    a = complex(a)
    planar_green._require_interior(var.base, a)
    eps = var.epsilon
    plus = _PerturbedDisk(var, +eps).robin_h0(a)
    minus = _PerturbedDisk(var, -eps).robin_h0(a)
    lhs = (plus - minus) / (2 * eps)

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
