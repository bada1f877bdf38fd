"""Hadamard variational formulas and the triple-Green symmetry on the disk.

The perturbed domain r < R(1 + eps*delta_n(theta)/R ...) is realized as the
image of the disk under an analytic map f(w) = w(1 + eps*A(w) + eps^2*B(w))
whose boundary modulus matches the prescribed normal speed through second
order in eps.  Green functions of the perturbed domain are then exact
(G_eps = G_disk(f^{-1}(.), f^{-1}(.))), so the finite difference in eps
isolates the first-order Hadamard term without grid error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit, planar_green
from .errors import DomainError, NormalizationError, ParameterError, PoleError

__all__ = [
    "BoundaryVariation",
    "hadamard_delta_green",
    "hadamard_delta_h0",
    "triple_green",
]

_FOURIER_N = 256
# trapezoid nodes of every boundary integral on the circle
_BOUNDARY_N = 512


@dataclass(frozen=True)
class BoundaryVariation:
    """Normal-speed boundary perturbation of a disk.

    delta_n maps the boundary angle theta to the outward normal speed; the
    perturbed boundary is r = R + epsilon*delta_n(theta) + O(epsilon^2).
    """

    base: planar_green.DomainDescriptor
    delta_n: Callable[[float], float]
    epsilon: float

    def __post_init__(self):
        if self.base.kind != "disk":
            raise ParameterError("boundary variations are implemented on disks")
        if not (math.isfinite(self.epsilon) and self.epsilon != 0):
            raise ParameterError("epsilon must be finite and nonzero")
        # at the model's angles; np.max, unlike max(), returns nan if any value is nan
        peak = np.max([abs(self.delta_n(t))
                       for t in 2 * math.pi * np.arange(_FOURIER_N) / _FOURIER_N])
        if not math.isfinite(peak):
            raise ParameterError("delta_n must be finite on the boundary")
        if abs(self.epsilon) * peak > self.base.R / 10:
            raise DomainError("perturbation too large: domain may lose star shape")

    @functools.cached_property
    def _model_coefficients(self) -> tuple[np.ndarray, ...]:
        """Power-series coefficients of A, B, A' and B' of ``_PerturbedDisk``;
        they depend on delta_n alone, so every eps shares them."""
        theta = 2 * math.pi * np.arange(_FOURIER_N) / _FOURIER_N
        dn = np.array([self.delta_n(t) for t in theta]) / self.base.R
        ak = np.fft.rfft(dn) / _FOURIER_N
        # analytic completion: Re(A) = dn on |w| = 1 with A analytic in w
        a_coef = np.concatenate([[ak[0].real], 2 * ak[1:]])
        A = np.polynomial.polynomial.polyval(np.exp(1j * theta), a_coef)
        bk = np.fft.rfft(-0.5 * (A.imag ** 2)) / _FOURIER_N
        b_coef = np.concatenate([[bk[0].real], 2 * bk[1:]])
        return (a_coef, b_coef, *(np.arange(1, len(c)) * c[1:] for c in (a_coef, b_coef)))


class _PerturbedDisk:
    """Conformal model of the perturbed disk, exact Green function.

    f(w) = w (1 + eps A(w) + eps^2 B(w)) with A the analytic completion of
    delta_n/R on the unit circle and B correcting the O(eps^2) boundary
    modulus, leaving a radius error O(eps^3).
    """

    def __init__(self, var: BoundaryVariation, eps: float):
        self.base, self.R, self.eps = var.base, var.base.R, eps
        self._a_coef, self._b_coef, self._a_prime, self._b_prime = var._model_coefficients

    @staticmethod
    def _poly(coef: np.ndarray, w: complex) -> complex:
        out = 0j
        for c in coef[::-1]:
            out = out * w + c
        return out

    def push(self, w: complex) -> complex:
        u = w / self.R
        return w * (1 + self.eps * self._poly(self._a_coef, u)
                    + self.eps ** 2 * self._poly(self._b_coef, u))

    def _push_prime(self, w: complex) -> complex:
        # d/dw [w (1 + eps A(w/R) + eps^2 B(w/R))], A and B polynomial
        u = w / self.R
        val = (1 + self.eps * self._poly(self._a_coef, u)
               + self.eps ** 2 * self._poly(self._b_coef, u))
        return val + u * (self.eps * self._poly(self._a_prime, u)
                          + self.eps ** 2 * self._poly(self._b_prime, u))

    def pull(self, z: complex) -> complex:
        w = z
        for _ in range(60):
            step = (self.push(w) - z) / self._push_prime(w)
            w -= step
            if abs(step) < 1e-15 * (1 + abs(w)):
                return w
        raise ParameterError("conformal inversion did not converge")

    def green(self, z: complex, a: complex) -> float:
        return planar_green.green(self.base, self.pull(z), self.pull(a))

    def robin_h0(self, a: complex) -> float:
        w = self.pull(a)
        return planar_green.robin_data(self.base, w).h0 + math.log(abs(self._push_prime(w)))


def _densities(R: float, *points: complex) -> tuple[np.ndarray, np.ndarray, list]:
    """_BOUNDARY_N trapezoid angles theta on |z| = R, their arc-length weights, and
    -dG/dn(R e^{i theta}, p), the disk's Poisson density, for each point p."""
    theta, w = numkit.trapezoid_rule(_BOUNDARY_N, 2 * math.pi)
    z = R * np.exp(1j * theta)
    return theta, R * w, [planar_green._disk_poisson(R, complex(p), z) for p in points]


def _assert_unit_flux(R: float) -> None:
    _, ds, (density,) = _densities(R, 0j)
    flux = ds @ density
    if abs(flux - 1.0) > 1e-10:
        raise NormalizationError(f"outward-normal convention broken: flux {flux}")


def hadamard_delta_green(var: BoundaryVariation, a: complex,
                         b: complex) -> tuple[float, float]:
    """Both sides of the Hadamard formula for delta G(a,b).

    lhs: central difference of the perturbed Green functions in epsilon;
    rhs: oint dG/dn(.,a) dG/dn(.,b) delta_n ds over the base circle.
    """
    a, b = complex(a), complex(b)
    if not (var.base.contains(a) and var.base.contains(b)):
        raise DomainError("evaluation points must be interior")
    if abs(a - b) < 1e-12:
        raise PoleError("a and b must be distinct")
    _assert_unit_flux(var.base.R)
    eps = var.epsilon
    plus = _PerturbedDisk(var, +eps).green(a, b)
    minus = _PerturbedDisk(var, -eps).green(a, b)
    lhs = (plus - minus) / (2 * eps)

    theta, ds, (pa, pb) = _densities(var.base.R, a, b)
    # delta_n is a function of one angle
    return lhs, float(numkit.integrate(numkit.pointwise(var.delta_n), theta,
                                       ds * pa * pb))


def hadamard_delta_h0(var: BoundaryVariation, a: complex) -> tuple[float, float]:
    """Both sides of delta h0(a) = 2 pi oint (dG/dn(.,a))^2 delta_n ds."""
    a = complex(a)
    if not var.base.contains(a):
        raise DomainError("evaluation point must be interior")
    _assert_unit_flux(var.base.R)
    eps = var.epsilon
    plus = _PerturbedDisk(var, +eps).robin_h0(a)
    minus = _PerturbedDisk(var, -eps).robin_h0(a)
    lhs = (plus - minus) / (2 * eps)

    theta, ds, (pa,) = _densities(var.base.R, a)
    return lhs, 2 * math.pi * float(numkit.integrate(
        numkit.pointwise(var.delta_n), theta, ds * pa ** 2))


def triple_green(a: complex, b: complex, c: complex) -> float:
    """oint dG/dn(.,a) dG/dn(.,b) dG/dn(.,c) ds on the unit disk.

    Completely symmetric in a, b, c; equal arguments are allowed.  This is
    the infinitesimal generator of Laplacian growth: the Hadamard variation
    with delta_n = -dG/dn(.,c) changes G(a,b) by -triple_green(a,b,c) per
    unit time.
    """
    if not all(abs(complex(p)) < 1 for p in (a, b, c)):   # nan fails too
        raise DomainError("arguments must be interior to the disk")
    _assert_unit_flux(1.0)
    _, ds, (pa, pb, pc) = _densities(1.0, a, b, c)
    return -float(ds @ (pa * pb * pc))
