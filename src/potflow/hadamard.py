"""Hadamard variational formulas and the triple-Green symmetry on the disk.

The perturbed domain r < R(1 + eps*delta_n(theta)/R ...) is realized as the
image of the disk under an analytic map f(w) = w(1 + eps*A(w) + eps^2*B(w))
whose boundary modulus matches the prescribed normal speed through second
order in eps.  Green functions of the perturbed domain are then exact
(G_eps = G_disk(f^{-1}(.), f^{-1}(.))), so the finite difference in eps
isolates the first-order Hadamard term without grid error.
"""

from __future__ import annotations

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
        peak = max(abs(self.delta_n(t))
                   for t in np.linspace(0, 2 * math.pi, 64, endpoint=False))
        if abs(self.epsilon) * peak > self.base.R / 10:
            raise DomainError("perturbation too large: domain may lose star shape")


class _PerturbedDisk:
    """Conformal model of the perturbed disk, exact Green function.

    f(w) = w (1 + eps A(w) + eps^2 B(w)) with A the analytic completion of
    delta_n/R on the unit circle and B correcting the O(eps^2) boundary
    modulus, leaving a radius error O(eps^3).
    """

    def __init__(self, var: BoundaryVariation, eps: float):
        R = var.base.R
        self.R = R
        self.eps = eps
        theta = 2 * math.pi * np.arange(_FOURIER_N) / _FOURIER_N
        dn = np.array([var.delta_n(t) for t in theta]) / R
        ak = np.fft.rfft(dn) / _FOURIER_N
        # analytic completion: Re(A) = dn on |w| = 1 with A analytic in w
        self._a_coef = np.concatenate([[ak[0].real], 2 * ak[1:]])
        A = np.array([self._poly(self._a_coef, w) for w in np.exp(1j * theta)])
        resid = -0.5 * (A.imag ** 2)
        bk = np.fft.rfft(resid) / _FOURIER_N
        self._b_coef = np.concatenate([[bk[0].real], 2 * bk[1:]])

    @staticmethod
    def _poly(coef: np.ndarray, w: complex) -> complex:
        out = 0j
        for c in coef[::-1]:
            out = out * w + c
        return out

    @staticmethod
    def _poly_prime(coef: np.ndarray, w: complex) -> complex:
        out = 0j
        for k in range(len(coef) - 1, 0, -1):
            out = out * w + k * coef[k]
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
        return val + u * (self.eps * self._poly_prime(self._a_coef, u)
                          + self.eps ** 2 * self._poly_prime(self._b_coef, u))

    def pull(self, z: complex) -> complex:
        w = z
        for _ in range(60):
            step = (self.push(w) - z) / self._push_prime(w)
            w -= step
            if abs(step) < 1e-15 * (1 + abs(w)):
                return w
        raise ParameterError("conformal inversion did not converge")

    def green(self, z: complex, a: complex) -> float:
        base = planar_green.DomainDescriptor.disk(self.R)
        return planar_green.green(base, self.pull(z), self.pull(a))

    def robin_h0(self, a: complex) -> float:
        base = planar_green.DomainDescriptor.disk(self.R)
        w = self.pull(a)
        return planar_green.robin_data(base, w).h0 + math.log(abs(self._push_prime(w)))


def _normal_density(a: complex, R: float, theta: np.ndarray) -> np.ndarray:
    """dG/dn(R e^{i theta}, a): negative of the harmonic-measure density."""
    z = R * np.exp(1j * theta)
    return -(R * R - abs(a) ** 2) / (2 * math.pi * R * np.abs(z - a) ** 2)


def _assert_unit_flux(R: float, n: int) -> None:
    theta, w = numkit.trapezoid_rule(n, 2 * math.pi)
    flux = -(R * w) @ _normal_density(0j, R, theta)
    if abs(flux - 1.0) > 1e-10:
        raise NormalizationError(f"outward-normal convention broken: flux {flux}")


def hadamard_delta_green(var: BoundaryVariation, a: complex, b: complex,
                         n: int = 512, scheme: str = "central"
                         ) -> tuple[float, float]:
    """Both sides of the Hadamard formula for delta G(a,b).

    lhs: finite difference of the perturbed Green functions in epsilon
    (``central`` by default; ``one_sided`` retains the first-order-in-eps
    remainder the slope tests measure); rhs: oint dG/dn(.,a) dG/dn(.,b)
    delta_n ds over the base circle.
    """
    a, b = complex(a), complex(b)
    if not (var.base.contains(a) and var.base.contains(b)):
        raise DomainError("evaluation points must be interior")
    if abs(a - b) < 1e-12:
        raise PoleError("a and b must be distinct")
    _assert_unit_flux(var.base.R, n)
    eps = var.epsilon
    plus = _PerturbedDisk(var, +eps).green(a, b)
    if scheme == "central":
        minus = _PerturbedDisk(var, -eps).green(a, b)
        lhs = (plus - minus) / (2 * eps)
    elif scheme == "one_sided":
        lhs = (plus - planar_green.green(var.base, a, b)) / eps
    else:
        raise ParameterError(f"unknown scheme {scheme!r}")

    R = var.base.R
    theta, w = numkit.trapezoid_rule(n, 2 * math.pi)
    weights = R * w * _normal_density(a, R, theta) * _normal_density(b, R, theta)
    return lhs, float(numkit.integrate(var.delta_n, theta, weights))


def hadamard_delta_h0(var: BoundaryVariation, a: complex,
                      n: int = 512) -> tuple[float, float]:
    """Both sides of delta h0(a) = 2 pi oint (dG/dn(.,a))^2 delta_n ds."""
    a = complex(a)
    if not var.base.contains(a):
        raise DomainError("evaluation point must be interior")
    _assert_unit_flux(var.base.R, n)
    eps = var.epsilon
    plus = _PerturbedDisk(var, +eps).robin_h0(a)
    minus = _PerturbedDisk(var, -eps).robin_h0(a)
    lhs = (plus - minus) / (2 * eps)

    R = var.base.R
    theta, w = numkit.trapezoid_rule(n, 2 * math.pi)
    weights = R * w * _normal_density(a, R, theta) ** 2
    return lhs, 2 * math.pi * float(numkit.integrate(var.delta_n, theta, weights))


def triple_green(a: complex, b: complex, c: complex, n: int = 512,
                 R: float = 1.0) -> float:
    """oint dG/dn(.,a) dG/dn(.,b) dG/dn(.,c) ds on the disk of radius R.

    Completely symmetric in a, b, c; equal arguments are allowed.  This is
    the infinitesimal generator of Laplacian growth: the Hadamard variation
    with delta_n = -dG/dn(.,c) changes G(a,b) by -triple_green(a,b,c) per
    unit time.
    """
    for p in (a, b, c):
        if abs(complex(p)) >= R:
            raise DomainError("arguments must be interior to the disk")
    _assert_unit_flux(R, n)
    theta, w = numkit.trapezoid_rule(n, 2 * math.pi)
    return float((R * w) @ (_normal_density(complex(a), R, theta)
                            * _normal_density(complex(b), R, theta)
                            * _normal_density(complex(c), R, theta)))
