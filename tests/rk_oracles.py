"""Plain Runge-Kutta loops that evaluate the field at the start of every
attempted step, as references for ``numkit.rk_integrate``.

``thirteen_call_dop853`` repeats the integrator's arithmetic operation for
operation, with the integrator's DOP853 tableau (checked against scipy's in
``test_rk_tableau_is_dop853``) and the same step control, so its trajectory
is the one the integrator must reproduce bit for bit with twelve calls per
attempt.  ``seven_call_dormand_prince`` is the
Dormand-Prince 5(4) method that the integrator ran before, with its own
tableau (Dormand & Prince, J. Comput. Appl. Math. 6, 1980) and step
control, kept as the accuracy baseline of the 8th-order method.

Each returns (times, states, attempts); attempts lists (start, accepted)
per attempted step.
"""

import math

import numpy as np

from potflow import numkit

_A = [[], [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
      [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
      [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]]
_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40]


def seven_call_dormand_prince(field, y, t_end, tol):
    rows = [np.array(r, dtype=complex) for r in _A + [_B5[:6]]]
    b5 = np.array(_B5, dtype=complex)
    e = b5 - np.array(_B4, dtype=complex)
    y = np.asarray(y, dtype=complex)
    f0 = np.asarray(field(y), dtype=complex)
    h = min(t_end / 10.0, (tol * (1.0 + np.max(np.abs(y)))
                           / (np.max(np.abs(f0)) + 1e-30)) ** 0.2)
    h = max(h, 1e-12)
    t, times, states, attempts = 0.0, [0.0], [y.copy()], []
    k = np.zeros((7, y.size), dtype=complex)
    err_prev = 1.0
    while t < t_end:
        h = min(h, t_end - t)
        k[0] = field(y)
        for i in range(1, 7):
            k[i] = field(y + h * (rows[i] @ k[:i]))
        y5 = y + h * (b5 @ k)
        err = float(np.max(np.abs(h * (e @ k)) / (tol * (1.0 + np.abs(y))))) + 1e-300
        attempts.append((y, err <= 1.0))
        if err <= 1.0:
            t += h
            y = y5
            times.append(t)
            states.append(y)
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            err_prev = err
        else:
            fac = max(0.2, 0.9 * err ** (-0.2))
        h *= min(5.0, max(0.2, fac))
    return np.asarray(times), np.asarray(states), attempts


def thirteen_call_dop853(field, y, t_end, tol):
    a, e5, e3 = numkit._RK_A, numkit._RK_E5[:, 0], numkit._RK_E3[:, 0]
    y = np.asarray(y, dtype=complex)
    f0 = np.asarray(field(y), dtype=complex)
    speed = float(np.max(np.abs(f0)))
    h = t_end / 10.0
    if speed > 0:
        h = min(h, tol ** 0.125 * (1.0 + float(np.max(np.abs(y)))) / speed)
    t, times, states, attempts = 0.0, [0.0], [y.copy()], []
    k = np.zeros((13, y.size), dtype=complex)
    err_prev = 1.0
    while t < t_end:
        h = min(h, t_end - t)
        k[0] = field(y)
        for i in range(1, 13):
            k[i] = field(y + h * (a[i, :i, None] * k[:i]).sum(0))
        y8 = y + h * (a[12, :, None] * k[:12]).sum(0)
        sc = tol * (1.0 + np.abs(y))
        err5 = float(np.max(np.abs(h * (e5[:, None] * k[:12]).sum(0)) / sc))
        err3 = float(np.max(np.abs(h * (e3[:, None] * k[:12]).sum(0)) / sc))
        den = math.hypot(err5, 0.1 * err3)
        err = (err5 * (err5 / den) if den else 0.0) + 1e-300
        attempts.append((y, err <= 1.0))
        if err <= 1.0:
            t += h
            y = y8
            times.append(t)
            states.append(y)
            fac = 0.9 * err ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0)
            err_prev = err
        else:
            fac = max(0.2, 0.9 * err ** (-0.125))
        h *= min(5.0, max(0.2, fac))
    return np.asarray(times), np.asarray(states), attempts
