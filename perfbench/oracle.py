"""Closed forms of the three kernels, written out in plain numpy.

These are the benchmark's reference values.  They share no code with the
package under test: the coefficient pair (A, B) comes straight from its
hyperbolic definition, the tau = 0 limit is taken by masking, and the
two-point kernel H is built through the twist factorization
H(s; x', y'; x, y) = rho_tilde(s; x - x', y - y') * exp(-i*tau*(x - x').y')
instead of the package's direct coth/sinh form.

Every function broadcasts over s, tau and leading axes of the spatial
arguments, whose last axis holds the n components.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)


def _log_cosh(z):
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - _LOG_2


def coefficients(s, tau):
    """A = sinh(z/2)/(tau cosh(z/2)), B = 2 sinh(z/4)^2/(tau cosh(z/2)), z = s*tau."""
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    z = s * tau
    zero = tau == 0.0
    safe_tau = np.where(zero, 1.0, tau)
    a = np.where(zero, 0.5 * s, np.tanh(0.5 * z) / safe_tau)
    b = np.where(zero, 0.0, 2.0 * np.sinh(0.25 * z) ** 2 / (safe_tau * np.cosh(0.5 * z)))
    return a, b


def _sq(v):
    return np.sum(v * v, axis=-1)


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def rho_hat(s, tau, gamma, n, alpha, beta):
    a, b = coefficients(s, tau)
    st = np.asarray(s) * np.asarray(tau)
    expo = (
        -gamma * st / 4.0
        - 0.5 * n * _log_cosh(0.5 * st)
        - 0.5 * a * (_sq(alpha) + _sq(beta))
        + 1j * b * _dot(alpha, beta)
    )
    return np.exp(expo)


def _rho_tilde_exponent(s, tau, gamma, n, x, y):
    a, b = coefficients(s, tau)
    d = a * a + b * b
    st = np.asarray(s) * np.asarray(tau)
    return (
        -gamma * st / 4.0
        - n * _LOG_2PI
        - 0.5 * n * (_log_cosh(0.5 * st) + np.log(d))
        - 0.5 * (a / d) * (_sq(x) + _sq(y))
        - 1j * (b / d) * _dot(x, y)
    )


def rho_tilde(s, tau, gamma, n, x, y):
    return np.exp(_rho_tilde_exponent(s, tau, gamma, n, x, y))


def heat_kernel(s, tau, gamma, n, xp, yp, x, y):
    u = x - xp
    twist = -1j * np.asarray(tau) * _dot(u, yp)
    return np.exp(_rho_tilde_exponent(s, tau, gamma, n, u, y - yp) + twist)


def trapezoid_weights(points):
    w = np.full(len(points), points[1] - points[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def apply_1d(s, tau, gamma, points, field, out_x, out_y):
    """Tensor trapezoid rule for H[f] with n = 1 on a square input grid.

    `field` has shape (len(points), len(points)) indexed [x', y']; the result
    has shape (len(out_x), len(out_y)) indexed [x, y].
    """
    w = trapezoid_weights(points)
    xp, yp = np.meshgrid(points, points, indexing="ij")
    xo, yo = np.meshgrid(out_x, out_y, indexing="ij")
    kern = heat_kernel(
        s, tau, gamma, 1,
        xp.reshape(1, -1, 1), yp.reshape(1, -1, 1),
        xo.reshape(-1, 1, 1), yo.reshape(-1, 1, 1),
    )
    return (kern @ (np.outer(w, w) * field).ravel()).reshape(xo.shape)
