"""Normalized Hermite functions and Gauss-Hermite quadrature.

The functions psi_m are the L2(R)-orthonormal eigenfunctions of the quantum
harmonic oscillator.  They are evaluated with the normalized three-term
recurrence

    psi_0(x)     = pi**(-1/4) * exp(-x**2 / 2)
    psi_1(x)     = sqrt(2) * x * psi_0(x)
    psi_{m+1}(x) = x * sqrt(2/(m+1)) * psi_m(x) - sqrt(m/(m+1)) * psi_{m-1}(x)

which is forward stable for function values; the Rodrigues form is kept only
as a small-degree test oracle because e**(x**2/2) * d^m/dx^m cancellation is
catastrophic in double precision.

Underflow policy: for |x| large enough that the Gaussian envelope drops below
the double range (|x| >~ 38.6) the values flush to exactly 0.  Identities are
only meaningful where |psi_m| > 1e-300.

The Gauss-Hermite rule is numpy's `hermgauss`, not built from the recurrence
above, so quadrature checks of the recurrence use an independent rule.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "eval_scaled_hermite",
    "gauss_hermite_nodes",
    "hermite_values",
    "hermite_polynomial_values",
    "oscillator_eigenvalue",
    "MAX_GAUSS_HERMITE_ORDER",
]

MAX_GAUSS_HERMITE_ORDER = 200

_PI_QUARTER_INV = math.pi ** -0.25


def _recurrence(x: np.ndarray, max_degree: int, first: np.ndarray) -> np.ndarray:
    """Run the normalized three-term recurrence starting from `first` = row 0."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    out = np.zeros((max_degree + 1,) + x.shape, dtype=float)
    out[0] = first
    if max_degree >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for m in range(1, max_degree):
        out[m + 1] = x * math.sqrt(2.0 / (m + 1)) * out[m] - math.sqrt(m / (m + 1.0)) * out[m - 1]
    return out


def hermite_values(x, max_degree: int) -> np.ndarray:
    """psi_0(x)..psi_M(x) as an array of shape (M+1,) + shape(x)."""
    xa = np.asarray(x, dtype=float)
    return _recurrence(xa, max_degree, _PI_QUARTER_INV * np.exp(-0.5 * xa * xa))


def hermite_polynomial_values(x, max_degree: int) -> np.ndarray:
    """Envelope-free values h_m(x) = psi_m(x) * exp(x**2/2).

    The Gaussian factor commutes with the recurrence, so h_m satisfies the
    same three-term relation with h_0 = pi**(-1/4).  Used by quadrature
    checks, where the weight exp(-x**2) is supplied by the rule and evaluating
    psi directly would underflow at the outer nodes.
    """
    xa = np.asarray(x, dtype=float)
    return _recurrence(xa, max_degree, np.full(xa.shape, _PI_QUARTER_INV))


def eval_scaled_hermite(beta, tau, max_degree: int) -> np.ndarray:
    """Psi^tau_m(beta) = |tau|**(-1/4) psi_m(beta / sqrt|tau|) for m = 0..M, tau != 0.

    One recurrence run; rows as in :func:`hermite_values`, over broadcast beta and tau.
    """
    at = np.abs(np.asarray(tau, dtype=float))
    if (at == 0).any():
        raise ValueError("tau must be nonzero: the |tau|**(-1/4) scaling is undefined at tau=0")
    return at ** -0.25 * hermite_values(np.asarray(beta, dtype=float) / np.sqrt(at), max_degree)


def oscillator_eigenvalue(m: int, tau: float, gamma: complex) -> complex:
    """Eigenvalue of (tau^2 d^2/dbeta^2 - beta^2 - gamma*tau) on Psi^tau_m.

    Equals -(2m+1+gamma)*tau for tau > 0.  For tau < 0 the oscillator part
    contributes -(2m+1)|tau| (the second-derivative identity sees only |tau|)
    while the gamma term keeps its signed factor, so the eigenvalue is
    -((2m+1)|tau| + gamma*tau) for every real tau != 0.
    """
    return -((2 * m + 1) * abs(tau) + gamma * tau)


def gauss_hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of Gauss-Hermite quadrature for weight exp(-x**2).

    Exact for polynomials of degree <= 2*order - 1.  The rule is
    numpy.polynomial.hermite.hermgauss, independent of this module's
    recurrence, so the orthonormality check of that recurrence cannot be
    fitted by the rule.  Supported up to order MAX_GAUSS_HERMITE_ORDER.

    Parameters
    ----------
    order : int
        Number of quadrature points, 1 <= order <= 200.

    Returns
    -------
    nodes, weights : ndarray
        Sorted abscissae and the matching weights, sum(weights) = sqrt(pi).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_GAUSS_HERMITE_ORDER:
        raise ValueError(
            f"order {order} exceeds the supported maximum {MAX_GAUSS_HERMITE_ORDER}"
        )
    return np.polynomial.hermite.hermgauss(order)
