"""Hermite eigenfunction expansion of the one-dimensional kernel.

This is the independent evaluation path used to validate the closed form of
``kernels.rho_hat``: the auxiliary function

    u(s, alpha, beta, tau) = rho_hat(s, alpha, beta, tau) * exp(-i*alpha*beta/tau)

solves the transformed heat equation

    du/ds = (1/4) * (tau^2 d^2/dbeta^2 - beta^2 - gamma*tau) u

and expands, for either sign of tau != 0, in the |tau|-scaled Hermite basis
with the eigenvalues of :func:`hermite.oscillator_eigenvalue` as

    u = sum_m a_m(alpha, tau) * exp(-((2m+1)*|tau| + gamma*tau)*s/4) * Psi^tau_m(beta)

with a_m(alpha, tau) = (-i*sign(tau))**m * sqrt(2*pi) * |tau|**(1/4) * psi_m(a),
that is, u is a Mehler-type sum in one complex ratio w = -i*sign(tau)*S

    u = sqrt(2*pi) * exp(-(sign(tau)+gamma)*s*tau/4) * sum_m w**m psi_m(a) psi_m(b)

with S = exp(-s*|tau|/2), a = alpha/sqrt|tau|, b = beta/sqrt|tau|: the sum on
the left of Mehler's formula (:func:`mehler_sum`, w = -i*S).  One routine sums
both, elementwise over broadcast arrays, to one degree M per call taken in
closed form from the tail bound pi**(-1/2) * S**(M+1) / (1-S); terms are added
in ascending order with compensated (Kahan) summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import hermite_values
from .kernels import KernelParams, _overflow

__all__ = [
    "SeriesConfig",
    "UValue",
    "SeriesConvergenceError",
    "u_series",
    "rho_hat_series",
    "mehler_sum",
    "mehler_terms",
    "mehler_closed_form",
    "truncation_tail_bound",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI_INV = math.pi ** -0.5

MEHLER_MAX_DEGREE = 8000


class SeriesConvergenceError(RuntimeError):
    """The requested tail tolerance is unreachable within the term budget."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control: hard term cap and target tail error."""

    max_terms: int = 400
    tail_tol: float = 1e-13

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.tail_tol <= 0:
            raise ValueError(f"tail_tol must be > 0, got {self.tail_tol}")


@dataclass(frozen=True)
class UValue:
    """Partial sum of the eigenfunction expansion of u (an array over the broadcast arguments)."""

    value: complex | np.ndarray
    terms_used: int
    tail_bound: float


def _truncation_degree(decay, tail_tol, weight, max_degree: int) -> int:
    """One degree M for the whole array: max_degree where S = 1, else the least that meets the bound.

    weight * truncation_tail_bound(S, M) < tail_tol solved for M in closed
    form and rounded up, which leaves a degree of margin.  Where an S < 1
    needs a degree past max_degree, SeriesConvergenceError names both.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(tail_tol * (1.0 - decay) / (weight * _SQRT_PI_INV)) / np.log(decay)
    needed = np.max(np.where(decay < 1.0, np.fmax(np.ceil(ratio), 0.0), 0.0))
    if needed > max_degree:
        raise SeriesConvergenceError(f"degree {needed:.0f} needed, past the ceiling {max_degree}, at "
                                     f"S = exp(-s*|tau|/2) up to {np.max(decay, where=decay < 1.0, initial=0.0):.6g}")
    return max_degree if (decay == 1.0).any() else int(needed)


def _hermite_product_sum(ratio, x, y, degree: int) -> np.ndarray:
    """sum_{m <= degree} ratio**m psi_m(x) psi_m(y) over broadcast ratio, x, y, Kahan-summed in ascending m."""
    psi_x = hermite_values(x, degree)
    psi_y = hermite_values(y, degree)
    total = np.zeros(np.broadcast_shapes(np.shape(ratio), psi_x.shape[1:], psi_y.shape[1:]), complex)
    comp = np.zeros_like(total)
    power = 1.0
    for m in range(degree + 1):
        term = power * psi_x[m] * psi_y[m] - comp
        t = total + term
        comp = (t - total) - term
        total = t
        power = power * ratio
    return total


def u_series(
    config: SeriesConfig,
    s,
    alpha,
    beta,
    tau,
    gamma=0.0,
) -> UValue:
    """Partial sum of the expansion of u(s, alpha, beta, tau), elementwise over broadcast arguments.

    Sums to the degree M (one past the first) at which the geometric tail
    bound |prefactor| * truncation_tail_bound(S, M), S = exp(-s*|tau|/2), is
    below ``config.tail_tol`` for every element, and raises
    SeriesConvergenceError when M would exceed ``config.max_terms``.  Where
    S = 1 (s = 0) the bound degenerates; the full budget is summed and
    convergence is estimated a posteriori from the half-budget partial sum,
    raising SeriesConvergenceError when even that estimate misses the
    tolerance.  terms_used is M + 1; tail_bound the largest bound or estimate.
    s, tau and gamma follow the kernels' rules (KernelParams); tau = 0, where
    u's phase is undefined, or a NaN or infinite alpha or beta is a ValueError
    naming it; a prefactor past the double range is KernelOverflowError.
    """
    s, alpha, beta, tau = (np.asarray(v, dtype=float) for v in (s, alpha, beta, tau))
    params = KernelParams(s=s, tau=tau, gamma=gamma)
    if (tau == 0).any():
        raise ValueError(f"u_series requires tau != 0, got tau={tau}")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
    x, y = alpha / np.sqrt(np.abs(tau)), beta / np.sqrt(np.abs(tau))
    with np.errstate(over="ignore", invalid="ignore"):
        pref = _SQRT_2PI * np.exp(-(np.sign(tau) + gamma) * s * tau / 4.0)
    if not np.isfinite(pref).all():
        raise _overflow("the series prefactor sqrt(2*pi)*exp(-(sign(tau)+gamma)*s*tau/4)", params)
    decay = np.exp(-0.5 * s * np.abs(tau))
    ratio = -1j * np.sign(tau) * decay
    degree = _truncation_degree(decay, config.tail_tol, np.abs(pref), config.max_terms)
    total = _hermite_product_sum(ratio, x, y, degree)
    if (decay == 1.0).any():
        tail = np.max(np.abs(pref * (total - _hermite_product_sum(ratio, x, y, degree // 2))))
    else:
        tail = np.max(np.abs(pref) * truncation_tail_bound(decay, degree))
    if not tail < config.tail_tol:
        raise SeriesConvergenceError(
            f"tail bound {tail:.3e} >= tail_tol {config.tail_tol:.3e} after {degree + 1} terms "
            f"(smallest s*|tau| {np.min(s * np.abs(tau)):.3e}; at s = 0 convergence is only distributional)"
        )
    return UValue(value=(pref * total)[()], terms_used=degree + 1, tail_bound=float(tail))


def rho_hat_series(
    config: SeriesConfig,
    s,
    alpha,
    beta,
    tau,
    gamma=0.0,
):
    """Kernel value reconstructed from the eigenfunction expansion, elementwise over broadcast arguments.

    rho_hat = exp(i*alpha*beta/tau) * u; this is the series route checked
    against the closed form of ``kernels.rho_hat``.
    """
    if (np.asarray(s) <= 0).any():
        raise ValueError(f"rho_hat_series requires s > 0, got {s}")
    u = u_series(config, s, alpha, beta, tau, gamma)
    return (np.exp(1j * np.multiply(alpha, beta) / tau) * u.value)[()]


def truncation_tail_bound(decay, terms: int):
    """Tail bound pi**(-1/2) * S**(M+1) / (1-S) of the Mehler-type sum after degree M = terms, elementwise."""
    if not np.all((0 <= decay) & (decay < 1)):
        raise ValueError(f"decay factor must be in [0, 1), got {decay}")
    return _SQRT_PI_INV * decay ** (terms + 1) / (1.0 - decay)


def mehler_closed_form(big_s, x, y):
    """Closed form of sum_m (-i*S)**m psi_m(x) psi_m(y) for 0 < S < 1, elementwise."""
    s2 = big_s * big_s
    return (
        _SQRT_PI_INV
        * (1.0 + s2) ** -0.5
        * np.exp(
            -0.5 * (1.0 - s2) / (1.0 + s2) * (x * x + y * y)
            - 2j * big_s / (1.0 + s2) * x * y
        )
    )


def mehler_terms(big_s) -> int:
    """Terms mehler_sum adds for these S values in (0, 1), one count for the whole array.

    Past the degree where the tail bound is 1e-14 absolute; that degree
    past MEHLER_MAX_DEGREE is SeriesConvergenceError.
    """
    big_s = np.asarray(big_s, dtype=float)
    if not ((0.0 < big_s) & (big_s < 1.0)).all():
        raise ValueError(f"requires 0 < S < 1, got {big_s}")
    return _truncation_degree(big_s, 1e-14, 1.0, MEHLER_MAX_DEGREE) + 1


def mehler_sum(big_s, x, y):
    """Truncated oscillator-semigroup sum sum_m (-i*S)**m psi_m(x) psi_m(y), elementwise.

    Adds mehler_terms(S) terms, so the tail is below 1e-14 absolute.  The
    sum is not compared with mehler_closed_form here: verify's
    mehler-identity check does that and reports the result.
    """
    big_s, x, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (big_s, x, y)))
    return _hermite_product_sum(-1j * big_s, x, y, mehler_terms(big_s) - 1)[()]
