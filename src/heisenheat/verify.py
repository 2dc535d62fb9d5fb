"""Independent numerical oracles for the closed-form kernels.

Four families of checks, none of which reuse the algebra being verified:

* finite-difference residuals of the four heat equations (for u, rho_hat,
  rho_tilde and H), with the convergence order of the residual in the step
  size estimated from a log-log slope fit; second-order central stencils
  give order ~2 when the closed forms are correct,
* discrete-Fourier-transform inversion of rho_hat in (alpha, beta), built
  from A and B, against the simplified coth/sinh closed form of rho_tilde:
  the Gaussian integral the derivation leaves implicit, together with its
  reduction by B/(A^2+B^2) = tau/2 and A/B = coth(s*tau/4), at gamma = 0
  and at the Box_b extremes gamma = -sign(tau) (gamma: the other families),
* quadrature checks of the semigroup composition and the initial condition
  of the twisted kernel H (the semigroup property is an operator consequence
  of the kernel, added here as an oracle, not quoted from a stated formula),
* Gauss-Hermite orthonormality of the underlying basis.

The delta initial condition is tested weakly, against Gaussian test
functions, because pointwise delta recovery is meaningless numerically.
"""

from __future__ import annotations

import functools
import math
import platform
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import __version__, hermite, series
from .kernels import (
    KernelParams,
    _coth_sinh_coefficients,
    _scalar_params,
    apply_kernel,
    heat_kernel_h,
    rho_hat,
    rho_tilde,
)

__all__ = [
    "DEFAULT_STEP_SIZES",
    "ResidualReport",
    "Probe",
    "GaussianTestFunction",
    "InsufficientDecayError",
    "QuadratureError",
    "default_probe_set",
    "residual_u",
    "residual_rho_hat",
    "residual_rho_tilde",
    "residual_heat_kernel",
    "dft_inversion_check",
    "semigroup_check",
    "initial_condition_check",
    "orthonormality_suite",
    "eigenfunction_residual_report",
    "build_report",
    "run_suite",
    "SUITE_NAMES",
]

DEFAULT_STEP_SIZES = (1e-2, 5e-3, 2.5e-3)

# default probe panel (documented): s in {0.25, 1, 4}, tau in {-2, -0.5, 0, 0.5, 2},
# gamma in {0, +-1 (= n-2q for n=1), i}, coordinates in [-2, 2]
_S_PANEL = (0.25, 1.0, 4.0)
_TAU_PANEL = (-2.0, -0.5, 0.0, 0.5, 2.0)
_GAMMA_PANEL = (0.0, 1.0, -1.0, 1j)


class InsufficientDecayError(RuntimeError):
    """Transform grid too small: the kernel has not decayed at the boundary."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to stabilize within the order budget."""


@dataclass(frozen=True)
class Probe:
    """One residual evaluation point; coords maps argument name -> vector."""

    s: float
    tau: float
    gamma: complex
    n: int
    coords: dict


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    step_sizes: tuple[float, ...]
    residual_norms: tuple[float, ...]
    convergence_order: float

    def as_dict(self) -> dict:
        return {
            "equation": self.equation,
            "step_sizes": list(self.step_sizes),
            "residual_norms": list(self.residual_norms),
            "convergence_order": self.convergence_order,
        }


def _relative(error, scale):
    """error / scale; inf or NaN, which fail every check, where a broken kernel makes scale 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(error, scale)


def _fitted_report(equation, step_sizes, norms) -> ResidualReport:
    """The report whose convergence order is the log-log slope of norms against steps; NaN if a norm is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_norms = np.log(norms)
    return ResidualReport(
        equation=equation,
        step_sizes=tuple(step_sizes),
        residual_norms=tuple(float(v) for v in norms),
        convergence_order=float(np.polyfit(np.log(step_sizes), log_norms, 1)[0]),
    )


# ---------------------------------------------------------------------------
# finite-difference residuals
# ---------------------------------------------------------------------------

def _stencil(f, s, x, y, h):
    """Central differences of f(s, x, y) around P points for every step in h.

    s has shape (P,), x and y (P, n), h holds k steps.  All stencils (centre,
    s +- h, +- h along each component of x and of y) go to f in one call,
    probe axis last: s as (3 + 4n, k, P), x and y as (3 + 4n, k, P, n), so (P,)
    parameters broadcast.  Returns the centre value and d/ds, each (k, P), and
    the first and second derivatives along each component of x and y, (k, P, n).
    """
    n = x.shape[-1]
    eye, pad, still = np.eye(n), np.zeros((n, n)), np.zeros((3, n))
    # rows: centre, s + h, s - h, x + h e_j, x - h e_j, y + h e_j, y - h e_j
    dir_s = np.concatenate([[0.0, 1.0, -1.0], np.zeros(4 * n)])[:, np.newaxis, np.newaxis]
    dir_x = np.concatenate([still, eye, -eye, pad, pad])[:, np.newaxis, np.newaxis]
    dir_y = np.concatenate([still, pad, pad, eye, -eye])[:, np.newaxis, np.newaxis]
    hk, hkn = h[:, np.newaxis], h[:, np.newaxis, np.newaxis]
    vals = f(s + hk * dir_s, x + hkn * dir_x, y + hkn * dir_y)
    centre = vals[0][..., np.newaxis]
    x_up, x_down, y_up, y_down = np.split(np.moveaxis(vals[3:], 0, -1), 4, axis=-1)
    return (
        vals[0],
        (vals[1] - vals[2]) / (2 * hk),
        (x_up - x_down) / (2 * hkn),
        (y_up - y_down) / (2 * hkn),
        (x_up - 2 * centre + x_down) / hkn**2,
        (y_up - 2 * centre + y_down) / hkn**2,
    )


def _oscillator_op(par, a, b, value, da, db, d2a, d2b):
    """(sum_j (tau^2 d^2/dbeta_j^2 - beta_j^2) - gamma tau) f."""
    n = b.shape[-1]
    potential = sum(b[:, j] * b[:, j] for j in range(n)) + par.gamma * par.tau
    return par.tau**2 * sum(d2b[..., j] for j in range(n)) - potential * value


def _rho_hat_op(par, a, b, value, da, db, d2a, d2b):
    """(sum_j (-alpha_j^2 - 2i alpha_j tau d/dbeta_j + tau^2 d^2/dbeta_j^2 - beta_j^2) - gamma tau) f."""
    oscillator = _oscillator_op(par, a, b, value, da, db, d2a, d2b)
    return oscillator - sum(a[:, j] * (a[:, j] * value + 2j * par.tau * db[..., j]) for j in range(a.shape[-1]))


def _dbar_op(par, x, y, value, dx, dy, d2x, d2y):
    """(Lap_{x,y} + 2i tau y.grad_x - (tau^2 |y|^2 + gamma tau)) f."""
    lap = np.sum(d2x + d2y, axis=-1)
    potential = par.tau**2 * np.sum(y * y, axis=-1) + par.gamma * par.tau
    return lap + 2j * par.tau * np.sum(dx * y, axis=-1) - potential * value


# One row per equation: the differentiated coordinate names (x, y); the kernel
# f(params, coords, x, y), coords the (P, n) probe coordinates by name, looked up
# when called; the operator op(params, x, y, value, dx, dy, d2x, d2y) on the
# _stencil outputs; the two points of the s x tau x gamma panel; and the probes
# beyond it: n = 2 (gamma = n - 2q gives {2, 0, -2}) and the series branch of H.
_FREQUENCY_POINTS = ({"alpha": 0.7, "beta": -1.3}, {"alpha": -1.6, "beta": 0.4})
_EQUATIONS = {
    "u-transformed": (
        ("alpha", "beta"),
        lambda par, c, a, b: rho_hat(par, a, b) * np.exp(-1j * a[..., 0] * b[..., 0] / par.tau),
        _oscillator_op, _FREQUENCY_POINTS, (),
    ),
    "rho-hat": (
        ("alpha", "beta"), lambda par, c, a, b: rho_hat(par, a, b), _rho_hat_op, _FREQUENCY_POINTS,
        tuple(
            Probe(1.0, tau, gamma, 2, {"alpha": (0.6, -1.1), "beta": (-0.3, 1.4)})
            for tau, gamma in ((0.5, 2.0), (-2.0, 1j), (0.0, 0.5))
        ),
    ),
    "rho-tilde": (
        ("x", "y"), lambda par, c, x, y: rho_tilde(par, x, y), _dbar_op,
        ({"x": 0.7, "y": -1.3}, {"x": -1.6, "y": 0.4}),
        tuple(
            Probe(1.0, tau, gamma, 2, {"x": (0.6, -1.1), "y": (-0.3, 1.4)})
            for tau, gamma in ((0.5, 2.0), (-2.0, 1j))
        ),
    ),
    "heat-kernel": (
        ("x", "y"), lambda par, c, x, y: heat_kernel_h(par, c["xp"], c["yp"], x, y), _dbar_op,
        (
            {"xp": 0.3, "yp": -0.4, "x": 1.2, "y": 0.8},
            {"xp": -0.9, "yp": 1.1, "x": -0.9, "y": 1.1},  # diagonal probe
        ),
        (
            Probe(1.0, 1e-5, 1.0, 1, {"xp": 0.3, "yp": -0.4, "x": 1.2, "y": 0.8}),
            Probe(
                1.0, 0.5, 0.0, 2,
                {"xp": (0.3, -0.2), "yp": (-0.4, 0.5), "x": (1.2, 0.1), "y": (0.8, -0.6)},
            ),
        ),
    ),
}


def default_probe_set(equation: str) -> tuple[Probe, ...]:
    """The documented default probe panel for one of the four equations."""
    if equation not in _EQUATIONS:
        raise ValueError(f"unknown equation {equation!r}")
    *_, points, extra = _EQUATIONS[equation]
    panel = tuple(
        Probe(s, tau, gamma, 1, dict(coords))
        for s in _S_PANEL
        for tau in _TAU_PANEL
        # u = rho_hat * exp(-i alpha beta / tau) needs tau != 0
        if tau != 0.0 or equation != "u-transformed"
        for gamma in _GAMMA_PANEL
        for coords in points
    )
    return panel + extra


def _residual_report(equation, probes, step_sizes) -> ResidualReport:
    """max over the probes of |df/ds - operator/4| for each step size.

    f and the operator are the equation's _EQUATIONS row; probes None takes
    default_probe_set(equation).  Each dimension n takes one _stencil call,
    with s, tau and gamma arrays over its probes.
    """
    names, kernel, operator, _, _ = _EQUATIONS[equation]
    probes = default_probe_set(equation) if probes is None else tuple(probes)
    if not probes:
        raise ValueError(f"probes for {equation!r} must hold at least one Probe")
    h = np.asarray(step_sizes, dtype=float)
    norms = np.zeros(h.size)
    for n in sorted({p.n for p in probes}):
        group = [p for p in probes if p.n == n]
        s, tau, gamma = (np.array(v) for v in zip(*((p.s, p.tau, p.gamma) for p in group)))
        par = KernelParams(s=s, tau=tau, gamma=gamma, n=n)
        coords = {
            name: np.array([np.atleast_1d(p.coords[name]) for p in group], dtype=float)
            for name in group[0].coords
        }
        x, y = (coords[name] for name in names)
        value, ds, *derivs = _stencil(
            lambda s_, x_, y_: kernel(replace(par, s=s_), coords, x_, y_), par.s, x, y, h
        )
        norms = np.maximum(norms, np.abs(ds - 0.25 * operator(par, x, y, value, *derivs)).max(axis=-1))
    return _fitted_report(equation, step_sizes, norms)


def residual_rho_hat(probes: Sequence[Probe] | None = None, step_sizes=DEFAULT_STEP_SIZES) -> ResidualReport:
    """Residual of the transformed heat equation for rho_hat.

    R = d rho_hat/ds - (1/4) [ sum_j (-alpha_j^2 - 2i alpha_j tau d/dbeta_j + tau^2 d^2/dbeta_j^2
                                      - beta_j^2) + i gamma (i tau) ] rho_hat
    by second-order central differences; max |R| per step size.
    """
    return _residual_report("rho-hat", probes, step_sizes)


def residual_u(probes: Sequence[Probe] | None = None, step_sizes=DEFAULT_STEP_SIZES) -> ResidualReport:
    """Residual of the transformed heat equation for u = rho_hat * exp(-i alpha beta / tau).

    R = du/ds - (1/4) (tau^2 d^2/dbeta^2 - beta^2 - gamma tau) u.
    u needs tau != 0: a probe with tau = 0 raises ValueError.
    """
    if probes is not None:
        probes = tuple(probes)
        if any(p.tau == 0 for p in probes):
            raise ValueError("residual_u needs tau != 0 in every probe (u has exp(-i alpha beta / tau))")
    return _residual_report("u-transformed", probes, step_sizes)


def residual_rho_tilde(
    probes: Sequence[Probe] | None = None, step_sizes=DEFAULT_STEP_SIZES
) -> ResidualReport:
    """Residual of the weighted dbar heat equation for rho_tilde.

    R = d rho_tilde/ds - (1/4) (Lap_{x,y} + 2i tau y.grad_x - (tau^2 |y|^2 + gamma tau)) rho_tilde.
    """
    return _residual_report("rho-tilde", probes, step_sizes)


def residual_heat_kernel(
    probes: Sequence[Probe] | None = None, step_sizes=DEFAULT_STEP_SIZES
) -> ResidualReport:
    """Residual of (d/ds + L~_gamma) H = 0 in the field variables (x, y), source fixed."""
    return _residual_report("heat-kernel", probes, step_sizes)


def eigenfunction_residual_report(step_sizes=DEFAULT_STEP_SIZES) -> ResidualReport:
    """Finite-difference check of the scaled-Hermite eigenfunction identity.

    (tau^2 d^2/dbeta^2 - beta^2 - gamma*tau) Psi^tau_m =
        -((2m+1)|tau| + gamma*tau) Psi^tau_m
    over tau in {+-0.5, +-2}, gamma in {0, 1, -1, i}, m <= 20.
    """
    h = np.asarray(step_sizes, dtype=float)
    # axes: degree, step, tau, gamma, beta; the stencil beta, beta + h, beta - h rides on axis 2 of the call
    m = np.array((0, 3, 7, 20))[:, np.newaxis, np.newaxis, np.newaxis, np.newaxis]
    tau = np.array((0.5, -0.5, 2.0, -2.0))[:, np.newaxis, np.newaxis]
    gamma = np.array((0.0, 1.0, -1.0, 1j))[:, np.newaxis]
    beta = np.array((0.45, -1.2))
    stencil = beta + (h[:, np.newaxis] * np.array((0.0, 1.0, -1.0)))[..., np.newaxis, np.newaxis, np.newaxis]
    psi = hermite.eval_scaled_hermite(stencil, tau, int(m.max()))[m.ravel()]
    center, up, down = psi[:, :, 0], psi[:, :, 1], psi[:, :, 2]
    d2 = (up - 2 * center + down) / (h**2)[:, np.newaxis, np.newaxis, np.newaxis]
    lhs = tau**2 * d2 - beta**2 * center - gamma * tau * center
    rhs = hermite.oscillator_eigenvalue(m, tau, gamma) * center
    norms = np.max(np.abs(lhs - rhs), axis=(0, 2, 3, 4))
    return _fitted_report("scaled-hermite-eigenfunction", step_sizes, norms)


# ---------------------------------------------------------------------------
# DFT inversion of rho_hat against rho_tilde
# ---------------------------------------------------------------------------

# rows of the grid per block of the first inverse-FFT pass (256 KB of complex at N = 512), so that
# pass never holds an N x N array
_IFFT_BLOCK_ROWS = 32


def _orbits(k, span):
    """One representative of each orbit of the index grid k x k under (i, l) -> (l, i) and (i, l) -> (-i, -l).

    k holds signed indices in [-span, span]; the images of a point may leave k but not
    [-span, span].  Each orbit is coded by the smallest (i + span) * (2 span + 1) + l + span
    of its points.  Returns the representatives' i and l, those smallest codes decoded, and
    the (len(k), len(k)) index of every grid point into them.  The codes and the index take
    the smallest signed type that holds (2 span + 1)^2 (int32 at N = 512) and no sort, so the
    temporaries stay at three grid-sized arrays of it.
    """
    width = 2 * span + 1
    dtype = np.min_scalar_type(-width * width)
    u, flipped = (k + span).astype(dtype), (span - k).astype(dtype)
    codes = np.add.outer(width * u, u)
    # the codes of (l, i), (-i, -l) and (-l, -i): a sign flip takes i + span to span - i
    for first, second in ((u, width * u), (width * flipped, flipped), (flipped, width * flipped)):
        np.minimum(codes, np.add.outer(first, second), out=codes)
    used = np.zeros(width * width, dtype=bool)
    used[codes] = True
    reps = np.flatnonzero(used)
    number = np.cumsum(used, dtype=dtype)
    number -= 1
    return reps // width - span, reps % width - span, number[codes]


@functools.lru_cache(maxsize=2)
def _inversion_orbits(grid_count):
    """dft_inversion_check's evaluation points per grid_count, cached for the last 2 grid sizes.

    At N = 512 one entry holds 2.1 MiB, 1 MiB of it the N^2 index.

    rho_hat: _orbits of the frequency grid in FFT order, whose indices run over
    -N/2..N/2 - 1 (a representative may sit at +N/2).  rho_tilde: _orbits of the
    compared block, indices -N/8..N/8.
    """
    half, eighth = grid_count // 2, grid_count // 8
    fft_order = np.fft.ifftshift(np.arange(grid_count) - half)
    return _orbits(fft_order, half), _orbits(np.arange(-eighth, eighth + 1), eighth)


def dft_inversion_check(params: KernelParams, grid_extent: float = 40.0, grid_count: int = 512) -> float:
    """Invert rho_hat (A/B form) numerically and compare with rho_tilde (coth/sinh form).

    Computes (2 pi)**-2 * iint rho_hat(alpha, beta) e^{i(alpha x + beta y)}
    dalpha dbeta with a discrete Fourier transform on a grid_count^2 grid over
    [-extent/2, extent/2)^2 and compares against rho_tilde on the central
    quarter of the dual spatial window.  Returns the max-norm error there
    normalized by the max of |rho_tilde| over the same region (pointwise
    relative error is meaningless in the far Gaussian tails).

    The frequency grid is alpha_j = (j - N/2) * step in FFT order, with
    step = L/N and L = grid_extent.  rho_hat's exponent takes the same IEEE
    operations on the same bits at (beta, alpha) and at (-alpha, -beta) as
    at (alpha, beta), so one rho_hat call covers one point of each orbit of
    the grid under the swap and the sign flip (the unmatched -L/2 end maps
    to +L/2), 66,048 points at N = 512.  The decay test reads the grid's
    boundary edges, rows and columns -N/2 and N/2 - 1, through the same orbit
    index, which holds their values bit for bit.  The first FFT pass runs in
    blocks of _IFFT_BLOCK_ROWS rows, each gathering its rows from the orbit
    values, so no N x N array is formed; the second pass runs on the
    compared block only.  rho_tilde, symmetric in (x, y) the same way, is
    evaluated on one point of each orbit of that block and gathered.  The
    orbits are _inversion_orbits(N).  The result is == the centred full-grid
    ifft2's.

    Raises InsufficientDecayError when |rho_hat| exceeds 1e-12 anywhere on
    the transform-grid boundary.
    """
    _scalar_params("dft_inversion_check", params)
    if params.n != 1:
        raise ValueError("dft_inversion_check is defined for n = 1")
    if grid_count < 16 or grid_count % 2:
        # the rolled frequency grid starts at alpha = 0, as the FFT expects,
        # only for even N
        raise ValueError(f"grid_count must be even and >= 16, got {grid_count}")
    step = grid_extent / grid_count
    unit = 2.0 * math.pi / grid_extent
    (hat_i, hat_l, hat_index), (tilde_i, tilde_l, tilde_index) = _inversion_orbits(grid_count)
    # first, so its s > 0 guard (kernels._coth_sinh_coefficients) precedes the decay test, which s = 0 fails
    tilde = rho_tilde(params, unit * tilde_i, unit * tilde_l)
    f_hat = rho_hat(params, step * hat_i, step * hat_l)
    # in FFT order the indices N/2 - 1 and -N/2 sit at positions N/2 - 1 and N/2
    edges = [grid_count // 2 - 1, grid_count // 2]
    boundary = max(float(np.max(np.abs(np.take(f_hat, idx)))) for idx in (hat_index[edges], hat_index[:, edges]))
    if boundary > 1e-12:
        raise InsufficientDecayError(
            f"|rho_hat| = {boundary:.3e} > 1e-12 on the transform-grid boundary; "
            f"increase grid_extent"
        )

    # I(x_m) = step * sum_j rho_hat(alpha_j) e^{i alpha_j x_m}, alpha_j =
    # (j - N/2) * step, x_m = (m - N/2) * 2 pi / L, is the inverse DFT with
    # both index ranges centred on 0; it divides by N^2, so the prefactor is
    # step^2 N^2 / (2 pi)^2 = (L / 2 pi)^2.  ifft2 is ifft along axis 1, then
    # axis 0: the second pass on only the compared columns |m - N/2| <= N/8,
    # at m mod N in FFT order, gives the same numbers on 1/4 of the grid, as do row blocks.
    m_idx = np.arange(-(grid_count // 8), grid_count // 8 + 1)
    keep = m_idx % grid_count
    columns = np.empty((grid_count, keep.size), dtype=complex)

    for lo in range(0, grid_count, _IFFT_BLOCK_ROWS):
        rows = slice(lo, lo + _IFFT_BLOCK_ROWS)
        columns[rows] = np.fft.ifft(np.take(f_hat, hat_index[rows]), axis=1)[:, keep]
    del f_hat  # freed before the second pass allocates
    num = (grid_extent / (2.0 * math.pi)) ** 2 * np.fft.ifft(columns, axis=0)[keep]

    exact = np.take(tilde, tilde_index)
    scale = float(np.max(np.abs(exact)))
    return float(_relative(np.max(np.abs(num - exact)), scale))


# ---------------------------------------------------------------------------
# quadrature oracles: semigroup composition and initial condition
# ---------------------------------------------------------------------------

_QUAD_ORDERS = (64, 96, 144, 216)
_QUAD_REL_TOL = 1e-9

# Gauss-Legendre rules on [-1, 1], each built on its first use; the cached arrays are shared, so only read them
_unit_rule = functools.cache(leggauss)


def _adaptive_apply(caller, params, f, point, centres, radius_factor, others=()) -> complex:
    """H[f](s, point) by apply_kernel on tensor Gauss-Legendre rules over a box.

    params and `others` must be scalar, share (tau, gamma) and have n = 1;
    caller names the check in errors.  The integrand is read as a product
    of Gaussian factors, one per (x, y) centre, with the envelopes
    (tau/4)*coth(s*tau/4) of (*others, params) in turn.  That product is
    one Gaussian with the summed envelope, centred on the envelope-weighted
    mean of the centres, and the box spans radius_factor/sqrt(summed
    envelope) on each side of that mean.  The order runs through
    _QUAD_ORDERS until two successive sums agree to _QUAD_REL_TOL.
    """
    _scalar_params(caller, *others, params)
    if any((p.tau, p.gamma, p.n) != (params.tau, params.gamma, params.n) for p in others):
        raise ValueError(f"{caller} requires identical (tau, gamma, n)")
    if params.n != 1:
        raise ValueError(f"{caller} quadrature is implemented for n = 1")
    envelopes = [float(_coth_sinh_coefficients(caller, p)[1]) for p in (*others, params)]
    radius = radius_factor / math.sqrt(sum(envelopes))
    box = [(c - radius, c + radius) for c in np.average(centres, axis=0, weights=envelopes).tolist()]
    prev = None
    for order in _QUAD_ORDERS:
        unit_nodes, unit_weights = _unit_rule(order)
        nodes, weights = zip(*(
            (0.5 * (hi + lo) + 0.5 * (hi - lo) * unit_nodes, 0.5 * (hi - lo) * unit_weights)
            for lo, hi in box
        ))
        values = f(*np.meshgrid(*nodes, indexing="ij"))
        total = complex(apply_kernel(params, nodes, weights, values, *point)[0])
        if prev is not None and abs(total - prev) <= _QUAD_REL_TOL * max(abs(total), 1e-300):
            return total
        prev = total
    raise QuadratureError(
        f"tensor quadrature did not stabilize to {_QUAD_REL_TOL:.1e} within order {_QUAD_ORDERS[-1]}"
    )


def semigroup_check(params1: KernelParams, params2: KernelParams, point_pair) -> float:
    """Relative error of the kernel composition law.

    iint H(s1, x, y, w, v) H(s2, w, v, x', y') dw dv should match
    H(s1+s2, x, y, x', y'); the integral is evaluated by tensor
    Gauss-Legendre on the box where the product of both factors' Gaussian
    envelopes lies (< 1e-14 at the boundary), with adaptive order refinement.
    This composition law is an operator-semigroup consequence of the kernel,
    used as an implementation-added oracle.
    """
    (x0, y0), (x1, y1) = point_pair
    # H_{s2}[H_{s1}(x0, y0; .)](x1, y1), on a box 7/sqrt(summed envelope) around the factors' product
    f = functools.partial(heat_kernel_h, params1, x0, y0)
    composed = _adaptive_apply("semigroup_check", params2, f, (x1, y1), point_pair, 7.0, others=(params1,))
    exact = heat_kernel_h(replace(params1, s=params1.s + params2.s), x0, y0, x1, y1)
    return float(_relative(abs(composed - exact), abs(exact)))


@dataclass(frozen=True)
class GaussianTestFunction:
    """f(x, y) = exp(-ax*(x-cx)^2 - ay*(y-cy)^2) with ax, ay > 0."""

    ax: float = 1.0
    ay: float = 1.0
    cx: float = 0.0
    cy: float = 0.0

    def __post_init__(self):
        if self.ax <= 0 or self.ay <= 0:
            raise ValueError("Gaussian widths ax, ay must be positive")

    def __call__(self, x, y):
        return np.exp(-self.ax * (x - self.cx) ** 2 - self.ay * (y - self.cy) ** 2)


def apply_kernel_to_function(params: KernelParams, f, point) -> complex:
    """H[f](s, point) = iint H(s, w, v, point) f(w, v) dw dv by adaptive quadrature.

    The box is centered on the evaluation point, 8/sqrt(envelope) on each
    side of it; f is assumed bounded by 1 in modulus (Gaussian test
    functions), so truncation outside the kernel envelope is negligible.
    """
    return _adaptive_apply("apply_kernel_to_function", params, f, point, (point,), 8.0)


def initial_condition_check(
    params: KernelParams,
    test_fn: GaussianTestFunction,
    s_sequence,
) -> list[float]:
    """|H[f](s, p) - f(p)| at probe points for decreasing s.

    Returns one error per s value (the worst over the probe points: the peak
    of f and one offset point).  For the kernel to satisfy its delta initial
    condition these must decrease and vanish linearly in s.
    """
    probes = ((test_fn.cx, test_fn.cy), (test_fn.cx + 0.35, test_fn.cy - 0.25))
    errors = []
    for s in s_sequence:
        par = replace(params, s=float(s))
        worst = 0.0
        for p in probes:
            smoothed = apply_kernel_to_function(par, test_fn, p)
            worst = max(worst, abs(smoothed - complex(test_fn(*p))))
        errors.append(worst)
    return errors


# ---------------------------------------------------------------------------
# basis and symmetry sweeps
# ---------------------------------------------------------------------------

def orthonormality_suite(max_degree: int) -> float:
    """max_{m,k <= M} |<psi_m, psi_k> - delta_mk| via Gauss-Hermite quadrature.

    The integrand is rewritten as polynomial * exp(-x**2) (envelope-free
    recurrence values), so a rule of order max_degree + 1 integrates every
    product exactly up to roundoff.
    """
    if max_degree > 60:
        raise ValueError(f"orthonormality_suite supports max_degree <= 60, got {max_degree}")
    nodes, weights = hermite.gauss_hermite_nodes(max_degree + 1)
    h_vals = hermite.hermite_polynomial_values(nodes, max_degree)
    gram = (h_vals * weights) @ h_vals.T
    return float(np.max(np.abs(gram - np.eye(max_degree + 1))))


# ---------------------------------------------------------------------------
# named suites with pinned tolerances (consumed by the CLI)
# ---------------------------------------------------------------------------

# "all" comes last: it runs every suite before it, in this order
SUITE_NAMES = ("hermite", "series", "pde", "inversion", "semigroup", "all")

_ORDER_WINDOW = (1.8, 2.2)


def _check(name, worst, tolerance, passed=None, **extra) -> dict:
    entry = {
        "check": name,
        "worst": worst,
        "tolerance": tolerance,
        "passed": bool(worst < tolerance) if passed is None else bool(passed),
    }
    entry.update(extra)
    return entry


def _order_check(name, rep: ResidualReport) -> dict:
    """Passes when the fitted convergence order lies in _ORDER_WINDOW."""
    order = rep.convergence_order
    passed = _ORDER_WINDOW[0] <= order <= _ORDER_WINDOW[1]
    return _check(name, order, list(_ORDER_WINDOW), passed=passed, report=rep.as_dict())


def _suite_hermite() -> list[dict]:
    return [
        _check("orthonormality-deviation-deg60", orthonormality_suite(60), 1e-10),
        _order_check("eigenfunction-fd-order", eigenfunction_residual_report()),
    ]


def _suite_series() -> list[dict]:
    # rho_hat from one u_series call over the whole panel against the closed form: an s, tau (both signs), gamma,
    # alpha, beta mesh and Box_b points gamma = -sign(tau), s*|tau| in {1e6, 1e12, 1e17}, at rho_hat's s -> inf limit
    config = series.SeriesConfig(max_terms=400, tail_tol=1e-13)
    coords = (-3.0, -1.0, 0.0, 1.0, 3.0)
    taus = (-3.0, -1.0, -0.5, 0.5, 1.0, 3.0)
    mesh = np.meshgrid((0.5, 1.0, 2.0), taus, (0.0, 1.0, 1j), coords, coords, indexing="ij")
    box_tau = np.repeat((0.5, -0.5), 3)
    box_b = np.broadcast_arrays(np.tile((2e6, 2e12, 2e17), 2), box_tau, -np.sign(box_tau), 1.0, -1.0)
    s, tau, gamma, a, b = (np.append(g.ravel(), extra) for g, extra in zip(mesh, box_b))
    closed = rho_hat(KernelParams(s=s, tau=tau, gamma=gamma, n=1), a, b)
    u = series.u_series(config, s, a, b, tau, gamma)
    agreement = np.max(_relative(np.abs(np.exp(1j * a * b / tau) * u.value - closed), np.abs(closed)))
    # one mehler_sum call over S in {0.1, 0.5, 0.9} and a 13 x 13 grid on [-3, 3]^2
    grid = np.linspace(-3.0, 3.0, 13)
    big_s, x, y = (g.ravel() for g in np.meshgrid((0.1, 0.5, 0.9), grid, grid, indexing="ij"))
    closed = series.mehler_closed_form(big_s, x, y)
    mehler = np.max(_relative(np.abs(series.mehler_sum(big_s, x, y) - closed), np.abs(closed)))
    return [
        _check(
            "series-vs-closed-form", float(agreement), 1e-10,
            terms_used=u.terms_used, tail_bound=u.tail_bound,
        ),
        _check("mehler-identity", float(mehler), 1e-11, terms_used=series.mehler_terms(big_s)),
    ]


def _suite_pde() -> list[dict]:
    reports = (residual_u(), residual_rho_hat(), residual_rho_tilde(), residual_heat_kernel())
    return [_order_check(f"residual-order-{rep.equation}", rep) for rep in reports]


def _worst_checks(name, errors_by_tau) -> list[dict]:
    """Checks on the worst error of all (tau, error) pairs (< 1e-6) and of those at tau = 0 (< 1e-8); NaN fails."""
    worst = float(np.max([err for _, err in errors_by_tau], initial=0.0))
    worst_tau0 = float(np.max([err for tau, err in errors_by_tau if tau == 0.0], initial=0.0))
    return [_check(name, worst, 1e-6), _check(f"{name}-tau0", worst_tau0, 1e-8)]


def _suite_inversion() -> list[dict]:
    # gamma = 0, and the Box_b extremes at s*|tau| = 1e12: both kernels take gamma from kernels._linear_exponent,
    # so other gamma would check it against itself; the series, pde and semigroup suites check gamma
    panel = [(s, tau, 0.0) for s in (0.5, 1.0, 2.0) for tau in (-2.0, -0.5, 0.0, 0.5, 2.0)]
    panel += [(5e11, -2.0, 1.0), (5e11, 2.0, -1.0)]
    return _worst_checks("dft-inversion", [
        (tau, dft_inversion_check(KernelParams(s=s, tau=tau, gamma=gamma, n=1), 40.0, 512))
        for s, tau, gamma in panel
    ])


def _suite_semigroup() -> list[dict]:
    panel = [
        (0.5, 0.5, 1.0, 0.0, ((0.2, -0.3), (0.2, -0.3))),
        (0.7, 0.3, 0.0, 0.0, ((0.0, 0.0), (0.6, -0.4))),
        (0.5, 0.5, 1.0, 2.0, ((0.2, -0.3), (-0.1, 0.5))),
        (0.4, 0.6, -0.5, 1j, ((0.3, 0.1), (-0.2, 0.4))),
    ]
    checks = _worst_checks("semigroup-composition", [
        (tau, semigroup_check(
            KernelParams(s=s1, tau=tau, gamma=gamma, n=1),
            KernelParams(s=s2, tau=tau, gamma=gamma, n=1),
            points,
        ))
        for s1, s2, tau, gamma, points in panel
    ])

    params = KernelParams(s=1.0, tau=1.0, gamma=0.0, n=1)
    errors = initial_condition_check(
        params, GaussianTestFunction(), (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
    )
    monotone = all(errors[k + 1] <= 1.1 * errors[k] for k in range(len(errors) - 1))
    checks.append(
        _check(
            "initial-condition-final-error",
            errors[-1],
            5e-3,
            passed=(errors[-1] < 5e-3) and monotone,
            errors=errors,
            monotone=monotone,
        )
    )
    return checks


def build_report(suite: str, runners: dict) -> dict:
    """Run each check runner, timed, and assemble the JSON-ready report.

    runners maps a name to a callable returning a list of check entries;
    each name gets its wall time in elapsed_s.
    """
    checks = []
    elapsed = {}
    for key, runner in runners.items():
        start = time.perf_counter()
        checks.extend(runner())
        elapsed[key] = time.perf_counter() - start
    return {
        "suite": suite,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "elapsed_s": elapsed,
        "environment": {
            "heisenheat": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def run_suite(name: str) -> dict:
    """Run one named verification suite; returns a JSON-ready report dict."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    keys = SUITE_NAMES[:-1] if name == "all" else (name,)
    # looked up at call time, so a wrapper installed on _suite_<key> is the one run
    return build_report(name, {key: globals()[f"_suite_{key}"] for key in keys})
