"""Independent oracles shared by the test modules.

Frozen tables were produced by the arbitrary-precision generators at the
bottom of this file (mpmath, 40 significant digits) and pasted here so the
suite does not depend on mpmath at runtime; run this file as a script to
regenerate them.  The quadrature oracles are computed live because they are
independent evaluation paths by construction.
"""

import functools
import json
import math
from dataclasses import replace

import numpy as np
from numpy.polynomial.legendre import leggauss

# psi_m(x) for m = 0..12 via the Rodrigues formula
#   psi_m = (-1)^m (2^m m! sqrt(pi))^(-1/2) e^{x^2/2} d^m/dx^m e^{-x^2}
# evaluated by mpmath.diff at 40 digits; odd-degree entries at x = 0 are
# exactly 0 by parity.
RODRIGUES_TABLE = {
    -2.1: [0.082811985846877384, -0.24593905037457587, 0.45791508903075792,
           -0.58435242580508816, 0.47115298219128280, -0.10310425227735387,
           -0.30509459824211578, 0.43792382628362622, -0.17443015330344741,
           -0.24020150100242822, 0.39106386462171484, -0.12115225844174791,
           -0.27054871982395721],
    -0.7: [0.58790937244210462, -0.58200058556771564, -0.0083142940795387949,
           0.47995350309611402, -0.23036447379803545, -0.32729676349851069,
           0.34256844340251723, 0.17484054756415640, -0.38163762833062461,
           -0.038907256769328690, 0.37423314183846925, -0.074604869713834142,
           -0.33698083725230665],
    0.0: [0.75112554446494248, 0.0, -0.53112596601359846, 0.0,
          0.45996857917732664, 0.0, -0.41989194426503807, 0.0,
          0.39277294872653795, 0.0, -0.37261713638291738, 0.0,
          0.35675374718754557],
    0.4: [0.69337626828415024, 0.39223284897403640, -0.33339792162793094,
          -0.42914408535388808, 0.16735079255478840, 0.42617491261390467,
          -0.054348793289907449, -0.40618156090964546, -0.030397671213071036,
          0.37721980829698489, 0.096316893684391185, -0.34323711054904169,
          -0.14826679039048225],
    1.0: [0.45558067201133253, 0.64428836511347518, 0.32214418255673759,
          -0.26302962362333344, -0.46497507629251098, -0.058815211851795812,
          0.39050525154341057, 0.26318614230640452, -0.23369114359965229,
          -0.35829733614728405, 0.061463444878830409, 0.36783120679848824,
          0.091319693091662783],
    2.3: [0.053333934987610666, 0.17347882064666904, 0.36128850039023684,
          0.53683403426202823, 0.56019264836321740, 0.33472400346426038,
          -0.066901698368553497, -0.39214327284688752, -0.38838395530181556,
          -0.051381467127921424, 0.31560284311604626, 0.35850936697358388,
          0.034463205934895365],
}

# mpmath reference values used as frozen expectations
PSI_0_AT_0 = 0.75112554446494248          # pi**(-1/4)
PSI_2_AT_1 = 0.32214418255673759
SCALED_TAU4_M0_AT_0 = 0.53112596601359846  # 4**(-1/4) * pi**(-1/4)
A_AT_S1_TAU1 = 0.46211715726000976         # tanh(1/2)
B_AT_S1_TAU1 = 0.11318111602992609
A2B2_AT_S1_TAU1 = 0.22636223205985218
RHO_HAT_S1_TAU1_ORIGIN = 0.94171061583167571   # cosh(1/2)**(-1/2)
RHO_TILDE_S1_TAU1_ORIGIN = 0.31501817706845283
COTH_HALF = 2.1639534137386528
MEHLER_S05_ORIGIN = 0.50462650440403201    # pi**(-1/2) * 1.25**(-1/2)
A0_ALPHA0_TAU1 = 1.8827925275534296        # sqrt(2 pi) * pi**(-1/4)


def legendre_integral(f, lo: float, hi: float, order: int = 400) -> complex:
    """Gauss-Legendre quadrature of a (possibly complex) integrand on [lo, hi].

    f maps the node array to values whose last axis runs over the nodes, so
    one call integrates a whole family; a scalar integrand gives a complex.
    """
    nodes, weights = leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = mid + half * nodes
    total = np.sum(half * weights * f(x), axis=-1)
    return complex(total) if total.ndim == 0 else total


def coefficient_a_m(m: int, alpha: float, tau: float) -> complex:
    """Expansion coefficient a_m(alpha, tau) = (-i)**m sqrt(2 pi) tau**(1/4) psi_m(alpha/sqrt(tau)).

    This closed form is the Fourier transform of psi_m evaluated at
    alpha/sqrt(tau); coefficient_a_m_quadrature evaluates the defining
    integral instead.
    """
    from heisenheat.hermite import hermite_values

    if tau <= 0:
        raise ValueError(f"series coefficients require tau > 0, got {tau}")
    if m < 0:
        raise ValueError(f"degree m must be >= 0, got {m}")
    psi = hermite_values(alpha / math.sqrt(tau), m)[m]
    return (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)[m % 4] * math.sqrt(2.0 * math.pi) * tau ** 0.25 * float(psi)


def coefficient_a_m_quadrature(m: int, alpha: float, tau: float) -> complex:
    """Defining integral of the expansion coefficient, no closed form used.

    a_m(alpha, tau) = int exp(-i*alpha*beta/tau) Psi^tau_m(beta) dbeta,
    truncated where the Hermite envelope is past double precision.
    """
    from heisenheat.hermite import eval_scaled_hermite

    # classically allowed region |beta| < sqrt((2m+1) tau), generous margin
    radius = np.sqrt(tau) * (np.sqrt(2 * m + 1) + 14.0)

    def integrand(beta):
        return np.exp(-1j * alpha * beta / tau) * eval_scaled_hermite(beta, tau, m)[m]

    return legendre_integral(integrand, -radius, radius, order=600)


def gaussian_pair_integral(alpha: float, tau: float) -> complex:
    """int exp(-i*alpha*beta/tau) * exp(-beta^2/2) dbeta, known in closed form."""
    xi = alpha / tau
    return complex(np.sqrt(2.0 * np.pi) * np.exp(-0.5 * xi * xi))


def heat_apply_tau0_closed_form(s, ax, ay, cx, cy, x, y):
    """Gaussian convolution (pi s)^-1 e^{-r^2/s} * f for f = e^{-ax(x-cx)^2 - ay(y-cy)^2}.

    The tau = 0 kernel is the standard heat kernel of ds = (1/4) Lap, so the
    smoothed Gaussian stays Gaussian with widened variance.
    """
    gx = (1.0 + ax * s) ** -0.5 * np.exp(-ax * (x - cx) ** 2 / (1.0 + ax * s))
    gy = (1.0 + ay * s) ** -0.5 * np.exp(-ay * (y - cy) ** 2 / (1.0 + ay * s))
    return gx * gy


def apply_per_point(params, nodes, weights, values, x, y):
    """H[f] at each output point as one heat_kernel_h call over the whole mesh.

    The direct sum of w * H(s, x', y', x, y) * f(x', y') over the tensor
    rule, with no factorization of the kernel; x and y are (m, n).
    """
    from heisenheat.kernels import heat_kernel_h

    n = params.n
    meshes = np.meshgrid(*nodes, indexing="ij")
    wmesh = functools.reduce(np.multiply.outer, weights)
    wf = wmesh.ravel() * np.reshape(values, wmesh.shape).ravel()
    xp = np.stack([mesh.ravel() for mesh in meshes[:n]], axis=-1)
    yp = np.stack([mesh.ravel() for mesh in meshes[n:]], axis=-1)
    points = zip(np.reshape(x, (-1, n)), np.reshape(y, (-1, n)))
    return np.array([np.sum(wf * heat_kernel_h(params, xp, yp, *pt)) for pt in points], dtype=complex)


def csv_text_per_row(sample):
    """FieldSample.to_csv_text as one "%.17g" format per value of every row.

    Coordinates come from the full row-major mesh, so each row formats all
    of its coordinates again; the reference for the writer's byte output.
    """
    coords = sample.grid.coordinates()
    names = [ax.name for ax in sample.grid.axes]
    cols = [coords[name] for name in names] + [sample.values.real, sample.values.imag]
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(names + ["re", "im"])]
    lines.extend(row % point for point in zip(*cols))
    return "\n".join(lines) + "\n"


def json_text_per_pair(sample):
    """FieldSample.to_json_text with one "%" per [re, im] pair; the writer's byte reference."""
    def fmt(v):
        return format(float(v), ".17g")

    parts = ['{\n  "kernel": ' + json.dumps(sample.kernel)]
    if sample.params is not None:
        p = sample.params
        parts.append(
            '  "params": {"s": %s, "tau": %s, "gamma": [%s, %s], "n": %d}'
            % (fmt(p.s), fmt(p.tau), fmt(p.gamma.real), fmt(p.gamma.imag), p.n)
        )
    axes = ", ".join(
        '{"name": %s, "min": %s, "max": %s, "count": %d}'
        % (json.dumps(ax.name), fmt(ax.lo), fmt(ax.hi), ax.count)
        for ax in sample.grid.axes
    )
    parts.append('  "grid": [%s]' % axes)
    vals = ", ".join("[%.17g, %.17g]" % pair for pair in zip(sample.values.real, sample.values.imag))
    parts.append('  "values": [%s]\n}' % vals)
    return ",\n".join(parts) + "\n"


def kernel_product(kernel, params, *args):
    """An n-dimensional kernel assembled as the product of n one-dimensional kernels.

    Dimension reduction: the kernel with parameter gamma equals the product
    over j of one-dimensional kernels with parameter gamma/n at the j-th
    components of its spatial arguments.
    """
    one = replace(params, gamma=params.gamma / params.n, n=1)
    args = [np.asarray(a, dtype=float) for a in args]
    out = 1.0
    for j in range(params.n):
        out = out * kernel(one, *(a[..., j] for a in args))
    return out


def simplification_ratios(s, tau):
    """(B/(A^2+B^2), A/B) from the package's coefficients_ab; the identities make them (tau/2, coth(s*tau/4))."""
    from heisenheat.kernels import coefficients_ab

    a, b, _, _, _ = coefficients_ab(s, tau)
    return b / (a ** 2 + b ** 2), a / b


def _exp_one_expression(expo):
    values = np.exp(expo)
    return complex(values) if values.ndim == 0 else values


def _linear_exponent(params):
    """-(s*tau/4)*(gamma + n*sign(tau)), the kernels' folded linear term restated with the same operations."""
    return -(params.s * params.tau / 4.0) * (params.gamma + params.n * np.sign(params.tau))


def rho_hat_one_expression(params, alpha, beta):
    """kernels.rho_hat with its exponent as one expression, exponentiated into a new array.

    The reference for the one-buffer assembly: every element must come out
    bit for bit the same, zero signs included.  No overflow check.
    """
    from heisenheat.kernels import _components, coefficients_ab

    a, b = _components(params.n, alpha=alpha, beta=beta)
    a_c, b_c, log_cosh_rest, _, _ = coefficients_ab(params.s, params.tau)
    sq = np.sum(a * a, axis=-1) + np.sum(b * b, axis=-1)
    dot = np.sum(a * b, axis=-1)
    return _exp_one_expression(
        _linear_exponent(params)
        - 0.5 * params.n * log_cosh_rest
        - 0.5 * a_c * sq
        + 1j * b_c * dot
    )


def rho_tilde_one_expression(params, x, y):
    """rho_tilde in the A/B form of the Gaussian inversion of rho_hat, as one expression.

    e**(-gamma*s*tau/4) / ((2*pi)**n * cosh(s*tau/2)**(n/2) * (A^2+B^2)**(n/2))
        * exp(-A*(|x|^2+|y|^2)/(2*(A^2+B^2)) - i*B*x.y/(A^2+B^2))

    The package evaluates the simplified coth/sinh form instead, so this is an
    accuracy reference, not a bitwise one.  It adds s*|tau|/2 back to
    coefficients_ab's log cosh(s*tau/2) - s*|tau|/2, which cancels against
    the gamma term only at the |s*tau| <= 1e4 the tests draw.  No overflow check.
    """
    from heisenheat.kernels import _components, coefficients_ab

    xv, yv = _components(params.n, x=x, y=y)
    a_c, b_c, log_cosh_rest, _, _ = coefficients_ab(params.s, params.tau)
    log_cosh = log_cosh_rest + 0.5 * np.abs(params.s * params.tau)
    ratio = b_c / a_c
    q = ratio * ratio
    a_over_denom = 1.0 / (a_c * (1.0 + q))
    sq = np.sum(xv * xv, axis=-1) + np.sum(yv * yv, axis=-1)
    dot = np.sum(xv * yv, axis=-1)
    return _exp_one_expression(
        -params.gamma * params.s * params.tau / 4.0
        - params.n * math.log(2.0 * math.pi)
        - 0.5 * params.n * (log_cosh + 2.0 * np.log(a_c) + np.log1p(q))
        - 0.5 * a_over_denom * sq
        - 1j * (ratio * a_over_denom) * dot
    )


def _coth_sinh_one_expression(params, r2, tw):
    from heisenheat.kernels import coefficients_ab

    _, _, _, log_sinh_rest, envelope = coefficients_ab(params.s, params.tau)
    return _exp_one_expression(
        _linear_exponent(params)
        + params.n * (log_sinh_rest - math.log(4.0 * math.pi))
        - envelope * r2
        - 0.5j * params.tau * tw
    )


def rho_tilde_at_origin_one_expression(params, x, y):
    """kernels.rho_tilde as H's one-expression exponent with the source at the origin; the bitwise reference."""
    from heisenheat.kernels import _components

    xv, yv = _components(params.n, x=x, y=y)
    r2 = np.sum(xv * xv, axis=-1) + np.sum(yv * yv, axis=-1)
    return _coth_sinh_one_expression(params, r2, np.sum(xv * yv, axis=-1))


def heat_kernel_h_one_expression(params, xp, yp, x, y):
    """kernels.heat_kernel_h with its exponent as one expression; the bitwise reference."""
    from heisenheat.kernels import _components

    xs, ys, xf, yf = _components(params.n, xp=xp, yp=yp, x=x, y=y)
    u = xf - xs
    v = yf - ys
    r2 = np.sum(u * u, axis=-1) + np.sum(v * v, axis=-1)
    return _coth_sinh_one_expression(params, r2, np.sum(u * (yf + ys), axis=-1))


def dft_inversion_centred(params, grid_extent, grid_count):
    """verify.dft_inversion_check's error by the centred full-grid transform.

    rho_hat on the grid in natural order, fftshift(ifft2(ifftshift(.))) on
    all of it, scaled, and the central quarter compared with rho_tilde; the
    bitwise one-expression references stand in for the package's kernels.
    No decay check.
    """
    step = grid_extent / grid_count
    freqs = step * (np.arange(grid_count) - grid_count // 2)
    f_hat = rho_hat_one_expression(params, freqs[:, np.newaxis], freqs)
    transform = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(f_hat)))
    inverted = (grid_extent / (2.0 * np.pi)) ** 2 * transform
    m_idx = np.arange(grid_count) - grid_count // 2
    keep = np.abs(m_idx) <= grid_count // 8
    x = m_idx[keep] * (2.0 * np.pi / grid_extent)
    exact = rho_tilde_at_origin_one_expression(params, x[:, np.newaxis], x)
    num = inverted[np.ix_(keep, keep)]
    return float(np.max(np.abs(num - exact)) / float(np.max(np.abs(exact))))


def _regenerate_rodrigues_table():  # pragma: no cover - developer utility
    import mpmath as mp

    mp.mp.dps = 40

    def psi_rodrigues(m, x):
        x = mp.mpf(x)
        d = mp.diff(lambda t: mp.e ** (-t ** 2), x, m)
        return (
            (-1) ** m
            / mp.sqrt(2 ** m * mp.factorial(m) * mp.sqrt(mp.pi))
            * mp.e ** (x ** 2 / 2)
            * d
        )

    for xs in ("-2.1", "-0.7", "0.0", "0.4", "1.0", "2.3"):
        vals = [psi_rodrigues(m, mp.mpf(xs)) for m in range(13)]
        print(f"    {xs}: [" + ", ".join(mp.nstr(v, 17) for v in vals) + "],")


if __name__ == "__main__":  # pragma: no cover
    _regenerate_rodrigues_table()
