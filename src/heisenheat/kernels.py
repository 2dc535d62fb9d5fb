"""Closed-form heat kernels in transform space.

Three kernels are implemented, all parameterized by heat time s >= 0, the
dual frequency tau of the group's central direction, a complex operator
parameter gamma, and the complex dimension n:

``rho_hat``
    full spatial Fourier transform of the fundamental solution,

        e**(-gamma*s*tau/4) * cosh(s*tau/2)**(-n/2)
            * exp(-A*(|alpha|^2+|beta|^2)/2 + i*B*alpha.beta)

``rho_tilde``
    kernel after transforming only the central variable: the Gaussian
    inversion of rho_hat in (alpha, beta), simplified by B/(A^2+B^2) = tau/2
    and A/B = coth(s*tau/4) to heat_kernel_h with its source at the origin,

        tau**n * e**(-gamma*s*tau/4) / ((4*pi)**n * sinh(s*tau/4)**n)
            * exp(-(tau/4)*coth(s*tau/4)*(|x|^2+|y|^2) - i*(tau/2)*x.y)

``heat_kernel_h``
    the twisted two-point kernel H(s, x', y', x, y) =
    rho_tilde(s, x-x', y-y') * exp(-i*tau*(x-x').y') driving the weighted
    dbar heat semigroup.

The coefficient pair

    A = sinh(s*tau/2) / (tau*cosh(s*tau/2))
    B = 2*sinh(s*tau/4)**2 / (tau*cosh(s*tau/2))

has a removable singularity at tau = 0 (A -> s/2, B -> 0).  One function,
:func:`coefficients_ab`, evaluates it together with the other coefficients
the kernels need, elementwise over arrays, on one path: both branches run on
every element and one threshold picks per element, a Taylor expansion in
z = s*tau, cut after the z**2 terms, where |z| < TAYLOR_BRANCH_THRESHOLD, the
closed forms elsewhere; the parts of its logarithms linear in s*|tau| and
gamma's factor e**(-gamma*s*tau/4) form one term, exactly 0 at the Box_b
extremes gamma = -n*sign(tau), where the kernels tend to limits as s -> inf.
At the threshold both branches agree to ~1e-15 relative.  Of the kernels
only rho_hat uses A and B.  Every exponent has one form, const -
envelope*sq + twist*cross with a signed twist coefficient, assembled in log
space and exponentiated in place, so large |s*tau|*n underflows gracefully
to 0 and the real power cosh(s*tau/2)**(n/2) never touches a complex branch cut.  One
primitive does this in blocks of ~16K output elements, one after another on
the calling thread: a call holds its complex output and a few block-sized
temporaries, whatever its size.  Far tails give 0, silently.

Spatial arguments are length-n vectors; every kernel also broadcasts over
leading axes of inputs shaped (..., n).  For n == 1 one rule covers all
spatial arguments of a call: the last axis is the component axis only when
every non-scalar argument ends in length 1, otherwise every argument is
taken elementwise, so (M, 1) against (1, N) gives an (M, N) result.  s and
tau may be arrays too; they broadcast against the leading axes.

:func:`apply_kernel` is the one weighted sum over H, behind the CLI's
``apply`` and the semigroup and initial-condition checks of ``verify``.  It
uses that H is a twisted convolution whose Gaussian and phase factor over
the axes: per output point it evaluates J+K exponentials per component and
the double sum is one GEMM per chunk of output points.

rho_tilde, heat_kernel_h and apply_kernel share one guard on s > 0.  The
envelope ~1/s at subnormal s and kernel values past the double range raise
KernelOverflowError, never inf or NaN.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TAYLOR_BRANCH_THRESHOLD",
    "KERNEL_NAMES",
    "KernelParams",
    "GridAxis",
    "GridSpec",
    "FieldSample",
    "GridMismatchError",
    "KernelOverflowError",
    "coefficients_ab",
    "rho_hat",
    "rho_tilde",
    "heat_kernel_h",
    "apply_kernel",
    "evaluate_on_grid",
]

# |s*tau| below which the Taylor branch is used; chosen so both branches
# carry < 1e-14 relative error (series truncated after the (s*tau)**2 terms).
TAYLOR_BRANCH_THRESHOLD = 1e-4

_LOG_2 = math.log(2.0)
_LOG_4 = math.log(4.0)
_LOG_4PI = math.log(4.0 * math.pi)

# output points per apply_kernel chunk, as a multiple of the first source axis length
_APPLY_CHUNK_MESHES = 4

# elements per block of a kernel's output: its temporaries stay cache-sized and are reused, not faulted in again
_EXP_BLOCK = 16384

# largest work of one eval or apply output grid: its points times n, what its coordinates and
# values grow with.  An n = 1 eval to JSON peaks at ~120 B and takes 1-2 us per point (1e6 and 2e6
# points: 143 and 270 MB, 1.4 and 4.3 s), so one at the bound needs ~16 GB.  apply holds a chunk of
# output points against the input mesh at a time, so its memory does not grow with their product
_MAX_WORK = 2**27

# rows per filled template of the CSV and JSON writers: bounds the template, value
# tuple and formatted chunk held at once, whatever the length of the grid's last axis.
# _format_17g takes as many doubles at a time, for ~0.4 MiB of temporaries
_WRITE_CHUNK_ROWS = 4096

# doubles |x| in [_FAST_MIN, _FAST_MAX) get their "%.17g" digits from _format_17g's own arithmetic,
# which scales them by 10**(16-k) from a table.  Their k = floor(log10|x|), and np.log10's k one off
# from it, lie in _POW10_EXPONENTS, where 10**(16-k) and its rounding error are normal doubles
_FAST_MIN, _FAST_MAX = 1e-291, 1e307
_POW10_EXPONENTS = range(-292, 308)
# a scaled double whose fraction lies this close to 1/2 may round either way, so "%.17g" formats it;
# the double-double product is good to ~1e-14 of a unit
_TIE_MARGIN = 2.0**-30


class GridMismatchError(ValueError):
    """Grid axes are inconsistent with the requested kernel."""


class KernelOverflowError(ValueError):
    """A kernel value exceeds the double range."""


@dataclass(frozen=True)
class KernelParams:
    """Parameter tuple shared by all kernel evaluations.

    gamma may be any complex number; gamma = n - 2q is the value where the
    operator family coincides with the Kohn Laplacian on (0,q)-forms, see
    :meth:`for_box_b`.  s, tau and gamma may be arrays that broadcast
    against the leading axes of the spatial arguments; they, s*tau and
    gamma*s*tau must be finite.
    """

    s: float | np.ndarray
    tau: float | np.ndarray
    gamma: complex = 0.0
    n: int = 1

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            s_tau = np.multiply(self.s, self.tau)
            terms = {"s": self.s, "tau": self.tau, "gamma": self.gamma, "s*tau": s_tau,
                     "gamma*s*tau": self.gamma * s_tau}
        for name, value in terms.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if (np.asarray(self.s) < 0).any():
            raise ValueError(f"heat time s must be >= 0, got {self.s}")
        if self.n < 1:
            raise ValueError(f"dimension n must be >= 1, got {self.n}")

    @classmethod
    def for_box_b(cls, s: float, tau: float, n: int, q: int) -> "KernelParams":
        """Convenience constructor with gamma = n - 2q (Kohn Laplacian on (0,q)-forms)."""
        if not 0 <= q <= n:
            raise ValueError(f"form degree q must satisfy 0 <= q <= n, got q={q}, n={n}")
        return cls(s=s, tau=tau, gamma=complex(n - 2 * q), n=n)


# ---------------------------------------------------------------------------
# coefficient functions with removable-singularity branches
# ---------------------------------------------------------------------------

def _coefficients_series(s, tau):
    """Taylor branch of coefficients_ab in z = s*tau, truncated after the z**2 terms."""
    z2 = (s * tau) ** 2
    # A = (s/2) * tanh(z/2)/(z/2),  B = (s^2 tau / 8) * (sinh(w)/w)^2 / cosh(2w), w = z/4;
    # below the threshold the z**4 terms are under half an ulp of each series
    a = 0.5 * s * (1.0 - z2 / 12.0)
    b = 0.125 * s * s * tau * (1.0 - 5.0 * z2 / 48.0)
    p = 1.0 - z2 / 96.0
    # at s = 0 (reached only by rho_hat) both quarter-argument terms are +inf, their limit;
    # at subnormal s the envelope overflows to +inf, which the kernels using it report
    log_tau_over_sinh = _LOG_4 - np.log(s) + np.log(p) + 0.25 * np.abs(s * tau)
    envelope = (1.0 + z2 / 48.0) / s
    return a, b, log_tau_over_sinh, envelope


def _coefficients_direct(s, tau):
    """Closed-form branch of coefficients_ab, overflow-free for |s*tau| > 0 but for the envelope ~1/s."""
    w = np.abs(s * tau)
    a = np.tanh(0.5 * s * tau) / tau
    # 2*sinh^2(z/4)/cosh(z/2) = expm1(-|z|/2)^2 / (1 + e^-|z|)
    b = np.expm1(-0.5 * w) ** 2 / ((1.0 + np.exp(-w)) * tau)
    envelope = 0.25 * np.abs(tau) / np.tanh(0.25 * w)
    # log(tau/sinh(|z|/4)) + |z|/4, with sinh(|z|/4) = e^(|z|/4) * -expm1(-|z|/2) / 2
    return a, b, np.log(np.abs(tau)) - np.log(-np.expm1(-0.5 * w)) + _LOG_2, envelope


def coefficients_ab(s, tau):
    """Every coefficient the kernels use, elementwise over broadcast s and tau arrays.

    Returns the tuple (A, B, log cosh(z/2) - |z|/2, log(tau/sinh(z/4)) + |z|/4,
    (tau/4)*coth(z/4)), z = s*tau, with A = sinh(z/2)/(tau*cosh(z/2)) and
    B = 2*sinh(z/4)**2/(tau*cosh(z/2)).  The two logarithms lack their parts
    linear in |z|, so they stay bounded (-log 2 and log(2*|tau|) as |z| -> inf);
    the kernels add those parts in _linear_exponent.  Elements with
    |z| < TAYLOR_BRANCH_THRESHOLD take the Taylor expansions in z
    (relative error < 1e-14), which settle the removable singularity:
    A(s, 0) = s/2, B(s, 0) = 0, tau/sinh(z/4) -> 4/s,
    (tau/4)*coth(z/4) -> 1/s.  The last two are formed from their own
    expressions, not from A and B.  At s = 0 they are +inf, and so is the
    envelope where it is past the double range (subnormal s); the kernels
    that use it raise KernelOverflowError there.
    """
    # [()] turns 0-d input into numpy scalars, on which each operation is ~10x cheaper
    s = np.asarray(s, dtype=float)[()]
    tau = np.asarray(tau, dtype=float)[()]
    if (s < 0).any():
        raise ValueError(f"heat time s must be >= 0, got {s}")
    w = np.abs(s * tau)
    log_cosh_rest = np.log1p(np.exp(-w)) - _LOG_2
    small = w < TAYLOR_BRANCH_THRESHOLD
    # both branches run on every element and np.where keeps one per element.  A warning
    # silenced here comes from the branch not picked, or is one of the +inf above: the
    # limits at s = 0, or the envelope ~1/s past the double range at subnormal s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        series = _coefficients_series(s, tau)
        direct = _coefficients_direct(s, tau)
    a, b, log_tau_over_sinh, envelope = (np.where(small, ser, dire)[()] for ser, dire in zip(series, direct))
    return a, b, log_cosh_rest, log_tau_over_sinh, envelope


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def _components(n: int, **args) -> list[np.ndarray]:
    """Coerce the spatial arguments of one kernel call to shape (..., n).

    For n == 1 the last axis is the component axis only when every
    non-scalar argument ends in length 1; otherwise every argument is taken
    elementwise and gains a trailing component axis.  A NaN entry is a
    ValueError naming its argument; +-inf is accepted.
    """
    arrays = {name: np.asarray(a, dtype=float) for name, a in args.items()}
    elementwise = n == 1 and any(a.ndim and a.shape[-1] != 1 for a in arrays.values())
    coerced = [a[..., np.newaxis] if elementwise or a.ndim == 0 else a for a in arrays.values()]
    for name, a in zip(arrays, coerced):
        if a.shape[-1] != n:
            raise ValueError(f"{name} must have {n} components along the last axis, got shape {a.shape}")
        if np.isnan(a).any():
            raise ValueError(f"{name} has a NaN entry")
    return coerced


def _quadratic_forms(u, v, w):
    """|u|^2 + |v|^2 and u.w over the last axis, one component at a time from +0 (np.sum's order for n < 8)."""
    n = u.shape[-1]
    sq = sum(u[..., j] * u[..., j] for j in range(n)) + sum(v[..., j] * v[..., j] for j in range(n))
    return sq, sum(u[..., j] * w[..., j] for j in range(n))


def _two_point_forms(xp, yp, x, y):
    """H's forms |x-x'|^2 + |y-y'|^2 and (x-x').(y+y'), where a component with x = x' adds +0 even at y+y' = inf."""
    u = x - xp
    return _quadratic_forms(u, y - yp, np.where(u == 0, 0.0, y + yp))


def _overflow(what: str, params: KernelParams) -> KernelOverflowError:
    return KernelOverflowError(
        f"{what} exceeds the double range at gamma={params.gamma}, s={params.s}, tau={params.tau}"
    )


def _scalar_params(caller: str, *params: KernelParams):
    """ValueError naming s, tau or gamma when one of them is not a scalar."""
    for name, value in ((key, getattr(p, key)) for p in params for key in ("s", "tau", "gamma")):
        if np.ndim(value) != 0:
            raise ValueError(f"{caller} needs a scalar {name}, got shape {np.shape(value)}")


def _exp_kernel(params: KernelParams, const, envelope, twist, forms, *args):
    """exp(const - envelope*sq + twist*cross), (sq, cross) = forms(*args), a complex for 0-d output.

    forms reduces the last axis of the args, whose leading axes broadcast
    with the coefficients.  The output is allocated once and its leading axis
    cut into the fewest blocks of at most _EXP_BLOCK elements (at least one
    row each), whose row counts differ by at most one.  Per block, forms
    runs on the args' rows and the slice starts as twist*cross, gets the
    real and imaginary parts of const - envelope*sq added (that expression's
    IEEE operations, zero signs included) and is exponentiated in place.
    Where a far-tail square overflows to inf and leaves a NaN, a zero
    coefficient contributes 0 and a decay of +inf gives -inf; an infinite
    phase at a finite decay is KernelOverflowError, and so, after every
    block, is a value past the double range, whose message reads the call's
    largest const - envelope*sq.
    """
    shape = np.broadcast_shapes(*map(np.shape, (const, envelope, twist)), *(np.shape(a)[:-1] for a in args))
    out = np.empty(shape, dtype=complex)
    rows = out if out.ndim else out.reshape(1)
    step = max(1, _EXP_BLOCK // max(1, math.prod(rows.shape[1:])))
    count = -(-len(rows) // step)
    bounds = [len(rows) * k // count for k in range(count + 1)]
    # an input with the output's leading axis is cut into the blocks; an arg's last axis is its components
    inputs = (const, envelope, twist, *args)
    cut = [np.ndim(v) == rows.ndim + (k > 2) and np.shape(v)[0] != 1 for k, v in enumerate(inputs)]

    def block(span) -> bool:
        """Fill rows[lo:hi] for span (lo, hi); True when a value there is past the double range."""
        part = slice(*span)
        buf = rows[part]
        c, e, tw, *block_args = (v[part] if cut_v else v for v, cut_v in zip(inputs, cut))
        with np.errstate(over="ignore", invalid="ignore"):
            sq, cross = forms(*block_args)
            np.multiply(tw, cross, out=buf)
            # const - envelope*sq formed in one block-sized temporary, not two
            decay = np.multiply(e, sq, out=np.empty(buf.shape))
            np.add(np.subtract(np.real(c), decay, out=decay), buf.real, out=buf.real)
            np.add(np.imag(c), buf.imag, out=buf.imag)
            nan = np.isnan(buf)
            if nan.any():
                c, e, q, tw, cr = (np.broadcast_to(v, buf.shape)[nan] for v in (c, e, sq, tw, cross))
                decay = np.where(e == 0, 0.0, e * q)
                settled = np.where(decay == np.inf, -np.inf, c - decay + np.where(tw == 0, 0.0, tw * cr))
                if np.isnan(settled).any():
                    raise _overflow("the kernel's phase twist*cross", params)
                buf[nan] = settled
        try:
            with np.errstate(over="raise"):
                np.exp(buf, out=buf)
        except FloatingPointError:
            return True
        return False

    # every block runs before an overflow is raised, so a later block's phase error comes first
    overflowed = [block(span) for span in zip(bounds, bounds[1:])]
    if any(overflowed):
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.nanmax(np.real(const) - envelope * forms(*args)[0])
        raise _overflow(f"kernel value (log|value| up to {peak:.6g})", params)
    return complex(out) if out.ndim == 0 else out


def _linear_exponent(params: KernelParams):
    """-(s*tau/4)*(gamma + n*sign(tau)), the kernels' one gamma*s*tau/4 term; exactly 0 at gamma = -n*sign(tau)."""
    return -(params.s * params.tau / 4.0) * (params.gamma + params.n * np.sign(params.tau))


def rho_hat(params: KernelParams, alpha, beta):
    """Spatial Fourier transform of the fundamental solution.

    Returns e**(-gamma*s*tau/4) * cosh(s*tau/2)**(-n/2)
        * exp(-A*(|alpha|^2+|beta|^2)/2 + i*B*alpha.beta).

    At s = 0 this is identically 1 (transform of the delta distribution); at
    tau = 0 it reduces to the Gaussian exp(-s*(|alpha|^2+|beta|^2)/4).
    """
    a, b = _components(params.n, alpha=alpha, beta=beta)
    a_c, b_c, log_cosh_rest, _, _ = coefficients_ab(params.s, params.tau)
    const = _linear_exponent(params) - 0.5 * params.n * log_cosh_rest
    return _exp_kernel(params, const, 0.5 * a_c, 1j * b_c, _quadratic_forms, a, b, b)


def _coth_sinh_coefficients(caller: str, params: KernelParams):
    """log(tau/sinh(z/4)) + |z|/4 and (tau/4)*coth(z/4), z = s*tau; the one s > 0 and finite-envelope guard."""
    if (np.asarray(params.s) <= 0).any():
        raise ValueError(f"{caller} requires s > 0, got s={params.s}")
    _, _, _, log_sinh_rest, envelope = coefficients_ab(params.s, params.tau)
    if not np.isfinite(envelope).all():
        raise _overflow("the Gaussian envelope (tau/4)*coth(s*tau/4)", params)
    return log_sinh_rest, envelope


def _coth_sinh_kernel(caller: str, params: KernelParams, forms, *args):
    """H's closed form with its forms |x-x'|^2 + |y-y'|^2 and (x-x').(y+y') from forms(*args)."""
    log_sinh_rest, envelope = _coth_sinh_coefficients(caller, params)
    const = _linear_exponent(params) + params.n * (log_sinh_rest - _LOG_4PI)
    return _exp_kernel(params, const, envelope, -0.5j * params.tau, forms, *args)


def rho_tilde(params: KernelParams, x, y):
    """Fundamental solution of the weighted dbar heat equation (partial transform).

    tau**n * e**(-gamma*s*tau/4) / ((4*pi)**n * sinh(s*tau/4)**n)
        * exp(-(tau/4)*coth(s*tau/4)*(|x|^2+|y|^2) - i*(tau/2)*x.y)

    This is the Gaussian inversion of rho_hat simplified by B/(A^2+B^2) =
    tau/2 and A/B = coth(s*tau/4), and heat_kernel_h with its source at the
    origin.  Requires s > 0; the s -> 0 limit is the delta distribution.  At
    tau = 0 the kernel is the Gaussian (pi*s)**(-n) * exp(-(|x|^2+|y|^2)/s).
    """
    xv, yv = _components(params.n, x=x, y=y)
    return _coth_sinh_kernel("rho_tilde", params, _quadratic_forms, xv, yv, yv)


def heat_kernel_h(params: KernelParams, xp, yp, x, y):
    """Two-point heat kernel H(s, x', y', x, y) of the weighted dbar semigroup.

    tau**n * e**(-gamma*s*tau/4) / ((4*pi)**n * sinh(s*tau/4)**n)
        * exp(-(tau/4)*coth(s*tau/4)*(|x-x'|^2+|y-y'|^2)
              - i*(tau/2)*(x-x').(y+y'))

    Equal to rho_tilde(s, x-x', y-y') times the twist factor
    exp(-i*tau*(x-x').y'); the (x', y') pair is the integration (source)
    argument of the induced operator H[f].  Requires s > 0; the tau -> 0
    limit is the Gaussian (pi*s)**(-n) * exp(-(|x-x'|^2+|y-y'|^2)/s),
    reached through the series branch.
    """
    points = _components(params.n, xp=xp, yp=yp, x=x, y=y)
    return _coth_sinh_kernel("heat_kernel_h", params, _two_point_forms, *points)


def apply_kernel(params: KernelParams, nodes, weights, values, x, y) -> np.ndarray:
    """H[f](s, x, y) = sum over a tensor rule of w * H(s, x', y', x, y) * f(x', y').

    nodes and weights are 2n one-dimensional arrays, one per source axis in
    the order x'_1..x'_n, y'_1..y'_n; values holds f on their row-major mesh
    (any shape with the mesh's size).  x and y are the m output points, read
    by the kernels' shape rule and flattened to (m, n); s, tau and gamma must
    be scalars.  Returns the m sums.

    H is a twisted convolution and factors over the axes: per component,
    with t = tau/2 and (x-x')(y+y') = xy + xy' - x'y - x'y',

        H = e^{itx'y'} * P(x'; x, y) * Q(y'; x, y),
        P = C * exp(-envelope*(x-x')^2 + itx'y),
        Q = exp(-envelope*(y-y')^2 - itx(y+y')),

    C the n = 1 constant with gamma/n.  The weights and e^{itx'y'} are
    folded into f once per call (mesh-size exponentials), so each output
    point takes J+K exponentials per component, its rows of P and Q,
    instead of one per mesh point.  Per chunk of output points the sum is
    one GEMM over x'_1 and one row-wise contraction per remaining axis.  A
    chunk holds _APPLY_CHUNK_MESHES times len(x'_1) points, so the GEMM
    result stays within that many mesh sizes whatever m is.
    """
    n = params.n
    if len(nodes) != 2 * n or len(weights) != 2 * n:
        raise ValueError(f"apply_kernel needs {2 * n} node and weight arrays for n={n}")
    _scalar_params("apply_kernel", params)
    x, y = (a.reshape(-1, n) for a in _components(n, x=x, y=y))
    log_sinh_rest, envelope = _coth_sinh_coefficients("apply_kernel", params)
    # each component is the n = 1 kernel with gamma/n
    log_c = _linear_exponent(params) / n + log_sinh_rest - _LOG_4PI
    t = 0.5 * params.tau
    sparse = np.meshgrid(*nodes, indexing="ij", sparse=True)
    coupling = sum(sparse[c] * sparse[n + c] for c in range(n))
    wmesh = functools.reduce(np.multiply.outer, weights)
    g = (wmesh * np.reshape(values, wmesh.shape) * np.exp(1j * t * coupling)).reshape(len(nodes[0]), -1)
    # P over x'_c, then Q over y'_c, each with its forms of one component of the points, (m, 1, 1), and (J, 1) nodes
    factor_rules = (
        (log_c, 1j * t, lambda xo, yo, node: (((xo - node) ** 2)[..., 0], (yo * node)[..., 0])),
        (0.0, -1j * t, lambda xo, yo, node: (((yo - node) ** 2)[..., 0], (xo * (yo + node))[..., 0])),
    )
    out = np.empty(len(x), dtype=complex)
    chunk = _APPLY_CHUNK_MESHES * len(nodes[0])
    for lo in range(0, len(x), chunk):
        xc, yc = (a[lo:lo + chunk].T[..., np.newaxis, np.newaxis] for a in (x, y))
        # P for x'_1..x'_n, then Q for y'_1..y'_n: the mesh's axis order.  Every factor is
        # exponentiated before the GEMM: right after OpenBLAS's zgemm the complex exp ran
        # ~20x slower (AVX-SSE transition penalty, x86-64), and numpy's own array arithmetic
        # clears that state again.
        factors = [
            _exp_kernel(params, const, envelope, twist, forms, xc[c], yc[c], nodes[k * n + c][:, np.newaxis])
            for k, (const, twist, forms) in enumerate(factor_rules) for c in range(n)
        ]
        acc = factors[0] @ g
        for factor in factors[1:]:
            acc = np.einsum("mj,mjr->mr", factor, acc.reshape(len(acc), factor.shape[1], -1))
        out[lo:lo + chunk] = acc[:, 0]
    return out


# ---------------------------------------------------------------------------
# grids, field samples, serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridAxis:
    """One rectangular grid axis: `count` values from `lo` to `hi` inclusive (lo == hi for count 1)."""

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"axis {self.name}: count must be >= 1, got {self.count}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"axis {self.name}: min {self.lo} and max {self.hi} must be finite")
        if self.lo > self.hi:
            raise ValueError(f"axis {self.name}: min {self.lo} exceeds max {self.hi}")
        if self.count == 1 and self.lo != self.hi:
            raise ValueError(f"axis {self.name}: a count-1 axis needs min == max, got {self.lo} and {self.hi}")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"axis {self.name}: span max - min from {self.lo} to {self.hi} exceeds the double range")

    def points(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid; points enumerate in row-major axis order."""

    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        names = [ax.name for ax in self.axes]
        if not names:
            raise ValueError("a grid needs at least one axis")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")

    @property
    def size(self) -> int:
        return math.prod(ax.count for ax in self.axes)

    def coordinates(self) -> dict[str, np.ndarray]:
        """Flattened per-axis coordinates of every grid point, row-major."""
        meshes = np.meshgrid(*[ax.points() for ax in self.axes], indexing="ij")
        return {ax.name: mesh.ravel() for ax, mesh in zip(self.axes, meshes)}


@dataclass
class FieldSample:
    """Complex kernel samples over a GridSpec, the unit of CLI output.

    `values` is the flat row-major complex array; `params` and `kernel` record
    where the samples came from (absent for samples loaded from bare CSV).
    """

    grid: GridSpec
    values: np.ndarray
    kernel: str = ""
    params: KernelParams | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()
        if self.values.size != self.grid.size:
            raise ValueError(
                f"values length {self.values.size} != grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field sample contains non-finite values")

    # -- serialization: 17 significant digits, bit-exact decimal round trip --

    def to_csv_text(self) -> str:
        """One row per grid point: coordinates in axis order, then Re, Im.

        Each axis point is formatted once with "%.17g".  Each distinct double
        of the values is formatted once too (:func:`_distinct_strings`): numpy
        arithmetic makes the digits "%.17g" would write, and "%.17g" itself
        writes only near-ties, zeros, subnormals and the outermost exponents
        (:func:`_format_17g`).  Per chunk of the last axis,
        one template holds its rows' coordinates and "%s" slots for Re and
        Im; per point of the leading axes its coordinates go in front of
        every row, and one % fills the template with the chunk's strings.
        Chunks hold at most _WRITE_CHUNK_ROWS rows, and the distinct strings
        and their index are dropped before the final join, however long the
        last axis.
        """
        *lead, last = self.grid.axes
        # each row starts with "\n", so a leading-axis point's coordinates go in by one replace
        tails = [
            ((b"\n%.17g,%%s,%%s" * len(piece)) % tuple(piece.tolist()), 2 * len(piece))
            for piece in np.split(last.points(), range(_WRITE_CHUNK_ROWS, last.count, _WRITE_CHUNK_ROWS))
        ]
        # a short last axis takes several of its runs per template, one when it spans several chunks
        runs = max(1, _WRITE_CHUNK_ROWS // last.count)
        heads = itertools.product(*([b"%.17g," % v for v in ax.points().tolist()] for ax in lead))
        strings, index = _distinct_strings(self.values)
        parts = [",".join([ax.name for ax in self.grid.axes] + ["re", "im"])]
        lo = 0
        while starts := [b"\n" + b"".join(head) for head in itertools.islice(heads, runs)]:
            for tail, width in tails:
                hi = lo + width * len(starts)
                template = b"".join([tail.replace(b"\n", start) for start in starts])
                parts.append((template % tuple(strings[index[lo:hi]].tolist())).decode("ascii"))
                lo = hi
        # so the peak stays the output text plus its parts
        del strings, index
        parts.append("\n")
        return "".join(parts)

    def to_json_text(self) -> str:
        """Serialize with every float rendered at 17 significant digits.

        The header's numbers are formatted with "%.17g".  Each distinct double
        of the values is formatted once (:func:`_distinct_strings`): numpy
        arithmetic makes the digits "%.17g" would write, and "%.17g" itself
        writes only near-ties, zeros, subnormals and the outermost exponents
        (:func:`_format_17g`).  One % per chunk of _WRITE_CHUNK_ROWS pairs
        fills "%s" slots from those strings.
        """
        parts = ['{\n  "kernel": ' + json.dumps(self.kernel)]
        if self.params is not None:
            p = self.params
            parts.append(
                '  "params": {"s": %.17g, "tau": %.17g, "gamma": [%.17g, %.17g], "n": %d}'
                % (p.s, p.tau, p.gamma.real, p.gamma.imag, p.n)
            )
        axes = ", ".join(
            '{"name": %s, "min": %.17g, "max": %.17g, "count": %d}'
            % (json.dumps(ax.name), ax.lo, ax.hi, ax.count)
            for ax in self.grid.axes
        )
        parts.append('  "grid": [%s]' % axes)
        parts.append('  "values": [')
        strings, index = _distinct_strings(self.values)
        # every pair is followed by ", ", which the last one trades for the closing brackets
        parts = [",\n".join(parts)] + [
            (b"[%s, %s], " * (len(piece) // 2) % tuple(strings[piece].tolist())).decode("ascii")
            for piece in np.split(index, range(2 * _WRITE_CHUNK_ROWS, len(index), 2 * _WRITE_CHUNK_ROWS))
        ]
        parts[-1] = parts[-1][:-2] + "]\n}\n"
        # so the peak stays the output text plus its parts
        del strings, index
        return "".join(parts)

    @classmethod
    def from_json(cls, path) -> "FieldSample":
        """Rebuild a sample from JSON written by :meth:`to_json_text`.

        Every number must be a JSON number token, not a string or a boolean:
        the grid's min, max and count, the params' s, tau, gamma and n, and
        the values; count and n must be integer tokens.  The document must be
        a JSON object, its grid a list of axis objects, and its kernel and
        every axis name strings.  A field that breaks this, or an integer
        token past the double range, is a ValueError naming the field.
        """
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh, parse_int=_parse_json_int)
        if type(doc) is not dict:
            raise ValueError(f"a field must be a JSON object, got {doc!r:.40}")
        grid = doc["grid"]
        if type(grid) is not list or not set(map(type, grid)) <= {dict}:
            raise ValueError(f"grid must be a list of axis objects, got {grid!r:.40}")
        axes = tuple(
            GridAxis(_json_value(a["name"], "name", str), _json_value(a["min"], "min"),
                     _json_value(a["max"], "max"), _json_value(a["count"], "count", int))
            for a in grid
        )
        # every entry is typed before the one float conversion, which takes numeric strings
        rows = doc["values"]
        all_pairs = set(map(type, rows)) <= {list} and set(map(len, rows)) <= {2}
        flat = list(itertools.chain.from_iterable(rows)) if all_pairs else []
        if not all_pairs or not set(map(type, flat)) <= {int, float}:
            raise ValueError("values must be a list of [re, im] pairs of JSON numbers")
        try:
            values = np.array(flat, dtype=float).view(complex)
        except OverflowError:
            raise ValueError("values must be a list of [re, im] pairs of JSON numbers in the double range") from None
        params = None
        if "params" in doc:
            p = doc["params"]
            if type(p["gamma"]) is not list or len(p["gamma"]) != 2:
                raise ValueError(f"gamma must be an [re, im] pair of JSON numbers, got {p['gamma']!r:.40}")
            params = KernelParams(
                s=_json_value(p["s"], "s"),
                tau=_json_value(p["tau"], "tau"),
                gamma=complex(*(_json_value(part, "gamma") for part in p["gamma"])),
                n=_json_value(p["n"], "n", int),
            )
        kernel = _json_value(doc.get("kernel", ""), "kernel", str)
        return cls(grid=GridSpec(axes), values=values, kernel=kernel, params=params)

    @classmethod
    def from_csv(cls, path) -> "FieldSample":
        """Rebuild a sample from CSV written by :meth:`to_csv_text`.

        Axis structure is recovered from the row-major coordinate columns;
        kernel/params metadata is not stored in CSV and stays empty.  A file
        without a data row right after its header, or with rows narrower or
        wider than the header, is a ValueError.
        """
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip().split(",")
            if header[-2:] != ["re", "im"]:
                raise ValueError(f"CSV must end with re,im columns, got {header}")
            start = fh.tell()
            if not fh.readline().strip():
                raise ValueError("CSV has no data row after its header")
            fh.seek(start)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"CSV rows have {data.shape[1]} columns, the header {','.join(header)} has {len(header)}")
        names = header[:-2]
        axes = []
        for k, name in enumerate(names):
            col = data[:, k]
            uniq = col[np.sort(np.unique(col, return_index=True)[1])]
            axes.append(GridAxis(name, float(uniq[0]), float(uniq[-1]), len(uniq)))
        grid = GridSpec(tuple(axes))
        if grid.size != data.shape[0]:
            raise ValueError("CSV rows do not form a full row-major rectangular grid")
        coords = grid.coordinates()
        for k, name in enumerate(names):
            if not np.array_equal(coords[name], data[:, k]):
                raise ValueError("CSV rows are not in row-major grid order")
        return cls(grid=grid, values=data[:, -2] + 1j * data[:, -1])


def _distinct_strings(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """"%.17g" of each distinct double of complex `values`, and the index of every Re and Im into them.

    Doubles are told apart by their bits, so -0.0 and 0.0 keep "-0" and "0".  The
    strings are 24-byte ASCII, the longest "%.17g" writes, padded with NULs, which
    the array's bytes drop; the index takes the smallest unsigned integer type.
    :func:`_format_17g` makes them _WRITE_CHUNK_ROWS at a time, so its temporaries
    stay bounded.  It takes the digits from a double-double product with a power of
    ten, int64 division and a digit table, and leaves to "%.17g" itself a product
    within _TIE_MARGIN of a rounding tie, zeros, subnormals and |x| outside
    [_FAST_MIN, _FAST_MAX).
    """
    bits, index = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
    # narrowed first, so the int64 index is gone before the strings are made
    index = index.astype(np.min_scalar_type(len(bits)))
    strings = np.zeros(len(bits), dtype="S24")
    rows = strings.view(np.uint8).reshape(-1, 24)
    for lo in range(0, len(bits), _WRITE_CHUNK_ROWS):
        _format_17g(bits[lo:lo + _WRITE_CHUNK_ROWS].view(float), rows[lo:lo + _WRITE_CHUNK_ROWS])
    return strings, index


def _format_17g(x: np.ndarray, out: np.ndarray) -> int:
    """Write "%.17g" of each double of `x` into its row of `out`, a zeroed (len(x), 24) uint8 array;
    return how many rows "%.17g" itself wrote.

    :func:`_significand` gives the 17 significant digits as an integer and the decimal exponent
    k, and :func:`_ascii_digits` the digits' ASCII.  C's %g rules lay them out: fixed notation
    for k in -4..16, d.ddd...e+XX otherwise, with trailing zeros and a bare "." dropped.  One
    slice copy per run of equal sign and layout places them, so sorted input, such as
    np.unique's, takes few copies.  "%.17g" itself formats the rest: a product within
    _TIE_MARGIN of a rounding tie, such as an exact decimal tie, which it rounds half to even;
    zeros and subnormals; and |x| outside [_FAST_MIN, _FAST_MAX).
    """
    d, k, fast = _significand(x)
    digits = _ascii_digits(d)
    exponents = _format_tables()[2]
    exp = (k < -4) | (k > 16)
    # the mantissa of d.ddde+XX is laid out as fixed notation at k = 0
    fixed_k = np.where(exp, 0, k)
    neg = np.signbit(x)
    key = 2 * fixed_k + neg + 64 * exp
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(x)]
    for lo, hi in itertools.pairwise(bounds):
        f, sign = int(fixed_k[lo]), int(neg[lo])
        # the integer part is digits[start:point]: the padding's "0" when k < 0
        start, point = 7 + min(f, 0), 8 + f
        dot = sign + point - start
        out[lo:hi, :sign] = ord("-")
        out[lo:hi, sign:dot] = digits[lo:hi, start:point]
        out[lo:hi, dot] = ord(".")
        out[lo:hi, dot + 1:dot + 25 - point] = digits[lo:hi, point:]
        if exp[lo]:
            out[lo:hi, dot + 17:dot + 22] = exponents[k[lo:hi] - _POW10_EXPONENTS.start]
    # every digit, the point and the exponent are written; only rows whose last digit is 0, or
    # at k = 16 whose point ends them, are cut short
    cut = np.flatnonzero((digits[:, 23] == ord("0")) | (fixed_k == 16))
    if cut.size:
        cut_k = fixed_k[cut]
        significant = 17 - np.argmax(digits[cut, :6:-1] != ord("0"), axis=1)
        fraction = np.maximum(significant - 1 - cut_k, 0)
        length = neg[cut] + 1 + np.maximum(cut_k, 0) + (fraction > 0) * (fraction + 1)
        out[cut] *= np.arange(24) < length[:, np.newaxis]
        e = cut[exp[cut]]
        at = length[exp[cut], np.newaxis] + np.arange(5)
        out[e[:, np.newaxis], at] = exponents[k[e] - _POW10_EXPONENTS.start]

    slow = np.flatnonzero(~fast)
    if slow.size:
        # "%.17g" writes no space, so the spaces of "%-24.17g" are all padding
        text = ("%-24.17g" * len(slow) % tuple(x[slow].tolist())).encode("ascii").replace(b" ", b"\0")
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    return slow.size


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, fast) for doubles x: D = round(|x| * 10**(16-k)) in [1e16, 1e17) and k = floor(log10|x|),
    where `fast` marks the |x| in [_FAST_MIN, _FAST_MAX) whose product is not within _TIE_MARGIN of a tie.

    :func:`_times_pow10` forms the product as a double-double, and np.log10's k moves by one where
    the product falls outside [1e16, 1e17).  D = 1e17 is 1e16 at k + 1.
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    # a stand-in keeps log10 and the table in range; "%.17g" rewrites these rows
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    ph, rest = _times_pow10(a, k)
    # np.log10 can be one off next to a power of ten.  A product within ~1e-14 of 1e16 or 1e17 may
    # land on either side of it, and both sides give the same digits
    shift = ((ph > 1e17) | ((ph == 1e17) & (rest >= 0))).astype(np.int64)
    shift -= (ph < 1e16) | ((ph == 1e16) & (rest < 0))
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        ph[moved], rest[moved] = _times_pow10(a[moved], k[moved])
    # ph, at least 1e16, is an integer: D is ph plus rest rounded to nearest
    whole = np.floor(rest)
    rest -= whole
    fast &= np.abs(rest - 0.5) >= _TIE_MARGIN
    d = ph.astype(np.int64)
    d += whole.astype(np.int64)
    d += rest > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    return d, k, fast


def _ascii_digits(d: np.ndarray) -> np.ndarray:
    """A (len(d), 24) uint8 array: seven "0"s, then the 17 ASCII digits of each D in [1e16, 1e17).

    Int64 division splits D into the first digit and four groups of four, and a table gives the
    four ASCII digits of each group.
    """
    # the groups "0000", "000" and the first digit, then the other 16 digits in four
    groups = np.zeros((len(d), 6), np.int64)
    high = d // 10**8
    low = d - high * 10**8
    groups[:, 1] = high // 10**8
    high -= groups[:, 1] * 10**8
    groups[:, 2] = high // 10**4
    groups[:, 3] = high - groups[:, 2] * 10**4
    groups[:, 4] = low // 10**4
    groups[:, 5] = low - groups[:, 4] * 10**4
    return _format_tables()[1].take(groups).view(np.uint8)


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16-k) as ph + rest: ph the rounded product, rest what it lacks, to ~1e-14 where ph < 2**57.

    With 10**(16-k) = hi + lo from the table, Dekker's product gives a * hi - ph exactly, and
    a * lo adds the part of the power that hi lacks.  The sums run in Dekker's order, in place.
    """
    hi, top, bottom, lo = _format_tables()[0]
    j = k - _POW10_EXPONENTS.start
    a_top = _top_half(a)
    a_bottom = a - a_top
    ph = a * hi[j]
    top, bottom = top[j], bottom[j]
    rest = a_top * top
    rest -= ph
    rest += a_top * bottom
    rest += a_bottom * top
    rest += a_bottom * bottom
    rest += a * lo[j]
    return ph, rest


def _top_half(a: np.ndarray) -> np.ndarray:
    """Positive normal doubles rounded to their top 26 significand bits; a - _top_half(a) needs at most 26.

    Dekker's split, on the bit pattern: his multiply by 2**27 + 1 would overflow above ~1e300.
    """
    return ((a.view(np.int64) + (1 << 26)) & -(1 << 27)).view(float)


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of _format_17g, built on its first call, not at import.

    For each k in _POW10_EXPONENTS: 10**(16-k) as the doubles hi + lo, and hi's two _top_half
    parts, in rows hi, top, bottom, lo; and "e%+03d" % k as 5 NUL-padded bytes.  Also the four
    ASCII digits of each of 0..9999 as one uint32.  hi is 10**(16-k) rounded to a double and lo
    the rest, rounded; both are quotients of Python integers, which CPython rounds correctly.
    """
    hi, lo = [], []
    for k in _POW10_EXPONENTS:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    top = _top_half(hi)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    four = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    exponents = np.frombuffer(b"".join((b"e%+03d" % k).ljust(5, b"\0") for k in _POW10_EXPONENTS), np.uint8)
    return np.array([hi, top, hi - top, lo]), four.view(np.uint32).ravel(), exponents.reshape(-1, 5)


def _json_value(value, name: str, kind: type = float):
    """A JSON field as `kind`: float takes integer and float tokens, int only integer tokens, str only
    strings; any other value, or an integer past the double range, is a ValueError naming the field."""
    types, label = {float: ((int, float), "number"), int: ((int,), "integer"), str: ((str,), "string")}[kind]
    if type(value) not in types:
        raise ValueError(f"{name} must be a JSON {label}, got {value!r:.40}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{name} exceeds the double range") from None


def _parse_json_int(token: str) -> int | float:
    """A JSON integer; "%.17g" writes -0.0 as "-0", which stays the float -0.0."""
    return -0.0 if token == "-0" else int(token)


_KERNEL_FUNCS = {
    "rho-hat": rho_hat,
    "rho-tilde": rho_tilde,
    "heat-kernel": heat_kernel_h,
}

KERNEL_NAMES = tuple(_KERNEL_FUNCS)


def _component_names(base: str, n: int) -> list[str]:
    return [base] if n == 1 else [f"{base}{j}" for j in range(1, n + 1)]


def _component_blocks(grid: GridSpec, bases, n: int, extra=()) -> tuple[dict, list[np.ndarray]]:
    """The grid's coordinates and one (size, n) block per base, 0 where a component has no axis.

    Before any name or coordinate is built, grid.size * n past _MAX_WORK is a
    ValueError naming the sizes; then an axis naming neither a component nor
    one of `extra` is GridMismatchError.
    """
    if grid.size * n > _MAX_WORK:
        raise ValueError(f"{grid.size} grid points x n = {n} is {grid.size * n}, past the work bound {_MAX_WORK}")
    names = [_component_names(base, n) for base in bases]
    allowed = set(extra).union(*names)
    for ax in grid.axes:
        if ax.name not in allowed:
            raise GridMismatchError(f"axis {ax.name!r} is not one of {sorted(allowed)} at n={n}")
    coords = grid.coordinates()
    return coords, [np.stack([coords.get(c, np.zeros(grid.size)) for c in comps], axis=-1) for comps in names]


def evaluate_on_grid(kernel: str, params: KernelParams, grid: GridSpec) -> FieldSample:
    """Evaluate a named kernel at every grid point, row-major over the axes.

    Grid axes may cover any subset of the kernel's spatial components,
    named after its spatial arguments (with 1..n suffixes for n > 1), plus
    "s" and "tau"; spatial components without an axis are held at 0, and
    s/tau axes override the values in `params` pointwise.  Every grid takes
    one kernel call.  Unknown axis names raise GridMismatchError.
    """
    if kernel not in _KERNEL_FUNCS:
        raise GridMismatchError(f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}")
    # inspect.signature follows __wrapped__, so a wrapped table entry keeps these names
    bases = tuple(inspect.signature(_KERNEL_FUNCS[kernel]).parameters)[1:]
    coords, blocks = _component_blocks(grid, bases, params.n, extra=("s", "tau"))
    point_params = replace(params, s=coords.get("s", params.s), tau=coords.get("tau", params.tau))
    values = _KERNEL_FUNCS[kernel](point_params, *blocks)
    return FieldSample(grid=grid, values=values, kernel=kernel, params=params)
