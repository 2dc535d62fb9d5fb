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
the kernels need, elementwise over arrays, on one path: both branches run
on every element and one threshold picks per element, a Taylor expansion
in z = s*tau, cut after the z**2 terms, where |z| < TAYLOR_BRANCH_THRESHOLD,
the closed forms elsewhere.  At the threshold both branches agree to
~1e-15 relative.  Of the kernels only rho_hat uses A and B.  Every exponent
has one form, const - envelope*sq + twist*cross with a signed twist
coefficient, assembled in log space in one complex buffer and
exponentiated once in place, so large |s*tau|*n underflows gracefully to 0
and the real power cosh(s*tau/2)**(n/2) never touches a complex branch cut
(gamma enters only through the exponential).  Arguments so far in the
tails that sq overflows give exactly 0, without a warning.

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

# rows per filled template of the CSV and JSON writers: bounds the template, value
# tuple and formatted chunk held at once, whatever the length of the grid's last axis
_WRITE_CHUNK_ROWS = 4096


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
    log_tau_over_sinh = _LOG_4 - np.log(s) + np.log(p)
    envelope = (1.0 + z2 / 48.0) / s
    return a, b, log_tau_over_sinh, envelope


def _coefficients_direct(s, tau):
    """Closed-form branch of coefficients_ab, overflow-free for |s*tau| > 0 but for the envelope ~1/s."""
    w = np.abs(s * tau)
    a = np.tanh(0.5 * s * tau) / tau
    # 2*sinh^2(z/4)/cosh(z/2) = expm1(-|z|/2)^2 / (1 + e^-|z|)
    b = np.expm1(-0.5 * w) ** 2 / ((1.0 + np.exp(-w)) * tau)
    log_sinh_quarter = 0.25 * w + np.log(-np.expm1(-0.5 * w)) - _LOG_2
    envelope = 0.25 * np.abs(tau) / np.tanh(0.25 * w)
    return a, b, np.log(np.abs(tau)) - log_sinh_quarter, envelope


def coefficients_ab(s, tau):
    """Every coefficient the kernels use, elementwise over broadcast s and tau arrays.

    Returns the tuple (A, B, log cosh(s*tau/2), log(tau/sinh(s*tau/4)),
    (tau/4)*coth(s*tau/4)) with A = sinh(s*tau/2)/(tau*cosh(s*tau/2)) and
    B = 2*sinh(s*tau/4)**2/(tau*cosh(s*tau/2)).  Elements with
    |s*tau| < TAYLOR_BRANCH_THRESHOLD take the Taylor expansions in s*tau
    (relative error < 1e-14), which settle the removable singularity:
    A(s, 0) = s/2, B(s, 0) = 0, tau/sinh(s*tau/4) -> 4/s,
    (tau/4)*coth(s*tau/4) -> 1/s.  The last two are formed from their own
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
    log_cosh = 0.5 * w + np.log1p(np.exp(-w)) - _LOG_2
    small = w < TAYLOR_BRANCH_THRESHOLD
    # both branches run on every element and np.where keeps one per element.  A warning
    # silenced here comes from the branch not picked, or is one of the +inf above: the
    # limits at s = 0, or the envelope ~1/s past the double range at subnormal s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        series = _coefficients_series(s, tau)
        direct = _coefficients_direct(s, tau)
    a, b, log_tau_over_sinh, envelope = (np.where(small, ser, dire)[()] for ser, dire in zip(series, direct))
    return a, b, log_cosh, log_tau_over_sinh, envelope


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def _components(n: int, **args) -> list[np.ndarray]:
    """Coerce the spatial arguments of one kernel call to shape (..., n).

    For n == 1 the last axis is the component axis only when every
    non-scalar argument ends in length 1; otherwise every argument is taken
    elementwise and gains a trailing component axis.
    """
    arrays = {name: np.asarray(a, dtype=float) for name, a in args.items()}
    elementwise = n == 1 and any(a.ndim and a.shape[-1] != 1 for a in arrays.values())
    coerced = [a[..., np.newaxis] if elementwise or a.ndim == 0 else a for a in arrays.values()]
    for name, a in zip(arrays, coerced):
        if a.shape[-1] != n:
            raise ValueError(f"{name} must have {n} components along the last axis, got shape {a.shape}")
    return coerced


def _overflow(what: str, params: KernelParams) -> KernelOverflowError:
    return KernelOverflowError(
        f"{what} exceeds the double range at gamma={params.gamma}, s={params.s}, tau={params.tau}"
    )


def _scalar_params(caller: str, *params: KernelParams):
    """ValueError naming s, tau or gamma when one of them is not a scalar."""
    for name, value in ((key, getattr(p, key)) for p in params for key in ("s", "tau", "gamma")):
        if np.ndim(value) != 0:
            raise ValueError(f"{caller} needs a scalar {name}, got shape {np.shape(value)}")


def _tails():
    """errstate for the far tails, where a square overflows to inf and 0*inf is NaN; _exp_kernel settles both."""
    return np.errstate(over="ignore", invalid="ignore")


def _exp_kernel(params: KernelParams, const, envelope, sq, twist, cross):
    """exp(const - envelope*sq + twist*cross), a complex for 0-d input.

    One complex buffer holds the exponent and is exponentiated in place.  It
    starts as twist * cross, and the real and imaginary parts of
    const - envelope*sq are added into it: the IEEE operations of that
    expression, zero signs included.  The twist coefficient carries its sign.
    Where an infinite sq or cross leaves a NaN, a zero coefficient
    contributes 0 and a decay envelope*sq of +inf makes the value exactly 0;
    an infinite phase at a finite decay is KernelOverflowError, as is a
    value past the double range, whose message reads const - envelope*sq,
    the exponent's real part up to a zero.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in (const, envelope, sq, twist, cross)))
    expo = np.empty(shape, dtype=complex)
    with _tails():
        np.multiply(twist, cross, out=expo)
        log_modulus = np.real(const) - envelope * sq
        np.add(log_modulus, expo.real, out=expo.real)
        np.add(np.imag(const), expo.imag, out=expo.imag)
    nan = np.isnan(expo)
    if nan.any():
        c, e, q, tw, cr = (np.broadcast_to(v, shape)[nan] for v in (const, envelope, sq, twist, cross))
        with _tails():
            decay = np.where(e == 0, 0.0, e * q)
            settled = np.where(decay == np.inf, -np.inf, c - decay + np.where(tw == 0, 0.0, tw * cr))
        if np.isnan(settled).any():
            raise _overflow("the kernel's phase twist*cross", params)
        expo[nan] = settled
    try:
        with np.errstate(over="raise"):
            np.exp(expo, out=expo)
    except FloatingPointError:
        raise _overflow(f"kernel value (log|value| up to {np.nanmax(log_modulus):.6g})", params) from None
    return complex(expo) if expo.ndim == 0 else expo


def rho_hat(params: KernelParams, alpha, beta):
    """Spatial Fourier transform of the fundamental solution.

    Returns e**(-gamma*s*tau/4) * cosh(s*tau/2)**(-n/2)
        * exp(-A*(|alpha|^2+|beta|^2)/2 + i*B*alpha.beta).

    At s = 0 this is identically 1 (transform of the delta distribution); at
    tau = 0 it reduces to the Gaussian exp(-s*(|alpha|^2+|beta|^2)/4).
    """
    a, b = _components(params.n, alpha=alpha, beta=beta)
    a_c, b_c, log_cosh, _, _ = coefficients_ab(params.s, params.tau)
    with _tails():
        sq = np.sum(a * a, axis=-1) + np.sum(b * b, axis=-1)
        dot = np.sum(a * b, axis=-1)
    const = -params.gamma * params.s * params.tau / 4.0 - 0.5 * params.n * log_cosh
    return _exp_kernel(params, const, 0.5 * a_c, sq, 1j * b_c, dot)


def _coth_sinh_coefficients(caller: str, params: KernelParams):
    """log(tau/sinh(s*tau/4)) and the envelope (tau/4)*coth(s*tau/4); the one s > 0 and finite-envelope guard."""
    if (np.asarray(params.s) <= 0).any():
        raise ValueError(f"{caller} requires s > 0, got s={params.s}")
    _, _, _, log_tau_over_sinh, envelope = coefficients_ab(params.s, params.tau)
    if not np.isfinite(envelope).all():
        raise _overflow("the Gaussian envelope (tau/4)*coth(s*tau/4)", params)
    return log_tau_over_sinh, envelope


def _coth_sinh_kernel(caller: str, params: KernelParams, u, v, w):
    """H's closed form in u = x-x', v = y-y' and w = y+y'; rho_tilde is u = x, v = w = y."""
    log_tau_over_sinh, envelope = _coth_sinh_coefficients(caller, params)
    const = -params.gamma * params.s * params.tau / 4.0 + params.n * (log_tau_over_sinh - _LOG_4PI)
    with _tails():
        r2 = np.sum(u * u, axis=-1) + np.sum(v * v, axis=-1)
        cross = np.sum(u * w, axis=-1)
    return _exp_kernel(params, const, envelope, r2, -0.5j * params.tau, cross)


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
    return _coth_sinh_kernel("rho_tilde", params, xv, yv, yv)


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
    xs, ys, xf, yf = _components(params.n, xp=xp, yp=yp, x=x, y=y)
    with _tails():
        u, v, w = xf - xs, yf - ys, yf + ys
    return _coth_sinh_kernel("heat_kernel_h", params, u, v, w)


def apply_kernel(params: KernelParams, nodes, weights, values, x, y) -> np.ndarray:
    """H[f](s, x, y) = sum over a tensor rule of w * H(s, x', y', x, y) * f(x', y').

    nodes and weights are 2n one-dimensional arrays, one per source axis in
    the order x'_1..x'_n, y'_1..y'_n; values holds f on their row-major mesh
    (any shape with the mesh's size).  x and y are the m output points, of
    shape (m, n); s, tau and gamma must be scalars.  Returns the m sums.

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
    log_tau_over_sinh, envelope = _coth_sinh_coefficients("apply_kernel", params)
    # each component is the n = 1 kernel with gamma/n
    log_c = -params.gamma * params.s * params.tau / (4.0 * n) + log_tau_over_sinh - _LOG_4PI
    t = 0.5 * params.tau
    sparse = np.meshgrid(*nodes, indexing="ij", sparse=True)
    coupling = sum(sparse[c] * sparse[n + c] for c in range(n))
    wmesh = functools.reduce(np.multiply.outer, weights)
    g = (wmesh * np.reshape(values, wmesh.shape) * np.exp(1j * t * coupling)).reshape(len(nodes[0]), -1)
    x, y = np.reshape(x, (-1, n)), np.reshape(y, (-1, n))
    out = np.empty(len(x), dtype=complex)
    chunk = _APPLY_CHUNK_MESHES * len(nodes[0])
    for lo in range(0, len(x), chunk):
        xc, yc = x[lo:lo + chunk].T[..., np.newaxis], y[lo:lo + chunk].T[..., np.newaxis]
        # P for x'_1..x'_n, then Q for y'_1..y'_n: the mesh's axis order.  Every factor is
        # exponentiated before the GEMM: right after OpenBLAS's zgemm the complex exp ran
        # ~20x slower (AVX-SSE transition penalty, x86-64), and numpy's own array arithmetic
        # clears that state again.
        with _tails():
            factors = (
                [_exp_kernel(params, log_c, envelope, (xc[c] - nodes[c]) ** 2, 1j * t, yc[c] * nodes[c])
                 for c in range(n)]
                + [_exp_kernel(params, 0.0, envelope, (yc[c] - nodes[n + c]) ** 2, -1j * t,
                               xc[c] * (yc[c] + nodes[n + c]))
                   for c in range(n)]
            )
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
        return int(np.prod([ax.count for ax in self.axes], dtype=np.int64))

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

        Each axis point is formatted once.  Per chunk of the last axis, one
        template holds its rows' coordinates and "%.17g" slots for Re and Im;
        per point of the leading axes its coordinates go in front of every
        row, and one % fills the template with the chunk's values.  Chunks
        hold at most _WRITE_CHUNK_ROWS rows, so memory beyond the output
        stays bounded for a long last axis.
        """
        *lead, last = self.grid.axes
        # each row starts with "\n", so a leading-axis point's coordinates go in by one replace
        tails = [
            (("\n%.17g,%%.17g,%%.17g" * len(piece)) % tuple(piece.tolist()), 2 * len(piece))
            for piece in np.split(last.points(), range(_WRITE_CHUNK_ROWS, last.count, _WRITE_CHUNK_ROWS))
        ]
        # a short last axis takes several of its runs per template, one when it spans several chunks
        runs = max(1, _WRITE_CHUNK_ROWS // last.count)
        heads = itertools.product(*(["%.17g," % v for v in ax.points().tolist()] for ax in lead))
        flat = np.ascontiguousarray(self.values).view(float)
        parts = [",".join([ax.name for ax in self.grid.axes] + ["re", "im"])]
        lo = 0
        while starts := ["\n" + "".join(head) for head in itertools.islice(heads, runs)]:
            for tail, width in tails:
                hi = lo + width * len(starts)
                template = "".join([tail.replace("\n", start) for start in starts])
                parts.append(template % tuple(flat[lo:hi].tolist()))
                lo = hi
        parts.append("\n")
        return "".join(parts)

    def to_json_text(self) -> str:
        """Serialize with every float rendered at 17 significant digits."""
        parts = ['{\n  "kernel": ' + json.dumps(self.kernel)]
        if self.params is not None:
            p = self.params
            parts.append(
                '  "params": {"s": %s, "tau": %s, "gamma": [%s, %s], "n": %d}'
                % (_fmt(p.s), _fmt(p.tau), _fmt(p.gamma.real), _fmt(p.gamma.imag), p.n)
            )
        axes = ", ".join(
            '{"name": %s, "min": %s, "max": %s, "count": %d}'
            % (json.dumps(ax.name), _fmt(ax.lo), _fmt(ax.hi), ax.count)
            for ax in self.grid.axes
        )
        parts.append('  "grid": [%s]' % axes)
        parts.append('  "values": [')
        # one % per chunk of _WRITE_CHUNK_ROWS pairs; the final join copies the values text once
        flat = np.ascontiguousarray(self.values).view(float)
        vals = ", ".join(
            ", ".join(["[%.17g, %.17g]"] * (len(piece) // 2)) % tuple(piece.tolist())
            for piece in np.split(flat, range(2 * _WRITE_CHUNK_ROWS, len(flat), 2 * _WRITE_CHUNK_ROWS))
        )
        return "".join([",\n".join(parts), vals, "]\n}\n"])

    @classmethod
    def from_json(cls, path) -> "FieldSample":
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh, parse_int=_parse_json_int)
        axes = tuple(
            GridAxis(a["name"], float(a["min"]), float(a["max"]), int(a["count"]))
            for a in doc["grid"]
        )
        # every entry is typed before the one float conversion, which takes numeric strings
        rows = doc["values"]
        all_pairs = set(map(type, rows)) <= {list} and set(map(len, rows)) <= {2}
        flat = list(itertools.chain.from_iterable(rows)) if all_pairs else []
        if not all_pairs or not set(map(type, flat)) <= {int, float}:
            raise ValueError("values must be a list of [re, im] pairs of JSON numbers")
        values = np.array(flat, dtype=float).view(complex)
        params = None
        if "params" in doc:
            p = doc["params"]
            params = KernelParams(
                s=float(p["s"]),
                tau=float(p["tau"]),
                gamma=complex(p["gamma"][0], p["gamma"][1]),
                n=int(p["n"]),
            )
        return cls(grid=GridSpec(axes), values=values, kernel=doc.get("kernel", ""), params=params)

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


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


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


def _component_blocks(coords, size: int, bases, n: int) -> list[np.ndarray]:
    """One (size, n) block per base from grid coordinates; components without an axis are 0."""
    return [
        np.stack([coords.get(name, np.zeros(size)) for name in _component_names(base, n)], axis=-1)
        for base in bases
    ]


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
    allowed = {"s", "tau"}
    for base in bases:
        allowed.update(_component_names(base, params.n))
    for ax in grid.axes:
        if ax.name not in allowed:
            raise GridMismatchError(
                f"axis {ax.name!r} is not consumed by kernel {kernel!r} at n={params.n} "
                f"(allowed: {sorted(allowed)})"
            )

    coords = grid.coordinates()
    blocks = _component_blocks(coords, grid.size, bases, params.n)
    point_params = replace(params, s=coords.get("s", params.s), tau=coords.get("tau", params.tau))
    values = _KERNEL_FUNCS[kernel](point_params, *blocks)
    return FieldSample(grid=grid, values=values, kernel=kernel, params=params)
