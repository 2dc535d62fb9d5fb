"""Command-line front end.

Subcommands:

    eval        evaluate a named kernel on a rectangular grid, write CSV/JSON
    apply       apply the twisted heat kernel to a sampled function
    verify      run one of the verification suites, write a JSON report
    identities  check the cosh/sinh simplification identities and the
                twist factorization over a parameter sweep

Exit codes: 0 success, 1 verification failure, 2 invalid input (any
ValueError, so the library's own parameter, grid and field checks report
it), 3 I/O failure.  Output files are written to a temporary name and
renamed on success, so no partial files survive a failure.  All default
panels are fixed; randomness enters only through an explicit --seed flag.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

import numpy as np

from . import verify
from .kernels import (
    KERNEL_NAMES,
    FieldSample,
    GridAxis,
    GridSpec,
    KernelParams,
    _component_blocks,
    _component_names,
    apply_kernel,
    coefficients_ab,
    evaluate_on_grid,
    heat_kernel_h,
    rho_tilde,
)

OUTPUT_DIR_ENV = "HEISENHEAT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

IDENTITY_TOLERANCE = 1e-12

# seeded twist panel: points drawn by default and at most (one kernel call over all of them)
DEFAULT_TWIST_POINTS = 16
MAX_TWIST_POINTS = 100_000

# fixed default panel for the twist-factorization check (no RNG by default);
# one row (s, tau, x', y', x, y) per point
_TWIST_POINTS = (
    (1.0, 1.0, 0.3, -0.4, 1.2, 0.8),
    (0.5, -2.0, -1.6, 0.4, 0.7, -1.3),
    (2.0, 0.5, 0.0, 0.0, 1.9, -0.7),
    (1.5, -0.5, 0.5, 0.5, -0.5, 1.1),
    (0.25, 3.0, -0.8, 1.3, 0.6, 0.2),
)


def _parse_gamma(text: str) -> complex:
    """Parse gamma in a+bi form (also plain reals, bare 'i', '1+i', '-i')."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    # complex() wants an explicit coefficient on the imaginary unit
    cleaned = re.sub(r"(?<![\d.])j", "1j", cleaned)
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse gamma {text!r}; expected a+bi form") from exc


def _parse_axis(text: str) -> GridAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"axis {text!r} must have the form name:min:max:count")
    name, lo, hi, count = parts
    try:
        return GridAxis(name=name, lo=float(lo), hi=float(hi), count=int(count))
    except ValueError as exc:
        raise ValueError(f"bad axis {text!r}: {exc}") from exc


def _params_from_args(args) -> KernelParams:
    if args.boxb_q is None:
        gamma = 0j if args.gamma is None else _parse_gamma(args.gamma)
        return KernelParams(s=args.s, tau=args.tau, gamma=gamma, n=args.n)
    if args.gamma is not None:
        raise ValueError("--gamma and --boxb-q are mutually exclusive")
    return KernelParams.for_box_b(s=args.s, tau=args.tau, n=args.n, q=args.boxb_q)


def _resolve_output(path: str | None, default_name: str) -> str:
    if path is None:
        return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)
    return path


def _atomic_write_text(path: str, text: str) -> None:
    """Write text to a temporary file renamed to path; an OSError of the write names path."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".heisenheat-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_field(sample: FieldSample, args, default_name: str, summary: str) -> int:
    """Write sample to --output (default_name in the output dir) and print a summary line."""
    out = _resolve_output(args.output, default_name)
    text = sample.to_json_text() if args.format == "json" else sample.to_csv_text()
    _atomic_write_text(out, text)
    moduli = np.abs(sample.values)
    print(f"{summary}, |value| in [{moduli.min():.6e}, {moduli.max():.6e}] -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    params = _params_from_args(args)
    grid = GridSpec(tuple(_parse_axis(a) for a in args.axis))
    sample = evaluate_on_grid(args.kernel, params, grid)
    shape = "x".join(str(ax.count) for ax in grid.axes)
    summary = f"{args.kernel}: {shape} grid ({grid.size} points)"
    return _write_field(sample, args, f"{args.kernel}.{args.format}", summary)


def _load_field(path: str) -> FieldSample:
    if not os.path.exists(path):
        raise ValueError(f"input field {path!r} does not exist")
    try:
        if path.endswith(".csv"):
            return FieldSample.from_csv(path)
        return FieldSample.from_json(path)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"cannot load field sample {path!r}: the file is not ASCII (byte {byte:#x})") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot load field sample {path!r}: {exc}") from exc


def _trapezoid_weights(axis: GridAxis) -> np.ndarray:
    """Trapezoid weights of a GridAxis: its own step (max - min)/(count - 1), halved at both ends."""
    if axis.count < 2:
        raise ValueError(f"apply requires at least 2 points per input axis, axis {axis.name} has 1")
    w = np.full(axis.count, (axis.hi - axis.lo) / (axis.count - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _cmd_apply(args) -> int:
    params = _params_from_args(args)
    field_in = _load_field(args.input)
    if field_in.params is not None and field_in.params.n != params.n:
        raise ValueError(f"input header n = {field_in.params.n} does not match --n {params.n}")
    names = [ax.name for ax in field_in.grid.axes]
    # the expected names are built only when the input has as many axes, 2n
    if len(names) != 2 * params.n or names != _component_names("x", params.n) + _component_names("y", params.n):
        raise ValueError(f"input grid axes {names} do not match the 2n axes x.., y.. of n = {params.n}")
    out_grid = GridSpec(tuple(_parse_axis(a) for a in args.axis))
    _, (x, y) = _component_blocks(out_grid, ("x", "y"), params.n)
    axis_points = [ax.points() for ax in field_in.grid.axes]
    weights = [_trapezoid_weights(ax) for ax in field_in.grid.axes]
    out_vals = apply_kernel(params, axis_points, weights, field_in.values, x, y)
    sample = FieldSample(grid=out_grid, values=out_vals, kernel="heat-kernel-apply", params=params)
    summary = f"heat-kernel-apply: {out_grid.size} points"
    return _write_field(sample, args, f"apply.{args.format}", summary)


def _emit_report(report: dict, out: str | None) -> int:
    """Print one line per check, write the report to out when given, map it to an exit code."""
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['check']}: worst={check['worst']} tolerance={check['tolerance']}")
    verdict = f"suite {report['suite']}: {'pass' if report['passed'] else 'FAIL'}"
    if out is not None:
        _atomic_write_text(out, json.dumps(report, indent=2) + "\n")
        verdict += f" -> {out}"
    print(verdict)
    return EXIT_OK if report["passed"] else EXIT_SUITE_FAILURE


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite)
    return _emit_report(report, _resolve_output(args.report, f"verify_{args.suite}.json"))


def _identities_sweep() -> dict:
    """Max relative deviation of B/(A^2+B^2) = tau/2 and A/B = coth(s*tau/4) over s in (0, 10],
    |tau| <= 10, with A and B as coefficients_ab computes them, independently of each other."""
    s_vals = 10.0 * (np.arange(32) + 1) / 32.0
    tau_vals = np.concatenate([-10.0 * (np.arange(16) + 1) / 16.0, 10.0 * (np.arange(16) + 1) / 16.0])
    s, tau = np.meshgrid(s_vals, tau_vals, indexing="ij")
    a, b, _, _, _ = coefficients_ab(s, tau)
    ratio_b, ratio_ab = b / (a ** 2 + b ** 2), a / b
    expect_b = tau / 2.0
    expect_ab = np.cosh(s * tau / 4.0) / np.sinh(s * tau / 4.0)
    return {
        "ratio-b-vs-half-tau": float(np.max(np.abs(ratio_b - expect_b) / np.abs(expect_b))),
        "ratio-ab-vs-coth": float(np.max(np.abs(ratio_ab - expect_ab) / np.abs(expect_ab))),
    }


def _twist_factorization(points) -> float:
    s, tau, xp, yp, x, y = np.asarray(points, dtype=float).T
    params = KernelParams(s=s, tau=tau, gamma=0.3 + 0.1j, n=1)
    lhs = heat_kernel_h(params, xp, yp, x, y)
    rhs = rho_tilde(params, x - xp, y - yp) * np.exp(-1j * tau * (x - xp) * yp)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


def _identity_checks(points) -> list[dict]:
    worst = {**_identities_sweep(), "twist-factorization": _twist_factorization(points)}
    return [verify._check(name, value, IDENTITY_TOLERANCE) for name, value in worst.items()]


def _cmd_identities(args) -> int:
    points = _TWIST_POINTS
    if args.seed is None and args.points is not None:
        raise ValueError("--points needs --seed; the default twist panel is fixed")
    if args.seed is not None:
        count = DEFAULT_TWIST_POINTS if args.points is None else args.points
        if not 1 <= count <= MAX_TWIST_POINTS:
            raise ValueError(f"--points must be in [1, {MAX_TWIST_POINTS}], got {count}")
        # row-major, so the draws come point by point, each in column order
        points = np.random.default_rng(args.seed).uniform(
            (0.1, -3.0, -2, -2, -2, -2), (4.0, 3.0, 2, 2, 2, 2), size=(count, 6)
        )
    report = verify.build_report("identities", {"identities": lambda: _identity_checks(points)})
    return _emit_report(report, args.report)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_param_flags(parser):
    parser.add_argument("--s", type=float, required=True, help="heat time s")
    parser.add_argument("--tau", type=float, default=0.0, help="dual frequency tau")
    parser.add_argument("--gamma", type=str, default=None, help="complex parameter, a+bi form (default 0)")
    parser.add_argument("--n", type=int, default=1, help="complex dimension n")
    parser.add_argument(
        "--boxb-q",
        type=int,
        default=None,
        help="set gamma = n - 2q, 0 <= q <= n (Kohn Laplacian on (0,q)-forms); excludes --gamma",
    )
    parser.add_argument("--axis", action="append", default=[], metavar="NAME:MIN:MAX:COUNT")
    parser.add_argument("--output", default=None, help="output path (default from env dir)")
    parser.add_argument("--format", choices=("csv", "json"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenheat",
        description="Evaluate Heisenberg-group heat kernels and run their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a kernel on a grid")
    p_eval.add_argument("--kernel", required=True, choices=KERNEL_NAMES)
    _add_param_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_apply = sub.add_parser("apply", help="apply the heat kernel to a sampled function")
    p_apply.add_argument("--input", required=True, help="FieldSample path (json or csv)")
    _add_param_flags(p_apply)
    p_apply.set_defaults(func=_cmd_apply)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=verify.SUITE_NAMES)
    p_verify.add_argument("--report", default=None, help="JSON report path")
    p_verify.set_defaults(func=_cmd_verify)

    p_ident = sub.add_parser("identities", help="check the simplification identities")
    p_ident.add_argument("--seed", type=int, default=None, help="randomize the twist panel")
    p_ident.add_argument(
        "--points", type=int, default=None,
        help=f"random twist points with --seed (default {DEFAULT_TWIST_POINTS}, at most {MAX_TWIST_POINTS})",
    )
    p_ident.add_argument("--report", default=None, help="optional JSON report path")
    p_ident.set_defaults(func=_cmd_identities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
