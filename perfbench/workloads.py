"""The three workloads: seeded op lists, input set-up and output checks.

An op is one ``heisenheat`` command line, run in-process through
``heisenheat.cli.main``.  Each workload repeats a fixed cycle of op shapes
(kernel, dimension, grid size, file format); the seed draws the parameters
of every op (s, tau, gamma, grid extents and output windows), so every seed
does the same amount of work per cycle while the values change.

Every output is checked against the closed forms in ``oracle``, which share
no code with the package.  A check returns None when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

# eval-grid: |value - reference| <= EVAL_RTOL * |reference| + EVAL_ATOL pointwise
EVAL_RTOL = 1e-10
EVAL_ATOL = 1e-300
# apply-field: max |value - reference| <= APPLY_RTOL * max |reference|
APPLY_RTOL = 1e-11

_SPATIAL_BASES = {
    "rho-hat": ("alpha", "beta"),
    "rho-tilde": ("x", "y"),
    "heat-kernel": ("xp", "yp", "x", "y"),
}


@dataclass
class Op:
    argv: list
    work: int  # grid points written, input x output point pairs, or 1 report
    path: str
    spec: dict = field(default_factory=dict)


def _num(v: float) -> str:
    return repr(float(v))


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _gamma_flags(rng, n, boxb_share=0.25):
    """A seeded gamma: sometimes gamma = n - 2q via --boxb-q, else complex with |Re| <= n."""
    pick, u, v = rng.random(), rng.random(), rng.random()
    if pick < boxb_share:
        q = min(int(u * (n + 1)), n)
        return complex(n - 2 * q), [f"--boxb-q={q}"]
    g = complex(n * (2.0 * u - 1.0), 2.0 * (2.0 * v - 1.0))
    sign = "+" if g.imag >= 0 else "-"
    return g, [f"--gamma={_num(g.real)}{sign}{_num(abs(g.imag))}i"]


class Strata:
    """Seeded uniforms spread evenly over the cycles of a run.

    The k-th op of slot j takes its d-th uniform from the Kronecker sequence
    frac(offset[j, d] + k * sqrt(p_d)), p_d the d-th prime, with the offsets
    drawn from the seed.  Every seed then covers each parameter range evenly
    within a run, so the work per run varies far less between seeds than
    with independent draws, while the values still change with the seed.
    """

    _STEPS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0]) % 1.0

    def __init__(self, rng, slots):
        self._offsets = rng.random((slots, len(self._STEPS)))
        self._cycle = 0

    def next_cycle(self):
        """One stream of uniforms per slot for the next cycle."""
        k = self._cycle
        self._cycle += 1
        return [_Stream((row + k * self._STEPS) % 1.0) for row in self._offsets]


class _Stream:
    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return float(next(self._values))


def _axis_flag(name, lo, hi, count):
    return f"--axis={name}:{_num(lo)}:{_num(hi)}:{count}"


def _points(lo, hi, count):
    return np.array([lo]) if count == 1 else np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# reading outputs independently of the package
# ---------------------------------------------------------------------------

def read_field(path):
    """(header dict, values) from a JSON or CSV field file, parsed without the package.

    For CSV the header dict holds the column names and the coordinate
    columns; for JSON it is the document without its values.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        head, body = text.split("\n", 1)
        names = head.split(",")
        table = np.fromstring(body.replace("\n", ","), sep=",").reshape(-1, len(names))
        header = {"columns": names, "coords": {nm: table[:, k] for k, nm in enumerate(names[:-2])}}
        return header, table[:, -2] + 1j * table[:, -1]
    start = text.index('"values": [') + len('"values": [')
    end = text.rindex("]")
    header = json.loads(text[:start] + "]" + text[end + 1:])
    flat = np.fromstring(text[start:end].replace("[", "").replace("]", ""), sep=",")
    return header, flat[0::2] + 1j * flat[1::2]


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _grid(axes):
    pts = [_points(lo, hi, count) for _, lo, hi, count in axes]
    meshes = np.meshgrid(*pts, indexing="ij")
    return {name: mesh.ravel() for (name, _, _, _), mesh in zip(axes, meshes)}


def eval_reference(spec):
    """Closed-form values at every grid point of an eval op, row-major."""
    n = spec["n"]
    coords = _grid(spec["axes"])
    npts = int(np.prod([count for *_, count in spec["axes"]]))
    blocks = []
    for base in _SPATIAL_BASES[spec["kernel"]]:
        block = np.zeros((npts, n))
        for j in range(n):
            name = base if n == 1 else f"{base}{j + 1}"
            if name in coords:
                block[:, j] = coords[name]
        blocks.append(block)
    s = coords.get("s", spec["s"])
    tau = coords.get("tau", spec["tau"])
    func = {"rho-hat": oracle.rho_hat, "rho-tilde": oracle.rho_tilde, "heat-kernel": oracle.heat_kernel}
    return func[spec["kernel"]](s, tau, spec["gamma"], n, *blocks)


def check_eval(op, rc, reader):
    """Output of an eval op: closed forms at every point, and a bit-exact read-back."""
    if rc != 0:
        return f"exit code {rc}"
    spec = op.spec
    header, values = read_field(op.path)
    names = [name for name, *_ in spec["axes"]]
    if op.path.endswith(".csv"):
        if header["columns"] != names + ["re", "im"]:
            return f"CSV columns {header['columns']}"
        coords = _grid(spec["axes"])
        if not all(_same_bits(header["coords"][nm], coords[nm]) for nm in names):
            return "CSV coordinates differ from the requested grid"
    else:
        grid = [(a["name"], a["min"], a["max"], a["count"]) for a in header["grid"]]
        if grid != [tuple(ax) for ax in spec["axes"]] or header["kernel"] != spec["kernel"]:
            return f"JSON header {header['kernel']} {grid}"
    if not _same_bits(reader(op.path).values, values):
        return "package reader does not reproduce the file's values bit for bit"
    ref = eval_reference(spec)
    if values.shape != ref.shape:
        return f"{values.size} values for {ref.size} grid points"
    bad = np.abs(values - ref) > EVAL_RTOL * np.abs(ref) + EVAL_ATOL
    if np.any(bad):
        k = int(np.argmax(bad))
        return f"value {k} is {values[k]!r}, closed form {ref[k]!r}"
    return None


# ---------------------------------------------------------------------------
# eval-grid
# ---------------------------------------------------------------------------

# (grid kind, kernel, n, points per axis, format, tau regime); formats
# alternate.  Eight shapes cost about the same (0.3-0.4 s here), with one
# small 40^2 grid below them and one 500^2 CSV grid above.  The median op and
# the tail op (the 67th-90th percentile for 30-100 ops) then both fall among
# the eight, so they rest on most of a run's samples and do not jump between
# shapes when the op count of a run changes.
_EVAL_SLOTS = (
    ("space", "rho-tilde", 1, 330, "json", "negative"),
    ("param", "rho-tilde", 1, 100, "csv", "zero"),
    ("space", "rho-hat", 2, 320, "json", "taylor"),
    ("space", "heat-kernel", 2, 235, "csv", "negative"),
    ("param", "heat-kernel", 2, 40, "json", "negative"),
    ("space", "rho-tilde", 2, 500, "csv", "large"),
    ("space", "heat-kernel", 1, 330, "json", "negative"),
    ("param", "heat-kernel", 1, 100, "csv", "wide"),
    ("param", "rho-hat", 2, 100, "json", "taylor"),
    ("space", "rho-hat", 1, 260, "csv", "zero"),
)

# spatial grid axes per (kernel, n); the other components are held at 0
_SPACE_AXES = {
    ("rho-tilde", 1): ("x", "y"),
    ("heat-kernel", 1): ("xp", "y"),
    ("rho-tilde", 2): ("x1", "y1"),
    ("heat-kernel", 2): ("xp1", "y1"),
    ("rho-hat", 2): ("alpha1", "beta1"),
    ("rho-hat", 1): ("alpha", "beta"),
}

_TAYLOR = 0.9e-4  # |s*tau| below the package's 1e-4 series threshold


def _space_tau(rng, regime, s):
    u, v = rng.random(), rng.random()
    if regime == "large":
        return (1.0 if u < 0.5 else -1.0) * (20.0 + 180.0 * v) / s
    if regime == "negative":
        return -3.0 + 2.8 * v
    if regime == "taylor":
        return (2.0 * v - 1.0) * _TAYLOR / s
    return 0.0


def _param_tau_axis(rng, regime, s_hi, count):
    u, v = rng.random(), rng.random()
    if regime == "wide":  # both signs, |s*tau| up to 300
        lo, hi = -(0.3 + 0.7 * u) * 300.0 / s_hi, (0.3 + 0.7 * v) * 300.0 / s_hi
    elif regime == "taylor":  # every point on the series branch
        lo, hi = -(0.2 + 0.8 * u) * _TAYLOR / s_hi, (0.2 + 0.8 * v) * _TAYLOR / s_hi
    elif regime == "zero":  # ends at exactly 0 and crosses the branch threshold
        lo, hi = -(2.0 + 2.0 * u) * _TAYLOR / s_hi, 0.0
    else:  # negative, |s*tau| up to 300
        lo, hi = -(0.3 + 0.7 * u) * 300.0 / s_hi, -(0.5 + 1.5 * v)
    return ("tau", float(lo), float(hi), count)


def _half_width(kernel, s, tau):
    """Distance at which the kernel's Gaussian envelope has dropped by e."""
    a, b = oracle.coefficients(s, tau)
    a, b = float(a), float(b)
    return np.sqrt(2.0 / a) if kernel == "rho-hat" else np.sqrt(2.0 * (a * a + b * b) / a)


class EvalGrid:
    name = "eval-grid"
    work_name = "points_per_s"

    def __init__(self, workdir, reader):
        self.workdir = workdir
        self.reader = reader
        self.strata = None

    def setup(self, rng, run_cli):
        pass

    def warmup(self, rng):
        return [self._op(rng, slot[:3] + (9,) + slot[4:], k) for k, slot in enumerate(_EVAL_SLOTS[:2])]

    def cycle(self, rng):
        if self.strata is None:
            self.strata = Strata(rng, len(_EVAL_SLOTS))
        streams = self.strata.next_cycle()
        return [self._op(streams[k], slot, k) for k, slot in enumerate(_EVAL_SLOTS)]

    def _op(self, rng, slot, k):
        kind, kernel, n, count, fmt, regime = slot
        gamma, gamma_flags = _gamma_flags(rng, n)
        if kind == "space":
            s = _uniform(rng, 0.2, 2.0)
            tau = _space_tau(rng, regime, s)
            reach = _uniform(rng, 3.0, 4.0) * _half_width(kernel, s, tau)
            axes = [(name, -float(reach), float(reach), count) for name in _SPACE_AXES[(kernel, n)]]
        else:
            s_lo, s_hi = _uniform(rng, 0.05, 0.5), _uniform(rng, 1.0, 3.0)
            s, tau = 1.0, 0.0  # overridden pointwise by the axes
            axes = [("s", s_lo, s_hi, count), _param_tau_axis(rng, regime, s_hi, count)]
        path = os.path.join(self.workdir, f"eval{k}.{fmt}")
        argv = ["eval", f"--kernel={kernel}", f"--n={n}", f"--s={_num(s)}", f"--tau={_num(tau)}",
                *gamma_flags, *(_axis_flag(*ax) for ax in axes), f"--format={fmt}", f"--output={path}"]
        spec = {"kernel": kernel, "n": n, "s": s, "tau": tau, "gamma": gamma, "axes": axes}
        return Op(argv=argv, work=count * count, path=path, spec=spec)

    def check(self, op, rc):
        return check_eval(op, rc, self.reader)


# ---------------------------------------------------------------------------
# apply-field
# ---------------------------------------------------------------------------

# input fields f = H(s0; 0, 0; .), sampled on [-L, L] per axis: (n, points per axis, L)
_APPLY_INPUTS = {"in1": (1, 101, 5.0), "in2": (1, 131, 5.0), "in3": (1, 161, 5.0), "in4": (2, 13, 3.0)}
# (input, input format, output points per axis); output formats alternate.
# As for eval-grid, eight ops cost about the same (about 7e6 point pairs for
# n = 1, 3^4 outputs for n = 2), with one small and one large op, so the
# median and tail ops fall among the eight.
_APPLY_SLOTS = (
    ("in1", "json", 26), ("in2", "csv", 11), ("in4", "json", 3), ("in3", "json", 16),
    ("in1", "csv", 26), ("in4", "csv", 4), ("in2", "json", 20), ("in4", "json", 3),
    ("in3", "csv", 16), ("in2", "csv", 20),
)


def _components(base, n):
    return [base] if n == 1 else [f"{base}{j}" for j in range(1, n + 1)]


class ApplyField:
    name = "apply-field"
    work_name = "pairs_per_s"

    def __init__(self, workdir, reader):
        self.workdir = workdir
        self.reader = reader
        self.inputs = {}
        self.strata = None

    def setup(self, rng, run_cli):
        """Write every input field as JSON and CSV with `eval --kernel heat-kernel`; check them."""
        for key, (n, count, reach) in _APPLY_INPUTS.items():
            s0 = _uniform(rng, 0.4, 0.8)
            tau = _uniform(rng, -2.0, 2.0)
            gamma, gamma_flags = _gamma_flags(rng, n)
            axes = [(name, -reach, reach, count) for name in _components("x", n) + _components("y", n)]
            self.inputs[key] = {"n": n, "s0": s0, "tau": tau, "gamma": gamma, "flags": gamma_flags,
                                "points": _points(-reach, reach, count)}
            for fmt in ("json", "csv"):
                path = os.path.join(self.workdir, f"{key}.{fmt}")
                argv = ["eval", "--kernel=heat-kernel", f"--n={n}", f"--s={_num(s0)}", f"--tau={_num(tau)}",
                        *gamma_flags, *(_axis_flag(*ax) for ax in axes), f"--format={fmt}", f"--output={path}"]
                spec = {"kernel": "heat-kernel", "n": n, "s": s0, "tau": tau, "gamma": gamma, "axes": axes}
                error = check_eval(Op(argv, 0, path, spec), run_cli(argv), self.reader)
                if error is not None:
                    raise RuntimeError(f"input field {path}: {error}")

    def warmup(self, rng):
        return [self._op(rng, ("in1", "json", 3), 0)]

    def cycle(self, rng):
        if self.strata is None:
            self.strata = Strata(rng, len(_APPLY_SLOTS))
        streams = self.strata.next_cycle()
        return [self._op(streams[k], slot, k) for k, slot in enumerate(_APPLY_SLOTS)]

    def _op(self, rng, slot, k):
        key, in_fmt, count = slot
        inp = self.inputs[key]
        n = inp["n"]
        s = _uniform(rng, 0.2, 0.6)
        axes = []
        for name in _components("x", n) + _components("y", n):
            centre, half = _uniform(rng, -0.5, 0.5), _uniform(rng, 0.5, 1.0)
            axes.append((name, float(centre - half), float(centre + half), count))
        out_fmt = ("json", "csv")[k % 2]
        path = os.path.join(self.workdir, f"apply{k}.{out_fmt}")
        argv = ["apply", f"--input={os.path.join(self.workdir, f'{key}.{in_fmt}')}", f"--n={n}",
                f"--s={_num(s)}", f"--tau={_num(inp['tau'])}", *inp["flags"],
                *(_axis_flag(*ax) for ax in axes), f"--format={out_fmt}", f"--output={path}"]
        pairs = len(inp["points"]) ** (2 * n) * count ** (2 * n)
        return Op(argv=argv, work=pairs, path=path, spec={"input": key, "s": s, "axes": axes})

    def check(self, op, rc):
        """n = 1: semigroup law H_s[H_s0(0,0;.)] = H_{s+s0}(0,0;.).  n = 2: product of two n = 1 applies."""
        if rc != 0:
            return f"exit code {rc}"
        inp = self.inputs[op.spec["input"]]
        _, values = read_field(op.path)
        s, s0, tau, gamma = op.spec["s"], inp["s0"], inp["tau"], inp["gamma"]
        out = [_points(lo, hi, count) for _, lo, hi, count in op.spec["axes"]]
        if inp["n"] == 1:
            x, y = np.meshgrid(out[0], out[1], indexing="ij")
            ref = oracle.heat_kernel(s + s0, tau, gamma, 1, np.zeros((1,)), np.zeros((1,)),
                                     x.reshape(-1, 1), y.reshape(-1, 1))
        else:
            pts = inp["points"]
            xp, yp = np.meshgrid(pts, pts, indexing="ij")
            f1 = oracle.heat_kernel(s0, tau, gamma / 2, 1, np.zeros((1,)), np.zeros((1,)),
                                    xp[..., None], yp[..., None])
            g1 = oracle.apply_1d(s, tau, gamma / 2, pts, f1, out[0], out[2])
            g2 = oracle.apply_1d(s, tau, gamma / 2, pts, f1, out[1], out[3])
            ref = np.einsum("ac,bd->abcd", g1, g2).ravel()
        if values.shape != ref.shape:
            return f"{values.size} values for {ref.size} output points"
        err = float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))
        if not err <= APPLY_RTOL:
            return f"relative error {err:.3e} against the reference > {APPLY_RTOL:.0e}"
        return None


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

class VerifyAll:
    name = "verify-all"
    work_name = "reports_per_s"

    def __init__(self, workdir, reader):
        self.workdir = workdir

    def setup(self, rng, run_cli):
        pass

    def warmup(self, rng):
        return [self._op("hermite"), self._op("semigroup")]

    def cycle(self, rng):
        # the suite panels are fixed: the seed changes nothing here
        return [self._op("all")]

    def _op(self, suite):
        path = os.path.join(self.workdir, f"verify_{suite}.json")
        return Op(argv=["verify", f"--suite={suite}", f"--report={path}"], work=1, path=path)

    def check(self, op, rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(op.path, "r", encoding="ascii") as fh:
            report = json.load(fh)
        failing = [c["check"] for c in report["checks"] if not c["passed"]]
        if failing or not report["passed"] or not report["checks"]:
            return f"failing checks {failing}"
        return None


WORKLOADS = {wl.name: wl for wl in (EvalGrid, ApplyField, VerifyAll)}
