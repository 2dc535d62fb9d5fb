"""Layer spans recorded around the package's public functions.

The tracer wraps each traced function at every place the package looks it
up: the module attribute, the names other modules imported from it, the
kernel table that ``evaluate_on_grid`` dispatches through, and the
``FieldSample`` methods.  One wrapper per function, so a call is recorded
once whichever route reached it.  The wrappers are installed only around a
traced op and removed after it.

Each span records its name, start and end (``perf_counter_ns``), its parent
span and the op it belongs to.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the durations
of its children; the op's root span keeps the time no wrapped function
covered ("unattributed"), so the self times of an op add up to its wall
time exactly.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

# (span name, count recorded from the call, lookup sites "module:attribute")
_FUNCTIONS = (
    ("kernels.coefficients_ab", None, ("kernels:coefficients_ab",)),
    ("kernels.evaluate_on_grid", "points", ("kernels:evaluate_on_grid", "cli:evaluate_on_grid")),
    ("kernels.rho_hat", "points", ("kernels:rho_hat", "verify:rho_hat", "table:rho-hat")),
    ("kernels.rho_tilde", "points", ("kernels:rho_tilde", "verify:rho_tilde", "cli:rho_tilde", "table:rho-tilde")),
    ("kernels.heat_kernel_h", "points", (
        "kernels:heat_kernel_h", "verify:heat_kernel_h", "cli:heat_kernel_h", "table:heat-kernel",
    )),
    ("cli.main", "failed", ("cli:main",)),
    ("kernels.FieldSample.to_json_text", "bytes", ("FieldSample:to_json_text",)),
    ("kernels.FieldSample.to_csv_text", "bytes", ("FieldSample:to_csv_text",)),
    ("kernels.FieldSample.from_json", "bytes", ("FieldSample:from_json",)),
    ("kernels.FieldSample.from_csv", "bytes", ("FieldSample:from_csv",)),
    ("hermite.hermite_values", "values", ("hermite:hermite_values", "series:hermite_values")),
    ("hermite.hermite_polynomial_values", "values", ("hermite:hermite_polynomial_values",)),
    ("hermite.gauss_hermite_nodes", None, ("hermite:gauss_hermite_nodes",)),
    ("series.rho_hat_series", None, ("series:rho_hat_series",)),
    ("series.mehler_sum", None, ("series:mehler_sum",)),
    ("series.u_series", "terms", ("series:u_series",)),
) + tuple(
    (f"verify.{name}", None, (f"verify:{name}",))
    for name in (
        "residual_u", "residual_rho_hat", "residual_rho_tilde", "residual_heat_kernel",
        "eigenfunction_residual_report", "orthonormality_suite", "dft_inversion_check",
        "semigroup_check", "initial_condition_check", "apply_kernel_to_function", "run_suite",
    )
) + tuple(
    (f"verify.suite.{name}", None, (f"verify:_suite_{name}",))
    for name in ("hermite", "series", "pde", "inversion", "semigroup")
)

SPAN_NAMES = tuple(name for name, _, _ in _FUNCTIONS)
ROOT = "op"


class Tracer:
    """Records spans of traced ops and sums per-name counters."""

    def __init__(self, package):
        self._package = package  # module name -> module, plus "FieldSample"
        self.names = [ROOT, *SPAN_NAMES]
        self._name_id = {name: k for k, name in enumerate(self.names)}
        self.spans = []  # (span id, name id, start ns, end ns, parent id, op id)
        self.totals = defaultdict(lambda: defaultdict(int))
        self._stack = []  # [span id, name id, start ns, child ns]
        self._op = None
        self._sites = []  # (owner, attribute, original, replacement)
        for name, count, sites in _FUNCTIONS:
            original = self._lookup(sites[0])
            wrapper = self._wrap(name, original, count)
            for site in sites:
                owner, attr = self._owner(site)
                current = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
                self._sites.append((owner, attr, current, wrapper))

    # -- installation -----------------------------------------------------

    def _owner(self, site):
        where, attr = site.split(":")
        if where == "table":
            return self._package["kernels"]._KERNEL_FUNCS, attr
        return self._package[where], attr

    def _lookup(self, site):
        owner, attr = self._owner(site)
        if isinstance(owner, dict):
            return owner[attr]
        value = owner.__dict__[attr]
        return value.__func__ if isinstance(value, classmethod) else value

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        for owner, attr, original, wrapper in self._sites:
            self._set(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            self._set(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, func, count):
        name_id = self._name_id[name]
        totals = self.totals[name]
        for key in ("calls", "self_ns", "inclusive_ns", *_COUNTER_KEYS.get(count, ())):
            totals[key] = 0
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [len(spans) + len(stack), name_id, clock(), 0]
            stack.append(frame)
            raised = True
            try:
                result = func(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                parent = stack[-1]
                parent[3] += duration
                spans.append((frame[0], name_id, frame[2], end, parent[0], self._op))
                totals["calls"] += 1
                totals["self_ns"] += duration - frame[3]
                totals["inclusive_ns"] += duration
                if count == "failed" and raised:
                    totals["failed"] += 1
            if count is not None:
                _COUNTERS[count](totals, result, args)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__doc__ = func.__doc__
        return wrapper

    def run_op(self, op_id, call):
        """Run call() as one traced op; returns (result, wall seconds)."""
        self._op = op_id
        self.install()
        root = [len(self.spans), 0, 0, 0]
        self._stack.append(root)
        root[2] = time.perf_counter_ns()
        try:
            result = call()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.uninstall()
            self.spans.append((root[0], 0, root[2], end, -1, op_id))
            self.totals[ROOT]["calls"] += 1
            self.totals[ROOT]["unattributed_ns"] += end - root[2] - root[3]
            self.totals[ROOT]["wall_ns"] += end - root[2]
            self._op = None
        return result, (end - root[2]) * 1e-9

    # -- results ----------------------------------------------------------

    def unbalanced_ops(self):
        """Op ids whose span self times do not add up to the op's wall time."""
        covered = defaultdict(int)
        self_ns = defaultdict(int)
        wall = {}
        for span, _, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                wall[op] = end - start
        for span, _, start, end, parent, op in self.spans:
            self_ns[op] += end - start - covered[span]
        return [op for op, total in wall.items() if self_ns[op] != total]

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["span", "name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )


def _count_points(totals, result, args):
    values = getattr(result, "values", result)
    totals["points"] += int(np.size(values))


def _count_values(totals, result, args):
    totals["values"] += int(np.size(result))


def _count_bytes(totals, result, args):
    if isinstance(result, str):
        totals["bytes"] += len(result)
    else:
        totals["bytes"] += os.path.getsize(args[1])  # from_json/from_csv(cls, path)


def _count_terms(totals, result, args):
    totals["terms_used"] += result.terms_used
    totals["terms_budget"] += args[0].max_terms + 1


def _count_failed(totals, result, args):
    if result != 0:
        totals["failed"] += 1


_COUNTER_KEYS = {
    "points": ("points",),
    "values": ("values",),
    "bytes": ("bytes",),
    "terms": ("terms_used", "terms_budget"),
    "failed": ("failed",),
}

_COUNTERS = {
    "points": _count_points,
    "values": _count_values,
    "bytes": _count_bytes,
    "terms": _count_terms,
    "failed": _count_failed,
}
