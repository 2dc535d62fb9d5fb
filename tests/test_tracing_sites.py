"""The benchmark tracer still finds every lookup site it wraps.

``perfbench/tracing.py`` wraps the package's functions at each place the
package looks them up (module attributes, names imported into other modules,
the kernel table).  A refactor that drops one of those names makes
``perfbench/run.py --trace 1`` raise ``KeyError``; building the tracer here,
on the same package table ``perfbench/run.py`` uses, fails first.
"""

import pathlib
import types

import numpy as np
import pytest

from heisenheat import cli, hermite, kernels, series, verify
from heisenheat.kernels import FieldSample, GridAxis, GridSpec, KernelParams

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    # compiled from the source text, so nothing is written next to the benchmark
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="ascii"), str(TRACING), "exec"), module.__dict__)
    package = {"kernels": kernels, "cli": cli, "verify": verify, "series": series,
               "hermite": hermite, "FieldSample": kernels.FieldSample}
    return module.Tracer(package)


def _lookup_sites():
    owners = (kernels, cli, verify, series, hermite, kernels.FieldSample)
    sites = {(owner.__name__, key): value for owner in owners for key, value in vars(owner).items()}
    sites.update({("table", key): value for key, value in kernels._KERNEL_FUNCS.items()})
    return sites


def test_install_and_uninstall_restore_every_site():
    before = _lookup_sites()
    tracer = _tracer()
    tracer.install()
    try:
        assert kernels.heat_kernel_h is not before[("heisenheat.kernels", "heat_kernel_h")]
        assert cli.heat_kernel_h is kernels.heat_kernel_h is kernels._KERNEL_FUNCS["heat-kernel"]
    finally:
        tracer.uninstall()
    after = _lookup_sites()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_apply_evaluates_coefficients_once(tmp_path):
    # apply_kernel factors the twisted convolution: no heat_kernel_h call, one coefficient call
    grid = GridSpec((GridAxis("x", -3, 3, 13), GridAxis("y", -3, 3, 13)))
    coords = grid.coordinates()
    field = FieldSample(grid=grid, values=np.exp(-coords["x"] ** 2 - coords["y"] ** 2))
    (tmp_path / "f.json").write_text(field.to_json_text())
    argv = [
        "apply", "--input", str(tmp_path / "f.json"), "--s", "0.5", "--tau", "1",
        "--axis", "x:-1:1:3", "--axis", "y:-1:1:2", "--output", str(tmp_path / "out.json"),
    ]
    tracer = _tracer()
    code, _ = tracer.run_op(0, lambda: cli.main(argv))
    assert code == 0
    assert tracer.totals["cli.main"]["calls"] == 1
    assert tracer.totals["kernels.heat_kernel_h"]["calls"] == 0
    assert tracer.totals["kernels.coefficients_ab"]["calls"] == 1
    assert tracer.unbalanced_ops() == []


def test_multi_block_ops_call_each_traced_name_once(tmp_path):
    # a kernel's blocks and the FFT's row blocks run only forms, ufuncs and FFTs: a 512^2 rho_hat,
    # a DFT check and an apply call rho_hat and coefficients_ab once per kernel call, not once per block
    params = KernelParams(1.0, 0.5, 1j)
    freqs = np.linspace(-20.0, 20.0, 512)
    # an 81 x 81 input: each (324, 81) P and Q factor of apply_kernel spans two blocks
    grid = GridSpec((GridAxis("x", -3, 3, 81), GridAxis("y", -3, 3, 81)))
    coords = grid.coordinates()
    field = FieldSample(grid=grid, values=np.exp(-coords["x"] ** 2 - coords["y"] ** 2))
    (tmp_path / "f.json").write_text(field.to_json_text())
    argv = [
        "apply", "--input", str(tmp_path / "f.json"), "--s", "0.5", "--tau", "1",
        "--axis", "x:-1:1:30", "--axis", "y:-1:1:30", "--output", str(tmp_path / "out.json"),
    ]
    tracer = _tracer()
    # per op: rho_hat calls and coefficients_ab calls (rho_hat, then rho_tilde, then apply_kernel's one)
    ops = (
        (lambda: kernels.rho_hat(params, freqs[:, np.newaxis], freqs), 1, 1),
        (lambda: verify.dft_inversion_check(params, 40.0, 512), 1, 2),
        (lambda: cli.main(argv), 0, 1),
    )
    for op_id, (op, rho_hat_calls, coefficient_calls) in enumerate(ops):
        before = {name: tracer.totals[name]["calls"] for name in ("kernels.rho_hat", "kernels.coefficients_ab")}
        result, _ = tracer.run_op(op_id, op)
        assert tracer.totals["kernels.rho_hat"]["calls"] - before["kernels.rho_hat"] == rho_hat_calls
        assert tracer.totals["kernels.coefficients_ab"]["calls"] - before["kernels.coefficients_ab"] == coefficient_calls
    assert result == 0
    assert tracer.unbalanced_ops() == []


def test_traced_verify_runs_the_suite_through_its_traced_name(tmp_path):
    # run_suite must look _suite_<name> up when called, after the tracer wrapped it
    argv = ["verify", "--suite", "hermite", "--report", str(tmp_path / "r.json")]
    tracer = _tracer()
    code, _ = tracer.run_op(0, lambda: cli.main(argv))
    assert code == 0
    assert tracer.totals["verify.run_suite"]["calls"] == 1
    assert tracer.totals["verify.suite.hermite"]["calls"] == 1
    assert tracer.unbalanced_ops() == []


def test_traced_identities_evaluates_the_twist_through_cli_names():
    tracer = _tracer()
    code, _ = tracer.run_op(0, lambda: cli.main(["identities"]))
    assert code == 0
    for name in ("kernels.heat_kernel_h", "kernels.rho_tilde"):
        assert tracer.totals[name]["calls"] == 1
        assert tracer.totals[name]["points"] == 5
    assert tracer.unbalanced_ops() == []


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_traced_eval_counts_the_written_bytes(tmp_path, fmt):
    # the serialization layer's bytes counter is the size of the file eval writes
    out = tmp_path / f"out.{fmt}"
    argv = [
        "eval", "--kernel", "rho-tilde", "--s", "1", "--tau", "0.5", "--axis", "x:-2:2:7",
        "--axis", "y:-1:1:5", "--format", fmt, "--output", str(out),
    ]
    tracer = _tracer()
    code, _ = tracer.run_op(0, lambda: cli.main(argv))
    assert code == 0
    writer = f"kernels.FieldSample.to_{fmt}_text"
    assert tracer.totals[writer]["calls"] == 1
    assert tracer.totals[writer]["bytes"] == out.stat().st_size
    other = "kernels.FieldSample.to_json_text" if fmt == "csv" else "kernels.FieldSample.to_csv_text"
    assert tracer.totals[other]["calls"] == 0
    assert tracer.unbalanced_ops() == []
