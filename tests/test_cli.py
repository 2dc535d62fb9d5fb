import json
import platform
import warnings
from unittest import mock

import numpy as np
import pytest

import heisenheat
from heisenheat import cli, kernels
from heisenheat.kernels import FieldSample, GridAxis, GridSpec, KernelParams, evaluate_on_grid


ENVIRONMENT = {
    "heisenheat": heisenheat.__version__,
    "numpy": np.__version__,
    "python": platform.python_version(),
}


def run(argv):
    return cli.main(argv)


class TestEval:
    def test_s_zero_all_ones(self, tmp_path):
        out = tmp_path / "flat.json"
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "0", "--tau", "1", "--gamma", "0",
                "--n", "1", "--axis", "alpha:-1:1:3", "--axis", "beta:0:0:1",
                "--output", str(out), "--format", "json",
            ]
        )
        assert code == 0
        sample = FieldSample.from_json(out)
        assert np.all(sample.values == 1.0)

    def test_tau_zero_gaussian_column(self, tmp_path):
        out = tmp_path / "gauss.json"
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "0",
                "--axis", "alpha:-2:2:5", "--axis", "beta:0:0:1",
                "--output", str(out),
            ]
        )
        assert code == 0
        sample = FieldSample.from_json(out)
        alphas = np.linspace(-2, 2, 5)
        assert np.allclose(sample.values.real, np.exp(-alphas**2 / 4), rtol=1e-14)

    def test_json_round_trip_bitwise(self, tmp_path):
        out = tmp_path / "rt.json"
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "0.8", "--tau", "0.9",
                "--gamma", "0.5+0.25i", "--axis", "alpha:-1:1:4", "--axis", "beta:-1:1:3",
                "--output", str(out),
            ]
        )
        assert code == 0
        loaded = FieldSample.from_json(out)
        p = KernelParams(s=0.8, tau=0.9, gamma=0.5 + 0.25j, n=1)
        grid = GridSpec((GridAxis("alpha", -1, 1, 4), GridAxis("beta", -1, 1, 3)))
        direct = evaluate_on_grid("rho-hat", p, grid)
        assert np.array_equal(loaded.values, direct.values)

    def test_deterministic_output_bytes(self, tmp_path):
        args = [
            "eval", "--kernel", "rho-tilde", "--s", "1.2", "--tau", "-0.7",
            "--gamma", "i", "--axis", "x:-1:1:5", "--axis", "y:-1:1:5",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "0.5",
                "--axis", "alpha:-1:1:3", "--axis", "beta:0:1:2",
                "--output", str(out), "--format", "csv",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,re,im"
        assert len(lines) == 1 + 6

    def test_boxb_q_flag(self, tmp_path):
        out = tmp_path / "boxb.json"
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1", "--n", "2",
                "--boxb-q", "0", "--axis", "alpha1:0:0:1", "--axis", "beta1:0:0:1",
                "--output", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["gamma"] == [2.0, 0.0]

    def test_axis_mismatch_exit_2(self, tmp_path):
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1",
                "--axis", "x:-1:1:3", "--output", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2

    def test_gamma_grammar(self):
        assert cli._parse_gamma("1.5") == 1.5
        assert cli._parse_gamma("i") == 1j
        assert cli._parse_gamma("-i") == -1j
        assert cli._parse_gamma("1+i") == 1 + 1j
        assert cli._parse_gamma("2i") == 2j
        assert cli._parse_gamma("0.5-0.3i") == 0.5 - 0.3j
        with pytest.raises(ValueError, match="cannot parse gamma"):
            cli._parse_gamma("one plus i")

    def test_bad_gamma_exit_2(self, tmp_path):
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1",
                "--gamma", "wat", "--axis", "alpha:0:1:2",
                "--output", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2

    def test_gamma_and_boxb_conflict_exit_2(self, tmp_path):
        # any explicit --gamma conflicts, also the value it defaults to
        for gamma in ("1", "0"):
            code = run(
                [
                    "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1",
                    "--gamma", gamma, "--boxb-q", "0", "--axis", "alpha:0:1:2",
                    "--output", str(tmp_path / "x.json"),
                ]
            )
            assert code == 2

    @pytest.mark.parametrize("flags", (["--n", "1", "--boxb-q", "5"], ["--boxb-q", "-3"]))
    def test_boxb_q_out_of_range_exit_2(self, tmp_path, capsys, flags):
        code = run(
            ["eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1", *flags,
             "--axis", "alpha:0:1:2", "--output", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "form degree q must satisfy 0 <= q <= n" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_no_axis_exit_2(self, tmp_path, capsys):
        code = run(["eval", "--kernel", "rho-hat", "--s", "1", "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "at least one axis" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("flag", (["--s", "nan"], ["--s", "1", "--tau", "inf"]))
    def test_non_finite_parameter_exit_2(self, tmp_path, capsys, flag):
        code = run(
            ["eval", "--kernel", "rho-hat", *flag, "--axis", "alpha:0:1:2",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--s", "1", "--tau", "1", "--gamma", "nan"], "gamma must be finite"),
            (["--s", "1", "--tau", "1000", "--gamma", "-10"], "exceeds the double range"),
            (["--s", "1", "--tau", "1", "--gamma", ""], "cannot parse gamma"),
        ],
    )
    def test_bad_gamma_value_exit_2(self, tmp_path, capsys, flags, name):
        code = run(
            ["eval", "--kernel", "rho-hat", *flags, "--axis", "alpha:0:1:2",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "gamma" in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("axis", ("alpha:nan:1:5", "alpha:0:inf:5", "alpha:-inf:0:5"))
    def test_non_finite_axis_bound_exit_2(self, tmp_path, capsys, axis):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                ["eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1", "--axis", axis,
                 "--axis", "beta:0:0:1", "--output", str(tmp_path / "x.json")]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "axis alpha" in err and "must be finite" in err
        assert caught == []
        assert not (tmp_path / "x.json").exists()

    def test_count_one_axis_needs_equal_bounds_exit_2(self, tmp_path, capsys):
        # x:0:1:1 samples only x = 0, but JSON would record max 1 and CSV read back max 0
        code = run(
            ["eval", "--kernel", "rho-tilde", "--s", "1", "--tau", "1", "--axis", "x:0:1:1",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "axis x: a count-1 axis needs min == max" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("flags, points, n", (
        (["--axis", "alpha:0:1:100000000000"], 10**11, 1),
        (["--n", "100000000", "--axis", "alpha1:0:1:10"], 10, 10**8),
    ))
    def test_work_past_the_bound_exit_2(self, tmp_path, capsys, flags, points, n):
        # rejected before any name or coordinate is built: numpy's MemoryError exited 1 with a traceback
        out = tmp_path / "out.json"
        code = run(["eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1", *flags, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{points} grid points x n = {n} is {points * n}, past the work bound" in err
        assert not out.exists()

    def test_bad_axis_exit_2(self, tmp_path):
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1",
                "--axis", "alpha:0:1", "--output", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2

    def test_unwritable_output_exit_3(self, tmp_path):
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "1", "--tau", "1",
                "--axis", "alpha:0:1:2", "--axis", "beta:0:0:1",
                "--output", str(tmp_path / "no-such-dir" / "x.json"),
            ]
        )
        assert code == 3
        assert not (tmp_path / "no-such-dir").exists()

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code = run(
            [
                "eval", "--kernel", "rho-hat", "--s", "0", "--tau", "1",
                "--axis", "alpha:0:0:1", "--axis", "beta:0:0:1",
            ]
        )
        assert code == 0
        assert (tmp_path / "rho-hat.json").exists()


def _write_gaussian_field(path, count=61, extent=5.0):
    axes = (GridAxis("x", -extent, extent, count), GridAxis("y", -extent, extent, count))
    grid = GridSpec(axes)
    coords = grid.coordinates()
    values = np.exp(-(coords["x"] ** 2) - coords["y"] ** 2).astype(complex)
    path.write_text(FieldSample(grid=grid, values=values, kernel="test-gaussian").to_json_text())
    return grid


class TestApply:
    def test_zero_input_gives_zero(self, tmp_path):
        axes = (GridAxis("x", -3, 3, 11), GridAxis("y", -3, 3, 11))
        grid = GridSpec(axes)
        zeros = FieldSample(grid=grid, values=np.zeros(grid.size, complex))
        (tmp_path / "z.json").write_text(zeros.to_json_text())
        out = tmp_path / "out.json"
        code = run(
            [
                "apply", "--input", str(tmp_path / "z.json"), "--s", "0.5", "--tau", "1",
                "--axis", "x:-1:1:3", "--axis", "y:-1:1:3", "--output", str(out),
            ]
        )
        assert code == 0
        assert np.all(FieldSample.from_json(out).values == 0.0)

    def test_small_s_recovers_input(self, tmp_path):
        # grid spacing 0.04 resolves the s = 0.02 kernel (width ~0.1), so the
        # remaining error is the O(s) initial-condition defect
        _write_gaussian_field(tmp_path / "f.json", count=201, extent=4.0)
        out = tmp_path / "out.json"
        code = run(
            [
                "apply", "--input", str(tmp_path / "f.json"), "--s", "0.02", "--tau", "1",
                "--axis", "x:-0.5:0.5:3", "--axis", "y:-0.5:0.5:3", "--output", str(out),
            ]
        )
        assert code == 0
        got = FieldSample.from_json(out)
        coords = got.grid.coordinates()
        f_exact = np.exp(-(coords["x"] ** 2) - coords["y"] ** 2)
        assert np.max(np.abs(got.values - f_exact)) < 5e-2

    def test_two_steps_compose(self, tmp_path):
        _write_gaussian_field(tmp_path / "f.json", count=81, extent=6.0)
        mid, once, twice = tmp_path / "mid.json", tmp_path / "once.json", tmp_path / "twice.json"
        # apply(s=0.6) in one shot
        assert run(
            [
                "apply", "--input", str(tmp_path / "f.json"), "--s", "0.6", "--tau", "0.5",
                "--axis", "x:-0.8:0.8:3", "--axis", "y:-0.8:0.8:3", "--output", str(once),
            ]
        ) == 0
        # apply(s=0.3) twice; intermediate grid must cover the mass
        assert run(
            [
                "apply", "--input", str(tmp_path / "f.json"), "--s", "0.3", "--tau", "0.5",
                "--axis", "x:-6:6:81", "--axis", "y:-6:6:81", "--output", str(mid),
            ]
        ) == 0
        assert run(
            [
                "apply", "--input", str(mid), "--s", "0.3", "--tau", "0.5",
                "--axis", "x:-0.8:0.8:3", "--axis", "y:-0.8:0.8:3", "--output", str(twice),
            ]
        ) == 0
        a = FieldSample.from_json(once).values
        b = FieldSample.from_json(twice).values
        assert np.max(np.abs(a - b)) < 5e-3

    def test_csv_input_matches_json_input(self, tmp_path):
        axes = (GridAxis("x", -3, 3, 31), GridAxis("y", -3, 3, 31))
        grid = GridSpec(axes)
        coords = grid.coordinates()
        values = np.exp(-(coords["x"] ** 2) - coords["y"] ** 2).astype(complex)
        sample = FieldSample(grid=grid, values=values)
        (tmp_path / "f.json").write_text(sample.to_json_text())
        (tmp_path / "f.csv").write_text(sample.to_csv_text())
        outs = {}
        for ext in ("json", "csv"):
            out = tmp_path / f"out_{ext}.json"
            assert run(
                [
                    "apply", "--input", str(tmp_path / f"f.{ext}"), "--s", "0.3",
                    "--tau", "1", "--axis", "x:-1:1:3", "--axis", "y:-1:1:3",
                    "--output", str(out),
                ]
            ) == 0
            outs[ext] = FieldSample.from_json(out).values
        assert np.array_equal(outs["json"], outs["csv"])

    def _apply(self, tmp_path, field, axes, name):
        out = tmp_path / f"{name}.json"
        argv = ["apply", "--input", str(field), "--s", "0.3", "--tau", "0.7", "--gamma", "0.2+0.1i"]
        for axis in axes:
            argv += ["--axis", axis]
        assert run(argv + ["--output", str(out)]) == 0
        return FieldSample.from_json(out).values

    def test_swapped_output_axes_give_the_transpose(self, tmp_path):
        _write_gaussian_field(tmp_path / "f.json", count=41, extent=4.0)
        x_axis, y_axis = "x:-1:1:3", "y:-0.5:0.7:4"
        xy = self._apply(tmp_path, tmp_path / "f.json", (x_axis, y_axis), "xy").reshape(3, 4)
        yx = self._apply(tmp_path, tmp_path / "f.json", (y_axis, x_axis), "yx").reshape(4, 3)
        assert np.max(np.abs(yx - xy.T)) <= 1e-14 * np.max(np.abs(xy))

    def test_missing_output_axis_is_held_at_zero(self, tmp_path):
        _write_gaussian_field(tmp_path / "f.json", count=41, extent=4.0)
        full = self._apply(tmp_path, tmp_path / "f.json", ("x:-1:1:5", "y:-1:1:3"), "full")
        x_only = self._apply(tmp_path, tmp_path / "f.json", ("x:-1:1:5",), "x_only")
        row = full.reshape(5, 3)[:, 1]  # y = 0
        assert np.max(np.abs(x_only - row)) <= 1e-14 * np.max(np.abs(row))

    def test_grid_mismatch_exit_2(self, tmp_path):
        axes = (GridAxis("alpha", -1, 1, 4), GridAxis("beta", -1, 1, 4))
        grid = GridSpec(axes)
        ones = FieldSample(grid=grid, values=np.ones(grid.size, complex))
        (tmp_path / "f.json").write_text(ones.to_json_text())
        code = run(
            [
                "apply", "--input", str(tmp_path / "f.json"), "--s", "0.5", "--tau", "1",
                "--axis", "x:-1:1:3", "--axis", "y:-1:1:3",
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 2

    def test_header_n_differs_from_flag_exit_2(self, tmp_path, capsys):
        # the axes x, y fit --n 1; the header's n = 2 does not
        path = tmp_path / "f.json"
        axes = ["--axis", "x:-2:2:9", "--axis", "y:-2:2:9"]
        assert run(["eval", "--kernel", "heat-kernel", "--n", "1", "--s", "0.5", "--tau", "1", *axes,
                    "--output", str(path)]) == 0
        path.write_text(path.read_text().replace('"n": 1}', '"n": 2}'))
        code = run(["apply", "--input", str(path), "--n", "1", "--s", "0.5", "--tau", "1", *axes,
                    "--output", str(tmp_path / "out.json")])
        assert code == 2
        assert "header n = 2 does not match --n 1" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_unknown_output_axis_exit_2(self, tmp_path, capsys):
        _write_gaussian_field(tmp_path / "f.json", count=21, extent=4.0)
        code = run(
            [
                "apply", "--input", str(tmp_path / "f.json"), "--s", "0.5", "--tau", "1",
                "--axis", "x:-1:1:3", "--axis", "z:-1:1:3", "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 2
        assert "axis 'z'" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_work_past_the_bound_exit_2(self, tmp_path, capsys):
        # output points x n one past the bound, as for eval: rejected before any output coordinate.
        # The input mesh does not count, so a 161^2 field onto 300^2 output points still runs
        _write_gaussian_field(tmp_path / "f.json", count=11, extent=3.0)
        out, count = tmp_path / "out.json", kernels._MAX_WORK + 1
        argv = ["apply", "--input", str(tmp_path / "f.json"), "--s", "0.5", "--tau", "1", "--output", str(out)]
        assert run([*argv, "--axis", f"x:-1:1:{count}"]) == 2
        assert f"{count} grid points x n = 1 is {count}, past the work bound" in capsys.readouterr().err
        # a huge n is an axis-count mismatch, found before its 2n names are built
        assert run([*argv, "--n", "100000000", "--axis", "x:-1:1:3"]) == 2
        assert "do not match the 2n axes x.., y.. of n = 100000000" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_s_overflow_exit_2(self, tmp_path, capsys):
        # the kernel's Gaussian envelope ~1/s is past the double range
        _write_gaussian_field(tmp_path / "f.json", count=11, extent=3.0)
        out = tmp_path / "out.json"
        code = run(
            [
                "apply", "--input", str(tmp_path / "f.json"), "--s", "1e-310", "--tau", "1",
                "--axis", "x:0:0:1", "--output", str(out),
            ]
        )
        assert code == 2
        assert "exceeds the double range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", ("string-row", "null-row", "integer-gamma", "top-level-list", "empty-grid", "count-1-span",
                 "string-count", "bool-min", "fractional-n", "huge-max", "huge-value", "grid-object",
                 "grid-of-numbers")
    )
    def test_malformed_json_input_exit_2(self, tmp_path, capsys, case):
        _write_gaussian_field(tmp_path / "f.json", count=5, extent=2.0)
        doc = json.loads((tmp_path / "f.json").read_text())
        if case == "string-row":
            doc["values"][0] = ["1", "2"]
        elif case == "null-row":
            doc["values"][0] = None
        elif case == "integer-gamma":
            doc["params"] = {"s": 1.0, "tau": 1.0, "gamma": 5, "n": 1}
        elif case == "empty-grid":
            # one value matches the size, 1, of an axis-free grid; a grid still needs an axis
            doc["grid"], doc["values"] = [], [[1.0, 0.0]]
        elif case == "count-1-span":
            # one point on an axis from -2 to 2
            doc["grid"][0]["count"] = 1
        elif case == "string-count":
            doc["grid"][0]["count"] = "5"
        elif case == "bool-min":
            doc["grid"][0]["min"] = True
        elif case == "fractional-n":
            doc["params"] = {"s": 1.0, "tau": 1.0, "gamma": [0.0, 0.0], "n": 1.9}
        elif case == "huge-max":
            # an integer token past the double range
            doc["grid"][0]["max"] = 10**400
        elif case == "huge-value":
            doc["values"][0] = [10**400, 0.0]
        elif case == "grid-object":
            doc["grid"] = {"x": 1}
        elif case == "grid-of-numbers":
            doc["grid"] = [5]
        else:
            doc = [1, 2]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        code = run(
            [
                "apply", "--input", str(tmp_path / "bad.json"), "--s", "0.5", "--tau", "1",
                "--axis", "x:-1:1:3", "--output", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load field sample" in err
        # a grid that is not a list of objects is named as such, not by the indexing error it would raise
        assert not case.startswith("grid-") or "grid must be a list of axis objects" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "no data row after its header"),
            # two columns short: the y coordinate would be read as re
            (["%d,0,%d" % (k, 5 + k) for k in range(3)], "CSV rows have 3 columns, the header x,y,re,im has 4"),
            (["%d,0,0,%d,0" % (k, 5 + k) for k in range(3)], "CSV rows have 5 columns, the header x,y,re,im has 4"),
        ],
        ids=("header-only", "narrow-rows", "wide-rows"),
    )
    def test_malformed_csv_input_exit_2(self, tmp_path, capsys, rows, message):
        (tmp_path / "bad.csv").write_text("\n".join(["x,y,re,im", *rows]) + "\n")
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            # numpy's loadtxt warns on input without data; no warning may reach the user
            warnings.simplefilter("error")
            code = run(
                [
                    "apply", "--input", str(tmp_path / "bad.csv"), "--s", "0.5", "--tau", "1",
                    "--axis", "x:-1:1:3", "--output", str(out),
                ]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load field sample" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--s", "0", "--axis", "x:-1:1:3"], "requires s > 0"),
            (["--s", "0.5"], "at least one axis"),
        ],
    )
    def test_s_zero_or_no_axis_exit_2(self, tmp_path, capsys, flags, message):
        # apply_kernel rejects s = 0, GridSpec a missing --axis
        _write_gaussian_field(tmp_path / "f.json", count=5, extent=2.0)
        out = tmp_path / "out.json"
        code = run(["apply", "--input", str(tmp_path / "f.json"), "--tau", "1", *flags, "--output", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x_axis", ("x:1:1.000000000001:7", "x:1e6:1.000001e6:5"))
    def test_eval_output_on_a_narrow_axis_applies(self, tmp_path, x_axis):
        # the rounded points of such an axis are not evenly spaced to 1e-12; the weights come from
        # the axis' own step, so apply takes the field that eval writes
        field, out = tmp_path / "f.json", tmp_path / "out.json"
        assert run(["eval", "--kernel", "rho-tilde", "--s", "1", "--tau", "1",
                    "--axis", x_axis, "--axis", "y:-1:1:5", "--output", str(field)]) == 0
        assert run(["apply", "--input", str(field), "--s", "0.5", "--tau", "1",
                    "--axis", "x:1:1:1", "--axis", "y:0:0:1", "--output", str(out)]) == 0
        assert FieldSample.from_json(out).values.shape == (1,)

    def test_one_point_input_axis_exit_2(self, tmp_path, capsys):
        grid = GridSpec((GridAxis("x", -1, 1, 5), GridAxis("y", 0.5, 0.5, 1)))
        (tmp_path / "f.json").write_text(FieldSample(grid=grid, values=np.ones(5, complex)).to_json_text())
        out = tmp_path / "out.json"
        code = run(["apply", "--input", str(tmp_path / "f.json"), "--s", "0.5", "--tau", "1",
                    "--axis", "x:-1:1:3", "--output", str(out)])
        assert code == 2
        assert "at least 2 points per input axis, axis y has 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, text", (
        ("bom.csv", "x,y,re,im\n0,0,1,0\n0,1,1,0\n1,0,1,0\n1,1,1,0\n"),
        ("bom.json", '{"grid": [{"name": "x", "min": 0, "max": 1, "count": 2}, {"name": "y", "min": 0, "max": 1, '
                     '"count": 2}], "values": [[1, 0], [1, 0], [1, 0], [1, 0]]}'),
    ))
    def test_non_ascii_input_exit_2(self, tmp_path, capsys, name, text):
        # a UTF-8 byte-order mark before a field that loads without it
        (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
        code = run(["apply", "--input", str(tmp_path / name), "--s", "0.5", "--tau", "1", "--axis", "x:-1:1:3"])
        assert code == 2
        path = str(tmp_path / name)
        assert f"cannot load field sample {path!r}: the file is not ASCII (byte 0xef)" in capsys.readouterr().err
        (tmp_path / name).write_text(text, encoding="ascii")
        assert run(["apply", "--input", path, "--s", "0.5", "--tau", "1", "--axis", "x:-1:1:3",
                    "--output", str(tmp_path / "out.json")]) == 0

    def test_missing_input_exit_2(self, tmp_path):
        code = run(
            [
                "apply", "--input", str(tmp_path / "absent.json"), "--s", "0.5", "--tau", "1",
                "--axis", "x:-1:1:3", "--axis", "y:-1:1:3",
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 2


class TestVerify:
    def test_hermite_suite_pass_and_report(self, tmp_path):
        report_path = tmp_path / "hermite.json"
        code = run(["verify", "--suite", "hermite", "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["suite"] == "hermite"
        assert doc["passed"] is True
        assert all("worst" in c and "tolerance" in c for c in doc["checks"])
        assert list(doc["elapsed_s"]) == ["hermite"] and doc["elapsed_s"]["hermite"] > 0
        assert doc["environment"] == ENVIRONMENT

    @pytest.mark.parametrize("suite", ("series", "pde", "semigroup"))
    def test_suite_report_is_plain_json(self, tmp_path, suite):
        # the report holds only JSON types: written without a default= hook, read back whole
        report_path = tmp_path / f"{suite}.json"
        assert run(["verify", "--suite", suite, "--report", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["suite"] == suite
        assert doc["passed"] is True
        assert doc["checks"] and all(c["passed"] is True for c in doc["checks"])

    def test_unknown_suite_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestIdentities:
    def test_default_panel_passes(self, tmp_path, capsys):
        report = tmp_path / "ident.json"
        code = run(["identities", "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["suite"] == "identities"
        assert [c["check"] for c in doc["checks"]] == [
            "ratio-b-vs-half-tau", "ratio-ab-vs-coth", "twist-factorization",
        ]
        assert all(c["worst"] < 1e-12 and c["tolerance"] == 1e-12 for c in doc["checks"])
        assert doc["passed"] is True
        assert list(doc["elapsed_s"]) == ["identities"] and doc["elapsed_s"]["identities"] > 0
        assert doc["environment"] == ENVIRONMENT
        out = capsys.readouterr().out
        assert "twist-factorization" in out

    def test_seeded_panel(self, tmp_path):
        report = tmp_path / "ident.json"
        with mock.patch.object(cli, "_twist_factorization", wraps=cli._twist_factorization) as twist:
            assert run(["identities", "--seed", "7", "--points", "8", "--report", str(report)]) == 0
        # the panel drawn as one array equals the former point-by-point draws
        rng = np.random.default_rng(7)
        lo, hi = (0.1, -3.0, -2, -2, -2, -2), (4.0, 3.0, 2, 2, 2, 2)
        expect = [[rng.uniform(a, b) for a, b in zip(lo, hi)] for _ in range(8)]
        (points,), _ = twist.call_args
        assert np.array_equal(points, expect)
        assert json.loads(report.read_text())["checks"][-1]["check"] == "twist-factorization"

    def test_empty_seeded_panel_exit_2(self):
        assert run(["identities", "--seed", "7", "--points", "0"]) == 2

    @pytest.mark.parametrize(
        "argv", (["--seed", "7", "--points", str(cli.MAX_TWIST_POINTS + 1)], ["--points", "8"])
    )
    def test_points_too_many_or_without_seed_exit_2(self, argv, capsys):
        assert run(["identities", *argv]) == 2
        assert "--points" in capsys.readouterr().err


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    # the text is written to a temporary file in the output directory, which a failed rename removes
    def no_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", no_replace)
    out = tmp_path / "report.json"
    assert run(["identities", "--report", str(out)]) == 3
    assert f"cannot write {out}: rename refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", (["verify", "--suite", "hermite"], ["identities"]))
def test_unwritable_report_exit_3(tmp_path, argv):
    code = run(argv + ["--report", str(tmp_path / "no-such-dir" / "report.json")])
    assert code == 3
    assert list(tmp_path.iterdir()) == []
