import concurrent.futures
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenheat import cli, hermite, kernels, series, verify
from heisenheat.kernels import KernelParams, heat_kernel_h, rho_hat, rho_tilde
from heisenheat.verify import (
    GaussianTestFunction,
    InsufficientDecayError,
    Probe,
    QuadratureError,
    apply_kernel_to_function,
    default_probe_set,
    dft_inversion_check,
    initial_condition_check,
    orthonormality_suite,
    residual_heat_kernel,
    residual_rho_hat,
    residual_rho_tilde,
    residual_u,
    semigroup_check,
)

import oracles


class TestResidualSuites:
    def test_all_four_equations_second_order(self):
        for fn in (residual_u, residual_rho_hat, residual_rho_tilde, residual_heat_kernel):
            rep = fn()
            assert 1.8 < rep.convergence_order < 2.2, rep.equation
            assert rep.residual_norms[0] > rep.residual_norms[-1]
            assert len(rep.residual_norms) == len(rep.step_sizes)

    def test_rho_hat_tau_zero_ratio_near_four(self):
        # analytic solution e^{-s(alpha^2+beta^2)/4}: halving h divides the
        # residual by ~4 (pure O(h^2))
        probes = (Probe(1.0, 0.0, 0.0, 1, {"alpha": 0.7, "beta": -1.3}),)
        rep = residual_rho_hat(probes, step_sizes=(1e-2, 5e-3))
        ratio = rep.residual_norms[0] / rep.residual_norms[1]
        assert ratio == pytest.approx(4.0, abs=0.2)

    def test_complex_gamma_probe_included(self):
        probes = default_probe_set("rho-hat")
        assert any(p.gamma == 1j for p in probes)
        only_complex = tuple(p for p in probes if p.gamma == 1j)
        rep = residual_rho_hat(only_complex)
        assert 1.8 < rep.convergence_order < 2.2

    def test_negative_tau_probes_included(self):
        for equation in ("u-transformed", "rho-hat", "rho-tilde", "heat-kernel"):
            assert any(p.tau < 0 for p in default_probe_set(equation))

    def test_unknown_equation_rejected(self):
        with pytest.raises(ValueError, match="^unknown equation 'nope'$"):
            default_probe_set("nope")

    def test_u_probes_skip_tau_zero(self):
        assert all(p.tau != 0 for p in default_probe_set("u-transformed"))

    @pytest.mark.parametrize("tau", (0.0, -0.0))
    def test_u_rejects_a_tau_zero_probe(self, tau):
        # u = rho_hat * exp(-i alpha beta / tau): a NaN norm before, now an error naming tau
        probes = (
            Probe(1.0, 0.5, 0.0, 1, {"alpha": 0.7, "beta": -1.3}),
            Probe(1.0, tau, 0.0, 1, {"alpha": 0.7, "beta": -1.3}),
        )
        with pytest.raises(ValueError, match="tau != 0"):
            residual_u(iter(probes))

    def test_rho_tilde_n2_probe(self):
        probes = (Probe(1.0, 0.5, 2.0, 2, {"x": (0.6, -1.1), "y": (-0.3, 1.4)}),)
        rep = residual_rho_tilde(probes)
        assert 1.8 < rep.convergence_order < 2.2

    def test_rho_hat_n2_probes_sum_the_operator_over_components(self):
        # the default panel's n = 2 probes alone: second order only when every component's terms
        # enter the operator, and cosh(s*tau/2)**(-n/2) with n = 2 in the kernel
        probes = [p for p in default_probe_set("rho-hat") if p.n == 2]
        assert [(p.tau, p.gamma) for p in probes] == [(0.5, 2.0), (-2.0, 1j), (0.0, 0.5)]
        rep = residual_rho_hat(probes)
        assert 1.8 < rep.convergence_order < 2.2

    def test_heat_kernel_series_branch_probe(self):
        probes = (Probe(1.0, 1e-5, 1.0, 1, {"xp": 0.3, "yp": -0.4, "x": 1.2, "y": 0.8}),)
        rep = residual_heat_kernel(probes)
        assert 1.8 < rep.convergence_order < 2.2

    def test_batched_norms_are_the_max_of_single_probe_reports(self):
        # n = 1 and n = 2 probes, Taylor and closed-form branches, in one batched call per n
        probes = (
            Probe(
                1.0, 0.5, 2.0, 2,
                {"xp": (0.3, -0.2), "yp": (-0.4, 0.5), "x": (1.2, 0.1), "y": (0.8, -0.6)},
            ),
            Probe(0.25, -2.0, 1j, 1, {"xp": 0.3, "yp": -0.4, "x": 1.2, "y": 0.8}),
            Probe(1.0, 1e-5, 1.0, 1, {"xp": -0.9, "yp": 1.1, "x": -0.9, "y": 1.1}),
            Probe(4.0, 0.0, -1.0, 1, {"xp": 0.3, "yp": -0.4, "x": 1.2, "y": 0.8}),
            Probe(
                0.5, -1.5, 0.5j, 2,
                {"xp": (0.1, 0.4), "yp": (0.2, -0.7), "x": (-0.3, 0.6), "y": (1.0, 0.2)},
            ),
        )
        batched = residual_heat_kernel(probes).residual_norms
        single = np.max([residual_heat_kernel((p,)).residual_norms for p in probes], axis=0)
        assert batched == tuple(single)

    def test_empty_probes_rejected(self):
        for fn in (residual_u, residual_rho_hat, residual_rho_tilde, residual_heat_kernel):
            with pytest.raises(ValueError, match="probes"):
                fn(())

    def test_report_dict_round_trip(self):
        rep = residual_u()
        d = rep.as_dict()
        assert d["equation"] == "u-transformed"
        assert len(d["residual_norms"]) == 3


class TestDftInversion:
    def test_reference_case(self):
        err = dft_inversion_check(KernelParams(s=1.0, tau=1.0, gamma=0.0), 40.0, 512)
        assert err < 1e-6

    def test_tau_zero_gaussian(self):
        err = dft_inversion_check(KernelParams(s=1.0, tau=0.0, gamma=0.0), 40.0, 512)
        assert err < 1e-8

    def test_error_at_roundoff(self):
        # the centred FFT adds nothing but roundoff to the closed form
        assert dft_inversion_check(KernelParams(1.0, 1.0), 40.0, 512) < 1e-14

    def test_parseval_mass_at_origin(self):
        # the inverted transform at (0, 0) matches rho_tilde(0, 0)
        params = KernelParams(s=1.0, tau=1.0, gamma=0.0)
        n_pts, extent = 256, 40.0
        step = extent / n_pts
        freqs = -0.5 * extent + step * np.arange(n_pts)
        a, b = np.meshgrid(freqs, freqs, indexing="ij")
        f_hat = rho_hat(params, a, b)
        center = complex(np.sum(f_hat)) * step * step / (2 * math.pi) ** 2
        expect = rho_tilde(params, 0.0, 0.0)
        assert abs(center - expect) / abs(expect) < 1e-6

    def test_insufficient_decay_signaled(self):
        with pytest.raises(InsufficientDecayError):
            dft_inversion_check(KernelParams(s=1.0, tau=1.0, gamma=0.0), 6.0, 64)

    @pytest.mark.parametrize("grid_count", (16, 18, 20, 64, 512))
    @pytest.mark.parametrize("params", (
        KernelParams(s=1.0, tau=1.0), KernelParams(s=0.5, tau=-2.0, gamma=1j), KernelParams(s=2.0, tau=0.0, gamma=1.0),
    ))
    def test_equals_the_centred_full_transform(self, params, grid_count):
        # 18 and 20 make N/8 fractional; the pruned FFT-order transform runs the same 1-D transforms
        got = dft_inversion_check(params, 40.0, grid_count)
        assert got == oracles.dft_inversion_centred(params, 40.0, grid_count)

    @pytest.mark.parametrize("grid_count", (18, 20, 130))
    @pytest.mark.parametrize("params", (
        KernelParams(s=1.0, tau=1.0), KernelParams(s=0.5, tau=-2.0, gamma=1j), KernelParams(s=2.0, tau=0.0, gamma=1.0),
    ))
    def test_non_dyadic_extent_equals_the_centred_full_transform(self, params, grid_count):
        # step = 37.3 / N is not dyadic: alpha_j = (j - N/2) * step, and the mirrored half-plane
        # gives the centred grid's bits only if the grid is built that way
        got = dft_inversion_check(params, 37.3, grid_count)
        assert got == oracles.dft_inversion_centred(params, 37.3, grid_count)

    def test_one_half_plane_call_per_kernel(self, monkeypatch):
        # rho_hat on one point of each orbit of the 512^2 grid under the swap and the sign flip,
        # 257^2 - 1 of them, which hold the boundary edges too; rho_tilde on one point of each
        # orbit of the 129^2 compared block, (129^2 + 2 * 129 + 1) / 4 of them
        points = _count_points(monkeypatch, verify, ("rho_hat", "rho_tilde"))
        dft_inversion_check(KernelParams(1.0, 0.5, 1j), 40.0, 512)
        assert points == {"rho_hat": [66_048], "rho_tilde": [4_225]}

    @pytest.mark.parametrize("rows", (1, 7, 100))
    @pytest.mark.parametrize("exp_block", (64, 16384))
    def test_blocks_equal_the_centred_full_transform(self, monkeypatch, rows, exp_block):
        # row blocks of the first FFT pass and of rho_hat's exponent, at 64 points with N/8 = 8
        monkeypatch.setattr(verify, "_IFFT_BLOCK_ROWS", rows)
        monkeypatch.setattr(kernels, "_EXP_BLOCK", exp_block)
        params = KernelParams(s=0.5, tau=-2.0, gamma=1j)
        assert dft_inversion_check(params, 40.0, 64) == oracles.dft_inversion_centred(params, 40.0, 64)

    @pytest.mark.parametrize("threads", (1, 2, 4))
    @pytest.mark.parametrize("exp_block", (64, 16384))
    def test_pooled_blocks_equal_the_centred_full_transform(self, monkeypatch, threads, exp_block):
        # rho_hat's exponent blocks and FFT row blocks of 7 at 128 points, one check on each of 1, 2 or 4
        # caller threads at once: each caller runs its own blocks and gets the one-transform result
        monkeypatch.setattr(kernels, "_EXP_BLOCK", exp_block)
        monkeypatch.setattr(verify, "_IFFT_BLOCK_ROWS", 7)
        params = KernelParams(s=0.5, tau=-2.0, gamma=1j)
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(dft_inversion_check, params, 40.0, 128) for _ in range(threads)]
        expect = oracles.dft_inversion_centred(params, 40.0, 128)
        assert [future.result() for future in futures] == [expect] * threads

    def test_memory_peak_of_one_512_grid(self):
        # rho_hat's orbit values and their coordinates (1 MiB each) and one exponent block, then the
        # compared columns (1 MiB) and one FFT row block: ~2.6 MiB, against 12.0 MB when rho_hat and the
        # first FFT pass each built grid-sized temporaries.  The warm-up call builds the cached orbit
        # index, which is not counted
        params = KernelParams(1.0, 0.5, 1j)
        dft_inversion_check(params, 40.0, 512)
        tracemalloc.start()
        try:
            dft_inversion_check(params, 40.0, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20

    @pytest.mark.parametrize("threads", (1, 2, 4, 8))
    def test_memory_peak_of_one_512_grid_on_threads(self, threads):
        # one 512^2 check on each of 1-8 caller threads at once: every caller holds only its own blocks
        # and all share the cached orbit index, so the peak stays within one check's 3.5 MiB per thread
        params = KernelParams(1.0, 0.5, 1j)
        expect = dft_inversion_check(params, 40.0, 512)
        tracemalloc.start()
        try:
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(dft_inversion_check, params, 40.0, 512) for _ in range(threads)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [future.result() for future in futures] == [expect] * threads
        assert peak < threads * 3.5 * 2**20

    @pytest.mark.parametrize("axis", (0, 1))
    @pytest.mark.parametrize("end", (0, -1))
    def test_each_boundary_edge_is_checked(self, monkeypatch, axis, end):
        # 1e-6 on the orbit of one point of one edge (alpha or beta at -L/2 or L/2 - step), off the
        # corners, and 0 elsewhere must raise.  The orbit of a point on an L/2 - step edge meets no
        # -L/2 edge, and the reverse, so each end is read on its own
        extent, count = 40.0, 64
        step = extent / count
        edge = (-0.5 * extent + step * np.arange(count))[end]
        point = (edge, 3 * step) if axis == 0 else (3 * step, edge)
        monkeypatch.setattr(verify, "rho_hat", _symmetric_bump(point))
        with pytest.raises(InsufficientDecayError, match="1.000e-06"):
            dft_inversion_check(KernelParams(s=1.0, tau=1.0), extent, count)

    @pytest.mark.parametrize("beta", (-20.0, 19.375))
    def test_boundary_of_mirrored_rows_is_checked(self, monkeypatch, beta):
        # 1e-6 only on the orbit of (-5 step, beta), beta = -L/2 or L/2 - step: the grid holds it on a
        # beta edge at alpha < 0, a row the half-plane reads from its mirror at alpha > 0
        extent, count = 40.0, 64
        monkeypatch.setattr(verify, "rho_hat", _symmetric_bump((-5 * extent / count, beta)))
        with pytest.raises(InsufficientDecayError, match="1.000e-06"):
            dft_inversion_check(KernelParams(s=1.0, tau=1.0), extent, count)

    @pytest.mark.parametrize("name", ("s", "tau", "gamma"))
    def test_non_scalar_params_rejected(self, name):
        params = replace(KernelParams(s=1.0, tau=1.0, gamma=0.5), **{name: np.linspace(0.5, 1.0, 3)})
        with pytest.raises(ValueError, match=f"scalar {name}, got shape \\(3,\\)"):
            dft_inversion_check(params, 40.0, 64)

    def test_preconditions(self):
        # rho_hat itself accepts s = 0, where it is 1 everywhere and never decays
        with pytest.raises(ValueError, match="requires s > 0, got s=0.0"):
            dft_inversion_check(KernelParams(s=0.0, tau=1.0), 40.0, 128)
        with pytest.raises(ValueError):
            dft_inversion_check(KernelParams(s=1.0, tau=0.0, n=2), 40.0, 128)
        with pytest.raises(ValueError):
            dft_inversion_check(KernelParams(s=1.0, tau=0.0), 40.0, 129)


def _symmetric_bump(point):
    """A fake rho_hat, 1e-6 on the orbit of point under (a, b) -> (b, a) and (a, b) -> (-a, -b), 0 elsewhere.

    It has the symmetry of rho_hat's exponent that dft_inversion_check relies on.
    """
    p, q = point

    def fake_rho_hat(params, alpha, beta):
        a, b = np.broadcast_arrays(alpha, beta)
        bump = np.zeros(a.shape, dtype=bool)
        for u, v in ((p, q), (q, p), (-p, -q), (-q, -p)):
            bump |= (a == u) & (b == v)
        return np.where(bump, 1e-6, 0.0).astype(complex)

    return fake_rho_hat


class TestSemigroup:
    def test_diagonal_points(self):
        p = KernelParams(s=0.5, tau=1.0, gamma=0.0)
        err = semigroup_check(p, p, ((0.2, -0.3), (0.2, -0.3)))
        assert err < 1e-6

    def test_tau_zero_exact_gaussian_composition(self):
        p1 = KernelParams(s=0.7, tau=0.0, gamma=0.0)
        p2 = KernelParams(s=0.3, tau=0.0, gamma=0.0)
        err = semigroup_check(p1, p2, ((0.0, 0.0), (0.6, -0.4)))
        assert err < 1e-8

    def test_gamma_two_scalar_factor(self):
        p1 = KernelParams(s=0.5, tau=1.0, gamma=2.0)
        p2 = KernelParams(s=0.5, tau=1.0, gamma=2.0)
        err = semigroup_check(p1, p2, ((0.2, -0.3), (-0.1, 0.5)))
        assert err < 1e-6

    def test_unequal_times_negative_tau(self):
        p1 = KernelParams(s=0.4, tau=-0.5, gamma=1j)
        p2 = KernelParams(s=0.6, tau=-0.5, gamma=1j)
        err = semigroup_check(p1, p2, ((0.3, 0.1), (-0.2, 0.4)))
        assert err < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
        tau=st.just(0.0) | st.floats(-5.0, 5.0),
        gamma=st.complex_numbers(max_magnitude=2.0),
        coords=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    )
    def test_random_parameters(self, s, tau, gamma, coords):
        # 1e-9 relative, the quadrature's own stopping rule, fixed before any draw was measured
        p1, p2 = (KernelParams(s=part, tau=tau, gamma=gamma) for part in s)
        x0, y0, x1, y1 = coords
        assert semigroup_check(p1, p2, ((x0, y0), (x1, y1))) < 1e-9

    @pytest.mark.parametrize("which", (0, 1))
    def test_non_scalar_s_rejected(self, which):
        params = [KernelParams(s=0.5, tau=1.0), KernelParams(s=0.5, tau=1.0)]
        params[which] = replace(params[which], s=np.array([0.4, 0.6]))
        with pytest.raises(ValueError, match="scalar s, got shape \\(2,\\)"):
            semigroup_check(*params, ((0.2, -0.3), (0.2, -0.3)))

    @pytest.mark.parametrize("which", (0, 1))
    def test_zero_s_rejected(self, which):
        # the kernels' own guard names s; semigroup_check does not restate it
        params = [KernelParams(s=0.5, tau=1.0), KernelParams(s=0.5, tau=1.0)]
        params[which] = replace(params[which], s=0.0)
        with pytest.raises(ValueError, match=r"requires s\d? > 0"):
            semigroup_check(*params, ((0.2, -0.3), (0.2, -0.3)))

    def test_suite_pairs_at_roundoff(self, monkeypatch):
        # the box of radius 7/sqrt(summed envelope) leaves the composition at roundoff (worst ~7e-15),
        # far inside the suite's 1e-6; a radius of 3 reads ~4e-5
        errors = []
        original = verify.semigroup_check
        monkeypatch.setattr(verify, "semigroup_check", lambda *a: errors.append(original(*a)) or errors[-1])
        verify._suite_semigroup()
        assert len(errors) == 4
        assert max(errors) < 1e-12

    def test_mismatched_parameters_rejected(self):
        p1 = KernelParams(s=0.5, tau=1.0, gamma=0.0)
        p2 = KernelParams(s=0.5, tau=2.0, gamma=0.0)
        with pytest.raises(ValueError):
            semigroup_check(p1, p2, ((0.0, 0.0), (0.0, 0.0)))

    def test_n2_rejected(self):
        p = KernelParams(s=0.5, tau=1.0, gamma=0.0, n=2)
        with pytest.raises(ValueError, match="^semigroup_check quadrature is implemented for n = 1$"):
            semigroup_check(p, p, ((0.0, 0.0), (0.0, 0.0)))

    def test_unsettled_quadrature_raises(self, monkeypatch):
        # one order leaves no pair of successive sums to compare
        monkeypatch.setattr(verify, "_QUAD_ORDERS", (64,))
        p = KernelParams(s=0.5, tau=1.0, gamma=0.0)
        with pytest.raises(QuadratureError, match="did not stabilize to 1.0e-09 within order 64"):
            semigroup_check(p, p, ((0.2, -0.3), (0.2, -0.3)))


class TestInitialCondition:
    def test_errors_decrease_to_linear_rate(self):
        params = KernelParams(s=1.0, tau=1.0, gamma=0.0)
        s_seq = (0.5, 0.1, 0.02)
        errors = initial_condition_check(params, GaussianTestFunction(), s_seq)
        assert all(errors[k + 1] <= 1.1 * errors[k] for k in range(len(errors) - 1))
        final = initial_condition_check(params, GaussianTestFunction(), (1e-3,))[0]
        assert final < 5e-3

    def test_tau_zero_matches_closed_form_convolution(self):
        # for tau = 0 the smoothing is an explicit Gaussian convolution
        f = GaussianTestFunction(ax=1.3, ay=0.8, cx=0.2, cy=-0.4)
        params = KernelParams(s=0.25, tau=0.0, gamma=0.0)
        for point in ((0.2, -0.4), (0.7, 0.1)):
            got = apply_kernel_to_function(params, f, point)
            expect = oracles.heat_apply_tau0_closed_form(
                0.25, f.ax, f.ay, f.cx, f.cy, *point
            )
            assert abs(got - expect) < 1e-8

    def test_peak_error_is_order_s(self):
        params = KernelParams(s=1.0, tau=0.5, gamma=0.0)
        f = GaussianTestFunction()
        errs = initial_condition_check(params, f, (0.02, 0.01, 0.005))
        # halving s roughly halves the error
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)

    def test_non_scalar_tau_rejected(self):
        params = KernelParams(s=1.0, tau=np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="scalar tau, got shape \\(2,\\)"):
            apply_kernel_to_function(params, GaussianTestFunction(), (0.0, 0.0))
        with pytest.raises(ValueError, match="scalar tau, got shape \\(2,\\)"):
            initial_condition_check(params, GaussianTestFunction(), (0.1,))

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            GaussianTestFunction(ax=0.0)


class TestOrthonormalitySuite:
    def test_degree_zero(self):
        assert orthonormality_suite(0) < 1e-14

    def test_degree_twenty(self):
        assert orthonormality_suite(20) < 1e-12

    def test_degree_sixty(self):
        assert orthonormality_suite(60) < 1e-10

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            orthonormality_suite(61)


class TestConjugateSymmetry:
    def test_sweep_at_roundoff(self):
        # max |H(s, x', y', x, y) - conj(H(s, x, y, x', y'))| over point pairs, for real gamma and tau
        (x0, y0), (x1, y1) = np.transpose(
            (
                ((0.3, -0.4), (1.2, 0.8)),
                ((-1.6, 0.4), (0.7, -1.3)),
                ((0.0, 0.0), (1.9, -1.9)),
                ((0.5, 0.5), (0.5, -0.5)),
            ),
            (1, 2, 0),
        )
        for tau in (1.0, -0.5, 2.0):
            p = KernelParams(s=0.9, tau=tau, gamma=1.0)
            fwd = heat_kernel_h(p, x0, y0, x1, y1)
            bwd = heat_kernel_h(p, x1, y1, x0, y0)
            assert np.max(np.abs(fwd - np.conj(bwd))) < 1e-14


def _count_calls(monkeypatch, module, names):
    """Wrap module.<name> for each name with a call counter; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def _count_points(monkeypatch, module, names):
    """Wrap module.<name> for each name to record the size of each call's output; returns the live lists."""
    points = {name: [] for name in names}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            value = func(*args, **kwargs)
            points[name].append(int(np.size(value)))
            return value

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return points


class TestSuiteRunner:
    def test_hermite_suite_passes(self):
        report = verify.run_suite("hermite")
        assert report["passed"]
        assert {c["check"] for c in report["checks"]} == {
            "orthonormality-deviation-deg60",
            "eigenfunction-fd-order",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suite("nonsense")

    def test_series_suite_is_one_call_per_panel(self, monkeypatch):
        calls = _count_calls(monkeypatch, series, ("u_series", "mehler_sum", "hermite_values"))
        report = verify.run_suite("series")
        assert report["passed"]
        assert calls == {"u_series": 1, "mehler_sum": 1, "hermite_values": 4}
        agreement, mehler = report["checks"]
        assert agreement["check"] == "series-vs-closed-form"
        assert isinstance(agreement["terms_used"], int) and 1 < agreement["terms_used"] <= 401
        assert 0 < agreement["tail_bound"] < 1e-13
        assert mehler["check"] == "mehler-identity"
        assert mehler["terms_used"] == series.mehler_terms(0.9)

    def test_mehler_failure_shows_in_the_report(self, monkeypatch, tmp_path, capsys):
        # a closed form off by 1e-9 relative: the mehler-identity check fails in the report, and
        # nothing raises before the report is written
        closed_form = series.mehler_closed_form
        monkeypatch.setattr(series, "mehler_closed_form", lambda *a: closed_form(*a) * (1 + 1e-9))
        report = verify.run_suite("series")
        checks = {c["check"]: c for c in report["checks"]}
        assert checks["mehler-identity"]["passed"] is False
        assert checks["series-vs-closed-form"]["passed"] is True
        assert not report["passed"]
        path = tmp_path / "series.json"
        assert cli.main(["verify", "--suite", "series", "--report", str(path)]) == 1
        assert "[FAIL] mehler-identity" in capsys.readouterr().out
        assert [c["passed"] for c in json.loads(path.read_text())["checks"]] == [True, False]

    def test_inversion_suite_is_one_rho_hat_call_per_panel_point(self, monkeypatch):
        calls = _count_calls(monkeypatch, verify, ("rho_hat",))
        report = verify.run_suite("inversion")
        assert report["passed"]
        assert calls == {"rho_hat": 17}

    @pytest.mark.parametrize(
        "name, defect, failing",
        [
            ("rho_hat", np.real, {"series-vs-closed-form", "residual-order-u-transformed", "residual-order-rho-hat"}),
            ("rho_hat", lambda g: g / 2, {
                "series-vs-closed-form", "residual-order-u-transformed", "residual-order-rho-hat", "dft-inversion",
            }),
            ("rho_tilde", np.real, {"residual-order-rho-tilde"}),
            ("rho_tilde", lambda g: g / 2, {"residual-order-rho-tilde", "dft-inversion"}),
            ("heat_kernel_h", np.real, {"residual-order-heat-kernel", "semigroup-composition"}),
            ("heat_kernel_h", lambda g: g / 2, {"residual-order-heat-kernel", "semigroup-composition"}),
        ],
        ids=["rho_hat-real", "rho_hat-half", "rho_tilde-real", "rho_tilde-half", "heat_kernel_h-real",
             "heat_kernel_h-half"],
    )
    def test_gamma_defect_in_one_kernel_fails(self, monkeypatch, name, defect, failing):
        # the inversion panel holds gamma != 0 only at its Box_b rows: a kernel that reads gamma
        # wrongly still fails verify through the series, pde and semigroup checks.  Under gamma / 2
        # the Box_b points' values are 0, so a relative error divides by 0 and reads inf or NaN
        kernel = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda params, *args: kernel(replace(params, gamma=defect(params.gamma)), *args)
        )
        report = verify.run_suite("all")
        assert not report["passed"]
        assert {c["check"] for c in report["checks"] if not c["passed"]} == failing

    def test_nan_error_fails_its_check(self):
        # a NaN error after the first fails both checks it reaches, as inf would
        for errors in ([(0.5, 1e-9), (0.0, math.nan)], [(0.0, 1e-9), (0.0, math.nan), (2.0, 0.0)]):
            checks = verify._worst_checks("dft-inversion", errors)
            assert [c["passed"] for c in checks] == [False, False]
            assert all(math.isnan(c["worst"]) for c in checks)

    def test_zero_kernels_fail_their_checks_without_a_warning(self, monkeypatch, tmp_path):
        # kernels that return 0 make the relative errors inf or NaN and the fitted orders NaN (log 0):
        # each affected check fails, and verify writes its report instead of stopping on a RuntimeWarning
        # (the configured error) or on a ZeroDivisionError between Python floats
        for name in ("rho_hat", "rho_tilde", "heat_kernel_h"):
            monkeypatch.setattr(verify, name, lambda *args, kernel=getattr(verify, name): 0 * kernel(*args))
        failing = {
            "series": {"series-vs-closed-form"},
            "pde": {f"residual-order-{eq}" for eq in ("u-transformed", "rho-hat", "rho-tilde", "heat-kernel")},
            "inversion": {"dft-inversion", "dft-inversion-tau0"},
            "semigroup": {"semigroup-composition", "semigroup-composition-tau0"},
        }
        for suite, names in failing.items():
            checks = verify.run_suite(suite)["checks"]
            assert {c["check"] for c in checks if not c["passed"]} == names, suite
        out = tmp_path / "verify_all.json"
        assert cli.main(["verify", "--suite", "all", "--report", str(out)]) == cli.EXIT_SUITE_FAILURE
        report = json.loads(out.read_text())
        assert {c["check"] for c in report["checks"] if not c["passed"]} == set().union(*failing.values())

    def test_pde_suite_is_one_kernel_call_per_probe_dimension(self, monkeypatch):
        calls = _count_calls(monkeypatch, verify, ("rho_hat", "rho_tilde", "heat_kernel_h"))
        report = verify.run_suite("pde")
        assert report["passed"]
        # u probes n = 1 only; rho-hat, rho-tilde and heat-kernel probe n = 1 and n = 2
        assert calls == {"rho_hat": 3, "rho_tilde": 2, "heat_kernel_h": 2}
        assert [c["check"] for c in report["checks"]] == [
            "residual-order-u-transformed",
            "residual-order-rho-hat",
            "residual-order-rho-tilde",
            "residual-order-heat-kernel",
        ]

    def test_semigroup_suite_quadratures_are_apply_kernel_calls(self, monkeypatch):
        calls = []
        original = verify.apply_kernel
        monkeypatch.setattr(verify, "apply_kernel", lambda *a: calls.append(a) or original(*a))
        report = verify.run_suite("semigroup")
        assert report["passed"]
        assert [(c["check"], c["tolerance"]) for c in report["checks"]] == [
            ("semigroup-composition", 1e-6),
            ("semigroup-composition-tau0", 1e-8),
            ("initial-condition-final-error", 5e-3),
        ]
        # at least two Gauss-Legendre orders per composition pair and per initial-condition probe
        assert len(calls) >= 2 * (4 + 6 * 2)

    def test_eigenfunction_report_is_one_hermite_call(self, monkeypatch):
        calls = []
        original = hermite.hermite_values
        monkeypatch.setattr(hermite, "hermite_values", lambda *a: calls.append(a) or original(*a))
        rep = verify.eigenfunction_residual_report()
        assert len(calls) == 1
        assert 1.8 < rep.convergence_order < 2.2
