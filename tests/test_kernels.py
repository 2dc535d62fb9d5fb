import concurrent.futures
import functools
import itertools
import json
import math
import operator
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisenheat import kernels
from heisenheat.kernels import (
    FieldSample,
    GridAxis,
    GridMismatchError,
    GridSpec,
    KernelOverflowError,
    KernelParams,
    apply_kernel,
    coefficients_ab,
    evaluate_on_grid,
    heat_kernel_h,
    rho_hat,
    rho_tilde,
)

import oracles


def _s_tau_pairs(s_zero: bool):
    """Lists of (s, tau) spanning both branches, both signs of tau, tau = 0 and |s*tau| <= 1e4."""
    s = st.floats(1e-3, 50.0)
    if s_zero:
        s = s | st.just(0.0)
    z = st.just(0.0) | st.floats(1e-9, 0.99e-4) | st.floats(1e-4, 1e4)
    sign = st.sampled_from((1.0, -1.0))

    def pair(s, z, sign):
        return s, sign * (z / s if s > 0 else z)

    return st.lists(st.builds(pair, s, z, sign), min_size=1, max_size=8)


_COORD = st.sampled_from((0.0, -0.0)) | st.floats(-3.0, 3.0)
_GAMMA = st.just(0.0) | st.builds(
    complex, st.sampled_from((0.0, -0.0)) | st.floats(-1.0, 1.0), st.sampled_from((0.0, -0.0)) | st.floats(-3.0, 3.0)
)


class TestCoefficients:
    def test_tau_zero_limit(self):
        a, b, log_cosh, log_tau_over_sinh, envelope = coefficients_ab(1.0, 0.0)
        assert (a, b, log_cosh) == (0.5, 0.0, 0.0)
        assert log_tau_over_sinh == math.log(4.0)
        assert envelope == 1.0

    def test_s_zero(self):
        a, b, log_cosh, log_tau_over_sinh, envelope = coefficients_ab(0.0, 3.0)
        assert (a, b, log_cosh) == (0.0, 0.0, 0.0)
        assert log_tau_over_sinh == envelope == math.inf

    def test_frozen_values_s1_tau1(self):
        a, b, *_ = coefficients_ab(1.0, 1.0)
        assert a == pytest.approx(oracles.A_AT_S1_TAU1, rel=1e-14)
        assert b == pytest.approx(oracles.B_AT_S1_TAU1, rel=1e-14)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            coefficients_ab(-1.0, 1.0)

    def test_sign_structure(self):
        for tau in (0.5, -0.5, 3.0, -3.0):
            a, b, *_ = coefficients_ab(1.5, tau)
            assert a > 0
            assert math.copysign(1.0, b) == math.copysign(1.0, tau)

    def test_sum_of_squares_identity(self):
        # A^2 + B^2 = 4 sinh^2(s tau/4) / (tau^2 cosh(s tau/2))
        s = np.linspace(0.25, 10.0, 27)[:, np.newaxis]
        tau = np.concatenate([np.linspace(-10, -0.05, 19), np.linspace(0.05, 10, 19)])
        a, b, *_ = coefficients_ab(s, tau)
        rhs = 4 * np.sinh(s * tau / 4) ** 2 / (tau**2 * np.cosh(s * tau / 2))
        assert np.max(np.abs(a**2 + b**2 - rhs) / rhs) < 1e-12

    def test_large_argument_regime(self):
        # B -> 1/tau as s*tau -> inf, evaluated through the overflow-free path
        a, b, *_ = coefficients_ab(500.0, 3.0)
        assert b == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert a == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_branch_continuity_at_threshold(self, sign):
        # series and direct formulas agree to 1e-10 at |s*tau| = threshold,
        # for A, B and the quarter-argument terms of the twisted kernel
        s = 2.0
        tau = sign * kernels.TAYLOR_BRANCH_THRESHOLD / s
        series = kernels._coefficients_series(s, tau)
        direct = kernels._coefficients_direct(s, tau)
        for ser, dire in zip(series, direct):
            assert abs(ser - dire) / abs(dire) < 1e-10

    def test_branch_chosen_per_element(self):
        # one array call equals the per-element calls bit for bit on both sides of the
        # threshold; at s = 3e-309 the envelope is +inf in the Taylor branch (tau -250) and
        # in the closed form (tau 1e305, |s*tau| = 3e-4)
        s = np.array([[2.0], [0.5], [0.0], [3e-309]])
        tau = np.array([0.0, -0.0, 0.4e-4, -0.6e-4, 3.0, -250.0, 1e305])
        together = coefficients_ab(s, tau)
        for i, j in np.ndindex(len(s), len(tau)):
            alone = coefficients_ab(s[i, 0], tau[j])
            assert [_bits(part[i, j]).tolist() for part in together] == [_bits(part).tolist() for part in alone]


class TestRhoHat:
    def test_s_zero_is_one(self):
        for tau in (-2.0, 0.0, 1.0):
            for gamma in (0.0, 1.0, 1j):
                p = KernelParams(s=0.0, tau=tau, gamma=gamma, n=1)
                assert rho_hat(p, 0.7, -1.3) == 1.0

    def test_tau_zero_gaussian(self):
        # closed form collapses to exp(-s (alpha^2 + beta^2)/4), any gamma
        for gamma in (0.0, 2.0, 1j):
            p = KernelParams(s=1.7, tau=0.0, gamma=gamma, n=1)
            for a, b in ((0.0, 0.0), (1.0, -2.0), (0.3, 0.4)):
                expect = math.exp(-1.7 * (a * a + b * b) / 4)
                assert rho_hat(p, a, b) == pytest.approx(expect, rel=1e-12)

    def test_origin_value_series_oracle(self):
        # cosh(1/2)**(-1/2), cross-validated by the truncated Hermite series
        p = KernelParams(s=1.0, tau=1.0, gamma=0.0, n=1)
        assert rho_hat(p, 0.0, 0.0) == pytest.approx(oracles.RHO_HAT_S1_TAU1_ORIGIN, rel=1e-13)

    def test_modulus_phase_split(self):
        p = KernelParams(s=1.3, tau=0.8, gamma=0.4 + 0.7j, n=1)
        a, b = 1.1, -0.6
        a_c, b_c, *_ = coefficients_ab(p.s, p.tau)
        val = rho_hat(p, a, b)
        mod = (
            math.exp(-p.gamma.real * p.s * p.tau / 4)
            * math.cosh(p.s * p.tau / 2) ** -0.5
            * math.exp(-a_c * (a * a + b * b) / 2)
        )
        phase = -p.gamma.imag * p.s * p.tau / 4 + b_c * a * b
        assert abs(val) == pytest.approx(mod, rel=1e-13)
        assert math.remainder(np.angle(val) - phase, 2 * math.pi) == pytest.approx(0.0, abs=1e-13)

    def test_conjugation_parity_in_tau(self):
        # rho_hat(s, a, b, -tau; -conj(gamma)) = conj(rho_hat(s, a, b, tau; gamma))
        for gamma in (0.0, 1.0, -1.0, 1j, 0.5 + 0.3j):
            p_fwd = KernelParams(s=1.3, tau=0.7, gamma=gamma, n=1)
            p_rev = KernelParams(s=1.3, tau=-0.7, gamma=-np.conj(gamma), n=1)
            fwd = rho_hat(p_fwd, 0.9, -1.2)
            rev = rho_hat(p_rev, 0.9, -1.2)
            assert rev == pytest.approx(np.conj(fwd), rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3),
        s=st.just(0.0) | st.floats(1e-3, 4.0),
        z=st.just(0.0) | st.floats(1e-12, 0.99e-4) | st.floats(1e-4, 20.0),
        sign=st.sampled_from((1.0, -1.0)),
        gamma=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        coords=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    )
    def test_conjugation_parity_property(self, n, s, z, sign, gamma, coords):
        # |s*tau| = z picks the coefficient branch (Taylor below 1e-4); negating tau and
        # conjugating gamma only flips the signs of imaginary parts, so equality is exact
        tau = sign * (z / s if s > 0 else z)
        alpha, beta = np.array(coords[:n]), np.array(coords[3:3 + n])
        fwd = rho_hat(KernelParams(s=s, tau=tau, gamma=gamma, n=n), alpha, beta)
        rev = rho_hat(KernelParams(s=s, tau=-tau, gamma=-np.conj(gamma), n=n), alpha, beta)
        assert rev == np.conj(fwd)

    def test_product_law(self):
        rng = np.random.default_rng(1234)
        for n in (1, 2, 3, 4):
            for gamma in (0.0, 1.5, 1j):
                p = KernelParams(s=1.2, tau=0.9, gamma=gamma, n=n)
                alpha = rng.uniform(-2, 2, n)
                beta = rng.uniform(-2, 2, n)
                full = rho_hat(p, alpha, beta)
                split = oracles.kernel_product(rho_hat, p, alpha, beta)
                assert abs(split - full) / abs(full) < 1e-13

    def test_product_s_zero(self):
        p = KernelParams(s=0.0, tau=1.0, gamma=1.0, n=3)
        assert oracles.kernel_product(rho_hat, p, np.zeros(3), np.ones(3)) == 1.0

    def test_broadcast_matches_scalar(self):
        p = KernelParams(s=1.0, tau=0.5, gamma=1j, n=1)
        alphas = np.array([-1.0, 0.0, 2.0])
        grid = rho_hat(p, alphas, np.zeros(3))
        for k, a in enumerate(alphas):
            assert grid[k] == rho_hat(p, float(a), 0.0)

    def test_wrong_vector_length_rejected(self):
        p = KernelParams(s=1.0, tau=0.5, n=3)
        with pytest.raises(ValueError):
            rho_hat(p, np.zeros(2), np.zeros(3))


class TestRhoTilde:
    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            rho_tilde(KernelParams(s=0.0, tau=1.0), 0.0, 0.0)

    def test_tau_zero_origin(self):
        p = KernelParams(s=1.0, tau=0.0, gamma=0.0, n=1)
        assert rho_tilde(p, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_tau_zero_profile(self):
        p = KernelParams(s=0.8, tau=0.0, gamma=0.0, n=1)
        for x, y in ((0.5, -0.2), (1.0, 1.0)):
            expect = (math.pi * 0.8) ** -1 * math.exp(-(x * x + y * y) / 0.8)
            assert rho_tilde(p, x, y) == pytest.approx(expect, rel=1e-13)

    def test_origin_value(self):
        p = KernelParams(s=1.0, tau=1.0, gamma=0.0, n=1)
        assert rho_tilde(p, 0.0, 0.0) == pytest.approx(oracles.RHO_TILDE_S1_TAU1_ORIGIN, rel=1e-13)

    @pytest.mark.parametrize("s", (2e-308, 1e-300, 1e-200))
    def test_tiny_s_matches_heat_kernel(self, s):
        # A^2 + B^2 underflows to 0 here, so the A/B form cannot be evaluated; the value is 1/(pi*s)
        p = KernelParams(s=s, tau=1.0)
        expect = heat_kernel_h(p, 0.0, 0.0, 0.0, 0.0)
        assert rho_tilde(p, 0.0, 0.0) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("s", (1e-309, 3e-309, 6e-309, 8e-309, 1e-308, 1.2e-308, 2e-308))
    def test_subnormal_s_like_heat_kernel(self, s):
        # rho_tilde raises exactly where H with its source at the origin does, and equals it elsewhere
        p = KernelParams(s=s, tau=1.0)
        try:
            expect = heat_kernel_h(p, 0.0, 0.0, 0.0, 0.0)
        except KernelOverflowError:
            with pytest.raises(KernelOverflowError):
                rho_tilde(p, 0.0, 0.0)
        else:
            assert rho_tilde(p, 0.0, 0.0) == expect

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 3),
        pairs=_s_tau_pairs(s_zero=False),
        gamma=_GAMMA,
    )
    def test_is_heat_kernel_with_source_at_origin(self, data, n, pairs, gamma):
        s, tau = (np.array(v) for v in zip(*pairs))
        p = KernelParams(s=s, tau=tau, gamma=gamma, n=n)
        coords = st.lists(_COORD, min_size=len(pairs) * n, max_size=len(pairs) * n)
        x, y = (np.reshape(data.draw(coords), (len(pairs), n)) for _ in range(2))
        origin = np.zeros(n)
        assert np.all(rho_tilde(p, x, y) == heat_kernel_h(p, origin, origin, x, y))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3),
        s=st.floats(1e-3, 1e2),
        z=st.just(0.0) | st.floats(1e-12, 0.99e-4) | st.floats(1e-4, 3e3),
        sign=st.sampled_from((1.0, -1.0)),
        gamma=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-3.0, 3.0)),
        unit=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), min_size=1, max_size=4),
    )
    def test_matches_the_ab_form(self, n, s, z, sign, gamma, unit):
        # the coth/sinh form against the A/B form of the Gaussian inversion, at points up to 6
        # envelope widths out.  Tolerance set before measuring: 1e-12 relative (the constant's
        # terms reach ~750 in magnitude, whose few-ulp error is ~3e-13), plus the smallest normal
        # double absolute, below which values lose relative precision as they underflow.
        p = KernelParams(s=s, tau=sign * z / s, gamma=gamma, n=n)
        width = 6.0 / math.sqrt(2 * n * coefficients_ab(p.s, p.tau)[-1])
        points = width * np.array(unit)[:, :2 * n]
        x, y = points[:, :n], points[:, n:]
        got, ref = rho_tilde(p, x, y), oracles.rho_tilde_one_expression(p, x, y)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + np.finfo(float).tiny)

    @pytest.mark.parametrize("gamma", (0.0, 0.5 + 0.2j))
    @pytest.mark.parametrize("tau", (0.0, 1.0, -2.0))
    def test_mass_equals_rho_hat_at_origin(self, tau, gamma):
        # iint rho_tilde dx dy = rho_hat(alpha=0, beta=0)
        p = KernelParams(s=1.0, tau=tau, gamma=gamma, n=1)
        radius = 7.5 / math.sqrt(coefficients_ab(p.s, p.tau)[-1])
        mass = oracles.legendre_integral(
            lambda x: oracles.legendre_integral(
                lambda y: rho_tilde(p, x[:, np.newaxis], y), -radius, radius, order=160
            ),
            -radius,
            radius,
            order=160,
        )
        assert mass == pytest.approx(rho_hat(p, 0.0, 0.0), rel=1e-9)


class TestOrbitSymmetry:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 2),
        s=st.floats(1e-3, 4.0),
        z=st.just(0.0) | st.floats(1e-12, 0.99e-4) | st.floats(1e-4, 20.0),
        sign=st.sampled_from((1.0, -1.0)),
        gamma=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        coords=st.lists(_COORD | st.floats(1e150, 1e308) | st.floats(-1e308, -1e150), min_size=4, max_size=4),
    )
    # summing the squares of (u, v) as one sequence of 2n terms breaks the swap here, at n = 2
    @example(n=2, s=1.3, z=0.91, sign=1.0, gamma=0.5 + 0.25j, coords=[0.3, 0.3, 0.3, -1.9])
    def test_swap_and_sign_flip_keep_the_bits(self, n, s, z, sign, gamma, coords):
        # the exponents read only |u|^2 + |v|^2 and u.v, so dft_inversion_check evaluates one point
        # per orbit of its grids under (u, v) -> (v, u) and (u, v) -> (-u, -v); |s*tau| = z picks
        # the coefficient branch (Taylor below 1e-4), and far-tail arguments overflow the squares
        p = KernelParams(s=s, tau=sign * z / s, gamma=gamma, n=n)
        u, v = np.array(coords[:n]), np.array(coords[2:2 + n])
        for kernel in (rho_hat, rho_tilde):
            value = _bits(kernel(p, u, v))
            assert np.array_equal(_bits(kernel(p, v, u)), value)
            assert np.array_equal(_bits(kernel(p, -u, -v)), value)


class TestHeatKernel:
    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            heat_kernel_h(KernelParams(s=0.0, tau=1.0), 0.0, 0.0, 0.0, 0.0)

    def test_diagonal_value(self):
        # exponent vanishes on the diagonal, twist factor is 1
        for tau in (1.0, -2.0, 0.5):
            for gamma in (0.0, 1.0, 1j):
                p = KernelParams(s=1.2, tau=tau, gamma=gamma, n=1)
                got = heat_kernel_h(p, 0.7, -0.3, 0.7, -0.3)
                expect = (
                    tau
                    * np.exp(-gamma * p.s * tau / 4)
                    / (4 * math.pi * math.sinh(p.s * tau / 4))
                )
                assert got == pytest.approx(expect, rel=1e-13)

    def test_conjugate_symmetry(self):
        for tau in (1.0, -0.5):
            p = KernelParams(s=0.9, tau=tau, gamma=1.0, n=1)
            fwd = heat_kernel_h(p, 0.3, -0.4, 1.2, 0.8)
            bwd = heat_kernel_h(p, 1.2, 0.8, 0.3, -0.4)
            assert fwd == pytest.approx(np.conj(bwd), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 3),
        s=st.floats(0.1, 3.0),
        tau=st.sampled_from((0.0, -0.0)) | st.floats(-3.0, 3.0),
        gamma=_GAMMA,
        points=st.integers(1, 6),
    )
    def test_twist_factorization(self, data, n, s, tau, gamma, points):
        # H(s, x', y', x, y) = rho_tilde(s, x-x', y-y') * exp(-i tau (x-x').y') to 1e-12 relative;
        # coordinates within 2/sqrt(n) keep |x-x'|^2+|y-y'|^2 <= 32, so both sides are normal doubles
        bound = 2.0 / math.sqrt(n)
        xp, yp, x, y = (
            np.reshape(data.draw(st.lists(st.floats(-bound, bound), min_size=points * n, max_size=points * n)), (points, n))
            for _ in range(4)
        )
        p = KernelParams(s=s, tau=tau, gamma=gamma, n=n)
        lhs = heat_kernel_h(p, xp, yp, x, y)
        rhs = rho_tilde(p, x - xp, y - yp) * np.exp(-1j * tau * np.sum((x - xp) * yp, axis=-1))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12

    def test_tau_zero_gaussian_limit(self):
        p = KernelParams(s=0.7, tau=0.0, gamma=3.0, n=1)
        got = heat_kernel_h(p, 0.2, 0.1, 1.0, -0.5)
        expect = (math.pi * 0.7) ** -1 * math.exp(-((1.0 - 0.2) ** 2 + (-0.5 - 0.1) ** 2) / 0.7)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_underflows_to_zero_far_away(self):
        p = KernelParams(s=0.01, tau=1.0, gamma=0.0, n=1)
        assert heat_kernel_h(p, 0.0, 0.0, 120.0, 0.0) == 0.0


def _taus_across_threshold(s):
    """Adjacent doubles tau < tau' with s*tau < TAYLOR_BRANCH_THRESHOLD <= s*tau'."""
    threshold = kernels.TAYLOR_BRANCH_THRESHOLD
    above = threshold / s
    while s * np.nextafter(above, 0.0) >= threshold:
        above = np.nextafter(above, 0.0)
    while s * above < threshold:
        above = np.nextafter(above, np.inf)
    return np.nextafter(above, 0.0), above


class TestTaylorThresholdContinuity:
    """Each kernel is continuous to 1e-12 relative where coefficients_ab switches branch."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        kernel=st.sampled_from(((rho_hat, 2), (rho_tilde, 2), (heat_kernel_h, 4))),
        n=st.integers(1, 3),
        s=st.floats(0.25, 8.0),
        sign=st.sampled_from((1.0, -1.0)),
        gamma=_GAMMA,
        points=st.integers(1, 6),
    )
    def test_kernels(self, data, kernel, n, s, sign, gamma, points):
        function, count = kernel
        args = [
            np.reshape(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=points * n, max_size=points * n)), (points, n))
            for _ in range(count)
        ]
        taylor, closed = (function(KernelParams(s=s, tau=sign * tau, gamma=gamma, n=n), *args)
                          for tau in _taus_across_threshold(s))
        assert np.max(np.abs(taylor - closed) / np.abs(closed)) < 1e-12


# the n = 1 kernels as functions of two spatial arguments; H holds its source point fixed
_TWO_ARGUMENT_KERNELS = {
    "rho_hat": rho_hat,
    "rho_tilde": rho_tilde,
    "heat_kernel_h": lambda p, x, y: heat_kernel_h(p, 0.2, -0.1, x, y),
}


class TestShapeRule:
    @pytest.mark.parametrize("name", list(_TWO_ARGUMENT_KERNELS))
    def test_column_against_row_is_elementwise(self, name):
        kernel = _TWO_ARGUMENT_KERNELS[name]
        p = KernelParams(s=1.0, tau=1.0, gamma=0.3)
        col = np.linspace(-1.0, 1.0, 3)[:, np.newaxis]
        row = np.linspace(-2.0, 2.0, 4)[np.newaxis, :]
        got = kernel(p, col, row)
        assert got.shape == (3, 4)
        expect = np.array([[kernel(p, a, b) for b in row[0]] for a in col[:, 0]])
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)
        assert np.shape(kernel(KernelParams(s=1.0, tau=1.0), np.zeros((3, 1)), np.zeros((1, 4)))) == (3, 4)

    @pytest.mark.parametrize("name", list(_TWO_ARGUMENT_KERNELS))
    def test_trailing_length_one_is_the_component_axis(self, name):
        kernel = _TWO_ARGUMENT_KERNELS[name]
        p = KernelParams(s=1.0, tau=1.0, gamma=0.3)
        col = np.linspace(-1.0, 1.0, 3)[:, np.newaxis]
        got = kernel(p, col, 0.5)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, [kernel(p, a, 0.5) for a in col[:, 0]], rtol=1e-14, atol=0.0)

    def test_n2_needs_two_components(self):
        with pytest.raises(ValueError, match="beta must have 2 components"):
            rho_hat(KernelParams(s=1.0, tau=1.0, n=2), np.zeros((3, 2)), np.zeros((3, 1)))

    @pytest.mark.parametrize("n", (1, 2))
    @pytest.mark.parametrize("kernel, names", (
        (rho_hat, ("alpha", "beta")), (rho_tilde, ("x", "y")), (heat_kernel_h, ("xp", "yp", "x", "y")),
    ))
    def test_nan_argument_is_named(self, kernel, names, n):
        p = KernelParams(s=1.0, tau=1.0, n=n)
        for k, name in enumerate(names):
            args = [np.full((3, n), 0.3) for _ in names]
            args[k][1, -1] = np.nan
            with pytest.raises(ValueError, match=f"^{name} has a NaN entry$"):
                kernel(p, *args)


class TestQuadraticForms:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_bits_as_np_sum(self, n):
        # the kernels' outputs stay byte-identical to the np.sum reductions for n < 8,
        # a -0.0 product included: both start from +0
        rng = np.random.default_rng(n)
        u, v, w = rng.normal(size=(3, 50, n)) * 10.0 ** rng.integers(-3, 4, (3, 50, n))
        for a in (u, v, w):
            a[rng.random(a.shape) < 0.3] = -0.0
        sq, dot = kernels._quadratic_forms(u, v, w)
        assert np.array_equal(_bits(sq), _bits(np.sum(u * u, axis=-1) + np.sum(v * v, axis=-1)))
        assert np.array_equal(_bits(dot), _bits(np.sum(u * w, axis=-1)))
        assert np.array_equal(_bits(kernels._quadratic_forms(*np.full((3, 1), -0.0))[1]), _bits(0.0))


class TestApplyKernel:
    def test_n2_is_outer_product_of_two_n1_applies(self):
        # H for n = 2 is the product of two n = 1 kernels with gamma/2 each, so on a
        # product rule a product field applies factor by factor
        s, tau, gamma = 0.4, -0.8, 0.6 + 0.3j
        rng = np.random.default_rng(5)
        x1, x2, y1, y2 = (
            np.linspace(lo, lo + 5.0, k) for lo, k in ((-3, 9), (-2.5, 8), (-2, 7), (-2.5, 10))
        )
        wx1, wx2, wy1, wy2 = (rng.uniform(0.2, 0.8, len(a)) for a in (x1, x2, y1, y2))
        f1 = np.exp(-np.add.outer(x1**2, y1**2)) * (1 + 0.3j * x1[:, np.newaxis])
        f2 = np.exp(-np.add.outer(x2**2, 0.5 * y2**2)) * (1 - 0.2j * y2)
        out1_x, out1_y = np.array([[-0.5], [0.0], [0.8]]), np.array([[0.3], [-0.4], [0.1]])
        out2_x, out2_y = np.array([[0.2], [-1.0], [0.5], [0.0]]), np.array([[0.0], [0.6], [-0.3], [0.9]])
        half = KernelParams(s=s, tau=tau, gamma=gamma / 2, n=1)
        g1 = apply_kernel(half, [x1, y1], [wx1, wy1], f1, out1_x, out1_y)
        g2 = apply_kernel(half, [x2, y2], [wx2, wy2], f2, out2_x, out2_y)
        pairs = [(i, j) for i in range(3) for j in range(4)]
        x = np.array([(out1_x[i, 0], out2_x[j, 0]) for i, j in pairs])
        y = np.array([(out1_y[i, 0], out2_y[j, 0]) for i, j in pairs])
        f = np.einsum("ac,bd->abcd", f1, f2)  # mesh order x'_1, x'_2, y'_1, y'_2
        g = apply_kernel(
            KernelParams(s=s, tau=tau, gamma=gamma, n=2),
            [x1, x2, y1, y2], [wx1, wx2, wy1, wy2], f, x, y,
        )
        assert g.shape == (12,)
        assert np.max(np.abs(g - np.outer(g1, g2).ravel())) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("n, longest", ((1, 40), (2, 8)))
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        s=st.floats(0.1, 2.0),
        tau=st.just(0.0) | st.floats(-1e-5, 1e-5) | st.floats(-3.0, 3.0),
        gamma=st.complex_numbers(max_magnitude=2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_point_sum(self, n, longest, data, s, tau, gamma, seed):
        # unequal axis lengths; random non-tensor output points, some outside the input box
        lengths = data.draw(st.lists(st.integers(2, longest), min_size=2 * n, max_size=2 * n))
        rng = np.random.default_rng(seed)
        nodes = [np.linspace(rng.uniform(-3.0, -0.5), rng.uniform(0.5, 3.0), k) for k in lengths]
        weights = [rng.uniform(0.1, 1.0, k) for k in lengths]
        values = rng.normal(size=lengths) + 1j * rng.normal(size=lengths)
        x, y = rng.uniform(-4.0, 4.0, (2, int(rng.integers(1, 13)), n))
        params = KernelParams(s=s, tau=tau, gamma=gamma, n=n)
        got = apply_kernel(params, nodes, weights, values, x, y)
        expect = oracles.apply_per_point(params, nodes, weights, values, x, y)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("name", ("s", "tau", "gamma"))
    @pytest.mark.parametrize("length", (5, 3))
    def test_non_scalar_params_rejected(self, name, length):
        # an array of 5 values would broadcast along the 5-node axis and give wrong sums
        axis = np.linspace(-1.0, 1.0, 5)
        params = replace(KernelParams(s=1.0, tau=1.0, gamma=0.5), **{name: np.linspace(0.5, 1.0, length)})
        with pytest.raises(ValueError, match=f"scalar {name}, got shape \\({length},\\)"):
            apply_kernel(params, [axis, axis], [axis, axis], np.ones((5, 5)), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_output_points_follow_the_shape_rule(self):
        axis = np.linspace(-1.0, 1.0, 5)
        p1, rule = KernelParams(s=0.5, tau=1.0, gamma=0.3), ([axis, axis], [np.full(5, 0.5)] * 2)
        col = np.array([[-0.4], [0.0], [0.7]])
        expect = apply_kernel(p1, *rule, np.ones(25), col, col[::-1])
        for x, y in ((col[:, 0], col[::-1, 0]), (col[:, 0], col[::-1]), (col.T, col[::-1].T)):
            assert np.array_equal(apply_kernel(p1, *rule, np.ones(25), x, y), expect)
        # at n = 2 a (4, 3) array is not six points, as for heat_kernel_h
        p2 = KernelParams(s=0.5, tau=1.0, n=2)
        with pytest.raises(ValueError, match="x must have 2 components along the last axis"):
            apply_kernel(p2, [axis] * 4, [axis] * 4, np.ones(5**4), np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="x must have 2 components along the last axis"):
            heat_kernel_h(p2, np.zeros(2), np.zeros(2), np.zeros((4, 3)), np.zeros((4, 3)))

    @pytest.mark.parametrize("name", ("x", "y"))
    def test_nan_output_point_is_named(self, name):
        axis = np.linspace(-1.0, 1.0, 5)
        points = {"x": np.zeros((2, 1)), "y": np.zeros((2, 1))}
        points[name][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"^{name} has a NaN entry$"):
            apply_kernel(KernelParams(s=0.5, tau=1.0), [axis, axis], [axis, axis], np.ones(25), **points)

    def test_rule_count_must_be_2n(self):
        axis = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="4 node and weight arrays"):
            apply_kernel(
                KernelParams(s=1.0, tau=1.0, n=2), [axis, axis], [axis, axis],
                np.ones((5, 5)), np.zeros((1, 2)), np.zeros((1, 2)),
            )


class TestSimplificationIdentities:
    def test_frozen_examples(self):
        ratio_b, ratio_ab = oracles.simplification_ratios(1.0, 2.0)
        assert ratio_b == pytest.approx(1.0, rel=1e-12)
        assert ratio_ab == pytest.approx(oracles.COTH_HALF, rel=1e-12)
        ratio_b, ratio_ab = oracles.simplification_ratios(2.0, 1.0)
        assert ratio_b == pytest.approx(0.5, rel=1e-12)
        assert ratio_ab == pytest.approx(oracles.COTH_HALF, rel=1e-12)

    def test_odd_symmetry_in_tau(self):
        for s, tau in ((1.0, 2.0), (0.3, 0.7), (4.0, -1.1)):
            rb_pos, _ = oracles.simplification_ratios(s, tau)
            rb_neg, _ = oracles.simplification_ratios(s, -tau)
            assert rb_neg == pytest.approx(-rb_pos, rel=1e-14)

    def test_identity_sweep(self):
        worst_b = worst_ab = 0.0
        for s in np.linspace(0.31, 10.0, 31):
            for tau in np.concatenate([np.linspace(-10, -0.07, 17), np.linspace(0.07, 10, 17)]):
                rb, rab = oracles.simplification_ratios(float(s), float(tau))
                worst_b = max(worst_b, abs(rb - tau / 2) / abs(tau / 2))
                expect = math.cosh(s * tau / 4) / math.sinh(s * tau / 4)
                worst_ab = max(worst_ab, abs(rab - expect) / abs(expect))
        assert worst_b < 1e-12
        assert worst_ab < 1e-12


class TestGridEvaluation:
    def test_single_point_s_zero(self):
        grid = GridSpec((GridAxis("alpha", 0.0, 0.0, 1), GridAxis("beta", 0.0, 0.0, 1)))
        sample = evaluate_on_grid("rho-hat", KernelParams(s=0.0, tau=1.0), grid)
        assert sample.values.tolist() == [1.0 + 0.0j]

    def test_three_point_alpha_axis_tau_zero(self):
        grid = GridSpec((GridAxis("alpha", -1.0, 1.0, 3), GridAxis("beta", 0.0, 0.0, 1)))
        sample = evaluate_on_grid("rho-hat", KernelParams(s=1.0, tau=0.0), grid)
        expect = [math.exp(-0.25), 1.0, math.exp(-0.25)]
        assert np.allclose(sample.values.real, expect, rtol=1e-14)
        assert np.all(sample.values.imag == 0.0)

    def test_grid_matches_pointwise_loop(self):
        p = KernelParams(s=0.8, tau=1.5, gamma=1j, n=1)
        grid = GridSpec((GridAxis("alpha", -1.0, 1.0, 4), GridAxis("beta", -0.5, 0.5, 3)))
        sample = evaluate_on_grid("rho-hat", p, grid)
        coords = grid.coordinates()
        for i in range(grid.size):
            direct = rho_hat(p, float(coords["alpha"][i]), float(coords["beta"][i]))
            assert sample.values[i] == direct

    def test_s_axis_loop_path(self):
        p = KernelParams(s=1.0, tau=0.0, gamma=0.0, n=1)
        grid = GridSpec((GridAxis("s", 0.5, 2.0, 4), GridAxis("alpha", 1.0, 1.0, 1)))
        sample = evaluate_on_grid("rho-hat", p, grid)
        for i, s in enumerate(np.linspace(0.5, 2.0, 4)):
            assert sample.values[i] == pytest.approx(math.exp(-s / 4), rel=1e-14)

    def test_heat_kernel_axes(self):
        p = KernelParams(s=1.0, tau=1.0, gamma=0.0, n=1)
        grid = GridSpec((GridAxis("x", -1.0, 1.0, 3),))
        sample = evaluate_on_grid("heat-kernel", p, grid)
        # unspecified components (xp, yp, y) default to 0
        for i, x in enumerate((-1.0, 0.0, 1.0)):
            assert sample.values[i] == heat_kernel_h(p, 0.0, 0.0, float(x), 0.0)

    def test_axis_kernel_mismatch(self):
        grid = GridSpec((GridAxis("x", -1.0, 1.0, 3),))
        with pytest.raises(GridMismatchError):
            evaluate_on_grid("rho-hat", KernelParams(s=1.0, tau=0.0), grid)
        with pytest.raises(GridMismatchError):
            evaluate_on_grid("unknown", KernelParams(s=1.0, tau=0.0), grid)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            GridAxis("alpha", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            GridAxis("alpha", 2.0, 1.0, 3)
        # finite bounds whose span overflows: linspace would warn and return non-finite points
        with pytest.raises(ValueError, match="span"):
            GridAxis("alpha", -1e308, 1e308, 3)
        # one point at min: a different max would not read back from CSV
        with pytest.raises(ValueError, match="axis alpha: a count-1 axis needs min == max"):
            GridAxis("alpha", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridSpec((GridAxis("alpha", 0.0, 1.0, 2), GridAxis("alpha", 0.0, 1.0, 2)))

    @pytest.mark.parametrize("n", (1, 2))
    def test_work_bound_at_its_edge(self, monkeypatch, n):
        # points x n at the bound passes the check and reaches the coordinates, stubbed so that no
        # grid is built; one point more is a ValueError naming the sizes, raised before them
        class Reached(Exception):
            pass

        def coordinates(grid):
            raise Reached

        monkeypatch.setattr(GridSpec, "coordinates", coordinates)
        name, count = ("alpha" if n == 1 else "alpha1"), kernels._MAX_WORK // n
        with pytest.raises(Reached):
            evaluate_on_grid("rho-hat", KernelParams(1.0, 1.0, n=n), GridSpec((GridAxis(name, 0.0, 1.0, count),)))
        past = GridSpec((GridAxis(name, 0.0, 1.0, count + 1),))
        with pytest.raises(ValueError, match=f"^{count + 1} grid points x n = {n} is {(count + 1) * n}, past the work"):
            evaluate_on_grid("rho-hat", KernelParams(1.0, 1.0, n=n), past)

    def test_size_past_int64(self):
        # counts are Python ints, so their product does not wrap (2**64 read as 0 in int64)
        grid = GridSpec((GridAxis("a", 0.0, 1.0, 2**32), GridAxis("b", 0.0, 1.0, 2**32)))
        assert grid.size == 2**64

    def test_empty_grid_rejected(self):
        # an axis-free grid has size 1 but no coordinates to write
        with pytest.raises(ValueError, match="at least one axis"):
            GridSpec(())


class TestFieldSampleSerialization:
    @staticmethod
    def _sample():
        p = KernelParams(s=1.0, tau=0.7, gamma=0.5 + 0.25j, n=1)
        grid = GridSpec((GridAxis("alpha", -1.0, 1.0, 5), GridAxis("beta", -0.3, 0.9, 2)))
        return evaluate_on_grid("rho-hat", p, grid)

    def test_values_length_checked(self):
        grid = GridSpec((GridAxis("alpha", 0.0, 1.0, 3),))
        with pytest.raises(ValueError):
            FieldSample(grid=grid, values=np.ones(2, dtype=complex))

    def test_nonfinite_rejected(self):
        grid = GridSpec((GridAxis("alpha", 0.0, 1.0, 2),))
        with pytest.raises(ValueError):
            FieldSample(grid=grid, values=np.array([1.0, np.nan], dtype=complex))

    def test_json_round_trip_bitwise(self, tmp_path):
        sample = self._sample()
        path = tmp_path / "field.json"
        path.write_text(sample.to_json_text(), encoding="ascii")
        loaded = FieldSample.from_json(path)
        assert np.array_equal(loaded.values, sample.values)
        assert loaded.grid == sample.grid
        assert loaded.params == sample.params
        assert loaded.kernel == sample.kernel
        # 17-significant-digit decimal representations match exactly
        for a, b in zip(loaded.values, sample.values):
            assert format(a.real, ".17g") == format(b.real, ".17g")
            assert format(a.imag, ".17g") == format(b.imag, ".17g")

    def test_json_values_keep_every_bit(self, tmp_path):
        grid = GridSpec((GridAxis("x", 0.0, 1.0, 3),))
        doc = {"grid": [{"name": "x", "min": 0.0, "max": 1.0, "count": 3}],
               "values": [[-0.0, -0.0], [5e-324, -1.5], [1, 0.1]]}
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        loaded = FieldSample.from_json(path)
        expect = np.array([complex(-0.0, -0.0), complex(5e-324, -1.5), complex(1.0, 0.1)])
        assert loaded.grid == grid
        assert np.array_equal(loaded.values.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize(
        "row", (["1", "2"], None, [1.0], [1.0, 2.0, 3.0], [True, 0.0], [1.0, [2.0]], "ab", {"re": 1.0}, [10**400, 0.0]),
    )
    def test_json_values_must_be_number_pairs(self, tmp_path, row):
        sample = self._sample()
        doc = json.loads(sample.to_json_text())
        doc["values"][1] = row
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        with pytest.raises(ValueError, match="^values must be a list of"):
            FieldSample.from_json(path)

    @pytest.mark.parametrize("keys, value, message", (
        pytest.param(("grid", 0, "count"), 2.7, "count must be a JSON integer, got 2.7", id="count-2.7"),
        pytest.param(("grid", 0, "count"), "2", "count must be a JSON integer, got '2'", id="count-string"),
        pytest.param(("grid", 0, "count"), True, "count must be a JSON integer, got True", id="count-bool"),
        # an integer token, so the grid's size, a Python int, cannot match the values
        pytest.param(("grid", 0, "count"), 10**400, "values length 10 != grid size 2000", id="count-10**400"),
        pytest.param(("grid", 0, "min"), "0", "min must be a JSON number, got '0'", id="min-string"),
        pytest.param(("grid", 0, "min"), True, "min must be a JSON number, got True", id="min-bool"),
        pytest.param(("grid", 0, "max"), 10**400, "max exceeds the double range", id="max-10**400"),
        pytest.param(("params", "s"), "1", "s must be a JSON number, got '1'", id="s-string"),
        pytest.param(("params", "tau"), None, "tau must be a JSON number, got None", id="tau-null"),
        pytest.param(("params", "gamma"), [0.5, "0"], "gamma must be a JSON number, got '0'", id="gamma-string"),
        pytest.param(("params", "gamma"), [0.5, 0.25, 0.0], "gamma must be an \\[re, im\\] pair", id="gamma-triple"),
        pytest.param(("params", "gamma"), 5, "gamma must be an \\[re, im\\] pair", id="gamma-number"),
        pytest.param(("params", "n"), 1.9, "n must be a JSON integer, got 1.9", id="n-1.9"),
        pytest.param(("params", "n"), "1", "n must be a JSON integer, got '1'", id="n-string"),
        pytest.param(("kernel",), 5, "kernel must be a JSON string, got 5", id="kernel-5"),
        pytest.param(("grid", 0, "name"), 5, "name must be a JSON string, got 5", id="name-5"),
        pytest.param(("grid",), {"x": 1}, "grid must be a list of axis objects, got \\{'x': 1\\}", id="grid-object"),
        pytest.param(("grid",), [5], "grid must be a list of axis objects, got \\[5\\]", id="grid-of-numbers"),
    ))
    def test_json_header_fields_must_be_numbers(self, tmp_path, keys, value, message):
        doc = json.loads(self._sample().to_json_text())
        *path, last = keys
        functools.reduce(operator.getitem, path, doc)[last] = value
        (tmp_path / "field.json").write_text(json.dumps(doc), encoding="ascii")
        with pytest.raises(ValueError, match=f"^{message}"):
            FieldSample.from_json(tmp_path / "field.json")

    def test_json_must_be_an_object(self, tmp_path):
        (tmp_path / "field.json").write_text("[1, 2]", encoding="ascii")
        with pytest.raises(ValueError, match=r"^a field must be a JSON object, got \[1, 2\]"):
            FieldSample.from_json(tmp_path / "field.json")

    @pytest.mark.parametrize("lines, message", (
        (["x,y,a,b", "0,0,1,0"], "CSV must end with re,im columns"),
        # x and y take 2 values each, but only 3 of the 4 grid points have a row
        (["x,y,re,im", "0,0,1,0", "0,1,1,0", "1,0,1,0"], "CSV rows do not form a full row-major rectangular grid"),
        # the 4 grid points with y varying slowest
        (["x,y,re,im", "0,0,1,0", "1,0,1,0", "0,1,1,0", "1,1,1,0"], "CSV rows are not in row-major grid order"),
    ), ids=("header", "missing-row", "column-major"))
    def test_csv_layout_rejected(self, tmp_path, lines, message):
        (tmp_path / "field.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(ValueError, match=f"^{message}"):
            FieldSample.from_csv(tmp_path / "field.csv")

    def test_json_is_parseable(self, tmp_path):
        sample = self._sample()
        path = tmp_path / "field.json"
        path.write_text(sample.to_json_text(), encoding="ascii")
        doc = json.loads(path.read_text())
        assert doc["kernel"] == "rho-hat"
        assert len(doc["values"]) == sample.grid.size

    def test_csv_round_trip(self, tmp_path):
        sample = self._sample()
        path = tmp_path / "field.csv"
        path.write_text(sample.to_csv_text(), encoding="ascii")
        header = path.read_text().splitlines()[0]
        assert header == "alpha,beta,re,im"
        loaded = FieldSample.from_csv(path)
        assert np.array_equal(loaded.values, sample.values)
        assert loaded.grid == sample.grid

    def test_json_round_trip_keeps_the_sign_of_zero(self, tmp_path):
        # the writer renders -0.0 as "-0", a JSON integer token
        grid = GridSpec((GridAxis("x", 0.0, 1.0, 4),))
        values = np.array([complex(-0.0, 1), complex(1, -0.0), complex(-0.0, -0.0), complex(0.0, 0.0)])
        path = tmp_path / "field.json"
        path.write_text(FieldSample(grid=grid, values=values).to_json_text(), encoding="ascii")
        loaded = FieldSample.from_json(path)
        assert np.array_equal(loaded.values.view(np.uint64), values.view(np.uint64))


# re and im parts the writers must render as the per-value reference does
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 2.2250738585072014e-308, 1.0, -1.0, 0.1)


@st.composite
def _field_samples(draw):
    """1-4 axes of 1-5 points; values of random magnitude with edge cases at random places, or
    drawn from a small pool that holds 0.0 with -0.0 and each x with -x, every member placed once."""
    axes = []
    for name in "abcd"[: draw(st.integers(1, 4))]:
        # the span of any two bounds within +-8e307 is a finite double
        lo, hi = sorted(draw(st.lists(st.floats(-8e307, 8e307), min_size=2, max_size=2)))
        count = draw(st.integers(1, 5))
        axes.append(GridAxis(name, lo, hi if count > 1 else lo, count))
    grid = GridSpec(tuple(axes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3))
        pool = np.array([0.0, -0.0, *xs, *(-x for x in xs)])
        parts = pool[rng.integers(len(pool), size=2 * grid.size)]
        parts[rng.permutation(2 * grid.size)[: len(pool)]] = pool[: 2 * grid.size]
    else:
        parts = rng.standard_normal(2 * grid.size) * 10.0 ** rng.integers(-320, 308, 2 * grid.size)
        edges = draw(st.lists(st.sampled_from(_EDGE_FLOATS), max_size=2 * grid.size))
        parts[rng.permutation(2 * grid.size)[: len(edges)]] = edges
    params = draw(st.none() | st.just(KernelParams(s=0.5, tau=-1e-5, gamma=-0.0 + 2.5j, n=2)))
    return FieldSample(grid=grid, values=parts.view(complex), kernel="rho-hat", params=params)


class TestWritersMatchPerValueReference:
    """to_csv_text and to_json_text are byte-identical to the per-row oracles.

    The chunk length is drawn too, so small grids cover templates that split
    the last axis and templates that hold several of its runs.
    """

    @settings(max_examples=150, deadline=None)
    @given(sample=_field_samples(), chunk=st.sampled_from((1, 2, 3, 7, kernels._WRITE_CHUNK_ROWS)))
    def test_random_grids(self, sample, chunk):
        with mock.patch.object(kernels, "_WRITE_CHUNK_ROWS", chunk):
            assert sample.to_csv_text() == oracles.csv_text_per_row(sample)
            assert sample.to_json_text() == oracles.json_text_per_pair(sample)

    @pytest.mark.parametrize("counts", (
        (2 * kernels._WRITE_CHUNK_ROWS + 3,),
        (3, kernels._WRITE_CHUNK_ROWS + 1),
        (kernels._WRITE_CHUNK_ROWS + 5, 1),
    ))
    def test_grids_past_one_chunk(self, counts):
        grid = GridSpec(tuple(GridAxis(name, -1.5, 2.0 if c > 1 else -1.5, c) for name, c in zip("xy", counts)))
        rng = np.random.default_rng(len(counts))
        sample = FieldSample(grid=grid, values=rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
        assert sample.to_csv_text() == oracles.csv_text_per_row(sample)
        assert sample.to_json_text() == oracles.json_text_per_pair(sample)

    @pytest.mark.parametrize("writer", ("to_csv_text", "to_json_text"))
    def test_memory_peak_on_a_symmetric_field(self, writer):
        # the output text and its chunks, at most 0.5 MiB more: per-value formatting peaked at
        # 13.86 MiB for the 6.90 MiB CSV and 8.47 MiB for the 4.23 MiB JSON
        grid = GridSpec((GridAxis("x", -3.0, 3.0, 301), GridAxis("y", -3.0, 3.0, 301)))
        sample = evaluate_on_grid("rho-tilde", KernelParams(s=1.0, tau=0.7, gamma=0.5), grid)
        tracemalloc.start()
        try:
            size = len(getattr(sample, writer)())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * size + 2**19


def _format_17g(x):
    """kernels._format_17g of each double of `x` as bytes, and how many of them "%.17g" itself wrote."""
    out = np.zeros((len(x), 24), np.uint8)
    slow = kernels._format_17g(x, out)
    return out.view("S24").ravel().tolist(), slow


def _percent_17g(x):
    return [b"%.17g" % v for v in x.tolist()]


# every power of ten from the smallest subnormal one up, rounded to a double, and its neighbours
_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])


class TestFormat17g:
    """The writers' digits, made by numpy arithmetic, are "%.17g"'s bytes for every finite double."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ordered=st.booleans())
    def test_random_bit_patterns(self, seed, ordered):
        # all exponents, subnormals and both zeros; sorted by bits, as the writers pass them, or not
        bits = np.random.default_rng(seed).integers(0, 2**64, 2000, dtype=np.uint64).view(np.int64)
        x = (np.unique(bits) if ordered else bits).view(float)
        x = x[np.isfinite(x)]
        assert _format_17g(x)[0] == _percent_17g(x)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_powers_of_ten_and_their_neighbours(self, sign):
        # np.log10 can be one off next to a power of ten, and a product can round up to 1e17
        x = np.concatenate([_POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, 0), np.nextafter(_POWERS_OF_TEN, np.inf)])
        x = sign * np.unique(x[np.isfinite(x)])
        assert _format_17g(x)[0] == _percent_17g(x)

    @pytest.mark.parametrize("value, slow", (
        # exact decimal ties, which "%.17g" rounds half to even: 2**-25 = 2.98023223876953125e-08 is
        # written 2.9802322387695312e-08, and 10240000001/1024 = 10000000.0009765625 10000000.000976562
        (2.0**-25, 1), (-3 * 2.0**-25, 1), (10240000001 / 1024, 1),
        # zeros, subnormals and |x| outside [1e-291, 1e307)
        (0.0, 1), (-0.0, 1), (5e-324, 1), (2.2250738585072014e-308, 1), (1.7976931348623157e308, 1), (1e307, 1),
        (1e-291, 0), (np.nextafter(1e307, 0), 0),
        # trailing zeros cut: an integer at k = 16, a mantissa of one digit, a short fraction
        (1e16, 0), (12345678901234568.0, 0), (-5e-200, 0), (0.00025, 0), (1200.5, 0), (1e22, 0),
    ))
    def test_what_goes_to_percent_17g(self, value, slow):
        assert _format_17g(np.array([value])) == ([b"%.17g" % value], slow)


class TestKernelParams:
    def test_box_b_constructor(self):
        p = KernelParams.for_box_b(s=1.0, tau=2.0, n=3, q=1)
        assert p.gamma == 1.0 + 0.0j
        with pytest.raises(ValueError):
            KernelParams.for_box_b(s=1.0, tau=2.0, n=2, q=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelParams(s=-0.1, tau=0.0)
        with pytest.raises(ValueError):
            KernelParams(s=1.0, tau=0.0, n=0)

    @pytest.mark.parametrize(
        "s, tau, name",
        [
            (math.nan, 1.0, "s"),
            (math.inf, 1.0, "s"),
            (1.0, math.inf, "tau"),
            (1.0, math.nan, "tau"),
            (1.0, np.array([0.5, math.inf]), "tau"),
            (np.array([1.0, -1e-3]), 1.0, "heat time s"),
        ],
    )
    def test_rejects_non_finite_and_negative(self, s, tau, name):
        with pytest.raises(ValueError, match=name):
            KernelParams(s=s, tau=tau)

    @pytest.mark.parametrize(
        "s, tau, gamma, name",
        [
            (1.0, 1.0, complex(math.nan, 0.0), "gamma must be finite"),
            (1.0, 1.0, complex(0.0, math.inf), "gamma must be finite"),
            (1.0, 1.0, np.array([0.5, math.nan]), "gamma must be finite"),
            (1e300, 1e10, 0.0, r"s\*tau must be finite"),
            (np.array([1.0, 1e300]), -1e10, 0.0, r"s\*tau"),
            (1.0, 1e10, 1e300, r"gamma\*s\*tau"),
        ],
    )
    def test_rejects_non_finite_gamma_and_overflowing_products(self, s, tau, gamma, name):
        with pytest.raises(ValueError, match=name):
            KernelParams(s=s, tau=tau, gamma=gamma)


class TestKernelOverflow:
    """A value past the double range is a named error, not inf with a RuntimeWarning."""

    PARAMS = KernelParams(s=1.0, tau=1000.0, gamma=-10.0)

    @pytest.mark.parametrize(
        "kernel, args",
        [(rho_hat, (0.0, 0.0)), (rho_tilde, (0.0, 0.0)), (heat_kernel_h, (0.0, 0.0, 0.0, 0.0))],
    )
    def test_named_error(self, kernel, args):
        with pytest.raises(KernelOverflowError, match=r"gamma=-10.0, s=1.0, tau=1000.0"):
            kernel(self.PARAMS, *args)

    @pytest.mark.parametrize(
        "kernel, args",
        [
            (rho_tilde, (0.0, 0.0)),
            (heat_kernel_h, (0.0, 0.0, 0.0, 0.0)),
            (apply_kernel, ([np.zeros(2)] * 2, [np.ones(2)] * 2, np.ones(4), 0.0, 0.0)),
        ],
    )
    def test_subnormal_s(self, kernel, args):
        # the envelope ~1/s is past the double range: a named error, not NaN
        with pytest.raises(KernelOverflowError, match=r"exceeds the double range .* s=1e-310"):
            kernel(KernelParams(s=1e-310, tau=1.0), *args)

    def test_message_reads_the_exponent_before_it_is_overwritten(self):
        # exp runs in place over the exponent; the message still gives its largest real part
        with pytest.raises(KernelOverflowError, match=r"log\|value\| up to 748\.845\)"):
            heat_kernel_h(KernelParams(1.0, 1.0, -3000.0), 0.0, 0.0, np.zeros(3), np.zeros(3))

    def test_just_inside_the_range(self):
        # e**(-gamma*s*tau/4) with gamma*s*tau/4 = -709 is finite; the check lets it through
        value = rho_hat(KernelParams(s=0.0, tau=1.0), 0.0, 0.0) * math.exp(709.0)
        got = rho_hat(KernelParams(s=1e-6, tau=1.0, gamma=-4 * 709.0 * 1e6), 0.0, 0.0)
        assert got == pytest.approx(value, rel=1e-9)


def _rho_hat_limit(tau, n, alpha, beta):
    """2**(n/2) * exp(-(|alpha|^2+|beta|^2)/(2|tau|) + i*alpha.beta/tau): rho_hat as s -> inf at gamma = -n*sign(tau)."""
    sq = np.sum(alpha * alpha, axis=-1) + np.sum(beta * beta, axis=-1)
    return 2.0 ** (n / 2) * np.exp(-sq / (2 * np.abs(tau)) + 1j * np.sum(alpha * beta, axis=-1) / tau)


def _heat_kernel_limit(tau, n, xp, yp, x, y):
    """(|tau|/(2 pi))**n * exp(-(|tau|/4)(|x-x'|^2+|y-y'|^2) - i(tau/2)(x-x').(y+y')), H's limit there."""
    u, v = x - xp, y - yp
    sq = np.sum(u * u, axis=-1) + np.sum(v * v, axis=-1)
    twist = np.sum(u * (y + yp), axis=-1)
    return (np.abs(tau) / (2 * np.pi)) ** n * np.exp(-0.25 * np.abs(tau) * sq - 0.5j * tau * twist)


class TestLongTimeLimit:
    """At gamma = -n*sign(tau) the kernels tend to finite limits as s -> inf, reached in doubles from s*|tau| = 80.

    A -> 1/|tau|, B -> 1/tau and coth(s*tau/4) -> sign(tau).  Stated before
    measuring: each kernel value within 1e-14 of its limit, relative, and
    each apply_kernel sum within 1e-14 of the limit's sum, relative to the
    sum of its terms' moduli.  Coordinates keep every exponent below ~12.
    """

    TAUS = (-2.0, -1.0, -0.5, 0.5, 2.0)
    S_TAUS = (1e2, 1e6, 1e9, 1e12, 1e15, 1e17)
    POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.5], [-0.7, 0.3], [0.4, -1.0]])

    @staticmethod
    def _params(n, s_tau, tau):
        tau = np.asarray(tau, dtype=float)
        return KernelParams(s=s_tau / np.abs(tau), tau=tau, gamma=-n * np.sign(tau), n=n)

    @staticmethod
    def _close(got, expect, rel=1e-14):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= rel

    @pytest.mark.parametrize("n", (1, 2))
    def test_table(self, n):
        # every (tau, s*|tau|) of the table in one call per kernel: params (K, 1) against points (P,)
        tau, s_tau = (g.reshape(-1, 1) for g in np.meshgrid(self.TAUS, self.S_TAUS, indexing="ij"))
        params = self._params(n, s_tau, tau)
        a, b = (np.repeat(self.POINTS[:, k:k + 1], n, axis=1) / math.sqrt(n) for k in (0, 1))
        self._close(rho_hat(params, a, b), _rho_hat_limit(tau, n, a, b))
        self._close(rho_tilde(params, a, b), _heat_kernel_limit(tau, n, 0.0, 0.0, a, b))
        xp, yp = -0.5 * b, 0.25 * a
        self._close(heat_kernel_h(params, xp, yp, a, b), _heat_kernel_limit(tau, n, xp, yp, a, b))

    @pytest.mark.parametrize("n, s, value", ((1, 1e17, math.sqrt(2.0)), (2, 1e12, 2.0), (2, 1e16, 2.0)))
    def test_rho_hat_at_origin(self, n, s, value):
        got = rho_hat(KernelParams.for_box_b(s, -1.0, n, 0), np.zeros(n), np.zeros(n))
        assert got == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("n, count", ((1, 9), (2, 4)))
    def test_apply_kernel(self, n, count):
        rng = np.random.default_rng(17)
        nodes = [np.linspace(-1.0, 1.0, count) / math.sqrt(n)] * (2 * n)
        weights = [rng.uniform(0.2, 1.0, count) for _ in range(2 * n)]
        values = rng.normal(size=(count,) * (2 * n)) + 1j * rng.normal(size=(count,) * (2 * n))
        x, y = rng.uniform(-1.0, 1.0, (2, 3, n)) / math.sqrt(n)
        meshes = np.meshgrid(*nodes, indexing="ij")
        xp, yp = (np.stack([m.ravel() for m in part], axis=-1) for part in (meshes[:n], meshes[n:]))
        wf = functools.reduce(np.multiply.outer, weights).ravel() * values.ravel()
        for tau, s_tau in itertools.product(self.TAUS, self.S_TAUS):
            got = apply_kernel(self._params(n, s_tau, tau), nodes, weights, values, x, y)
            terms = wf * _heat_kernel_limit(tau, n, xp, yp, x[:, np.newaxis], y[:, np.newaxis])
            assert np.all(np.abs(got - terms.sum(axis=1)) <= 1e-14 * np.abs(terms).sum(axis=1))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 3),
        s_tau=st.floats(80.0, 1e17),
        tau=st.floats(0.5, 2.0),
        sign=st.sampled_from((1.0, -1.0)),
        points=st.integers(1, 4),
    )
    def test_property(self, data, n, s_tau, tau, sign, points):
        coord = st.floats(-1.0, 1.0)
        xp, yp, x, y = (
            np.reshape(data.draw(st.lists(coord, min_size=points * n, max_size=points * n)), (points, n))
            for _ in range(4)
        )
        tau *= sign
        params = self._params(n, s_tau, tau)
        self._close(rho_hat(params, x, y), _rho_hat_limit(tau, n, x, y))
        self._close(rho_tilde(params, x, y), _heat_kernel_limit(tau, n, 0.0, 0.0, x, y))
        self._close(heat_kernel_h(params, xp, yp, x, y), _heat_kernel_limit(tau, n, xp, yp, x, y))


class TestProductFactorization:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        kernel=st.sampled_from(((rho_hat, 2), (rho_tilde, 2), (heat_kernel_h, 4))),
        n=st.integers(2, 3),
        s=st.floats(0.1, 3.0),
        tau=st.sampled_from((0.0, -0.0)) | st.floats(-3.0, 3.0),
        gamma=_GAMMA,
        points=st.integers(1, 4),
    )
    def test_product_of_one_dimensional_kernels(self, data, kernel, n, s, tau, gamma, points):
        # the n-dimensional kernel is the product of n one-dimensional kernels with gamma/n, to 1e-12
        # relative; coordinates within 2/sqrt(n) keep every factor and the product normal doubles
        func, count = kernel
        coord = st.sampled_from((0.0, -0.0)) | st.floats(-2.0 / math.sqrt(n), 2.0 / math.sqrt(n))
        args = [
            np.reshape(data.draw(st.lists(coord, min_size=points * n, max_size=points * n)), (points, n))
            for _ in range(count)
        ]
        p = KernelParams(s=s, tau=tau, gamma=gamma, n=n)
        split = oracles.kernel_product(func, p, *args)
        assert np.max(np.abs(func(p, *args) - split) / np.abs(split)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFarTails:
    """Arguments so far out that a square overflows give the kernel's limit: no NaN, no warning."""

    @pytest.mark.parametrize("far", (1e155, 1e200, 1e308))
    @pytest.mark.parametrize("kernel", (rho_hat, rho_tilde, heat_kernel_h))
    def test_far_arguments_give_zero(self, kernel, far):
        # every spatial argument far out (x' = y' = 0 for H): the Gaussian decay is +inf
        args = (far, far) if kernel is not heat_kernel_h else (0.0, 0.0, far, far)
        for p in (KernelParams(1.0, 1.0, 1j), KernelParams(1.0, 0.0), KernelParams(0.5, -2.0, 0.3, n=2)):
            assert np.array_equal(kernel(p, *(np.full(p.n, a) for a in args)), 0)

    def test_rho_hat_at_s_zero_is_one(self):
        # the transform of the delta: A = B = 0, whose products with infinite sums contribute 0
        alpha = np.array([0.0, 1e155, 1e200, -1e308])
        got = rho_hat(KernelParams(0.0, 1.0, gamma=0.5), alpha[:, np.newaxis], alpha[np.newaxis, :])
        assert np.array_equal(got, np.ones((4, 4)))

    def test_tiny_s_with_a_finite_envelope(self):
        # the envelope ~1/s = 1e308 is finite, its product with |x|^2 = 4 overflows: the value is 0
        p = KernelParams(s=1e-308, tau=1.0)
        assert rho_tilde(p, 2.0, 0.0) == 0
        assert heat_kernel_h(p, 0.0, 0.0, 2.0, 0.0) == 0
        axis = np.linspace(-1.0, 1.0, 5)
        assert apply_kernel(p, [axis, axis], [np.ones(5)] * 2, np.ones(25), [[2.0]], [[0.0]])[0] == 0

    def test_apply_at_far_output_points(self):
        axis, weights = np.linspace(-2.0, 2.0, 9), [np.full(9, 0.5)] * 2
        p = KernelParams(0.5, 1.0, gamma=0.3)
        x, y = np.array([[0.3], [1e200], [1e200]]), np.array([[0.1], [0.0], [1e200]])
        got = apply_kernel(p, [axis, axis], weights, np.ones(81), x, y)
        assert np.array_equal(got[1:], [0, 0])
        assert got[0] == pytest.approx(apply_kernel(p, [axis, axis], weights, np.ones(81), x[:1], y[:1])[0], rel=1e-14)

    @pytest.mark.parametrize("kernel", (rho_hat, rho_tilde, heat_kernel_h))
    def test_near_points_unchanged_beside_far_ones(self, kernel):
        # settling the far elements leaves every other element as computed alone, bit for bit
        near, far = np.array([-0.0, 0.3, 1.7]), np.array([1e200, -1e300])
        p = KernelParams(0.8, -1.5, gamma=0.2 + 0.4j)

        def call(points):
            return kernel(p, points, points) if kernel is not heat_kernel_h else kernel(p, 0.5, -0.0, points, points)

        both = call(np.concatenate([near, far]))
        assert np.array_equal(_bits(both[:3]), _bits(call(near)))
        assert np.array_equal(both[3:], [0, 0])

    def test_infinite_phase_at_finite_decay_is_a_named_error(self):
        # y = y' = 1e308: |y - y'| = 0 keeps the modulus finite, y + y' overflows the phase
        with pytest.raises(KernelOverflowError, match=r"phase twist\*cross exceeds the double range"):
            heat_kernel_h(KernelParams(1.0, 1.0), 1.0, 1e308, 0.0, 1e308)

    def test_coincident_x_with_y_sum_past_the_range(self):
        # x = x' makes the phase (x-x').(y+y') exactly 0 where y + y' overflows, as where it does not
        p = KernelParams(1.0, 1.0)
        value = heat_kernel_h(p, 1.0, 1e308, 1.0, 1e308)
        assert np.array_equal(_bits(value), _bits(heat_kernel_h(p, 1.0, 1e300, 1.0, 1e300)))
        assert value == 0.3150181770684528

    def test_coincident_component_with_y_sum_past_the_range_n2(self):
        # only the first component has x = x' and an overflowing y + y'; the second is ordinary
        p = KernelParams(0.7, -1.2, 0.3j, n=2)
        far = heat_kernel_h(p, (1.0, 0.4), (1e308, -0.2), (1.0, -0.5), (1e308, 0.9))
        near = heat_kernel_h(p, (1.0, 0.4), (1e300, -0.2), (1.0, -0.5), (1e300, 0.9))
        assert np.array_equal(_bits(far), _bits(near))
        assert far != 0


class TestArrayParams:
    """s and tau as arrays give the per-point scalar values to 1e-14 relative."""

    @staticmethod
    def _check(kernel, pairs, gamma, args):
        s, tau = (np.array(v) for v in zip(*pairs))
        together = np.atleast_1d(kernel(KernelParams(s=s, tau=tau, gamma=gamma), *args))
        for k, (s_k, tau_k) in enumerate(pairs):
            alone = kernel(KernelParams(s=s_k, tau=tau_k, gamma=gamma), *args)
            assert abs(together[k] - alone) <= 1e-14 * abs(alone)

    @settings(max_examples=60, deadline=None)
    @given(pairs=_s_tau_pairs(s_zero=True), alpha=st.floats(-2, 2), beta=st.floats(-2, 2))
    def test_rho_hat(self, pairs, alpha, beta):
        self._check(rho_hat, pairs, 0.5 - 0.3j, (alpha, beta))

    @settings(max_examples=60, deadline=None)
    @given(pairs=_s_tau_pairs(s_zero=False), x=st.floats(-2, 2), y=st.floats(-2, 2))
    def test_rho_tilde(self, pairs, x, y):
        self._check(rho_tilde, pairs, 1.0 + 0.2j, (x, y))

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=_s_tau_pairs(s_zero=False),
        coords=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    )
    def test_heat_kernel(self, pairs, coords):
        self._check(heat_kernel_h, pairs, -1.0, coords)

    def test_grid_on_s_tau_axes_matches_pointwise(self):
        p = KernelParams(s=1.0, tau=0.0, gamma=1j, n=2)
        axes = (GridAxis("s", 0.5, 2.0, 4), GridAxis("tau", -1e-4, 1.0, 5), GridAxis("x2", 0.3, 0.3, 1))
        grid = GridSpec(axes)
        sample = evaluate_on_grid("rho-tilde", p, grid)
        coords = grid.coordinates()
        for i in range(grid.size):
            point = KernelParams(s=coords["s"][i], tau=coords["tau"][i], gamma=1j, n=2)
            expect = rho_tilde(point, (0.0, 0.3), (0.0, 0.0))
            assert sample.values[i] == pytest.approx(expect, rel=1e-14)


def _bits(value):
    return np.atleast_1d(np.asarray(value, dtype=complex)).view(np.int64)


class TestOneBufferExponent:
    """Each kernel equals its one-expression form in tests/oracles.py bit for bit, zero signs included."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        kernel=st.sampled_from((
            (rho_hat, oracles.rho_hat_one_expression, 2),
            (rho_tilde, oracles.rho_tilde_at_origin_one_expression, 2),
            (heat_kernel_h, oracles.heat_kernel_h_one_expression, 4),
        )),
        n=st.integers(1, 3),
        layout=st.sampled_from(("scalar", "points", "param-arrays", "outer")),
        pairs=_s_tau_pairs(s_zero=False),
        gammas=st.lists(_GAMMA, min_size=2, max_size=2),
    )
    def test_matches_one_expression(self, data, kernel, n, layout, pairs, gammas):
        package, oracle, count = kernel
        if layout == "param-arrays":
            # s and tau along the points; gamma (2, 1), so the constant is wider than the twist term
            s, tau = (np.array(v) for v in zip(*pairs))
            params = KernelParams(s=s, tau=tau, gamma=np.array(gammas)[:, np.newaxis], n=n)
        else:
            n = 1 if layout in ("scalar", "outer") else n
            params = KernelParams(s=pairs[0][0], tau=pairs[0][1], gamma=gammas[0], n=n)
        shapes = {
            "scalar": [None] * count,
            "points": [(len(pairs), n)] * count,
            "param-arrays": [(len(pairs), n)] * count,
            "outer": [(3, 1), (1, 4)] * (count // 2),
        }[layout]
        args = [
            data.draw(_COORD) if shape is None
            else np.reshape(data.draw(st.lists(_COORD, min_size=math.prod(shape), max_size=math.prod(shape))), shape)
            for shape in shapes
        ]
        got, expect = package(params, *args), oracle(params, *args)
        assert type(got) is type(expect) is (complex if layout == "scalar" else np.ndarray)
        assert np.shape(got) == np.shape(expect)
        assert np.array_equal(_bits(got), _bits(expect))


class TestBlockedExponent:
    """Every block size of the exponent loop gives the one-expression bits, and errors read the whole call."""

    BLOCKS = (1, 3, 7, 64, kernels._EXP_BLOCK)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        kernel=st.sampled_from((
            (rho_hat, oracles.rho_hat_one_expression, 2),
            (rho_tilde, oracles.rho_tilde_at_origin_one_expression, 2),
            (heat_kernel_h, oracles.heat_kernel_h_one_expression, 4),
        )),
        block=st.sampled_from(BLOCKS),
        layout=st.sampled_from(("outer", "flat")),
        param_arrays=st.booleans(),
        n=st.integers(1, 3),
        rows=st.integers(1, 9),
        cols=st.integers(1, 9),
        gamma=_GAMMA,
    )
    def test_matches_one_expression(self, data, kernel, block, layout, param_arrays, n, rows, cols, gamma):
        package, oracle, count = kernel
        n = 1 if layout == "outer" else n
        shapes = [(rows, 1), (1, cols)] * (count // 2) if layout == "outer" else [(rows, n)] * count
        # +-1e200 squares to inf: the decay is +inf, and the value 0 where the oracle's NaN stands
        coord = _COORD | st.sampled_from((1e200, -1e200))
        args = [
            np.reshape(data.draw(st.lists(coord, min_size=math.prod(shape), max_size=math.prod(shape))), shape)
            for shape in shapes
        ]
        pairs = (data.draw(_s_tau_pairs(s_zero=False)) * rows)[:rows if param_arrays else 1]
        # array s and tau run along the rows: (rows, 1) against the (rows, cols) outer layout
        shape = (rows, 1) if layout == "outer" else rows
        s, tau = (np.reshape(v, shape) if param_arrays else v[0] for v in zip(*pairs))
        params = KernelParams(s=s, tau=tau, gamma=gamma, n=n)
        with mock.patch.object(kernels, "_EXP_BLOCK", block):
            got = package(params, *args)
        with np.errstate(all="ignore"):
            expect = oracle(params, *args)
        nan = np.isnan(expect)
        assert np.shape(got) == np.shape(expect)
        assert np.array_equal(_bits(np.where(nan, 0, got)), _bits(np.where(nan, 0, expect)))
        assert np.all(got[nan] == 0)

    @pytest.mark.parametrize(("rows", "cols", "starts"), (
        (129, 129, [0, 64]),  # at most 127 rows a block: 64 + 65, no 2-row sliver
        (257, 513, [0, 28, 57, 85, 114, 142, 171, 199, 228]),  # at most 31: no 9-row sliver
        (128, 128, [0]),
        (20000, 1, [0, 10000]),
    ))
    def test_row_blocks_differ_by_at_most_one_row(self, monkeypatch, rows, cols, starts):
        # the fewest blocks of at most _EXP_BLOCK elements, with equal row counts where they divide.
        # rho_hat looks up _quadratic_forms at call time and runs it once per block, on that block's rows
        counts = []
        original = kernels._quadratic_forms

        def recorded(*args):
            sq, cross = original(*args)
            counts.append(len(sq))
            return sq, cross

        monkeypatch.setattr(kernels, "_quadratic_forms", recorded)
        params = KernelParams(0.7, -1.3, 0.2 + 0.5j)
        alpha, beta = np.linspace(-3.0, 3.0, rows)[:, np.newaxis], np.linspace(-2.0, 2.0, cols)
        got = rho_hat(params, alpha, beta)
        assert list(itertools.accumulate(counts, initial=0)) == starts + [rows]
        assert np.array_equal(_bits(got), _bits(oracles.rho_hat_one_expression(params, alpha, beta)))

    @pytest.mark.parametrize("block", BLOCKS[:-1])
    @pytest.mark.parametrize("n", (1, 2))
    def test_apply_kernel_same_bits(self, block, n):
        # the P and Q factors fit one block unpatched and span several patched
        rng = np.random.default_rng(block + n)
        nodes = [np.linspace(-2.0, 2.0, 7 + k) for k in range(2 * n)]
        weights = [np.full(len(axis), 0.3) for axis in nodes]
        size = math.prod(len(axis) for axis in nodes)
        values = rng.normal(size=size) + 1j * rng.normal(size=size)
        x, y = rng.normal(size=(2, 60, n))
        x[7], y[11] = 1e200, -1e200
        p = KernelParams(0.6, -1.3, 0.2 + 0.5j, n=n)
        expect = apply_kernel(p, nodes, weights, values, x, y)
        with mock.patch.object(kernels, "_EXP_BLOCK", block):
            got = apply_kernel(p, nodes, weights, values, x, y)
        assert np.array_equal(_bits(got), _bits(expect))

    @pytest.mark.parametrize("block", BLOCKS)
    def test_overflow_message_reads_the_whole_call(self, block):
        # every point overflows; the largest log|value|, at x = 0, sits in a middle block for block sizes 1 and 3
        x = np.abs(np.linspace(-1.0, 1.0, 9))
        with mock.patch.object(kernels, "_EXP_BLOCK", block):
            with pytest.raises(KernelOverflowError, match=r"log\|value\| up to 748\.845\)"):
                heat_kernel_h(KernelParams(1.0, 1.0, -3000.0), 0.0, 0.0, x, np.zeros(9))

    def test_overflow_holds_no_whole_call_temporary(self):
        # log|value| up to 2250.35 on 1024^2 points: the message reads each block's own buffer, so the
        # failing call peaks at its 16 MiB output and a few block-sized temporaries, as a passing one
        # does (a second pass of the forms over the whole call peaked at 32.1 MiB)
        alpha = np.linspace(-3.0, 3.0, 1024)
        tracemalloc.start()
        try:
            with pytest.raises(KernelOverflowError, match=r"log\|value\| up to 2250\.35\)"):
                rho_hat(KernelParams(1000.0, 1.0, -10.0), alpha[:, np.newaxis], alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * 1024 * 16 + 2**20

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("gamma", (0.0, -3000.0))
    def test_phase_error_in_a_later_block(self, block, gamma):
        # x = x' but at the last point, where (x-x').(y+y') is infinite at a finite decay; at
        # gamma = -3000 the blocks before it overflow, and the phase error still comes first
        x = np.array([1.0, 1.0, 1.0, 0.0])
        with mock.patch.object(kernels, "_EXP_BLOCK", block):
            with pytest.raises(KernelOverflowError, match=r"phase twist\*cross exceeds the double range"):
                heat_kernel_h(KernelParams(1.0, 1.0, gamma), 1.0, 1e308, x, np.full(4, 1e308))

def _on_caller_threads(threads, call):
    """call() started at once on `threads` threads of the test's own; the finished futures in start order."""
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        return [pool.submit(call) for _ in range(threads)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPooledBlocks:
    """Calls of many blocks made from several caller threads at once: each caller runs its own blocks,
    pools their overflow flags into its own error, and warns nothing."""

    @pytest.mark.parametrize("threads", (2, 4))
    @pytest.mark.parametrize("gamma", (0.0, -3000.0))
    def test_phase_error_in_a_later_block(self, monkeypatch, threads, gamma):
        # one point per block; x = x' but at the last point, where (x-x').(y+y') is infinite at a
        # finite decay; at gamma = -3000 every other block overflows, and the phase error still wins
        monkeypatch.setattr(kernels, "_EXP_BLOCK", 1)
        x = np.ones(64)
        x[-1] = 0.0
        for future in _on_caller_threads(
            threads, lambda: heat_kernel_h(KernelParams(1.0, 1.0, gamma), 1.0, 1e308, x, np.full(64, 1e308))
        ):
            with pytest.raises(KernelOverflowError, match=r"phase twist\*cross exceeds the double range"):
                future.result()

    @pytest.mark.parametrize("threads", (2, 4))
    def test_overflow_message_reads_the_whole_call(self, monkeypatch, threads):
        # every point overflows; the largest log|value|, at x = 0, sits in block 32 of 65
        monkeypatch.setattr(kernels, "_EXP_BLOCK", 1)
        x = np.abs(np.linspace(-1.0, 1.0, 65))
        for future in _on_caller_threads(
            threads, lambda: heat_kernel_h(KernelParams(1.0, 1.0, -3000.0), 0.0, 0.0, x, np.zeros(65))
        ):
            with pytest.raises(KernelOverflowError, match=r"log\|value\| up to 748\.845\)"):
                future.result()

    @pytest.mark.parametrize("threads", (2, 4))
    def test_far_tails_past_one_block_warn_nothing(self, monkeypatch, threads):
        # TestFarTails' inputs tiled over 128 blocks of 64 elements, each case on one of the caller threads
        monkeypatch.setattr(kernels, "_EXP_BLOCK", 64)
        count = 128 * 64
        cases = []
        for far, p in itertools.product(
            (1e155, 1e200, 1e308),
            (KernelParams(1.0, 1.0, 1j), KernelParams(1.0, 0.0), KernelParams(0.5, -2.0, 0.3, n=2)),
        ):
            a, zero = np.full((count, p.n), far), np.zeros((count, p.n))
            cases += [
                (functools.partial(rho_hat, p, a, a), np.zeros(count)),
                (functools.partial(rho_tilde, p, a, a), np.zeros(count)),
                (functools.partial(heat_kernel_h, p, zero, zero, a, a), np.zeros(count)),
            ]
        alpha = np.tile([0.0, 1e155, 1e200, -1e308], count // 4)
        tiny = KernelParams(s=1e-308, tau=1.0)
        cases += [
            (functools.partial(rho_hat, KernelParams(0.0, 1.0, gamma=0.5), alpha, alpha[::-1]), np.ones(count)),
            (functools.partial(rho_tilde, tiny, np.full(count, 2.0), 0.0), np.zeros(count)),
            (functools.partial(heat_kernel_h, tiny, 0.0, 0.0, np.full(count, 2.0), 0.0), np.zeros(count)),
            (
                functools.partial(heat_kernel_h, KernelParams(1.0, 1.0), 1.0, 1e308, np.ones(count), np.full(count, 1e308)),
                np.full(count, 0.3150181770684528),
            ),
        ]
        near, far = np.array([-0.0, 0.3, 1.7]), np.array([1e200, -1e300])
        mixed = KernelParams(0.8, -1.5, gamma=0.2 + 0.4j)
        both = np.tile(np.concatenate([near, far]), count // 5)
        for kernel in (rho_hat, rho_tilde):
            expect = np.tile(np.concatenate([kernel(mixed, near, near), [0, 0]]), count // 5)
            cases.append((functools.partial(kernel, mixed, both, both), expect))
        axis, weights = np.linspace(-2.0, 2.0, 9), [np.full(9, 0.5)] * 2
        outputs = np.tile([1e200, 1e200, -1e300], count // 3)[:, np.newaxis]
        cases.append((
            functools.partial(apply_kernel, KernelParams(0.5, 1.0, gamma=0.3), [axis, axis], weights, np.ones(81), outputs, outputs),
            np.zeros(len(outputs)),
        ))
        # the warnings filters are process-wide, so they are set here and not on the caller threads
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                got = list(pool.map(lambda case: case[0](), cases))
        for value, (_, expect) in zip(got, cases):
            assert np.array_equal(_bits(value), _bits(expect))
