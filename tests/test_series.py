import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenheat.hermite import eval_scaled_hermite, hermite_values
from heisenheat.kernels import KernelOverflowError, KernelParams, rho_hat
from heisenheat.series import (
    SeriesConfig,
    SeriesConvergenceError,
    mehler_closed_form,
    mehler_sum,
    mehler_terms,
    rho_hat_series,
    truncation_tail_bound,
    u_series,
)

import oracles
from oracles import coefficient_a_m


class TestCoefficientAm:
    def test_m0_origin(self):
        assert coefficient_a_m(0, 0.0, 1.0) == pytest.approx(oracles.A0_ALPHA0_TAU1, rel=1e-14)

    def test_odd_degree_vanishes_at_origin(self):
        assert coefficient_a_m(1, 0.0, 1.0) == 0.0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            coefficient_a_m(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            coefficient_a_m(0, 0.0, -1.0)

    @pytest.mark.parametrize(
        "m,alpha,tau",
        [(0, 0.5, 1.0), (1, -0.8, 1.0), (3, 0.7, 2.0), (7, 1.4, 0.5), (20, -0.6, 3.0)],
    )
    def test_matches_defining_integral(self, m, alpha, tau):
        # independent quadrature of int e^{-i alpha beta / tau} Psi^tau_m dbeta
        closed = coefficient_a_m(m, alpha, tau)
        quad = oracles.coefficient_a_m_quadrature(m, alpha, tau)
        assert abs(closed - quad) < 1e-10 * max(1.0, abs(closed))


class TestUSeries:
    def test_large_s_single_term_domination(self):
        cfg = SeriesConfig(max_terms=50, tail_tol=1e-14)
        alpha, beta, tau, gamma = 0.4, -0.9, 1.0, 0.5
        s = 40.0
        got = u_series(cfg, s, alpha, beta, tau, gamma)
        leading = (
            coefficient_a_m(0, alpha, tau)
            * cmath.exp(-(1 + gamma) * s * tau / 4)
            * eval_scaled_hermite(beta, tau, 0)[0]
        )
        assert got.value == pytest.approx(leading, rel=1e-14)
        assert got.terms_used <= 3

    def test_origin_matches_closed_form(self):
        cfg = SeriesConfig()
        got = u_series(cfg, 1.0, 0.0, 0.0, 1.0, 0.0)
        assert got.value == pytest.approx(oracles.RHO_HAT_S1_TAU1_ORIGIN, rel=1e-12)

    def test_s_zero_partial_sum_moderate_accuracy(self):
        # at s = 0 the expansion converges only distributionally; the partial
        # sum still tracks e^{-i alpha beta / tau} at coarse tolerance
        cfg = SeriesConfig(max_terms=500, tail_tol=0.2)
        for alpha, beta, tau in ((0.0, 0.0, 1.0), (0.5, 0.3, 1.0), (-0.4, 0.8, 2.0)):
            got = u_series(cfg, 0.0, alpha, beta, tau, 0.0)
            assert abs(got.value - cmath.exp(-1j * alpha * beta / tau)) < 0.2

    def test_s_zero_tight_tolerance_signals_nonconvergence(self):
        cfg = SeriesConfig(max_terms=300, tail_tol=1e-10)
        with pytest.raises(SeriesConvergenceError):
            u_series(cfg, 0.0, 0.5, 0.3, 1.0, 0.0)

    def test_budget_exhaustion_signals_nonconvergence(self):
        # s*tau tiny: geometric decay too slow for the budget
        cfg = SeriesConfig(max_terms=10, tail_tol=1e-13)
        with pytest.raises(SeriesConvergenceError):
            u_series(cfg, 1e-3, 0.5, 0.3, 1e-2, 0.0)

    def test_rejects_bad_arguments(self):
        cfg = SeriesConfig()
        with pytest.raises(ValueError):
            u_series(cfg, 1.0, 0.0, 0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            u_series(cfg, -1.0, 0.0, 0.0, 1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_or_overflowing_arguments_raise(self):
        # s, tau and gamma follow KernelParams' rules in both entry points; each error names its
        # parameter, with no warning first
        self._bad_arguments_raise(u_series)
        self._bad_arguments_raise(rho_hat_series)

    @staticmethod
    def _bad_arguments_raise(func):
        cfg = SeriesConfig()
        with pytest.raises(ValueError, match="s must be finite, got nan"):
            func(cfg, math.nan, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="tau > 0"):
            func(cfg, 1.0, 0.0, 0.0, np.array([1.0, math.nan]), 0.0)
        with pytest.raises(ValueError, match=r"gamma must be finite, got \(nan\+0j\)"):
            func(cfg, 1.0, 0.0, 0.0, 1.0, complex(math.nan, 0.0))
        with pytest.raises(ValueError, match="gamma must be finite"):
            func(cfg, 1.0, 0.0, 0.0, 1.0, math.inf * 1j)
        # alpha and beta by name, NaN or +-inf, scalar or in an array
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"alpha must be finite, got {bad}"):
                func(cfg, 1.0, bad, 0.0, 1.0)
            with pytest.raises(ValueError, match=f"beta must be finite, got {bad}"):
                func(cfg, 1.0, 0.0, bad, 1.0)
            with pytest.raises(ValueError, match="beta must be finite"):
                func(cfg, 1.0, np.zeros(3), np.array([0.5, bad, 1.0]), 1.0)
        # exp(-(1+gamma)*s*tau/4) = exp(1500) is past the double range
        with pytest.raises(KernelOverflowError, match=r"series prefactor .* at gamma=-3\.0, s=1\.0, tau=3000\.0"):
            func(cfg, 1.0, 0.0, 0.0, 3000.0, -3.0)

    def test_s_zero_weak_reconstruction(self):
        # pair the expansion at s = 0 with a Gaussian test function:
        # sum_m a_m(alpha, tau) <Psi^tau_m, phi> = int e^{-i alpha beta/tau} phi(beta) dbeta
        tau = 2.0
        # <Psi^tau_m, phi> for all m < 120 from one all-degree call
        inner = oracles.legendre_integral(
            lambda b: eval_scaled_hermite(b, tau, 119) * np.exp(-0.5 * b * b), -12.0, 12.0
        )
        for alpha in (0.0, 0.7, -1.3):
            total = 0.0 + 0.0j
            for m in range(0, 120):
                total += coefficient_a_m(m, alpha, tau) * inner[m]
            expect = oracles.gaussian_pair_integral(alpha, tau)
            assert abs(total - expect) < 1e-6

    def test_u_solves_transformed_heat_equation(self):
        # FD residual of du/ds - (1/4)(tau^2 d2_beta - beta^2 - gamma tau) u -> O(h^2)
        cfg = SeriesConfig(max_terms=400, tail_tol=1e-13)
        steps = (1e-2, 5e-3, 2.5e-3)
        panel = [(1.0, 0.6, -0.8, 1.0, 0.0), (0.5, -0.4, 0.9, 2.0, 1.0), (1.5, 0.3, 0.2, 0.5, 1j)]
        worst = []
        for h in steps:
            resid = 0.0
            for s, alpha, beta, tau, gamma in panel:
                u = lambda s_, b_: u_series(cfg, s_, alpha, b_, tau, gamma).value
                c = u(s, beta)
                ds = (u(s + h, beta) - u(s - h, beta)) / (2 * h)
                d2 = (u(s, beta + h) - 2 * c + u(s, beta - h)) / h**2
                resid = max(
                    resid,
                    abs(ds - 0.25 * (tau**2 * d2 - beta**2 * c - gamma * tau * c)),
                )
            worst.append(resid)
        order = np.polyfit(np.log(steps), np.log(worst), 1)[0]
        assert 1.8 < order < 2.2


class TestRhoHatSeries:
    def test_agreement_with_closed_form_panel(self):
        cfg = SeriesConfig(max_terms=400, tail_tol=1e-13)
        worst = 0.0
        for s in (0.5, 1.0, 2.0):
            for tau in (0.5, 1.0, 3.0):
                for gamma in (0.0, 1.0, 1j):
                    p = KernelParams(s=s, tau=tau, gamma=gamma, n=1)
                    for alpha in (-3.0, 0.0, 1.0):
                        for beta in (-1.0, 0.0, 3.0):
                            closed = rho_hat(p, alpha, beta)
                            summed = rho_hat_series(cfg, s, alpha, beta, tau, gamma)
                            worst = max(worst, abs(summed - closed) / abs(closed))
        assert worst < 1e-10

    def test_even_terms_only_at_origin(self):
        # psi_odd(0) = 0, so only even m contribute at alpha = beta = 0
        cfg_even = SeriesConfig(max_terms=401, tail_tol=1e-13)
        val = rho_hat_series(cfg_even, 1.0, 0.0, 0.0, 1.0, 0.0)
        total = 0.0 + 0.0j
        psi0 = hermite_values(0.0, 400)
        pref = math.sqrt(2 * math.pi) * math.exp(-0.25)
        for m in range(0, 401, 2):
            total += pref * (-1j) ** m * float(psi0[m]) ** 2 * math.exp(-0.5 * m)
        assert val == pytest.approx(total, rel=1e-12)

    def test_real_positive_at_origin_gamma_zero(self):
        cfg = SeriesConfig()
        val = rho_hat_series(cfg, 0.8, 0.0, 0.0, 1.3, 0.0)
        assert abs(val.imag) < 1e-13
        assert val.real > 0

    def test_rejects_s_zero(self):
        with pytest.raises(ValueError):
            rho_hat_series(SeriesConfig(), 0.0, 0.0, 0.0, 1.0, 0.0)


class TestMehler:
    def test_small_s_limit(self):
        # only m = 0 survives as S -> 0+
        val = mehler_sum(1e-9, 0.7, -0.4)
        expect = math.pi**-0.5 * math.exp(-0.5 * (0.7**2 + 0.4**2))
        assert val == pytest.approx(expect, rel=1e-9)

    def test_frozen_value_at_origin(self):
        assert mehler_sum(0.5, 0.0, 0.0) == pytest.approx(oracles.MEHLER_S05_ORIGIN, rel=1e-12)

    def test_symmetry_in_arguments(self):
        a = mehler_sum(0.6, 0.9, -1.4)
        b = mehler_sum(0.6, -1.4, 0.9)
        assert a == pytest.approx(b, rel=1e-13)

    def test_identity_on_grid(self):
        worst = 0.0
        for big_s in (0.1, 0.5, 0.9):
            for x in np.linspace(-3, 3, 7):
                for y in np.linspace(-3, 3, 7):
                    total = mehler_sum(big_s, float(x), float(y))
                    closed = mehler_closed_form(big_s, float(x), float(y))
                    worst = max(worst, abs(total - closed) / abs(closed))
        assert worst < 1e-11

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            mehler_sum(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            mehler_sum(1.0, 0.0, 0.0)

    def test_truncation_bound_is_a_posteriori_valid(self):
        # |sum_M - sum_2M| must sit below the geometric tail bound at M
        x, y = 0.8, -0.5
        for big_s, m_terms in ((0.5, 20), (0.9, 60)):
            psi_x = hermite_values(x, 2 * m_terms)
            psi_y = hermite_values(y, 2 * m_terms)
            partial = {}
            total = 0.0 + 0.0j
            for m in range(2 * m_terms + 1):
                total += (-1j * big_s) ** m * float(psi_x[m]) * float(psi_y[m])
                if m + 1 in (m_terms, 2 * m_terms):
                    partial[m + 1] = total
            gap = abs(partial[2 * m_terms] - partial[m_terms])
            assert gap <= truncation_tail_bound(big_s, m_terms)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            truncation_tail_bound(1.0, 10)
        with pytest.raises(ValueError):
            truncation_tail_bound(np.array([0.5, 1.0]), 10)

    def test_term_count_is_one_for_the_whole_array(self):
        # the largest count any S needs, one degree past the 1e-14 tail bound
        assert mehler_terms(1e-9) == 3
        assert mehler_terms(np.array([0.1, 0.9, 0.5])) == mehler_terms(0.9)
        assert truncation_tail_bound(0.9, mehler_terms(0.9) - 2) < 1e-14
        with pytest.raises(ValueError):
            mehler_terms(np.array([0.5, 1.0]))


_COORD = st.floats(-3.0, 3.0)


class TestArrayValued:
    """Array calls give the per-point scalar calls to 1e-12 absolute."""

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(0.3, 3.0),
                st.floats(0.3, 3.0, exclude_min=True),
                st.complex_numbers(max_magnitude=1.0),
                _COORD,
                _COORD,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_u_series(self, points):
        # s*tau down to 0.09 needs ~740 terms, past the default 400
        cfg = SeriesConfig(max_terms=1000)
        s, tau, gamma, alpha, beta = (np.array(v) for v in zip(*points))
        together = u_series(cfg, s, alpha, beta, tau, gamma)
        assert together.value.shape == s.shape
        assert isinstance(together.terms_used, int)
        for k, (s_k, tau_k, gamma_k, alpha_k, beta_k) in enumerate(points):
            alone = u_series(cfg, s_k, alpha_k, beta_k, tau_k, gamma_k)
            assert abs(together.value[k] - alone.value) <= 1e-12
            assert alone.terms_used <= together.terms_used

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(st.tuples(st.floats(0.05, 0.95), _COORD, _COORD), min_size=1, max_size=8)
    )
    def test_mehler_sum(self, points):
        big_s, x, y = (np.array(v) for v in zip(*points))
        together = mehler_sum(big_s, x, y)
        assert together.shape == big_s.shape
        for k, point in enumerate(points):
            assert abs(together[k] - mehler_sum(*point)) <= 1e-12

    def test_s_zero_element_takes_the_whole_budget(self):
        # one S = 1 element puts the whole array on the s = 0 rule
        cfg = SeriesConfig(max_terms=500, tail_tol=0.2)
        together = u_series(cfg, np.array([0.0, 1.0]), 0.5, 0.3, 1.0, 0.0)
        assert together.terms_used == 501
        alone = u_series(cfg, 0.0, 0.5, 0.3, 1.0, 0.0)
        assert together.tail_bound == alone.tail_bound
        assert abs(together.value[0] - alone.value) <= 1e-12
        # the s = 1 element is summed far past its own 0.2 tolerance
        tight = u_series(SeriesConfig(), 1.0, 0.5, 0.3, 1.0, 0.0)
        assert abs(together.value[1] - tight.value) <= 1e-12

    def test_rho_hat_series_broadcasts(self):
        cfg = SeriesConfig()
        alpha = np.array([-1.0, 0.5])[:, np.newaxis]
        beta = np.array([0.0, 1.0, 2.5])
        got = rho_hat_series(cfg, 0.8, alpha, beta, 1.3, 0.5j)
        assert got.shape == (2, 3)
        closed = rho_hat(KernelParams(s=0.8, tau=1.3, gamma=0.5j), np.broadcast_to(alpha, (2, 3)), beta)
        assert np.max(np.abs(got - closed) / np.abs(closed)) < 1e-10
