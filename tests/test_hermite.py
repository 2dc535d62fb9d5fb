import math

import numpy as np
import pytest

from heisenheat import hermite

import oracles

PI_QUARTER_INV = math.pi ** -0.25


class TestHermiteBatch:
    def test_psi0_at_origin(self):
        values = hermite.hermite_values(0.0, 0)
        assert values[0] == pytest.approx(oracles.PSI_0_AT_0, rel=1e-15)

    def test_psi1_odd_at_origin(self):
        values = hermite.hermite_values(0.0, 1)
        assert values[1] == 0.0

    def test_psi2_at_one(self):
        values = hermite.hermite_values(1.0, 2)
        assert values[2] == pytest.approx(oracles.PSI_2_AT_1, rel=1e-13)

    def test_batch_shape_and_finiteness(self):
        values = hermite.hermite_values(np.linspace(-6, 6, 41), 25)
        assert values.shape == (26, 41)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("x", sorted(oracles.RODRIGUES_TABLE))
    def test_recurrence_matches_rodrigues(self, x):
        # arbitrary-precision Rodrigues evaluation, frozen, m <= 12
        expected = np.array(oracles.RODRIGUES_TABLE[x])
        got = hermite.hermite_values(x, 12)
        scale = np.maximum(np.abs(expected), 1e-3)
        assert np.max(np.abs(got - expected) / scale) < 1e-12

    def test_uniform_bound(self):
        # Cramer bound |psi_m| <= pi**(-1/4) for every degree
        xs = np.linspace(-15, 15, 1201)
        vals = hermite.hermite_values(xs, 60)
        assert np.max(np.abs(vals)) <= PI_QUARTER_INV * (1 + 1e-12)

    def test_underflow_flushes_to_zero(self):
        values = hermite.hermite_values(40.0, 5)
        assert np.all(values == 0.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite.hermite_values(0.0, -1)

    def test_ode_identity_second_order(self):
        # central difference of psi_m'' - (x^2 - (2m+1)) psi_m decays at O(h^2)
        xs = np.linspace(-5.0, 5.0, 21)
        steps = (1e-2, 5e-3, 2.5e-3)
        worst = []
        for h in steps:
            vc = hermite.hermite_values(xs, 40)
            vp = hermite.hermite_values(xs + h, 40)
            vm = hermite.hermite_values(xs - h, 40)
            resid = 0.0
            for m in (0, 5, 17, 40):
                d2 = (vp[m] - 2 * vc[m] + vm[m]) / h**2
                resid = max(resid, np.max(np.abs(d2 - (xs**2 - (2 * m + 1)) * vc[m])))
            worst.append(resid)
        order = np.polyfit(np.log(steps), np.log(worst), 1)[0]
        assert 1.8 < order < 2.2


class TestScaledHermite:
    def test_unit_tau_reduces_to_psi(self):
        assert hermite.eval_scaled_hermite(0.0, 1.0, 0)[0] == pytest.approx(
            oracles.PSI_0_AT_0, rel=1e-15
        )

    def test_tau_four_scaling(self):
        assert hermite.eval_scaled_hermite(0.0, 4.0, 0)[0] == pytest.approx(
            oracles.SCALED_TAU4_M0_AT_0, rel=1e-15
        )

    def test_negative_tau_uses_absolute_value(self):
        assert hermite.eval_scaled_hermite(0.0, -1.0, 1)[1] == 0.0
        beta = 0.8
        assert hermite.eval_scaled_hermite(beta, -2.5, 4)[4] == hermite.eval_scaled_hermite(
            beta, 2.5, 4
        )[4]

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError):
            hermite.eval_scaled_hermite(0.0, 0.0, 0)
        with pytest.raises(ValueError, match="tau"):
            hermite.eval_scaled_hermite(0.0, np.array([1.0, 0.0]), 3)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite.eval_scaled_hermite(0.0, 1.0, -1)

    def test_rows_match_single_degree_recurrence(self):
        # row m of the all-degree call equals a run of the recurrence stopped at m,
        # for broadcast beta (3,) against tau (2, 1)
        beta = np.array([-1.7, 0.2, 2.9])
        tau = np.array([[0.5], [-3.0]])
        got = hermite.eval_scaled_hermite(beta, tau, 12)
        assert got.shape == (13, 2, 3)
        at = np.abs(tau)
        for m in (0, 1, 5, 12):
            expect = at**-0.25 * hermite.hermite_values(beta / np.sqrt(at), m)[m]
            assert np.array_equal(got[m], expect)

    @pytest.mark.parametrize("tau", (0.5, -0.5, 2.0, -2.0))
    @pytest.mark.parametrize("gamma", (0.0, 1.0, -1.0, 1j))
    def test_eigenfunction_identity_fd(self, tau, gamma):
        # (tau^2 d2 - beta^2 - gamma tau) Psi = -((2m+1)|tau| + gamma tau) Psi at O(h^2)
        steps = (1e-2, 5e-3, 2.5e-3)
        worst = []
        for h in steps:
            resid = 0.0
            for beta in (0.45, -1.2):
                c, up, down = hermite.eval_scaled_hermite(
                    np.array([beta, beta + h, beta - h]), tau, 20
                ).T
                d2 = (up - 2 * c + down) / h**2
                for m in (0, 4, 11, 20):
                    lhs = tau**2 * d2[m] - beta**2 * c[m] - gamma * tau * c[m]
                    rhs = hermite.oscillator_eigenvalue(m, tau, gamma) * c[m]
                    resid = max(resid, abs(lhs - rhs))
            worst.append(resid)
        order = np.polyfit(np.log(steps), np.log(worst), 1)[0]
        assert 1.8 < order < 2.2

    def test_eigenvalue_sign_for_positive_tau(self):
        # reduces to -(2m+1+gamma) tau on the tau > 0 branch
        assert hermite.oscillator_eigenvalue(3, 2.0, 1.5) == -(2 * 3 + 1 + 1.5) * 2.0


class TestGaussHermite:
    def test_one_point_rule(self):
        nodes, weights = hermite.gauss_hermite_nodes(1)
        assert nodes.tolist() == [0.0]
        assert weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_two_point_rule(self):
        nodes, weights = hermite.gauss_hermite_nodes(2)
        assert nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
        assert weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)

    def test_degree_two_exactness(self):
        nodes, weights = hermite.gauss_hermite_nodes(2)
        assert np.sum(weights * nodes**2) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    @pytest.mark.parametrize("order", (5, 61, 200))
    def test_matches_scipy(self, order):
        scipy_special = pytest.importorskip("scipy.special")
        nodes, weights = hermite.gauss_hermite_nodes(order)
        sn, sw = scipy_special.roots_hermite(order)
        assert np.max(np.abs(nodes - sn)) < 1e-13
        assert np.max(np.abs(weights - sw) / sw) < 1e-12

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            hermite.gauss_hermite_nodes(0)
        with pytest.raises(ValueError):
            hermite.gauss_hermite_nodes(hermite.MAX_GAUSS_HERMITE_ORDER + 1)

    def test_orthonormality_to_degree_60(self):
        nodes, weights = hermite.gauss_hermite_nodes(61)
        h_vals = hermite.hermite_polynomial_values(nodes, 60)
        gram = (h_vals * weights) @ h_vals.T
        assert np.max(np.abs(gram - np.eye(61))) < 1e-10
