"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes.
"""

import math
import time

import numpy as np

from heisenheat import series, verify
from heisenheat.kernels import (
    KernelParams,
    heat_kernel_h,
    rho_hat,
    rho_tilde,
)
from heisenheat import kernels

import oracles


def _report(criterion: str, passed: bool, detail: str, elapsed: float, budget: float):
    line = (
        f"{'PASS' if passed else 'FAIL'} {criterion}: {detail} "
        f"[{elapsed:.2f}s / budget {budget:.0f}s]"
    )
    print(line)
    assert passed, line
    assert elapsed < budget, f"{criterion} exceeded runtime budget: {elapsed:.1f}s > {budget}s"


def _criterion_1(taus, criterion):
    t0 = time.perf_counter()
    config = series.SeriesConfig(max_terms=400, tail_tol=1e-13)
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        for tau in taus:
            for gamma in (0.0, 1.0, 1j):
                params = KernelParams(s=s, tau=tau, gamma=gamma, n=1)
                for alpha in (-3.0, -1.0, 0.0, 1.0, 3.0):
                    for beta in (-3.0, -1.0, 0.0, 1.0, 3.0):
                        closed = rho_hat(params, alpha, beta)
                        summed = series.rho_hat_series(config, s, alpha, beta, tau, gamma)
                        worst = max(worst, abs(summed - closed) / abs(closed))
    elapsed = time.perf_counter() - t0
    _report(criterion, worst < 1e-10, f"max relative difference {worst:.3e} < 1e-10", elapsed, 10.0)


def test_criterion_1_series_closed_form_equivalence():
    _criterion_1((0.5, 1.0, 3.0), "criterion 1 (series/closed-form equivalence)")


def test_criterion_1_series_closed_form_equivalence_negative_tau():
    _criterion_1((-0.5, -1.0, -3.0), "criterion 1 at tau < 0 (series/closed-form equivalence)")


def test_criterion_2_mehler_identity():
    t0 = time.perf_counter()
    worst = 0.0
    grid = np.linspace(-3.0, 3.0, 13)
    for big_s in (0.1, 0.5, 0.9):
        for x in grid:
            for y in grid:
                total = series.mehler_sum(big_s, float(x), float(y))
                closed = series.mehler_closed_form(big_s, float(x), float(y))
                worst = max(worst, abs(total - closed) / abs(closed))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (Mehler identity)",
        worst < 1e-11,
        f"max relative difference {worst:.3e} < 1e-11",
        elapsed,
        5.0,
    )


def test_criterion_3_pde_residual_suites():
    t0 = time.perf_counter()
    reports = [
        verify.residual_u(),
        verify.residual_rho_hat(),
        verify.residual_rho_tilde(),
        verify.residual_heat_kernel(),
    ]
    orders = {rep.equation: rep.convergence_order for rep in reports}
    ok = all(1.8 <= order <= 2.2 for order in orders.values())
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{eq}={order:.3f}" for eq, order in orders.items())
    _report(
        "criterion 3 (PDE residual convergence orders)",
        ok,
        f"orders in [1.8, 2.2]: {detail}",
        elapsed,
        60.0,
    )


def test_criterion_4_gaussian_inversion():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        for tau in (-2.0, -0.5, 0.0, 0.5, 2.0):
            for gamma in (0.0, 1.0, 1j):
                params = KernelParams(s=s, tau=tau, gamma=gamma, n=1)
                err = verify.dft_inversion_check(params, grid_extent=40.0, grid_count=512)
                worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (Gaussian inversion by DFT)",
        worst < 1e-6,
        f"max normalized error {worst:.3e} < 1e-6 on 512^2, extent 40",
        elapsed,
        30.0,
    )


def test_criterion_5_simplification_identities():
    t0 = time.perf_counter()
    # >= 1000 sample points over s in (0, 10], |tau| <= 10
    s_vals = 10.0 * (np.arange(32) + 1) / 32.0
    tau_vals = np.concatenate(
        [-10.0 * (np.arange(16) + 1) / 16.0, 10.0 * (np.arange(16) + 1) / 16.0]
    )
    worst_b = worst_ab = 0.0
    for s in s_vals:
        for tau in tau_vals:
            ratio_b, ratio_ab = oracles.simplification_ratios(float(s), float(tau))
            worst_b = max(worst_b, abs(ratio_b - tau / 2) / abs(tau / 2))
            coth = math.cosh(s * tau / 4) / math.sinh(s * tau / 4)
            worst_ab = max(worst_ab, abs(ratio_ab - coth) / abs(coth))

    rng = np.random.default_rng(20240801)
    worst_twist = 0.0
    for _ in range(64):
        s = float(rng.uniform(0.1, 4.0))
        tau = float(rng.uniform(-3.0, 3.0)) or 0.5
        gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        xp, yp, x, y = rng.uniform(-2, 2, 4)
        params = KernelParams(s=s, tau=tau, gamma=gamma, n=1)
        lhs = heat_kernel_h(params, xp, yp, x, y)
        rhs = rho_tilde(params, x - xp, y - yp) * np.exp(-1j * tau * (x - xp) * yp)
        worst_twist = max(worst_twist, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - t0
    ok = worst_b < 1e-12 and worst_ab < 1e-12 and worst_twist < 1e-12
    _report(
        "criterion 5 (section-3 identities and twist factorization)",
        ok,
        f"B/(A^2+B^2) vs tau/2: {worst_b:.3e}, A/B vs coth: {worst_ab:.3e}, "
        f"twist: {worst_twist:.3e}, all < 1e-12",
        elapsed,
        5.0,
    )


def test_criterion_6_semigroup_and_initial_condition():
    t0 = time.perf_counter()
    panel = [
        (0.5, 0.5, 1.0, 0.0, ((0.2, -0.3), (0.2, -0.3))),
        (0.7, 0.3, 0.0, 0.0, ((0.0, 0.0), (0.6, -0.4))),
        (0.5, 0.5, 1.0, 2.0, ((0.2, -0.3), (-0.1, 0.5))),
        (0.4, 0.6, -0.5, 1j, ((0.3, 0.1), (-0.2, 0.4))),
    ]
    worst_semi = 0.0
    worst_tau0 = 0.0
    for s1, s2, tau, gamma, points in panel:
        p1 = KernelParams(s=s1, tau=tau, gamma=gamma, n=1)
        p2 = KernelParams(s=s2, tau=tau, gamma=gamma, n=1)
        err = verify.semigroup_check(p1, p2, points)
        worst_semi = max(worst_semi, err)
        if tau == 0.0:
            worst_tau0 = max(worst_tau0, err)

    params = KernelParams(s=1.0, tau=1.0, gamma=0.0, n=1)
    errors = verify.initial_condition_check(
        params, verify.GaussianTestFunction(), (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
    )
    monotone = all(errors[k + 1] <= 1.1 * errors[k] for k in range(len(errors) - 1))
    ok = worst_semi < 1e-6 and worst_tau0 < 1e-8 and monotone and errors[-1] < 5e-3
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 (semigroup and initial condition)",
        ok,
        f"semigroup {worst_semi:.3e} < 1e-6 (tau=0: {worst_tau0:.3e} < 1e-8), "
        f"initial-condition errors decreasing={monotone}, final {errors[-1]:.3e} < 5e-3",
        elapsed,
        60.0,
    )


def test_criterion_7_limits_and_parity():
    t0 = time.perf_counter()
    # tau = 0 branch matches exp(-s (alpha^2+beta^2)/4) to 1e-12
    worst_limit = 0.0
    for s in (0.3, 1.0, 2.5):
        params = KernelParams(s=s, tau=0.0, gamma=1.5 + 0.5j, n=1)
        for alpha in (-2.0, 0.0, 0.7):
            for beta in (-0.4, 0.0, 1.9):
                expect = math.exp(-s * (alpha**2 + beta**2) / 4)
                got = rho_hat(params, alpha, beta)
                worst_limit = max(worst_limit, abs(got - expect) / expect)

    # branch continuity: series vs direct evaluation of every coefficient at |s*tau| = 1e-4
    worst_branch = 0.0
    for s in (0.5, 2.0):
        for sign in (1.0, -1.0):
            tau = sign * kernels.TAYLOR_BRANCH_THRESHOLD / s
            series = kernels._coefficients_series(s, tau)
            direct = kernels._coefficients_direct(s, tau)
            for ser, dire in zip(series, direct):
                worst_branch = max(worst_branch, abs(ser - dire) / abs(dire))

    # conjugation parity in tau at roundoff
    worst_parity = 0.0
    for gamma in (0.0, 1.0, -1.0, 1j, 0.5 + 0.3j):
        for tau in (0.7, 2.0):
            fwd = rho_hat(KernelParams(s=1.3, tau=tau, gamma=gamma), 0.9, -1.2)
            rev = rho_hat(KernelParams(s=1.3, tau=-tau, gamma=-np.conj(gamma)), 0.9, -1.2)
            worst_parity = max(worst_parity, abs(rev - np.conj(fwd)) / abs(fwd))
    elapsed = time.perf_counter() - t0
    ok = worst_limit < 1e-12 and worst_branch < 1e-10 and worst_parity < 1e-14
    _report(
        "criterion 7 (limits, branch continuity, parity)",
        ok,
        f"tau=0 limit {worst_limit:.3e} < 1e-12, branch continuity {worst_branch:.3e} < 1e-10, "
        f"parity {worst_parity:.3e} at roundoff",
        elapsed,
        5.0,
    )


def test_criterion_8_hermite_foundation():
    t0 = time.perf_counter()
    deviation = verify.orthonormality_suite(60)
    report = verify.eigenfunction_residual_report()
    ok = deviation < 1e-10 and 1.8 <= report.convergence_order <= 2.2
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 (Hermite foundation)",
        ok,
        f"orthonormality deviation {deviation:.3e} < 1e-10, "
        f"eigenfunction FD order {report.convergence_order:.3f} in [1.8, 2.2]",
        elapsed,
        20.0,
    )
