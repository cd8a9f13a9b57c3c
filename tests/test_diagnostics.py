import math

import numpy as np
import pytest

import helpers
from conftest import random_hermitian_coeffs
from gnsflow import diagnostics, operators
from gnsflow.diagnostics import (
    BoundReport,
    InconclusiveFitError,
    NormParams,
    RadiusEstimate,
    X_norm,
    Y_norm,
    beta,
    bilinear_tail_bound_sides,
    bound_report,
    envelope_norm,
    estimate_radius,
    eta_J,
    gevrey_norm,
    lambda_critical,
    lambda_subcritical,
    lebesgue_norm,
    p_gamma,
    smoothing_kernel_bound_sides,
    sobolev_norm,
    zeta_J,
)
from gnsflow.operators import navier_stokes_coeffs, stack_coefficients, velocity_from_stack
from gnsflow.solver import Trajectory
from gnsflow.spectral import build_grid, hermitian_symmetrize


def single_pair_velocity(grid, mode, amplitude, component=0):
    """Real field: amplitude * 2cos(k.x) in one velocity component."""
    stack = np.zeros((3,) + grid.shape, dtype=complex)
    i, j, k = mode
    stack[component, i, j, k] = amplitude
    stack[component, -i % grid.n_per_axis, -j % grid.n_per_axis, -k % grid.n_per_axis] = amplitude
    return velocity_from_stack(grid, stack)


def heat_trajectory(u0, times):
    grid = u0.grid
    base = stack_coefficients(u0)
    ksq = np.asarray(grid.k_sq)
    states = tuple(velocity_from_stack(grid, base * np.exp(-float(t) * ksq))
                   for t in times)
    return Trajectory(np.asarray(times, dtype=float), states)


def random_div_free(grid, rng, scale=1.0):
    stack = np.stack([random_hermitian_coeffs(grid, rng, scale) for _ in range(3)])
    # Leray only preserves conjugate symmetry on Nyquist-free input
    stack *= np.asarray(grid.dealias_mask)
    stack = operators.leray_project_stack(grid, stack)
    stack[:, 0, 0, 0] = 0.0
    return velocity_from_stack(grid, stack)


class TestHandValues:
    """Frozen closed-form evaluations of the scalar estimators (abs 1e-12)."""

    def test_beta_values(self):
        assert beta(0.01, 1.0, 0.5) == pytest.approx(0.6931471805599453, abs=1e-12)
        assert beta(0.01, 1.0, 0.0) == pytest.approx(1.1512925464970227, abs=1e-12)
        assert beta(0.01, 1.0, 1e-6) == pytest.approx(1.1512925464970227, abs=1e-12)
        assert beta(0.2, 0.75, 0.9) == pytest.approx(0.10536051565782628, abs=1e-12)
        assert beta(0.5, 2.0, 3.0) == pytest.approx(0.5198603854199589, abs=1e-12)

    def test_beta_cutoff_equality_regime(self):
        # eta <= t^{(gamma-1/2)/2} makes the |ln eta| branch meet the cutoff
        t, gamma = 0.01, 1.0
        eta_eq = t ** ((gamma - 0.5) / 2.0)
        cutoff = 0.5 * (gamma - 0.5) * abs(math.log(t))
        assert beta(t, gamma, eta_eq) == pytest.approx(cutoff, abs=1e-12)
        assert beta(t, gamma, eta_eq * 0.1) == pytest.approx(cutoff, abs=1e-12)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            beta(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            beta(0.5, 0.4, 0.5)
        with pytest.raises(ValueError):
            beta(0.5, 1.0, -1.0)

    def test_lambda_subcritical_values(self):
        assert lambda_subcritical(0.01, 1.0, 0.6931471805599453) == pytest.approx(
            2.865622332666297, abs=1e-12)
        assert lambda_subcritical(1e-4, 0.8, 0.0) == pytest.approx(
            2.6188547701249907, abs=1e-12)
        assert lambda_subcritical(0.3, 1.5, 2.0) == pytest.approx(
            2.962971334045708, abs=1e-12)

    def test_lambda_subcritical_domain(self):
        with pytest.raises(ValueError):
            lambda_subcritical(0.5, 1.0, 0.0)   # t >= 1/e
        with pytest.raises(ValueError):
            lambda_subcritical(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            lambda_subcritical(0.01, 0.5, 0.0)  # gamma must exceed 1/2

    def test_lambda_subcritical_dominates_sqrt_t_law(self):
        # lam(t) sqrt(t) >= sqrt((2 gamma - 1) t (|ln t| + ln |ln t|))
        for t in (1e-4, 1e-3, 1e-2, 0.3):
            for gamma in (0.75, 1.0, 1.5):
                for b in (0.0, 0.3, 2.0):
                    lam = lambda_subcritical(t, gamma, b)
                    floor = math.sqrt((2 * gamma - 1) * t
                                      * (-math.log(t) + math.log(-math.log(t))))
                    assert lam * math.sqrt(t) >= floor - 1e-15

    def test_lambda_critical_values(self):
        assert lambda_critical(0.01, 0.5) == pytest.approx(1.442026886600883, abs=1e-12)
        assert lambda_critical(0.01, 0.0) == pytest.approx(3.7169221888498383, abs=1e-12)
        assert lambda_critical(0.04, 0.2) == pytest.approx(2.197342426046132, abs=1e-12)
        assert lambda_critical(0.2, 0.001) == pytest.approx(2.197342426046132, abs=1e-12)

    def test_lambda_critical_saturation(self):
        assert lambda_critical(0.01, 1.0) == 0.0
        assert lambda_critical(0.01, 2.5) == 0.0

    def test_lambda_critical_domain(self):
        with pytest.raises(ValueError):
            lambda_critical(1.0, 0.5)
        with pytest.raises(ValueError):
            lambda_critical(0.01, -0.1)

    def test_p_gamma_values(self):
        assert p_gamma(0.5) == pytest.approx(4.0, abs=1e-12)
        assert p_gamma(0.75) == pytest.approx(5.333333333333333, abs=1e-12)
        assert p_gamma(1.0) == pytest.approx(8.0, abs=1e-12)
        assert p_gamma(1.2) == pytest.approx(4.0, abs=1e-12)
        assert p_gamma(2.0) == pytest.approx(4.0, abs=1e-12)

    def test_p_gamma_domain(self):
        with pytest.raises(ValueError):
            p_gamma(0.3)


class TestNormParams:
    def test_validation(self):
        NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=4.0)
        with pytest.raises(ValueError):
            NormParams(gamma=0.3, delta=0.1, t_horizon=0.01, lam=4.0)
        with pytest.raises(ValueError):
            NormParams(gamma=1.0, delta=0.0, t_horizon=0.01, lam=4.0)
        with pytest.raises(ValueError):
            NormParams(gamma=1.0, delta=0.1, t_horizon=0.0, lam=4.0)
        with pytest.raises(ValueError):
            NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=-1.0)
        with pytest.raises(ValueError):
            NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=4.0, eta0=0.0)

    def test_subcritical_gate(self):
        ok = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=4.0)
        assert ok.is_subcritical
        ok.require_subcritical()
        edge = NormParams(gamma=0.6, delta=0.1, t_horizon=0.01, lam=4.0)
        assert not edge.is_subcritical
        with pytest.raises(ValueError):
            edge.require_subcritical()


class TestSobolevGevrey:
    def test_single_mode_sobolev(self):
        grid = build_grid(8)
        u = single_pair_velocity(grid, (2, 0, 0), 0.5)
        # two modes |k| = 2, |coeff| = 0.5 each, unit box weight 1
        want_hom = math.sqrt(2 * (2.0 ** (2 * 0.75)) * 0.25)
        assert sobolev_norm(u, 0.75, True) == pytest.approx(want_hom, rel=1e-14)
        want_inhom = math.sqrt(2 * (5.0 ** 0.75) * 0.25)
        assert sobolev_norm(u, 0.75, False) == pytest.approx(want_inhom, rel=1e-14)

    def test_lattice_weight_scales_with_period(self):
        for period in (2 * math.pi, 4 * math.pi):
            grid = build_grid(8, period=period)
            u = single_pair_velocity(grid, (2, 0, 0), 1.0)
            w = (2 * math.pi / period) ** 1.5
            kval = 2 * (2 * math.pi / period)
            want = w * math.sqrt(2 * kval**2)
            assert sobolev_norm(u, 1.0, True) == pytest.approx(want, rel=1e-14)

    def test_gevrey_at_zero_radius_equals_homogeneous_sobolev_exactly(self, rng):
        grid = build_grid(8)
        u = random_div_free(grid, rng)
        for s in (0.0, 0.5, 1.0, 1.7):
            assert gevrey_norm(u, 0.0, s) == sobolev_norm(u, s, True)

    def test_gevrey_nondecreasing_in_radius(self, rng):
        grid = build_grid(8)
        u = random_div_free(grid, rng)
        rs = [0.0, 0.05, 0.1, 0.3, 0.7, 1.5]
        vals = [gevrey_norm(u, r, 0.5) for r in rs]
        for a, b in zip(vals, vals[1:]):
            assert b >= a * (1 - 1e-12)

    def test_gevrey_single_mode_closed_form(self):
        grid = build_grid(8)
        u = single_pair_velocity(grid, (0, 3, 0), 2.0)
        r, s = 0.4, 1.0
        want = math.sqrt(2 * (3.0 ** (2 * s)) * math.exp(2 * r * 3.0) * 4.0)
        assert gevrey_norm(u, r, s) == pytest.approx(want, rel=1e-13)

    def test_gevrey_overflow_guard(self):
        grid = build_grid(8)  # k_max = 4 sqrt(3) ~ 6.93
        u = single_pair_velocity(grid, (1, 0, 0), 1.0)
        assert gevrey_norm(u, 102.0, 0.0) == math.inf
        assert math.isfinite(gevrey_norm(u, 100.0, 0.0))

    def test_gevrey_rejects_negative_radius(self):
        grid = build_grid(8)
        u = single_pair_velocity(grid, (1, 0, 0), 1.0)
        with pytest.raises(ValueError):
            gevrey_norm(u, -0.1, 0.0)

    def test_homogeneous_negative_s_domain(self):
        grid = build_grid(8)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0, 0, 0, 0] = 1.0
        u = velocity_from_stack(grid, stack)
        with pytest.raises(ValueError):
            sobolev_norm(u, -0.5, True)


class TestEtaZeta:
    def make_traj(self, rng, n=8, m=4):
        grid = build_grid(n)
        u0 = random_div_free(grid, rng)
        return heat_trajectory(u0, np.linspace(0.0, 0.1, m))

    def test_matches_brute_force(self, rng):
        traj = self.make_traj(rng)
        grid = traj.grid
        times = np.asarray(traj.times)
        for J, t in [(10.0, 0.1), (50.0, 0.1), (200.0, 0.05), (500.0, 0.1)]:
            keep = times <= t + 1e-12
            states = [stack_coefficients(s)
                      for s, k in zip(traj.states, keep) if k]
            want = helpers.oracle_eta(states, 8, 2 * math.pi, J, 1.0, grid.mode_weight)
            assert eta_J(traj, J, 1.0, t) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_zeta_equals_eta_at_hundredfold_J(self, rng):
        traj = self.make_traj(rng)
        for J in (0.5, 2.0, 5.0):
            assert zeta_J(traj, J, 1.0, 0.1) == eta_J(traj, 100.0 * J, 1.0, 0.1)

    def test_nonincreasing_in_J(self, rng):
        traj = self.make_traj(rng)
        Js = [1.0, 2.0, 4.0, 8.0, 16.0, 100.0, 1000.0]
        vals = [eta_J(traj, J, 1.0, 0.1) for J in Js]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-12)

    def test_nondecreasing_in_t(self, rng):
        traj = self.make_traj(rng, m=6)
        ts = np.asarray(traj.times)[1:]
        vals = [eta_J(traj, 30.0, 1.0, float(t)) for t in ts]
        for a, b in zip(vals, vals[1:]):
            assert b >= a * (1 - 1e-12)

    def test_running_max_includes_initial_state(self, rng):
        # heat flow decays, so the max sits at tau = 0
        traj = self.make_traj(rng)
        got = eta_J(traj, 100.0, 1.0, 0.1)
        first = diagnostics.eta_J(traj, 100.0, 1.0, 0.0)
        assert got == pytest.approx(first, rel=1e-12)

    def test_cutoff_on_a_shell_radius_includes_that_shell(self):
        grid = build_grid(8)
        u = single_pair_velocity(grid, (0, 3, 0), 2.0)
        traj = Trajectory(np.array([0.0, 0.1]), (u, u))
        want = math.sqrt(2 * 3.0**2 * 4.0)
        assert zeta_J(traj, 3.0, 1.0, 0.1) == pytest.approx(want, rel=1e-14)
        assert zeta_J(traj, float(np.nextafter(3.0, 4.0)), 1.0, 0.1) == 0.0

    def test_cutoff_above_kmax_gives_zero(self, rng):
        grid = build_grid(8)
        stack = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)])
        u = velocity_from_stack(grid, stack)   # corner modes populated
        traj = Trajectory(np.array([0.0, 0.1]), (u, u))
        assert zeta_J(traj, 0.99 * grid.k_max, 1.0, 0.1) > 0.0
        assert zeta_J(traj, 1.01 * grid.k_max, 1.0, 0.1) == 0.0
        assert eta_J(traj, 101.0 * grid.k_max, 1.0, 0.1) == 0.0

    def test_lookup_at_start_and_horizon(self, rng):
        traj = self.make_traj(rng)
        grid = traj.grid
        stacks = [stack_coefficients(s) for s in traj.states]
        for t, upto in ((0.0, 1), (traj.horizon, len(stacks))):
            want = helpers.oracle_eta(stacks[:upto], 8, 2 * math.pi, 150.0, 1.0,
                                      grid.mode_weight)
            assert eta_J(traj, 150.0, 1.0, t) == pytest.approx(want, rel=1e-12)

    def test_table_built_once_per_gamma(self, rng, monkeypatch):
        traj = self.make_traj(rng)
        built = []
        real = diagnostics._build_tail_table

        def spy(tr, gamma):
            built.append(gamma)
            return real(tr, gamma)
        monkeypatch.setattr(diagnostics, "_build_tail_table", spy)
        for J in (10.0, 50.0, 400.0):
            for t in (0.0, 0.05, 0.1):
                eta_J(traj, J, 1.0, t)
                zeta_J(traj, J, 1.0, t)
        assert built == [1.0]
        eta_J(traj, 10.0, 0.5, 0.1)
        assert built == [1.0, 0.5]
        assert traj.tail_tables[1.0] is not traj.tail_tables[0.5]
        other = self.make_traj(rng)
        eta_J(other, 10.0, 1.0, 0.1)
        assert built == [1.0, 0.5, 1.0]

    def test_domain_errors(self, rng):
        traj = self.make_traj(rng)
        with pytest.raises(ValueError):
            eta_J(traj, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            eta_J(traj, 10.0, 1.0, 0.2)   # beyond horizon
        with pytest.raises(ValueError):
            eta_J(traj, 10.0, -0.5, 0.1)


class TestEnvelopeNorms:
    def closed_form_x(self, amp, kmod, times, params):
        best = 0.0
        for t in times:
            t = float(t)
            if t == 0.0:
                continue
            expo = (params.lam * t / math.sqrt(params.t_horizon)) * kmod \
                - params.lam**2 * t / (4.0 * params.t_horizon)
            val = (t ** (params.delta / 2.0)
                   * math.sqrt(2 * (kmod ** (2 * (params.delta + 0.5)))
                               * (amp * math.exp(-t * kmod**2)) ** 2)
                   * math.exp(expo))
            best = max(best, val)
        return best

    def test_single_mode_heat_flow_closed_form(self):
        grid = build_grid(8)
        u0 = single_pair_velocity(grid, (2, 0, 0), 0.3)
        times = np.linspace(0.0, 0.01, 9)
        traj = heat_trajectory(u0, times)
        params = NormParams(gamma=1.0, delta=0.2, t_horizon=0.01, lam=2.0)
        want = self.closed_form_x(0.3, 2.0, times, params)
        assert X_norm(traj, params) == pytest.approx(want, rel=1e-10)

    def test_zero_lam_reduces_to_weighted_sobolev_sup(self):
        grid = build_grid(8)
        u0 = single_pair_velocity(grid, (1, 2, 0), 0.7)
        times = np.linspace(0.0, 0.02, 5)
        traj = heat_trajectory(u0, times)
        params = NormParams(gamma=1.0, delta=0.15, t_horizon=0.02, lam=0.0)
        want = max(float(t) ** (params.delta / 2.0)
                   * sobolev_norm(s, 0.5 + params.delta, True)
                   for t, s in zip(times, traj.states) if float(t) > 0.0)
        assert X_norm(traj, params) == pytest.approx(want, rel=1e-12)

    def test_y_norm_cutoff_excludes_low_modes(self):
        grid = build_grid(8)
        params = NormParams(gamma=1.0, delta=0.2, t_horizon=0.01, lam=0.0)
        # cutoff T^{-1/4} ~ 3.16: a |k| = 2 mode vanishes, a |k| = 4 mode counts
        low = heat_trajectory(single_pair_velocity(grid, (2, 0, 0), 1.0),
                              np.linspace(0.0, 0.01, 5))
        high = heat_trajectory(single_pair_velocity(grid, (0, 4, 0), 1.0),
                               np.linspace(0.0, 0.01, 5))
        assert Y_norm(low, params) == 0.0
        assert Y_norm(high, params) > 0.0

    def test_absolute_homogeneity(self, rng):
        grid = build_grid(8)
        u0 = random_div_free(grid, rng)
        times = np.linspace(0.0, 0.01, 5)
        traj = heat_trajectory(u0, times)
        scaled = heat_trajectory(
            velocity_from_stack(grid, -2.5 * stack_coefficients(u0)), times)
        params = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=3.0)
        assert X_norm(scaled, params) == pytest.approx(2.5 * X_norm(traj, params),
                                                       rel=1e-12)
        assert Y_norm(scaled, params) == pytest.approx(2.5 * Y_norm(traj, params),
                                                       rel=1e-12)

    def test_subadditive(self, rng):
        grid = build_grid(8)
        times = np.linspace(0.0, 0.01, 5)
        a = heat_trajectory(random_div_free(grid, rng), times)
        b = heat_trajectory(random_div_free(grid, rng), times)
        summed = Trajectory(times, tuple(
            velocity_from_stack(grid, stack_coefficients(x) + stack_coefficients(y))
            for x, y in zip(a.states, b.states)))
        params = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=2.0)
        assert X_norm(summed, params) <= (X_norm(a, params) + X_norm(b, params)) * (1 + 1e-12)

    def test_overflow_guard_returns_inf(self):
        # peak exponent drift * k_max - sink maxes out at t * k_max^2 when
        # lam = 2 k_max sqrt(T); grid 32 at t = T = 1 gives 768 > 700
        grid = build_grid(32)
        traj = heat_trajectory(single_pair_velocity(grid, (2, 0, 0), 1.0),
                               np.linspace(0.0, 1.0, 3))
        params = NormParams(gamma=1.0, delta=0.1, t_horizon=1.0,
                            lam=2.0 * grid.k_max)
        assert X_norm(traj, params) == math.inf

    def test_horizon_shorter_than_params_rejected(self):
        grid = build_grid(8)
        traj = heat_trajectory(single_pair_velocity(grid, (2, 0, 0), 1.0),
                               np.linspace(0.0, 0.005, 3))
        params = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=1.0)
        with pytest.raises(ValueError):
            X_norm(traj, params)

    def test_envelope_norm_rejects_negative_time(self):
        grid = build_grid(8)
        u = single_pair_velocity(grid, (2, 0, 0), 1.0)
        params = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=1.0)
        with pytest.raises(ValueError):
            envelope_norm(u, -0.01, params, 0.0)


class TestLebesgueNorm:
    def test_constant_field_all_p(self):
        grid = build_grid(8, period=4.0)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[1, 0, 0, 0] = 1.5
        u = velocity_from_stack(grid, stack)
        for p in (1.0, 5.0 / 3.0, 2.0, 4.0):
            assert lebesgue_norm(u, p) == pytest.approx(1.5 * 4.0 ** (3.0 / p),
                                                        rel=1e-12)

    def test_l2_matches_parseval(self, rng):
        grid = build_grid(8, period=3.0)
        u = random_div_free(grid, rng)
        coeff_sq = sum(float(np.sum(np.abs(c.coeffs) ** 2)) for c in u.components)
        want = math.sqrt(3.0**3 * coeff_sq)
        assert lebesgue_norm(u, 2.0) == pytest.approx(want, rel=1e-12)

    def test_rejects_p_below_one(self, rng):
        u = random_div_free(build_grid(8), rng)
        with pytest.raises(ValueError):
            lebesgue_norm(u, 0.5)


class TestEstimateRadius:
    def exp_profile_velocity(self, grid, rate, prefactor_power=0.0):
        knorm = np.asarray(grid.k_norm)
        profile = np.exp(-rate * knorm) * (1.0 + knorm) ** (-prefactor_power)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = profile
        return velocity_from_stack(grid, stack)

    def test_pure_exponential_recovers_rate(self):
        grid = build_grid(16)
        u = self.exp_profile_velocity(grid, 0.3)
        est = estimate_radius(u, 2.0, 10.0)
        assert not est.capped
        assert est.radius == pytest.approx(0.3, rel=1e-6)
        assert est.r2 > 0.999

    def test_amplitude_invariance(self):
        grid = build_grid(16)
        u = self.exp_profile_velocity(grid, 0.5)
        scaled = velocity_from_stack(grid, stack_coefficients(u) * 1e-8)
        e1 = estimate_radius(u, 2.0, 10.0)
        e2 = estimate_radius(scaled, 2.0, 10.0)
        assert e1.radius == pytest.approx(e2.radius, rel=1e-12)
        assert e1.r2 == pytest.approx(e2.r2, rel=1e-12)

    def test_heat_kernel_window_local_radius(self):
        # |u_hat| = e^{-t |k|^2}: window slope ~ 2 t k_window >= t * fit_lo,
        # monotone as the window moves to larger |k|
        grid = build_grid(16)
        t = 0.05
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = np.exp(-t * np.asarray(grid.k_sq))
        u = velocity_from_stack(grid, stack)
        radii = []
        for lo, hi in [(2.0, 4.5), (4.0, 6.5), (6.0, 8.5)]:
            est = estimate_radius(u, lo, hi, n_shells=64)
            assert est.radius >= t * lo
            radii.append(est.radius)
        assert radii[0] < radii[1] < radii[2]

    def test_all_floored_window_caps(self):
        grid = build_grid(16)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        mask = np.asarray(grid.k_norm) <= 2.0
        stack[0][mask] = 1.0
        u = velocity_from_stack(grid, stack)
        est = estimate_radius(u, 8.0, 12.0)
        assert est.capped
        assert math.isnan(est.r2)
        assert est.radius == pytest.approx(math.log(1e300) / 8.0, rel=1e-12)
        assert est.n_shells_used == 0

    def test_too_few_usable_shells_is_inconclusive(self):
        grid = build_grid(16)
        u = self.exp_profile_velocity(grid, 0.3)
        with pytest.raises(InconclusiveFitError) as exc:
            estimate_radius(u, 4.0, 5.0, n_shells=12)  # window spans ~1 shell
        assert exc.value.n_usable is not None and exc.value.n_usable < 5

    def test_growing_spectrum_is_inconclusive(self):
        grid = build_grid(16)
        knorm = np.asarray(grid.k_norm)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = 1e-6 * np.exp(0.2 * knorm)
        u = velocity_from_stack(grid, stack)
        with pytest.raises(InconclusiveFitError) as exc:
            estimate_radius(u, 2.0, 10.0)
        assert exc.value.slope is not None and exc.value.slope > 0.0

    def test_noise_spectrum_is_inconclusive(self, rng):
        grid = build_grid(16)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = 0.5 + rng.uniform(0.0, 1.0, grid.shape)
        u = velocity_from_stack(grid, stack)
        with pytest.raises(InconclusiveFitError) as exc:
            estimate_radius(u, 2.0, 12.0)
        assert exc.value.r2 is None or exc.value.r2 < 0.9

    def test_window_validation(self):
        grid = build_grid(16)
        u = self.exp_profile_velocity(grid, 0.3)
        with pytest.raises(ValueError):
            estimate_radius(u, 5.0, 4.0)
        with pytest.raises(ValueError):
            estimate_radius(u, 2.0, grid.k_max * 2.0)

    def test_component_maximum_drives_shells(self):
        # radius reflects the slowest-decaying component
        grid = build_grid(16)
        knorm = np.asarray(grid.k_norm)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = np.exp(-1.0 * knorm)
        stack[1] = np.exp(-0.25 * knorm)
        u = velocity_from_stack(grid, stack)
        est = estimate_radius(u, 2.0, 10.0)
        assert est.radius == pytest.approx(0.25, rel=1e-6)


class TestBoundReport:
    def white_band_heat_traj(self, grid, k_lo, k_hi, times):
        knorm = np.asarray(grid.k_norm)
        band = (knorm >= k_lo) & (knorm <= k_hi)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0][band] = 1.0
        stack[1][band] = 0.5
        u0 = velocity_from_stack(grid, stack)
        return heat_trajectory(u0, times)

    def test_subcritical_white_band_ratios_dominate_one(self):
        # moderate-time window where the measured radius 2 t k_band clears
        # the lambda sqrt(t) predictor
        grid = build_grid(32)
        times = np.linspace(0.0, 0.04, 41)
        traj = self.white_band_heat_traj(grid, 18.0, 22.0, times)
        rep = bound_report(traj, gamma=1.0, mode="subcritical", fit_lo=18.5,
                           fit_hi=21.5, sample_times=[0.01, 0.02, 0.04],
                           n_shells=96)
        assert rep.n_rows == 3
        assert not rep.capped.any()
        assert not rep.tail_empty.any()
        assert np.all(rep.ratio >= 1.0)
        np.testing.assert_allclose(rep.k_t, 3.0 * rep.beta_values, rtol=1e-12)

    def test_predictor_columns_consistent(self):
        grid = build_grid(32)
        times = np.linspace(0.0, 0.04, 41)
        traj = self.white_band_heat_traj(grid, 18.0, 22.0, times)
        rep = bound_report(traj, 1.0, "subcritical", 18.5, 21.5, [0.02], 96)
        t = float(rep.times[0])
        eta_direct = eta_J(traj, t**-0.5, 1.0, t)
        assert rep.eta_or_zeta[0] == pytest.approx(eta_direct, rel=1e-12)
        b = beta(t, 1.0, eta_direct)
        assert rep.beta_values[0] == pytest.approx(b, abs=1e-12)
        lam = lambda_subcritical(t, 1.0, b)
        assert rep.lambda_values[0] == pytest.approx(lam, abs=1e-12)
        assert rep.predictor[0] == pytest.approx(lam * math.sqrt(t), abs=1e-12)
        assert rep.ratio[0] == pytest.approx(rep.measured_radius[0] / rep.predictor[0],
                                             rel=1e-12)

    def test_sample_times_snap_to_lattice(self):
        grid = build_grid(16)
        times = np.linspace(0.0, 0.04, 5)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = np.exp(-0.4 * np.asarray(grid.k_norm))
        traj = heat_trajectory(velocity_from_stack(grid, stack), times)
        rep = bound_report(traj, 1.0, "subcritical", 2.0, 10.0,
                           [0.01 + 1e-12], n_shells=48)
        assert rep.times[0] == pytest.approx(0.01, abs=1e-15)
        with pytest.raises(ValueError):
            bound_report(traj, 1.0, "subcritical", 2.0, 10.0, [0.015], 48)

    def test_critical_mode_zeta_branches(self):
        grid = build_grid(16)
        times = np.linspace(0.0, 0.01, 11)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = 1e-3 * np.exp(-0.5 * np.asarray(grid.k_norm))
        traj = heat_trajectory(velocity_from_stack(grid, stack), times)
        rep = bound_report(traj, 0.5, "critical", 2.0, 10.0, [0.002, 0.01], 48)
        assert np.all(np.isnan(rep.beta_values))
        assert np.all(np.isnan(rep.k_t))
        for i, t in enumerate(rep.times):
            z = zeta_J(traj, float(t) ** -0.25, 0.5, float(t))
            assert rep.eta_or_zeta[i] == pytest.approx(z, rel=1e-12)
            assert rep.lambda_values[i] == pytest.approx(
                lambda_critical(float(t), z), abs=1e-12)

    def test_critical_saturated_zeta_flags_and_inf_ratio(self):
        grid = build_grid(16)
        times = np.linspace(0.0, 0.01, 11)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = 50.0 * np.exp(-0.5 * np.asarray(grid.k_norm))
        traj = heat_trajectory(velocity_from_stack(grid, stack), times)
        rep = bound_report(traj, 0.5, "critical", 2.0, 10.0, [0.01], 48)
        assert rep.zeta_flagged[0]
        assert rep.lambda_values[0] == 0.0
        assert rep.predictor[0] == 0.0
        assert rep.ratio[0] == math.inf

    def test_tail_empty_flag_on_effective_cutoff(self):
        grid = build_grid(16)  # k_max ~ 13.86
        times = np.array([0.0, 1e-5, 1.0])
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = np.exp(-0.5 * np.asarray(grid.k_norm))
        traj = heat_trajectory(velocity_from_stack(grid, stack), times)
        # t = 1e-5: zeta cutoff t^{-1/4} ~ 17.8 > k_max -> empty tail, zeta = 0
        rep = bound_report(traj, 0.5, "critical", 2.0, 10.0, [1e-5], 48)
        assert rep.tail_empty[0]
        assert rep.eta_or_zeta[0] == 0.0
        assert rep.lambda_values[0] == pytest.approx(
            math.sqrt(3.0 * abs(math.log(1e-5))), abs=1e-12)

    def test_mode_and_gamma_validation(self):
        grid = build_grid(16)
        times = np.linspace(0.0, 0.01, 3)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = np.exp(-0.5 * np.asarray(grid.k_norm))
        traj = heat_trajectory(velocity_from_stack(grid, stack), times)
        with pytest.raises(ValueError):
            bound_report(traj, 0.5, "subcritical", 2.0, 10.0, [0.01])
        with pytest.raises(ValueError):
            bound_report(traj, 1.0, "critical", 2.0, 10.0, [0.01])
        with pytest.raises(ValueError):
            bound_report(traj, 1.0, "nonsense", 2.0, 10.0, [0.01])
        with pytest.raises(ValueError):
            bound_report(traj, 1.0, "subcritical", 2.0, 10.0, [])

    def test_inconclusive_fit_propagates(self, rng):
        grid = build_grid(16)
        times = np.linspace(0.0, 0.01, 3)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        # flat noisy spectrum of a real field
        stack[0] = hermitian_symmetrize(0.5 + rng.uniform(0.0, 1.0, grid.shape))
        traj = Trajectory(times, tuple(velocity_from_stack(grid, stack.copy())
                                       for _ in times))
        with pytest.raises(InconclusiveFitError):
            bound_report(traj, 1.0, "subcritical", 2.0, 12.0, [0.01])


class TestBoundSides:
    def band_trajectory(self, grid, rng, k_hi, times, scale=1.0):
        knorm = np.asarray(grid.k_norm)
        stack = np.stack([random_hermitian_coeffs(grid, rng, scale) for _ in range(3)])
        stack *= (knorm > 0.0) & (knorm <= k_hi)
        stack = operators.leray_project_stack(grid, stack)
        return heat_trajectory(velocity_from_stack(grid, stack), times)

    def test_bilinear_sides_finite_and_positive(self, rng):
        grid = build_grid(16)
        times = np.linspace(0.0, 0.01, 5)
        params = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=4.0)
        f = self.band_trajectory(grid, rng, 5.0, times)
        g = self.band_trajectory(grid, rng, 5.0, times)
        lhs, rhs = bilinear_tail_bound_sides(navier_stokes_coeffs(), f, g, params,
                                             n1=params.lam / math.sqrt(0.01))
        assert math.isfinite(lhs) and lhs >= 0.0
        assert math.isfinite(rhs) and rhs > 0.0

    def test_bilinear_rejects_zero_lam(self, rng):
        grid = build_grid(8)
        times = np.linspace(0.0, 0.01, 3)
        params = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=0.0)
        f = self.band_trajectory(grid, rng, 3.0, times)
        with pytest.raises(ValueError):
            bilinear_tail_bound_sides(navier_stokes_coeffs(), f, f, params, n1=1.0)

    def test_kernel_low_region_single_mode_closed_form(self):
        # constant-in-time single mode: integral = (e^{n0^2 t} - e^{n0^2 eta0 t}) / n0^2
        grid = build_grid(8)
        amp, kmod = 0.4, 2.0
        u = single_pair_velocity(grid, (2, 0, 0), amp)
        times = np.linspace(0.0, 0.01, 6)
        traj = Trajectory(times, tuple(u for _ in times))
        params = NormParams(gamma=1.0, delta=0.2, t_horizon=0.01, lam=4.0,
                            eta0=1e-5)
        n0 = 3.0
        lhs, rhs = smoothing_kernel_bound_sides(traj, params, n0, "low",
                                                quad_order=6)
        best = 0.0
        for t in times[1:]:
            t = float(t)
            integral = (math.exp(n0**2 * t) - math.exp(n0**2 * params.eta0 * t)) / n0**2
            val = (t ** (params.delta / 2.0)
                   * math.sqrt(2.0 * kmod ** (2 * (1.5 + params.delta)))
                   * amp * integral)
            best = max(best, val)
        assert lhs == pytest.approx(best, rel=1e-8)
        assert rhs > 0.0

    def test_kernel_high_region_masks_low_modes(self):
        grid = build_grid(8)
        u = single_pair_velocity(grid, (1, 0, 0), 1.0)
        times = np.linspace(0.0, 0.01, 4)
        traj = Trajectory(times, tuple(u for _ in times))
        params = NormParams(gamma=1.0, delta=0.2, t_horizon=0.01, lam=4.0)
        lhs, _ = smoothing_kernel_bound_sides(traj, params, 2.0, "high")
        assert lhs == 0.0  # |k| = 1 < 2 n0 = 4: excluded entirely

    def test_kernel_region_validation(self, rng):
        grid = build_grid(8)
        times = np.linspace(0.0, 0.01, 3)
        traj = self.band_trajectory(grid, rng, 3.0, times)
        params = NormParams(gamma=1.0, delta=0.2, t_horizon=0.01, lam=4.0)
        with pytest.raises(ValueError):
            smoothing_kernel_bound_sides(traj, params, 2.0, "middle")
