import math

import numpy as np
import pytest

import helpers
from conftest import random_hermitian_coeffs
from gnsflow import operators, solver
from gnsflow.initial_data import DataParams, make_initial_data
from gnsflow.io import read_field
from gnsflow.operators import (
    QCoefficients,
    VelocityField,
    apply_Q,
    heat_factor,
    navier_stokes_coeffs,
    stack_coefficients,
    velocity_from_stack,
)
from gnsflow.solver import (
    BlowupError,
    PicardReport,
    SolverConfig,
    Trajectory,
    duhamel_B,
    etd_integrate,
    mild_residual,
    picard_solve,
)
from gnsflow.spectral import (
    HERMITIAN_REJECT_TOL,
    CorruptedFieldError,
    build_grid,
    hermitian_deviation,
    hermitian_symmetrize,
    to_half,
    weighted_l2_stack,
)


def vortex_velocity(n=16, period=2 * math.pi, amplitude=1.0):
    grid = build_grid(n, period=period)
    phys = helpers.taylor_green_3d(helpers.grid_coordinates(n, period), amplitude)
    stack = np.stack([helpers.oracle_forward(phys[j]) for j in range(3)])
    return grid, velocity_from_stack(grid, stack)


def divergence_free_velocity(grid, rng, scale=1.0):
    stack = np.stack([random_hermitian_coeffs(grid, rng, scale) for _ in range(3)])
    # Leray only preserves conjugate symmetry on Nyquist-free input
    stack *= np.asarray(grid.dealias_mask)
    stack = operators.leray_project_stack(grid, stack)
    stack[:, 0, 0, 0] = 0.0
    return velocity_from_stack(grid, stack)


def per_interval(report):
    """report.deltas split into the update history of each interval."""
    ends = np.cumsum(report.interval_iterates)
    return [report.deltas[a:b] for a, b in zip(np.concatenate(([0], ends[:-1])), ends)]


def constant_trajectory(u, times):
    return Trajectory(np.asarray(times), tuple(u for _ in times))


def etd_chain(u0, coeffs, times, dt):
    """The ETD fields at times[1:], one etd_integrate call per interval."""
    states, u = [], u0
    for t_lo, t_hi in zip(times, times[1:]):
        u = etd_integrate(u, coeffs, float(t_hi - t_lo), dt)
        states.append(u)
    return states


def rel_l2(a, b):
    num = math.sqrt(float(np.sum(np.abs(a - b) ** 2)))
    den = math.sqrt(float(np.sum(np.abs(b) ** 2)))
    return num / den if den > 0 else num


class TestSolverConfig:
    def test_valid_construction(self):
        cfg = SolverConfig(t_final=0.01, n_times=11, quad_order=2, tol=1e-8)
        assert len(cfg.times) == 11
        assert cfg.times[0] == 0.0 and cfg.times[-1] == pytest.approx(0.01)

    @pytest.mark.parametrize("kwargs", [
        {"t_final": 0.0}, {"t_final": -1.0}, {"t_final": math.inf},
        {"t_final": 0.01, "n_times": 1}, {"t_final": 0.01, "quad_order": 0},
        {"t_final": 0.01, "tol": 0.0}, {"t_final": 0.01, "tol": 1.5},
        {"t_final": 0.01, "max_iter": 0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestTrajectory:
    def test_must_start_at_zero(self, rng):
        grid = build_grid(8)
        u = divergence_free_velocity(grid, rng)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.1, 0.2]), (u, u))

    def test_times_strictly_increasing(self, rng):
        grid = build_grid(8)
        u = divergence_free_velocity(grid, rng)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.2, 0.2]), (u, u, u))

    def test_state_lookup_snaps_within_tolerance(self, rng):
        grid = build_grid(8)
        u = divergence_free_velocity(grid, rng)
        traj = constant_trajectory(u, np.linspace(0.0, 1.0, 5))
        assert traj.index_at_time(0.25 + 1e-12) == 1
        with pytest.raises(ValueError):
            traj.index_at_time(0.3)


class TestDuhamelB:
    def test_single_mode_constant_trajectory_closed_form(self):
        # constant-in-time u: B(t) per mode is Q_hat (1 - e^{-t|k|^2}) / |k|^2
        grid = build_grid(8)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0, 0, 1, 0] = stack[0, 0, -1, 0] = 0.5   # u1 = cos(y)
        stack[1, 0, 0, 1] = stack[1, 0, 0, -1] = 0.5   # u2 = cos(z)
        u = velocity_from_stack(grid, stack)
        coeffs = navier_stokes_coeffs()
        t_eval = 0.1
        traj = constant_trajectory(u, np.linspace(0.0, t_eval, 21))
        got = stack_coefficients(duhamel_B(coeffs, traj, traj, t_eval, quad_order=2))

        q_hat = stack_coefficients(apply_Q(coeffs, u, u))
        ksq = np.asarray(grid.k_sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.where(ksq > 0, -np.expm1(-t_eval * ksq) / np.where(ksq > 0, ksq, 1.0),
                              t_eval)
        want = q_hat * kernel
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_higher_quad_order_tightens_agreement(self):
        grid = build_grid(8)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0, 0, 2, 0] = stack[0, 0, -2, 0] = 0.5
        stack[1, 0, 0, 2] = stack[1, 0, 0, -2] = 0.5
        u = velocity_from_stack(grid, stack)
        coeffs = navier_stokes_coeffs()
        t_eval = 0.25
        traj = constant_trajectory(u, np.linspace(0.0, t_eval, 9))
        q_hat = stack_coefficients(apply_Q(coeffs, u, u))
        ksq = np.asarray(grid.k_sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.where(ksq > 0, -np.expm1(-t_eval * ksq) / np.where(ksq > 0, ksq, 1.0),
                              t_eval)
        want = q_hat * kernel
        errs = []
        for order in (1, 2, 4):
            got = stack_coefficients(duhamel_B(coeffs, traj, traj, t_eval, order))
            errs.append(np.max(np.abs(got - want)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 1e-12

    def test_partial_final_interval(self):
        # t_eval between lattice points agrees with the closed form too
        grid = build_grid(8)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0, 0, 1, 0] = stack[0, 0, -1, 0] = 0.5
        stack[1, 0, 0, 1] = stack[1, 0, 0, -1] = 0.5
        u = velocity_from_stack(grid, stack)
        coeffs = navier_stokes_coeffs()
        traj = constant_trajectory(u, np.linspace(0.0, 0.2, 11))
        t_eval = 0.137
        got = stack_coefficients(duhamel_B(coeffs, traj, traj, t_eval, quad_order=4))
        q_hat = stack_coefficients(apply_Q(coeffs, u, u))
        ksq = np.asarray(grid.k_sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.where(ksq > 0, -np.expm1(-t_eval * ksq) / np.where(ksq > 0, ksq, 1.0),
                              t_eval)
        assert np.max(np.abs(got - q_hat * kernel)) <= 1e-10

    def test_t_eval_zero_gives_zero_field(self, rng):
        grid = build_grid(8)
        u = divergence_free_velocity(grid, rng)
        traj = constant_trajectory(u, np.linspace(0.0, 0.1, 5))
        out = duhamel_B(navier_stokes_coeffs(), traj, traj, 0.0)
        assert out.l2_coefficient_norm() == 0.0

    def test_t_eval_beyond_horizon_rejected(self, rng):
        grid = build_grid(8)
        u = divergence_free_velocity(grid, rng)
        traj = constant_trajectory(u, np.linspace(0.0, 0.1, 5))
        with pytest.raises(ValueError):
            duhamel_B(navier_stokes_coeffs(), traj, traj, 0.2)

    def test_mismatched_lattices_rejected(self, rng):
        grid = build_grid(8)
        u = divergence_free_velocity(grid, rng)
        t1 = constant_trajectory(u, np.linspace(0.0, 0.1, 5))
        t2 = constant_trajectory(u, np.linspace(0.0, 0.1, 6))
        with pytest.raises(ValueError):
            duhamel_B(navier_stokes_coeffs(), t1, t2, 0.05)

    def test_bilinear_in_trajectories(self, rng):
        grid = build_grid(8)
        times = np.linspace(0.0, 0.05, 4)
        u = constant_trajectory(divergence_free_velocity(grid, rng), times)
        v = constant_trajectory(divergence_free_velocity(grid, rng), times)
        scaled = constant_trajectory(
            velocity_from_stack(grid, 2.0 * stack_coefficients(u.states[0])), times)
        coeffs = navier_stokes_coeffs()
        b1 = stack_coefficients(duhamel_B(coeffs, scaled, v, 0.05))
        b2 = stack_coefficients(duhamel_B(coeffs, u, v, 0.05))
        assert np.max(np.abs(b1 - 2.0 * b2)) <= 1e-12 * max(1.0, np.max(np.abs(b2)))


class TestPicard:
    def test_zero_initial_data_returns_in_one_iterate(self):
        grid = build_grid(8)
        u0 = velocity_from_stack(grid, np.zeros((3,) + grid.shape, dtype=complex))
        traj, report = picard_solve(u0, navier_stokes_coeffs(),
                                    SolverConfig(t_final=0.01, n_times=5))
        assert report.iterates == 1
        assert report.converged and not report.diverged
        assert report.residual_max == 0.0
        assert all(s.l2_coefficient_norm() == 0.0 for s in traj.states)

    def test_zero_coefficients_reduce_to_heat_flow(self, rng):
        grid = build_grid(8)
        u0 = divergence_free_velocity(grid, rng)
        cfg = SolverConfig(t_final=0.05, n_times=6, tol=1e-10)
        traj, report = picard_solve(u0, QCoefficients(np.zeros((3,) * 6)), cfg)
        # each interval's last update is exactly 0; extrapolated starts need one more
        assert report.iterates == 2
        assert report.converged
        assert all(history[-1] == 0.0 for history in per_interval(report))
        for t, state in zip(traj.times, traj.states):
            want = stack_coefficients(u0) * np.exp(-float(t) * np.asarray(grid.k_sq))
            got = stack_coefficients(state)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_converges_on_vortex_and_certifies_residual(self):
        grid, u0 = vortex_velocity(n=16, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=21, quad_order=2, tol=1e-8,
                           gamma=1.0, max_iter=12)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert report.converged
        assert report.deltas[-1] <= cfg.tol
        res = mild_residual(traj, u0, navier_stokes_coeffs(), cfg.gamma,
                            quad_order=cfg.quad_order)
        assert np.max(res) <= 10.0 * cfg.tol
        assert report.residual_max <= 10.0 * cfg.tol

    def test_deltas_contract_geometrically_once_small(self):
        grid, u0 = vortex_velocity(n=16, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=21, tol=1e-12, max_iter=16)
        _, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        histories = [[d for d in h if d < 1e-2] for h in per_interval(report)]
        assert max(len(small) for small in histories) >= 2
        for small in histories:
            for a, b in zip(small, small[1:]):
                assert b <= 0.9 * a

    def test_contraction_ratios_below_one_on_vortex(self):
        grid, u0 = vortex_velocity(n=16, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=21, quad_order=2, tol=1e-8,
                           gamma=1.0, max_iter=12)
        _, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert report.converged
        ratios = np.asarray(report.contraction_ratios)
        assert len(ratios) == len(report.interval_iterates)
        for history, ratio in zip(per_interval(report), ratios):
            if len(history) == 1:
                assert math.isnan(ratio)
            else:
                assert ratio == history[-1] / history[-2]
        assert np.isfinite(ratios).any()
        assert np.all(ratios[np.isfinite(ratios)] < 1.0)

    def test_trajectory_stays_divergence_free_and_hermitian(self):
        grid, u0 = vortex_velocity(n=16, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=11, tol=1e-8)
        traj, _ = picard_solve(u0, navier_stokes_coeffs(), cfg)
        for state in traj.states:
            assert state.divergence_deviation() <= 1e-9
            assert hermitian_deviation(stack_coefficients(state)) == 0.0

    def test_zero_mode_constant_along_trajectory(self, rng):
        grid = build_grid(8)
        u0 = divergence_free_velocity(grid, rng)
        cfg = SolverConfig(t_final=0.01, n_times=5, tol=1e-6)
        traj, _ = picard_solve(u0, navier_stokes_coeffs(), cfg)
        mean0 = stack_coefficients(u0)[:, 0, 0, 0]
        for state in traj.states:
            mean = stack_coefficients(state)[:, 0, 0, 0]
            for j in range(3):
                assert mean[j] == pytest.approx(complex(mean0[j]), abs=1e-15)

    def test_non_convergence_reported_honestly(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=6, tol=1e-14, max_iter=3)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert not report.converged
        assert report.iterates == 3
        assert report.interval_iterates[-1] == cfg.max_iter
        assert len(report.deltas) == sum(report.interval_iterates)
        assert len(traj.times) == len(report.interval_iterates) + 1

    def test_divergence_guard_trips_on_huge_data(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1e6)
        cfg = SolverConfig(t_final=1.0, n_times=8, tol=1e-8, max_iter=10)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert report.diverged
        assert not report.converged
        assert report.residual_max == math.inf


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("integrator", ["picard", "etd"])
def test_non_finite_u0_is_rejected_before_any_work(integrator, value, monkeypatch):
    # bad data is the caller's fault, not a diverged solve or a blow-up
    grid, u = vortex_velocity(n=8)
    half = np.array(u.half_spectrum())
    half[0, 1, 2, 3] = value
    u0 = VelocityField.from_half(grid, half)

    def no_work(*args, **kwargs):
        raise AssertionError("Q evaluated on rejected data")
    monkeypatch.setattr(solver, "apply_Q_stack", no_work)
    with pytest.raises(ValueError, match="u0"):
        if integrator == "picard":
            picard_solve(u0, navier_stokes_coeffs(), SolverConfig(t_final=0.01, n_times=3))
        else:
            etd_integrate(u0, navier_stokes_coeffs(), 0.002, 0.001)


class TestMarchCertificate:
    """The residual the march reports is mild_residual's, without its pass."""

    @staticmethod
    def sobolev_tail_velocity(n=16):
        grid = build_grid(n)
        return grid, make_initial_data("random_sobolev_tail", grid,
                                       DataParams(amplitude=0.5, band_lo=1.0,
                                                  band_hi=4.0), seed=7)

    @pytest.mark.parametrize("data", ["vortex", "sobolev_tail"])
    def test_reported_residual_matches_mild_residual(self, data):
        grid, u0 = (vortex_velocity(n=16, amplitude=1.0) if data == "vortex"
                    else self.sobolev_tail_velocity())
        cfg = SolverConfig(t_final=0.02, n_times=11, quad_order=2, tol=1e-8)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert report.converged
        oracle = mild_residual(traj, u0, navier_stokes_coeffs(), cfg.gamma,
                               quad_order=cfg.quad_order)
        scale = max(weighted_l2_stack(grid, s.half_spectrum(), cfg.gamma, False)
                    for s in traj.states)
        assert len(report.residuals) == len(oracle)
        np.testing.assert_allclose(report.residuals, oracle, rtol=0.0,
                                   atol=1e-13 * scale)
        assert report.residual_max == max(report.residuals)

    def test_stalled_interval_reports_the_defect_it_leaves(self):
        # one update short of settling: the residual is that update, not rounding
        grid, u0 = vortex_velocity(n=16, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=11, quad_order=2, tol=1e-8,
                           max_iter=2)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert not report.converged and len(traj.times) == 2
        oracle = mild_residual(traj, u0, navier_stokes_coeffs(), cfg.gamma,
                               quad_order=cfg.quad_order)
        assert report.residuals[-1] == pytest.approx(report.deltas[-1], rel=1e-12)
        assert report.residuals[-1] > 1e-9
        np.testing.assert_allclose(report.residuals, oracle, rtol=1e-9)

    def test_no_residual_pass_and_quad_order_q_calls_per_update(self, monkeypatch):
        # one inverse transform per round: phys(u_i) is carried over from the
        # interval before (u0's is the one extra), and Q sees interpolated
        # physical values at the quad_order nodes
        calls = {"q": 0, "irfftn": 0}
        real_q, real_irfftn = solver.apply_Q_stack, solver.irfftn

        def counting_q(*args, **kwargs):
            calls["q"] += 1
            return real_q(*args, **kwargs)

        def counting_irfftn(*args, **kwargs):
            calls["irfftn"] += 1
            return real_irfftn(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("picard_solve called mild_residual")

        monkeypatch.setattr(solver, "apply_Q_stack", counting_q)
        monkeypatch.setattr(solver, "irfftn", counting_irfftn)
        monkeypatch.setattr(solver, "mild_residual", forbidden)
        grid, u0 = vortex_velocity(n=8, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=6, quad_order=3, tol=1e-10)
        _, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert report.converged
        assert calls["q"] == cfg.quad_order * sum(report.interval_iterates)
        assert calls["irfftn"] == sum(report.interval_iterates) + 1

    def test_states_are_heat_flow_plus_kept_mode_increments(self):
        grid, u0 = self.sobolev_tail_velocity()
        traj, _ = picard_solve(u0, navier_stokes_coeffs(),
                               SolverConfig(t_final=0.01, n_times=5, tol=1e-8))
        modes = grid.half_dealias_modes[0]
        assert traj.band_kind == "kept" and np.array_equal(traj.band, modes)
        assert traj.increments.shape == (len(traj.times), 3, modes.size)
        assert not traj.increments.flags.writeable
        assert np.array_equal(traj.u0, u0.half_spectrum())
        assert not np.any(traj.increments[0])


class TestKeptModeStates:
    """A solver state is e^{tL} u0 plus an increment on the kept modes only,
    so storing that increment loses nothing but rounding."""

    @staticmethod
    def accepted_states(monkeypatch):
        """Every (time, state) the march hands to the trajectory."""
        seen = []
        real = solver._increment

        def spy(grid, t, u0, state):
            seen.append((t, state.copy()))
            return real(grid, t, u0, state)

        monkeypatch.setattr(solver, "_increment", spy)
        return seen

    @pytest.mark.parametrize("integrator", ["picard", "etd"])
    def test_off_kept_modes_the_state_is_the_heat_flow(self, integrator, monkeypatch):
        grid = build_grid(16)
        u0 = make_initial_data("random_sobolev_tail", grid,
                               DataParams(amplitude=0.5, band_lo=1.0, band_hi=10.0),
                               seed=7)
        u0_half = u0.half_spectrum()
        kept = np.zeros(math.prod(grid.half_shape), dtype=bool)
        kept[grid.half_dealias_modes[0]] = True
        # the data reach past the kept band, so the test is not vacuous
        assert np.abs(u0_half.reshape(3, -1)[:, ~kept]).max() > 1e-3
        if integrator == "picard":
            seen = self.accepted_states(monkeypatch)
            traj, _ = picard_solve(u0, navier_stokes_coeffs(),
                                   SolverConfig(t_final=0.01, n_times=6, tol=1e-8))
            assert len(seen) == len(traj.times) - 1
            for i, (t, state) in enumerate(seen, start=1):
                assert t == traj.times[i]
                scale = float(np.max(np.abs(state)))
                assert np.max(np.abs(traj.half_state(i) - state)) <= 1e-15 * scale
        else:
            times = np.linspace(0.0, 0.005, 6)
            seen = [(float(t), u.half_spectrum()) for t, u in
                    zip(times[1:], etd_chain(u0, navier_stokes_coeffs(), times, 0.001))]
        for t, state in seen:
            scale = float(np.max(np.abs(state)))
            flow = heat_factor(grid, t, half=True) * u0_half
            off = (state - flow).reshape(3, -1)[:, ~kept]
            assert np.max(np.abs(off)) <= 1e-15 * scale


class TestStartGuess:
    """The march's start guess is Lagrange extrapolation through the last
    four lattice states, fewer at the start of the lattice."""

    TIMES = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.55, 0.8])

    @staticmethod
    def polynomial_states(degree, rng):
        coeffs = [rng.standard_normal((3, 4, 4, 3)) + 1j * rng.standard_normal((3, 4, 4, 3))
                  for _ in range(degree + 1)]

        def state(t):
            return sum(c * t**p for p, c in enumerate(coeffs))
        return state

    def guess(self, state, i):
        recent = [state(float(t)) for t in self.TIMES[max(0, i - 3):i + 1]]
        return solver._start_guess(self.TIMES, recent, i)

    @pytest.mark.parametrize("i", [3, 4, 5])
    def test_reproduces_a_cubic_on_a_non_uniform_lattice(self, rng, i):
        state = self.polynomial_states(3, rng)
        want = state(float(self.TIMES[i + 1]))
        got = self.guess(state, i)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("i", [1, 2])
    def test_falls_back_to_the_states_there_are(self, rng, i):
        # linear at i = 1, quadratic at i = 2: exact to degree i, not beyond
        for degree, exact in ((i, True), (i + 1, False)):
            state = self.polynomial_states(degree, rng)
            want = state(float(self.TIMES[i + 1]))
            err = np.max(np.abs(self.guess(state, i) - want))
            assert (err <= 1e-14 * np.max(np.abs(want))) == exact

    def test_linear_fallback_is_the_two_point_formula(self, rng):
        state = self.polynomial_states(3, rng)
        t0, t1, t2 = (float(t) for t in self.TIMES[:3])
        u0, u1 = state(t0), state(t1)
        want = u1 + (t2 - t1) / (t1 - t0) * (u1 - u0)
        got = solver._start_guess(self.TIMES, [u0, u1], 1)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestMildResidual:
    def test_flags_perturbed_state(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=6, tol=1e-10, max_iter=12)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert report.converged
        base = mild_residual(traj, u0, navier_stokes_coeffs(), 1.0)

        stacks = [stack_coefficients(s) for s in traj.states]
        stacks[3] = stacks[3].copy()
        stacks[3][0, 1, 0, 0] += 1e-4
        stacks[3][0, -1, 0, 0] += 1e-4
        bad = Trajectory(traj.times, tuple(
            velocity_from_stack(grid, s) for s in stacks))
        perturbed = mild_residual(bad, u0, navier_stokes_coeffs(), 1.0)
        assert perturbed[3] > base[3] + 1e-5
        np.testing.assert_allclose(perturbed[:3], base[:3], atol=1e-12)

    def test_requires_matching_initial_state(self, rng):
        grid = build_grid(8)
        u0 = divergence_free_velocity(grid, rng)
        other = divergence_free_velocity(grid, rng)
        traj = constant_trajectory(u0, np.linspace(0.0, 0.01, 3))
        with pytest.raises(ValueError):
            mild_residual(traj, other, navier_stokes_coeffs(), 1.0)


class TestEtdIntegrate:
    def test_rejects_non_divisible_step(self, rng):
        grid = build_grid(8)
        u0 = divergence_free_velocity(grid, rng)
        with pytest.raises(ValueError):
            etd_integrate(u0, navier_stokes_coeffs(), 0.01, 0.0003)

    def test_pure_heat_flow_is_exact(self, rng):
        # zero coefficients: integrating factor reproduces e^{tL} to round-off
        grid = build_grid(8)
        u0 = divergence_free_velocity(grid, rng)
        times = np.linspace(0.0, 0.02, 5)
        states = etd_chain(u0, QCoefficients(np.zeros((3,) * 6)), times, 0.005)
        for t, state in zip(times[1:], states):
            want = stack_coefficients(u0) * np.exp(-float(t) * np.asarray(grid.k_sq))
            got = stack_coefficients(state)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_fourth_order_convergence_on_vortex(self):
        # Richardson: observed order of the integrating-factor scheme in [3.5, 4.5]
        grid, u0 = vortex_velocity(n=16, amplitude=2.0)
        coeffs = navier_stokes_coeffs()
        T = 0.04
        ref = etd_integrate(u0, coeffs, T, T / 256)
        ref_final = stack_coefficients(ref)
        errors = []
        for div in (8, 16, 32):
            final = etd_integrate(u0, coeffs, T, T / div)
            errors.append(rel_l2(stack_coefficients(final), ref_final))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for p in orders:
            assert 3.5 <= p <= 4.5

    def test_blowup_guard_raises_with_diagnostics(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1e5)
        with pytest.raises(BlowupError) as exc:
            etd_integrate(u0, navier_stokes_coeffs(), 1.0, 0.05)
        assert exc.value.time > 0.0
        assert exc.value.magnitude > 0.0

    def test_chained_calls_equal_one_call_bitwise(self):
        grid = build_grid(16)
        u0 = make_initial_data("random_sobolev_tail", grid,
                               DataParams(amplitude=0.5, band_lo=1.0, band_hi=10.0),
                               seed=7)
        coeffs = navier_stokes_coeffs()
        one = etd_integrate(u0, coeffs, 0.004, 0.001)
        half = etd_integrate(u0, coeffs, 0.002, 0.001)
        two = etd_integrate(half, coeffs, 0.002, 0.001)
        assert isinstance(two, VelocityField)
        assert two.half_spectrum().tobytes() == one.half_spectrum().tobytes()


class TestHalfSpectrumStates:
    """The solver computes on the half spectrum; every state it returns is the
    full spectrum of a real field, exactly."""

    @staticmethod
    def real_vortex(n=12):
        grid, u = vortex_velocity(n=n, amplitude=1.0)
        return grid, velocity_from_stack(grid, hermitian_symmetrize(stack_coefficients(u)))

    @staticmethod
    def deviation(states):
        return max(hermitian_deviation(stack_coefficients(s)) for s in states)

    # state 0 is rebuilt from the half spectrum, so it equals u0 value for
    # value; a zero's sign in the upper kz planes is not stored
    def test_picard_states_are_exactly_hermitian(self):
        grid, u0 = self.real_vortex()
        traj, report = picard_solve(u0, navier_stokes_coeffs(),
                                    SolverConfig(t_final=0.01, n_times=6, tol=1e-8))
        assert report.iterates > 2
        assert self.deviation(traj.states) == 0.0
        assert np.array_equal(stack_coefficients(traj.states[0]), stack_coefficients(u0))

    def test_etd_states_are_exactly_hermitian(self):
        grid, u0 = self.real_vortex()
        states = etd_chain(u0, navier_stokes_coeffs(), np.linspace(0.0, 0.004, 5), 0.001)
        assert self.deviation(states) == 0.0

    def test_duhamel_b_is_exactly_hermitian(self):
        grid, u0 = self.real_vortex()
        times = np.linspace(0.0, 0.004, 5)
        traj = Trajectory(times, [u0] + etd_chain(u0, navier_stokes_coeffs(), times, 0.001))
        b = duhamel_B(navier_stokes_coeffs(), traj, traj, 0.0025)
        assert hermitian_deviation(stack_coefficients(b)) == 0.0
        assert b.l2_coefficient_norm() > 0.0


class TestRealFieldContract:
    """A field is held to being real once, where it is built from data the
    program did not make: data Hermitian within HERMITIAN_REJECT_TOL is
    symmetrized (exactly Hermitian data passes unchanged), anything further
    off is rejected."""

    @staticmethod
    def nyquist_projected(grid, rng):
        # the projector's odd multiplier breaks conjugate symmetry on the
        # Nyquist planes, which unmasked noise populates
        stack = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)])
        stack = operators.leray_project_stack(grid, stack)
        assert hermitian_deviation(stack) > HERMITIAN_REJECT_TOL
        return stack

    @staticmethod
    def build(entry, grid, stack, tmp_path):
        if entry == "velocity_from_stack":
            return velocity_from_stack(grid, stack)
        return read_field(helpers.write_raw_field(tmp_path / "u.gsf", grid, stack))

    @pytest.mark.parametrize("entry", ["velocity_from_stack", "read_field"])
    def test_rejects_leray_projected_nyquist_content(self, entry, rng, tmp_path):
        grid = build_grid(8)
        stack = self.nyquist_projected(grid, rng)
        with pytest.raises(CorruptedFieldError):
            self.build(entry, grid, stack, tmp_path)

    @pytest.mark.parametrize("entry", ["velocity_from_stack", "read_field"])
    def test_rejects_a_nan_coefficient(self, entry, tmp_path):
        # NaN compares false with any tolerance, so a deviation test written
        # as dev > tol would let it through
        grid, u = vortex_velocity(n=8)
        stack = stack_coefficients(u)
        stack[0, 1, 2, 3] = np.nan
        with pytest.raises(CorruptedFieldError):
            self.build(entry, grid, stack, tmp_path)

    def test_exactly_hermitian_states_pass_bit_for_bit(self, rng):
        grid = build_grid(8)
        u = divergence_free_velocity(grid, rng)
        stack = stack_coefficients(u)
        assert hermitian_deviation(stack) == 0.0
        again = velocity_from_stack(grid, stack)
        assert again.half_spectrum().tobytes() == u.half_spectrum().tobytes()
        traj = Trajectory(np.array([0.0]), (again,))
        assert traj.band_kind == "all" and not np.any(traj.u0)
        assert traj.half_state(0).tobytes() == \
            np.ascontiguousarray(to_half(stack)).tobytes()

    def test_symmetrizes_within_tolerance(self, rng):
        grid = build_grid(8)
        stack = stack_coefficients(divergence_free_velocity(grid, rng))
        stack[0, 1, 2, 3] += 1e-12  # no matching change at -k
        u = velocity_from_stack(grid, stack)
        want = to_half(hermitian_symmetrize(stack))
        assert np.array_equal(u.half_spectrum(), want)
        assert np.array_equal(Trajectory(np.array([0.0]), (u,)).half_state(0), want)
        traj, report = picard_solve(u, QCoefficients(np.zeros((3,) * 6)),
                                    SolverConfig(t_final=0.01, n_times=3))
        assert report.converged and np.array_equal(traj.u0, want)


class TestPicardVsEtd:
    def test_agreement_on_nonlinear_vortex(self):
        # the two independent integration routes agree at every shared time
        grid, u0 = vortex_velocity(n=16, amplitude=1.0)
        coeffs = navier_stokes_coeffs()
        T = 0.02
        cfg = SolverConfig(t_final=T, n_times=41, quad_order=3, tol=1e-10,
                           gamma=1.0, max_iter=14)
        picard_traj, report = picard_solve(u0, coeffs, cfg)
        assert report.converged
        etd_states = [u0] + etd_chain(u0, coeffs, picard_traj.times, T / 80)
        for i, t in enumerate(picard_traj.times):
            a = stack_coefficients(picard_traj.states[i])
            b = stack_coefficients(etd_states[i])
            if float(t) == 0.0:
                assert rel_l2(a, b) == 0.0
            else:
                assert rel_l2(a, b) <= 1e-6
