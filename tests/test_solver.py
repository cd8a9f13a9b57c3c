import math

import numpy as np
import pytest

import helpers
from conftest import random_hermitian_coeffs
from gnsflow import operators, solver
from gnsflow.operators import (
    QCoefficients,
    apply_Q,
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
    build_grid,
    hermitian_deviation,
    hermitian_symmetrize,
    weighted_l2_stack,
)


def vortex_velocity(n=16, period=2 * math.pi, amplitude=1.0):
    grid = build_grid(n, period=period)
    phys = helpers.taylor_green_3d(helpers.grid_coordinates(n, period), amplitude)
    stack = np.stack([helpers.oracle_forward(phys[j]) for j in range(3)])
    return grid, velocity_from_stack(grid, stack)


def divergence_free_velocity(grid, rng, scale=1.0):
    stack = np.stack([random_hermitian_coeffs(grid, rng, scale) for _ in range(3)])
    stack = operators.leray_project_stack(grid, stack)
    stack[:, 0, 0, 0] = 0.0
    return velocity_from_stack(grid, stack)


def constant_trajectory(u, times):
    return Trajectory(np.asarray(times), tuple(u for _ in times))


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
        {"t_final": 0.01, "max_iter": 0}, {"t_final": 0.01, "dt": 0.0},
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
        assert report.iterates == 2
        assert report.converged
        assert report.deltas == (0.0,)
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
        small = [d for d in report.deltas if d < 1e-2]
        assert len(small) >= 2
        for a, b in zip(small, small[1:]):
            assert b <= 0.9 * a

    def test_trajectory_stays_divergence_free_and_hermitian(self):
        grid, u0 = vortex_velocity(n=16, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=11, tol=1e-8)
        traj, _ = picard_solve(u0, navier_stokes_coeffs(), cfg)
        for state in traj.states:
            assert state.divergence_deviation() <= 1e-9
            assert state.hermitian_deviation() <= 1e-12

    def test_zero_mode_constant_along_trajectory(self, rng):
        grid = build_grid(8)
        u0 = divergence_free_velocity(grid, rng)
        cfg = SolverConfig(t_final=0.01, n_times=5, tol=1e-6)
        traj, _ = picard_solve(u0, navier_stokes_coeffs(), cfg)
        for state in traj.states:
            for j in range(3):
                assert state.components[j].coeffs[0, 0, 0] == pytest.approx(
                    complex(u0.components[j].coeffs[0, 0, 0]), abs=1e-15)

    def test_non_convergence_reported_honestly(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1.0)
        cfg = SolverConfig(t_final=0.02, n_times=6, tol=1e-14, max_iter=3)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert not report.converged
        assert report.iterates == 3
        assert len(report.deltas) == 2

    def test_divergence_guard_trips_on_huge_data(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1e6)
        cfg = SolverConfig(t_final=1.0, n_times=8, tol=1e-8, max_iter=10)
        traj, report = picard_solve(u0, navier_stokes_coeffs(), cfg)
        assert report.diverged
        assert not report.converged
        assert report.residual_max == math.inf


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
        traj = etd_integrate(u0, QCoefficients(np.zeros((3,) * 6)), 0.02, 0.005)
        for t, state in zip(traj.times, traj.states):
            want = stack_coefficients(u0) * np.exp(-float(t) * np.asarray(grid.k_sq))
            got = stack_coefficients(state)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_fourth_order_convergence_on_vortex(self):
        # Richardson: observed order of the integrating-factor scheme in [3.5, 4.5]
        grid, u0 = vortex_velocity(n=16, amplitude=2.0)
        coeffs = navier_stokes_coeffs()
        T = 0.04
        ref = etd_integrate(u0, coeffs, T, T / 256)
        ref_final = stack_coefficients(ref.states[-1])
        errors = []
        for div in (8, 16, 32):
            traj = etd_integrate(u0, coeffs, T, T / div)
            errors.append(rel_l2(stack_coefficients(traj.states[-1]), ref_final))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for p in orders:
            assert 3.5 <= p <= 4.5

    def test_blowup_guard_raises_with_diagnostics(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1e5)
        with pytest.raises(BlowupError) as exc:
            etd_integrate(u0, navier_stokes_coeffs(), 1.0, 0.05)
        assert exc.value.time > 0.0
        assert exc.value.magnitude > 0.0

    def test_keep_final_matches_full_trajectory(self):
        grid, u0 = vortex_velocity(n=8, amplitude=1.0)
        coeffs = navier_stokes_coeffs()
        full = etd_integrate(u0, coeffs, 0.02, 0.002)
        thin = etd_integrate(u0, coeffs, 0.02, 0.002, keep="final")
        assert list(thin.times) == [0.0, 0.02]
        assert len(thin.states) == 2
        a = stack_coefficients(full.states[-1])
        b = stack_coefficients(thin.states[-1])
        assert np.array_equal(a, b)

    def test_keep_validation(self):
        grid, u0 = vortex_velocity(n=8)
        with pytest.raises(ValueError):
            etd_integrate(u0, navier_stokes_coeffs(), 0.01, 0.001, keep="weird")


class TestHalfSpectrumStates:
    """The solver computes on the half spectrum; every state it returns is the
    full spectrum of a real field, exactly."""

    @staticmethod
    def real_vortex(n=12):
        grid, u = vortex_velocity(n=n, amplitude=1.0)
        stack = np.stack([hermitian_symmetrize(c.coeffs) for c in u.components])
        return grid, velocity_from_stack(grid, stack)

    @staticmethod
    def deviation(traj):
        return max(hermitian_deviation(stack_coefficients(s)) for s in traj.states)

    def test_picard_states_are_exactly_hermitian(self):
        grid, u0 = self.real_vortex()
        traj, report = picard_solve(u0, navier_stokes_coeffs(),
                                    SolverConfig(t_final=0.01, n_times=6, tol=1e-8))
        assert report.iterates > 2
        assert self.deviation(traj) == 0.0
        assert stack_coefficients(traj.states[0]).tobytes() == \
            stack_coefficients(u0).tobytes()

    @pytest.mark.parametrize("keep", ["all", "final"])
    def test_etd_states_are_exactly_hermitian(self, keep):
        grid, u0 = self.real_vortex()
        traj = etd_integrate(u0, navier_stokes_coeffs(), 0.004, 0.001, keep=keep)
        assert self.deviation(traj) == 0.0
        assert stack_coefficients(traj.states[0]).tobytes() == \
            stack_coefficients(u0).tobytes()

    def test_duhamel_b_is_exactly_hermitian(self):
        grid, u0 = self.real_vortex()
        traj = etd_integrate(u0, navier_stokes_coeffs(), 0.004, 0.001)
        b = duhamel_B(navier_stokes_coeffs(), traj, traj, 0.0025)
        assert b.hermitian_deviation() == 0.0
        assert b.l2_coefficient_norm() > 0.0


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
        etd_traj = etd_integrate(u0, coeffs, T, T / 80)
        for i, t in enumerate(picard_traj.times):
            j = etd_traj.index_at_time(float(t))
            a = stack_coefficients(picard_traj.states[i])
            b = stack_coefficients(etd_traj.states[j])
            if float(t) == 0.0:
                assert rel_l2(a, b) == 0.0
            else:
                assert rel_l2(a, b) <= 1e-6
