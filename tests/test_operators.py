import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conftest import random_hermitian_coeffs
from gnsflow import operators, spectral
from gnsflow.operators import (
    QCoefficients,
    VelocityField,
    apply_Q,
    heat_semigroup,
    leray_project,
    navier_stokes_coeffs,
    q_symbol,
    read_q_coefficients,
    stack_coefficients,
    velocity_from_stack,
    write_q_coefficients,
)
from gnsflow.spectral import SpectralField, build_grid


def make_velocity(grid, rng, divergence_free=True, scale=1.0):
    stack = np.stack([random_hermitian_coeffs(grid, rng, scale) for _ in range(3)])
    if divergence_free:
        # Leray only preserves conjugate symmetry on Nyquist-free input
        stack *= np.asarray(grid.dealias_mask)
        stack = operators.leray_project_stack(grid, stack)
    return velocity_from_stack(grid, stack)


def single_alpha(j, m, n, p, k, l, value=1.0):
    a = np.zeros((3,) * 6)
    a[j, m, n, p, k, l] = value
    return QCoefficients(a)


class TestQSymbol:
    def test_unit_entry_diagonal_direction(self):
        # alpha[0,0,0,0,0,0] = 1 at k = (1,0,0): k_0 k_0 / |k|^2 = 1
        c = single_alpha(0, 0, 0, 0, 0, 0)
        assert q_symbol(c, np.array([1.0, 0.0, 0.0]), 0, 0, 0, 0) == pytest.approx(1.0)

    def test_unit_entry_mixed_direction(self):
        # alpha[0,0,0,1,0,0] = 1 at k = (1,1,0): k_0 k_1 / |k|^2 = 1/2
        c = single_alpha(0, 0, 0, 1, 0, 0)
        assert q_symbol(c, np.array([1.0, 1.0, 0.0]), 0, 0, 0, 0) == pytest.approx(0.5)

    def test_zero_frequency_returns_zero(self):
        c = single_alpha(1, 2, 0, 1, 2, 0, value=4.0)
        assert q_symbol(c, np.zeros(3), 1, 2, 2, 0) == 0.0

    def test_scale_invariance_of_symbol(self, rng):
        # q is 0-homogeneous in k
        a = QCoefficients(rng.standard_normal((3,) * 6))
        k = np.array([0.3, -1.2, 2.0])
        v1 = q_symbol(a, k, 1, 0, 2, 1)
        v2 = q_symbol(a, 7.5 * k, 1, 0, 2, 1)
        assert v1 == pytest.approx(v2, rel=1e-13)

    def test_index_validation(self):
        c = navier_stokes_coeffs()
        with pytest.raises(ValueError):
            q_symbol(c, np.ones(3), 3, 0, 0, 0)
        with pytest.raises(ValueError):
            q_symbol(c, np.ones(4), 0, 0, 0, 0)

    def test_navier_stokes_symbol_closed_form(self, rng):
        # q^{j,m}_{k,l}(xi) = delta_{mk} (xi_j xi_l / |xi|^2 - delta_{jl})
        c = navier_stokes_coeffs()
        xi = rng.standard_normal(3)
        ksq = float(xi @ xi)
        for j in range(3):
            for m in range(3):
                for kk in range(3):
                    for l in range(3):
                        want = (1.0 if m == kk else 0.0) * (
                            xi[j] * xi[l] / ksq - (1.0 if j == l else 0.0))
                        assert q_symbol(c, xi, j, m, kk, l) == pytest.approx(
                            want, abs=1e-13)


class TestQCoefficients:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QCoefficients(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            QCoefficients(np.full((3,) * 6, np.nan))

    def test_json_round_trip_exact(self, tmp_path, rng):
        c = QCoefficients(rng.standard_normal((3,) * 6))
        path = tmp_path / "alpha.json"
        write_q_coefficients(path, c)
        back = read_q_coefficients(path)
        np.testing.assert_array_equal(back.alpha, c.alpha)

    def test_read_rejects_wrong_entry_count(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text('{"format": "gns-q-coefficients-v1", "alpha": [1.0, 2.0]}')
        with pytest.raises(ValueError):
            read_q_coefficients(path)

    def test_read_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text('{"format": "something-else", "alpha": []}')
        with pytest.raises(ValueError):
            read_q_coefficients(path)

    def test_flat_order_is_row_major_jmnpkl(self, tmp_path):
        c = single_alpha(0, 0, 0, 0, 0, 1, value=2.5)  # second entry in row-major order
        path = tmp_path / "alpha.json"
        write_q_coefficients(path, c)
        import json
        flat = json.loads(path.read_text())["alpha"]
        assert flat[1] == 2.5
        assert sum(1 for x in flat if x != 0.0) == 1


class TestNavierStokesForm:
    @pytest.mark.parametrize("period", [2 * math.pi, 3.7])
    def test_matches_projected_advection_oracle_on_vortex(self, period):
        # independent -P div(u x u) evaluation, three-dimensional vortex data
        n = 16
        grid = build_grid(n, period=period)
        phys = helpers.taylor_green_3d(helpers.grid_coordinates(n, period))
        stack = np.stack([helpers.oracle_forward(phys[j]) for j in range(3)])
        u = velocity_from_stack(grid, stack.copy())
        got = stack_coefficients(apply_Q(navier_stokes_coeffs(), u, u))
        want = helpers.oracle_ns_nonlinearity(stack, n, period)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_matches_oracle_on_random_divergence_free_field(self, rng):
        n = 8
        grid = build_grid(n)
        u = make_velocity(grid, rng)
        got = stack_coefficients(apply_Q(navier_stokes_coeffs(), u, u))
        want = helpers.oracle_ns_nonlinearity(stack_coefficients(u), n, 2 * math.pi)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_vortex_nonlinearity_is_nontrivial(self):
        n = 16
        grid = build_grid(n)
        phys = helpers.taylor_green_3d(helpers.grid_coordinates(n, 2 * math.pi))
        stack = np.stack([helpers.oracle_forward(phys[j]) for j in range(3)])
        u = velocity_from_stack(grid, stack)
        q = apply_Q(navier_stokes_coeffs(), u, u)
        assert q.l2_coefficient_norm() > 1e-3


class TestApplyQ:
    def test_bilinearity_first_slot(self, rng):
        grid = build_grid(8)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        u, w, v = (make_velocity(grid, rng) for _ in range(3))
        s, t = 1.7, -0.4
        comb = velocity_from_stack(
            grid, s * stack_coefficients(u) + t * stack_coefficients(w))
        lhs = stack_coefficients(apply_Q(a, comb, v))
        rhs = (s * stack_coefficients(apply_Q(a, u, v))
               + t * stack_coefficients(apply_Q(a, w, v)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_bilinearity_second_slot(self, rng):
        grid = build_grid(8)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        u, v, w = (make_velocity(grid, rng) for _ in range(3))
        s, t = 0.9, 2.3
        comb = velocity_from_stack(
            grid, s * stack_coefficients(v) + t * stack_coefficients(w))
        lhs = stack_coefficients(apply_Q(a, u, comb))
        rhs = (s * stack_coefficients(apply_Q(a, u, v))
               + t * stack_coefficients(apply_Q(a, u, w)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_same_argument_fast_path_matches_general(self, rng):
        grid = build_grid(8)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        u = make_velocity(grid, rng)
        v_copy = velocity_from_stack(grid, stack_coefficients(u))
        fast = stack_coefficients(apply_Q(a, u, u))
        slow = stack_coefficients(apply_Q(a, u, v_copy))
        assert np.max(np.abs(fast - slow)) <= 1e-13 * max(1.0, np.max(np.abs(slow)))

    def test_zero_mode_of_output_vanishes(self, rng):
        grid = build_grid(8)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        u, v = make_velocity(grid, rng), make_velocity(grid, rng)
        q = apply_Q(a, u, v)
        for c in q.components:
            assert abs(c.coeffs[0, 0, 0]) == 0.0

    def test_output_is_hermitian(self, rng):
        grid = build_grid(16)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        u, v = make_velocity(grid, rng), make_velocity(grid, rng)
        q = apply_Q(a, u, v)
        assert q.hermitian_deviation() <= 1e-12

    def test_navier_stokes_output_divergence_free(self, rng):
        grid = build_grid(16)
        u = make_velocity(grid, rng)
        q = apply_Q(navier_stokes_coeffs(), u, u)
        assert q.divergence_deviation() <= 1e-10

    def test_grid_mismatch_rejected(self, rng):
        u = make_velocity(build_grid(8), rng)
        v = make_velocity(build_grid(16), rng)
        with pytest.raises(ValueError):
            apply_Q(navier_stokes_coeffs(), u, v)

    def test_scaling_relabel(self, rng):
        # halve the period, double the amplitudes at fixed storage indices:
        # every Q coefficient scales by 8
        n = 8
        g1 = build_grid(n, period=2 * math.pi)
        g2 = build_grid(n, period=math.pi)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        stack = spectral.to_half(
            np.stack([random_hermitian_coeffs(g1, rng) for _ in range(3)]))
        q1 = operators.apply_Q_stack(a, g1, stack)
        q2 = operators.apply_Q_stack(a, g2, 2.0 * stack)
        assert np.max(np.abs(q2 - 8.0 * q1)) <= 1e-12 * max(1.0, np.max(np.abs(q1)))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_general_alpha_scaling_property(self, seed):
        # Q(c u, c u) = c^2 Q(u, u)
        rng = np.random.default_rng(seed)
        grid = build_grid(8)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        stack = spectral.to_half(
            np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)]))
        q1 = operators.apply_Q_stack(a, grid, stack)
        q2 = operators.apply_Q_stack(a, grid, 3.0 * stack)
        assert np.max(np.abs(q2 - 9.0 * q1)) <= 1e-11 * max(1.0, np.max(np.abs(q1)))

    def test_multiplier_is_cached_per_grid(self, rng):
        a = QCoefficients(rng.standard_normal((3,) * 6))
        g = build_grid(8)
        m1 = a.multiplier(g)
        m2 = a.multiplier(g)
        assert m1 is m2
        g2 = build_grid(8, period=1.0)
        assert a.multiplier(g2) is not m1

    def test_pair_weights_cached_and_read_only(self, rng):
        a = QCoefficients(rng.standard_normal((3,) * 6))
        g = build_grid(8)
        w = a.pair_weights(g, True)
        assert a.pair_weights(g, True) is w
        assert w.shape == (3, 6, g.half_dealias_modes[0].size)
        assert a.pair_weights(g, False).shape == (3, 9, g.half_dealias_modes[0].size)
        assert not w.flags.writeable

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0, 0.5])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_stack_matches_full_lattice_accumulation(self, rng, fraction, distinct):
        # the half-spectrum accumulation reproduces the sum of
        # M[j, a, b] * dealias(FFT(u_a v_b)) over the whole lattice followed
        # by i * and Hermitian symmetrization, and is exactly Hermitian
        grid = build_grid(8, dealias_fraction=fraction)
        a = QCoefficients(rng.standard_normal((3,) * 6))

        def real_stack():
            return np.stack([spectral.hermitian_symmetrize(
                spectral.fftn(rng.standard_normal(grid.shape))) for _ in range(3)])

        u = real_stack()
        v = real_stack() if distinct else None
        M = a.multiplier(grid)
        u_phys = spectral.ifftn(u).real
        v_phys = u_phys if v is None else spectral.ifftn(v).real
        pairs = ([(p, q) for p in range(3) for q in range(3)] if distinct
                 else [(p, q) for p in range(3) for q in range(p, 3)])
        want = np.zeros((3,) + grid.shape, dtype=np.complex128)
        for p, q in pairs:
            prod_hat = spectral.fftn(u_phys[p] * v_phys[q])
            prod_hat *= grid.dealias_mask
            for j in range(3):
                w = M[j, p, q] if distinct or p == q else M[j, p, q] + M[j, q, p]
                want[j] += w * prod_hat
        want *= 1j
        want = np.stack([spectral.hermitian_symmetrize(want[j]) for j in range(3)])
        got = spectral.to_full(grid, operators.apply_Q_stack(
            a, grid, spectral.to_half(u), None if v is None else spectral.to_half(v)))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert max(spectral.hermitian_deviation(got[j]) for j in range(3)) == 0.0

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    def test_symmetrized_weights_equal_multiplier_off_nyquist(self, rng, fraction):
        grid = build_grid(8, dealias_fraction=fraction)
        a = QCoefficients(rng.standard_normal((3,) * 6))
        w = a.pair_weights(grid, False)
        kept = grid.half_dealias_modes[1]
        M = a.multiplier(grid).reshape((3, 9, -1))[..., kept]
        alias = np.array(np.unravel_index(kept, grid.shape))
        off_nyquist = np.all(alias != grid.n_per_axis // 2, axis=0)
        np.testing.assert_array_equal(w[..., off_nyquist], M[..., off_nyquist])
        assert fraction < 1.0 or not np.all(off_nyquist)


class TestLeray:
    def test_idempotent(self, rng):
        grid = build_grid(16)
        u = make_velocity(grid, rng, divergence_free=False)
        once = leray_project(u)
        twice = leray_project(once)
        diff = np.max(np.abs(stack_coefficients(once) - stack_coefficients(twice)))
        assert diff <= 1e-12 * max(1.0, np.max(np.abs(stack_coefficients(once))))

    def test_output_divergence_free(self, rng):
        grid = build_grid(16)
        u = make_velocity(grid, rng, divergence_free=False)
        assert leray_project(u).divergence_deviation() <= 1e-10

    def test_self_adjoint(self, rng):
        grid = build_grid(8)
        u = make_velocity(grid, rng, divergence_free=False)
        v = make_velocity(grid, rng, divergence_free=False)

        def inner(x, y):
            return complex(np.sum(stack_coefficients(x) * np.conj(stack_coefficients(y))))

        lhs = inner(leray_project(u), v)
        rhs = inner(u, leray_project(v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_independent_oracle(self, rng):
        grid = build_grid(8, period=3.0)
        stack = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)])
        got = operators.leray_project_stack(grid, stack)
        want = helpers.oracle_leray(stack, 8, 3.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_preserves_hermitian_symmetry_below_nyquist(self, rng):
        # odd-in-k multipliers are only symmetry-safe on Nyquist-free input
        grid = build_grid(16)
        stack = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)])
        stack *= np.asarray(grid.dealias_mask)
        out = operators.leray_project_stack(grid, stack)
        dev = max(spectral.hermitian_deviation(out[j]) for j in range(3))
        assert dev <= 1e-13

    def test_fixes_divergence_free_fields(self, rng):
        grid = build_grid(8)
        u = make_velocity(grid, rng, divergence_free=True)
        proj = leray_project(u)
        diff = np.max(np.abs(stack_coefficients(proj) - stack_coefficients(u)))
        assert diff <= 1e-12 * max(1.0, np.max(np.abs(stack_coefficients(u))))

    def test_zero_mode_untouched(self, rng):
        grid = build_grid(8)
        stack = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)])
        stack[:, 0, 0, 0] = [1.0, 2.0, 3.0]
        out = operators.leray_project_stack(grid, stack)
        np.testing.assert_array_equal(out[:, 0, 0, 0], [1.0, 2.0, 3.0])


class TestHeatSemigroup:
    def test_factor_matches_exponential(self, rng):
        grid = build_grid(16, period=5.0)
        u = make_velocity(grid, rng)
        t = 0.37
        out = heat_semigroup(u, t)
        kx, ky, kz = helpers.oracle_k_vectors(16, 5.0)
        factor = np.exp(-t * (kx**2 + ky**2 + kz**2))
        for j in range(3):
            want = u.components[j].coeffs * factor
            got = out.components[j].coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_composition(self, rng):
        grid = build_grid(8)
        u = make_velocity(grid, rng)
        one = heat_semigroup(heat_semigroup(u, 0.2), 0.3)
        both = heat_semigroup(u, 0.5)
        diff = np.max(np.abs(stack_coefficients(one) - stack_coefficients(both)))
        assert diff <= 1e-14 * max(1.0, np.max(np.abs(stack_coefficients(both))))

    def test_time_zero_is_identity(self, rng):
        grid = build_grid(8)
        u = make_velocity(grid, rng)
        np.testing.assert_array_equal(
            stack_coefficients(heat_semigroup(u, 0.0)), stack_coefficients(u))

    def test_rejects_negative_time(self, rng):
        u = make_velocity(build_grid(8), rng)
        with pytest.raises(ValueError):
            heat_semigroup(u, -0.1)

    def test_preserves_divergence_free(self, rng):
        u = make_velocity(build_grid(8), rng)
        assert heat_semigroup(u, 0.1).divergence_deviation() <= 1e-12


class TestVelocityField:
    def test_requires_shared_grid(self, rng):
        g1, g2 = build_grid(8), build_grid(8, period=1.0)
        c1 = SpectralField(g1, random_hermitian_coeffs(g1, rng))
        c2 = SpectralField(g2, random_hermitian_coeffs(g2, rng))
        with pytest.raises(ValueError):
            VelocityField((c1, c1, c2))

    def test_divergence_deviation_detects_gradient_part(self, rng):
        grid = build_grid(8)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0, 1, 0, 0] = 1.0  # u = e_1 mode along k = e_1: k.u != 0
        stack[0, -1, 0, 0] = 1.0
        u = velocity_from_stack(grid, stack)
        assert u.divergence_deviation() > 1e-3
