import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conftest import random_hermitian_coeffs
from gnsflow import spectral
from gnsflow.config import ScenarioConfig
from gnsflow.spectral import (
    CorruptedFieldError,
    build_grid,
    forward_transform,
    hermitian_deviation,
    inverse_transform,
    shell_reduce_max,
    to_full,
    to_half,
    weighted_l2_stack,
    weighted_tail_sums,
)


class TestBuildGrid:
    def test_accepts_even_n_at_least_four(self):
        g = build_grid(4)
        assert g.n_per_axis == 4
        assert g.period == pytest.approx(2 * math.pi)
        assert g.dealias_fraction == pytest.approx(2 / 3)

    @pytest.mark.parametrize("bad_n", [3, 5, 7, 2, 0, -4, 6.0])
    def test_rejects_bad_n(self, bad_n):
        with pytest.raises(ValueError):
            build_grid(bad_n)

    @pytest.mark.parametrize("bad_period", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_period(self, bad_period):
        with pytest.raises(ValueError):
            build_grid(8, period=bad_period)

    @pytest.mark.parametrize("bad_frac", [0.0, -0.5, 1.5])
    def test_rejects_bad_dealias_fraction(self, bad_frac):
        with pytest.raises(ValueError):
            build_grid(8, dealias_fraction=bad_frac)

    def test_wavenumbers_match_direct_construction(self):
        for n, period in [(8, 2 * math.pi), (16, 5.0), (6, 0.25)]:
            g = build_grid(max(n, 4), period=period)
            np.testing.assert_allclose(
                g.wavenumbers, helpers.oracle_wavenumbers(g.n_per_axis, period),
                rtol=0, atol=1e-15)

    def test_k_norm_and_k_max(self):
        g = build_grid(8, period=2 * math.pi)
        kx, ky, kz = helpers.oracle_k_vectors(8, 2 * math.pi)
        np.testing.assert_allclose(g.k_norm, np.sqrt(kx**2 + ky**2 + kz**2)[..., :5], atol=1e-13)
        assert g.k_max == pytest.approx(math.sqrt(3) * 4)

    def test_grids_hash_and_compare_by_value(self):
        assert build_grid(8) == build_grid(8)
        assert hash(build_grid(8, period=3.0)) == hash(build_grid(8, period=3.0))
        assert build_grid(8) != build_grid(8, period=3.0)


class TestTransforms:
    def test_round_trip_random_field(self, grid16, rng):
        phys = rng.standard_normal(grid16.shape)
        back = inverse_transform(forward_transform(grid16, phys))
        rel = np.max(np.abs(back - phys)) / np.max(np.abs(phys))
        assert rel <= 1e-12

    def test_constant_field_maps_to_zero_mode(self, grid8):
        c = forward_transform(grid8, np.full(grid8.shape, 3.25))
        assert c[0, 0, 0] == pytest.approx(3.25, abs=1e-14)
        others = np.abs(c)
        others[0, 0, 0] = 0.0
        assert np.max(others) <= 1e-14

    @pytest.mark.parametrize("period", [2 * math.pi, 5.0])
    def test_first_harmonic_coefficients(self, period):
        # cos of the first harmonic along axis 0 -> 1/2 at aliases +-(1,0,0)
        g = build_grid(16, period=period)
        x = np.arange(16) * (2 * math.pi / 16)
        phys = np.cos(x)[:, None, None] * np.ones(g.shape)
        c = forward_transform(g, phys)
        assert c[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert c[-1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        zeroed = np.abs(c).copy()
        zeroed[1, 0, 0] = zeroed[-1, 0, 0] = 0.0
        assert np.max(zeroed) <= 1e-14

    def test_parseval(self, grid16, rng):
        phys = rng.standard_normal(grid16.shape)
        lhs, rhs = helpers.oracle_parseval(phys, forward_transform(grid16, phys))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_forward_transform_output_is_hermitian(self, grid16, rng):
        c = forward_transform(grid16, rng.standard_normal(grid16.shape))
        assert c.shape == grid16.shape and c.dtype == np.complex128
        assert hermitian_deviation(c) <= 1e-12

    def test_inverse_rejects_corrupted_field(self, grid8):
        c = np.zeros(grid8.shape, dtype=complex)
        c[1, 0, 0] = 1.0  # missing conjugate partner
        with pytest.raises(CorruptedFieldError) as exc:
            inverse_transform(c)
        assert exc.value.deviation > 1e-9

    def test_inverse_accepts_tiny_asymmetry(self, grid8, rng):
        c = random_hermitian_coeffs(grid8, rng)
        c[1, 2, 3] += 1e-12
        inverse_transform(c)  # below rejection threshold

    def test_non_finite_coefficient_rejected(self, grid8, rng):
        c = random_hermitian_coeffs(grid8, rng)
        c[1, 2, 3] = np.nan
        with pytest.raises(CorruptedFieldError) as exc:
            inverse_transform(c)
        assert math.isnan(exc.value.deviation)

    def test_shape_mismatch_rejected(self, grid8):
        with pytest.raises(ValueError):
            forward_transform(grid8, np.zeros((4, 4, 4)))

    @pytest.mark.parametrize("shape", [(8, 8), (8, 8, 5), (3, 8, 8, 8)])
    def test_inverse_rejects_non_cubic_coefficients(self, shape):
        with pytest.raises(ValueError, match="cubic"):
            inverse_transform(np.zeros(shape, dtype=complex))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        g = build_grid(8, period=1.0 + (seed % 7))
        phys = np.random.default_rng(seed).standard_normal(g.shape)
        back = inverse_transform(forward_transform(g, phys))
        assert np.max(np.abs(back - phys)) <= 1e-12 * max(1.0, np.max(np.abs(phys)))


def half_keep_mask(grid):
    """grid.half_dealias_modes as a boolean half_shape mask."""
    mask = np.zeros(grid.half_shape, dtype=bool)
    mask.flat[grid.half_dealias_modes[0]] = True
    return mask


class TestDealias:
    """The 2/3-rule keep set, held on the half spectrum."""

    def test_two_thirds_rule_boundary_on_32(self):
        # n = 32: cutoff (2/3)*16 = 10.67 -> alias 10 kept, 11 and 12 zeroed;
        # the half holds (0, 10, -10) as its mirror (0, -10, 10)
        mask = half_keep_mask(build_grid(32))
        assert mask[10, 0, 0] and mask[-10, 0, 0] and mask[0, -10, 10]
        assert not mask[11, 0, 0] and not mask[-12, 0, 0] and not mask[0, 0, 12]

    def test_matches_direct_mask(self, grid16):
        assert not grid16.half_dealias_modes[0].flags.writeable
        np.testing.assert_array_equal(half_keep_mask(grid16),
                                      helpers.oracle_dealias_mask(16)[..., :9])

    def test_idempotent(self, grid16, rng):
        mask = half_keep_mask(grid16)
        once = to_half(random_hermitian_coeffs(grid16, rng)) * mask
        np.testing.assert_array_equal(once * mask, once)

    def test_preserves_hermitian_symmetry(self, grid16, rng):
        # the kz = 0 and kz = n/2 planes keep k and -k together
        c = to_half(random_hermitian_coeffs(grid16, rng))
        assert hermitian_deviation(to_full(grid16, c * half_keep_mask(grid16))) <= 1e-12

    def test_fraction_one_keeps_everything(self):
        assert np.all(half_keep_mask(build_grid(8, dealias_fraction=1.0)))


class TestHalfSpectrum:
    @pytest.mark.parametrize("shape", [(8, 8, 8), (3, 12, 12, 12)])
    def test_hermitian_check_matches_oracle_bitwise(self, rng, shape):
        # non-Hermitian input: every c(k) differs from conj c(-k)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert hermitian_deviation(c) == helpers.oracle_hermitian_deviation(c)

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_negated_axis_indexes_minus_k(self, n):
        neg = spectral.negated_axis(n)
        modes = np.arange(n**3).reshape(n, n, n)
        np.testing.assert_array_equal(modes[np.ix_(neg, neg, neg)],
                                      helpers.oracle_negated(modes))
        np.testing.assert_array_equal(neg[neg], np.arange(n))

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_half_full_half_round_trip_is_bitwise(self, rng, n):
        # arbitrary data, Nyquist planes kz = 0 and kz = n/2 included
        g = build_grid(n)
        shape = (3,) + g.half_shape
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = to_full(g, half)
        assert full.shape == (3,) + g.shape
        assert to_half(full).tobytes() == half.tobytes()
        upper = full[..., n // 2 + 1:]
        np.testing.assert_array_equal(
            upper, np.conj(helpers.oracle_negated(full))[..., n // 2 + 1:])

    def test_symmetrized_half_of_a_stack_is_c_contiguous(self, grid8, rng):
        # the solver writes a state's increments through a flat view of it
        stack = np.stack([random_hermitian_coeffs(grid8, rng) for _ in range(3)])
        stack[0, 1, 2, 3] += 1e-12  # no matching change at -k: the half is symmetrized
        assert spectral.hermitian_half(stack).flags.c_contiguous

    def test_full_of_hermitian_half_restores_the_coefficients(self, grid8, rng):
        c = helpers.hermitian_symmetrize(random_hermitian_coeffs(grid8, rng))
        assert to_full(grid8, to_half(c)).tobytes() == c.tobytes()
        assert hermitian_deviation(to_full(grid8, to_half(c))) == 0.0

    def test_real_transforms_match_the_full_ones(self, grid8, rng):
        x = rng.standard_normal((3,) + grid8.shape)
        half = spectral.rfftn(x)
        want = spectral.fftn(x)
        assert half.shape == (3,) + grid8.half_shape
        assert np.max(np.abs(half - to_half(want))) <= 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(spectral.irfftn(half) - x)) <= 1e-14

    @pytest.mark.parametrize("homogeneous", [True, False])
    @pytest.mark.parametrize("s,cutoff,use_factor", [
        (0.0, 0.0, False), (1.3, 0.0, False), (0.7, 2.5, False), (1.0, 0.0, True)])
    def test_weighted_l2_same_on_half_and_full(self, rng, homogeneous, s, cutoff,
                                               use_factor):
        # the reduction of the half against the oracle's sum over the whole
        # lattice; a factor enters the oracle as sqrt(factor) on each mode
        g = build_grid(10, period=3.0)
        full = np.stack([helpers.hermitian_symmetrize(random_hermitian_coeffs(g, rng))
                         for _ in range(3)])
        factor = np.exp(0.3 * helpers.oracle_k_norm(10, 3.0)) if use_factor else None
        scaled = full if factor is None else full * np.sqrt(factor)
        want = math.sqrt(g.mode_weight * sum(
            helpers.oracle_weighted_tail_sum(c, 10, 3.0, s, homogeneous, cutoff) ** 2
            for c in scaled))
        got = weighted_l2_stack(g, to_half(full), s, homogeneous, cutoff=cutoff,
                                factor=None if factor is None else to_half(factor))
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_negative_s_nonzero_mean_rejected_in_both_layouts(self, grid8):
        # the half is refused for its mean, the full lattice for its layout
        stack = np.zeros((3,) + grid8.shape, dtype=complex)
        stack[1, 2, 0, 0] = stack[1, -2, 0, 0] = 1.0
        stack[2, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="nonzero mean"):
            weighted_l2_stack(grid8, to_half(stack), -1.0, True)
        with pytest.raises(ValueError, match="half-spectrum"):
            weighted_l2_stack(grid8, stack, -1.0, True)

    def test_cutoff_nan_is_refused_and_inf_is_an_empty_tail(self, grid8, rng):
        # NaN passed the old `cutoff < 0.0` test and summed an empty tail
        half = to_half(np.stack([random_hermitian_coeffs(grid8, rng) for _ in range(3)]))
        with pytest.raises(ValueError, match=r"^cutoff must be >= 0.0, got nan$"):
            weighted_l2_stack(grid8, half, 1.0, True, cutoff=math.nan)
        with pytest.raises(ValueError, match="cutoff must be >= 0.0"):
            weighted_l2_stack(grid8, half, 1.0, True, cutoff=-1.0)
        assert weighted_l2_stack(grid8, half, 1.0, True, cutoff=math.inf) == 0.0

    def test_reductions_reject_full_lattice_input(self, grid8, rng):
        full = np.stack([random_hermitian_coeffs(grid8, rng) for _ in range(3)])
        reductions = (
            lambda: weighted_l2_stack(grid8, full, 1.0, True),
            lambda: weighted_l2_stack(grid8, full[0], 1.0, False, cutoff=2.0),
            lambda: weighted_tail_sums(grid8, full, 1.0, True),
            lambda: shell_reduce_max(grid8, np.abs(full[0]), 8),
        )
        for reduce in reductions:
            with pytest.raises(ValueError, match="half-spectrum"):
                reduce()

    def test_half_weight_table_counts_interior_planes_twice(self, grid8):
        table = spectral._half_weight_table(grid8, 0.5, False)
        full = (1.0 + helpers.oracle_k_sq(8, 2 * math.pi)) ** 0.5
        assert table.shape == grid8.half_shape
        np.testing.assert_array_equal(table[..., 0], full[..., 0])
        np.testing.assert_array_equal(table[..., 4], full[..., 4])
        np.testing.assert_array_equal(table[..., 1:4], 2.0 * full[..., 1:4])
        assert not table.flags.writeable

    @pytest.mark.parametrize("n,fraction", [(8, 2.0 / 3.0), (8, 1.0), (12, 0.5)])
    def test_half_dealias_modes_pair_the_self_paired_planes(self, n, fraction):
        g = build_grid(n, dealias_fraction=fraction)
        modes, plane, partner = g.half_dealias_modes
        mask = helpers.oracle_dealias_mask(n, fraction)[..., :n // 2 + 1]
        np.testing.assert_array_equal(modes, np.flatnonzero(mask))
        idx = np.array(np.unravel_index(modes, g.half_shape))
        np.testing.assert_array_equal(plane, np.flatnonzero(
            (idx[2] == 0) | (idx[2] == n // 2)))
        np.testing.assert_array_equal(idx[:, partner], (-idx[:, plane]) % n)
        for arr in (modes, plane, partner):
            assert not arr.flags.writeable


class TestShellReduceMax:
    """shell_reduce_max on the half spectrum of real fields, against maxima
    taken over the whole lattice."""

    @pytest.mark.parametrize("n_shells, problem", [
        (1, "must be >= 2, got 1"), (2.0, "must be an integer, got 2.0"),
        (np.int64(8), "must be an integer, got 8")])
    def test_one_shell_count_rule(self, n_shells, problem):
        # shell_reduce_max and diagnostics.n_shells read one rule
        g = build_grid(8)
        with pytest.raises(ValueError) as exc:
            shell_reduce_max(g, np.ones(g.half_shape), n_shells)
        assert str(exc.value) == f"n_shells {problem}"
        assert spectral.N_SHELLS_RULE(n_shells) == problem
        assert ScenarioConfig.__dataclass_fields__["diagnostics_n_shells"].metadata["check"] \
            is spectral.N_SHELLS_RULE

    def test_exponential_profile_shell_maxima(self):
        # u_hat = exp(-0.2 |k|): each shell max is attained at the smallest |k|
        g = build_grid(16)
        knorm = helpers.oracle_k_norm(16, 2 * math.pi)
        c = np.exp(-0.2 * knorm)
        spec = shell_reduce_max(g, to_half(c), n_shells=8)
        knorm = knorm.ravel()
        width = g.k_max / 8
        idx = np.minimum((knorm / width).astype(int), 7)
        for s in range(8):
            in_shell = knorm[idx == s]
            if in_shell.size == 0:
                assert spec.empty[s]
                assert spec.values[s] == 0.0
                continue
            kmin = in_shell.min()
            assert spec.values[s] == pytest.approx(math.exp(-0.2 * kmin), abs=1e-12)
            assert spec.peak_wavenumbers[s] == pytest.approx(kmin, abs=1e-12)

    def test_edges_cover_zero_to_kmax(self, grid8):
        spec = shell_reduce_max(grid8, np.zeros(grid8.half_shape), 5)
        assert spec.shell_edges[0] == 0.0
        assert spec.shell_edges[-1] == pytest.approx(grid8.k_max)
        assert len(spec.shell_edges) == 6

    def test_empty_shells_flagged_not_dropped(self):
        # many narrow shells on a tiny grid leave gaps near k_max
        g = build_grid(4)
        spec = shell_reduce_max(g, np.ones(g.half_shape), n_shells=40)
        assert spec.n_shells == 40
        assert spec.empty.any()
        assert np.all(spec.values[spec.empty] == 0.0)
        assert np.all(np.isnan(spec.peak_wavenumbers[spec.empty]))

    def test_counts_partition_lattice(self, grid8, rng):
        # counts are of half-spectrum modes
        spec = shell_reduce_max(
            grid8, np.abs(to_half(random_hermitian_coeffs(grid8, rng))), 6)
        assert spec.counts.sum() == 8 * 8 * 5

    def test_rejects_fewer_than_two_shells(self, grid8):
        with pytest.raises(ValueError):
            shell_reduce_max(grid8, np.zeros(grid8.half_shape), 1)

    def test_brute_force_agreement(self, grid8, rng):
        c = random_hermitian_coeffs(grid8, rng)
        spec = shell_reduce_max(grid8, np.abs(to_half(c)), 5)
        knorm = helpers.oracle_k_norm(8, 2 * math.pi).ravel()
        mag = np.abs(c).ravel()
        width = grid8.k_max / 5
        for s in range(5):
            sel = np.minimum((knorm / width).astype(int), 4) == s
            if sel.any():
                assert spec.values[s] == pytest.approx(mag[sel].max(), rel=1e-15)

    @pytest.mark.parametrize("n,n_shells", [(8, 8), (20, 24), (24, 64)])
    def test_peaks_follow_the_stable_sort_rule_on_ties(self, rng, n, n_shells):
        # four magnitude values only, so shells hold exact ties at their max
        g = build_grid(n)
        mag = rng.integers(0, 4, size=g.half_shape).astype(float)
        spec = shell_reduce_max(g, mag, n_shells)
        # the rule: visit the modes in stable ascending order of magnitude;
        # each shell keeps the |k| of the last mode visited in it
        knorm = to_half(g.k_norm).ravel()
        idx = np.minimum((knorm / (g.k_max / n_shells)).astype(np.int64), n_shells - 1)
        flat = mag.ravel()
        want = np.full(n_shells, np.nan)
        for m in np.argsort(flat, kind="stable"):
            want[idx[m]] = knorm[m]
        np.testing.assert_array_equal(spec.peak_wavenumbers, want)
        at_max = [np.unique(knorm[(idx == s) & (flat == spec.values[s])]).size
                  for s in range(n_shells)]
        assert max(at_max) > 1


class TestWeightedL2:
    """weighted_l2_stack on the half spectrum (n, n, n//2+1) of single
    Hermitian coefficient arrays.

    The reduction applies the lattice measure, so each closed form carries a
    factor sqrt(mode_weight) (1 on the unit-spacing 2 pi box).
    """

    def test_single_mode_homogeneous_example(self, grid8):
        # a unit pair at k, -k with |k| = 2 (interior kz plane: the half
        # holds k only), s = 1/2: (2 |k|^{2s})^{1/2} = 2
        c = np.zeros(grid8.shape, dtype=complex)
        c[0, 0, 2] = c[0, 0, -2] = 1.0
        assert weighted_l2_stack(grid8, to_half(c), 0.5, homogeneous=True) == \
            pytest.approx(math.sqrt(grid8.mode_weight) * 2.0, abs=1e-15)

    def test_single_mode_inhomogeneous_example(self, grid8):
        # the same pair: (2 (1+4)^{1/2})^{1/2} = sqrt(2) 5^{1/4}
        c = np.zeros(grid8.shape, dtype=complex)
        c[0, 0, 2] = c[0, 0, -2] = 1.0
        assert weighted_l2_stack(grid8, to_half(c), 0.5, homogeneous=False) == \
            pytest.approx(math.sqrt(grid8.mode_weight) * math.sqrt(2) * 5**0.25,
                          abs=1e-15)

    def test_s_zero_equals_plain_l2(self, grid8, rng):
        c = random_hermitian_coeffs(grid8, rng)
        plain = math.sqrt(grid8.mode_weight * float(np.sum(np.abs(c) ** 2)))
        half = to_half(c)
        assert weighted_l2_stack(grid8, half, 0.0, True) == pytest.approx(plain, rel=1e-14)
        assert weighted_l2_stack(grid8, half, 0.0, False) == pytest.approx(plain, rel=1e-14)

    def test_homogeneous_zero_mode_dropped_for_positive_s(self, grid8):
        c = np.zeros(grid8.half_shape, dtype=complex)
        c[0, 0, 0] = 7.0
        assert weighted_l2_stack(grid8, c, 1.0, homogeneous=True) == 0.0

    def test_homogeneous_negative_s_rejects_nonzero_mean(self, grid8):
        c = np.zeros(grid8.shape, dtype=complex)
        c[0, 0, 0] = 1.0
        c[1, 0, 0] = c[-1, 0, 0] = 0.5
        with pytest.raises(ValueError):
            weighted_l2_stack(grid8, to_half(c), -1.0, homogeneous=True)

    def test_homogeneous_negative_s_fine_with_zero_mean(self, grid8):
        c = np.zeros(grid8.shape, dtype=complex)
        c[2, 0, 0] = c[-2, 0, 0] = 1.0
        val = weighted_l2_stack(grid8, to_half(c), -1.0, homogeneous=True)
        assert val == pytest.approx(
            math.sqrt(grid8.mode_weight) * math.sqrt(2 * 2.0**-2), rel=1e-14)

    def test_brute_force_agreement(self, grid8, rng):
        c = random_hermitian_coeffs(grid8, rng)
        for s, hom, cut in [(0.7, True, 0.0), (1.0, True, 2.5), (-0.3, False, 0.0),
                            (0.5, False, 3.0), (0.0, True, 1.0)]:
            want = helpers.oracle_weighted_tail_sum(c, 8, 2 * math.pi, s, hom, cut)
            assert weighted_l2_stack(grid8, to_half(c), s, hom, cut) == pytest.approx(
                math.sqrt(grid8.mode_weight) * want, rel=1e-12, abs=1e-300)

    def test_cutoff_monotonicity(self, grid8, rng):
        c = to_half(random_hermitian_coeffs(grid8, rng))
        cuts = [0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0]
        vals = [weighted_l2_stack(grid8, c, 0.8, True, cut) for cut in cuts]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-15

    def test_cached_cutoff_mask_gives_the_freshly_masked_sum(self, grid8, rng):
        stack = to_half(np.stack([random_hermitian_coeffs(grid8, rng) for _ in range(3)]))
        table = spectral._half_weight_table(grid8, 0.8, True)
        knorm = to_half(grid8.k_norm)
        shell_radius = float(grid8.k_norm_levels[0][5])
        for cut in (0.0, shell_radius, grid8.k_max + 1.0):
            total = 0.0
            for comp in stack:
                total += float(np.sum(table * np.abs(comp) ** 2, where=knorm >= cut))
            assert weighted_l2_stack(grid8, stack, 0.8, True, cut) == \
                math.sqrt(grid8.mode_weight * total)
            mask = spectral._cutoff_mask(grid8, cut)
            assert not mask.flags.writeable
            assert spectral._cutoff_mask(grid8, cut) is mask

    def test_cutoff_beyond_kmax_gives_zero(self, grid8, rng):
        c = to_half(random_hermitian_coeffs(grid8, rng))
        assert weighted_l2_stack(grid8, c, 1.0, True, grid8.k_max + 1.0) == 0.0

    def test_rejects_negative_cutoff(self, grid8):
        with pytest.raises(ValueError):
            weighted_l2_stack(grid8, np.zeros(grid8.half_shape, complex), 1.0, True, -1.0)

    @settings(max_examples=20, deadline=None)
    @given(s=st.floats(-1.0, 2.0), cutoff=st.floats(0.0, 6.0), seed=st.integers(0, 999))
    def test_cutoff_never_increases_norm_property(self, s, cutoff, seed):
        g = build_grid(8)
        c = spectral.fftn(np.random.default_rng(seed).standard_normal(g.shape))
        c[0, 0, 0] = 0.0  # keep negative-s homogeneous case in domain
        lo = weighted_l2_stack(g, to_half(c), s, True, cutoff)
        hi = weighted_l2_stack(g, to_half(c), s, True, 0.0)
        assert lo <= hi * (1 + 1e-12) + 1e-300


class TestWeightedStack:
    def test_matches_componentwise_reduction_with_lattice_weight(self, grid8, rng):
        stacks = np.stack([random_hermitian_coeffs(grid8, rng) for _ in range(3)])
        total = sum(helpers.oracle_weighted_tail_sum(
            stacks[j], 8, 2 * math.pi, 0.9, False, 1.0) ** 2 for j in range(3))
        want = math.sqrt(grid8.mode_weight * total)
        got = weighted_l2_stack(grid8, to_half(stacks), 0.9, False, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_lattice_weight_is_identity_on_unit_box(self, grid8, rng):
        c = random_hermitian_coeffs(grid8, rng)
        one = weighted_l2_stack(grid8, to_half(c)[None], 0.5, True)
        raw = helpers.oracle_weighted_tail_sum(c, 8, 2 * math.pi, 0.5, True, 0.0)
        assert grid8.mode_weight == 1.0
        assert one == pytest.approx(raw, rel=1e-14)

    def test_negative_s_rejects_stack_with_nonzero_mean(self, grid8):
        stack = np.zeros((3,) + grid8.half_shape, dtype=complex)
        stack[1, 2, 0, 0] = stack[1, -2, 0, 0] = 1.0
        assert weighted_l2_stack(grid8, stack, -1.0, True) > 0.0
        stack[2, 0, 0, 0] = 0.5  # one component with a mean
        with pytest.raises(ValueError, match="nonzero mean"):
            weighted_l2_stack(grid8, stack, -1.0, True)
        # a cutoff above k = 0 drops the mean mode, so the tail norm is defined
        assert weighted_l2_stack(grid8, stack, -1.0, True, cutoff=1.0) > 0.0

    def test_weight_table_is_cached_and_read_only(self, grid8):
        table = spectral._half_weight_table(grid8, 0.75, True)
        assert spectral._half_weight_table(build_grid(8), 0.75, True) is table
        with pytest.raises(ValueError):
            table[1, 0, 0] = 0.0

    def test_factor_multiplies_the_weight(self, grid8, rng):
        c = random_hermitian_coeffs(grid8, rng)
        knorm = helpers.oracle_k_norm(8, 2 * math.pi)
        factor = np.exp(0.3 * knorm)
        want = math.sqrt(float(np.sum(knorm**2 * factor * np.abs(c) ** 2)))
        assert weighted_l2_stack(grid8, to_half(c), 1.0, True,
                                 factor=to_half(factor)) == pytest.approx(want, rel=1e-13)
        low = knorm <= 2.0
        want_low = math.sqrt(float(np.sum((knorm**2 * np.abs(c) ** 2)[low])))
        assert weighted_l2_stack(grid8, to_half(c), 1.0, True,
                                 factor=to_half(low)) == pytest.approx(want_low, rel=1e-13)


class TestWeightedTailSums:
    @pytest.mark.parametrize("homogeneous, s", [
        (True, 0.0), (True, 1.0), (False, 0.0), (False, 0.75)])
    def test_every_level_matches_cutoff_reduction(self, rng, homogeneous, s):
        grid = build_grid(8, period=3.0)
        stacks = to_half(np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)]))
        levels, _ = grid.k_norm_levels
        tails = weighted_tail_sums(grid, stacks, s, homogeneous)
        assert tails.shape == levels.shape
        for m, level in enumerate(levels):
            want = weighted_l2_stack(grid, stacks, s, homogeneous, cutoff=float(level))
            assert math.sqrt(tails[m]) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("period", [2 * math.pi, 3.0])
    def test_levels_reproduce_k_norm_and_are_read_only(self, period):
        # levels index the half spectrum and are every |k| of the lattice
        grid = build_grid(16, period=period)
        levels, mode_level = grid.k_norm_levels
        assert np.all(np.diff(levels) > 0.0)
        np.testing.assert_array_equal(levels[mode_level], to_half(grid.k_norm).ravel())
        np.testing.assert_array_equal(levels, np.unique(helpers.oracle_k_norm(16, period)))
        assert grid.k_norm_levels is grid.k_norm_levels
        for arr in (levels, mode_level):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_negative_s_rejects_stack_with_nonzero_mean(self, grid8):
        stack = np.zeros((3,) + grid8.half_shape, dtype=complex)
        stack[0, 1, 0, 0] = stack[0, -1, 0, 0] = 1.0
        assert weighted_tail_sums(grid8, stack, -1.0, True)[0] > 0.0
        stack[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="nonzero mean"):
            weighted_tail_sums(grid8, stack, -1.0, True)


class TestWorkers:
    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            spectral.set_fft_workers(0)
        with pytest.raises(ValueError):
            spectral.set_fft_workers(-2)

    def test_setting_workers_does_not_change_results(self, grid8, rng):
        phys = rng.standard_normal(grid8.shape)
        before = forward_transform(grid8, phys)
        spectral.set_fft_workers(2)
        try:
            after = forward_transform(grid8, phys)
        finally:
            spectral.set_fft_workers(1)
        np.testing.assert_array_equal(before, after)
