import math

import numpy as np
import pytest

from gnsflow.initial_data import (
    DataParams,
    compact_spectrum,
    make_initial_data,
    random_sobolev_tail,
    single_mode,
    taylor_green,
)
from gnsflow.operators import stack_coefficients
from gnsflow.spectral import SpectralField, build_grid, hermitian_deviation, inverse_transform

ALL_KINDS = ("taylor_green", "single_mode", "random_sobolev_tail",
             "compact_spectrum")


def field_kwargs(kind):
    return {"random_sobolev_tail": {"seed": 7}}.get(kind, {})


def physical_values(u):
    """The three real components of u on the physical grid."""
    return [inverse_transform(SpectralField(u.grid, c)) for c in stack_coefficients(u)]


class TestCommonGuarantees:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_divergence_free_hermitian_mean_free(self, kind):
        grid = build_grid(16)
        u = make_initial_data(kind, grid, DataParams(band_hi=5.0, k_cut=4.0),
                              **field_kwargs(kind))
        assert u.divergence_deviation() <= 1e-12
        stack = stack_coefficients(u)
        assert hermitian_deviation(stack) == 0.0
        np.testing.assert_array_equal(stack[:, 0, 0, 0], 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nyquist_planes_empty(self, kind):
        grid = build_grid(8)
        u = make_initial_data(kind, grid, DataParams(band_hi=3.0, k_cut=3.0),
                              **field_kwargs(kind))
        stack = stack_coefficients(u)
        half = grid.n_per_axis // 2
        assert np.all(stack[:, half, :, :] == 0.0)
        assert np.all(stack[:, :, half, :] == 0.0)
        assert np.all(stack[:, :, :, half] == 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_amplitude_scales_linearly(self, kind):
        grid = build_grid(8)
        base = dict(band_hi=3.0, k_cut=3.0)
        u1 = make_initial_data(kind, grid, DataParams(amplitude=1.0, **base),
                               **field_kwargs(kind))
        u3 = make_initial_data(kind, grid, DataParams(amplitude=3.0, **base),
                               **field_kwargs(kind))
        np.testing.assert_allclose(stack_coefficients(u3),
                                   3.0 * stack_coefficients(u1),
                                   rtol=0, atol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown initial data kind"):
            make_initial_data("vortex", build_grid(8), DataParams())


class TestTaylorGreen:
    def test_matches_closed_form_pointwise(self):
        grid = build_grid(16, period=5.0)
        u = taylor_green(grid, DataParams(amplitude=2.0))
        theta = 2.0 * math.pi * np.arange(16) / 16
        x, y, _ = np.meshgrid(theta, theta, theta, indexing="ij", sparse=True)
        want0 = 2.0 * np.sin(x) * np.cos(y) * np.ones(grid.shape)
        want1 = -2.0 * np.cos(x) * np.sin(y) * np.ones(grid.shape)
        values = physical_values(u)
        np.testing.assert_allclose(values[0], want0, atol=1e-13)
        np.testing.assert_allclose(values[1], want1, atol=1e-13)
        np.testing.assert_allclose(values[2], 0.0, atol=1e-14)

    def test_spectral_support_is_first_harmonics(self):
        grid = build_grid(8)
        u = taylor_green(grid, DataParams())
        stack = stack_coefficients(u)
        nz = np.argwhere(np.abs(stack) > 1e-13)
        # only (+-1, +-1, 0) contribute, z-component empty
        assert set(nz[:, 0].tolist()) == {0, 1}
        for _, i, j, l in nz:
            assert l == 0
            assert i in (1, 7) and j in (1, 7)


class TestSingleMode:
    def test_coefficient_placement_and_value(self):
        grid = build_grid(8)
        u = single_mode(grid, DataParams(amplitude=2.0, mode=(2, 0, 0)))
        stack = stack_coefficients(u)
        # e = z x k / |...| = (0, 1, 0) for k along x
        assert stack[1, 2, 0, 0] == pytest.approx(1.0)
        assert stack[1, 6, 0, 0] == pytest.approx(1.0)
        others = np.abs(stack).sum() - 2.0
        assert others == pytest.approx(0.0, abs=1e-15)

    def test_physical_amplitude(self):
        grid = build_grid(8)
        u = single_mode(grid, DataParams(amplitude=1.5, mode=(1, 2, 0)))
        mag = np.zeros(grid.shape)
        for values in physical_values(u):
            mag += values ** 2
        assert math.sqrt(mag.max()) == pytest.approx(1.5, rel=1e-12)

    def test_polarization_orthogonal_to_mode(self):
        grid = build_grid(16)
        for mode in [(1, 2, 0), (0, 3, 1), (2, -2, 3)]:
            u = single_mode(grid, DataParams(mode=mode))
            assert u.divergence_deviation() <= 1e-13

    def test_z_aligned_mode_uses_fallback(self):
        grid = build_grid(8)
        u = single_mode(grid, DataParams(mode=(0, 0, 2)))
        stack = stack_coefficients(u)
        assert abs(stack[0, 0, 0, 2]) > 0.0
        assert np.abs(stack[1]).max() == 0.0
        assert np.abs(stack[2]).max() == 0.0

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError, match="zero mode"):
            single_mode(build_grid(8), DataParams(mode=(0, 0, 0)))

    def test_nyquist_and_beyond_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            single_mode(build_grid(8), DataParams(mode=(4, 0, 0)))
        with pytest.raises(ValueError, match="Nyquist"):
            single_mode(build_grid(8), DataParams(mode=(0, -5, 0)))


class TestRandomSobolevTail:
    def test_seed_reproducible(self):
        grid = build_grid(16)
        p = DataParams(band_lo=1.0, band_hi=6.0, spectral_exponent=3.0)
        a = random_sobolev_tail(grid, p, seed=42)
        b = random_sobolev_tail(grid, p, seed=42)
        np.testing.assert_array_equal(stack_coefficients(a), stack_coefficients(b))

    def test_seeds_differ(self):
        grid = build_grid(16)
        p = DataParams(band_lo=1.0, band_hi=6.0)
        a = random_sobolev_tail(grid, p, seed=1)
        b = random_sobolev_tail(grid, p, seed=2)
        assert np.abs(stack_coefficients(a) - stack_coefficients(b)).max() > 1e-6

    def test_support_restricted_to_band(self):
        grid = build_grid(16)
        p = DataParams(band_lo=2.0, band_hi=5.0)
        u = random_sobolev_tail(grid, p, seed=3)
        stack = stack_coefficients(u)
        knorm = np.asarray(grid.k_norm)
        outside = (knorm < 2.0) | (knorm > 5.0)
        assert np.abs(stack[:, outside]).max() == 0.0

    def test_exponent_reshapes_modes_exactly(self):
        # same seed, two exponents: per-mode ratio is |k|^{e1 - e2} exactly
        grid = build_grid(16)
        base = dict(band_lo=2.0, band_hi=6.0)
        a = random_sobolev_tail(grid, DataParams(spectral_exponent=2.0, **base),
                                seed=11)
        b = random_sobolev_tail(grid, DataParams(spectral_exponent=4.0, **base),
                                seed=11)
        sa, sb = stack_coefficients(a), stack_coefficients(b)
        knorm = np.asarray(grid.k_norm)
        sel = (np.abs(sa) > 1e-12) & (knorm[None] > 0)
        ratio = np.abs(sb[sel] / sa[sel])
        np.testing.assert_allclose(ratio, knorm[None].repeat(3, 0)[sel] ** -2.0,
                                   rtol=1e-9)

    def test_band_above_k_max_rejected(self):
        grid = build_grid(8)  # k_max ~ 6.93
        with pytest.raises(ValueError, match="largest"):
            random_sobolev_tail(grid, DataParams(band_lo=1.0, band_hi=8.0), seed=0)


class TestCompactSpectrum:
    def test_deterministic_and_flat_before_projection(self):
        grid = build_grid(16)
        p = DataParams(band_lo=1.0, k_cut=4.0, amplitude=0.5)
        a = compact_spectrum(grid, p)
        b = compact_spectrum(grid, p)
        np.testing.assert_array_equal(stack_coefficients(a), stack_coefficients(b))

    def test_support_in_band(self):
        grid = build_grid(16)
        u = compact_spectrum(grid, DataParams(band_lo=2.0, k_cut=5.0))
        stack = stack_coefficients(u)
        knorm = np.asarray(grid.k_norm)
        outside = (knorm < 2.0) | (knorm > 5.0)
        assert np.abs(stack[:, outside]).max() == 0.0
        inside = (knorm >= 2.0) & (knorm <= 5.0)
        assert np.abs(stack[:, inside]).max() > 0.0

    def test_k_cut_above_k_max_rejected(self):
        grid = build_grid(8)
        with pytest.raises(ValueError, match="largest"):
            compact_spectrum(grid, DataParams(band_lo=1.0, k_cut=7.5))
