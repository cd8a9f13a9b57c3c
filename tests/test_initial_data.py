import hashlib
import math

import numpy as np
import pytest

import helpers
from gnsflow.initial_data import (
    DataParams,
    compact_spectrum,
    make_initial_data,
    random_sobolev_tail,
    single_mode,
    taylor_green,
)
from gnsflow.operators import stack_coefficients
from gnsflow.spectral import build_grid, hermitian_deviation, inverse_transform

ALL_KINDS = ("taylor_green", "single_mode", "random_sobolev_tail",
             "compact_spectrum")


def field_kwargs(kind):
    return {"random_sobolev_tail": {"seed": 7}}.get(kind, {})


def physical_values(u):
    """The three real components of u on the physical grid."""
    return [inverse_transform(c) for c in stack_coefficients(u)]


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
        knorm = helpers.oracle_k_norm(16, grid.period)
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
        knorm = helpers.oracle_k_norm(16, grid.period)
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
        knorm = helpers.oracle_k_norm(16, grid.period)
        outside = (knorm < 2.0) | (knorm > 5.0)
        assert np.abs(stack[:, outside]).max() == 0.0
        inside = (knorm >= 2.0) & (knorm <= 5.0)
        assert np.abs(stack[:, inside]).max() > 0.0

    def test_k_cut_above_k_max_rejected(self):
        grid = build_grid(8)
        with pytest.raises(ValueError, match="largest"):
            compact_spectrum(grid, DataParams(band_lo=1.0, k_cut=7.5))


# sha256 of make_initial_data(...).half_spectrum().tobytes(), recorded from
# the full-lattice construction these generators replaced: any bit change in
# the half-spectrum build, a zero's sign included, shows here
PINNED_HALF_SPECTRA = {
    (16, "taylor_green", 0):
        "b0dc67b7bdfacd8259331ebd9a0f7438bf0d748aea9ed67efe6e70c670df7c33",
    (16, "single_mode", 0):
        "a7f5584711c7cfe02fd8e09fa5e414d804d447999fa6a096e9db8a0a323dc233",
    (16, "compact_spectrum", 0):
        "e7f76fdbd8a853ae48c074bea1c3c58b74f33efb727f37bde7d0c98b37fa3bdc",
    (16, "random_sobolev_tail", 2024):
        "30852fc6f1e8e5aefa789376dbf3a0d9eb9c56757d1d3921b15889494e2dc165",
    (16, "random_sobolev_tail", 90210):
        "b2e1d46d5bc6e2cdf0b9a247b5ef7a4460a6c3a5d23527b30eb7b9871e393ce7",
    (32, "taylor_green", 0):
        "9bb0ebc385faef6c1ba6161f0399100af04685e465e6a1390c492fb88d379126",
    (32, "single_mode", 0):
        "29b104c16878af7bada84ee1ac21725ad5e604f3663d1019df8cb12513836416",
    (32, "compact_spectrum", 0):
        "1cb34a02a48864895fd527c15e88c72dcd43703136370809f631410db5ccd7b7",
    (32, "random_sobolev_tail", 2024):
        "2afd481931c3a3d84b3ed867fc53a57d0272d3e2b7fce38acbd055512dcc4d3e",
    (32, "random_sobolev_tail", 90210):
        "01ca71d0b5d745a37d5c38bec174f66fd52d051a4fb896a7a617be18b2208eb5",
}
PINNED_PARAMS = {"single_mode": DataParams(mode=(2, -1, -3))}


class TestPinnedBytes:
    @pytest.mark.parametrize("n, kind, seed", sorted(PINNED_HALF_SPECTRA))
    def test_half_spectrum_bytes(self, n, kind, seed):
        u = make_initial_data(kind, build_grid(n), PINNED_PARAMS.get(kind, DataParams()), seed)
        digest = hashlib.sha256(u.half_spectrum().tobytes()).hexdigest()
        assert digest == PINNED_HALF_SPECTRA[(n, kind, seed)]


class TestMemory:
    def test_random_data_peak_is_within_four_half_stacks(self):
        # warm: the grid's tables are built by the first call
        grid = build_grid(32)
        make_initial_data("random_sobolev_tail", grid, DataParams(), seed=2024)
        u, peak = helpers.peak_allocation(make_initial_data, "random_sobolev_tail", grid,
                                          DataParams(), seed=2024)
        assert peak <= 4 * u.half_spectrum().nbytes
