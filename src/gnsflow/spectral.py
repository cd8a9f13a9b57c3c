"""Spectral representation of periodic fields: grids, transforms, reductions.

All fields live on an n^3 periodic lattice of side ``period``. Spectral
coefficients follow the convention ``coeffs = fftn(values) / n^3``, so a
constant field c has ``coeffs[0,0,0] = c`` and Parseval reads
``mean(|f|^2) = sum(|coeffs|^2)``. Wavenumbers are ``(2*pi/period) * m`` with
integer aliases m in [-n/2, n/2).

A real field's coefficients satisfy c(-k) = conj c(k), so the half spectrum
``coeffs[..., :n//2+1]`` (the ``rfftn`` layout) determines them. Every field
the package computes on is such a half spectrum, and so are the ``Grid``
tables and the reductions' inputs. The full lattice is used only at the
edges: by ``forward_transform``, ``inverse_transform``, ``hermitian_half``,
``hermitian_deviation``, ``to_half`` and ``to_full``, which find each -k
axis by axis (``negated_axis``, ``negated_half``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

__all__ = [
    "Grid",
    "ShellSpectrum",
    "CorruptedFieldError",
    "build_grid",
    "forward_transform",
    "inverse_transform",
    "rfftn",
    "irfftn",
    "to_half",
    "to_full",
    "shell_reduce_max",
    "weighted_l2_stack",
    "weighted_tail_sums",
    "hermitian_deviation",
    "hermitian_half",
    "set_fft_workers",
    "get_fft_workers",
]

# Hermitian symmetry: deviation beyond which data is not a real field.
HERMITIAN_REJECT_TOL = 1e-9

# exp() overflow guard, natural-log units.
EXP_GUARD = 700.0

_fft_workers = 1


def set_fft_workers(n: int) -> None:
    """Set the worker count passed to scipy.fft (single-threaded by default)."""
    global _fft_workers
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"fft worker count must be a positive integer, got {n!r}")
    _fft_workers = n


def get_fft_workers() -> int:
    return _fft_workers


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only (the package's cached tables and stored arrays)."""
    arr.setflags(write=False)
    return arr


# fftn and ifftn are no longer called in the package; they stay importable
# under these names because the benchmark's trace hooks rebind them.
def fftn(values: np.ndarray) -> np.ndarray:
    """Forward 3-D FFT with the package normalization (divide by n^3)."""
    return scipy.fft.fftn(values, axes=(-3, -2, -1), norm="forward", workers=_fft_workers)


def ifftn(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fftn` (no extra scaling)."""
    return scipy.fft.ifftn(coeffs, axes=(-3, -2, -1), norm="forward", workers=_fft_workers)


def rfftn(values: np.ndarray) -> np.ndarray:
    """Forward real 3-D FFT: the half spectrum (..., n, n, n//2+1) of :func:`fftn`."""
    return scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward", workers=_fft_workers)


def irfftn(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rfftn`: real (..., n, n, n) values from a half spectrum."""
    n = coeffs.shape[-2]
    return scipy.fft.irfftn(coeffs, s=(n, n, n), axes=(-3, -2, -1), norm="forward",
                            workers=_fft_workers)


class CorruptedFieldError(ValueError):
    """A spectral field violates Hermitian symmetry beyond tolerance."""

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


# Range rules: value -> "must be <allowed>, got <value>", or None if allowed.
# A constructor's {field: rule} table (GRID_RULES, SOLVER_RULES, DATA_RULES) is
# the one home of its fields' ranges; the config checks each key it feeds with it.
def rule(ok, allowed: str):
    return lambda value: None if ok(value) else f"must be {allowed}, got {value}"


def all_of(*rules):
    """The first problem of rules, in order, or None."""
    return lambda value: next((problem for r in rules if (problem := r(value))), None)


def at_least(lo):
    return rule(lambda x: x >= lo, f">= {lo}")


def enforce(rules: dict, values: dict) -> None:
    """Raise the first broken rule of values[name] as ValueError("<name> <problem>")."""
    for name, check in rules.items():
        if problem := check(values[name]):
            raise ValueError(f"{name} {problem}")


INTEGER = rule(lambda x: isinstance(x, int), "an integer")
POSITIVE = rule(lambda x: x > 0.0, "positive")
FINITE = rule(math.isfinite, "finite")
POSITIVE_FINITE = all_of(POSITIVE, FINITE)
OPEN_UNIT = rule(lambda x: 0.0 < x < 1.0, "in (0, 1)")

# the one home of the shell count's range: shell_reduce_max and the config's
# diagnostics.n_shells key
N_SHELLS_RULE = all_of(INTEGER, at_least(2))

GRID_RULES = {
    "n_per_axis": rule(lambda n: isinstance(n, int) and n >= 4 and n % 2 == 0,
                       "an even integer >= 4"),
    "period": POSITIVE_FINITE,
    "dealias_fraction": rule(lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
}


@dataclass(frozen=True)
class Grid:
    """Cubic periodic lattice: n_per_axis points per axis, side length period.

    dealias_fraction is the kept fraction of the one-sided mode range per axis
    (2/3 rule by default). The tables k_sq, k_norm and inv_k_sq are
    half_shape arrays; the mode -k has the value of k, bit for bit.
    """

    n_per_axis: int
    period: float = 2.0 * math.pi
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        enforce(GRID_RULES, vars(self))

    @property
    def shape(self) -> tuple[int, int, int]:
        n = self.n_per_axis
        return (n, n, n)

    @property
    def half_shape(self) -> tuple[int, int, int]:
        """Shape of the half spectrum: kz indices 0..n/2 only."""
        n = self.n_per_axis
        return (n, n, n // 2 + 1)

    @property
    def spacing(self) -> float:
        """Wavenumber spacing 2*pi/period (also the physical lattice spacing is period/n)."""
        return 2.0 * math.pi / self.period

    @property
    def mode_weight(self) -> float:
        """Lattice measure (2*pi/period)^3 for discretized L^2_xi sums."""
        return self.spacing**3

    @property
    def cell_volume(self) -> float:
        """Physical cell volume (period/n)^3 for discretized L^p_x sums."""
        return (self.period / self.n_per_axis) ** 3

    @cached_property
    def alias_integers(self) -> np.ndarray:
        """Signed integer mode aliases per axis, in FFT storage order."""
        n = self.n_per_axis
        return read_only(np.fft.fftfreq(n, d=1.0 / n).astype(np.int64))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers (2*pi/period)*alias per axis, FFT storage order."""
        return read_only(self.spacing * self.alias_integers.astype(np.float64))

    @cached_property
    def k_components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (n,1,1), (1,n,1), (1,1,n//2+1) wavenumber component
        arrays of the half spectrum."""
        k = self.wavenumbers
        return tuple(map(read_only, np.meshgrid(k, k, k[:self.n_per_axis // 2 + 1],
                                                indexing="ij", sparse=True)))

    @cached_property
    def k_sq(self) -> np.ndarray:
        kx, ky, kz = self.k_components
        return read_only(kx**2 + ky**2 + kz**2)

    @cached_property
    def k_norm(self) -> np.ndarray:
        return read_only(np.sqrt(self.k_sq))

    @cached_property
    def k_norm_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct k_norm values, and the level index of each
        half-spectrum mode (flat C order over half_shape).

        Levels are the k_norm floats themselves (distinct k_sq floats can
        share one sqrt), so the modes at or above level m are exactly those
        with k_norm >= levels[m]. Every |k| of the lattice is that of a
        half-spectrum mode (|-k| = |k|), so the levels are the full lattice's.
        """
        levels, mode_level = np.unique(self.k_norm, return_inverse=True)
        return read_only(levels), read_only(mode_level.ravel())

    @cached_property
    def k_max(self) -> float:
        """Largest |k| on the lattice (corner mode)."""
        return float(np.sqrt(3.0) * self.spacing * (self.n_per_axis // 2))

    @cached_property
    def half_dealias_modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kept modes of the half spectrum, and how to pair up its self-paired planes.

        A mode is kept when |alias| <= dealias_fraction * n/2 on every axis.
        Returns the kept modes as flat C-order indices into half_shape, the
        list positions of the kept modes on the kz = 0 and kz = n/2 planes
        (each plane holds both k and -k), and the list position of each of
        their -k.
        """
        h = self.n_per_axis // 2 + 1
        keep = np.abs(self.alias_integers) <= self.dealias_fraction * (self.n_per_axis / 2.0)
        modes = np.flatnonzero(keep[:, None, None] & keep[None, :, None] & keep[:h])
        plane, partner = plane_pairs(self, modes)
        return read_only(modes), plane, partner

    @cached_property
    def inv_k_sq(self) -> np.ndarray:
        """1/|k|^2 with the k = 0 entry set to 0."""
        with np.errstate(divide="ignore"):
            return read_only(np.where(self.k_sq > 0.0, 1.0 / self.k_sq, 0.0))


def build_grid(n_per_axis: int, period: float = 2.0 * math.pi,
               dealias_fraction: float = 2.0 / 3.0) -> Grid:
    """Construct a Grid; GRID_RULES holds the ranges of its arguments."""
    return Grid(n_per_axis=n_per_axis, period=float(period),
                dealias_fraction=float(dealias_fraction))


def negated_axis(n: int) -> np.ndarray:
    """For each storage index i of an axis (alias m), the index (-i) % n of -m."""
    return (-np.arange(n)) % n


def plane_pairs(grid: Grid, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only list positions, in sorted flat half_shape indices modes, of
    the modes on the kz = 0 and kz = n/2 planes (each holds both k and -k)
    and of each of their -k, which modes must hold."""
    n = grid.n_per_axis
    neg = negated_axis(n)
    i, j, l = np.unravel_index(modes, grid.half_shape)
    plane = np.flatnonzero((l == 0) | (l == n // 2))  # l is its own negative there
    negated = np.ravel_multi_index((neg[i[plane]], neg[j[plane]], l[plane]), grid.half_shape)
    return read_only(plane), read_only(np.searchsorted(modes, negated))


def negated_half(values: np.ndarray) -> np.ndarray:
    """values(-k) at every mode k of the half spectrum of full (..., n, n, n)
    values, as a new C-order array."""
    n = values.shape[-1]
    neg = negated_axis(n)
    index = (neg[:, None, None] * n + neg[None, :, None]) * n + neg[:n // 2 + 1]
    return values.reshape(values.shape[:-3] + (-1,)).take(index, axis=-1)


def _half_mirror(coeffs: np.ndarray) -> np.ndarray:
    """conj c(-k) at every mode k of the half spectrum of full (..., n, n, n)
    coefficients, as a new C-order array."""
    mirror = negated_half(coeffs)
    return np.conjugate(mirror, out=mirror)


def hermitian_deviation(coeffs: np.ndarray) -> float:
    """Max absolute deviation |c(k) - conj(c(-k))| over the lattice.

    The pairs k, -k each have a member in the half spectrum and both give
    the same value, so only the half is scanned.
    """
    gap = _half_mirror(coeffs)
    np.subtract(to_half(coeffs), gap, out=gap)
    return float(np.max(np.abs(gap)))


def _real_field(values: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """values held to the real-field contract against mirror (conj c(-k) at
    their modes, a new array): values if equal, (values + mirror) / 2 within
    HERMITIAN_REJECT_TOL, CorruptedFieldError beyond it."""
    dev = float(np.max(np.abs(values - mirror), initial=0.0))
    # written so that a NaN deviation (non-finite data) is rejected too
    if not dev <= HERMITIAN_REJECT_TOL:
        raise CorruptedFieldError(
            f"not a real field: Hermitian deviation {dev:.3e} exceeds "
            f"{HERMITIAN_REJECT_TOL:.1e}", dev)
    if dev == 0.0:
        return values
    mirror += values
    mirror *= 0.5
    return mirror


def hermitian_half(coeffs: np.ndarray) -> np.ndarray:
    """The real-field contract on full (..., n, n, n) coefficients: the half
    spectrum of (c(k) + conj c(-k)) / 2 as a new complex128 array, bit for
    bit the half of coeffs when they are exactly Hermitian, and
    CorruptedFieldError beyond HERMITIAN_REJECT_TOL."""
    return np.array(_real_field(to_half(coeffs), _half_mirror(coeffs)), dtype=np.complex128)


def to_half(stack: np.ndarray) -> np.ndarray:
    """View of the half spectrum (..., n, n, n//2+1) of a full (..., n, n, n)
    array; a half array comes back whole."""
    return stack[..., :stack.shape[-2] // 2 + 1]


def to_full(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full (..., n, n, n) coefficients of a half spectrum, as a new array.

    The half is copied as is (kz = 0 and kz = n/2 planes included); each
    upper plane kz > n/2 is the conjugate of the mode -k, which the half
    holds.
    """
    h = grid.n_per_axis // 2 + 1
    neg = negated_axis(grid.n_per_axis)
    full = np.empty(half.shape[:-3] + grid.shape, dtype=np.complex128)
    full[..., :h] = half
    np.conj(half[..., neg[:, None, None], neg[None, :, None], neg[h:]], out=full[..., h:])
    return full


def forward_transform(grid: Grid, physical: np.ndarray) -> np.ndarray:
    """Full (n, n, n) spectral coefficients of a real physical-space array:
    rfftn's half, mirrored by to_full (Hermitian to rounding on the
    self-paired kz = 0 and kz = n/2 planes, exactly elsewhere)."""
    arr = np.asarray(physical)
    if arr.shape != grid.shape:
        raise ValueError(f"physical array shape {arr.shape} does not match grid {grid.shape}")
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) > 0.0:
            raise ValueError("physical values must be real")
        arr = arr.real
    return to_full(grid, rfftn(arr.astype(np.float64)))


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Real physical values of full (n, n, n) coefficients; rejects a
    non-cubic array (ValueError) and, through the real-field contract
    hermitian_half, coefficients that are not a real field's
    (CorruptedFieldError)."""
    if coeffs.ndim != 3 or len(set(coeffs.shape)) != 1:
        raise ValueError(f"expected cubic (n, n, n) coefficients, got shape {coeffs.shape}")
    return irfftn(hermitian_half(coeffs))


@dataclass(frozen=True)
class ShellSpectrum:
    """Per-shell maxima of |coeffs| over equal-width |k| shells covering [0, k_max].

    values[s] is the max over modes with |k| in shell s (0 for empty shells,
    flagged in `empty`); peak_wavenumbers[s] is the |k| at which the max is
    attained (NaN for empty shells); counts[s] is the number of
    half-spectrum modes in shell s.
    """

    shell_edges: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    peak_wavenumbers: np.ndarray

    def __post_init__(self) -> None:
        if len(self.shell_edges) != len(self.values) + 1:
            raise ValueError("shell_edges must have one more entry than values")
        if np.any(np.diff(self.shell_edges) <= 0):
            raise ValueError("shell_edges must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("shell maxima must be nonnegative")

    @property
    def empty(self) -> np.ndarray:
        return self.counts == 0

    @property
    def n_shells(self) -> int:
        return len(self.values)


def shell_reduce_max(grid: Grid, magnitudes: np.ndarray, n_shells: int) -> ShellSpectrum:
    """Reduce half-spectrum magnitudes (half_shape) to per-shell maxima over
    n_shells equal-width |k| shells. The pair k, -k has one |k|, so a real
    field's half gives the full lattice's values, peaks and empty shells."""
    enforce({"n_shells": N_SHELLS_RULE}, {"n_shells": n_shells})
    if magnitudes.shape != grid.half_shape:
        raise ValueError(f"expected half-spectrum magnitudes {grid.half_shape}, "
                         f"got shape {magnitudes.shape}")
    kmax = grid.k_max
    edges = np.linspace(0.0, kmax, n_shells + 1)
    width = kmax / n_shells

    knorm = grid.k_norm.ravel()
    mag = magnitudes.ravel()
    idx = np.minimum((knorm / width).astype(np.int64), n_shells - 1)

    values = np.zeros(n_shells)
    np.maximum.at(values, idx, mag)
    counts = np.bincount(idx, minlength=n_shells)

    # |k| of each shell's peak: of the modes at the shell max, the last in
    # flat order is written last
    top = mag == values[idx]
    peaks = np.full(n_shells, np.nan)
    peaks[idx[top]] = knorm[top]
    peaks[counts == 0] = np.nan
    return ShellSpectrum(shell_edges=edges, values=values, counts=counts,
                         peak_wavenumbers=peaks)


@lru_cache(maxsize=8)
def _half_weight_table(grid: Grid, s: float, homogeneous: bool) -> np.ndarray:
    """Read-only w(k)^{2s} on half_shape, each mode of an interior kz plane
    counted twice: once for itself and once for its unstored -k.

    w = |k| when homogeneous, sqrt(1 + |k|^2) otherwise; the homogeneous
    k = 0 entry is 1 for s = 0, else 0.
    """
    k_sq = grid.k_sq
    if homogeneous:
        with np.errstate(divide="ignore", invalid="ignore"):
            table = np.where(k_sq > 0.0, k_sq**s, 0.0 if s != 0.0 else 1.0)
    else:
        table = (1.0 + k_sq) ** s
    multiplicity = np.full(grid.n_per_axis // 2 + 1, 2.0)
    multiplicity[[0, -1]] = 1.0
    table *= multiplicity
    return read_only(table)


@lru_cache(maxsize=16)
def _cutoff_mask(grid: Grid, cutoff: float) -> np.ndarray:
    """Read-only k_norm >= cutoff mask on the half spectrum."""
    return read_only(grid.k_norm >= cutoff)


def _half_components(grid: Grid, stacks: np.ndarray) -> np.ndarray:
    """stacks as (components, *half_shape); ValueError for any other layout."""
    if stacks.shape[-3:] != grid.half_shape:
        raise ValueError(f"expected a half-spectrum stack (..., {grid.half_shape}), "
                         f"got shape {stacks.shape}")
    return stacks.reshape((-1,) + grid.half_shape)


def _require_zero_mean(flat: np.ndarray) -> None:
    mean = float(np.max(np.abs(flat[:, 0, 0, 0])))
    if mean > 1e-13 * (1.0 + float(np.max(np.abs(flat)))):
        raise ValueError(
            "homogeneous norm with s < 0 is undefined for data with nonzero mean")


def weighted_l2_stack(grid: Grid, stacks: np.ndarray, s: float, homogeneous: bool,
                      cutoff: float = 0.0, factor: np.ndarray | None = None) -> float:
    """Lattice-weighted Sobolev-type norm of a half-spectrum coefficient stack.

    stacks is (..., n, n, n//2+1), the half spectrum of Hermitian data, and
    factor a half_shape array; any other layout raises ValueError. Returns
    sqrt(mode_weight * sum_components sum_{|k| >= cutoff} factor * w^{2s}
    |c|^2) over the full lattice, each interior-plane half mode standing for
    itself and -k, with w(k) = |k| when homogeneous, sqrt(1 + |k|^2)
    otherwise; factor (an exponential weight or a mode mask) defaults to 1.
    In the homogeneous case the k = 0 mode contributes its plain magnitude
    for s = 0 and nothing for s != 0; for s < 0 without a cutoff the norm is
    undefined unless every component has zero mean, so a nonzero mean raises
    ValueError.
    """
    if cutoff < 0.0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    flat = _half_components(grid, stacks)
    if homogeneous and s < 0.0 and cutoff == 0.0:
        _require_zero_mean(flat)
    table = _half_weight_table(grid, s, homogeneous)
    if factor is not None:
        table = table * factor
    mask = _cutoff_mask(grid, cutoff)
    total = 0.0
    for comp in flat:
        total += float(np.sum(table * np.abs(comp) ** 2, where=mask))
    return math.sqrt(grid.mode_weight * total)


def weighted_tail_sums(grid: Grid, stacks: np.ndarray, s: float,
                       homogeneous: bool) -> np.ndarray:
    """Squared weighted tail norms of a half-spectrum stack at every |k| level.

    The stack is (..., n, n, n//2+1), as in weighted_l2_stack. Entry m is
    mode_weight * sum_components sum_{|k| >= levels[m]} w^{2s} |c|^2 over
    the levels of grid.k_norm_levels, so its sqrt is weighted_l2_stack with
    cutoff levels[m]. Weights and the homogeneous s < 0 domain error are
    those of weighted_l2_stack; entry 0 is the untruncated norm, so the
    error applies whatever level is read.
    """
    flat = _half_components(grid, stacks)
    if homogeneous and s < 0.0:
        _require_zero_mean(flat)
    power = np.zeros(flat.shape[1:])
    for comp in flat:
        power += np.abs(comp) ** 2
    levels, mode_level = grid.k_norm_levels
    table = _half_weight_table(grid, s, homogeneous)
    per_level = np.bincount(mode_level, minlength=levels.size,
                            weights=(table * power).ravel())
    return grid.mode_weight * np.cumsum(per_level[::-1])[::-1]
