"""Divergence-free initial velocity fields on the periodic lattice.

Every generator builds the (3, n, n, n//2+1) half spectrum of its field
directly, and returns a field that is simultaneously Hermitian-symmetric,
divergence-free, mean-free and zero on the Nyquist planes (the last is what
lets the first two coexist under odd-in-k multipliers; see
operators.leray_project_stack). The full lattice appears only as the random
kind's noise draw, one component at a time.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .operators import VelocityField, leray_project_stack
from .spectral import (FINITE, POSITIVE, Grid, all_of, at_least, enforce, negated_half,
                       to_half)

DATA_KINDS = ("taylor_green", "single_mode", "random_sobolev_tail",
              "compact_spectrum")

# the range DataParams holds for every kind; data_problems has each kind's own
DATA_RULES = {"amplitude": all_of(at_least(0.0), FINITE)}


@dataclass(frozen=True)
class DataParams:
    """Generator knobs; each kind reads the subset it needs."""

    amplitude: float = 1.0
    band_lo: float = 0.5
    band_hi: float = 2.5
    mode: tuple[int, int, int] = (1, 0, 0)
    k_cut: float = 2.0
    spectral_exponent: float = 3.0

    def __post_init__(self):
        enforce(DATA_RULES, vars(self))


def _finish(grid: Grid, pairs: Iterator[tuple[np.ndarray, np.ndarray]]) -> VelocityField:
    """Shared tail on the half spectrum. pairs gives, per component, its
    coefficients at the half modes k and at their mirrors -k, as arrays
    this may overwrite. Kill Nyquist, symmetrize (c(k) + conj c(-k)) / 2,
    project, remove the mean."""
    keep = np.abs(grid.alias_integers) != grid.n_per_axis // 2
    nyquist_free = keep[:, None, None] & keep[None, :, None] & keep[:grid.half_shape[-1]]
    stack = np.empty((3,) + grid.half_shape, dtype=np.complex128)
    for j in range(3):
        at_k, at_minus_k = next(pairs)
        at_k *= nyquist_free
        at_minus_k *= nyquist_free
        at_k += np.conj(at_minus_k, out=at_minus_k)
        np.multiply(0.5, at_k, out=stack[j])
        del at_k, at_minus_k  # free this component before pairs builds the next
    stack = leray_project_stack(grid, stack)
    stack[:, 0, 0, 0] = 0.0
    return VelocityField.from_half(grid, stack)


def taylor_green(grid: Grid, params: DataParams) -> VelocityField:
    """Planar vortex array A (sin X cos Y, -cos X sin Y, 0), X = 2 pi x / L.

    Placed directly in spectral space (four exact first-harmonic modes per
    nonzero component) so zero modes are exactly zero.
    """
    n = grid.n_per_axis
    a = 0.25j * params.amplitude
    stack = np.zeros((3,) + grid.half_shape, dtype=np.complex128)
    for sx, ix in ((1, 1), (-1, n - 1)):
        for sy, iy in ((1, 1), (-1, n - 1)):
            # sin X cos Y and -cos X sin Y expanded over e^{i(sx X + sy Y)}
            stack[0, ix, iy, 0] = -a * sx
            stack[1, ix, iy, 0] = a * sy
    return VelocityField.from_half(grid, stack)


def single_mode(grid: Grid, params: DataParams) -> VelocityField:
    """A e cos(k . x) with a real polarization e orthogonal to the mode k."""
    _require_buildable("single_mode", grid, params)
    m = params.mode
    n = grid.n_per_axis
    k = np.array(m, dtype=float)
    e = np.cross([0.0, 0.0, 1.0], k)
    if np.linalg.norm(e) == 0.0:  # k along z: any horizontal direction works
        e = np.array([1.0, 0.0, 0.0])
    e /= np.linalg.norm(e)
    stack = np.zeros((3,) + grid.half_shape, dtype=np.complex128)
    for index in (tuple(c % n for c in m), tuple(-c % n for c in m)):
        if index[2] <= n // 2:  # the mode is in the half spectrum
            for j in range(3):
                stack[(j,) + index] = 0.5 * params.amplitude * e[j]
    return VelocityField.from_half(grid, stack)


def random_sobolev_tail(grid: Grid, params: DataParams, seed: int) -> VelocityField:
    """Keyed gaussian modes shaped by A |k|^{-spectral_exponent} on a band.

    The Philox generator is counter-based, so the full-lattice draw depends
    only on the seed (bit-reproducible across runs and platforms). Its
    stream holds every component's real parts, then every imaginary part;
    each component's draw is read at the half modes and their mirrors -k,
    then freed.
    """
    _require_buildable("random_sobolev_tail", grid, params)
    rng = np.random.Generator(np.random.Philox(key=seed))
    knorm = grid.k_norm
    band = (knorm >= params.band_lo) & (knorm <= params.band_hi)
    with np.errstate(divide="ignore"):
        profile = np.where(band, params.amplitude
                           * np.where(knorm > 0.0, knorm, 1.0) ** -params.spectral_exponent,
                           0.0)

    def draw() -> tuple[np.ndarray, np.ndarray]:
        values = rng.standard_normal(grid.shape)
        return np.array(to_half(values)), negated_half(values)

    def noise():
        real = [draw() for _ in range(3)]
        while real:
            yield tuple((re + 1j * im) * profile for re, im in zip(real.pop(0), draw()))

    return _finish(grid, noise())


def compact_spectrum(grid: Grid, params: DataParams) -> VelocityField:
    """Flat coefficient amplitude A on band_lo <= |k| <= k_cut, deterministic."""
    _require_buildable("compact_spectrum", grid, params)
    band = (grid.k_norm >= params.band_lo) & (grid.k_norm <= params.k_cut)
    values = np.where(band, params.amplitude + 0.0j, 0.0j)
    # even in k: the mirror -k of each mode holds the same value
    return _finish(grid, ((values.copy(), values.copy()) for _ in range(3)))


def data_problems(kind: str, grid: Grid, params: DataParams) -> list[tuple[str, str]]:
    """Why kind's data cannot be built on grid from params: one (DataParams
    field, problem) pair per broken rule, [] when it can. Only the fields
    kind reads are checked, and no grid table is built."""
    problems = []
    if kind == "single_mode":
        m = params.mode
        if all(c == 0 for c in m):
            problems.append(("mode", "must not be the zero mode"))
        limit = grid.n_per_axis // 2 - 1  # the data is zero on the Nyquist planes
        if any(abs(c) > limit for c in m):
            problems.append(("mode", f"components must satisfy |m| <= {limit} "
                                     f"(below the Nyquist index), got {m}"))
    elif kind in ("random_sobolev_tail", "compact_spectrum"):
        hi_name = "band_hi" if kind == "random_sobolev_tail" else "k_cut"
        lo, hi = params.band_lo, getattr(params, hi_name)
        if problem := POSITIVE(lo):
            problems.append(("band_lo", problem))
        if not (hi > lo):
            problems.append((hi_name, f"must exceed band_lo, got [{lo}, {hi}]"))
        if hi > grid.k_max:
            problems.append((hi_name, f"{hi} exceeds the grid's largest wavenumber "
                                      f"{grid.k_max:.6g}"))
    return problems


def _require_buildable(kind: str, grid: Grid, params: DataParams) -> None:
    """Raise the first of data_problems as a ValueError naming its field."""
    for name, problem in data_problems(kind, grid, params):
        raise ValueError(f"{name}: {problem}")


def make_initial_data(kind: str, grid: Grid, params: DataParams,
                      seed: int = 0) -> VelocityField:
    """Dispatch on kind; every output is divergence-free and mean-free.
    Raises the first of data_problems as a ValueError."""
    if kind == "taylor_green":
        return taylor_green(grid, params)
    if kind == "single_mode":
        return single_mode(grid, params)
    if kind == "random_sobolev_tail":
        return random_sobolev_tail(grid, params, seed)
    if kind == "compact_spectrum":
        return compact_spectrum(grid, params)
    raise ValueError(f"unknown initial data kind {kind!r}; "
                     f"expected one of {', '.join(DATA_KINDS)}")
