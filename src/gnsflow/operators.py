"""Divergence-form bilinear operator, Leray projection, heat semigroup.

The nonlinearity is Q^j(u, v) = sum_{k,l,m} q^{j,m}_{k,l}(D) d_m (u^k v^l)
with zero-order symbols q^{j,m}_{k,l}(xi) = sum_{n,p} alpha[j,m,n,p,k,l]
xi_n xi_p / |xi|^2 built from a real rank-6 coefficient tensor (q(0) = 0).
Products are formed pseudo-spectrally with 2/3-rule dealiasing, on the half
spectrum of real fields (see apply_Q_stack).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

# fftn and ifftn are no longer called here; they stay importable under
# these names because the benchmark's trace hooks rebind them.
from .spectral import (  # noqa: F401
    Grid,
    _half_weight_table,
    fftn,
    hermitian_half,
    ifftn,
    irfftn,
    negated_axis,
    read_only,
    rfftn,
    to_full,
)

__all__ = [
    "QCoefficients",
    "VelocityField",
    "q_symbol",
    "apply_Q",
    "navier_stokes_coeffs",
    "leray_project",
    "heat_semigroup",
    "band_modes",
    "scatter_band",
    "velocity_from_stack",
    "stack_coefficients",
    "write_q_coefficients",
    "read_q_coefficients",
]

ALPHA_INDEX_ORDER = ("j", "m", "n", "p", "k", "l")

# product component pairs (a, b) in apply_Q_stack: u_a u_b = u_b u_a halves
# the self-interaction to 6 pairs
_SAME_PAIRS = tuple((a, b) for a in range(3) for b in range(a, 3))
_ALL_PAIRS = tuple((a, b) for a in range(3) for b in range(3))


@dataclass(frozen=True)
class QCoefficients:
    """Real coefficient tensor alpha with index order (j, m, n, p, k, l).

    j: output component, m: derivative direction, (n, p): symbol numerator
    indices, (k, l): input component pair. 3^6 = 729 real entries.
    """

    alpha: np.ndarray = field(repr=False)
    _pair_weights: dict = field(default_factory=dict, repr=False, compare=False)
    # the runner's march and ETD oracle share this cache from two threads
    _pair_weights_lock: threading.Lock = field(default_factory=threading.Lock,
                                               repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.shape != (3, 3, 3, 3, 3, 3):
            raise ValueError(f"alpha must have shape (3,)*6, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("alpha entries must be finite")
        object.__setattr__(self, "alpha", a)

    def pair_weights(self, grid: Grid, same: bool) -> np.ndarray:
        """Cached (3, n_pairs, n_kept) symmetrized multiplier per product pair.

        W = (M(k) - M(-k)) / 2 on the kept half-spectrum modes (the last axis
        follows grid.half_dealias_modes), with M(-k) read at the storage
        index (-i) % n of -k on each axis: M is odd in k, so W = M except on
        Nyquist planes, whose alias -n/2 is its own negative. Pairs run over
        _SAME_PAIRS when same (off-diagonal weight W[j, a, b] + W[j, b, a]),
        else over _ALL_PAIRS.
        """
        key = (grid, same)
        with self._pair_weights_lock:
            cached = self._pair_weights.get(key)
            if cached is None:
                kept = np.unravel_index(grid.half_dealias_modes[0], grid.half_shape)
                neg = negated_axis(grid.n_per_axis)
                W = 0.5 * (_multiplier_at(grid, self.alpha, kept)
                           - _multiplier_at(grid, self.alpha, tuple(neg[i] for i in kept)))
                cached = np.stack([
                    np.stack([W[j, a, b] + W[j, b, a] if same and a != b else W[j, a, b]
                              for a, b in (_SAME_PAIRS if same else _ALL_PAIRS)])
                    for j in range(3)])
                cached.setflags(write=False)
                if len(self._pair_weights) >= 4:
                    self._pair_weights.pop(next(iter(self._pair_weights)))
                self._pair_weights[key] = cached
        return cached


def _multiplier_at(grid: Grid, alpha: np.ndarray,
                   index: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Combined Fourier multiplier M[j, k, l](xi) = sum_m xi_m q^{j,m}_{k,l}(xi),
    symbol and divergence in one, at the full-lattice modes whose storage
    indices per axis are index, shaped (3, 3, 3, len); M(0) = 0. 1/|k|^2 is
    Grid.inv_k_sq's arithmetic, on the components of each mode."""
    k = grid.wavenumbers
    comps = tuple(k[i] for i in index)
    k_sq = comps[0]**2 + comps[1]**2 + comps[2]**2
    with np.errstate(divide="ignore"):
        inv_ksq = np.where(k_sq > 0.0, 1.0 / k_sq, 0.0)
    monomials: dict[tuple[int, int, int], np.ndarray] = {}

    def monomial(m: int, n: int, p: int) -> np.ndarray:
        key = tuple(sorted((m, n, p)))
        arr = monomials.get(key)
        if arr is None:
            arr = comps[key[0]] * comps[key[1]] * comps[key[2]]
            monomials[key] = arr
        return arr

    M = np.zeros((3, 3, 3, k_sq.size))
    for j in range(3):
        for a in range(3):
            for b in range(3):
                acc = None
                block = alpha[j, :, :, :, a, b]
                for m in range(3):
                    for n in range(3):
                        for p in range(3):
                            coeff = block[m, n, p]
                            if coeff == 0.0:
                                continue
                            term = coeff * monomial(m, n, p)
                            acc = term if acc is None else acc + term
                if acc is not None:
                    M[j, a, b] = acc * inv_ksq
    return M


def q_symbol(coeffs: QCoefficients, k: np.ndarray, j: int, m: int,
             k_idx: int, l: int) -> float:
    """Evaluate q^{j,m}_{k_idx,l}(k) = sum_{n,p} alpha[j,m,n,p,k_idx,l] k_n k_p / |k|^2.

    Component indices are 0-based. Returns 0 at k = 0 by convention.
    """
    for name, idx in (("j", j), ("m", m), ("k_idx", k_idx), ("l", l)):
        if idx not in (0, 1, 2):
            raise ValueError(f"{name} must be 0, 1 or 2, got {idx}")
    kv = np.asarray(k, dtype=np.float64)
    if kv.shape != (3,):
        raise ValueError(f"k must be a 3-vector, got shape {kv.shape}")
    ksq = float(kv @ kv)
    if ksq == 0.0:
        return 0.0
    block = coeffs.alpha[j, m, :, :, k_idx, l]
    return float(kv @ block @ kv) / ksq


def navier_stokes_coeffs() -> QCoefficients:
    """Coefficients specializing Q(u, v) to -P div(u x v) (Navier-Stokes form).

    alpha[j,m,n,p,k,l] = delta_{mk} (delta_{nj} delta_{pl} - delta_{jl} delta_{np})
    gives q^{j,m}_{k,l}(xi) = delta_{mk} (xi_j xi_l / |xi|^2 - delta_{jl}).
    """
    eye = np.eye(3)
    alpha = (np.einsum("mk,nj,pl->jmnpkl", eye, eye, eye)
             - np.einsum("mk,jl,np->jmnpkl", eye, eye, eye))
    return QCoefficients(alpha)


class VelocityField:
    """A real velocity field, held by its (3, n, n, n//2+1) half spectrum.

    velocity_from_stack builds one from a full (3, n, n, n) stack, such as
    outside data or initial_data's fields, and holds it to the real-field
    contract, spectral.hermitian_half; from_half wraps a half spectrum
    unchecked. stack_coefficients is the one way back to the full lattice.
    """

    @classmethod
    def from_half(cls, grid: Grid, half: np.ndarray) -> "VelocityField":
        """The real field of a (3, n, n, n//2+1) half spectrum, without copying
        a C-order array; any other order is copied to C order, which the
        solver's writes through flat views need."""
        if half.shape != (3,) + grid.half_shape:
            raise ValueError(f"half stack shape {half.shape} does not match grid")
        field_ = cls.__new__(cls)
        field_._grid = grid
        field_._half = np.ascontiguousarray(half)
        return field_

    @property
    def grid(self) -> Grid:
        return self._grid

    def half_spectrum(self) -> np.ndarray:
        """The (3, n, n, n//2+1) half spectrum of this field."""
        return self._half

    def l2_coefficient_norm(self) -> float:
        """sqrt(sum_k |u_hat(k)|^2), off the kz = 0 and kz = n/2 planes each
        half mode counting for itself and -k."""
        return math.sqrt(float(np.sum(_half_weight_table(self._grid, 0.0, False)
                                      * np.abs(self._half) ** 2)))

    def divergence_deviation(self) -> float:
        """max_k |k . u_hat(k)| / |k|, relative to the coefficient l2 norm."""
        grid = self.grid
        kx, ky, kz = grid.k_components
        half = self._half
        div = kx * half[0] + ky * half[1] + kz * half[2]
        knorm = grid.k_norm
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = np.where(knorm > 0.0, np.abs(div) / knorm, 0.0)
        norm = self.l2_coefficient_norm()
        if norm == 0.0:
            return 0.0
        return float(np.max(scaled)) / norm


def velocity_from_stack(grid: Grid, stack: np.ndarray) -> VelocityField:
    """The real field of a (3, n, n, n) coefficient stack (spectral.hermitian_half)."""
    if stack.shape != (3,) + grid.shape:
        raise ValueError(f"stack shape {stack.shape} does not match grid")
    return VelocityField.from_half(grid, hermitian_half(stack))


def stack_coefficients(u: VelocityField) -> np.ndarray:
    """The full (3, n, n, n) coefficient stack of u, as a new array."""
    return to_full(u.grid, u.half_spectrum())


@lru_cache(maxsize=8)
def band_modes(grid: Grid, kind: str) -> np.ndarray:
    """Read-only flat half-spectrum index of a band kind.

    "kept": the 2/3-rule kept modes (Grid.half_dealias_modes), where Q's
    output and a solver's increments live; "all": every half-spectrum mode.
    """
    if kind == "kept":
        return grid.half_dealias_modes[0]
    if kind != "all":
        raise ValueError(f"band kind must be 'kept' or 'all', got {kind!r}")
    return read_only(np.arange(math.prod(grid.half_shape)))


@lru_cache(maxsize=8)
def _stack_index(grid: Grid, kind: str) -> np.ndarray:
    """Read-only flat index of the band's modes in all three components of a
    (3, n, n, n//2+1) stack, component by component (one flat take or
    scatter is much faster than a 2-D fancy index)."""
    size = math.prod(grid.half_shape)
    return read_only((band_modes(grid, kind) + size * np.arange(3)[:, None]).ravel())


def scatter_band(grid: Grid, kind: str, row: np.ndarray,
                 onto: np.ndarray | None = None) -> np.ndarray:
    """A (3, len(band)) row on band_modes(grid, kind) as a half stack.

    With onto None the row is scattered into zeros, so the band holds the
    row bit for bit and every other mode is 0. Otherwise the row is added
    to onto, a C-order (3, n, n, n//2+1) stack, in place, and onto is
    returned: its modes off the band are left as they are.
    """
    index = _stack_index(grid, kind)
    if onto is None:
        onto = np.zeros((3,) + grid.half_shape, dtype=np.complex128)
        onto.reshape(-1)[index] = row.reshape(-1)
    else:
        onto.reshape(-1)[index] += row.reshape(-1)
    return onto


def apply_Q_stack(coeffs: QCoefficients, grid: Grid, u_phys: np.ndarray,
                  v_phys: np.ndarray | None = None) -> np.ndarray:
    """Q(u, v) on the kept modes, from the physical values of real fields
    (solver hot path).

    u_phys and v_phys are (3, n, n, n) real arrays, the irfftn of the
    fields' half spectra; each caller makes its own inverse transform, so a
    caller that interpolates fields linearly can interpolate their physical
    values instead. The result is the (3, K) array of
    result_j = i * sum_{a,b} W[j,a,b] * rfftn(u_a v_b) on the K kept modes
    grid.half_dealias_modes[0], with the symmetrized multiplier of
    QCoefficients.pair_weights; the dealiased modes are exactly 0, so
    scatter_band(grid, "kept", result) is Q's half spectrum. The kz = 0 and
    kz = n/2 planes, which hold both k and -k, are then set to
    (c(k) + conj c(-k)) / 2, so the full spectrum of the output is exactly
    Hermitian.

    One product pair is formed, transformed and gathered at a time, and the
    terms are added in pair order, as a sum over a pair axis would add them:
    the work arrays are one product and its transform, not a batch of them.
    """
    same = v_phys is None or v_phys is u_phys
    modes, plane, partner = grid.half_dealias_modes
    weights = coeffs.pair_weights(grid, same)
    pairs = _SAME_PAIRS if same else _ALL_PAIRS

    if same:
        v_phys = u_phys
    product = np.empty(grid.shape)
    acc = None
    for p, (a, b) in enumerate(pairs):
        np.multiply(u_phys[a], v_phys[b], out=product)
        term = weights[:, p] * rfftn(product).reshape(-1).take(modes)
        if acc is None:
            acc = term
        else:
            acc += term
    acc *= 1j
    # c(k) <- (c(k) + conj c(-k)) / 2 on the self-paired planes
    sym = np.conj(acc.take(partner, axis=1))
    sym += acc.take(plane, axis=1)
    sym *= 0.5
    acc[:, plane] = sym
    return acc


def apply_Q(coeffs: QCoefficients, u: VelocityField, v: VelocityField) -> VelocityField:
    """Bilinear nonlinearity Q(u, v) evaluated pseudo-spectrally, as a view
    of Q's half spectrum."""
    if u.grid != v.grid:
        raise ValueError("apply_Q operands must share one grid")
    u_phys = irfftn(u.half_spectrum())
    v_phys = None if v is u else irfftn(v.half_spectrum())
    return VelocityField.from_half(
        u.grid, scatter_band(u.grid, "kept", apply_Q_stack(coeffs, u.grid, u_phys, v_phys)))


def leray_project_stack(grid: Grid, stack: np.ndarray) -> np.ndarray:
    """c_j - k_j (k . c) / |k|^2 on a (3, n, n, n//2+1) half-spectrum stack,
    as a new array; k = 0 untouched.

    Odd-in-k multiplier: on the self-paired Nyquist planes (axis index
    n // 2) conjugate symmetry is not preserved, so callers keep their
    data band-limited below Nyquist (any dealias_fraction < 1 does).
    """
    kx, ky, kz = grid.k_components
    frac = (kx * stack[0] + ky * stack[1] + kz * stack[2]) * grid.inv_k_sq
    out = np.empty_like(stack)
    out[0] = stack[0] - kx * frac
    out[1] = stack[1] - ky * frac
    out[2] = stack[2] - kz * frac
    return out


def leray_project(u: VelocityField) -> VelocityField:
    """Project onto divergence-free fields (idempotent, self-adjoint); the
    result, built by velocity_from_stack, must be real (no Nyquist content)."""
    grid = u.grid
    return velocity_from_stack(grid, to_full(grid, leray_project_stack(grid, u.half_spectrum())))


def heat_factor(grid: Grid, t: float) -> np.ndarray:
    """exp(-t |k|^2) on the half spectrum (half_shape)."""
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"heat semigroup time must be finite and >= 0, got {t}")
    return np.exp(-t * grid.k_sq)


def heat_semigroup(u: VelocityField, t: float) -> VelocityField:
    """Multiply each mode by exp(-t |k|^2) (unit viscosity)."""
    return VelocityField.from_half(u.grid, heat_factor(u.grid, t) * u.half_spectrum())


def write_q_coefficients(path: str | Path, coeffs: QCoefficients) -> None:
    """Serialize alpha as 729 reals in row-major (j, m, n, p, k, l) order."""
    payload = {
        "format": "gns-q-coefficients-v1",
        "index_order": list(ALPHA_INDEX_ORDER),
        "alpha": [float(x) for x in coeffs.alpha.ravel()],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_q_coefficients(path: str | Path) -> QCoefficients:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "gns-q-coefficients-v1":
        raise ValueError(f"unrecognized coefficient file format in {path}")
    order = payload.get("index_order")
    if order is not None and list(order) != list(ALPHA_INDEX_ORDER):
        raise ValueError(f"unsupported index order {order}; expected {list(ALPHA_INDEX_ORDER)}")
    flat = np.asarray(payload["alpha"], dtype=np.float64)
    if flat.size != 729:
        raise ValueError(f"alpha must have 729 entries, got {flat.size}")
    return QCoefficients(flat.reshape((3,) * 6))
