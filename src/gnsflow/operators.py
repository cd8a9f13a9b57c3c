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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# fftn and ifftn are no longer called here; they stay importable under
# these names because the benchmark's trace hooks rebind them.
from .spectral import (  # noqa: F401
    Grid,
    SpectralField,
    fftn,
    hermitian_deviation,
    hermitian_half,
    ifftn,
    irfftn,
    rfftn,
    to_full,
    to_half,
)

__all__ = [
    "QCoefficients",
    "VelocityField",
    "q_symbol",
    "apply_Q",
    "navier_stokes_coeffs",
    "leray_project",
    "heat_semigroup",
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
    _multipliers: dict = field(default_factory=dict, repr=False, compare=False)
    _pair_weights: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.shape != (3, 3, 3, 3, 3, 3):
            raise ValueError(f"alpha must have shape (3,)*6, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("alpha entries must be finite")
        object.__setattr__(self, "alpha", a)

    def multiplier(self, grid: Grid) -> np.ndarray:
        """Cached combined Fourier multiplier M[j, k, l](xi) = sum_m xi_m q^{j,m}_{k,l}(xi).

        apply_Q contracts i * M against the dealiased product transforms, so a
        single (3, 3, 3, n, n, n) real array captures symbol and divergence.
        """
        key = (grid.n_per_axis, grid.period)
        cached = self._multipliers.get(key)
        if cached is None:
            cached = _build_multiplier(grid, self.alpha)
            if len(self._multipliers) >= 4:
                self._multipliers.pop(next(iter(self._multipliers)))
            self._multipliers[key] = cached
        return cached

    def pair_weights(self, grid: Grid, same: bool) -> np.ndarray:
        """Cached (3, n_pairs, n_kept) symmetrized multiplier per product pair.

        W = (M(k) - M(-k)) / 2 on the kept half-spectrum modes (the last axis
        follows grid.half_dealias_modes), with M(-k) read at the storage
        index of -k: M is odd in k, so W = M except on Nyquist planes, whose
        alias -n/2 is its own negative. Pairs run over _SAME_PAIRS when same
        (off-diagonal weight W[j, a, b] + W[j, b, a]), else over _ALL_PAIRS.
        """
        key = (grid, same)
        cached = self._pair_weights.get(key)
        if cached is None:
            kept = grid.half_dealias_modes[1]
            M = self.multiplier(grid).reshape((3, 3, 3, -1))
            W = 0.5 * (M[..., kept] - M[..., grid.negated_modes[kept]])
            cached = np.stack([
                np.stack([W[j, a, b] + W[j, b, a] if same and a != b else W[j, a, b]
                          for a, b in (_SAME_PAIRS if same else _ALL_PAIRS)])
                for j in range(3)])
            cached.setflags(write=False)
            if len(self._pair_weights) >= 4:
                self._pair_weights.pop(next(iter(self._pair_weights)))
            self._pair_weights[key] = cached
        return cached


def _build_multiplier(grid: Grid, alpha: np.ndarray) -> np.ndarray:
    kx, ky, kz = grid.k_components
    comps = (kx, ky, kz)
    inv_ksq = grid.inv_k_sq
    monomials: dict[tuple[int, int, int], np.ndarray] = {}

    def monomial(m: int, n: int, p: int) -> np.ndarray:
        key = tuple(sorted((m, n, p)))
        arr = monomials.get(key)
        if arr is None:
            arr = (comps[key[0]] * comps[key[1]] * comps[key[2]]).astype(np.float64)
            monomials[key] = arr
        return arr

    M = np.zeros((3, 3, 3) + grid.shape)
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
    """Three spectral components on a shared grid.

    A field built from components holds them as given. A trajectory state,
    Q's output and a checked field read from disk are transient views of a
    half spectrum (from_half): their full components are made on first use,
    and the norms read the half directly.
    """

    def __init__(self, components) -> None:
        components = tuple(components)
        if len(components) != 3:
            raise ValueError("a velocity field needs exactly 3 components")
        g = components[0].grid
        if any(c.grid != g for c in components[1:]):
            raise ValueError("velocity components must share one grid")
        self._grid = g
        self._components: tuple[SpectralField, ...] | None = components
        self._half: np.ndarray | None = None

    @classmethod
    def from_half(cls, grid: Grid, half: np.ndarray) -> "VelocityField":
        """The real field of a (3, n, n, n//2+1) half spectrum, without copying it."""
        if half.shape != (3,) + grid.half_shape:
            raise ValueError(f"half stack shape {half.shape} does not match grid")
        field_ = cls.__new__(cls)
        field_._grid = grid
        field_._components = None
        field_._half = half
        return field_

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def components(self) -> tuple[SpectralField, SpectralField, SpectralField]:
        if self._components is None:
            full = to_full(self._grid, self._half)
            self._components = tuple(SpectralField(self._grid, full[j]) for j in range(3))
        return self._components

    def half_spectrum(self) -> np.ndarray:
        """The (3, n, n, n//2+1) half spectrum of this field, which must be real.

        A view's own half; otherwise spectral.hermitian_half of the
        components, which raises CorruptedFieldError beyond
        HERMITIAN_REJECT_TOL.
        """
        if self._half is None:
            return hermitian_half(stack_coefficients(self))
        return self._half

    def l2_coefficient_norm(self) -> float:
        return math.sqrt(sum(float(np.sum(np.abs(c.coeffs) ** 2))
                             for c in self.components))

    def divergence_deviation(self) -> float:
        """max_k |k . u_hat(k)| / |k|, relative to the coefficient l2 norm."""
        grid = self.grid
        kx, ky, kz = grid.k_components
        comps = self.components
        div = kx * comps[0].coeffs + ky * comps[1].coeffs + kz * comps[2].coeffs
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = np.where(grid.k_norm > 0.0, np.abs(div) / grid.k_norm, 0.0)
        norm = self.l2_coefficient_norm()
        if norm == 0.0:
            return 0.0
        return float(np.max(scaled)) / norm

    def hermitian_deviation(self) -> float:
        return max(hermitian_deviation(c.coeffs) for c in self.components)


def velocity_from_stack(grid: Grid, stack: np.ndarray) -> VelocityField:
    """Wrap a (3, n, n, n) coefficient array without copying."""
    if stack.shape != (3,) + grid.shape:
        raise ValueError(f"stack shape {stack.shape} does not match grid")
    return VelocityField(tuple(SpectralField(grid, stack[j]) for j in range(3)))


def stack_coefficients(u: VelocityField) -> np.ndarray:
    """The full (3, n, n, n) coefficient stack of u, as a new array."""
    if u._components is None:
        return to_full(u.grid, u._half)
    return np.stack([c.coeffs for c in u.components])


def apply_Q_stack(coeffs: QCoefficients, grid: Grid, u_stack: np.ndarray,
                  v_stack: np.ndarray | None = None) -> np.ndarray:
    """Q(u, v) on half-spectrum (3, n, n, n//2+1) coefficient stacks (solver hot path).

    Every field is held by the half spectrum of a real field (the rfftn
    layout). result_j = i * sum_{a,b} W[j,a,b] * dealias(rfftn(u_a v_b))
    with the symmetrized multiplier of QCoefficients.pair_weights; the kz = 0
    and kz = n/2 planes, which hold both k and -k, are then set to
    (c(k) + conj c(-k)) / 2, so the full spectrum of the output is exactly
    Hermitian.
    """
    same = v_stack is None or v_stack is u_stack
    modes, _, plane, partner = grid.half_dealias_modes
    weights = coeffs.pair_weights(grid, same)
    pairs = _SAME_PAIRS if same else _ALL_PAIRS

    u_phys = irfftn(u_stack)
    v_phys = u_phys if same else irfftn(v_stack)
    products = np.empty((len(pairs),) + grid.shape)
    for p, (a, b) in enumerate(pairs):
        np.multiply(u_phys[a], v_phys[b], out=products[p])
    # only the kept modes are accumulated; the dealiased ones stay exactly 0
    prod_hat = rfftn(products).reshape(len(pairs), -1).take(modes, axis=1)

    acc = (weights * prod_hat).sum(axis=1)
    acc *= 1j
    # c(k) <- (c(k) + conj c(-k)) / 2 on the self-paired planes
    sym = np.conj(acc.take(partner, axis=1))
    sym += acc.take(plane, axis=1)
    sym *= 0.5
    acc[:, plane] = sym
    out = np.zeros((3, math.prod(grid.half_shape)), dtype=np.complex128)
    for j in range(3):
        out[j][modes] = acc[j]
    return out.reshape((3,) + grid.half_shape)


def apply_Q(coeffs: QCoefficients, u: VelocityField, v: VelocityField) -> VelocityField:
    """Bilinear nonlinearity Q(u, v) evaluated pseudo-spectrally.

    u and v must be real fields (VelocityField.half_spectrum); the result is
    a view of Q's half spectrum.
    """
    if u.grid != v.grid:
        raise ValueError("apply_Q operands must share one grid")
    u_stack = u.half_spectrum()
    v_stack = None if v is u else v.half_spectrum()
    return VelocityField.from_half(u.grid, apply_Q_stack(coeffs, u.grid, u_stack, v_stack))


def leray_project_stack(grid: Grid, stack: np.ndarray) -> np.ndarray:
    """c_j - k_j (k . c) / |k|^2 on a (3, n, n, n) stack; k = 0 untouched.

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
    """Project onto divergence-free fields (idempotent, self-adjoint)."""
    return velocity_from_stack(u.grid, leray_project_stack(u.grid, stack_coefficients(u)))


def heat_factor(grid: Grid, t: float, half: bool = False) -> np.ndarray:
    """exp(-t |k|^2) on the full lattice, or on the half spectrum when half."""
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"heat semigroup time must be finite and >= 0, got {t}")
    return np.exp(-t * (to_half(grid.k_sq) if half else grid.k_sq))


def heat_semigroup(u: VelocityField, t: float) -> VelocityField:
    """Multiply each mode by exp(-t |k|^2) (unit viscosity)."""
    factor = heat_factor(u.grid, t)
    return VelocityField(tuple(SpectralField(u.grid, c.coeffs * factor)
                               for c in u.components))


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
