"""Independent oracles for the test suite.

Everything here is written against raw numpy only (np.fft, direct index
arithmetic), deliberately NOT reusing package code paths, so agreement between
package and oracle is meaningful. oracle_q_batch alone calls scipy.fft, the
package's transform library, because it is compared bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.fft


def oracle_wavenumbers(n: int, period: float) -> np.ndarray:
    """Signed wavenumbers (2*pi/period) * m, m in [-n/2, n/2), FFT order."""
    m = np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])
    return (2.0 * math.pi / period) * m.astype(float)


def oracle_k_vectors(n: int, period: float):
    k1 = oracle_wavenumbers(n, period)
    return np.meshgrid(k1, k1, k1, indexing="ij")


def oracle_k_sq(n: int, period: float) -> np.ndarray:
    """|k|^2 on the whole (n, n, n) lattice."""
    kx, ky, kz = oracle_k_vectors(n, period)
    return kx**2 + ky**2 + kz**2


def oracle_k_norm(n: int, period: float) -> np.ndarray:
    """|k| on the whole (n, n, n) lattice."""
    return np.sqrt(oracle_k_sq(n, period))


def oracle_forward(values: np.ndarray) -> np.ndarray:
    """fftn / n^3, the package coefficient convention, via np.fft directly."""
    n = values.shape[0]
    return np.fft.fftn(values) / n**3


def oracle_inverse(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.shape[0]
    return np.real(np.fft.ifftn(coeffs) * n**3)


def oracle_dealias_mask(n: int, fraction: float = 2.0 / 3.0) -> np.ndarray:
    m = np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])
    keep = np.abs(m) <= fraction * n / 2.0
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]


def oracle_negated(coeffs: np.ndarray) -> np.ndarray:
    """c(-k): the alias index -m mod n on each of the trailing three axes."""
    n = coeffs.shape[-1]
    idx = (-np.arange(n)) % n
    return coeffs[..., idx, :, :][..., :, idx, :][..., :, :, idx]


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """(c(k) + conj c(-k)) / 2: the projection onto real fields' coefficients."""
    return 0.5 * (coeffs + np.conj(oracle_negated(coeffs)))


def oracle_hermitian_deviation(coeffs: np.ndarray) -> float:
    """max |c(k) - conj c(-k)| by direct index arithmetic."""
    return float(np.max(np.abs(coeffs - np.conj(oracle_negated(coeffs)))))


def oracle_leray(coeffs3: np.ndarray, n: int, period: float) -> np.ndarray:
    """Projection c_j - k_j (k.c)/|k|^2 computed with explicit loops over axes."""
    kx, ky, kz = oracle_k_vectors(n, period)
    ksq = kx**2 + ky**2 + kz**2
    dot = kx * coeffs3[0] + ky * coeffs3[1] + kz * coeffs3[2]
    out = coeffs3.copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(ksq > 0, dot / ksq, 0.0)
    out[0] = coeffs3[0] - kx * frac
    out[1] = coeffs3[1] - ky * frac
    out[2] = coeffs3[2] - kz * frac
    return out


def oracle_ns_nonlinearity(coeffs3: np.ndarray, n: int, period: float,
                           fraction: float = 2.0 / 3.0) -> np.ndarray:
    """-P div(u x u) via direct pseudo-spectral evaluation (the NS oracle).

    Physical products of the three velocity components, forward transform,
    dealias, i k_a contraction, Leray projection, sign flip.
    """
    phys = np.array([oracle_inverse(coeffs3[j]) for j in range(3)])
    kx, ky, kz = oracle_k_vectors(n, period)
    kvec = (kx, ky, kz)
    mask = oracle_dealias_mask(n, fraction)
    div = np.zeros((3, n, n, n), dtype=complex)
    for j in range(3):
        for a in range(3):
            prod_hat = oracle_forward(phys[a] * phys[j]) * mask
            div[j] += 1j * kvec[a] * prod_hat
    return oracle_leray(-div, n, period)


def oracle_multiplier(alpha: np.ndarray, n: int, period: float) -> np.ndarray:
    """M[j, a, b](k) = sum_{m,p,q} alpha[j,m,p,q,a,b] k_m k_p k_q / |k|^2 on the
    whole lattice, shaped (3, 3, 3, n, n, n); 0 at k = 0."""
    kvec = np.array(oracle_k_vectors(n, period))
    ksq = np.sum(kvec**2, axis=0)
    cubic = np.einsum("jmpqab,m...,p...,q...->jab...", alpha, kvec, kvec, kvec)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(ksq > 0, cubic / ksq, 0.0)


def oracle_q_batch(W: np.ndarray, modes: np.ndarray, plane: np.ndarray,
                   partner: np.ndarray, u_phys: np.ndarray,
                   v_phys: np.ndarray | None = None) -> np.ndarray:
    """Q's kept-mode values by the batch formula: every product pair at once.

    W is the (3, n_pairs, K) pair weight table on the flat half-spectrum
    modes; pairs are (a, b) with a <= b when v_phys is None (v = u), else all
    nine. All products are transformed in one rfftn, summed as
    (W * prod_hat).sum(axis=1), multiplied by i, and then the kz = 0 and
    kz = n/2 plane modes (list positions plane, their -k at partner) are
    set to (c(k) + conj c(-k)) / 2. Returns the (3, K) values.
    """
    v = u_phys if v_phys is None else v_phys
    pairs = ([(a, b) for a in range(3) for b in range(a, 3)] if v_phys is None
             else [(a, b) for a in range(3) for b in range(3)])
    products = np.stack([u_phys[a] * v[b] for a, b in pairs])
    prod_hat = scipy.fft.rfftn(products, axes=(-3, -2, -1), norm="forward")
    prod_hat = prod_hat.reshape(len(pairs), -1)[:, modes]
    acc = 1j * (W * prod_hat).sum(axis=1)
    acc[:, plane] = 0.5 * (acc[:, plane] + np.conj(acc[:, partner]))
    return acc


def peak_allocation(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak of that call in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def write_raw_field(path: Path, grid, stack: np.ndarray) -> Path:
    """Write a (3, n, n, n) coefficient stack as gns-field-v1 bytes, as given.

    The layout (docs/formats.md) is packed here with struct and numpy, so a
    test can put on disk a field the package would refuse to build.
    """
    header = struct.pack("<4sIIIdd", b"GSF1", 1, grid.n_per_axis, 3,
                         grid.period, grid.dealias_fraction)
    Path(path).write_bytes(header + np.asarray(stack, dtype="<c16").tobytes(order="C"))
    return Path(path)


def manifest_comparison_key(manifest: dict) -> dict:
    """Manifest with the wall-clock entry removed (for determinism checks)."""
    out = dict(manifest)
    out.pop("wall_clock_utc", None)
    return out


def repoint_digest(directory: Path, name: str) -> None:
    """Make a trajectory manifest's sha256 of file name match the file as it is now."""
    manifest_path = Path(directory) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    digest = hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
    for entry in manifest["files"]:
        if entry["name"] == name:
            entry["sha256"] = digest
    manifest_path.write_text(json.dumps(manifest))


def shift_increment(directory: Path, index: tuple[int, int, int], shift: complex) -> None:
    """Add shift to one value of a trajectory's increments.gsi (20-byte header,
    then (T, 3, band) complex128 values; docs/formats.md) and re-point the
    manifest's digest."""
    path = Path(directory) / "increments.gsi"
    data = path.read_bytes()
    _, _, _, count, size = struct.unpack_from("<4sIIII", data)
    values = np.frombuffer(data, dtype="<c16", offset=20).reshape(count, 3, size).copy()
    values[index] += shift
    path.write_bytes(data[:20] + values.tobytes())
    repoint_digest(directory, "increments.gsi")


def oracle_parseval(values: np.ndarray, coeffs: np.ndarray) -> tuple[float, float]:
    """Return (mean |f|^2, sum |coeffs|^2); equal by Parseval."""
    return float(np.mean(values.astype(float) ** 2)), float(np.sum(np.abs(coeffs) ** 2))


def oracle_weighted_tail_sum(coeffs: np.ndarray, n: int, period: float, s: float,
                             homogeneous: bool, cutoff: float) -> float:
    """Brute-force loop over every mode for the weighted coefficient l2 reduction."""
    kx, ky, kz = oracle_k_vectors(n, period)
    knorm = np.sqrt(kx**2 + ky**2 + kz**2)
    total = 0.0
    flat_k = knorm.ravel()
    flat_c = coeffs.ravel()
    for km, cm in zip(flat_k, flat_c):
        if km < cutoff:
            continue
        if homogeneous:
            if km == 0.0:
                w2s = 1.0 if s == 0.0 else 0.0
            else:
                w2s = km ** (2.0 * s)
        else:
            w2s = (1.0 + km**2) ** s
        total += w2s * abs(cm) ** 2
    return math.sqrt(total)


def oracle_eta(states: list[np.ndarray], n: int, period: float, J: float,
               gamma: float, weight: float) -> float:
    """Brute-force running max of the weighted homogeneous tail norm.

    states are (3, n, n, n) coefficient stacks at successive times up to t;
    weight is the lattice mode weight to apply inside the sqrt.
    """
    kx, ky, kz = oracle_k_vectors(n, period)
    knorm = np.sqrt(kx**2 + ky**2 + kz**2)
    tail = knorm >= 0.01 * J
    best = 0.0
    for st in states:
        total = 0.0
        for j in range(3):
            mags = np.abs(st[j]) ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(knorm > 0, knorm ** (2.0 * gamma), 0.0)
            total += float(np.sum(w[tail] * mags[tail]))
        best = max(best, math.sqrt(weight * total))
    return best


def taylor_green_3d(grid_coords, amplitude: float = 1.0) -> np.ndarray:
    """Three-dimensional vortex with genuinely nonlinear dynamics.

    u = A (sin x cos y cos z, -cos x sin y cos z, 0) in grid coordinates;
    divergence-free, energy on the |alias| = sqrt(3) shell, Q(u, u) != 0.
    """
    x, y, z = grid_coords
    u = np.empty((3,) + x.shape)
    u[0] = amplitude * np.sin(x) * np.cos(y) * np.cos(z)
    u[1] = -amplitude * np.cos(x) * np.sin(y) * np.cos(z)
    u[2] = 0.0
    return u


def grid_coordinates(n: int, period: float):
    """Grid coordinates scaled to [0, 2*pi) regardless of the physical period."""
    t = np.arange(n) * (2.0 * math.pi / n)
    return np.meshgrid(t, t, t, indexing="ij")
