"""On-disk formats: field snapshots, trajectory checkpoints, report tables.

Everything written here is byte-deterministic for identical inputs: floats
are serialized with repr (shortest round-trip), JSON keys are sorted, and
the only non-reproducible manifest entry (wall_clock_utc) is isolated so
comparison tools can strip it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy

from .diagnostics import BoundReport
from .operators import VelocityField, stack_coefficients, velocity_from_stack
from .solver import Trajectory
from .spectral import (
    CorruptedFieldError,
    HERMITIAN_REJECT_TOL,
    Grid,
    build_grid,
    hermitian_deviation,
)

FIELD_MAGIC = b"GSF1"
FIELD_VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")  # magic, version, n_per_axis, n_components, period, dealias_fraction

FIELD_FORMAT = "gns-field-v1"
TRAJECTORY_FORMAT = "gns-trajectory-v1"
BOUND_REPORT_FORMAT = "gns-bound-report-v1"

_FIELD_LAYOUT = (
    "header 32 bytes: magic 'GSF1', uint32 version, uint32 n_per_axis, "
    "uint32 n_components, float64 period, float64 dealias_fraction, all "
    "little-endian; payload n_components blocks of n_per_axis^3 complex128 "
    "little-endian values in C (row-major) index order"
)


class FormatError(ValueError):
    """A file does not conform to the expected on-disk format."""


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a same-directory temp file and os.replace (no torn files)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def format_float(x: float) -> str:
    """Shortest round-trip decimal; 'inf', '-inf', 'nan' sentinels."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def json_safe_float(x: float):
    x = float(x)
    if math.isfinite(x):
        return x
    return format_float(x)


def write_field(path: Path, u: VelocityField, sidecar: bool = True) -> str:
    """Write a velocity field snapshot; returns the sha256 of the binary file.

    The optional sidecar '<name>.json' records the layout, grid parameters,
    Hermitian deviation, and the binary's sha256.
    """
    path = Path(path)
    grid = u.grid
    header = _HEADER.pack(FIELD_MAGIC, FIELD_VERSION, grid.n_per_axis, 3,
                          grid.period, grid.dealias_fraction)
    payload = stack_coefficients(u).astype("<c16", copy=False).tobytes(order="C")
    data = header + payload
    _atomic_write_bytes(path, data)
    digest = hashlib.sha256(data).hexdigest()
    if sidecar:
        meta = {
            "format": FIELD_FORMAT,
            "binary": path.name,
            "layout": _FIELD_LAYOUT,
            "n_per_axis": grid.n_per_axis,
            "n_components": 3,
            "period": grid.period,
            "dealias_fraction": grid.dealias_fraction,
            "hermitian_deviation": u.hermitian_deviation(),
            "sha256": digest,
        }
        write_text(path.with_name(path.name + ".json"), dump_json(meta))
    return digest


def read_field(path: Path, check: bool = True) -> VelocityField:
    """Read a velocity field snapshot written by write_field.

    check=True rejects content whose Hermitian deviation exceeds
    HERMITIAN_REJECT_TOL (the field could not have come from a real-valued
    velocity).
    """
    path = Path(path)
    return _parse_field(path, path.read_bytes(), check)


def _parse_field(path: Path, data: bytes, check: bool) -> VelocityField:
    """Decode the bytes of a write_field snapshot; path only labels errors."""
    grid = _field_grid(path, data)
    stack = np.empty((3,) + grid.shape, dtype=np.complex128)
    _decode_payload(path, data, stack, check)
    return velocity_from_stack(grid, stack)


def _field_grid(path: Path, data: bytes) -> Grid:
    """The grid of a write_field snapshot, after its header and size checks."""
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, n, ncomp, period, frac = _HEADER.unpack_from(data)
    if magic != FIELD_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {FIELD_MAGIC!r}")
    if version != FIELD_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if ncomp != 3:
        raise FormatError(f"{path}: expected 3 components, header says {ncomp}")
    grid = build_grid(n, period=period, dealias_fraction=frac)
    want = _HEADER.size + ncomp * n**3 * 16
    if len(data) != want:
        raise FormatError(f"{path}: payload size {len(data)} != expected {want}")
    return grid


def _decode_payload(path: Path, data: bytes, stack: np.ndarray, check: bool) -> None:
    """Copy the payload of a snapshot checked by _field_grid into stack, a
    (3, n, n, n) complex128 array of its grid."""
    stack[...] = np.frombuffer(data, dtype="<c16", offset=_HEADER.size).reshape(
        stack.shape)
    if check:
        dev = hermitian_deviation(stack)
        if dev > HERMITIAN_REJECT_TOL:
            raise CorruptedFieldError(
                f"{path}: Hermitian deviation {dev:.3e} exceeds "
                f"{HERMITIAN_REJECT_TOL:.1e}", dev)


def _versions() -> dict[str, str]:
    from . import __version__
    return {"gnsflow": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def write_trajectory(directory: Path, traj: Trajectory,
                     config_sha256: str | None = None) -> Path:
    """Write per-time snapshots plus manifest.json; returns the manifest path.

    manifest.json carries everything needed to reload and to compare runs;
    wall_clock_utc is the single non-deterministic entry.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = traj.grid
    files = []
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        name = f"state_{i:04d}.gsf"
        digest = write_field(directory / name, state, sidecar=False)
        files.append({"name": name, "time": float(t), "sha256": digest})
    manifest = {
        "format": TRAJECTORY_FORMAT,
        "grid": {"n_per_axis": grid.n_per_axis, "period": grid.period,
                 "dealias_fraction": grid.dealias_fraction},
        "times": [float(t) for t in traj.times],
        "files": files,
        "config_sha256": config_sha256,
        "versions": _versions(),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = directory / "manifest.json"
    write_text(manifest_path, dump_json(manifest))
    return manifest_path


def read_trajectory(manifest_path: Path, check: bool = True) -> Trajectory:
    """Reload a trajectory from its manifest; verifies sha256 and grid match.

    Each state file is read once: the bytes that are hashed are the bytes
    that are parsed. The states are views of one (T, 3, n, n, n) array.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != TRAJECTORY_FORMAT:
        raise FormatError(f"{manifest_path}: format {manifest.get('format')!r}, "
                          f"expected {TRAJECTORY_FORMAT!r}")
    g = manifest["grid"]
    grid = build_grid(g["n_per_axis"], period=g["period"],
                      dealias_fraction=g["dealias_fraction"])
    directory = manifest_path.parent
    files = manifest["files"]
    times = np.asarray(manifest["times"], dtype=float)
    if len(files) != times.size:
        raise FormatError(f"{manifest_path}: {len(files)} files for "
                          f"{times.size} times")
    block = np.empty((len(files), 3) + grid.shape, dtype=np.complex128)
    for entry, stack in zip(files, block):
        fpath = directory / entry["name"]
        data = fpath.read_bytes()
        if check:
            digest = hashlib.sha256(data).hexdigest()
            if digest != entry["sha256"]:
                raise FormatError(f"{fpath}: sha256 mismatch (file {digest}, "
                                  f"manifest {entry['sha256']})")
        if _field_grid(fpath, data) != grid:
            raise FormatError(f"{fpath}: grid differs from manifest grid")
        _decode_payload(fpath, data, stack, check)
    return Trajectory(times, tuple(velocity_from_stack(grid, s) for s in block))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain comma-separated table; floats via format_float, bools as true/false."""
    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return format_float(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    write_text(Path(path), "\n".join(lines) + "\n")


BOUND_REPORT_COLUMNS = ("t", "eta_or_zeta", "beta", "lambda", "predictor",
                        "measured_radius", "ratio", "capped", "r2")


def write_bound_report_csv(path: Path, report: BoundReport) -> None:
    rows = []
    for i in range(report.n_rows):
        rows.append((report.times[i], report.eta_or_zeta[i],
                     report.beta_values[i], report.lambda_values[i],
                     report.predictor[i], report.measured_radius[i],
                     report.ratio[i], bool(report.capped[i]), report.r2[i]))
    write_csv(path, BOUND_REPORT_COLUMNS, rows)


def bound_report_to_dict(report: BoundReport) -> dict:
    """JSON-safe mirror of the report (non-finite floats become strings)."""
    def col(values):
        return [json_safe_float(v) for v in values]

    return {
        "format": BOUND_REPORT_FORMAT,
        "mode": report.mode,
        "gamma": report.gamma,
        "fit_window": [report.fit_lo, report.fit_hi],
        "n_shells": report.n_shells,
        "grid": {"n_per_axis": report.grid_n, "period": report.grid_period},
        "requested_times": col(report.requested_times),
        "rows": {
            "t": col(report.times),
            "eta_or_zeta": col(report.eta_or_zeta),
            "beta": col(report.beta_values),
            "lambda": col(report.lambda_values),
            "predictor": col(report.predictor),
            "measured_radius": col(report.measured_radius),
            "ratio": col(report.ratio),
            "capped": [bool(v) for v in report.capped],
            "r2": col(report.r2),
            "tail_empty": [bool(v) for v in report.tail_empty],
            "zeta_flagged": [bool(v) for v in report.zeta_flagged],
            "k_t": col(report.k_t),
        },
    }


def write_bound_report_json(path: Path, report: BoundReport) -> None:
    write_text(Path(path), dump_json(bound_report_to_dict(report)))


def manifest_comparison_key(manifest: dict) -> dict:
    """Manifest with the wall-clock entry removed (for determinism checks)."""
    out = dict(manifest)
    out.pop("wall_clock_utc", None)
    return out
