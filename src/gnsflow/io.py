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
import shutil
import struct
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy

from .diagnostics import BoundReport
from .operators import VelocityField, stack_coefficients
from .solver import Trajectory, band_modes, band_plane_pairs
from .spectral import CorruptedFieldError, Grid, _real_field, build_grid, hermitian_half

FIELD_MAGIC = b"GSF1"
FIELD_VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")  # magic, version, n_per_axis, n_components, period, dealias_fraction

INCREMENTS_MAGIC = b"GSI1"
INCREMENTS_VERSION = 1
_INCREMENTS_HEADER = struct.Struct("<4sIIII")  # magic, version, n_per_axis, n_times, band size

TRAJECTORY_FORMAT = "gns-trajectory-v2"
BOUND_REPORT_FORMAT = "gns-bound-report-v1"
U0_FILE = "u0.gsf"
INCREMENTS_FILE = "increments.gsi"


class FormatError(ValueError):
    """A file does not conform to the expected on-disk format."""


def _atomic_write_bytes(path: Path, *chunks) -> None:
    """Write the chunks (bytes-like) in order via a same-directory temp file
    and os.replace (no torn files)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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


def write_field(path: Path, u: VelocityField) -> str:
    """Write a velocity field snapshot; returns the sha256 of the binary file."""
    grid = u.grid
    header = _HEADER.pack(FIELD_MAGIC, FIELD_VERSION, grid.n_per_axis, 3,
                          grid.period, grid.dealias_fraction)
    data = header + stack_coefficients(u).astype("<c16", copy=False).tobytes(order="C")
    _atomic_write_bytes(Path(path), data)
    return hashlib.sha256(data).hexdigest()


def read_field(path: Path) -> VelocityField:
    """Read a velocity field snapshot written by write_field.

    The content is held to the real-field contract (spectral.hermitian_half):
    beyond HERMITIAN_REJECT_TOL of Hermitian, CorruptedFieldError is raised
    (the field could not have come from a real-valued velocity).
    """
    path = Path(path)
    data = path.read_bytes()
    grid = _field_grid(path, data)
    return VelocityField.from_half(grid, _checked_half(path, grid, data))


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
    try:
        grid = build_grid(n, period=period, dealias_fraction=frac)
    except ValueError as exc:
        raise FormatError(f"{path}: bad grid in header: {exc}") from None
    want = _HEADER.size + ncomp * n**3 * 16
    if len(data) != want:
        raise FormatError(f"{path}: payload size {len(data)} != expected {want}")
    return grid


def _checked_half(path: Path, grid: Grid, data: bytes) -> np.ndarray:
    """The half spectrum of the real field of a snapshot checked by _field_grid."""
    payload = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    return _real_field_in(path, hermitian_half, payload.reshape((3,) + grid.shape))


def _real_field_in(path: Path, check, *args) -> np.ndarray:
    """check(*args), a real-field check of spectral, naming path when it fails."""
    try:
        return check(*args)
    except CorruptedFieldError as exc:
        raise CorruptedFieldError(f"{path}: {exc}", exc.deviation) from None


def _versions() -> dict[str, str]:
    from . import __version__
    return {"gnsflow": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _sha256_file(path: Path, expected: str) -> bytes:
    """The bytes of a trajectory file, checked against its manifest sha256;
    the file is read once."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected:
        raise FormatError(f"{path}: sha256 mismatch (file {digest}, "
                          f"manifest {expected})")
    return data


class TrajectoryWriter:
    """A trajectory written as it is produced.

    The increments file's header goes first, then each appended
    (3, len(band)) row of a state's increments, in time order, into a temp
    file in directory; the bytes are hashed as they are written.
    write_trajectory finishes it: the file is published under its name by
    os.replace, next to u0.gsf and the manifest. Used as a context manager
    the writer removes its temp file, and the directory if it made it,
    unless write_trajectory finished.
    """

    def __init__(self, directory: Path, grid: Grid, times, u0: np.ndarray,
                 band: str = "kept") -> None:
        self.directory = Path(directory)
        self.grid = grid
        self.times = np.array(times, dtype=np.float64)
        self.u0 = u0
        self.band_kind = band
        self._shape = (3, band_modes(grid, band).size)
        self._made_dir = not self.directory.exists()
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, self._tmp = tempfile.mkstemp(dir=self.directory, prefix=INCREMENTS_FILE + ".",
                                         suffix=".tmp")
        self._fh = os.fdopen(fd, "wb")
        self._digest = hashlib.sha256()
        self._rows = 0
        self._finished = False
        self._write(_INCREMENTS_HEADER.pack(INCREMENTS_MAGIC, INCREMENTS_VERSION,
                                            grid.n_per_axis, len(self.times),
                                            self._shape[1]))

    def _write(self, chunk) -> None:
        self._fh.write(chunk)
        self._digest.update(chunk)

    def append(self, row: np.ndarray) -> None:
        """Write the next state's increments, a (3, len(band)) array."""
        if self._rows == len(self.times):
            raise ValueError(f"all {len(self.times)} states are written")
        if row.shape != self._shape:
            raise ValueError(f"increment row shape {row.shape} != {self._shape}")
        self._write(np.ascontiguousarray(row, dtype="<c16"))
        self._rows += 1

    def _publish_increments(self) -> str:
        """Close the increments file and give it its name; its sha256."""
        if self._rows != len(self.times):
            raise ValueError(f"{self._rows} of {len(self.times)} states written")
        self._fh.close()
        os.replace(self._tmp, self.directory / INCREMENTS_FILE)
        return self._digest.hexdigest()

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._finished:
            return
        try:
            self._fh.close()  # flushes, so it can fail on a full disk too
        finally:
            if self._made_dir:
                shutil.rmtree(self.directory, ignore_errors=True)
            elif os.path.exists(self._tmp):
                os.unlink(self._tmp)


def write_trajectory(directory: Path, traj: Trajectory | TrajectoryWriter,
                     config_sha256: str | None = None) -> Path:
    """Write u0.gsf, increments.gsi and manifest.json; returns the manifest path.

    The trajectory is stored as it is held: u0 as a field snapshot and the
    increments on the band, T * 3 * len(band) little-endian complex128
    values after a 20-byte header. traj is a Trajectory, or a
    TrajectoryWriter into directory that holds every state's row, which
    this finishes. manifest.json carries everything needed to reload and to
    compare runs; wall_clock_utc is the single non-deterministic entry.
    """
    directory = Path(directory)
    if isinstance(traj, TrajectoryWriter):
        return _finish_trajectory(directory, traj, config_sha256)
    with TrajectoryWriter(directory, traj.grid, traj.times, traj.u0,
                          traj.band_kind) as writer:
        for row in traj.increments:
            writer.append(row)
        return _finish_trajectory(directory, writer, config_sha256)


def _finish_trajectory(directory: Path, writer: TrajectoryWriter,
                       config_sha256: str | None) -> Path:
    if writer.directory != directory:
        raise ValueError(f"the writer writes into {writer.directory}, not {directory}")
    grid = writer.grid
    increments_digest = writer._publish_increments()
    u0_digest = write_field(directory / U0_FILE, VelocityField.from_half(grid, writer.u0))
    manifest = {
        "format": TRAJECTORY_FORMAT,
        "grid": {"n_per_axis": grid.n_per_axis, "period": grid.period,
                 "dealias_fraction": grid.dealias_fraction},
        "times": [float(t) for t in writer.times],
        "band": writer.band_kind,
        "files": [{"name": U0_FILE, "sha256": u0_digest},
                  {"name": INCREMENTS_FILE, "sha256": increments_digest}],
        "config_sha256": config_sha256,
        "versions": _versions(),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path = directory / "manifest.json"
    write_text(manifest_path, dump_json(manifest))
    writer._finished = True
    return manifest_path


def read_json(path: Path):
    """The JSON document in path; FormatError naming path if it is not JSON."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


def _manifest_fields(path: Path) -> tuple[Grid, np.ndarray, str, dict[str, str]]:
    """The grid, times, band kind and file digests of a trajectory manifest;
    FormatError naming path for a missing key or a value of the wrong type
    or range."""
    manifest = read_json(path)
    try:
        if manifest["format"] != TRAJECTORY_FORMAT:
            raise ValueError(f"format {manifest['format']!r}, expected {TRAJECTORY_FORMAT!r}")
        g = manifest["grid"]
        grid = build_grid(g["n_per_axis"], period=g["period"],
                          dealias_fraction=g["dealias_fraction"])
        times = np.array(manifest["times"], dtype=np.float64)
        if not (times.ndim == 1 and times.size and times[0] == 0.0
                and np.all(np.diff(times) > 0.0) and np.isfinite(times[-1])):
            raise ValueError("times must rise strictly from 0 to a finite end")
        band_kind = manifest["band"]
        if band_kind not in ("kept", "all"):
            raise ValueError(f"band must be 'kept' or 'all', got {band_kind!r}")
        digests = {entry["name"]: entry["sha256"] for entry in manifest["files"]}
        if set(digests) != {U0_FILE, INCREMENTS_FILE}:
            raise ValueError(f"files {sorted(map(str, digests))}, expected "
                             f"{sorted((U0_FILE, INCREMENTS_FILE))}")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad or missing entry: {exc}") from None
    return grid, times, band_kind, digests


def read_trajectory(manifest_path: Path) -> Trajectory:
    """Reload a trajectory from its manifest; verifies sha256 and grid match.

    Each file is read once: the bytes that are hashed are the bytes that
    are parsed. u0 and the increments on the kz = 0 and kz = n/2 planes
    are held to the real-field contract, and every increment must be finite;
    exact increments are the array read.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    grid, times, band_kind, digests = _manifest_fields(manifest_path)
    directory = manifest_path.parent

    path = directory / U0_FILE
    data = _sha256_file(path, digests[U0_FILE])
    if _field_grid(path, data) != grid:
        raise FormatError(f"{path}: grid differs from manifest grid")
    u0 = _checked_half(path, grid, data)
    band = band_modes(grid, band_kind)

    path = directory / INCREMENTS_FILE
    data = _sha256_file(path, digests[INCREMENTS_FILE])
    if len(data) < _INCREMENTS_HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, n, count, size = _INCREMENTS_HEADER.unpack_from(data)
    if magic != INCREMENTS_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {INCREMENTS_MAGIC!r}")
    if version != INCREMENTS_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if (n, count, size) != (grid.n_per_axis, times.size, band.size):
        raise FormatError(f"{path}: header (n, T, band) = {(n, count, size)} does not "
                          f"match the manifest's {(grid.n_per_axis, times.size, band.size)}")
    want = _INCREMENTS_HEADER.size + count * 3 * size * 16
    if len(data) != want:
        raise FormatError(f"{path}: payload size {len(data)} != expected {want}")
    increments = np.frombuffer(data, dtype="<c16", offset=_INCREMENTS_HEADER.size)
    if not np.isfinite(increments.view("<f8")).all():
        raise CorruptedFieldError(f"{path}: non-finite increment values", math.nan)
    increments = increments.reshape(count * 3, size)
    plane, partner = band_plane_pairs(grid, band_kind)
    ours = increments[:, plane]
    fixed = _real_field_in(path, _real_field, ours, np.conj(increments[:, partner]))
    if fixed is not ours:
        increments = increments.copy()
        increments[:, partner] = np.conj(fixed)
        increments[:, plane] = fixed
    increments = increments.reshape(count, 3, size)
    return Trajectory.from_increments(grid, times, u0, increments, band=band_kind)


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
