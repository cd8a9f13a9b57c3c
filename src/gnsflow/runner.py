"""Scenario execution: config in, artifact directory out.

The output directory appears atomically (everything is written into a
same-parent temp directory that is renamed into place), including on the
failure paths that leave partial evidence behind (non-convergence, an
inconclusive radius fit, an internal error).
"""
from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as gio
from .config import ConfigError, ScenarioConfig
from .diagnostics import (
    BoundReport,
    InconclusiveFitError,
    bound_report,
    eta_J,
    lebesgue_norm,
    sobolev_norm,
)
from .initial_data import DataParams, make_initial_data
from .operators import (
    QCoefficients,
    VelocityField,
    navier_stokes_coeffs,
    read_q_coefficients,
)
from .solver import BlowupError, PicardReport, Trajectory, etd_integrate, picard_solve
from .spectral import CorruptedFieldError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ORACLE_DISAGREEMENT = 4
EXIT_INCONCLUSIVE_FIT = 5

OUTPUT_ROOT_ENV = "GNSFLOW_OUTPUT_ROOT"


class ScenarioError(RuntimeError):
    """A scenario failed; exit_code selects the process exit status."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


# exception type -> process exit status, first match wins; ScenarioError
# carries its own code and anything unlisted is an internal error
EXIT_CODES: tuple[tuple[type[BaseException], int], ...] = (
    (ConfigError, EXIT_CONFIG),
    (gio.FormatError, EXIT_CONFIG),
    (CorruptedFieldError, EXIT_CONFIG),
    (FileNotFoundError, EXIT_CONFIG),
    (InconclusiveFitError, EXIT_INCONCLUSIVE_FIT),
    (BlowupError, EXIT_NO_CONVERGENCE),
)


def exit_code_for(exc: BaseException) -> int:
    """The documented exit status for an exception reaching the command line."""
    if isinstance(exc, ScenarioError):
        return exc.exit_code
    for exc_type, code in EXIT_CODES:
        if isinstance(exc, exc_type):
            return code
    return EXIT_FAILURE


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    config_sha256: str
    trajectory_manifest: Path
    norms_csv: Path
    report_csv: Path | None
    report_json: Path | None
    run_json: Path
    picard: PicardReport
    report: BoundReport
    etd_rel_error: float | None


def resolve_output_dir(cfg: ScenarioConfig, override: str | None = None) -> Path:
    """--out beats output.directory; relative paths live under the env root."""
    target = Path(override) if override else Path(cfg.output_directory)
    if not target.is_absolute():
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            target = Path(root) / target
    return target


def load_coefficients(cfg: ScenarioConfig, base_dir: Path | None) -> QCoefficients:
    name = cfg.physics_coefficients
    if name == "navier_stokes":
        return navier_stokes_coeffs()
    path = Path(name)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    try:
        return read_q_coefficients(path)
    except FileNotFoundError:
        raise ScenarioError(f"coefficient file not found: {path}", EXIT_CONFIG)
    except ValueError as exc:
        raise ScenarioError(f"bad coefficient file {path}: {exc}", EXIT_CONFIG)


def data_params(cfg: ScenarioConfig) -> DataParams:
    return DataParams(amplitude=cfg.data_amplitude,
                      band_lo=cfg.data_band_lo,
                      band_hi=cfg.data_band_hi,
                      mode=cfg.data_mode,
                      k_cut=cfg.data_k_cut,
                      spectral_exponent=cfg.data_spectral_exponent)


def _write_norm_series(path: Path, traj: Trajectory, gamma: float,
                       delta: float) -> None:
    rows = []
    for t, state in zip(traj.times, traj.states):
        rows.append((float(t),
                     sobolev_norm(state, gamma, homogeneous=False),
                     sobolev_norm(state, 0.5 + delta, homogeneous=True),
                     lebesgue_norm(state, 2.0)))
    gio.write_csv(path, ("t", "h_gamma", "h_half_plus_delta", "l2"), rows)


def _write_run_json(path: Path, cfg: ScenarioConfig, picard: PicardReport,
                    etd_rel_error: float | None, status: str) -> None:
    doc = {
        "status": status,
        "config_sha256": cfg.sha256(),
        "picard": {
            "iterates": picard.iterates,
            "interval_iterates": list(picard.interval_iterates),
            "contraction_ratios": [gio.json_safe_float(r)
                                   for r in picard.contraction_ratios],
            "deltas": [gio.json_safe_float(d) for d in picard.deltas],
            "residual_max": gio.json_safe_float(picard.residual_max),
            "converged": picard.converged,
            "diverged": picard.diverged,
            "tol": picard.tol,
            "gamma": picard.gamma,
        },
        "etd_rel_error": (None if etd_rel_error is None
                          else gio.json_safe_float(etd_rel_error)),
    }
    gio.write_text(path, gio.dump_json(doc))


def _publish(tmp: Path, out: Path) -> None:
    if out.exists():
        out.rmdir()  # only an empty placeholder is replaceable
    os.replace(tmp, out)


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path | None = None,
                 base_dir: Path | None = None) -> RunArtifacts:
    """Solve, cross-check, diagnose, and write the artifact directory.

    Raises ScenarioError with the appropriate exit code; partial artifacts
    (config, norms, Picard evidence) are still published for the
    non-convergence and inconclusive-fit failures. Any other exception
    publishes what was written plus error.json and propagates; an interrupt
    (KeyboardInterrupt, SystemExit) removes the partial directory.
    """
    out = resolve_output_dir(cfg, None if out_dir is None else str(out_dir))
    if out.exists() and any(out.iterdir()):
        raise ScenarioError(f"output directory {out} exists and is not empty",
                            EXIT_CONFIG)
    out.parent.mkdir(parents=True, exist_ok=True)

    grid = cfg.build_grid()
    coeffs = load_coefficients(cfg, base_dir)
    try:
        u0 = make_initial_data(cfg.data_kind, grid, data_params(cfg),
                               seed=cfg.data_seed)
    except ValueError as exc:
        raise ScenarioError(f"initial data: {exc}", EXIT_CONFIG)

    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=out.name + ".partial."))
    try:
        artifacts = _run_into(tmp, out, cfg, coeffs, u0)
    except ScenarioError:
        _publish(tmp, out)
        raise
    except Exception as exc:
        gio.write_text(tmp / "error.json",
                       gio.dump_json({"error": f"{type(exc).__name__}: {exc}"}))
        _publish(tmp, out)
        raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _publish(tmp, out)
    return artifacts


def _run_into(tmp: Path, out: Path, cfg: ScenarioConfig, coeffs,
              u0) -> RunArtifacts:
    gio.write_text(tmp / "config.txt", cfg.canonical_text())

    traj, picard = picard_solve(u0, coeffs, cfg.solver_config())
    if not picard.converged:
        updates = iter(picard.deltas)
        gio.write_csv(tmp / "deltas.csv", ("interval", "iteration", "delta"),
                      [(i, k, next(updates))
                       for i, count in enumerate(picard.interval_iterates)
                       for k in range(1, count + 1)])
        _write_run_json(tmp / "run.json", cfg, picard, None,
                        "diverged" if picard.diverged else "not_converged")
        word = "diverged" if picard.diverged else "did not converge"
        raise ScenarioError(
            f"fixed-point iteration {word} on interval "
            f"{len(picard.interval_iterates) - 1} after "
            f"{picard.interval_iterates[-1]} iterations "
            f"(last delta {picard.deltas[-1] if picard.deltas else math.nan:.3e}, "
            f"tol {picard.tol:.1e}); see {out / 'deltas.csv'}",
            EXIT_NO_CONVERGENCE)

    etd_rel_error: float | None = None
    if cfg.solver_etd_check:
        try:
            reference = etd_integrate(u0, coeffs, cfg.solver_t_final, cfg.solver_dt)
        except BlowupError as exc:
            _write_run_json(tmp / "run.json", cfg, picard, math.inf,
                            "oracle_disagreement")
            raise ScenarioError(
                f"reference integrator blew up while the fixed-point solve "
                f"converged: {exc}", EXIT_ORACLE_DISAGREEMENT)
        diff = VelocityField.from_half(
            traj.grid, traj.half_state(-1) - reference.half_spectrum()).l2_coefficient_norm()
        scale = reference.l2_coefficient_norm()
        etd_rel_error = diff / scale if scale > 0.0 else diff
        if etd_rel_error > cfg.solver_oracle_tol:
            _write_run_json(tmp / "run.json", cfg, picard, etd_rel_error,
                            "oracle_disagreement")
            raise ScenarioError(
                f"solution disagrees with the reference integrator: relative "
                f"l2 difference {etd_rel_error:.3e} at t = {cfg.solver_t_final} "
                f"exceeds {cfg.solver_oracle_tol:.1e}", EXIT_ORACLE_DISAGREEMENT)

    _write_norm_series(tmp / "norms.csv", traj, cfg.physics_gamma,
                       cfg.physics_delta)
    manifest_path = gio.write_trajectory(tmp / "trajectory", traj,
                                         config_sha256=cfg.sha256())

    try:
        report = bound_report(traj, cfg.physics_gamma, cfg.diagnostics_mode,
                              cfg.diagnostics_fit_lo, cfg.diagnostics_fit_hi,
                              cfg.diagnostics_sample_times,
                              cfg.diagnostics_n_shells)
    except InconclusiveFitError as exc:
        evidence = {
            "error": str(exc),
            "slope": gio.json_safe_float(exc.slope) if exc.slope is not None else None,
            "r2": gio.json_safe_float(exc.r2) if exc.r2 is not None else None,
            "n_usable": exc.n_usable,
            "window": list(exc.window) if exc.window is not None else None,
        }
        gio.write_text(tmp / "inconclusive.json", gio.dump_json(evidence))
        _write_run_json(tmp / "run.json", cfg, picard, etd_rel_error,
                        "inconclusive_fit")
        raise ScenarioError(f"radius fit inconclusive: {exc}",
                            EXIT_INCONCLUSIVE_FIT)

    report_csv = report_json = None
    if "csv" in cfg.output_formats:
        report_csv = out / "report.csv"
        gio.write_bound_report_csv(tmp / "report.csv", report)
    if "json" in cfg.output_formats:
        report_json = out / "report.json"
        gio.write_bound_report_json(tmp / "report.json", report)
    _write_run_json(tmp / "run.json", cfg, picard, etd_rel_error, "ok")

    return RunArtifacts(
        out_dir=out,
        config_sha256=cfg.sha256(),
        trajectory_manifest=out / "trajectory" / "manifest.json",
        norms_csv=out / "norms.csv",
        report_csv=report_csv,
        report_json=report_json,
        run_json=out / "run.json",
        picard=picard,
        report=report,
        etd_rel_error=etd_rel_error,
    )


def diagnose_trajectory(manifest_path: Path, cfg: ScenarioConfig,
                        out_dir: str | Path | None = None) -> BoundReport:
    """Recompute the bound report for a stored trajectory; write report files."""
    manifest_path = Path(manifest_path)
    try:
        traj = gio.read_trajectory(manifest_path)
    except (OSError, gio.FormatError, ValueError) as exc:
        raise ScenarioError(f"cannot load trajectory: {exc}", EXIT_CONFIG)
    try:
        report = bound_report(traj, cfg.physics_gamma, cfg.diagnostics_mode,
                              cfg.diagnostics_fit_lo, cfg.diagnostics_fit_hi,
                              cfg.diagnostics_sample_times,
                              cfg.diagnostics_n_shells)
    except InconclusiveFitError as exc:
        raise ScenarioError(f"radius fit inconclusive: {exc}",
                            EXIT_INCONCLUSIVE_FIT)
    except ValueError as exc:
        raise ScenarioError(f"diagnostics: {exc}", EXIT_CONFIG)
    base = manifest_path.parent if manifest_path.name.endswith(".json") else manifest_path
    target = Path(out_dir) if out_dir is not None else base
    target.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.output_formats:
        gio.write_bound_report_csv(target / "report.csv", report)
    if "json" in cfg.output_formats:
        gio.write_bound_report_json(target / "report.json", report)
    return report


def _report_columns(path: Path) -> tuple[float, dict[str, list[float]]]:
    """gamma and the report.json columns the curves plot; FormatError naming
    path for a missing key, a wrong value or columns of unequal length."""
    doc = gio.read_json(path)
    try:
        rows = {name: [float(v) for v in doc["rows"][name]]
                for name in ("t", "ratio", "measured_radius", "predictor")}
        if len({len(column) for column in rows.values()}) != 1:
            raise ValueError("rows columns differ in length")
        return float(doc["gamma"]), rows
    except (KeyError, TypeError, ValueError) as exc:
        raise gio.FormatError(f"{path}: bad or missing entry: {exc}") from None


def emit_plot_data(artifacts_dir: Path) -> list[Path]:
    """Write whitespace-separated .dat curves from a finished run directory.

    ratio_vs_time.dat    t, measured/predicted radius ratio
    radius_vs_time.dat   t, measured radius, predicted lower bound
    eta_vs_j.dat         J, tail height at the trajectory horizon
    Non-finite values use inf/-inf/nan; bad input raises before any write.
    """
    artifacts_dir = Path(artifacts_dir)
    report_path = artifacts_dir / "report.json"
    if not report_path.exists():
        raise ScenarioError(f"no report.json in {artifacts_dir}", EXIT_CONFIG)
    gamma, rows = _report_columns(report_path)
    traj = gio.read_trajectory(artifacts_dir / "trajectory")

    written = []

    path = artifacts_dir / "ratio_vs_time.dat"
    lines = ["# t ratio (non-finite values: inf/-inf/nan)"]
    for t, r in zip(rows["t"], rows["ratio"]):
        lines.append(f"{gio.format_float(t)} {gio.format_float(r)}")
    gio.write_text(path, "\n".join(lines) + "\n")
    written.append(path)

    path = artifacts_dir / "radius_vs_time.dat"
    lines = ["# t measured_radius predicted_bound (non-finite values: inf/-inf/nan)"]
    for t, m, pr in zip(rows["t"], rows["measured_radius"], rows["predictor"]):
        lines.append(f"{gio.format_float(t)} {gio.format_float(m)} "
                     f"{gio.format_float(pr)}")
    gio.write_text(path, "\n".join(lines) + "\n")
    written.append(path)

    grid = traj.grid
    horizon = traj.horizon
    n_points = max(2, len(rows["t"]))
    j_lo = 100.0 * grid.spacing
    j_hi = 100.0 * grid.k_max
    js = np.geomspace(j_lo, j_hi, n_points)
    path = artifacts_dir / "eta_vs_j.dat"
    lines = [f"# J eta_J at t = {gio.format_float(horizon)} "
             "(non-finite values: inf/-inf/nan)"]
    for J in js:
        lines.append(f"{gio.format_float(float(J))} "
                     f"{gio.format_float(eta_J(traj, float(J), gamma, horizon))}")
    gio.write_text(path, "\n".join(lines) + "\n")
    written.append(path)
    return written


def override_seed(cfg: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    if seed is None:
        return cfg
    if not (0 <= seed < 2**64):
        raise ScenarioError(f"seed must be in [0, 2^64), got {seed}", EXIT_CONFIG)
    return replace(cfg, data_seed=seed)
