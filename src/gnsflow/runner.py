"""Scenario execution: config in, artifact directory out.

The output directory appears atomically (everything is written into a
same-parent temp directory that is renamed into place), including on the
failure paths that leave partial evidence behind (non-convergence, an
inconclusive radius fit, an internal error). The Picard march hands each
accepted state to _StreamedStates, which writes it to the trajectory file
and feeds the norm series and the bound report, so the solve holds no
whole trajectory.

With solver.etd_check the ETD oracle needs only the initial data, so it runs
as a future on a one-worker thread pool beside the Picard march (scipy.fft
and numpy's array loops release the GIL). It is submitted through this
module's global etd_integrate, so a rebinding of runner.etd_integrate is what
runs. The outcome is decided as if the two ran one after the other: a failed
march exits 3 whatever the oracle did, and only then does an oracle failure
count. A running call cannot be cancelled through its future, so the oracle
checks a stop event before every step; run_scenario always sets it and shuts
the pool down, which joins the worker, so no oracle thread outlives it (the
pool starts no thread without the check). The worker is not a daemon: if a
second interrupt lands during that join, concurrent.futures' exit hook joins
a worker that stops at its next step.
"""
from __future__ import annotations

import glob
import math
import os
import shutil
import tempfile
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as gio
from .config import ConfigError, ScenarioConfig, key_problem
from .diagnostics import (
    BoundAccumulator,
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
from .solver import BlowupError, PicardReport, StateBuilder, etd_integrate, picard_solve
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
    return cfg.data_params()


class _StreamedStates:
    """The runner's consumer of the march, called once per accepted state.

    It appends the state's increment row to the trajectory file, rebuilds
    the state once from that row (the arithmetic of Trajectory.half_state,
    never the march's own iterate), takes its norms.csv row, feeds it to the
    bound report's accumulator and keeps the final state for the ETD
    comparison.
    """

    def __init__(self, cfg: ScenarioConfig, u0: VelocityField,
                 writer: gio.TrajectoryWriter) -> None:
        self.cfg = cfg
        self.grid = u0.grid
        self.writer = writer
        self.build = StateBuilder(self.grid, u0.half_spectrum())
        self.last = len(writer.times) - 1
        self.report = BoundAccumulator(self.grid, writer.times, cfg.physics_gamma,
                                       cfg.diagnostics_mode, cfg.diagnostics_fit_lo,
                                       cfg.diagnostics_fit_hi,
                                       cfg.diagnostics_sample_times,
                                       cfg.diagnostics_n_shells)
        self.norm_rows: list[tuple[float, float, float, float]] = []
        self.final: np.ndarray | None = None

    def __call__(self, i: int, t: float, row: np.ndarray) -> None:
        self.writer.append(row)
        half = self.build(t, row)
        state = VelocityField.from_half(self.grid, half)
        gamma, delta = self.cfg.physics_gamma, self.cfg.physics_delta
        self.norm_rows.append((t,
                               sobolev_norm(state, gamma, homogeneous=False),
                               sobolev_norm(state, 0.5 + delta, homogeneous=True),
                               lebesgue_norm(state, 2.0)))
        self.report.add(i, half)
        if i == self.last:
            self.final = half


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


def _make_directory(path: Path) -> None:
    """mkdir -p path; exit 2 naming it when a file stands in the way."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ScenarioError(f"cannot create directory {path}: a file is in the way",
                            EXIT_CONFIG) from None


def stale_partials(out: Path) -> list[Path]:
    """The <name>.partial.* siblings of out left by runs that were killed
    (SIGKILL, out of memory) before run_scenario could remove them."""
    return sorted(out.parent.glob(glob.escape(out.name) + ".partial.*"))


def _publish(tmp: Path, out: Path) -> None:
    if out.exists():
        out.rmdir()  # only an empty placeholder is replaceable
    os.replace(tmp, out)


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path | None = None,
                 base_dir: Path | None = None) -> RunArtifacts:
    """Solve, cross-check, diagnose, and write the artifact directory.

    The march streams each accepted state into the trajectory file, the
    norm series and the bound report, so no stage rebuilds a state after it.
    Raises ScenarioError with the appropriate exit code, after publishing
    the evidence of the failure: config.txt, deltas.csv and run.json on
    non-convergence; config.txt and run.json on an oracle blow-up or
    disagreement; config.txt, norms.csv, the trajectory, inconclusive.json
    and run.json on an inconclusive radius fit. Any other exception
    publishes what was written plus error.json and propagates; a trajectory
    that was not finished is never published. An interrupt (any other
    BaseException, such as KeyboardInterrupt) stops and joins the ETD
    oracle's thread, then removes the partial directory.
    """
    out = resolve_output_dir(cfg, None if out_dir is None else str(out_dir))
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ScenarioError(f"output directory {out} exists and is not an empty "
                            "directory", EXIT_CONFIG)
    _make_directory(out.parent)

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
    solver_cfg = cfg.solver_config()
    # the writer's temp file and directory go unless write_trajectory finishes them
    with gio.TrajectoryWriter(tmp / "trajectory", u0.grid, solver_cfg.times,
                              u0.half_spectrum()) as writer:
        states = _StreamedStates(cfg, u0, writer)
        picard, etd_rel_error = _march_and_check(tmp, out, cfg, coeffs, u0, solver_cfg,
                                                 states)
        gio.write_csv(tmp / "norms.csv", ("t", "h_gamma", "h_half_plus_delta", "l2"),
                      states.norm_rows)
        gio.write_trajectory(tmp / "trajectory", writer, config_sha256=cfg.sha256())

    try:
        report = states.report.finish()
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


def _march_and_check(tmp: Path, out: Path, cfg: ScenarioConfig, coeffs, u0,
                     solver_cfg, states: _StreamedStates
                     ) -> tuple[PicardReport, float | None]:
    """The march into states, with the ETD oracle beside it; the Picard
    report and the oracle's relative l2 difference (None without the check).
    Raises ScenarioError for non-convergence and for an oracle that blew up
    or disagrees, after writing their evidence."""
    stop = threading.Event()
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gnsflow-etd-oracle")
    oracle = (pool.submit(etd_integrate, u0, coeffs, cfg.solver_t_final, cfg.solver_dt,
                          stop=stop)
              if cfg.solver_etd_check else None)
    try:
        _, picard = picard_solve(u0, coeffs, solver_cfg, states)
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
        reference = None
        if oracle is not None:
            try:
                reference = oracle.result()
            except BlowupError as exc:
                _write_run_json(tmp / "run.json", cfg, picard, math.inf,
                                "oracle_disagreement")
                raise ScenarioError(
                    f"reference integrator blew up while the fixed-point solve "
                    f"converged: {exc}", EXIT_ORACLE_DISAGREEMENT)
    finally:
        stop.set()
        pool.shutdown(wait=True)

    if reference is None:
        return picard, None
    diff = VelocityField.from_half(
        states.grid, states.final - reference.half_spectrum()).l2_coefficient_norm()
    scale = reference.l2_coefficient_norm()
    etd_rel_error = diff / scale if scale > 0.0 else diff
    if etd_rel_error > cfg.solver_oracle_tol:
        _write_run_json(tmp / "run.json", cfg, picard, etd_rel_error,
                        "oracle_disagreement")
        raise ScenarioError(
            f"solution disagrees with the reference integrator: relative "
            f"l2 difference {etd_rel_error:.3e} at t = {cfg.solver_t_final} "
            f"exceeds {cfg.solver_oracle_tol:.1e}", EXIT_ORACLE_DISAGREEMENT)
    return picard, etd_rel_error


@contextmanager
def _stored_run(path: Path) -> Iterator[gio.StreamedTrajectory]:
    """The stored trajectory at path, streamed; exit 2 naming the file for any
    verdict on it, whenever the stream reaches one. The file is read to its
    end and verified when the block exits."""
    try:
        with gio.read_trajectory(path, stream=True) as traj:
            yield traj
    except (OSError, gio.FormatError, CorruptedFieldError) as exc:
        raise ScenarioError(f"cannot load trajectory: {exc}", EXIT_CONFIG)


def diagnose_trajectory(manifest_path: Path, cfg: ScenarioConfig,
                        out_dir: str | Path | None = None) -> BoundReport:
    """Recompute the bound report for a stored trajectory; write report files.

    The report is folded from one streamed pass over the stored run and
    written only once the whole file has been read and verified."""
    manifest_path = Path(manifest_path)
    try:
        with _stored_run(manifest_path) as traj:
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
    _make_directory(target)
    if "csv" in cfg.output_formats:
        gio.write_bound_report_csv(target / "report.csv", report)
    if "json" in cfg.output_formats:
        gio.write_bound_report_json(target / "report.json", report)
    return report


def _report_columns(path: Path) -> tuple[float, dict[str, list[float]]]:
    """gamma and the report.json columns the curves plot; FormatError naming
    path for a missing key, a wrong value (gamma is held to physics.gamma's
    rule) or columns of unequal length."""
    doc = gio.read_json(path)
    try:
        rows = {name: [float(v) for v in doc["rows"][name]]
                for name in ("t", "ratio", "measured_radius", "predictor")}
        if len({len(column) for column in rows.values()}) != 1:
            raise ValueError("rows columns differ in length")
        gamma = float(doc["gamma"])
        if problem := key_problem("physics.gamma", gamma):
            raise ValueError(f"gamma {problem}")
        return gamma, rows
    except (KeyError, TypeError, ValueError) as exc:
        raise gio.FormatError(f"{path}: bad or missing entry: {exc}") from None


def emit_plot_data(artifacts_dir: Path) -> list[Path]:
    """Write whitespace-separated .dat curves from a finished run directory.

    ratio_vs_time.dat    t, measured/predicted radius ratio
    radius_vs_time.dat   t, measured radius, predicted lower bound
    eta_vs_j.dat         J, tail height at the trajectory horizon
    Non-finite values use inf/-inf/nan. eta_J is folded from one streamed
    pass over the stored run; bad input raises before any write.
    """
    artifacts_dir = Path(artifacts_dir)
    report_path = artifacts_dir / "report.json"
    if not report_path.exists():
        raise ScenarioError(f"no report.json in {artifacts_dir}", EXIT_CONFIG)
    gamma, rows = _report_columns(report_path)
    with _stored_run(artifacts_dir / "trajectory") as traj:
        horizon = traj.horizon
        js = np.geomspace(100.0 * traj.grid.spacing, 100.0 * traj.grid.k_max,
                          max(2, len(rows["t"])))
        etas = eta_J(traj, js, gamma, horizon)

    curves = {
        "ratio_vs_time.dat": ["# t ratio (non-finite values: inf/-inf/nan)"]
        + [f"{gio.format_float(t)} {gio.format_float(r)}"
           for t, r in zip(rows["t"], rows["ratio"])],
        "radius_vs_time.dat": ["# t measured_radius predicted_bound "
                               "(non-finite values: inf/-inf/nan)"]
        + [f"{gio.format_float(t)} {gio.format_float(m)} {gio.format_float(pr)}"
           for t, m, pr in zip(rows["t"], rows["measured_radius"], rows["predictor"])],
        "eta_vs_j.dat": [f"# J eta_J at t = {gio.format_float(horizon)} "
                         "(non-finite values: inf/-inf/nan)"]
        + [f"{gio.format_float(J)} {gio.format_float(eta)}" for J, eta in zip(js, etas)],
    }
    for name, lines in curves.items():
        gio.write_text(artifacts_dir / name, "\n".join(lines) + "\n")
    return [artifacts_dir / name for name in curves]


def override_seed(cfg: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    if seed is None:
        return cfg
    if problem := key_problem("data.seed", seed):
        raise ScenarioError(f"seed {problem}", EXIT_CONFIG)
    return replace(cfg, data_seed=seed)
