"""Command-line front end: solve / diagnose / report / selftest."""
from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from . import io as gio
from .config import parse_config
from .diagnostics import BoundReport
from .runner import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    diagnose_trajectory,
    emit_plot_data,
    exit_code_for,
    override_seed,
    resolve_output_dir,
    run_scenario,
    stale_partials,
)
from .spectral import set_fft_workers


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnsflow",
        description="Pseudo-spectral mild solutions on the periodic box with "
                    "spectral-decay diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a scenario from a config file")
    p.add_argument("config", type=Path, help="scenario config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override data.seed from the config")
    p.add_argument("--threads", type=int, default=None,
                   help="FFT worker threads, at most the CPUs this process may "
                        "use (default 1); with solver.etd_check the ETD oracle "
                        "also runs on a thread of its own beside the solve")
    p.add_argument("--out", default=None,
                   help="output directory (beats output.directory)")

    p = sub.add_parser("diagnose",
                       help="recompute the bound report for a stored trajectory")
    p.add_argument("trajectory", type=Path,
                   help="trajectory directory or its manifest.json")
    p.add_argument("config", type=Path,
                   help="config supplying the diagnostics parameters")
    p.add_argument("--threads", type=int, default=None,
                   help="FFT worker threads, at most the CPUs this process may "
                        "use (default 1)")
    p.add_argument("--out", default=None,
                   help="where to write report files (default: trajectory dir)")

    p = sub.add_parser("report",
                       help="emit plot-ready .dat curves from a run directory")
    p.add_argument("artifacts_dir", type=Path)

    sub.add_parser("selftest", help="run quick internal consistency checks")
    return parser


def _print_report_rows(report: BoundReport) -> None:
    label = "eta" if report.mode == "subcritical" else "zeta"
    for i in range(report.n_rows):
        flags = []
        if report.capped[i]:
            flags.append("capped")
        if report.tail_empty[i]:
            flags.append("empty-tail")
        if report.zeta_flagged[i]:
            flags.append(f"{label}>=1")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"  t={gio.format_float(report.times[i])}  "
              f"measured={gio.format_float(report.measured_radius[i])}  "
              f"bound={gio.format_float(report.predictor[i])}  "
              f"ratio={gio.format_float(report.ratio[i])}{suffix}")


def _cmd_solve(args) -> int:
    cfg = override_seed(parse_config(args.config), args.seed)
    for path in stale_partials(resolve_output_dir(cfg, args.out)):
        print(f"warning: {path} is left from a run that was killed; not removed",
              file=sys.stderr)
    artifacts = run_scenario(cfg, out_dir=args.out,
                             base_dir=Path(args.config).parent)
    pic = artifacts.picard
    print(f"solve: converged in at most {pic.iterates} iterations per interval "
          f"(residual {gio.format_float(pic.residual_max)})")
    if artifacts.etd_rel_error is not None:
        print(f"solve: reference integrator agrees to "
              f"{gio.format_float(artifacts.etd_rel_error)}")
    _print_report_rows(artifacts.report)
    print(f"artifacts: {artifacts.out_dir}")
    return 0


def _cmd_diagnose(args) -> int:
    cfg = parse_config(args.config)
    report = diagnose_trajectory(args.trajectory, cfg, out_dir=args.out)
    _print_report_rows(report)
    return 0


def _cmd_report(args) -> int:
    for path in emit_plot_data(args.artifacts_dir):
        print(f"wrote {path}")
    return 0


def _cmd_selftest(args) -> int:
    from .diagnostics import eta_J
    from .operators import (QCoefficients, VelocityField, apply_Q, heat_factor,
                            leray_project_stack, navier_stokes_coeffs,
                            stack_coefficients, velocity_from_stack)
    from .solver import SolverConfig, picard_solve
    from .spectral import (build_grid, forward_transform, hermitian_deviation,
                           inverse_transform, rfftn, to_full)

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)

    grid = build_grid(16)
    f = rng.standard_normal(grid.shape)
    back = inverse_transform(forward_transform(grid, f))
    check("transform round trip", float(np.max(np.abs(back - f))) <= 1e-12)

    t = 0.37
    hf = heat_factor(grid, t)
    check("heat factor", float(np.max(np.abs(hf - np.exp(-t * grid.k_sq)))) <= 1e-13)

    stack = np.zeros((3, hf.size), dtype=complex)
    kept = grid.half_dealias_modes[0]
    stack[:, kept] = rfftn(rng.standard_normal((3,) + grid.shape)).reshape(3, -1)[:, kept]
    stack = leray_project_stack(grid, stack.reshape((3,) + grid.half_shape))
    u = velocity_from_stack(grid, to_full(grid, stack))
    q = apply_Q(navier_stokes_coeffs(), u, u)
    check("nonlinearity divergence-free", q.divergence_deviation() <= 1e-10)
    check("nonlinearity hermitian", hermitian_deviation(stack_coefficients(q)) == 0.0)

    g8 = build_grid(8)
    coeffs = QCoefficients(np.zeros((3,) * 6))
    base = np.zeros((3,) + g8.half_shape, dtype=complex)
    base[0, 0, 2, 0] = 0.5
    base[0, 0, -2 % 8, 0] = 0.5
    u0 = VelocityField.from_half(g8, base)
    traj, rep = picard_solve(u0, coeffs, SolverConfig(t_final=0.01, n_times=5))
    want = base * np.exp(-0.01 * g8.k_sq)
    got = traj.states[-1].half_spectrum()
    check("zero coefficients give the heat flow",
          rep.converged and float(np.max(np.abs(got - want))) <= 1e-14)

    vals = eta_J(traj, (1.0, 10.0, 1000.0), 1.0, 0.01)
    check("tail height nonincreasing in J",
          all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:])))

    print("selftest:", "all checks passed" if failures == 0
          else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised in the main thread so that it takes the interrupt path."""


def _raise_terminated(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("solve", "diagnose") and args.threads is not None:
        usable = usable_cpus()
        if args.threads > usable:
            print(f"error: --threads {args.threads} exceeds the {usable} CPU(s) "
                  f"this process may use", file=sys.stderr)
            return EXIT_CONFIG
        try:
            set_fft_workers(args.threads)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    handler = {"solve": _cmd_solve, "diagnose": _cmd_diagnose,
               "report": _cmd_report, "selftest": _cmd_selftest}[args.command]
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        return handler(args)
    except KeyboardInterrupt as exc:
        # SIGINT or SIGTERM: run_scenario has joined the oracle and removed
        # its partial directory on the way out
        signum = signal.SIGTERM if isinstance(exc, Terminated) else signal.SIGINT
        print(f"error: interrupted ({signum.name})", file=sys.stderr)
        return 128 + signum
    except Exception as exc:
        code = exit_code_for(exc)
        detail = f"{type(exc).__name__}: {exc}" if code == EXIT_FAILURE else exc
        print(f"error: {detail}", file=sys.stderr)
        return code
    finally:
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
