"""In-memory span tracing by rebinding the names gnsflow's modules look up.

Each caller module imports its collaborators by name (``from .operators
import apply_Q_stack``), so replacing ``solver.apply_Q_stack`` with a timing
wrapper traces every call the solver makes without touching the package.
A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span in the same list, or -1 for a root.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path

from gnsflow import diagnostics, operators, runner, solver, spectral
from gnsflow import io as gio


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _written_bytes(args, kwargs, manifest_path) -> int:
    return _dir_bytes(Path(manifest_path).parent)


def _read_bytes(args, kwargs, result) -> int:
    path = Path(kwargs.get("manifest_path", args[0] if args else ""))
    return _dir_bytes(path if path.is_dir() else path.parent)


# (module, attribute it is looked up by, span name, byte counter or None)
PATCHES = (
    (operators, "fftn", "spectral.fft", None),
    (operators, "ifftn", "spectral.fft", None),
    (spectral, "fftn", "spectral.fft", None),
    (spectral, "ifftn", "spectral.fft", None),
    (solver, "weighted_l2_stack", "spectral.wl2", None),
    (diagnostics, "weighted_l2_stack", "spectral.wl2", None),
    (solver, "apply_Q_stack", "operators.q", None),
    (runner, "picard_solve", "solver.picard", None),
    (solver, "mild_residual", "solver.residual", None),
    (runner, "etd_integrate", "solver.etd", None),
    (runner, "sobolev_norm", "diagnostics.norm_series", None),
    (runner, "lebesgue_norm", "diagnostics.norm_series", None),
    (runner, "bound_report", "diagnostics.bound_report", None),
    (diagnostics, "eta_J", "diagnostics.tail", None),
    (diagnostics, "zeta_J", "diagnostics.tail", None),
    (runner, "eta_J", "diagnostics.tail", None),
    (diagnostics, "estimate_radius", "diagnostics.radius", None),
    (runner, "make_initial_data", "initial_data.make", None),
    (gio, "write_trajectory", "io.write_trajectory", _written_bytes),
    (gio, "read_trajectory", "io.read_trajectory", _read_bytes),
)


class Tracer:
    """Collects the spans and byte counts of one traced operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.bytes: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, count_bytes=None):
        # no context manager here: this runs on every FFT call
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count_bytes is not None:
                self.bytes[name] = (self.bytes.get(name, 0)
                                    + count_bytes(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every name in PATCHES to a wrapper; restore on exit."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _, _ in PATCHES]
        try:
            for module, attr, name, count_bytes in PATCHES:
                setattr(module, attr,
                        self.wrap(name, getattr(module, attr), count_bytes))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)


def layer_metrics(spans: list[list], byte_counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals for the spans of one traced operation."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start

    picard_self = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        if name == "solver.picard":
            direct = sum(e - s for n, s, e, p in spans
                         if p == i and n in ("operators.q", "solver.residual"))
            picard_self += (end - start) - direct
    runner_self = sum((end - start) - child_time[i]
                      for i, (_, start, end, parent) in enumerate(spans)
                      if parent == -1)

    q_evals = calls.get("operators.q", 0)
    return {
        "spectral.fft_calls": calls.get("spectral.fft", 0),
        "spectral.fft_s": total.get("spectral.fft", 0.0),
        "spectral.wl2_calls": calls.get("spectral.wl2", 0),
        "spectral.wl2_s": total.get("spectral.wl2", 0.0),
        "operators.q_evals": q_evals,
        "operators.q_s": total.get("operators.q", 0.0),
        "operators.q_ms": (1e3 * total["operators.q"] / q_evals) if q_evals else 0.0,
        "solver.picard_s": total.get("solver.picard", 0.0),
        "solver.picard_self_s": picard_self,
        "solver.residual_s": total.get("solver.residual", 0.0),
        "solver.etd_s": total.get("solver.etd", 0.0),
        "diagnostics.norm_series_s": total.get("diagnostics.norm_series", 0.0),
        "diagnostics.bound_report_s": total.get("diagnostics.bound_report", 0.0),
        "diagnostics.tail_calls": calls.get("diagnostics.tail", 0),
        "diagnostics.radius_s": total.get("diagnostics.radius", 0.0),
        "io.write_trajectory_s": total.get("io.write_trajectory", 0.0),
        "io.read_trajectory_s": total.get("io.read_trajectory", 0.0),
        "io.bytes_written": byte_counts.get("io.write_trajectory", 0),
        "io.bytes_read": byte_counts.get("io.read_trajectory", 0),
        "runner.self_s": runner_self,
    }


def root_breakdown(spans: list[list]) -> dict[str, float]:
    """Seconds of each root's direct children by name, the roots' self time
    and their total: the children plus ``self`` add up to ``total``."""
    out: dict[str, float] = {"total": 0.0, "self": 0.0}
    for i, (_, start, end, parent) in enumerate(spans):
        if parent == -1:
            out["total"] += end - start
            out["self"] += end - start
    for name, start, end, parent in spans:
        if parent >= 0 and spans[parent][3] == -1:
            out[name] = out.get(name, 0.0) + (end - start)
            out["self"] -= end - start
    return out
