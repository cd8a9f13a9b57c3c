"""Workload definitions: each one is a gnsflow scenario text built from a seed.

The acceptance scenarios of criteria 4 and 7 run at 64^3. Here the grid is
smaller and the box period is scaled so that the wavenumber spacing grows by
64/n. The largest wavenumber, the data band's upper edge and the radius fit
window are therefore those of the acceptance runs. The lower band edge sits
just above the (coarser) spacing, as it does in the acceptance scenarios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

T_FINAL = 0.01
# the criterion-4 sample times, on the 101-point lattice of criteria 4 and 7
CRITERION_TIMES = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
# the nearest times on a 51-point lattice
COARSE_TIMES = (2e-4, 4e-4, 1e-3, 3e-3, 1e-2)
# 18 lattice times from 1e-4 to 1e-2, roughly geometric
DENSE_TIMES = tuple(k * 1e-4 for k in (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20,
                                         25, 32, 40, 50, 63, 80, 100))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    n_times: int
    default_seed: int
    op: str  # "solve": timed solve, diagnose, report; "rediagnose": diagnose, report
    _template: str

    def scenario_text(self, seed: int) -> str:
        return self._template.format(seed=seed)

    def trajectory_bytes(self) -> int:
        """T * 3 * n^3 complex128 coefficients, the size of one stored run."""
        return self.n_times * 3 * self.n**3 * 16


def _times(values) -> str:
    return ", ".join(repr(round(v, 10)) for v in values)


def _subcritical(n: int, n_times: int, sample_times) -> str:
    spacing = 0.04 * 64 / n
    return "\n".join((
        f"grid.n = {n}",
        f"grid.period = {2.0 * math.pi / spacing!r}",
        "physics.coefficients = navier_stokes",
        "physics.gamma = 1.0",
        "data.kind = random_sobolev_tail",
        "data.amplitude = 5e-4",
        f"data.band_lo = {round(spacing + 5e-4, 4)!r}",
        "data.band_hi = 2.2",
        "data.spectral_exponent = 3.0",
        "data.seed = {seed}",
        f"solver.t_final = {T_FINAL!r}",
        f"solver.n_times = {n_times}",
        "solver.quad_order = 2",
        "solver.tol = 1e-8",
        "solver.max_iter = 16",
        "diagnostics.mode = subcritical",
        "diagnostics.fit_lo = 1.0",
        "diagnostics.fit_hi = 2.0",
        "diagnostics.n_shells = 24",
        f"diagnostics.sample_times = {_times(sample_times)}",
        "output.formats = csv, json",
    )) + "\n"


def _critical_etd(n: int, n_times: int, sample_times) -> str:
    spacing = 0.2 * 64 / n
    return "\n".join((
        f"grid.n = {n}",
        f"grid.period = {2.0 * math.pi / spacing!r}",
        "physics.coefficients = navier_stokes",
        "physics.gamma = 0.5",
        "data.kind = random_sobolev_tail",
        "data.amplitude = 0.05",
        f"data.band_lo = {round(spacing + 5e-4, 4)!r}",
        "data.band_hi = 6.0",
        "data.spectral_exponent = 2.5",
        "data.seed = {seed}",
        f"solver.t_final = {T_FINAL!r}",
        f"solver.n_times = {n_times}",
        "solver.quad_order = 2",
        "solver.tol = 1e-8",
        "solver.max_iter = 20",
        "solver.etd_check = true",
        "solver.dt = 2e-4",
        "solver.oracle_tol = 1e-6",
        "diagnostics.mode = critical",
        "diagnostics.fit_lo = 2.0",
        "diagnostics.fit_hi = 5.0",
        "diagnostics.n_shells = 32",
        f"diagnostics.sample_times = {_times(sample_times)}",
        "output.formats = csv, json",
    )) + "\n"


# BENCHMARK.json records why each workload was chosen. The critical
# workload needs 24^3: at 20^3 some seeds give an inconclusive radius fit.
# Its ETD step is 2e-4 (200 Q evaluations, not the acceptance run's 400) so
# that a run holds enough solves for a steady median.
WORKLOADS = {w.name: w for w in (
    Workload(name="solve-sub20", n=20, n_times=101, default_seed=2024,
             op="solve", _template=_subcritical(20, 101, CRITERION_TIMES)),
    Workload(name="solve-crit24-etd", n=24, n_times=51, default_seed=777,
             op="solve", _template=_critical_etd(24, 51, COARSE_TIMES)),
    Workload(name="rediagnose20", n=20, n_times=101, default_seed=2024,
             op="rediagnose", _template=_subcritical(20, 101, DENSE_TIMES)),
)}
