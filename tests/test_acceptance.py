"""End-to-end acceptance checks, one test per criterion.

Every test prints a single PASS/FAIL line with the measured numbers
(visible with -s, or in the captured output on failure). The 64^3
scenarios take a couple of minutes each; the whole file runs in well
under half an hour on one core. Criterion order matters only in that
the determinism test at the end re-executes the earlier pipelines.
"""
import gc
import hashlib
import math
import time

import numpy as np
import pytest

import helpers
from gnsflow import io as gio
from gnsflow.diagnostics import (
    beta,
    bilinear_tail_bound_sides,
    bound_report,
    estimate_radius,
    eta_J,
    lambda_critical,
    lambda_subcritical,
    p_gamma,
    smoothing_kernel_bound_sides,
    NormParams,
)
from gnsflow.initial_data import DataParams, make_initial_data
from gnsflow.operators import (
    heat_factor,
    heat_semigroup,
    navier_stokes_coeffs,
    stack_coefficients,
    velocity_from_stack,
)
from gnsflow.solver import SolverConfig, Trajectory, etd_integrate, picard_solve
from gnsflow.spectral import build_grid, forward_transform, inverse_transform

pytestmark = pytest.mark.acceptance


def emit(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel()))


def state_sha(u) -> str:
    data = stack_coefficients(u).astype("<c16").tobytes(order="C")
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_transform_and_semigroup_exactness():
    t0 = time.monotonic()
    grid = build_grid(32)
    rng = np.random.default_rng(11)

    phys = rng.standard_normal(grid.shape)
    back = inverse_transform(forward_transform(grid, phys))
    round_trip = rel_l2(back, phys)

    t = 0.37
    factor = np.asarray(heat_factor(grid, t))
    want = np.exp(-t * np.asarray(grid.k_sq))
    factor_err = float(np.max(np.abs(factor - want) / want))

    ones = np.ones((3,) + grid.shape, dtype=np.complex128)
    u = velocity_from_stack(grid, ones)
    s, r = 0.004, 0.006
    two_step = stack_coefficients(heat_semigroup(heat_semigroup(u, s), r))
    one_step = stack_coefficients(heat_semigroup(u, s + r))
    comp_err = float(np.max(np.abs(two_step - one_step) / np.abs(one_step)))

    elapsed = time.monotonic() - t0
    ok = (round_trip <= 1e-12 and factor_err <= 1e-13
          and comp_err <= 1e-14 and elapsed < 5.0)
    emit("criterion 1 (transform/semigroup exactness)", ok,
         f"round_trip={round_trip:.2e} factor={factor_err:.2e} "
         f"composition={comp_err:.2e} in {elapsed:.2f}s")
    assert round_trip <= 1e-12
    assert factor_err <= 1e-13
    assert comp_err <= 1e-14
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 2

def _run_criterion_2() -> dict:
    t0 = time.monotonic()
    grid = build_grid(32)
    u0 = make_initial_data("taylor_green", grid, DataParams(amplitude=1.0))
    coeffs = navier_stokes_coeffs()
    cfg = SolverConfig(t_final=0.01, n_times=101, quad_order=2, tol=1e-8,
                       gamma=1.0, max_iter=12)
    traj, rep = picard_solve(u0, coeffs, cfg)
    oracle = etd_integrate(u0, coeffs, 0.01, 1e-4)
    a = stack_coefficients(traj.states[-1])
    b = stack_coefficients(oracle)
    rel = rel_l2(a, b)
    summary = gio.dump_json({
        "iterates": rep.iterates,
        "converged": rep.converged,
        "rel_l2_final": gio.json_safe_float(rel),
        "picard_final_sha256": state_sha(traj.states[-1]),
        "oracle_final_sha256": state_sha(oracle),
    })
    return {"iterates": rep.iterates, "converged": rep.converged,
            "rel": rel, "summary": summary,
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def crit2():
    return _run_criterion_2()


def test_criterion_2_cross_integrator_agreement(crit2):
    ok = (crit2["converged"] and crit2["iterates"] <= 12
          and crit2["rel"] <= 1e-6 and crit2["elapsed"] < 300.0)
    emit("criterion 2 (fixed point vs reference integrator)", ok,
         f"iterates={crit2['iterates']} rel_l2={crit2['rel']:.2e} "
         f"in {crit2['elapsed']:.1f}s")
    assert crit2["converged"]
    assert crit2["iterates"] <= 12
    assert crit2["rel"] <= 1e-6
    assert crit2["elapsed"] < 300.0


# ---------------------------------------------------------------- criterion 3

DECAY_RATES = (0.05, 0.1, 0.2, 0.5)


def _run_criterion_3() -> dict:
    # scale-invariant protocol: wavenumber spacing 16/r puts the fit
    # window at r*|k| in [260, 400] for every rate
    t0 = time.monotonic()
    rows = []
    for r in DECAY_RATES:
        grid = build_grid(64, period=2.0 * math.pi * r / 16.0)
        knorm = np.asarray(grid.k_norm)
        profile = (1.0 + knorm) ** -3 * np.exp(-r * knorm)
        profile[0, 0, 0] = 0.0
        u = velocity_from_stack(grid, np.stack([profile.astype(np.complex128)] * 3))
        est = estimate_radius(u, 260.0 / r, 400.0 / r, n_shells=64)
        rows.append((r, est.radius, est.r2))
    lines = ["r,radius,r2"]
    lines.extend(",".join(gio.format_float(v) for v in row) for row in rows)
    return {"rows": rows, "csv": "\n".join(lines) + "\n",
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def crit3():
    return _run_criterion_3()


def test_criterion_3_radius_estimator_calibration(crit3):
    worst_rel = max(abs(radius - r) / r for r, radius, _ in crit3["rows"])
    worst_r2 = min(r2 for _, _, r2 in crit3["rows"])
    elapsed = crit3["elapsed"]
    ok = worst_rel <= 0.05 and worst_r2 >= 0.99 and elapsed < 30.0
    emit("criterion 3 (radius estimator calibration)", ok,
         f"worst rel err={worst_rel:.2%} worst r2={worst_r2:.6f} "
         f"in {elapsed:.2f}s")
    for r, radius, r2 in crit3["rows"]:
        assert abs(radius - r) <= 0.05 * r
        assert r2 >= 0.99
    assert elapsed < 30.0


# ------------------------------------------------------- criteria 4, 5 and 9

SAMPLE_TIMES = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
TAIL_SCALES = (4.0, 8.0, 16.0, 32.0, 64.0)


def _run_criterion_4(tmp_dir) -> dict:
    t0 = time.monotonic()
    grid = build_grid(64, period=2.0 * math.pi / 0.04)
    data = DataParams(amplitude=5e-4, band_lo=0.04, band_hi=2.2,
                      spectral_exponent=3.0)
    u0 = make_initial_data("random_sobolev_tail", grid, data, seed=2024)
    cfg = SolverConfig(t_final=0.01, n_times=101, quad_order=2, tol=1e-8,
                       gamma=1.0, max_iter=16)
    traj, rep = picard_solve(u0, navier_stokes_coeffs(), cfg)
    report = bound_report(traj, gamma=1.0, mode="subcritical",
                          fit_lo=1.0, fit_hi=2.0, sample_times=SAMPLE_TIMES,
                          n_shells=24)

    etas = [eta_J(traj, J, 1.0, 0.01) for J in TAIL_SCALES]
    brute = [helpers.oracle_eta((stack_coefficients(s) for s in traj.states),
                                grid.n_per_axis, grid.period, J, 1.0,
                                grid.mode_weight)
             for J in TAIL_SCALES]

    csv_path = tmp_dir / "report.csv"
    json_path = tmp_dir / "report.json"
    gio.write_bound_report_csv(csv_path, report)
    gio.write_bound_report_json(json_path, report)

    record = {"converged": rep.converged, "iterates": rep.iterates,
              "ratio": np.array(report.ratio), "times": np.array(report.times),
              "capped": np.array(report.capped), "etas": etas, "brute": brute,
              "csv": csv_path.read_bytes(), "json": json_path.read_bytes(),
              "elapsed": time.monotonic() - t0}
    del traj
    gc.collect()
    return record


@pytest.fixture(scope="module")
def crit4(tmp_path_factory):
    return _run_criterion_4(tmp_path_factory.mktemp("crit4"))


def test_criterion_4_subcritical_bound_trend(crit4):
    ratio = crit4["ratio"]
    # times ascend, so "ratio does not decrease as t decreases" over the
    # three smallest times reads right to left
    trend = ratio[0] >= ratio[1] >= ratio[2]
    ok = (crit4["converged"] and bool(np.all(ratio >= 0.9)) and trend
          and not crit4["capped"].any() and crit4["elapsed"] < 1800.0)
    emit("criterion 4 (subcritical radius bound)", ok,
         f"ratios={np.array2string(ratio, precision=2)} "
         f"iterates={crit4['iterates']} in {crit4['elapsed']:.0f}s")
    assert crit4["converged"]
    assert not crit4["capped"].any()
    assert np.all(ratio >= 0.9)
    assert trend
    assert crit4["elapsed"] < 1800.0


def test_criterion_5_tail_functional_laws(crit4):
    etas, brute = crit4["etas"], crit4["brute"]
    mono = all(b <= a * (1.0 + 1e-12) for a, b in zip(etas, etas[1:]))
    # slow-decay data gives roughly J^{-1/2}: factor 1/4 over a 16-fold
    # J increase, accepted with 1.5x headroom
    decay = etas[-1] <= 0.375 * etas[0]
    match = max(abs(e - b) / b for e, b in zip(etas, brute))
    ok = mono and decay and match <= 1e-12
    emit("criterion 5 (tail functional laws)", ok,
         f"eta_64/eta_4={etas[-1] / etas[0]:.4f} brute-force match={match:.2e}")
    assert mono
    assert decay
    assert match <= 1e-12


# ---------------------------------------------------------------- criterion 6

N_TRIALS = 20
N_FIT = 5


def _constant_trajectory(u, times) -> Trajectory:
    return Trajectory(times, tuple(u for _ in times))


def test_criterion_6_inequality_constants():
    t0 = time.monotonic()
    grid = build_grid(64)
    params = NormParams(gamma=1.0, delta=0.1, t_horizon=0.01, lam=4.0)
    times = np.linspace(0.0, 0.01, 5)
    pair_data = DataParams(amplitude=1.0, band_lo=0.5, band_hi=5.0,
                           spectral_exponent=3.0)
    forcing_data = DataParams(amplitude=1.0, band_lo=1.0, band_hi=54.0,
                              spectral_exponent=3.0)
    coeffs = navier_stokes_coeffs()

    def heat_traj(u0):
        return Trajectory(times, tuple(heat_semigroup(u0, float(t))
                                       for t in times))

    bilinear, low, high = [], [], []
    for i in range(N_TRIALS):
        f = heat_traj(make_initial_data("random_sobolev_tail", grid,
                                        pair_data, seed=1000 + i))
        g = heat_traj(make_initial_data("random_sobolev_tail", grid,
                                        pair_data, seed=2000 + i))
        lhs, rhs = bilinear_tail_bound_sides(coeffs, f, g, params, n1=40.0)
        bilinear.append(lhs / rhs)

        F = _constant_trajectory(
            make_initial_data("random_sobolev_tail", grid, forcing_data,
                              seed=3000 + i), times)
        l_lhs, l_rhs = smoothing_kernel_bound_sides(F, params, 20.0, "low")
        h_lhs, h_rhs = smoothing_kernel_bound_sides(F, params, 20.0, "high")
        low.append(l_lhs / l_rhs)
        high.append(h_lhs / h_rhs)

    elapsed = time.monotonic() - t0
    results = {}
    for name, ratios in (("bilinear", bilinear), ("kernel_low", low),
                         ("kernel_high", high)):
        fitted_c = 1.25 * max(ratios[:N_FIT])
        results[name] = max(r / fitted_c for r in ratios[N_FIT:])
    ok = all(v < 1.0 for v in results.values()) and elapsed < 600.0
    emit("criterion 6 (inequality constants hold out of sample)", ok,
         " ".join(f"{k}={v:.3f}" for k, v in results.items())
         + f" in {elapsed:.0f}s")
    for name, worst in results.items():
        assert worst < 1.0, name
    assert elapsed < 600.0


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_critical_predictor():
    t0 = time.monotonic()
    grid = build_grid(64, period=2.0 * math.pi / 0.2)
    data = DataParams(amplitude=0.05, band_lo=0.2, band_hi=6.0,
                      spectral_exponent=2.5)
    u0 = make_initial_data("random_sobolev_tail", grid, data, seed=777)
    cfg = SolverConfig(t_final=0.01, n_times=101, quad_order=2, tol=1e-8,
                       gamma=0.5, max_iter=20)
    traj, rep = picard_solve(u0, navier_stokes_coeffs(), cfg)
    report = bound_report(traj, gamma=0.5, mode="critical",
                          fit_lo=2.0, fit_hi=5.0, sample_times=SAMPLE_TIMES,
                          n_shells=32)
    del traj
    gc.collect()
    elapsed = time.monotonic() - t0

    lam = report.lambda_values
    # times ascend, so lambda increasing as t decreases means a strictly
    # decreasing array; predictor/sqrt(t) = lambda, so the same check
    # covers the unbounded rad/sqrt(t) trend
    lam_grows = bool(np.all(np.diff(lam) < 0.0))
    ratios_ok = bool(np.all(report.ratio >= 0.9))
    ok = (rep.converged and lam_grows and ratios_ok
          and not report.zeta_flagged.any() and elapsed < 1800.0)
    emit("criterion 7 (critical-case predictor)", ok,
         f"lambda={np.array2string(lam, precision=3)} "
         f"ratios={np.array2string(report.ratio, precision=2)} "
         f"in {elapsed:.0f}s")
    assert rep.converged
    assert lam_grows
    assert ratios_ok
    assert not report.zeta_flagged.any()
    assert elapsed < 1800.0


# ---------------------------------------------------------------- criterion 8

HAND_VALUES = (
    ("beta(0.01, 1, 0.5)", beta(0.01, 1.0, 0.5), 0.6931471805599453),
    ("beta(0.01, 1, 0)", beta(0.01, 1.0, 0.0), 1.1512925464970227),
    ("beta(0.01, 1, 1e-6)", beta(0.01, 1.0, 1e-6), 1.1512925464970227),
    ("beta(0.2, 0.75, 0.9)", beta(0.2, 0.75, 0.9), 0.10536051565782628),
    ("beta(0.5, 2, 3)", beta(0.5, 2.0, 3.0), 0.5198603854199589),
    ("lambda_sub(0.01, 1, ln 2)", lambda_subcritical(0.01, 1.0, math.log(2.0)),
     2.865622332666297),
    ("lambda_sub(1e-4, 0.8, 0)", lambda_subcritical(1e-4, 0.8, 0.0),
     2.6188547701249907),
    ("lambda_sub(0.3, 1.5, 2)", lambda_subcritical(0.3, 1.5, 2.0),
     2.962971334045708),
    ("lambda_crit(0.01, 0.5)", lambda_critical(0.01, 0.5), 1.442026886600883),
    ("lambda_crit(0.01, 0)", lambda_critical(0.01, 0.0), 3.7169221888498383),
    ("lambda_crit(0.04, 0.2)", lambda_critical(0.04, 0.2), 2.197342426046132),
    ("lambda_crit(0.2, 0.001)", lambda_critical(0.2, 0.001), 2.197342426046132),
    ("p(0.5)", p_gamma(0.5), 4.0),
    ("p(0.75)", p_gamma(0.75), 5.333333333333333),
    ("p(1)", p_gamma(1.0), 8.0),
    ("p(1.2)", p_gamma(1.2), 4.0),
    ("p(2)", p_gamma(2.0), 4.0),
)


def test_criterion_8_formula_unit_suite():
    t0 = time.monotonic()
    worst = max(abs(got - want) for _, got, want in HAND_VALUES)
    branch_exact = (p_gamma(1.0 + 1e-9) == 4.0 and p_gamma(1.0) == 8.0
                    and p_gamma(0.5) == 4.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and branch_exact and elapsed < 1.0
    emit("criterion 8 (closed-form predictor formulas)", ok,
         f"worst abs err={worst:.2e} over {len(HAND_VALUES)} values "
         f"in {elapsed:.3f}s")
    for name, got, want in HAND_VALUES:
        assert abs(got - want) <= 1e-12, name
    assert branch_exact
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(crit2, crit3, crit4, tmp_path_factory):
    again2 = _run_criterion_2()
    again3 = _run_criterion_3()
    again4 = _run_criterion_4(tmp_path_factory.mktemp("crit4_again"))
    same2 = again2["summary"] == crit2["summary"]
    same3 = again3["csv"] == crit3["csv"]
    same4 = (again4["csv"] == crit4["csv"] and again4["json"] == crit4["json"])
    ok = same2 and same3 and same4
    emit("criterion 9 (byte-identical re-runs)", ok,
         f"integrator summary={same2} calibration table={same3} "
         f"bound report={same4}")
    assert same2
    assert same3
    assert same4
