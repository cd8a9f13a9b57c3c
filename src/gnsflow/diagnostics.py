"""Analyticity-radius diagnostics: weighted norms, tail functionals, bound checks.

The empirical claim under study: the spatial-analyticity radius of the solved
trajectory, measured from the decay slope of shell-maximal coefficient
magnitudes, dominates lambda(t) sqrt(t), where lambda(t) is assembled from
high-frequency tail norms of the trajectory itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import QCoefficients, VelocityField
from .solver import Trajectory, _duhamel_lattice, _lattice_quadrature
from .spectral import (
    EXP_GUARD,
    SpectralField,
    irfftn,
    shell_reduce_max,
    to_half,
    weighted_l2_stack,
    weighted_tail_sums,
)

__all__ = [
    "NormParams",
    "RadiusEstimate",
    "BoundReport",
    "InconclusiveFitError",
    "sobolev_norm",
    "gevrey_norm",
    "eta_J",
    "zeta_J",
    "beta",
    "lambda_subcritical",
    "lambda_critical",
    "p_gamma",
    "X_norm",
    "Y_norm",
    "envelope_norm",
    "lebesgue_norm",
    "estimate_radius",
    "bound_report",
    "bilinear_tail_bound_sides",
    "smoothing_kernel_bound_sides",
]

# Relative floor below which shell maxima count as numerically absent.
RADIUS_FLOOR_FACTOR = 1e-300

# Capped radius when every window shell sits at or below the floor:
# ln(1 / floor-factor) / fit_lo, documented with the capped flag.
CAP_LOG = -math.log(RADIUS_FLOOR_FACTOR)

MIN_FIT_SHELLS = 5
R2_THRESHOLD = 0.9


@dataclass(frozen=True)
class NormParams:
    """Parameters of the time-weighted envelope norms.

    gamma: data regularity; delta: auxiliary smoothing exponent (> 0);
    t_horizon: norm horizon T; lam: frequency-shift parameter lambda (>= 0);
    eta0: short-time quadrature floor used by the kernel-bound checks.
    """

    gamma: float
    delta: float
    t_horizon: float
    lam: float
    eta0: float = 1e-5

    def __post_init__(self) -> None:
        if not (self.gamma >= 0.5):
            raise ValueError(f"gamma must be >= 0.5, got {self.gamma}")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (self.t_horizon > 0.0 and math.isfinite(self.t_horizon)):
            raise ValueError(f"t_horizon must be positive and finite, got {self.t_horizon}")
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (self.eta0 > 0.0):
            raise ValueError(f"eta0 must be positive, got {self.eta0}")

    @property
    def is_subcritical(self) -> bool:
        return self.gamma > 0.5 + 2.0 * self.delta

    def require_subcritical(self) -> None:
        if not self.is_subcritical:
            raise ValueError(
                f"subcritical regime requires gamma > 1/2 + 2*delta; got "
                f"gamma={self.gamma}, delta={self.delta}")


def sobolev_norm(u: VelocityField, s: float, homogeneous: bool) -> float:
    """Lattice-weighted Sobolev norm of a velocity field.

    homogeneous: weight |k|^{2s} (k = 0 contributes only for s = 0);
    otherwise (1 + |k|^2)^s. Reads the half spectrum of the real field u.
    """
    return weighted_l2_stack(u.grid, u.half_spectrum(), s, homogeneous)


def gevrey_norm(u: VelocityField, r: float, s: float) -> float:
    """Exponentially weighted norm || |k|^s e^{r |k|} u_hat ||, lattice measure.

    Returns inf when r * k_max exceeds the overflow guard (700 in natural-log
    units). At r = 0 this reproduces the homogeneous Sobolev norm exactly.
    """
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"Gevrey radius r must be finite and >= 0, got {r}")
    grid = u.grid
    if r * grid.k_max > EXP_GUARD:
        return math.inf
    shift = r * grid.k_max
    return math.exp(shift) * weighted_l2_stack(
        grid, u.half_spectrum(), s, True,
        factor=np.exp(2.0 * (r * to_half(grid.k_norm) - shift)))


def _build_tail_table(traj: Trajectory, gamma: float) -> np.ndarray:
    """Row i, column m: max over tau <= times[i] of the homogeneous-H^gamma
    tail norm with cutoff levels[m] (levels of grid.k_norm_levels)."""
    grid = traj.grid
    tails = np.array([weighted_tail_sums(grid, traj.half_state(i), gamma, True)
                      for i in range(len(traj.times))])
    table = np.maximum.accumulate(np.sqrt(tails), axis=0)
    table.setflags(write=False)
    return table


def _tail_running_max(traj: Trajectory, cutoff: float, gamma: float, t: float) -> float:
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    tol = traj.time_tolerance()
    if t < -tol or t > traj.horizon + tol:
        raise ValueError(f"t = {t} outside the trajectory span [0, {traj.horizon}]")
    key = float(gamma)
    table = traj.tail_tables.get(key)
    if table is None:
        table = traj.tail_tables[key] = _build_tail_table(traj, key)
    levels, _ = traj.grid.k_norm_levels
    # first level >= cutoff: the modes kept are those of a k_norm >= cutoff mask
    col = int(np.searchsorted(levels, cutoff, side="left"))
    if col == levels.size:
        return 0.0
    row = int(np.searchsorted(traj.times, t + tol, side="right")) - 1
    return float(table[row, col])


def eta_J(traj: Trajectory, J: float, gamma: float, t: float) -> float:
    """Running max over [0, t] of the homogeneous-H^gamma tail norm, cutoff 0.01 J.

    A lookup into a per-(trajectory, gamma) table of every state's tail norms
    at every |k| level, built on first use and cached on the trajectory.
    """
    if not (J > 0.0 and math.isfinite(J)):
        raise ValueError(f"J must be positive and finite, got {J}")
    return _tail_running_max(traj, 0.01 * J, gamma, t)


def zeta_J(traj: Trajectory, J: float, gamma: float, t: float) -> float:
    """Running max over [0, t] of the homogeneous-H^gamma tail norm, cutoff J.

    A lookup into the same cached table as eta_J.
    """
    if not (J > 0.0 and math.isfinite(J)):
        raise ValueError(f"J must be positive and finite, got {J}")
    return _tail_running_max(traj, J, gamma, t)


def beta(t: float, gamma: float, eta_value: float) -> float:
    """min(|ln eta|, (gamma - 1/2) |ln t| / 2); the cutoff branch when eta = 0.

    Defined for 0 < t < 1 and gamma >= 1/2.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"beta is defined for 0 < t < 1, got t = {t}")
    if gamma < 0.5:
        raise ValueError(f"beta requires gamma >= 1/2, got {gamma}")
    if not (eta_value >= 0.0 and math.isfinite(eta_value)):
        raise ValueError(f"eta_value must be finite and >= 0, got {eta_value}")
    cutoff = 0.5 * (gamma - 0.5) * abs(math.log(t))
    if eta_value == 0.0:
        return cutoff
    return min(abs(math.log(eta_value)), cutoff)


def lambda_subcritical(t: float, gamma: float, beta_value: float) -> float:
    """sqrt((2 gamma - 1)(|ln t| + ln |ln t|) + 3 beta) for 0 < t < 1/e."""
    if not (0.0 < t < 1.0 / math.e):
        raise ValueError(f"lambda_subcritical is defined for 0 < t < 1/e, got t = {t}")
    if not (gamma > 0.5):
        raise ValueError(f"lambda_subcritical requires gamma > 1/2, got {gamma}")
    if not (beta_value >= 0.0 and math.isfinite(beta_value)):
        raise ValueError(f"beta_value must be finite and >= 0, got {beta_value}")
    abs_ln_t = -math.log(t)
    return math.sqrt((2.0 * gamma - 1.0) * (abs_ln_t + math.log(abs_ln_t))
                     + 3.0 * beta_value)


def lambda_critical(t: float, zeta_value: float) -> float:
    """sqrt(3 min(|ln zeta|, |ln t|)) for 0 < t < 1; 0 when zeta >= 1.

    zeta = 0 falls back to the pure |ln t| branch.
    """
    if not (0.0 < t < 1.0):
        raise ValueError(f"lambda_critical is defined for 0 < t < 1, got t = {t}")
    if not (zeta_value >= 0.0 and math.isfinite(zeta_value)):
        raise ValueError(f"zeta_value must be finite and >= 0, got {zeta_value}")
    if zeta_value >= 1.0:
        return 0.0
    abs_ln_t = -math.log(t)
    if zeta_value == 0.0:
        return math.sqrt(3.0 * abs_ln_t)
    return math.sqrt(3.0 * min(-math.log(zeta_value), abs_ln_t))


def p_gamma(gamma: float) -> float:
    """Integrability exponent: 4 above gamma = 1, else 8 / (3 - 2 gamma)."""
    if gamma < 0.5:
        raise ValueError(f"p_gamma requires gamma >= 1/2, got {gamma}")
    if gamma > 1.0:
        return 4.0
    return 8.0 / (3.0 - 2.0 * gamma)


def envelope_norm(u: VelocityField, t: float, params: NormParams,
                  cutoff: float) -> float:
    """t^{delta/2} || 1_{|k| >= cutoff} |k|^{delta + 1/2}
    e^{lam t |k| / sqrt(T) - lam^2 t / (4 T)} u_hat ||, lattice measure.

    Returns inf when the exponential weight passes the overflow guard.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    grid = u.grid
    lam, T, delta = params.lam, params.t_horizon, params.delta
    drift = lam * t / math.sqrt(T)
    sink = lam * lam * t / (4.0 * T)
    peak_expo = drift * grid.k_max - sink
    if peak_expo > EXP_GUARD:
        return math.inf
    peak = max(peak_expo, 0.0)
    return t ** (0.5 * delta) * math.exp(peak) * weighted_l2_stack(
        grid, u.half_spectrum(), delta + 0.5, True, cutoff=cutoff,
        factor=np.exp(2.0 * (drift * to_half(grid.k_norm) - sink - peak)))


def _trajectory_sup_envelope(traj: Trajectory, params: NormParams,
                             cutoff: float) -> float:
    tol = traj.time_tolerance()
    if traj.horizon < params.t_horizon - tol:
        raise ValueError(
            f"trajectory horizon {traj.horizon} is shorter than the norm "
            f"horizon {params.t_horizon}")
    best = 0.0
    for tau, state in zip(traj.times, traj.states):
        t = float(tau)
        if t > params.t_horizon + tol:
            break
        if t == 0.0:
            continue
        best = max(best, envelope_norm(state, t, params, cutoff))
        if best == math.inf:
            break
    return best


def X_norm(traj: Trajectory, params: NormParams) -> float:
    """Envelope norm with tail cutoff 0.01 lam / sqrt(T) (no cutoff for lam = 0)."""
    cutoff = 0.01 * params.lam / math.sqrt(params.t_horizon)
    return _trajectory_sup_envelope(traj, params, cutoff)


def Y_norm(traj: Trajectory, params: NormParams) -> float:
    """Envelope norm with tail cutoff T^{-1/4}."""
    cutoff = params.t_horizon ** -0.25
    return _trajectory_sup_envelope(traj, params, cutoff)


def lebesgue_norm(u: VelocityField, p: float) -> float:
    """Physical-space L^p norm (cell_volume * sum |u(x)|^p)^{1/p}, |.| Euclidean.

    One batched inverse real transform of the half spectrum of the real field u.
    """
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1, got {p}")
    grid = u.grid
    phys = irfftn(u.half_spectrum())
    np.square(phys, out=phys)
    phys_sq = phys[0]
    phys_sq += phys[1]
    phys_sq += phys[2]
    mag = np.sqrt(phys_sq)
    return float((grid.cell_volume * np.sum(mag**p)) ** (1.0 / p))


class InconclusiveFitError(ValueError):
    """Radius fit could not certify a decay slope; carries the fit evidence."""

    def __init__(self, message: str, *, peaks=None, values=None, slope=None,
                 r2=None, window=None, n_usable=None):
        super().__init__(message)
        self.peaks = peaks
        self.values = values
        self.slope = slope
        self.r2 = r2
        self.window = window
        self.n_usable = n_usable


@dataclass(frozen=True)
class RadiusEstimate:
    """Analyticity radius from the decay of shell-maximal magnitudes.

    radius = -slope of ln(shell max) against |k| over the fit window;
    capped = True means every window shell sat at the numerical floor and
    radius is the documented cap ln(1e300) / fit_lo.
    """

    radius: float
    fit_window: tuple[float, float]
    r2: float
    capped: bool
    n_shells_used: int


def estimate_radius(u: VelocityField, fit_lo: float, fit_hi: float,
                    n_shells: int = 64) -> RadiusEstimate:
    """Least-squares slope of ln(shell-max |u_hat|) over |k| in [fit_lo, fit_hi].

    Shell maxima are taken over the componentwise-max coefficient magnitudes;
    each shell contributes its peak at the |k| where the max is attained.
    Values at or below 1e-300 times the coefficient l2 norm are floored out;
    all-floored windows return the capped estimate. Fewer than 5 usable
    shells, a nonnegative slope, or r^2 < 0.9 raise InconclusiveFitError.
    """
    grid = u.grid
    if not (0.0 <= fit_lo < fit_hi):
        raise ValueError(f"need 0 <= fit_lo < fit_hi, got [{fit_lo}, {fit_hi}]")
    if fit_hi > grid.k_max * (1.0 + 1e-12):
        raise ValueError(f"fit_hi {fit_hi} exceeds the lattice k_max {grid.k_max}")

    mag = np.abs(u.components[0].coeffs)
    for c in u.components[1:]:
        mag = np.maximum(mag, np.abs(c.coeffs))
    shells = shell_reduce_max(SpectralField(grid, mag.astype(np.complex128)), n_shells)

    floor = RADIUS_FLOOR_FACTOR * u.l2_coefficient_norm()
    lo, hi = float(fit_lo), float(fit_hi)
    window = (lo, hi)
    in_window = (~shells.empty
                 & ~np.isnan(shells.peak_wavenumbers)
                 & (shells.peak_wavenumbers >= lo)
                 & (shells.peak_wavenumbers <= hi))
    if not in_window.any():
        raise InconclusiveFitError(
            f"no populated shells inside the fit window [{lo}, {hi}]",
            window=window, n_usable=0)

    usable = in_window & (shells.values > floor)
    n_usable = int(np.count_nonzero(usable))
    if n_usable == 0:
        return RadiusEstimate(radius=CAP_LOG / lo if lo > 0.0 else math.inf,
                              fit_window=window, r2=math.nan, capped=True,
                              n_shells_used=0)
    if n_usable < MIN_FIT_SHELLS:
        raise InconclusiveFitError(
            f"only {n_usable} usable shells in the fit window [{lo}, {hi}] "
            f"(need {MIN_FIT_SHELLS})",
            peaks=shells.peak_wavenumbers[usable], values=shells.values[usable],
            window=window, n_usable=n_usable)

    x = shells.peak_wavenumbers[usable]
    y = np.log(shells.values[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0

    if slope >= 0.0 or r2 < R2_THRESHOLD:
        raise InconclusiveFitError(
            f"shell decay fit not usable: slope {slope:.4g}, r^2 {r2:.4f} "
            f"over [{lo}, {hi}]",
            peaks=x, values=shells.values[usable], slope=float(slope),
            r2=float(r2), window=window, n_usable=n_usable)
    return RadiusEstimate(radius=float(-slope), fit_window=window, r2=float(r2),
                          capped=False, n_shells_used=n_usable)


@dataclass(frozen=True)
class BoundReport:
    """Row-per-sample-time comparison measured radius vs lambda(t) sqrt(t).

    Arrays are aligned with `times` (the snapped lattice times). For critical
    mode, `beta_values` and `k_t` are NaN and `eta_or_zeta` holds zeta.
    ratio is +inf when the radius was capped or the predictor degenerated to 0.
    """

    mode: str
    gamma: float
    fit_lo: float
    fit_hi: float
    n_shells: int
    requested_times: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    eta_or_zeta: np.ndarray = field(repr=False)
    beta_values: np.ndarray = field(repr=False)
    lambda_values: np.ndarray = field(repr=False)
    predictor: np.ndarray = field(repr=False)
    measured_radius: np.ndarray = field(repr=False)
    ratio: np.ndarray = field(repr=False)
    capped: np.ndarray = field(repr=False)
    r2: np.ndarray = field(repr=False)
    tail_empty: np.ndarray = field(repr=False)
    zeta_flagged: np.ndarray = field(repr=False)
    k_t: np.ndarray = field(repr=False)
    grid_n: int = 0
    grid_period: float = 0.0

    @property
    def n_rows(self) -> int:
        return len(self.times)


def bound_report(traj: Trajectory, gamma: float, mode: str, fit_lo: float,
                 fit_hi: float, sample_times: Sequence[float],
                 n_shells: int = 32) -> BoundReport:
    """Evaluate the radius lower bound lambda(t) sqrt(t) against the trajectory.

    mode "subcritical": J = t^{-1/2}, eta -> beta -> lambda_subcritical
    (requires gamma > 1/2). mode "critical": J = t^{-1/4}, zeta ->
    lambda_critical (requires gamma = 1/2). Sample times snap to the nearest
    lattice time; the snapped value is used and echoed. Radius fits propagate
    InconclusiveFitError.
    """
    if mode not in ("subcritical", "critical"):
        raise ValueError(f"mode must be 'subcritical' or 'critical', got {mode!r}")
    if mode == "subcritical" and not gamma > 0.5:
        raise ValueError(f"subcritical mode requires gamma > 1/2, got {gamma}")
    if mode == "critical" and abs(gamma - 0.5) > 1e-12:
        raise ValueError(f"critical mode requires gamma = 1/2, got {gamma}")
    requested = np.asarray(list(sample_times), dtype=np.float64)
    if requested.size == 0:
        raise ValueError("sample_times must be non-empty")

    grid = traj.grid
    m = requested.size
    snapped = np.empty(m)
    eta_vals = np.empty(m)
    beta_vals = np.full(m, math.nan)
    lam_vals = np.empty(m)
    predictor = np.empty(m)
    measured = np.empty(m)
    ratio = np.empty(m)
    capped = np.zeros(m, dtype=bool)
    r2 = np.full(m, math.nan)
    tail_empty = np.zeros(m, dtype=bool)
    zeta_flagged = np.zeros(m, dtype=bool)
    k_t = np.full(m, math.nan)

    for i, t_req in enumerate(requested):
        idx = traj.index_at_time(float(t_req))
        t = float(traj.times[idx])
        if t <= 0.0:
            raise ValueError("sample times must be positive")
        snapped[i] = t
        if mode == "subcritical":
            J = t**-0.5
            effective_cutoff = 0.01 * J
            eta_vals[i] = eta_J(traj, J, gamma, t)
            beta_vals[i] = beta(t, gamma, eta_vals[i])
            lam_vals[i] = lambda_subcritical(t, gamma, beta_vals[i])
            k_t[i] = 3.0 * beta_vals[i] / (2.0 * gamma - 1.0)
        else:
            J = t**-0.25
            effective_cutoff = J
            eta_vals[i] = zeta_J(traj, J, gamma, t)
            zeta_flagged[i] = eta_vals[i] >= 1.0
            lam_vals[i] = lambda_critical(t, eta_vals[i])
        tail_empty[i] = effective_cutoff > grid.k_max
        predictor[i] = lam_vals[i] * math.sqrt(t)
        est = estimate_radius(traj.states[idx], fit_lo, fit_hi, n_shells)
        measured[i] = est.radius
        capped[i] = est.capped
        r2[i] = est.r2
        if est.capped or predictor[i] == 0.0:
            ratio[i] = math.inf
        else:
            ratio[i] = measured[i] / predictor[i]

    return BoundReport(
        mode=mode, gamma=float(gamma), fit_lo=float(fit_lo), fit_hi=float(fit_hi),
        n_shells=int(n_shells), requested_times=requested, times=snapped,
        eta_or_zeta=eta_vals, beta_values=beta_vals, lambda_values=lam_vals,
        predictor=predictor, measured_radius=measured, ratio=ratio,
        capped=capped, r2=r2, tail_empty=tail_empty, zeta_flagged=zeta_flagged,
        k_t=k_t, grid_n=grid.n_per_axis, grid_period=grid.period)


def bilinear_tail_bound_sides(coeffs: QCoefficients, f: Trajectory, g: Trajectory,
                              params: NormParams, n1: float,
                              quad_order: int = 3) -> tuple[float, float]:
    """Both sides of the high-frequency smoothing estimate for B(f, g).

    LHS: sup over lattice t in (0, T] of the envelope norm (tail cutoff
    0.1 * n1) of the Duhamel integral of Q(f, g). RHS: the structural bound
    assembled from L^infty_T H^gamma norms, their high parts (cutoff
    0.01 * n1), and the X norms of f and g; returned without any fitted
    constant.
    """
    gamma, delta, T, lam, eta0 = (params.gamma, params.delta, params.t_horizon,
                                  params.lam, params.eta0)
    if lam <= 0.0:
        raise ValueError("the bilinear bound needs lam > 0")
    grid = f.grid
    tol = f.time_tolerance()
    count = len(f.times)

    lhs = 0.0
    b_iter = _duhamel_lattice(coeffs, grid, f.times,
                              (f.half_state(i) for i in range(count)), quad_order,
                              (g.half_state(i) for i in range(count)))
    for t, b in zip(f.times, b_iter):
        t = float(t)
        if t == 0.0 or t > T + tol:
            continue
        lhs = max(lhs, envelope_norm(VelocityField.from_half(grid, b), t, params,
                                     0.1 * n1))

    def sup_h_gamma(traj, cutoff=0.0):
        return max(weighted_l2_stack(grid, traj.half_state(i), gamma, homogeneous=False,
                                     cutoff=cutoff) for i in range(count))

    f_full = sup_h_gamma(f)
    g_full = sup_h_gamma(g)
    f_high = sup_h_gamma(f, cutoff=0.01 * n1)
    g_high = sup_h_gamma(g, cutoff=0.01 * n1)
    x_f = X_norm(f, params)
    x_g = X_norm(g, params)

    term1 = ((math.exp(4.0 * eta0 * lam**2) + lam**-delta)
             * lam ** -(gamma - 0.5 + delta)
             * T ** (0.5 * (gamma - 0.5 + 2.0 * delta))
             * (f_full * g_high + f_high * g_full))
    term2 = lam**-delta * math.exp(0.25 * lam**2) * x_f * x_g
    term3 = (lam ** (2.0 - delta) * T ** (0.5 * delta)
             * (1.0 + lam ** (0.5 + delta + gamma)
                * T ** (0.5 * (gamma - 0.5 - delta))
                * math.exp(0.01 * lam**2))
             * (g_full * x_f + f_full * x_g))
    return lhs, term1 + term2 + term3


def smoothing_kernel_bound_sides(F: Trajectory, params: NormParams, n0: float,
                                 region: str, quad_order: int = 3) -> tuple[float, float]:
    """Both sides of the short-time kernel estimates for a forcing trajectory.

    region "low": LHS weights 1_{|k| <= 2 n0} e^{n0^2 s} inside the time
    integral over [eta0 t, t]; region "high": 1_{|k| >= 2 n0}
    e^{-(t - s)|k|^2 / 10}. Both carry |k|^{3/2 + delta} and the t^{delta/2}
    prefactor, sup over lattice t in (0, T]. RHS (shared):
    lam^{-delta} e^{n0^2 T} sup_s s^delta ||F(s)||_{L^{3/(2(1-delta))}}.
    """
    if region not in ("low", "high"):
        raise ValueError(f"region must be 'low' or 'high', got {region!r}")
    delta, T, lam, eta0 = params.delta, params.t_horizon, params.lam, params.eta0
    if lam <= 0.0:
        raise ValueError("the kernel bound needs lam > 0")
    grid = F.grid
    tol = F.time_tolerance()
    k_sq = to_half(grid.k_sq)
    k_norm = to_half(grid.k_norm)
    if region == "low":
        mask = k_norm <= 2.0 * n0
    else:
        mask = k_norm >= 2.0 * n0

    def state_at(j):
        return (F.half_state(j),)

    lhs = 0.0
    for t in F.times:
        t = float(t)
        if t == 0.0 or t > T + tol:
            continue
        if region == "low":
            def kernel(s):
                return math.exp(n0**2 * s)
        else:
            def kernel(s, _t=t):
                return np.exp(-(_t - s) * k_sq / 10.0)
        integral = _lattice_quadrature(F.times, state_at, eta0 * t, t, quad_order,
                                       kernel, lambda f: f)
        lhs = max(lhs, t ** (0.5 * delta) * weighted_l2_stack(
            grid, integral, 1.5 + delta, True, factor=mask))

    p = 3.0 / (2.0 * (1.0 - delta))
    sup_forcing = 0.0
    for t, state in zip(F.times, F.states):
        t = float(t)
        if t == 0.0 or t > T + tol:
            continue
        sup_forcing = max(sup_forcing, t**delta * lebesgue_norm(state, p))
    rhs = lam**-delta * math.exp(n0**2 * T) * sup_forcing
    return lhs, rhs
