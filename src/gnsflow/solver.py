"""Mild-solution machinery: Duhamel integrals, Picard iteration, ETD oracle.

The integral equation solved is u(t) = e^{tL} u0 + B(u, u)(t) with
B(u, v)(t) = int_0^t e^{(t-s)L} Q(u(s), v(s)) ds and L the Laplacian (unit
viscosity). Trajectories are piecewise linear in their spectral coefficients
between lattice times; Duhamel integrals use composite Gauss-Legendre
quadrature against the exact per-mode heat kernel.

picard_solve marches the lattice causally (windowed waveform relaxation):
interval [t_i, t_{i+1}] solves its own small fixed point
u_{i+1} = e^{hL} u_i + int_{t_i}^{t_{i+1}} e^{(t_{i+1}-s)L} Q(u(s)) ds before
the next interval starts, from a cubic extrapolation of the states before
it. The defect each interval leaves behind is carried forward under the heat
semigroup, which yields the per-time mild residual as a by-product of the
march; mild_residual recomputes it independently.

etd_integrate is the independent oracle: an integrating-factor RK4 run that
returns the field at its final time only.

The march, mild_residual and the ETD steps hold states as the half spectrum
(3, n, n, n//2+1) of the real fields. Q is evaluated from physical values
(operators.apply_Q_stack): the march transforms each iterate once and
interpolates in physical space, since irfftn is linear; mild_residual, the
Duhamel integrals and ETD transform every state they hand to Q. A
Trajectory holds its states as the heat flow of the initial data plus
increments on a band of half-spectrum modes: state i is
e^{t_i L} u0 + B_i, and the march's B_i lives on the 2/3-rule kept modes
(Q's output is dealiased and the heat factors are diagonal), so it stores
B_i there only. States are rebuilt on demand as transient half stacks
(Trajectory.half_state) or full views (Trajectory.states).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable

import numpy as np

from .operators import QCoefficients, VelocityField, apply_Q_stack, heat_factor
from .spectral import Grid, irfftn, plane_pairs, weighted_l2_stack

__all__ = [
    "SolverConfig",
    "Trajectory",
    "PicardReport",
    "BlowupError",
    "duhamel_B",
    "picard_solve",
    "etd_integrate",
    "mild_residual",
]

# Picard divergence guard: bail out when the iterate distance exceeds this
# multiple of (1 + the initial-data norm).
DIVERGENCE_FACTOR = 1e8

# ETD blow-up guard: largest tolerated coefficient growth factor.
BLOWUP_FACTOR = 1e6


class BlowupError(RuntimeError):
    """The explicit integrator left the resolvable regime."""

    def __init__(self, message: str, time: float, magnitude: float):
        super().__init__(message)
        self.time = time
        self.magnitude = magnitude


@dataclass(frozen=True)
class SolverConfig:
    """Picard parameters.

    t_final: horizon T; n_times: lattice points including t = 0; quad_order:
    Gauss-Legendre nodes per lattice interval; tol: Picard stopping threshold
    on the sup-in-time inhomogeneous Sobolev distance of order gamma;
    max_iter: iterate cap.
    """

    t_final: float
    n_times: int = 33
    quad_order: int = 2
    tol: float = 1e-8
    gamma: float = 1.0
    max_iter: int = 16

    def __post_init__(self) -> None:
        if not (self.t_final > 0.0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if not isinstance(self.n_times, int) or self.n_times < 2:
            raise ValueError(f"n_times must be an int >= 2, got {self.n_times!r}")
        if not isinstance(self.quad_order, int) or self.quad_order < 1:
            raise ValueError(f"quad_order must be an int >= 1, got {self.quad_order!r}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an int >= 1, got {self.max_iter!r}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_times)


@lru_cache(maxsize=8)
def band_modes(grid: Grid, kind: str) -> np.ndarray:
    """Read-only flat half-spectrum index of a band kind.

    "kept": the 2/3-rule kept modes (Grid.half_dealias_modes), where a
    solver's increments live; "all": every half-spectrum mode.
    """
    if kind == "kept":
        return grid.half_dealias_modes[0]
    if kind != "all":
        raise ValueError(f"band kind must be 'kept' or 'all', got {kind!r}")
    arr = np.arange(math.prod(grid.half_shape))
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=8)
def band_plane_pairs(grid: Grid, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """spectral.plane_pairs of band_modes(grid, kind), each pair once (first <= second)."""
    plane, partner = plane_pairs(grid, band_modes(grid, kind))
    once = plane <= partner
    plane, partner = plane[once], partner[once]
    for arr in (plane, partner):
        arr.setflags(write=False)
    return plane, partner


@lru_cache(maxsize=8)
def _stack_index(grid: Grid, kind: str) -> np.ndarray:
    """Read-only flat index of the band's modes in all three components of a
    (3, n, n, n//2+1) stack, component by component (one flat take or
    scatter is much faster than a 2-D fancy index)."""
    size = math.prod(grid.half_shape)
    arr = (band_modes(grid, kind) + size * np.arange(3)[:, None]).ravel()
    arr.setflags(write=False)
    return arr


class Trajectory:
    """States on a strictly increasing time lattice starting at 0.

    State i is e^{t_i L} u0 + scatter(band, increments[i]): u0 is a half
    stack (3, n, n, n//2+1), band a read-only flat index into the half
    spectrum (band_modes) and increments a (T, 3, len(band)) array.
    Trajectory(times, states) stores u0 = 0 with the whole half band, so each
    state's half spectrum comes back bit for bit; picard_solve and
    io.read_trajectory build theirs with from_increments.

    Diagnostics cache tables derived from the states on the instance, so the
    arrays are read-only.
    """

    def __init__(self, times, states) -> None:
        states = tuple(states)
        if not states:
            raise ValueError("trajectory must start at t = 0")
        grid = states[0].grid
        if any(s.grid != grid for s in states[1:]):
            raise ValueError("all trajectory states must share one grid")
        increments = np.empty((len(states), 3, math.prod(grid.half_shape)),
                              dtype=np.complex128)
        for inc, state in zip(increments, states):
            inc[...] = state.half_spectrum().reshape(3, -1)
        self._init(grid, times, np.zeros((3,) + grid.half_shape, dtype=np.complex128),
                   "all", increments)

    @classmethod
    def from_increments(cls, grid: Grid, times, u0: np.ndarray, increments: np.ndarray,
                        band: str = "kept") -> "Trajectory":
        """A trajectory from u0's half stack and the increments on band_modes(grid, band)."""
        traj = cls.__new__(cls)
        traj._init(grid, times, u0, band, increments)
        return traj

    def _init(self, grid: Grid, times, u0: np.ndarray, band: str,
              increments: np.ndarray) -> None:
        t = np.array(times, dtype=np.float64)
        if t.ndim != 1 or len(t) != len(increments):
            raise ValueError("times and states must align one-to-one")
        if len(t) < 1 or t[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        modes = band_modes(grid, band)
        if u0.shape != (3,) + grid.half_shape:
            raise ValueError(f"u0 half stack shape {u0.shape} does not match grid")
        if increments.shape[1:] != (3, modes.size):
            raise ValueError(f"increments shape {increments.shape} does not match "
                             f"the {band!r} band of {modes.size} modes")
        for arr in (t, u0, increments):
            arr.setflags(write=False)
        self.grid = grid
        self.times = t
        self.u0 = u0
        self.band_kind = band
        self.band = modes
        self.increments = increments
        self._flows = bool(u0.any())

    def half_state(self, i: int) -> np.ndarray:
        """State i as a new (3, n, n, n//2+1) half stack."""
        grid = self.grid
        index = _stack_index(grid, self.band_kind)
        if self._flows:
            out = heat_factor(grid, float(self.times[i]), half=True) * self.u0
            out.reshape(-1)[index] += self.increments[i].reshape(-1)
        else:
            out = np.zeros((3,) + grid.half_shape, dtype=np.complex128)
            out.reshape(-1)[index] = self.increments[i].reshape(-1)
        return out

    @property
    def states(self) -> "_States":
        """The states, each rebuilt on access as a VelocityField (from_half)."""
        return _States(self)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def time_tolerance(self) -> float:
        return 1e-9 * max(1.0, self.horizon)

    def index_at_time(self, t: float) -> int:
        """Index of the lattice time matching t within the snap tolerance."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[idx]) - t) > self.time_tolerance():
            raise ValueError(
                f"time {t!r} is not on the trajectory lattice "
                f"(nearest lattice time: {float(self.times[idx])!r})")
        return idx

    @cached_property
    def tail_tables(self) -> dict[float, np.ndarray]:
        """Per-gamma running-max tail tables, filled by the diagnostics on first use."""
        return {}


class _States(Sequence):
    """A trajectory's states, each rebuilt on access as a VelocityField view."""

    def __init__(self, traj: Trajectory) -> None:
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError("trajectory state index out of range")
        traj = self._traj
        return VelocityField.from_half(traj.grid, traj.half_state(i % len(self)))


def _check_same_lattice(u: Trajectory, v: Trajectory) -> None:
    if u.grid != v.grid:
        raise ValueError("trajectories must share one grid")
    if len(u.times) != len(v.times) or np.max(np.abs(u.times - v.times)) > u.time_tolerance():
        raise ValueError("trajectories must share one time lattice")


@lru_cache(maxsize=16)
def _gauss_nodes(order: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the order-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _lattice_quadrature(times: np.ndarray, state_at: Callable[[int], Sequence[np.ndarray]],
                        lo: float, hi: float, quad_order: int, kernel,
                        integrand) -> np.ndarray:
    """int_lo^hi kernel(s) * integrand(*states(s)) ds over a time lattice.

    state_at(j) gives the argument arrays at lattice time times[j] (half
    spectra or physical values, whatever integrand takes); states(s)
    interpolates each linearly in s between lattice times, and each endpoint
    is fetched once per interval. Every lattice interval meeting [lo, hi]
    gets a quad_order Gauss-Legendre rule; kernel(s) is a scalar or a
    per-mode array. The accumulator takes the shape of integrand's output,
    which need not be the endpoints' layout. integrand must return a new
    array: it is scaled in place.
    """
    acc = None
    for i in range(len(times) - 1):
        t_lo, t_hi = float(times[i]), float(times[i + 1])
        seg_lo, seg_hi = max(t_lo, lo), min(t_hi, hi)
        if seg_hi <= seg_lo:
            continue
        half = 0.5 * (seg_hi - seg_lo)
        mid = 0.5 * (seg_hi + seg_lo)
        inv_h = 1.0 / (t_hi - t_lo)
        ends = tuple(zip(state_at(i), state_at(i + 1)))
        for x, w in _gauss_nodes(quad_order):
            s = mid + half * x
            theta = (s - t_lo) * inv_h
            states = []
            for left, right in ends:
                state = (1.0 - theta) * left
                state += theta * right
                states.append(state)
            term = integrand(*states)
            term *= (w * half) * kernel(s)
            if acc is None:
                acc = term
            else:
                acc += term
    if acc is None:
        # [lo, hi] meets no interval: a zero of the integrand's shape
        acc = np.zeros_like(integrand(*state_at(0)))
    return acc


def _q_of_halves(coeffs: QCoefficients, grid: Grid, *halves: np.ndarray) -> np.ndarray:
    """apply_Q_stack on half stacks, each transformed to physical values here."""
    return apply_Q_stack(coeffs, grid, *(irfftn(h) for h in halves))


def duhamel_B(coeffs: QCoefficients, u: Trajectory, v: Trajectory, t_eval: float,
              quad_order: int = 2) -> VelocityField:
    """B(u, v)(t_eval) = int_0^{t_eval} e^{(t_eval - s)L} Q(u(s), v(s)) ds.

    Trajectory coefficients are interpolated linearly in s between lattice
    times; each (partial) lattice interval gets a quad_order Gauss-Legendre
    rule with the heat kernel evaluated exactly at the nodes.
    """
    _check_same_lattice(u, v)
    if not isinstance(quad_order, int) or quad_order < 1:
        raise ValueError(f"quad_order must be an int >= 1, got {quad_order!r}")
    if t_eval < 0.0 or t_eval > u.horizon + u.time_tolerance():
        raise ValueError(f"t_eval {t_eval} outside the trajectory span [0, {u.horizon}]")
    grid = u.grid
    if u is v:
        def state_at(j):
            return (u.half_state(j),)
    else:
        def state_at(j):
            return (u.half_state(j), v.half_state(j))
    acc = _lattice_quadrature(u.times, state_at, 0.0, t_eval, quad_order,
                              lambda s: heat_factor(grid, t_eval - s, half=True),
                              partial(_q_of_halves, coeffs, grid))
    return VelocityField.from_half(grid, acc)


def _duhamel_lattice(coeffs: QCoefficients, grid: Grid, times: np.ndarray,
                     states: Iterable[np.ndarray], quad_order: int,
                     v_states: Iterable[np.ndarray] | None = None):
    """Yield the half spectrum of B(u, v)(t_i) at every lattice time.

    states (and v_states) yield the lattice-time half stacks in order.
    Semigroup recursion:
    B_{i+1} = e^{-h L} B_i + int_{t_i}^{t_{i+1}} e^{-(t_{i+1}-s)L} Q ds, which
    matches the direct integral exactly for the per-mode heat kernel.
    v_states = None means v = u. Q's arguments are transformed at every node.
    """
    integrand = partial(_q_of_halves, coeffs, grid)
    walks = [iter(states)] if v_states is None else [iter(states), iter(v_states)]
    acc = np.zeros((3,) + grid.half_shape, dtype=np.complex128)
    yield acc
    ends = [tuple(next(w) for w in walks)]
    for i in range(len(times) - 1):
        t_lo, t_hi = float(times[i]), float(times[i + 1])
        ends.append(tuple(next(w) for w in walks))
        acc = heat_factor(grid, t_hi - t_lo, half=True) * acc + _lattice_quadrature(
            times[i:i + 2], ends.__getitem__, t_lo, t_hi, quad_order,
            lambda s: heat_factor(grid, t_hi - s, half=True), integrand)
        ends.pop(0)
        yield acc


@dataclass(frozen=True)
class PicardReport:
    """Outcome of the interval march.

    deltas holds every H^gamma update norm in march order; interval_iterates
    the number of updates made on each interval attempted (their sum is
    len(deltas)); iterates the largest of those. contraction_ratios holds,
    per interval, its last update norm over the one before it (nan for an
    interval with one update). residuals is the mild residual at each
    returned lattice time and residual_max its maximum (inf after
    divergence).
    """

    iterates: int
    deltas: tuple[float, ...]
    residual_max: float
    converged: bool
    diverged: bool
    tol: float
    gamma: float
    interval_iterates: tuple[int, ...]
    contraction_ratios: tuple[float, ...]
    residuals: tuple[float, ...] = field(repr=False)


def _start_guess(times: np.ndarray, recent: Sequence[np.ndarray], i: int) -> np.ndarray:
    """Lagrange extrapolation to times[i+1] through the states at the last
    min(i + 1, 4) lattice times ending at times[i]: linear at i = 1,
    quadratic at i = 2, cubic from i = 3 on. recent holds those states in
    time order."""
    nodes = range(max(0, i - 3), i + 1)
    target = float(times[i + 1])
    guess = np.zeros_like(recent[-1])
    for j, state in zip(nodes, recent):
        weight = math.prod((target - float(times[m])) / (float(times[j]) - float(times[m]))
                           for m in nodes if m != j)
        guess += weight * state
    return guess


def _increment(grid: Grid, t: float, u0: np.ndarray, state: np.ndarray) -> np.ndarray:
    """take(state - e^{tL} u0, kept band): a half state's increment over the
    heat flow, shaped (3, len(band))."""
    index = _stack_index(grid, "kept")
    flow = heat_factor(grid, t, half=True) * u0
    inc = state.reshape(-1).take(index)
    inc -= flow.reshape(-1).take(index)
    return inc.reshape(3, -1)


def _finite_half(u0: VelocityField) -> np.ndarray:
    """A copy of u0's half spectrum; ValueError if it is not finite (bad
    data, not a failure of the solver)."""
    u0_half = np.array(u0.half_spectrum())
    if not np.all(np.isfinite(u0_half)):
        raise ValueError("u0 has non-finite coefficients")
    return u0_half


def picard_solve(u0: VelocityField, coeffs: QCoefficients,
                 config: SolverConfig) -> tuple[Trajectory, PicardReport]:
    """Solve u = e^{tL} u0 + B(u, u) on the config lattice, one interval at a time.

    Interval i, h = t_{i+1} - t_i, starts from the heat flow e^{hL} u0
    (i = 0) or a Lagrange extrapolation of the states before it (cubic from
    i = 3 on, see _start_guess), and iterates w <- e^{hL} u_i +
    int_{t_i}^{t_{i+1}} e^{(t_{i+1}-s)L} Q(u(s)) ds with u linear between
    u_i and w. Each round transforms w to physical values once; Q's
    argument at a Gauss node is (1 - theta) phys(u_i) + theta phys(w), where
    phys(u_i) is the transform of the previous interval's accepted iterate
    (of u0 at i = 0). It stops when the H^gamma update is at most
    min(tol / 100, 1e-13 * the update's norm) and accepts w, the iterate
    whose Q values were evaluated. The defect d_i = w - w'
    accumulates as R_{i+1} = e^{hL} R_i + d_i, which is the mild residual
    u(t_{i+1}) - e^{t_{i+1}L} u0 - B(u, u)(t_{i+1}) under the same
    quadrature, so the residual at every lattice time comes with the march.

    Non-finite u0 raises ValueError before any work. A non-finite update or
    one above the divergence guard sets diverged (residual_max = inf); an
    interval still above the stop threshold after max_iter updates leaves
    the result not converged. Either stops the march, and the trajectory
    then ends at that interval's last iterate.
    The march holds the four latest states only; the trajectory keeps each
    accepted w as its increment over e^{tL} u0 on the kept modes.
    """
    grid = u0.grid
    times = config.times
    gamma = config.gamma
    u0_half = _finite_half(u0)

    def norm(stack: np.ndarray) -> float:
        return weighted_l2_stack(grid, stack, gamma, homogeneous=False)

    guard = DIVERGENCE_FACTOR * (1.0 + norm(u0_half))
    # heat factors by exact time offset (h and t_{i+1} - s): a linspace
    # lattice repeats them only up to rounding, so a 101-point lattice at
    # T = 0.01 has 26 distinct offsets at quad_order 2 and 35 at 3
    heat = lru_cache(maxsize=32)(partial(heat_factor, grid, half=True))
    integrand = partial(apply_Q_stack, coeffs, grid)
    band = band_modes(grid, "kept")
    increments = np.empty((len(times), 3, band.size), dtype=np.complex128)
    increments[0] = 0.0
    recent = deque([u0_half], maxlen=4)
    u_phys = irfftn(u0_half)
    defect = np.zeros_like(u0_half)
    residuals = [0.0]
    deltas: list[float] = []
    interval_iterates: list[int] = []
    ratios: list[float] = []
    diverged = stalled = False

    for i in range(len(times) - 1):
        t_lo, t_hi = float(times[i]), float(times[i + 1])
        propagator = heat(t_hi - t_lo)
        u_i = recent[-1]
        base = propagator * u_i
        w = base if i == 0 else _start_guess(times, recent, i)
        for rounds in range(1, config.max_iter + 1):
            w_phys = irfftn(w)
            update = base + _lattice_quadrature(
                times[i:i + 2], lambda j: ((u_phys, w_phys)[j],), t_lo, t_hi,
                config.quad_order, lambda s: heat(t_hi - s), integrand)
            delta = norm(update - w)
            deltas.append(delta)
            if not math.isfinite(delta) or delta > guard:
                diverged = True
                break
            if delta <= 0.01 * config.tol and delta <= 1e-13 * norm(update):
                break
            if rounds == config.max_iter:
                stalled = True
                break
            w = update
        interval_iterates.append(rounds)
        ratios.append(deltas[-1] / deltas[-2] if rounds > 1 else math.nan)
        recent.append(w)
        u_phys = w_phys
        increments[i + 1] = _increment(grid, t_hi, u0_half, w)
        defect *= propagator
        defect += w - update
        residuals.append(norm(defect))
        if diverged or stalled:
            break

    kept = len(residuals)
    traj = Trajectory.from_increments(grid, times[:kept], u0_half, increments[:kept])
    report = PicardReport(
        iterates=max(interval_iterates), deltas=tuple(deltas),
        residual_max=math.inf if diverged else max(residuals),
        converged=not (diverged or stalled), diverged=diverged,
        tol=config.tol, gamma=gamma, interval_iterates=tuple(interval_iterates),
        contraction_ratios=tuple(ratios), residuals=tuple(residuals))
    return traj, report


def mild_residual(traj: Trajectory, u0: VelocityField, coeffs: QCoefficients,
                  gamma: float, quad_order: int = 4) -> np.ndarray:
    """Per-lattice-time H^gamma defect of the mild equation for a trajectory.

    residual_i = || u(t_i) - e^{t_i L} u0 - B(u, u)(t_i) ||_{H^gamma}, from a
    Duhamel pass of its own (picard_solve reports the same values from its
    march without one).
    """
    grid = traj.grid
    u0_half = u0.half_spectrum()
    scale = max(1.0, float(np.max(np.abs(u0_half))))
    if np.max(np.abs(traj.half_state(0) - u0_half)) > 1e-12 * scale:
        raise ValueError("trajectory does not start at the supplied initial data")
    count = len(traj.times)
    out = np.empty(count)
    b_iter = _duhamel_lattice(coeffs, grid, traj.times,
                              (traj.half_state(i) for i in range(count)), quad_order)
    for i, b in enumerate(b_iter):
        heat = heat_factor(grid, float(traj.times[i]), half=True)
        defect = traj.half_state(i) - u0_half * heat - b
        out[i] = weighted_l2_stack(grid, defect, gamma, homogeneous=False)
    return out


def etd_integrate(u0: VelocityField, coeffs: QCoefficients, t_final: float,
                  dt: float) -> VelocityField:
    """Fourth-order integrating-factor Runge-Kutta reference integrator: the
    field at t_final.

    Requires t_final to be an integer multiple of dt (relative slack 1e-9).
    Raises ValueError for non-finite u0 and BlowupError when coefficients
    grow beyond BLOWUP_FACTOR times the initial scale. A caller that needs
    intermediate states chains calls, one per interval: the steps are the
    same, so the states are bit for bit those of one long call.
    """
    if not (t_final > 0.0 and math.isfinite(t_final)):
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final {t_final} is not an integer multiple of dt {dt}")

    grid = u0.grid
    c = _finite_half(u0)
    E = heat_factor(grid, 0.5 * dt, half=True)
    E2 = E * E
    scale0 = 1.0 + float(np.max(np.abs(c)))
    times = np.linspace(0.0, t_final, n_steps + 1)

    N = partial(_q_of_halves, coeffs, grid)

    for step in range(n_steps):
        k1 = N(c)
        k2 = N(E * (c + (0.5 * dt) * k1))
        k3 = N(E * c + (0.5 * dt) * k2)
        k4 = N(E2 * c + dt * (E * k3))
        c = E2 * c + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
        peak = float(np.max(np.abs(c)))
        if not math.isfinite(peak) or peak > BLOWUP_FACTOR * scale0:
            t_here = float(times[step + 1])
            raise BlowupError(
                f"integrator blew up at t = {t_here:.6g}: max coefficient "
                f"{peak:.3e} vs initial scale {scale0:.3e}", t_here, peak)
    return VelocityField.from_half(grid, c)
