"""Mild-solution machinery: Duhamel integrals, Picard iteration, ETD oracle.

The integral equation solved is u(t) = e^{tL} u0 + B(u, u)(t) with
B(u, v)(t) = int_0^t e^{(t-s)L} Q(u(s), v(s)) ds and L the Laplacian (unit
viscosity). Trajectories are piecewise linear in their spectral coefficients
between lattice times; Duhamel integrals use composite Gauss-Legendre
quadrature against the exact per-mode heat kernel.

picard_solve marches the lattice causally (windowed waveform relaxation):
interval [t_i, t_{i+1}] solves its own small fixed point
u_{i+1} = e^{hL} u_i + int_{t_i}^{t_{i+1}} e^{(t_{i+1}-s)L} Q(u(s)) ds before
the next interval starts. The defect each interval leaves behind is carried
forward under the heat semigroup, which yields the per-time mild residual as
a by-product of the march; mild_residual recomputes it independently.

The march, the residual pass and the ETD steps compute on the half spectrum
(3, n, n, n//2+1) of the real fields (see operators.apply_Q_stack). Stored
fields stay full: every state a Trajectory returns is converted back to
full (3, n, n, n) coefficients, and state 0 is the caller's initial data as
given. Initial data that is not exactly Hermitian (Leray-projected noise
with Nyquist content, say) has upper kz planes that the half spectrum does
not carry; that unpaired part never enters Q and is returned under the heat
flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from .operators import (
    QCoefficients,
    VelocityField,
    apply_Q_stack,
    heat_factor,
    stack_coefficients,
    velocity_from_stack,
)
from .spectral import Grid, to_full, to_half, weighted_l2_stack

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
    """Picard/ETD parameters.

    t_final: horizon T; n_times: lattice points including t = 0; quad_order:
    Gauss-Legendre nodes per lattice interval; tol: Picard stopping threshold
    on the sup-in-time inhomogeneous Sobolev distance of order gamma;
    max_iter: iterate cap; dt: ETD step size.
    """

    t_final: float
    n_times: int = 33
    quad_order: int = 2
    tol: float = 1e-8
    gamma: float = 1.0
    max_iter: int = 16
    dt: float = 1e-4

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
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_times)


@dataclass(frozen=True)
class Trajectory:
    """States on a strictly increasing time lattice starting at 0.

    Diagnostics cache tables derived from the states on the instance, so the
    states' coefficients must not be mutated once they are wrapped.
    """

    times: np.ndarray = field(repr=False)
    states: tuple[VelocityField, ...] = field(repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must align one-to-one")
        if len(t) < 1 or t[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        g = self.states[0].grid
        if any(s.grid != g for s in self.states[1:]):
            raise ValueError("all trajectory states must share one grid")

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

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

    def state_at(self, t: float) -> VelocityField:
        return self.states[self.index_at_time(t)]

    @cached_property
    def tail_tables(self) -> dict[float, np.ndarray]:
        """Per-gamma running-max tail tables, filled by the diagnostics on first use."""
        return {}


def _stacks(traj: Trajectory) -> list[np.ndarray]:
    return [stack_coefficients(s) for s in traj.states]


def _half_stacks(traj: Trajectory) -> list[np.ndarray]:
    return [np.stack([to_half(c.coeffs) for c in s.components]) for s in traj.states]


def _unpaired(grid: Grid, u0_stack: np.ndarray) -> np.ndarray | None:
    """u0 - to_full(to_half(u0)), the upper-plane part of u0 that its half
    spectrum does not carry; None when u0 is exactly Hermitian."""
    rest = u0_stack - to_full(grid, to_half(u0_stack))
    return rest if rest.any() else None


def _full_state(grid: Grid, half: np.ndarray, unpaired: np.ndarray | None,
                t: float, out: np.ndarray | None = None) -> VelocityField:
    """A half-spectrum state at time t as a full field (written into out when
    given), plus the heat flow of the initial data's unpaired part."""
    full = to_full(grid, half, out=out)
    if unpaired is not None:
        full += heat_factor(grid, t) * unpaired
    return velocity_from_stack(grid, full)


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


def _lattice_quadrature(times: np.ndarray, stacks: Sequence[Sequence[np.ndarray]],
                        lo: float, hi: float, quad_order: int, kernel,
                        integrand) -> np.ndarray:
    """int_lo^hi kernel(s) * integrand(*states(s)) ds over a time lattice.

    stacks holds one lattice-aligned sequence of coefficient stacks per
    state, all in one layout; states(s) interpolates each linearly in s
    between lattice times.
    Every lattice interval meeting [lo, hi] gets a quad_order Gauss-Legendre
    rule; kernel(s) is a scalar or a per-mode array. integrand must return
    a new array: it is scaled in place.
    """
    acc = np.zeros(stacks[0][0].shape, dtype=np.complex128)
    for i in range(len(times) - 1):
        t_lo, t_hi = float(times[i]), float(times[i + 1])
        seg_lo, seg_hi = max(t_lo, lo), min(t_hi, hi)
        if seg_hi <= seg_lo:
            continue
        half = 0.5 * (seg_hi - seg_lo)
        mid = 0.5 * (seg_hi + seg_lo)
        inv_h = 1.0 / (t_hi - t_lo)
        for x, w in _gauss_nodes(quad_order):
            s = mid + half * x
            theta = (s - t_lo) * inv_h
            states = []
            for st in stacks:
                state = (1.0 - theta) * st[i]
                state += theta * st[i + 1]
                states.append(state)
            term = integrand(*states)
            term *= (w * half) * kernel(s)
            acc += term
    return acc


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
    same = all(a is b for a, b in zip(u.states, v.states))
    stacks = (_half_stacks(u),) if same else (_half_stacks(u), _half_stacks(v))
    acc = _lattice_quadrature(u.times, stacks, 0.0, t_eval, quad_order,
                              lambda s: heat_factor(grid, t_eval - s, half=True),
                              partial(apply_Q_stack, coeffs, grid))
    return velocity_from_stack(grid, to_full(grid, acc))


def _duhamel_lattice(coeffs: QCoefficients, grid: Grid, times: np.ndarray,
                     stacks: Sequence[np.ndarray], quad_order: int,
                     v_stacks: Sequence[np.ndarray] | None = None):
    """Yield the half spectrum of B(u, v)(t_i) at every lattice time.

    stacks (and v_stacks) are half-spectrum stacks. Semigroup recursion:
    B_{i+1} = e^{-h L} B_i + int_{t_i}^{t_{i+1}} e^{-(t_{i+1}-s)L} Q ds, which
    matches the direct integral exactly for the per-mode heat kernel.
    v_stacks = None means v = u.
    """
    integrand = partial(apply_Q_stack, coeffs, grid)
    per_state = (stacks,) if v_stacks is None else (stacks, v_stacks)
    acc = np.zeros((3,) + grid.half_shape, dtype=np.complex128)
    yield acc
    for i in range(len(times) - 1):
        t_lo, t_hi = float(times[i]), float(times[i + 1])
        acc = heat_factor(grid, t_hi - t_lo, half=True) * acc + _lattice_quadrature(
            times[i:i + 2], [st[i:i + 2] for st in per_state], t_lo, t_hi,
            quad_order, lambda s: heat_factor(grid, t_hi - s, half=True), integrand)
        yield acc


@dataclass(frozen=True)
class PicardReport:
    """Outcome of the interval march.

    deltas holds every H^gamma update norm in march order; interval_iterates
    the number of updates made on each interval attempted (their sum is
    len(deltas)); iterates the largest of those. residuals is the mild
    residual at each returned lattice time and residual_max its maximum
    (inf after divergence).
    """

    iterates: int
    deltas: tuple[float, ...]
    residual_max: float
    converged: bool
    diverged: bool
    tol: float
    gamma: float
    interval_iterates: tuple[int, ...]
    residuals: tuple[float, ...] = field(repr=False)


def _start_guess(times: np.ndarray, half: np.ndarray, i: int) -> np.ndarray:
    """Lagrange extrapolation to times[i+1] through the states at the two
    (i = 1) or three (i >= 2) lattice times ending at times[i]."""
    nodes = range(max(0, i - 2), i + 1)
    target = float(times[i + 1])
    guess = np.zeros_like(half[i])
    for j in nodes:
        weight = math.prod((target - float(times[m])) / (float(times[j]) - float(times[m]))
                           for m in nodes if m != j)
        guess += weight * half[j]
    return guess


def picard_solve(u0: VelocityField, coeffs: QCoefficients,
                 config: SolverConfig) -> tuple[Trajectory, PicardReport]:
    """Solve u = e^{tL} u0 + B(u, u) on the config lattice, one interval at a time.

    Interval i, h = t_{i+1} - t_i, starts from the heat flow e^{hL} u0
    (i = 0) or a Lagrange extrapolation of the states before it, and
    iterates w <- e^{hL} u_i + int_{t_i}^{t_{i+1}} e^{(t_{i+1}-s)L}
    Q(u(s)) ds with u linear between u_i and w. It stops when the H^gamma
    update is at most min(tol / 100, 1e-13 * the update's norm) and accepts
    w, the iterate whose Q values were evaluated. The defect d_i = w - w'
    accumulates as R_{i+1} = e^{hL} R_i + d_i, which is the mild residual
    u(t_{i+1}) - e^{t_{i+1}L} u0 - B(u, u)(t_{i+1}) under the same
    quadrature, so the residual at every lattice time comes with the march.

    A non-finite update or one above the divergence guard sets diverged
    (residual_max = inf); an interval still above the stop threshold after
    max_iter updates leaves the result not converged. Either stops the
    march, and the trajectory then ends at that interval's last iterate.
    The returned states are views of one (T, 3, n, n, n) array.
    """
    grid = u0.grid
    times = config.times
    gamma = config.gamma
    u0_stack = stack_coefficients(u0)

    def norm(stack: np.ndarray) -> float:
        return weighted_l2_stack(grid, stack, gamma, homogeneous=False)

    guard = DIVERGENCE_FACTOR * (1.0 + norm(u0_stack))
    # heat factors by exact time offset: a linspace lattice has a few
    # distinct interval lengths and node offsets t_{i+1} - s
    heat = lru_cache(maxsize=32)(partial(heat_factor, grid, half=True))
    integrand = partial(apply_Q_stack, coeffs, grid)
    half = np.empty((len(times), 3) + grid.half_shape, dtype=np.complex128)
    half[0] = to_half(u0_stack)
    defect = np.zeros_like(half[0])
    residuals = [0.0]
    deltas: list[float] = []
    interval_iterates: list[int] = []
    diverged = stalled = False

    for i in range(len(times) - 1):
        t_lo, t_hi = float(times[i]), float(times[i + 1])
        propagator = heat(t_hi - t_lo)
        base = propagator * half[i]
        w = base if i == 0 else _start_guess(times, half, i)
        for rounds in range(1, config.max_iter + 1):
            update = base + _lattice_quadrature(
                times[i:i + 2], [(half[i], w)], t_lo, t_hi, config.quad_order,
                lambda s: heat(t_hi - s), integrand)
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
        half[i + 1] = w
        defect *= propagator
        defect += w - update
        residuals.append(norm(defect))
        if diverged or stalled:
            break

    unpaired = _unpaired(grid, u0_stack)
    full = np.empty((len(residuals), 3) + grid.shape, dtype=np.complex128)
    full[0] = u0_stack
    states = [velocity_from_stack(grid, full[0])]
    for i in range(1, len(full)):
        states.append(_full_state(grid, half[i], unpaired, float(times[i]), out=full[i]))
    traj = Trajectory(times[:len(full)], tuple(states))
    report = PicardReport(
        iterates=max(interval_iterates), deltas=tuple(deltas),
        residual_max=math.inf if diverged else max(residuals),
        converged=not (diverged or stalled), diverged=diverged,
        tol=config.tol, gamma=gamma, interval_iterates=tuple(interval_iterates),
        residuals=tuple(residuals))
    return traj, report


def mild_residual(traj: Trajectory, u0: VelocityField, coeffs: QCoefficients,
                  gamma: float, quad_order: int = 4) -> np.ndarray:
    """Per-lattice-time H^gamma defect of the mild equation for a trajectory.

    residual_i = || u(t_i) - e^{t_i L} u0 - B(u, u)(t_i) ||_{H^gamma}, from a
    Duhamel pass of its own (picard_solve reports the same values from its
    march without one).
    """
    grid = traj.grid
    u0_stack = stack_coefficients(u0)
    first = stack_coefficients(traj.states[0])
    scale = max(1.0, float(np.max(np.abs(u0_stack))))
    if np.max(np.abs(first - u0_stack)) > 1e-12 * scale:
        raise ValueError("trajectory does not start at the supplied initial data")
    u0_half = to_half(u0_stack)
    stacks = _half_stacks(traj)
    out = np.empty(len(traj.times))
    b_iter = _duhamel_lattice(coeffs, grid, traj.times, stacks, quad_order)
    for i, b in enumerate(b_iter):
        heat = heat_factor(grid, float(traj.times[i]), half=True)
        defect = stacks[i] - u0_half * heat - b
        out[i] = weighted_l2_stack(grid, defect, gamma, homogeneous=False)
    return out


def etd_integrate(u0: VelocityField, coeffs: QCoefficients, t_final: float,
                  dt: float, keep: str = "all") -> Trajectory:
    """Fourth-order integrating-factor Runge-Kutta reference integrator.

    Requires t_final to be an integer multiple of dt (relative slack 1e-9).
    Raises BlowupError when coefficients grow beyond BLOWUP_FACTOR times the
    initial scale. keep="final" stores only the endpoints (the returned
    trajectory has two lattice times, 0 and t_final).
    """
    if not (t_final > 0.0 and math.isfinite(t_final)):
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if keep not in ("all", "final"):
        raise ValueError(f"keep must be 'all' or 'final', got {keep!r}")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final {t_final} is not an integer multiple of dt {dt}")

    grid = u0.grid
    E = heat_factor(grid, 0.5 * dt, half=True)
    E2 = E * E
    u0_stack = stack_coefficients(u0)
    c = to_half(u0_stack)
    unpaired = _unpaired(grid, u0_stack)
    scale0 = 1.0 + float(np.max(np.abs(u0_stack)))
    times = np.linspace(0.0, t_final, n_steps + 1)
    states = [velocity_from_stack(grid, u0_stack)]

    def N(stack: np.ndarray) -> np.ndarray:
        return apply_Q_stack(coeffs, grid, stack)

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
        if keep == "all":
            states.append(_full_state(grid, c, unpaired, float(times[step + 1])))
    if keep == "all":
        return Trajectory(times, tuple(states))
    states.append(_full_state(grid, c, unpaired, t_final))
    return Trajectory(np.asarray([0.0, t_final]), tuple(states))
