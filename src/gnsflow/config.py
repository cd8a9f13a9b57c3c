"""Scenario configuration: a flat 'key = value' text format with dotted keys.

Lines are 'section.key = value'; '#' starts a comment; every key has a
typed default. Parsing never stops at the first problem: all violations
(syntax, unknown keys, bad values, range and cross-field failures) are
collected into a single ConfigError so a bad file is fixed in one pass.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .initial_data import DATA_KINDS
from .solver import SolverConfig
from .spectral import Grid, build_grid


class ConfigError(ValueError):
    """One or more configuration problems; .problems lists each one."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


DIAGNOSTIC_MODES = ("subcritical", "critical")
OUTPUT_FORMATS = ("csv", "json")

# key -> (attribute, type tag, default); "auto" defaults resolve after parse
_SCHEMA: dict[str, tuple[str, str, object]] = {
    "grid.n": ("grid_n", "int", 32),
    "grid.period": ("grid_period", "float", 2.0 * math.pi),
    "grid.dealias_fraction": ("grid_dealias_fraction", "float", 2.0 / 3.0),
    "solver.t_final": ("solver_t_final", "float", 0.01),
    "solver.n_times": ("solver_n_times", "int", 33),
    "solver.quad_order": ("solver_quad_order", "int", 2),
    "solver.tol": ("solver_tol", "float", 1e-8),
    "solver.max_iter": ("solver_max_iter", "int", 16),
    "solver.dt": ("solver_dt", "float", 1e-4),
    "solver.etd_check": ("solver_etd_check", "bool", False),
    "solver.oracle_tol": ("solver_oracle_tol", "float", 1e-6),
    "physics.coefficients": ("physics_coefficients", "str", "navier_stokes"),
    "physics.gamma": ("physics_gamma", "float", 1.0),
    "physics.delta": ("physics_delta", "float", 0.1),
    "physics.eta0": ("physics_eta0", "float", 1e-5),
    "data.kind": ("data_kind", "str", "taylor_green"),
    "data.amplitude": ("data_amplitude", "float", 1.0),
    "data.seed": ("data_seed", "int", 0),
    "data.band_lo": ("data_band_lo", "float", 0.5),
    "data.band_hi": ("data_band_hi", "float", 2.5),
    "data.mode": ("data_mode", "int_triple", (1, 0, 0)),
    "data.k_cut": ("data_k_cut", "float", 2.0),
    "data.spectral_exponent": ("data_spectral_exponent", "float_or_auto", "auto"),
    "diagnostics.mode": ("diagnostics_mode", "str", "subcritical"),
    "diagnostics.sample_times": ("diagnostics_sample_times", "float_list", "auto"),
    "diagnostics.fit_lo": ("diagnostics_fit_lo", "float", 1.0),
    "diagnostics.fit_hi": ("diagnostics_fit_hi", "float", 2.0),
    "diagnostics.n_shells": ("diagnostics_n_shells", "int", 32),
    "output.directory": ("output_directory", "str", "run"),
    "output.formats": ("output_formats", "str_list", ("csv", "json")),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _, _) in _SCHEMA.items()}


@dataclass(frozen=True)
class ScenarioConfig:
    grid_n: int
    grid_period: float
    grid_dealias_fraction: float
    solver_t_final: float
    solver_n_times: int
    solver_quad_order: int
    solver_tol: float
    solver_max_iter: int
    solver_dt: float
    solver_etd_check: bool
    solver_oracle_tol: float
    physics_coefficients: str
    physics_gamma: float
    physics_delta: float
    physics_eta0: float
    data_kind: str
    data_amplitude: float
    data_seed: int
    data_band_lo: float
    data_band_hi: float
    data_mode: tuple[int, int, int]
    data_k_cut: float
    data_spectral_exponent: float
    diagnostics_mode: str
    diagnostics_sample_times: tuple[float, ...]
    diagnostics_fit_lo: float
    diagnostics_fit_hi: float
    diagnostics_n_shells: int
    output_directory: str
    output_formats: tuple[str, ...]

    def build_grid(self) -> Grid:
        return build_grid(self.grid_n, period=self.grid_period,
                          dealias_fraction=self.grid_dealias_fraction)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(t_final=self.solver_t_final,
                            n_times=self.solver_n_times,
                            quad_order=self.solver_quad_order,
                            tol=self.solver_tol,
                            gamma=self.physics_gamma,
                            max_iter=self.solver_max_iter,
                            dt=self.solver_dt)

    def canonical_text(self) -> str:
        """Every key in sorted order with fully resolved values; stable bytes."""
        lines = []
        for key in sorted(_SCHEMA):
            attr, typ, _ = _SCHEMA[key]
            lines.append(f"{key} = {_format_value(typ, getattr(self, attr))}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_value(typ: str, value) -> str:
    if typ == "int":
        return str(value)
    if typ in ("float", "float_or_auto"):
        return _format_float(value)
    if typ == "bool":
        return "true" if value else "false"
    if typ == "str":
        return str(value)
    if typ == "float_list":
        return ", ".join(_format_float(v) for v in value)
    if typ == "str_list":
        return ", ".join(value)
    if typ == "int_triple":
        return ",".join(str(v) for v in value)
    raise AssertionError(f"unhandled type tag {typ}")


def _parse_value(typ: str, token: str):
    """Returns (value, None) or (None, problem string)."""
    token = token.strip()
    if typ == "int":
        try:
            return int(token), None
        except ValueError:
            return None, f"expected an integer, got {token!r}"
    if typ == "float":
        try:
            return float(token), None
        except ValueError:
            return None, f"expected a number, got {token!r}"
    if typ == "float_or_auto":
        if token == "auto":
            return "auto", None
        try:
            return float(token), None
        except ValueError:
            return None, f"expected a number or 'auto', got {token!r}"
    if typ == "bool":
        if token == "true":
            return True, None
        if token == "false":
            return False, None
        return None, f"expected true or false, got {token!r}"
    if typ == "str":
        if not token:
            return None, "expected a non-empty value"
        return token, None
    if typ == "float_list":
        if token == "auto":
            return "auto", None
        parts = [p.strip() for p in token.split(",")]
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            return None, f"expected comma-separated numbers, got {token!r}"
        if not values:
            return None, "expected at least one number"
        return values, None
    if typ == "str_list":
        parts = tuple(p.strip() for p in token.split(",") if p.strip())
        if not parts:
            return None, "expected at least one entry"
        return parts, None
    if typ == "int_triple":
        parts = [p.strip() for p in token.split(",")]
        if len(parts) != 3:
            return None, f"expected three comma-separated integers, got {token!r}"
        try:
            return tuple(int(p) for p in parts), None
        except ValueError:
            return None, f"expected three comma-separated integers, got {token!r}"
    raise AssertionError(f"unhandled type tag {typ}")


def parse_config_text(text: str) -> ScenarioConfig:
    problems: list[str] = []
    raw: dict[str, object] = {}
    seen_lines: dict[str, int] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, token = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen_lines:
            problems.append(f"line {lineno}: duplicate key {key!r} "
                            f"(first set on line {seen_lines[key]})")
            continue
        seen_lines[key] = lineno
        _, typ, _ = _SCHEMA[key]
        value, err = _parse_value(typ, token)
        if err is not None:
            problems.append(f"line {lineno}: {key}: {err}")
            continue
        raw[key] = value

    values = {attr: raw.get(key, default)
              for key, (attr, _, default) in _SCHEMA.items()}

    _resolve_auto(values)
    problems.extend(_validate(values))
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**values)


def parse_config(path: Path) -> ScenarioConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def _resolve_auto(values: dict) -> None:
    if values["data_spectral_exponent"] == "auto":
        values["data_spectral_exponent"] = values["physics_gamma"] + 2.0
    if values["diagnostics_sample_times"] == "auto":
        t, m = values["solver_t_final"], values["solver_n_times"]
        if isinstance(t, float) and t > 0.0 and isinstance(m, int) and m >= 2:
            lattice = np.linspace(0.0, t, m)
            idx = sorted({max(1, (m - 1) // 4), max(1, (m - 1) // 2), m - 1})
            values["diagnostics_sample_times"] = tuple(float(lattice[i]) for i in idx)
        else:
            values["diagnostics_sample_times"] = ()


def _validate(v: dict) -> list[str]:
    p: list[str] = []

    def bad(key_attr: str, msg: str) -> None:
        p.append(f"{_ATTR_TO_KEY[key_attr]}: {msg}")

    n = v["grid_n"]
    if not (isinstance(n, int) and n >= 4 and n % 2 == 0):
        bad("grid_n", f"must be an even integer >= 4, got {n}")
    if not (v["grid_period"] > 0.0 and math.isfinite(v["grid_period"])):
        bad("grid_period", f"must be positive and finite, got {v['grid_period']}")
    if not (0.0 < v["grid_dealias_fraction"] <= 1.0):
        bad("grid_dealias_fraction",
            f"must be in (0, 1], got {v['grid_dealias_fraction']}")

    if not (v["solver_t_final"] > 0.0 and math.isfinite(v["solver_t_final"])):
        bad("solver_t_final", f"must be positive and finite, got {v['solver_t_final']}")
    if v["solver_n_times"] < 2:
        bad("solver_n_times", f"must be >= 2, got {v['solver_n_times']}")
    if not (1 <= v["solver_quad_order"] <= 12):
        bad("solver_quad_order", f"must be in [1, 12], got {v['solver_quad_order']}")
    if not (v["solver_tol"] > 0.0):
        bad("solver_tol", f"must be positive, got {v['solver_tol']}")
    if v["solver_max_iter"] < 1:
        bad("solver_max_iter", f"must be >= 1, got {v['solver_max_iter']}")
    if not (v["solver_dt"] > 0.0):
        bad("solver_dt", f"must be positive, got {v['solver_dt']}")
    if not (v["solver_oracle_tol"] > 0.0):
        bad("solver_oracle_tol", f"must be positive, got {v['solver_oracle_tol']}")

    if not v["physics_coefficients"]:
        bad("physics_coefficients", "must be 'navier_stokes' or a file path")
    gamma, delta = v["physics_gamma"], v["physics_delta"]
    if not (gamma >= 0.5 and math.isfinite(gamma)):
        bad("physics_gamma", f"must be >= 0.5, got {gamma}")
    if not (0.0 < delta < 1.0):
        bad("physics_delta", f"must be in (0, 1), got {delta}")
    if not (0.0 < v["physics_eta0"] < 1.0):
        bad("physics_eta0", f"must be in (0, 1), got {v['physics_eta0']}")

    if v["data_kind"] not in DATA_KINDS:
        bad("data_kind", f"must be one of {', '.join(DATA_KINDS)}, got {v['data_kind']!r}")
    if not (v["data_amplitude"] >= 0.0 and math.isfinite(v["data_amplitude"])):
        bad("data_amplitude", f"must be >= 0 and finite, got {v['data_amplitude']}")
    if not (0 <= v["data_seed"] < 2**64):
        bad("data_seed", f"must be in [0, 2^64), got {v['data_seed']}")
    if not (v["data_band_lo"] > 0.0):
        bad("data_band_lo", f"must be positive, got {v['data_band_lo']}")
    if not (v["data_k_cut"] > 0.0):
        bad("data_k_cut", f"must be positive, got {v['data_k_cut']}")
    exponent = v["data_spectral_exponent"]
    if not (isinstance(exponent, float) and exponent > 0.0):
        bad("data_spectral_exponent", f"must be positive, got {exponent}")

    if v["diagnostics_mode"] not in DIAGNOSTIC_MODES:
        bad("diagnostics_mode",
            f"must be one of {', '.join(DIAGNOSTIC_MODES)}, got {v['diagnostics_mode']!r}")
    if v["diagnostics_n_shells"] < 2:
        bad("diagnostics_n_shells", f"must be >= 2, got {v['diagnostics_n_shells']}")
    if not (v["diagnostics_fit_lo"] > 0.0):
        bad("diagnostics_fit_lo", f"must be positive, got {v['diagnostics_fit_lo']}")

    if not v["output_directory"]:
        bad("output_directory", "must be a non-empty path")
    unknown_formats = [f for f in v["output_formats"] if f not in OUTPUT_FORMATS]
    if unknown_formats:
        bad("output_formats",
            f"unknown formats {unknown_formats}, allowed: {', '.join(OUTPUT_FORMATS)}")

    # cross-field checks only when the pieces above are individually sane
    grid_ok = not any(s.startswith("grid.") for s in p)
    k_max = None
    if grid_ok:
        k_max = (2.0 * math.pi / v["grid_period"]) * (v["grid_n"] // 2) * math.sqrt(3.0)

    scaling_ok = (gamma >= 0.5 and math.isfinite(gamma) and 0.0 < delta < 1.0)
    if v["diagnostics_mode"] == "subcritical" and scaling_ok:
        if not (gamma > 0.5 + 2.0 * delta):
            p.append("physics.gamma: subcritical scaling requires "
                     f"gamma > 1/2 + 2 delta, got gamma={gamma}, delta={delta}")
    elif v["diagnostics_mode"] == "critical" and scaling_ok:
        if gamma != 0.5:
            p.append("physics.gamma: critical scaling requires gamma = 0.5 "
                     f"exactly, got {gamma}")

    if not (v["data_band_hi"] > v["data_band_lo"]):
        p.append("data.band_hi: must exceed data.band_lo, got "
                 f"[{v['data_band_lo']}, {v['data_band_hi']}]")
    if k_max is not None:
        if v["data_band_hi"] > k_max:
            p.append(f"data.band_hi: {v['data_band_hi']} exceeds the grid's "
                     f"largest wavenumber {k_max:.6g}")
        if v["data_k_cut"] > k_max:
            p.append(f"data.k_cut: {v['data_k_cut']} exceeds the grid's "
                     f"largest wavenumber {k_max:.6g}")
        if v["diagnostics_fit_hi"] > k_max:
            p.append(f"diagnostics.fit_hi: {v['diagnostics_fit_hi']} exceeds the "
                     f"grid's largest wavenumber {k_max:.6g}")
    if not (v["diagnostics_fit_hi"] > v["diagnostics_fit_lo"]):
        p.append("diagnostics.fit_hi: must exceed diagnostics.fit_lo, got "
                 f"[{v['diagnostics_fit_lo']}, {v['diagnostics_fit_hi']}]")

    if v["data_kind"] == "single_mode" and grid_ok:
        triple = v["data_mode"]
        if all(m == 0 for m in triple):
            p.append("data.mode: must not be the zero mode")
        limit = v["grid_n"] // 2 - 1  # below Nyquist, see initial_data
        if any(abs(m) > limit for m in triple):
            p.append(f"data.mode: components must satisfy |m| <= {limit} "
                     f"(below the Nyquist index), got {triple}")

    if v["solver_etd_check"] and v["solver_t_final"] > 0.0 and v["solver_dt"] > 0.0:
        ratio = v["solver_t_final"] / v["solver_dt"]
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            p.append("solver.dt: must divide solver.t_final when "
                     f"solver.etd_check is on (t_final/dt = {ratio!r})")

    times = v["diagnostics_sample_times"]
    if isinstance(times, tuple):
        t_final, n_times = v["solver_t_final"], v["solver_n_times"]
        lattice_ok = t_final > 0.0 and n_times >= 2
        lattice = np.linspace(0.0, t_final, n_times) if lattice_ok else None
        tol = 1e-9 * max(1.0, t_final)
        # lambda_subcritical is defined for t < 1/e, beta and lambda_critical for t < 1
        limit = {"subcritical": (1.0 / math.e, "1/e"),
                 "critical": (1.0, "1")}.get(v["diagnostics_mode"])
        for i, t in enumerate(times):
            if not (0.0 < t <= t_final + tol):
                p.append(f"diagnostics.sample_times[{i}]: {t!r} is outside "
                         f"(0, t_final={t_final}]")
                continue
            if limit is not None and t >= limit[0]:
                p.append(f"diagnostics.sample_times[{i}]: {t!r} is not below "
                         f"{limit[1]}, the end of the {v['diagnostics_mode']} "
                         f"bound's time domain")
            if lattice is not None and float(np.min(np.abs(lattice - t))) > tol:
                p.append(f"diagnostics.sample_times[{i}]: {t!r} is not on the "
                         f"solver time lattice (t_final={t_final}, "
                         f"n_times={n_times})")
        if any(b <= a for a, b in zip(times, times[1:])):
            p.append("diagnostics.sample_times: must be strictly increasing")

    return p
