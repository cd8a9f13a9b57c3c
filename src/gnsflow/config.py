"""Scenario configuration: a flat 'key = value' text format with dotted keys.

Lines are 'section.key = value'; '#' starts a comment; every key has a
typed default. Parsing never stops at the first problem: all violations
(syntax, unknown keys, bad values, range and cross-field failures) are
collected into a single ConfigError so a bad file is fixed in one pass.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

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


def _unchecked(value) -> None:
    return None


def _key(key: str, tag: str, default, check=_unchecked):
    """A ScenarioConfig field declared as scenario key `key`: its type tag,
    its default ("auto" defaults resolve after parse) and its single-key
    check, value -> problem text or None."""
    return field(metadata={"key": key, "tag": tag, "default": default, "check": check})


def _rule(ok, allowed: str):
    """A single-key check: "must be <allowed>, got <value>" unless ok(value)."""
    return lambda value: None if ok(value) else f"must be {allowed}, got {value}"


def _one_of(choices: tuple[str, ...]):
    return lambda value: (None if value in choices else
                          f"must be one of {', '.join(choices)}, got {value!r}")


def _known_formats(formats: tuple[str, ...]) -> str | None:
    unknown = [f for f in formats if f not in OUTPUT_FORMATS]
    if unknown:
        return f"unknown formats {unknown}, allowed: {', '.join(OUTPUT_FORMATS)}"
    return None


def _at_least(lo):
    return _rule(lambda x: x >= lo, f">= {lo}")


_POSITIVE = _rule(lambda x: x > 0.0, "positive")
_POSITIVE_FINITE = _rule(lambda x: x > 0.0 and math.isfinite(x), "positive and finite")
_OPEN_UNIT = _rule(lambda x: 0.0 < x < 1.0, "in (0, 1)")
# increments.gsi stores the number of lattice times as a uint32
_UINT32 = _rule(lambda x: x <= 2**32 - 1, "<= 2^32 - 1")


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario. Each field is the one declaration of its key; the
    single-key checks run in field order, before the cross-key checks."""

    grid_n: int = _key("grid.n", "int", 32,
                       _rule(lambda n: n >= 4 and n % 2 == 0, "an even integer >= 4"))
    grid_period: float = _key("grid.period", "float", 2.0 * math.pi, _POSITIVE_FINITE)
    grid_dealias_fraction: float = _key("grid.dealias_fraction", "float", 2.0 / 3.0,
                                        _rule(lambda x: 0.0 < x <= 1.0, "in (0, 1]"))
    solver_t_final: float = _key("solver.t_final", "float", 0.01, _POSITIVE_FINITE)
    solver_n_times: int = _key("solver.n_times", "int", 33,
                               lambda m: _at_least(2)(m) or _UINT32(m))
    solver_quad_order: int = _key("solver.quad_order", "int", 2,
                                  _rule(lambda q: 1 <= q <= 12, "in [1, 12]"))
    solver_tol: float = _key("solver.tol", "float", 1e-8, _OPEN_UNIT)
    solver_max_iter: int = _key("solver.max_iter", "int", 16, _at_least(1))
    solver_dt: float = _key("solver.dt", "float", 1e-4, _POSITIVE_FINITE)
    solver_etd_check: bool = _key("solver.etd_check", "bool", False)
    solver_oracle_tol: float = _key("solver.oracle_tol", "float", 1e-6, _POSITIVE)
    physics_coefficients: str = _key("physics.coefficients", "str", "navier_stokes")
    physics_gamma: float = _key("physics.gamma", "float", 1.0,
                                _rule(lambda g: g >= 0.5 and math.isfinite(g), ">= 0.5"))
    physics_delta: float = _key("physics.delta", "float", 0.1, _OPEN_UNIT)
    data_kind: str = _key("data.kind", "str", "taylor_green", _one_of(DATA_KINDS))
    data_amplitude: float = _key("data.amplitude", "float", 1.0,
                                 _rule(lambda a: a >= 0.0 and math.isfinite(a),
                                       ">= 0 and finite"))
    data_seed: int = _key("data.seed", "int", 0,
                          _rule(lambda s: 0 <= s < 2**64, "in [0, 2^64)"))
    data_band_lo: float = _key("data.band_lo", "float", 0.5, _POSITIVE)
    data_band_hi: float = _key("data.band_hi", "float", 2.5)
    data_mode: tuple[int, int, int] = _key("data.mode", "int_triple", (1, 0, 0))
    data_k_cut: float = _key("data.k_cut", "float", 2.0, _POSITIVE)
    data_spectral_exponent: float = _key("data.spectral_exponent", "float_or_auto",
                                         "auto", _POSITIVE)
    diagnostics_mode: str = _key("diagnostics.mode", "str", "subcritical",
                                 _one_of(DIAGNOSTIC_MODES))
    diagnostics_n_shells: int = _key("diagnostics.n_shells", "int", 32, _at_least(2))
    diagnostics_sample_times: tuple[float, ...] = _key("diagnostics.sample_times",
                                                       "float_list", "auto")
    diagnostics_fit_lo: float = _key("diagnostics.fit_lo", "float", 1.0, _POSITIVE)
    diagnostics_fit_hi: float = _key("diagnostics.fit_hi", "float", 2.0)
    output_directory: str = _key("output.directory", "str", "run")
    output_formats: tuple[str, ...] = _key("output.formats", "str_list", ("csv", "json"),
                                           _known_formats)

    def build_grid(self) -> Grid:
        return build_grid(self.grid_n, period=self.grid_period,
                          dealias_fraction=self.grid_dealias_fraction)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(t_final=self.solver_t_final,
                            n_times=self.solver_n_times,
                            quad_order=self.solver_quad_order,
                            tol=self.solver_tol,
                            gamma=self.physics_gamma,
                            max_iter=self.solver_max_iter)

    def canonical_text(self) -> str:
        """Every key in sorted order with fully resolved values; stable bytes."""
        lines = []
        for key, f in sorted(_FIELDS.items()):
            value = getattr(self, f.name)
            lines.append(f"{key} = {_format_value(f.metadata['tag'], value)}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


_FIELDS = {f.metadata["key"]: f for f in fields(ScenarioConfig)}


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
        if key not in _FIELDS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen_lines:
            problems.append(f"line {lineno}: duplicate key {key!r} "
                            f"(first set on line {seen_lines[key]})")
            continue
        seen_lines[key] = lineno
        value, err = _parse_value(_FIELDS[key].metadata["tag"], token)
        if err is not None:
            problems.append(f"line {lineno}: {key}: {err}")
            continue
        raw[key] = value

    values = {f.name: raw.get(key, f.metadata["default"]) for key, f in _FIELDS.items()}

    _resolve_auto(values)
    problems.extend(_validate(values))
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**values)


def parse_config(path: Path) -> ScenarioConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def _lattice_point(t_final: float, n_times: int, i: int) -> float:
    """np.linspace(0, t_final, n_times)[i] bit for bit, without the array."""
    if i == n_times - 1:
        return t_final
    step = t_final / (n_times - 1)
    return i * step if step else i / (n_times - 1) * t_final


def _resolve_auto(values: dict) -> None:
    if values["data_spectral_exponent"] == "auto":
        values["data_spectral_exponent"] = values["physics_gamma"] + 2.0
    if values["diagnostics_sample_times"] == "auto":
        t, m = values["solver_t_final"], values["solver_n_times"]
        if isinstance(t, float) and t > 0.0 and isinstance(m, int) and m >= 2:
            idx = sorted({max(1, (m - 1) // 4), max(1, (m - 1) // 2), m - 1})
            values["diagnostics_sample_times"] = tuple(_lattice_point(t, m, i) for i in idx)
        else:
            values["diagnostics_sample_times"] = ()


def _validate(v: dict) -> list[str]:
    p = [f"{key}: {problem}" for key, f in _FIELDS.items()
         if (problem := f.metadata["check"](v[f.name]))]

    # cross-field checks only when the pieces above are individually sane
    grid_ok = not any(s.startswith("grid.") for s in p)
    k_max = None
    if grid_ok:
        k_max = (2.0 * math.pi / v["grid_period"]) * (v["grid_n"] // 2) * math.sqrt(3.0)

    gamma, delta = v["physics_gamma"], v["physics_delta"]
    scaling_ok = not any(s.startswith(("physics.gamma:", "physics.delta:")) for s in p)
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
        lattice_ok = 0.0 < t_final < math.inf and n_times >= 2
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
            if not lattice_ok:
                continue
            # the lattice point nearest t is one of those next to t / step
            j = round(min(t / t_final, 1.0) * (n_times - 1))
            if min(abs(_lattice_point(t_final, n_times, k) - t)
                   for k in range(max(0, j - 2), min(n_times, j + 3))) > tol:
                p.append(f"diagnostics.sample_times[{i}]: {t!r} is not on the "
                         f"solver time lattice (t_final={t_final}, "
                         f"n_times={n_times})")
        if any(b <= a for a, b in zip(times, times[1:])):
            p.append("diagnostics.sample_times: must be strictly increasing")

    return p
