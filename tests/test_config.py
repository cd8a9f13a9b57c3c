import math
import re
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gnsflow import runner, solver
from gnsflow.config import (
    ConfigError,
    ScenarioConfig,
    parse_config,
    parse_config_text,
)
from gnsflow.initial_data import DATA_KINDS, DataParams, make_initial_data
from gnsflow.operators import VelocityField, navier_stokes_coeffs
from gnsflow.spectral import Grid, build_grid

MINIMAL = """
# subcritical demo
grid.n = 16
solver.t_final = 0.02
solver.n_times = 5
data.kind = taylor_green
"""


class TestParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.grid_n == 16
        assert cfg.grid_period == pytest.approx(2 * math.pi)
        assert cfg.grid_dealias_fraction == pytest.approx(2 / 3)
        assert cfg.solver_quad_order == 2
        assert cfg.physics_gamma == 1.0
        assert cfg.physics_coefficients == "navier_stokes"
        assert cfg.output_formats == ("csv", "json")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# full line\n\ngrid.n = 8  # trailing\n")
        assert cfg.grid_n == 8

    def test_auto_spectral_exponent_tracks_gamma(self):
        cfg = parse_config_text("physics.gamma = 1.5\nphysics.delta = 0.2\n")
        assert cfg.data_spectral_exponent == pytest.approx(3.5)
        explicit = parse_config_text("data.spectral_exponent = 2.75\n")
        assert explicit.data_spectral_exponent == 2.75

    def test_auto_sample_times_lie_on_lattice(self):
        cfg = parse_config_text("solver.t_final = 0.02\nsolver.n_times = 5\n")
        assert cfg.diagnostics_sample_times == (0.005, 0.01, 0.02)
        cfg2 = parse_config_text("solver.t_final = 0.01\nsolver.n_times = 10\n")
        lattice = [0.01 * i / 9 for i in range(10)]
        for t in cfg2.diagnostics_sample_times:
            assert min(abs(t - x) for x in lattice) < 1e-15

    def test_explicit_lists(self):
        cfg = parse_config_text(
            "solver.t_final = 0.04\nsolver.n_times = 5\n"
            "diagnostics.sample_times = 0.01, 0.02, 0.04\n"
            "output.formats = json\n"
            "diagnostics.fit_hi = 3.0\n")
        assert cfg.diagnostics_sample_times == (0.01, 0.02, 0.04)
        assert cfg.output_formats == ("json",)

    def test_single_mode_triple(self):
        cfg = parse_config_text("data.kind = single_mode\ndata.mode = 2,0,-1\n")
        assert cfg.data_mode == (2, 0, -1)

    def test_bool_parsing(self):
        cfg = parse_config_text("solver.etd_check = true\nsolver.dt = 0.0005\n")
        assert cfg.solver_etd_check is True

    def test_parse_config_reads_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config_text(MINIMAL)


class TestErrorCollection:
    def assert_problems(self, text, *fragments):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        problems = "\n".join(exc.value.problems)
        for frag in fragments:
            assert frag in problems, f"{frag!r} not in:\n{problems}"
        return exc.value.problems

    def test_unknown_key_named(self):
        self.assert_problems("solver.tolx = 1\n", "unknown key 'solver.tolx'")

    def test_syntax_error_line_number(self):
        self.assert_problems("grid.n 16\n", "line 1", "key = value")

    def test_duplicate_key(self):
        self.assert_problems("grid.n = 8\ngrid.n = 16\n", "duplicate key", "line 2")

    def test_bad_value_types(self):
        problems = self.assert_problems(
            "grid.n = eight\nsolver.tol = tiny\nsolver.etd_check = yes\n",
            "expected an integer", "expected a number", "expected true or false")
        assert len(problems) == 3

    def test_all_violations_collected_in_one_error(self):
        problems = self.assert_problems(
            "grid.n = 7\n"
            "solver.n_times = 1\n"
            "physics.delta = 1.5\n"
            "diagnostics.n_shells = 1\n",
            "grid.n", "solver.n_times", "physics.delta", "diagnostics.n_shells")
        assert len(problems) == 4

    def test_range_violations(self):
        self.assert_problems("grid.period = -1\n", "grid.period")
        self.assert_problems("grid.dealias_fraction = 0\n", "grid.dealias_fraction")
        self.assert_problems("solver.quad_order = 0\n", "solver.quad_order")
        self.assert_problems("physics.gamma = 0.3\n", "physics.gamma")
        self.assert_problems("data.kind = vortex\n", "data.kind")
        self.assert_problems("diagnostics.mode = other\n", "diagnostics.mode")
        self.assert_problems("output.formats = csv, yaml\n", "yaml")

    def test_subcritical_scaling_gate(self):
        # gamma = 0.6 with delta = 0.1 sits outside gamma > 1/2 + 2 delta
        self.assert_problems(
            "physics.gamma = 0.6\nphysics.delta = 0.1\n",
            "gamma > 1/2 + 2 delta")
        # the same pair is fine with a smaller delta
        cfg = parse_config_text("physics.gamma = 0.6\nphysics.delta = 0.04\n")
        assert cfg.physics_gamma == 0.6

    def test_critical_mode_requires_exact_half(self):
        self.assert_problems(
            "diagnostics.mode = critical\nphysics.gamma = 0.51\n",
            "gamma = 0.5 exactly")
        cfg = parse_config_text(
            "diagnostics.mode = critical\nphysics.gamma = 0.5\n")
        assert cfg.diagnostics_mode == "critical"

    def test_band_and_fit_window_against_grid(self):
        # 8-point unit-spacing grid: largest |k| is 4 sqrt(3) ~ 6.93
        self.assert_problems(
            "grid.n = 8\ndata.kind = random_sobolev_tail\ndata.band_hi = 9.0\n",
            "data.band_hi")
        self.assert_problems(
            "grid.n = 8\ndiagnostics.fit_hi = 8.0\n", "diagnostics.fit_hi")
        self.assert_problems(
            "data.kind = random_sobolev_tail\ndata.band_lo = 2.0\ndata.band_hi = 1.0\n",
            "band_hi")
        self.assert_problems(
            "diagnostics.fit_lo = 3.0\ndiagnostics.fit_hi = 2.0\n", "fit_hi")

    def test_single_mode_bounds(self):
        self.assert_problems(
            "data.kind = single_mode\ndata.mode = 0,0,0\n", "zero mode")
        self.assert_problems(
            "grid.n = 8\ndata.kind = single_mode\ndata.mode = 4,0,0\n",
            "Nyquist")

    def test_sample_times_validation(self):
        self.assert_problems(
            "solver.t_final = 0.01\ndiagnostics.sample_times = 0.02\n",
            "outside")
        self.assert_problems(
            "solver.t_final = 0.01\nsolver.n_times = 3\n"
            "diagnostics.sample_times = 0.003\n",
            "time lattice")
        self.assert_problems(
            "solver.t_final = 0.01\nsolver.n_times = 5\n"
            "diagnostics.sample_times = 0.005, 0.0025\n",
            "strictly increasing")

    def test_sample_times_inside_bound_domain(self):
        # subcritical lambda(t) needs t < 1/e, critical needs t < 1
        self.assert_problems(
            "solver.t_final = 0.5\nsolver.n_times = 5\n"
            "diagnostics.sample_times = 0.25, 0.5\n",
            "diagnostics.sample_times[1]: 0.5 is not below 1/e")
        self.assert_problems(  # auto picks 0.125, 0.25, 0.5
            "solver.t_final = 0.5\nsolver.n_times = 5\n", "not below 1/e")
        self.assert_problems(
            "solver.t_final = 1.0\nsolver.n_times = 5\nphysics.gamma = 0.5\n"
            "diagnostics.mode = critical\n", "not below 1,")
        cfg = parse_config_text(
            "solver.t_final = 0.5\nsolver.n_times = 5\nphysics.gamma = 0.5\n"
            "diagnostics.mode = critical\n")
        assert cfg.diagnostics_sample_times == (0.125, 0.25, 0.5)
        cfg = parse_config_text(
            "solver.t_final = 0.5\nsolver.n_times = 5\n"
            "diagnostics.sample_times = 0.125, 0.25\n")
        assert cfg.diagnostics_sample_times == (0.125, 0.25)

    def test_etd_divisibility(self):
        self.assert_problems(
            "solver.etd_check = true\nsolver.t_final = 0.01\nsolver.dt = 0.0003\n",
            "must divide")
        cfg = parse_config_text(
            "solver.etd_check = true\nsolver.t_final = 0.01\nsolver.dt = 0.0001\n")
        assert cfg.solver_etd_check

    @pytest.mark.parametrize("t_final, dt", [
        (0.01, 1e-4 * (1.0 + 0.5e-9)), (0.01, 1e-4 * (1.0 - 0.5e-9)),
        (0.01, 1e-4 * (1.0 + 2e-9)), (0.01, 1e-4 * (1.0 - 2e-9)),
        (0.01, 0.02), (0.3, 0.5), (1e300, 1e-300)])
    def test_etd_divisibility_is_the_integrators_rule(self, t_final, dt):
        try:
            parse_config_text(f"solver.etd_check = true\nsolver.t_final = {t_final!r}\n"
                              f"solver.dt = {dt!r}\n")
            config_ok = True
        except ConfigError as exc:
            config_ok = not any("must divide" in p for p in exc.problems)
        grid = build_grid(4)
        u0 = VelocityField.from_half(grid, np.zeros((3,) + grid.half_shape, dtype=complex))
        stop = threading.Event()
        stop.set()  # an accepted pair ends before its first step
        with pytest.raises((solver._EtdStopped, ValueError)) as exc:
            solver.etd_integrate(u0, navier_stokes_coeffs(), t_final, dt, stop=stop)
        assert config_ok == isinstance(exc.value, solver._EtdStopped)

    def test_etd_divisibility_skips_a_bad_t_final(self):
        problems = self.assert_problems(
            "solver.etd_check = true\nsolver.t_final = inf\n", "solver.t_final")
        assert not any("must divide" in p for p in problems)

    def test_n_shells_bounded_by_the_half_spectrum(self):
        modes = 8 * 8 * 5
        cfg = parse_config_text(f"grid.n = 8\ndiagnostics.n_shells = {modes}\n")
        assert cfg.diagnostics_n_shells == modes
        for n_shells in (modes + 1, 10**13):
            self.assert_problems(f"grid.n = 8\ndiagnostics.n_shells = {n_shells}\n",
                                 f"diagnostics.n_shells: {n_shells} exceeds the "
                                 f"{modes} modes")


# the band edges sit on, just above and just below the grid's largest |k|
SMALL_GRID = build_grid(6, period=157.07963267948966)
K_MAX = SMALL_GRID.k_max
EDGES = (K_MAX, np.nextafter(K_MAX, math.inf), np.nextafter(K_MAX, 0.0))
BAND_LOS = (-1.0, 0.0, 0.05, 0.1) + EDGES + (math.nan,)
BAND_HIS = (0.03, 0.05, 0.15) + EDGES + (2.0 * K_MAX, math.nan)
MODES = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, -2, 1), (3, 0, 0), (0, 0, -3), (2, 2, 2))
# each kind's sections vary only the data keys it reads; taylor_green reads none
DATA_SECTIONS = {
    "taylor_green": [dict(band_lo=0.05, band_hi=2.0 * K_MAX, k_cut=0.03, mode=(0, 0, 0)),
                     dict(band_lo=EDGES[1], band_hi=0.05, k_cut=EDGES[1], mode=(3, 0, 0))],
    "single_mode": [dict(mode=m) for m in MODES],
    "random_sobolev_tail": [dict(band_lo=lo, band_hi=hi)
                            for lo in BAND_LOS for hi in BAND_HIS],
    "compact_spectrum": [dict(band_lo=lo, k_cut=hi) for lo in BAND_LOS for hi in BAND_HIS],
}


def _data_section(kind: str, data: dict) -> str:
    lines = [f"data.{name} = " + (",".join(map(str, value)) if name == "mode"
                                  else repr(float(value)))
             for name, value in data.items()]
    return (f"grid.n = 6\ngrid.period = {SMALL_GRID.period!r}\n"
            "diagnostics.fit_lo = 0.05\ndiagnostics.fit_hi = 0.2\n"
            f"data.kind = {kind}\n" + "\n".join(lines) + "\n")


class TestDataRules:
    """The config refuses a data section exactly when the data cannot be
    built: it asks initial_data, for the selected kind only."""

    @pytest.mark.parametrize("kind", DATA_KINDS)
    def test_config_accepts_what_make_initial_data_builds(self, kind):
        for data in DATA_SECTIONS[kind]:
            try:
                cfg = parse_config_text(_data_section(kind, data))
                config_ok = True
            except ConfigError as exc:
                assert all(p.startswith("data.") for p in exc.problems), exc
                config_ok = False
            try:
                make_initial_data(kind, SMALL_GRID, DataParams(**data))
                data_ok = True
            except ValueError:
                data_ok = False
            assert config_ok == data_ok, (kind, data)
            if config_ok:
                assert cfg.build_grid() == SMALL_GRID

    def test_problem_names_the_key_and_matches_the_generator(self):
        text = _data_section("compact_spectrum", dict(band_lo=0.05, k_cut=EDGES[1]))
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        with pytest.raises(ValueError) as direct:
            make_initial_data("compact_spectrum", SMALL_GRID,
                              DataParams(band_lo=0.05, k_cut=EDGES[1]))
        assert exc.value.problems == [f"data.{direct.value}"]
        assert "largest wavenumber" in str(direct.value)

    def test_compact_band_ignores_band_hi(self):
        cfg = parse_config_text("data.kind = compact_spectrum\n"
                                "data.band_lo = 3\ndata.k_cut = 4\n")
        assert (cfg.data_band_lo, cfg.data_k_cut, cfg.data_band_hi) == (3.0, 4.0, 2.5)

    def test_compact_k_cut_must_exceed_band_lo(self):
        for k_cut in ("1.5", "2.0"):
            with pytest.raises(ConfigError) as exc:
                parse_config_text("data.kind = compact_spectrum\n"
                                  f"data.band_lo = 2.0\ndata.k_cut = {k_cut}\n")
            assert exc.value.problems == [
                f"data.k_cut: must exceed band_lo, got [2.0, {float(k_cut)}]"]

    def test_taylor_green_reads_no_band(self):
        # largest |k| is (2 pi / 20) * 4 * sqrt(3) ~ 2.18, under the default band_hi
        cfg = parse_config_text("grid.n = 8\ngrid.period = 20\ndata.kind = taylor_green\n")
        assert cfg.data_band_hi > cfg.build_grid().k_max

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_band_hi_is_positive_whatever_the_kind(self, value):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"data.band_hi = {value}\n")
        assert exc.value.problems == [f"data.band_hi: must be positive, got {float(value)}"]

    def test_bounds_are_the_grids_without_its_tables(self, monkeypatch):
        read = []
        k_max = Grid.k_max.func
        monkeypatch.setattr(Grid, "k_max", property(lambda g: read.append(g) or k_max(g)))

        def no_table(grid):
            raise AssertionError("a grid table was built")
        for name in ("alias_integers", "k_components", "k_sq", "k_norm", "inv_k_sq"):
            monkeypatch.setattr(Grid, name, property(no_table))
        tracemalloc.start()
        try:
            cfg = parse_config_text("grid.n = 4096\ndata.kind = random_sobolev_tail\n"
                                    "diagnostics.fit_hi = 2.0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read and set(read) == {cfg.build_grid()}
        assert peak < 2**20


@pytest.mark.usefixtures("small_linspace")
class TestTimeLatticeSize:
    @pytest.mark.parametrize("n_times", [2**32, 2**64])
    def test_n_times_beyond_uint32_is_named(self, n_times):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"solver.n_times = {n_times}\n")
        assert exc.value.problems == [
            f"solver.n_times: must be <= 2^32 - 1, got {n_times}"]

    def test_largest_n_times_parses_without_building_the_lattice(self):
        cfg = parse_config_text("solver.t_final = 0.01\nsolver.n_times = 4294967295\n")
        m = 2**32 - 1
        step = 0.01 / (m - 1)
        assert cfg.diagnostics_sample_times == ((m - 1) // 4 * step, (m - 1) // 2 * step, 0.01)
        cfg = parse_config_text("solver.t_final = 0.01\nsolver.n_times = 4294967295\n"
                                "diagnostics.sample_times = 0.0025, 0.005\n")
        assert cfg.diagnostics_sample_times == (0.0025, 0.005)

    @pytest.mark.parametrize("t_final", [0.01, 0.02, 0.5])
    @pytest.mark.parametrize("n_times", [2, 3, 5, 10, 33, 101, 4097])
    def test_auto_sample_times_are_linspace_points(self, t_final, n_times):
        cfg = parse_config_text(f"solver.t_final = {t_final}\nsolver.n_times = {n_times}\n"
                                "diagnostics.mode = critical\nphysics.gamma = 0.5\n")
        lattice = np.linspace(0.0, t_final, n_times)
        idx = sorted({max(1, (n_times - 1) // 4), max(1, (n_times - 1) // 2), n_times - 1})
        assert cfg.diagnostics_sample_times == tuple(float(lattice[i]) for i in idx)


class TestCanonicalForm:
    def test_round_trip_equality(self):
        cfg = parse_config_text(MINIMAL)
        again = parse_config_text(cfg.canonical_text())
        assert again == cfg

    def test_canonical_is_sorted_and_complete(self):
        cfg = parse_config_text(MINIMAL)
        lines = cfg.canonical_text().splitlines()
        keys = [ln.split(" = ")[0] for ln in lines]
        assert keys == sorted(keys)
        assert "grid.n" in keys and "output.formats" in keys
        assert len(keys) == 29

    def test_sha_stable_and_sensitive(self):
        a = parse_config_text(MINIMAL)
        b = parse_config_text(MINIMAL + "\n# another comment\n")
        assert a.sha256() == b.sha256()
        c = parse_config_text(MINIMAL.replace("grid.n = 16", "grid.n = 32"))
        assert c.sha256() != a.sha256()

    def test_key_order_in_source_is_irrelevant(self):
        a = parse_config_text("grid.n = 8\nphysics.gamma = 1.25\n")
        b = parse_config_text("physics.gamma = 1.25\ngrid.n = 8\n")
        assert a == b and a.sha256() == b.sha256()


class TestDerivedObjects:
    def test_build_grid(self):
        cfg = parse_config_text("grid.n = 16\ngrid.period = 5.0\n"
                                "data.band_hi = 2.5\ndiagnostics.fit_hi = 2.0\n")
        grid = cfg.build_grid()
        assert grid.n_per_axis == 16
        assert grid.period == 5.0

    def test_solver_config(self):
        cfg = parse_config_text("solver.t_final = 0.05\nsolver.n_times = 11\n"
                                "solver.quad_order = 4\nphysics.gamma = 1.5\n")
        sc = cfg.solver_config()
        assert sc.t_final == 0.05
        assert sc.n_times == 11
        assert sc.quad_order == 4
        assert sc.gamma == 1.5


class TestSingleKeyRules:
    @pytest.mark.parametrize("line, key", [
        ("solver.tol = 1.0", "solver.tol"), ("solver.tol = 1.5", "solver.tol"),
        ("solver.dt = inf", "solver.dt")])
    def test_values_the_solver_rejects_are_config_errors(self, line, key):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(line + "\n")
        assert [p.split(":")[0] for p in exc.value.problems] == [key]

    # every key whose value reaches Grid, SolverConfig or DataParams
    CONSTRUCTOR_KEYS = ("grid.n", "grid.period", "grid.dealias_fraction",
                        "solver.t_final", "solver.n_times", "solver.quad_order",
                        "solver.tol", "solver.max_iter", "physics.gamma",
                        "data.amplitude", "data.band_lo", "data.band_hi",
                        "data.k_cut", "data.spectral_exponent")

    @pytest.mark.parametrize("key", CONSTRUCTOR_KEYS)
    @pytest.mark.parametrize("value", ["0", "-1", "1", "1.5", "inf", "nan"])
    def test_parse_accepts_only_what_the_constructors_accept(self, key, value):
        try:
            cfg = parse_config_text(f"{key} = {value}\n")
        except ConfigError:
            return
        cfg.build_grid()
        cfg.solver_config()
        runner.data_params(cfg)


FLOAT_KEYS = [f.metadata["key"] for f in fields(ScenarioConfig)
              if f.metadata["tag"] in ("float", "float_or_auto")]


class TestFiniteFloats:
    """Every float key is finite: the one rule after each key's own check."""

    def test_the_float_keys(self):
        assert FLOAT_KEYS == [
            "grid.period", "grid.dealias_fraction", "solver.t_final", "solver.tol",
            "solver.dt", "solver.oracle_tol", "physics.gamma", "physics.delta",
            "data.amplitude", "data.band_lo", "data.band_hi", "data.k_cut",
            "data.spectral_exponent", "diagnostics.fit_lo", "diagnostics.fit_hi"]

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_values_are_refused(self, key, value):
        # the key's own check speaks first; what it admits, the rule refuses
        check = next(f.metadata["check"] for f in fields(ScenarioConfig)
                     if f.metadata["key"] == key)
        want = check(float(value)) or f"must be finite, got {float(value)}"
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"{key} = {value}\n")
        assert f"{key}: {want}" in exc.value.problems, exc.value

    def test_the_oracle_gate_cannot_be_switched_off(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("solver.etd_check = true\nsolver.oracle_tol = inf\n")
        assert exc.value.problems == ["solver.oracle_tol: must be finite, got inf"]

    def test_unread_data_keys_are_finite_too(self):
        # taylor_green reads no band key; each is still written to config.txt
        for key in ("data.band_lo", "data.band_hi", "data.k_cut",
                    "data.spectral_exponent"):
            with pytest.raises(ConfigError) as exc:
                parse_config_text(f"data.kind = taylor_green\n{key} = inf\n")
            assert exc.value.problems == [f"{key}: must be finite, got inf"]


def test_reference_tables_list_exactly_the_declared_keys():
    doc = Path(__file__).resolve().parents[1] / "docs" / "config.md"
    documented = re.findall(r"^\| `([a-z_]+\.[a-z0-9_]+)` \|", doc.read_text(), re.M)
    declared = [f.metadata["key"] for f in fields(ScenarioConfig)]
    assert len(documented) == len(set(documented))
    assert set(documented) == set(declared)


def test_every_declared_key_is_read_by_the_package():
    # a key nothing reads is a knob that changes only config.txt and its digest
    package = Path(__file__).resolve().parents[1] / "src" / "gnsflow"
    lines = [ln for path in sorted(package.glob("*.py")) for ln in path.read_text().splitlines()]
    unread = []
    for f in fields(ScenarioConfig):
        name = re.compile(rf"\b{f.name}\b")
        declaration = re.compile(rf"^\s*{f.name}\s*:")
        if not any(name.search(ln) and not declaration.match(ln) for ln in lines):
            unread.append(f.name)
    assert unread == []
