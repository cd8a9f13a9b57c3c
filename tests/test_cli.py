import errno
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
from gnsflow import cli, runner, solver, spectral
from gnsflow import io as gio
from gnsflow.config import ConfigError, parse_config_text
from gnsflow.diagnostics import BoundAccumulator, InconclusiveFitError
from gnsflow.operators import VelocityField, stack_coefficients
from gnsflow.runner import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_INCONCLUSIVE_FIT,
    EXIT_NO_CONVERGENCE,
    EXIT_ORACLE_DISAGREEMENT,
    OUTPUT_ROOT_ENV,
    ScenarioError,
    emit_plot_data,
    override_seed,
    resolve_output_dir,
    run_scenario,
)
from gnsflow.solver import BlowupError, band_plane_pairs
from gnsflow.spectral import CorruptedFieldError

BASE_CFG = """
grid.n = 16
solver.t_final = 0.02
solver.n_times = 9
data.kind = random_sobolev_tail
data.amplitude = 0.01
data.seed = 5
data.band_lo = 1.0
data.band_hi = 6.0
diagnostics.sample_times = 0.005, 0.01, 0.02
diagnostics.fit_lo = 1.5
diagnostics.fit_hi = 5.5
diagnostics.n_shells = 48
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture(autouse=True)
def no_output_root(monkeypatch):
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)


class TestRunScenario:
    def test_happy_path_artifacts(self, tmp_path):
        cfg = parse_config_text(BASE_CFG)
        art = run_scenario(cfg, out_dir=tmp_path / "run")
        assert art.out_dir == tmp_path / "run"
        for path in (art.trajectory_manifest, art.norms_csv, art.report_csv,
                     art.report_json, art.run_json):
            assert path is not None and path.exists()
        assert (art.out_dir / "config.txt").read_text() == cfg.canonical_text()
        run_doc = json.loads(art.run_json.read_text())
        assert run_doc["status"] == "ok"
        assert run_doc["picard"]["converged"] is True
        assert run_doc["config_sha256"] == cfg.sha256()
        ratios = run_doc["picard"]["contraction_ratios"]
        assert len(ratios) == len(run_doc["picard"]["interval_iterates"])
        assert ratios == [r if math.isfinite(r) else "nan"
                          for r in art.picard.contraction_ratios]
        assert art.picard.converged
        assert np.all(np.isfinite(art.report.ratio))
        # no leftover partial directories
        partials = [p for p in tmp_path.iterdir() if "partial" in p.name]
        assert partials == []

    def test_refuses_non_empty_target(self, tmp_path):
        target = tmp_path / "run"
        target.mkdir()
        (target / "keep.txt").write_text("x")
        cfg = parse_config_text(BASE_CFG)
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, out_dir=target)
        assert exc.value.exit_code == EXIT_CONFIG
        assert (target / "keep.txt").exists()

    def test_empty_existing_target_is_fine(self, tmp_path):
        target = tmp_path / "run"
        target.mkdir()
        cfg = parse_config_text(BASE_CFG)
        art = run_scenario(cfg, out_dir=target)
        assert art.run_json.exists()

    def test_non_convergence_publishes_evidence(self, tmp_path):
        cfg = parse_config_text(BASE_CFG + "solver.max_iter = 2\nsolver.tol = 1e-30\n")
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, out_dir=tmp_path / "run")
        assert exc.value.exit_code == EXIT_NO_CONVERGENCE
        out = tmp_path / "run"
        deltas = (out / "deltas.csv").read_text().splitlines()
        assert deltas[0] == "interval,iteration,delta"
        assert [row.split(",")[:2] for row in deltas[1:]] == [["0", "1"], ["0", "2"]]
        doc = json.loads((out / "run.json").read_text())
        assert doc["status"] == "not_converged"
        assert doc["picard"]["interval_iterates"] == [2]
        assert not (out / "report.csv").exists()

    def test_oracle_disagreement_exit(self, tmp_path):
        cfg = parse_config_text(
            BASE_CFG + "solver.etd_check = true\nsolver.dt = 0.001\n"
                       "solver.oracle_tol = 1e-18\n")
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, out_dir=tmp_path / "run")
        assert exc.value.exit_code == EXIT_ORACLE_DISAGREEMENT
        doc = json.loads((tmp_path / "run" / "run.json").read_text())
        assert doc["status"] == "oracle_disagreement"
        assert doc["etd_rel_error"] > 0.0

    def test_inconclusive_fit_publishes_evidence(self, tmp_path):
        # flat compact spectrum has no decay slope inside the band
        cfg = parse_config_text(
            "grid.n = 16\nsolver.t_final = 0.001\nsolver.n_times = 3\n"
            "data.kind = compact_spectrum\ndata.amplitude = 0.01\n"
            "data.band_lo = 1.0\ndata.k_cut = 6.0\n"
            "diagnostics.sample_times = 0.001\n"
            "diagnostics.fit_lo = 1.5\ndiagnostics.fit_hi = 5.5\n"
            "diagnostics.n_shells = 48\n")
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, out_dir=tmp_path / "run")
        assert exc.value.exit_code == EXIT_INCONCLUSIVE_FIT
        out = tmp_path / "run"
        assert (out / "trajectory" / "manifest.json").exists()
        evidence = json.loads((out / "inconclusive.json").read_text())
        assert "error" in evidence
        doc = json.loads((out / "run.json").read_text())
        assert doc["status"] == "inconclusive_fit"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config_text(BASE_CFG)
        a = run_scenario(cfg, out_dir=tmp_path / "a")
        b = run_scenario(cfg, out_dir=tmp_path / "b")
        for name in ("report.csv", "report.json", "norms.csv", "config.txt"):
            assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()
        ma = json.loads(a.trajectory_manifest.read_text())
        mb = json.loads(b.trajectory_manifest.read_text())
        assert helpers.manifest_comparison_key(ma) == helpers.manifest_comparison_key(mb)
        for entry in ma["files"]:
            fa = (a.out_dir / "trajectory" / entry["name"]).read_bytes()
            fb = (b.out_dir / "trajectory" / entry["name"]).read_bytes()
            assert fa == fb

    def test_seed_override_changes_data(self, tmp_path):
        cfg = parse_config_text(BASE_CFG)
        other = override_seed(cfg, 99)
        assert other.data_seed == 99
        assert other.sha256() != cfg.sha256()
        assert override_seed(cfg, None) is cfg
        with pytest.raises(ScenarioError):
            override_seed(cfg, -1)

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg = parse_config_text(BASE_CFG + "output.directory = nested/run\n")
        assert resolve_output_dir(cfg) == tmp_path / "root" / "nested" / "run"
        # absolute --out wins regardless of the env root
        assert resolve_output_dir(cfg, str(tmp_path / "abs")) == tmp_path / "abs"

    def test_output_formats_respected(self, tmp_path):
        cfg = parse_config_text(BASE_CFG + "output.formats = json\n")
        art = run_scenario(cfg, out_dir=tmp_path / "run")
        assert art.report_csv is None
        assert not (art.out_dir / "report.csv").exists()
        assert art.report_json.exists()

    def test_missing_coefficient_file(self, tmp_path):
        cfg = parse_config_text(BASE_CFG + "physics.coefficients = nope.json\n")
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, out_dir=tmp_path / "run", base_dir=tmp_path)
        assert exc.value.exit_code == EXIT_CONFIG

    def test_norms_csv_content(self, tmp_path):
        cfg = parse_config_text(BASE_CFG)
        art = run_scenario(cfg, out_dir=tmp_path / "run")
        lines = art.norms_csv.read_text().splitlines()
        assert lines[0] == "t,h_gamma,h_half_plus_delta,l2"
        assert len(lines) == 1 + 9
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert all(v > 0 for v in first[1:])


class TestEmitPlotData:
    def test_writes_three_curves(self, tmp_path):
        cfg = parse_config_text(BASE_CFG)
        art = run_scenario(cfg, out_dir=tmp_path / "run")
        paths = emit_plot_data(art.out_dir)
        names = sorted(p.name for p in paths)
        assert names == ["eta_vs_j.dat", "radius_vs_time.dat", "ratio_vs_time.dat"]
        ratio_lines = (art.out_dir / "ratio_vs_time.dat").read_text().splitlines()
        assert ratio_lines[0].startswith("#")
        assert len(ratio_lines) == 1 + art.report.n_rows
        t0, r0 = ratio_lines[1].split()
        assert float(t0) == art.report.times[0]
        assert float(r0) == art.report.ratio[0]
        eta_lines = (art.out_dir / "eta_vs_j.dat").read_text().splitlines()[1:]
        js = [float(ln.split()[0]) for ln in eta_lines]
        assert len(js) == art.report.n_rows
        assert js == sorted(js)
        etas = [float(ln.split()[1]) for ln in eta_lines]
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))

    def test_requires_report_json(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ScenarioError) as exc:
            emit_plot_data(tmp_path / "empty")
        assert exc.value.exit_code == EXIT_CONFIG


class TestCliCommands:
    def test_solve_happy_path(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        rc = cli.main(["solve", str(cfg_path), "--out", str(tmp_path / "run")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out
        assert "ratio=" in out
        assert (tmp_path / "run" / "report.json").exists()

    def test_solve_seed_flag(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        rc = cli.main(["solve", str(cfg_path), "--seed", "7",
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        text = (tmp_path / "run" / "config.txt").read_text()
        assert "data.seed = 7" in text

    def test_solve_missing_config(self, tmp_path, capsys):
        rc = cli.main(["solve", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_solve_bad_config_lists_problems(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "grid.n = 7\nsolver.tol = -1\n")
        rc = cli.main(["solve", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "grid.n" in err and "solver.tol" in err

    def test_solve_non_empty_target(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        target = tmp_path / "run"
        target.mkdir()
        (target / "junk").write_text("")
        rc = cli.main(["solve", str(cfg_path), "--out", str(target)])
        assert rc == EXIT_CONFIG

    def test_solve_inconclusive_exit_code(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            "grid.n = 16\nsolver.t_final = 0.001\nsolver.n_times = 3\n"
            "data.kind = compact_spectrum\ndata.amplitude = 0.01\n"
            "data.band_lo = 1.0\ndata.k_cut = 6.0\n"
            "diagnostics.sample_times = 0.001\n"
            "diagnostics.fit_lo = 1.5\ndiagnostics.fit_hi = 5.5\n"
            "diagnostics.n_shells = 48\n")
        rc = cli.main(["solve", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == EXIT_INCONCLUSIVE_FIT

    def test_solve_sample_time_past_bound_domain_fails_at_parse(self, tmp_path, capsys):
        # lambda_subcritical needs t < 1/e: rejected before any solve runs
        cfg_path = write_cfg(
            tmp_path,
            "grid.n = 8\nsolver.t_final = 0.5\nsolver.n_times = 5\n"
            "diagnostics.mode = subcritical\ndiagnostics.sample_times = 0.5\n")
        rc = cli.main(["solve", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert "diagnostics.sample_times[0]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("line", ["solver.tol = 1.0", "solver.tol = 1.5",
                                      "solver.dt = inf"])
    def test_solve_tol_and_dt_outside_solver_range_fail_at_parse(self, tmp_path,
                                                                 capsys, line):
        cfg_path = write_cfg(tmp_path, BASE_CFG + line + "\n")
        rc = cli.main(["solve", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert line.split(" = ")[0] + ": must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("n_times", [2**32, 2**64])
    def test_solve_n_times_beyond_uint32_fails_at_parse(self, tmp_path, capsys,
                                                        small_linspace, n_times):
        cfg_path = write_cfg(tmp_path, BASE_CFG.replace("solver.n_times = 9",
                                                        f"solver.n_times = {n_times}"))
        rc = cli.main(["solve", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        assert f"solver.n_times: must be <= 2^32 - 1, got {n_times}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("exc, code", [
        (ConfigError(["grid.n: bad"]), EXIT_CONFIG),
        (gio.FormatError("bad header"), EXIT_CONFIG),
        (CorruptedFieldError("not Hermitian", 1.0), EXIT_CONFIG),
        (FileNotFoundError("missing"), EXIT_CONFIG),
        (ScenarioError("oracle", EXIT_ORACLE_DISAGREEMENT), EXIT_ORACLE_DISAGREEMENT),
        (InconclusiveFitError("flat spectrum"), EXIT_INCONCLUSIVE_FIT),
        (BlowupError("blew up", 0.1, 1e9), EXIT_NO_CONVERGENCE),
        (ValueError("unexpected"), EXIT_FAILURE),
        (RuntimeError("unexpected"), EXIT_FAILURE),
    ])
    def test_exception_exit_codes(self, tmp_path, capsys, monkeypatch, exc, code):
        def handler(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_report", handler)
        assert cli.main(["report", str(tmp_path)]) == code
        assert str(exc) in capsys.readouterr().err

    def test_solve_internal_error_publishes_evidence(self, tmp_path, capsys,
                                                     monkeypatch):
        # the solve's report is finished by the accumulator the march fed
        def broken_report(*args, **kwargs):
            raise RuntimeError("report exploded")
        monkeypatch.setattr(BoundAccumulator, "finish", broken_report)
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "run"
        assert cli.main(["solve", str(cfg_path), "--out", str(out)]) == EXIT_FAILURE
        assert "report exploded" in capsys.readouterr().err
        assert (out / "config.txt").exists()
        assert (out / "norms.csv").exists()
        assert (out / "trajectory" / "manifest.json").exists()
        doc = json.loads((out / "error.json").read_text())
        assert doc == {"error": "RuntimeError: report exploded"}
        assert [p for p in tmp_path.iterdir() if "partial" in p.name] == []

    def test_diagnose_matches_solve(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["solve", str(cfg_path), "--out",
                         str(tmp_path / "run")]) == 0
        capsys.readouterr()
        rc = cli.main(["diagnose", str(tmp_path / "run" / "trajectory"),
                       str(cfg_path), "--out", str(tmp_path / "diag")])
        assert rc == 0
        assert (tmp_path / "diag" / "report.csv").read_bytes() == \
            (tmp_path / "run" / "report.csv").read_bytes()

    def test_diagnose_missing_trajectory(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        rc = cli.main(["diagnose", str(tmp_path / "nowhere"), str(cfg_path)])
        assert rc == EXIT_CONFIG

    def test_diagnose_rejects_non_hermitian_u0(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["solve", str(cfg_path), "--out",
                         str(tmp_path / "run")]) == 0
        capsys.readouterr()
        trajectory = tmp_path / "run" / "trajectory"
        grid = gio.read_field(trajectory / gio.U0_FILE).grid
        # Leray projection of Hermitian noise with Nyquist content
        noise = np.stack([spectral.fftn(np.random.default_rng(1).standard_normal(grid.shape))
                          for _ in range(3)])
        helpers.write_raw_field(trajectory / gio.U0_FILE, grid,
                                helpers.oracle_leray(noise, grid.n_per_axis, grid.period))
        helpers.repoint_digest(trajectory, gio.U0_FILE)
        rc = cli.main(["diagnose", str(trajectory), str(cfg_path),
                       "--out", str(tmp_path / "diag")])
        assert rc == EXIT_CONFIG
        assert "Hermitian deviation" in capsys.readouterr().err

    def test_diagnose_rejects_nan_in_u0(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["solve", str(cfg_path), "--out",
                         str(tmp_path / "run")]) == 0
        capsys.readouterr()
        trajectory = tmp_path / "run" / "trajectory"
        u0 = gio.read_field(trajectory / gio.U0_FILE)
        stack = stack_coefficients(u0)
        stack[0, 1, 2, 3] = np.nan
        helpers.write_raw_field(trajectory / gio.U0_FILE, u0.grid, stack)
        helpers.repoint_digest(trajectory, gio.U0_FILE)
        rc = cli.main(["diagnose", str(trajectory), str(cfg_path),
                       "--out", str(tmp_path / "diag")])
        assert rc == EXIT_CONFIG == 2
        err = capsys.readouterr().err
        assert gio.U0_FILE in err and "Hermitian deviation" in err
        assert not (tmp_path / "diag").exists()

    def test_diagnose_rejects_non_hermitian_plane_increments(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["solve", str(cfg_path), "--out",
                         str(tmp_path / "run")]) == 0
        capsys.readouterr()
        trajectory = tmp_path / "run" / "trajectory"
        traj = gio.read_trajectory(trajectory)
        plane, partner = band_plane_pairs(traj.grid, traj.band_kind)
        pos = int(plane[np.flatnonzero(plane != partner)[0]])
        helpers.shift_increment(trajectory, (-1, 0, pos), 1e-3 * (1 + 1j))
        rc = cli.main(["diagnose", str(trajectory), str(cfg_path),
                       "--out", str(tmp_path / "diag")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert gio.INCREMENTS_FILE in err and "Hermitian deviation" in err
        assert not (tmp_path / "diag").exists()

    def test_diagnose_rejects_nan_interior_increment(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["solve", str(cfg_path), "--out",
                         str(tmp_path / "run")]) == 0
        capsys.readouterr()
        trajectory = tmp_path / "run" / "trajectory"
        traj = gio.read_trajectory(trajectory)
        plane, _ = band_plane_pairs(traj.grid, traj.band_kind)
        pos = int(np.setdiff1d(np.arange(traj.increments.shape[-1]), plane)[0])
        helpers.shift_increment(trajectory, (-1, 0, pos), np.nan)
        rc = cli.main(["diagnose", str(trajectory), str(cfg_path),
                       "--out", str(tmp_path / "diag")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert gio.INCREMENTS_FILE in err and "non-finite" in err
        assert not (tmp_path / "diag").exists()

    def test_report_command(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["solve", str(cfg_path), "--out",
                         str(tmp_path / "run")]) == 0
        capsys.readouterr()
        rc = cli.main(["report", str(tmp_path / "run")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("wrote ") == 3

    def test_report_without_run(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        rc = cli.main(["report", str(tmp_path / "empty")])
        assert rc == EXIT_CONFIG

    def test_selftest(self, capsys):
        rc = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_threads_flag_validation(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        rc = cli.main(["solve", str(cfg_path), "--threads", "0"])
        assert rc == EXIT_CONFIG

    def test_threads_flag_above_usable_cpus(self, tmp_path, capsys, monkeypatch):
        from gnsflow.spectral import get_fft_workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        for command in (["solve", str(cfg_path)],
                        ["diagnose", str(tmp_path / "trajectory"), str(cfg_path)]):
            rc = cli.main(command + ["--threads", "2"])
            assert rc == EXIT_CONFIG
            assert "exceeds the 1 CPU(s)" in capsys.readouterr().err
        assert get_fft_workers() == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [cfg_path.name]

    def test_threads_flag_applied(self, tmp_path, capsys, monkeypatch):
        from gnsflow.spectral import get_fft_workers, set_fft_workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        try:
            rc = cli.main(["solve", str(cfg_path), "--threads", "2",
                           "--out", str(tmp_path / "run")])
            assert rc == 0
            assert get_fft_workers() == 2
        finally:
            set_fft_workers(1)


def _rewrite_json(edit):
    """A corruption that applies edit to the parsed document and writes it back."""
    def corrupt(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return corrupt


def _not_json(path):
    path.write_text(path.read_text()[:-10])


MANIFEST_CORRUPTIONS = {
    "not_json": _not_json,
    "not_an_object": lambda path: path.write_text(f"[{path.read_text()}]"),
    "missing_band": _rewrite_json(lambda m: m.pop("band")),
    "missing_times": _rewrite_json(lambda m: m.pop("times")),
    "missing_file_name": _rewrite_json(lambda m: m["files"][0].pop("name")),
    "missing_grid_period": _rewrite_json(lambda m: m["grid"].pop("period")),
    "grid_n_is_text": _rewrite_json(lambda m: m["grid"].update(n_per_axis="16")),
    "grid_n_odd": _rewrite_json(lambda m: m["grid"].update(n_per_axis=15)),
    "grid_not_an_object": _rewrite_json(lambda m: m.update(grid=16)),
    "times_not_a_list": _rewrite_json(lambda m: m.update(times=0.02)),
    "times_hold_text": _rewrite_json(lambda m: m["times"].__setitem__(1, "soon")),
    "times_nested": _rewrite_json(lambda m: m.update(times=[m["times"]])),
    "times_not_increasing": _rewrite_json(lambda m: m["times"].reverse()),
    "band_unknown": _rewrite_json(lambda m: m.update(band="some")),
    "band_not_text": _rewrite_json(lambda m: m.update(band=["kept"])),
    "files_not_a_list": _rewrite_json(lambda m: m.update(files="u0.gsf")),
    "file_name_not_text": _rewrite_json(lambda m: m["files"][0].update(name=3)),
}

REPORT_CORRUPTIONS = {
    "not_json": _not_json,
    "missing_rows": _rewrite_json(lambda d: d.pop("rows")),
    "missing_ratio": _rewrite_json(lambda d: d["rows"].pop("ratio")),
    "missing_gamma": _rewrite_json(lambda d: d.pop("gamma")),
    "ratio_holds_text": _rewrite_json(lambda d: d["rows"]["ratio"].__setitem__(0, "big")),
    "ratio_not_a_list": _rewrite_json(lambda d: d["rows"].update(ratio=1.0)),
    "columns_differ_in_length": _rewrite_json(lambda d: d["rows"]["t"].pop()),
    "gamma_below_half": _rewrite_json(lambda d: d.update(gamma=-1)),
    "gamma_nan": _rewrite_json(lambda d: d.update(gamma="nan")),
}


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    """One finished run of BASE_CFG, to be copied by each test that corrupts it."""
    base = tmp_path_factory.mktemp("solved")
    cfg_path = write_cfg(base, BASE_CFG)
    assert cli.main(["solve", str(cfg_path), "--out", str(base / "run")]) == 0
    return cfg_path, base / "run"


class TestMalformedFiles:
    """A malformed manifest.json or report.json is a file-format problem: exit 2,
    with the file named on stderr and no output written."""

    @pytest.mark.parametrize("command", ["diagnose", "report"])
    @pytest.mark.parametrize("corrupt", MANIFEST_CORRUPTIONS.values(),
                             ids=MANIFEST_CORRUPTIONS.keys())
    def test_malformed_manifest(self, tmp_path, capsys, solved_run, command, corrupt):
        cfg_path, solved = solved_run
        run = shutil.copytree(solved, tmp_path / "run")
        corrupt(run / "trajectory" / "manifest.json")
        capsys.readouterr()
        if command == "diagnose":
            argv = ["diagnose", str(run / "trajectory"), str(cfg_path),
                    "--out", str(tmp_path / "diag")]
        else:
            argv = ["report", str(run)]
        assert cli.main(argv) == EXIT_CONFIG
        assert "manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()
        assert sorted(run.glob("*.dat")) == []

    @pytest.mark.parametrize("corrupt", REPORT_CORRUPTIONS.values(),
                             ids=REPORT_CORRUPTIONS.keys())
    def test_malformed_report(self, tmp_path, capsys, solved_run, corrupt):
        _, solved = solved_run
        run = shutil.copytree(solved, tmp_path / "run")
        corrupt(run / "report.json")
        capsys.readouterr()
        assert cli.main(["report", str(run)]) == EXIT_CONFIG
        assert "report.json" in capsys.readouterr().err
        assert sorted(run.glob("*.dat")) == []

    @pytest.mark.parametrize("command", ["diagnose", "report"])
    def test_unreadable_increments(self, tmp_path, capsys, solved_run, command):
        # a directory where increments.gsi should be: reading it is an OSError
        cfg_path, solved = solved_run
        run = shutil.copytree(solved, tmp_path / "run")
        increments = run / "trajectory" / gio.INCREMENTS_FILE
        increments.unlink()
        increments.mkdir()
        capsys.readouterr()
        if command == "diagnose":
            argv = ["diagnose", str(run / "trajectory"), str(cfg_path),
                    "--out", str(tmp_path / "diag")]
        else:
            argv = ["report", str(run)]
        assert cli.main(argv) == EXIT_CONFIG
        assert "cannot load trajectory" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()
        assert sorted(run.glob("*.dat")) == []

    @pytest.mark.parametrize("command", ["diagnose", "report"])
    def test_bad_grid_in_u0_header(self, tmp_path, capsys, solved_run, command):
        # n_per_axis = 7 in u0.gsf's header, with the manifest digest repointed
        # so that the header, not the sha256 check, is what fails
        cfg_path, solved = solved_run
        run = shutil.copytree(solved, tmp_path / "run")
        u0 = run / "trajectory" / "u0.gsf"
        data = bytearray(u0.read_bytes())
        data[8:12] = (7).to_bytes(4, "little")
        u0.write_bytes(bytes(data))
        digest = hashlib.sha256(bytes(data)).hexdigest()

        def repoint(m):
            next(f for f in m["files"] if f["name"] == "u0.gsf")["sha256"] = digest
        _rewrite_json(repoint)(run / "trajectory" / "manifest.json")
        capsys.readouterr()
        if command == "diagnose":
            argv = ["diagnose", str(run / "trajectory"), str(cfg_path),
                    "--out", str(tmp_path / "diag")]
        else:
            argv = ["report", str(run)]
        assert cli.main(argv) == EXIT_CONFIG
        assert "u0.gsf" in capsys.readouterr().err
        assert sorted(run.glob("*.dat")) == []


def _tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root by relative path, the manifest without its wall clock."""
    tree = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            key = helpers.manifest_comparison_key(json.loads(data))
            data = json.dumps(key, sort_keys=True).encode()
        tree[str(path.relative_to(root))] = data
    return tree


class TestOutputPaths:
    """An --out path that a file stands in the way of is an input problem:
    exit 2 with the path on stderr. The staging directories of killed runs
    are named and left alone."""

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_solve_out_naming_a_file(self, tmp_path, capsys, below):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / below if below else afile
        assert cli.main(["solve", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(afile) in err
        assert "Error" not in err
        assert afile.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "scenario.cfg"]

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_diagnose_out_naming_a_file(self, tmp_path, capsys, solved_run, below):
        cfg_path, run = solved_run
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / below if below else afile
        rc = cli.main(["diagnose", str(run / "trajectory"), str(cfg_path),
                       "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Error" not in err
        assert afile.read_text() == "kept"

    def test_solve_names_stale_partials_and_keeps_them(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        stale = [tmp_path / "run.partial.k1ll3d", tmp_path / "run.partial.00m"]
        for directory in stale:
            directory.mkdir()
            (directory / "config.txt").write_text("left by a killed run\n")
        other = tmp_path / "runner.partial.x"   # another target's staging directory
        other.mkdir()
        before = {d: _tree_bytes(d) for d in stale + [other]}

        assert cli.main(["solve", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {d} is left from a run that was killed; not removed"
                       for d in sorted(stale)]
        assert {d: _tree_bytes(d) for d in stale + [other]} == before

        clean = tmp_path / "clean"
        clean.mkdir()
        assert cli.main(["solve", str(cfg_path), "--out", str(clean / "run")]) == 0
        assert capsys.readouterr().err == ""
        assert _tree_bytes(tmp_path / "run") == _tree_bytes(clean / "run")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["scenario.cfg", "run", "clean", other.name] + [d.name for d in stale])


DIVERGING_CFG = """
grid.n = 8
data.kind = random_sobolev_tail
data.amplitude = 1e6
data.band_lo = 1.0
data.band_hi = 3.0
solver.t_final = 0.3
solver.n_times = 8
solver.max_iter = 10
"""


def _etd_blows_up(*args, **kwargs):
    raise BlowupError("reference integrator overflowed", 0.005, 1e300)


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _etd_fails(*args, **kwargs):
    raise RuntimeError("reference integrator bug")


_append = gio.TrajectoryWriter.append


def _disk_full_at_state_3(writer, row):
    # the temp increments file holds the header and three rows when it fills
    if writer._rows == 3:
        _disk_full()
    _append(writer, row)


INCONCLUSIVE_CFG = """
grid.n = 16
solver.t_final = 0.001
solver.n_times = 3
data.kind = compact_spectrum
data.amplitude = 0.01
data.band_lo = 1.0
data.k_cut = 6.0
diagnostics.sample_times = 0.0005, 0.001
diagnostics.fit_lo = 1.5
diagnostics.fit_hi = 5.5
diagnostics.n_shells = 48
"""


@pytest.mark.parametrize("text, patch, code, files, evidence", [
    pytest.param(DIVERGING_CFG, None, EXIT_NO_CONVERGENCE,
                 ["config.txt", "deltas.csv", "run.json"],
                 {("run.json", "status"): "diverged",
                  ("run.json", "picard", "residual_max"): "inf"},
                 id="picard_diverges"),
    pytest.param(BASE_CFG + "solver.etd_check = true\nsolver.dt = 0.001\n",
                 (runner, "etd_integrate", _etd_blows_up), EXIT_ORACLE_DISAGREEMENT,
                 ["config.txt", "run.json"],
                 {("run.json", "status"): "oracle_disagreement",
                  ("run.json", "etd_rel_error"): "inf",
                  ("run.json", "picard", "converged"): True},
                 id="etd_blows_up_after_converged_solve"),
    pytest.param(DIVERGING_CFG + "solver.etd_check = true\n",
                 (runner, "etd_integrate", _etd_blows_up), EXIT_NO_CONVERGENCE,
                 ["config.txt", "deltas.csv", "run.json"],
                 {("run.json", "status"): "diverged",
                  ("run.json", "etd_rel_error"): None},
                 id="etd_blows_up_at_once_then_picard_diverges"),
    pytest.param(BASE_CFG + "solver.etd_check = true\nsolver.dt = 0.001\n",
                 (runner, "etd_integrate", _etd_fails), EXIT_FAILURE,
                 ["config.txt", "error.json"],
                 {("error.json", "error"): "RuntimeError: reference integrator bug"},
                 id="etd_fails_after_converged_solve"),
    pytest.param(BASE_CFG, (gio.TrajectoryWriter, "append", _disk_full), EXIT_FAILURE,
                 ["config.txt", "error.json"],
                 {("error.json", "error"): "OSError: [Errno 28] No space left on device"},
                 id="trajectory_write_fails"),
    pytest.param(BASE_CFG + "solver.etd_check = true\nsolver.dt = 0.001\n",
                 (gio.TrajectoryWriter, "append", _disk_full_at_state_3), EXIT_FAILURE,
                 ["config.txt", "error.json"],
                 {("error.json", "error"): "OSError: [Errno 28] No space left on device"},
                 id="disk_fills_mid_march"),
    pytest.param(BASE_CFG + "solver.max_iter = 2\nsolver.tol = 1e-30\n", None,
                 EXIT_NO_CONVERGENCE, ["config.txt", "deltas.csv", "run.json"],
                 {("run.json", "status"): "not_converged"},
                 id="picard_stalls"),
    pytest.param(BASE_CFG + "solver.etd_check = true\nsolver.dt = 0.001\n"
                            "solver.oracle_tol = 1e-18\n", None,
                 EXIT_ORACLE_DISAGREEMENT, ["config.txt", "run.json"],
                 {("run.json", "status"): "oracle_disagreement"},
                 id="oracle_disagrees"),
    pytest.param(INCONCLUSIVE_CFG, None, EXIT_INCONCLUSIVE_FIT,
                 ["config.txt", "inconclusive.json", "norms.csv", "run.json", "trajectory"],
                 {("run.json", "status"): "inconclusive_fit"},
                 id="inconclusive_fit"),
])
def test_failure_classes_through_the_runner(tmp_path, capsys, monkeypatch, text, patch,
                                            code, files, evidence):
    """Each failure class ends in its exit code with its evidence published
    under the output directory and no partial directory left behind."""
    if patch is not None:
        monkeypatch.setattr(*patch)
    cfg_path = write_cfg(tmp_path, text)
    out = tmp_path / "run"
    assert cli.main(["solve", str(cfg_path), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == files
    for (name, *keys), want in evidence.items():
        doc = json.loads((out / name).read_text())
        for key in keys:
            doc = doc[key]
        assert doc == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run", cfg_path.name]


ORACLE_THREAD = "gnsflow-etd-oracle"


def _oracle_threads():
    return [t for t in threading.enumerate() if t.name.startswith(ORACLE_THREAD)]


class _CountingStop:
    """Stands in for the runner's stop event and counts the oracle's checks,
    one per step."""

    def __init__(self, event):
        self.event = event
        self.checks = 0

    def is_set(self):
        self.checks += 1
        return self.event.is_set()


@pytest.fixture
def oracle_spy(monkeypatch):
    """Rebinds runner.etd_integrate to the real oracle run on a 1e-9 scaled
    copy of u0 (which never blows up), recording its stop checks, its
    exception and that it started."""
    seen = {"started": threading.Event()}
    real = solver.etd_integrate

    def spy(u0, coeffs, t_final, dt, *, stop):
        seen["stop"] = _CountingStop(stop)
        seen["steps"] = int(round(t_final / dt))
        seen["started"].set()
        tame = VelocityField.from_half(u0.grid, 1e-9 * u0.half_spectrum())
        try:
            return real(tame, coeffs, t_final, dt, stop=seen["stop"])
        except BaseException as exc:
            seen["error"] = exc
            raise

    monkeypatch.setattr(runner, "etd_integrate", spy)
    return seen


@pytest.mark.parametrize("etd_check, workers", [("false", 0), ("true", 1)])
def test_oracle_thread_only_with_the_etd_check(tmp_path, monkeypatch, etd_check, workers):
    seen = []
    real = runner.picard_solve

    def recording_march(*args, **kwargs):
        seen.append(len(_oracle_threads()))
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "picard_solve", recording_march)
    cfg = parse_config_text(BASE_CFG + f"solver.etd_check = {etd_check}\n"
                            "solver.dt = 0.001\n")
    run_scenario(cfg, out_dir=tmp_path / "run")
    assert seen == [workers]


def test_diverging_march_stops_the_oracle(tmp_path, capsys, oracle_spy):
    cfg_path = write_cfg(tmp_path, DIVERGING_CFG + "solver.etd_check = true\n")
    out = tmp_path / "run"
    assert cli.main(["solve", str(cfg_path), "--out", str(out)]) == EXIT_NO_CONVERGENCE
    assert sorted(p.name for p in out.iterdir()) == ["config.txt", "deltas.csv", "run.json"]
    assert json.loads((out / "run.json").read_text())["status"] == "diverged"
    assert isinstance(oracle_spy["error"], solver._EtdStopped)
    assert oracle_spy["stop"].checks < oracle_spy["steps"]
    assert _oracle_threads() == []


def test_interrupt_stops_the_oracle_and_removes_the_partial_dir(tmp_path, oracle_spy,
                                                                monkeypatch):
    def interrupted_march(*args, **kwargs):
        assert oracle_spy["started"].wait(timeout=30)
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "picard_solve", interrupted_march)
    cfg = parse_config_text(BASE_CFG + "solver.etd_check = true\nsolver.dt = 1e-5\n")
    with pytest.raises(KeyboardInterrupt):
        run_scenario(cfg, out_dir=tmp_path / "run")
    assert list(tmp_path.iterdir()) == []
    assert _oracle_threads() == []
    assert isinstance(oracle_spy["error"], solver._EtdStopped)
    assert oracle_spy["stop"].checks < oracle_spy["steps"]


class TestStreamedSolve:
    """run_scenario streams each state out of the march; what it writes is
    what the Trajectory path computes from the stored run, byte for byte."""

    @staticmethod
    def trajectory_path_files(cfg, run, target):
        traj = gio.read_trajectory(run / "trajectory")
        gio.write_csv(target / "norms.csv", ("t", "h_gamma", "h_half_plus_delta", "l2"),
                      [(float(t),
                        runner.sobolev_norm(state, cfg.physics_gamma, homogeneous=False),
                        runner.sobolev_norm(state, 0.5 + cfg.physics_delta,
                                            homogeneous=True),
                        runner.lebesgue_norm(state, 2.0))
                       for t, state in zip(traj.times, traj.states)])
        report = runner.bound_report(traj, cfg.physics_gamma, cfg.diagnostics_mode,
                                     cfg.diagnostics_fit_lo, cfg.diagnostics_fit_hi,
                                     cfg.diagnostics_sample_times,
                                     cfg.diagnostics_n_shells)
        gio.write_bound_report_json(target / "report.json", report)
        return traj

    @pytest.mark.parametrize("etd_check", [False, True])
    @pytest.mark.parametrize("seed", [2024, 90210])
    def test_outputs_equal_the_trajectory_path(self, tmp_path, seed, etd_check):
        extra = "solver.etd_check = true\nsolver.dt = 0.001\n" if etd_check else ""
        cfg = override_seed(parse_config_text(BASE_CFG + extra), seed)
        run = tmp_path / "run"
        art = run_scenario(cfg, out_dir=run)
        assert (art.etd_rel_error is not None) == etd_check
        target = tmp_path / "traj_path"
        target.mkdir()
        traj = self.trajectory_path_files(cfg, run, target)
        for name in ("norms.csv", "report.json"):
            assert (run / name).read_bytes() == (target / name).read_bytes(), name
        # the library's collecting consumer holds the rows the runner streamed
        u0 = VelocityField.from_half(traj.grid, traj.u0)
        collected, _ = solver.picard_solve(u0, runner.load_coefficients(cfg, None),
                                           cfg.solver_config())
        header = gio._INCREMENTS_HEADER.pack(gio.INCREMENTS_MAGIC, gio.INCREMENTS_VERSION,
                                             traj.grid.n_per_axis, len(traj.times),
                                             traj.band.size)
        stored = (run / "trajectory" / gio.INCREMENTS_FILE).read_bytes()
        assert stored == header + collected.increments.astype("<c16").tobytes()

    def test_inconclusive_evidence_is_the_first_requested_fit_error(self, tmp_path):
        cfg = parse_config_text(INCONCLUSIVE_CFG)
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg, out_dir=tmp_path / "run")
        assert exc.value.exit_code == EXIT_INCONCLUSIVE_FIT
        traj = gio.read_trajectory(tmp_path / "run" / "trajectory")
        with pytest.raises(InconclusiveFitError) as direct:
            runner.bound_report(traj, cfg.physics_gamma, cfg.diagnostics_mode,
                                cfg.diagnostics_fit_lo, cfg.diagnostics_fit_hi,
                                cfg.diagnostics_sample_times, cfg.diagnostics_n_shells)
        err = direct.value
        want = gio.dump_json({
            "error": str(err), "n_usable": err.n_usable,
            "r2": gio.json_safe_float(err.r2) if err.r2 is not None else None,
            "slope": gio.json_safe_float(err.slope) if err.slope is not None else None,
            "window": list(err.window) if err.window is not None else None})
        assert (tmp_path / "run" / "inconclusive.json").read_text() == want

    @staticmethod
    def traced_peak(tmp_path, n_times):
        cfg = parse_config_text(BASE_CFG.replace("solver.n_times = 9",
                                                 f"solver.n_times = {n_times}"))
        run_scenario(cfg, out_dir=tmp_path / f"warm{n_times}")
        _, peak = helpers.peak_allocation(run_scenario, cfg, out_dir=tmp_path / f"run{n_times}")
        return cfg.build_grid(), peak

    def test_peak_memory_does_not_grow_with_the_time_lattice(self, tmp_path):
        grid, short = self.traced_peak(tmp_path, 21)
        _, long = self.traced_peak(tmp_path, 81)
        row_bytes = 3 * solver.band_modes(grid, "kept").size * 16
        assert long - short < 60 * row_bytes, (short, long, row_bytes)


class TestInterrupts:
    @pytest.mark.parametrize("exc, name, code", [
        (KeyboardInterrupt, "SIGINT", 130),
        (cli.Terminated, "SIGTERM", 143),
    ])
    def test_one_line_and_signal_exit_code(self, tmp_path, capsys, monkeypatch,
                                           exc, name, code):
        def interrupted(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_report", interrupted)
        assert cli.main(["report", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"error: interrupted ({name})\n"

    def test_sigterm_handler_is_restored(self, tmp_path, monkeypatch):
        before = signal.getsignal(signal.SIGTERM)
        monkeypatch.setattr(cli, "_cmd_report", lambda args: 0)
        assert cli.main(["report", str(tmp_path)]) == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_mid_march_removes_the_partial_dir(self, tmp_path):
        # a solve long enough to be caught with its increments file growing
        cfg_path = write_cfg(tmp_path, BASE_CFG.replace("solver.n_times = 9",
                                                        "solver.n_times = 4001")
                             .replace("grid.n = 16", "grid.n = 20")
                             + "solver.etd_check = true\nsolver.dt = 0.0005\n")
        out = tmp_path / "runs" / "run"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).resolve().parents[1])]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        child = subprocess.Popen([sys.executable, "-m", "gnsflow.cli", "solve",
                                  str(cfg_path), "--out", str(out)],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
        try:
            deadline = time.monotonic() + 60
            while not list(out.parent.glob("run.partial.*/trajectory/increments.gsi.*.tmp")):
                assert child.poll() is None, child.communicate()
                assert time.monotonic() < deadline, "no partial increments file"
                time.sleep(0.01)
            child.send_signal(signal.SIGTERM)
            _, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 143
        assert err == "error: interrupted (SIGTERM)\n"
        assert list(out.parent.iterdir()) == []
