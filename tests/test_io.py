import builtins
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import helpers
from conftest import leray_full, random_hermitian_coeffs
from gnsflow import io as gio
from gnsflow import operators
from gnsflow.diagnostics import bound_report
from gnsflow.initial_data import DataParams, make_initial_data
from gnsflow.operators import navier_stokes_coeffs, velocity_from_stack, stack_coefficients
from gnsflow.solver import SolverConfig, Trajectory, band_plane_pairs, picard_solve
from gnsflow.spectral import CorruptedFieldError, build_grid, hermitian_deviation


def make_field(grid, rng):
    stack = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)])
    stack *= helpers.oracle_dealias_mask(grid.n_per_axis, grid.dealias_fraction)
    return velocity_from_stack(grid, leray_full(grid, stack))


def heat_traj(u0, times):
    grid = u0.grid
    base = stack_coefficients(u0)
    ksq = helpers.oracle_k_sq(grid.n_per_axis, grid.period)
    return Trajectory(np.asarray(times, dtype=float),
                      tuple(velocity_from_stack(grid, base * np.exp(-float(t) * ksq))
                            for t in times))


class TestFieldRoundTrip:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        grid = build_grid(8, period=3.5, dealias_fraction=0.5)
        u = make_field(grid, rng)
        path = tmp_path / "field.gsf"
        digest = gio.write_field(path, u)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        back = gio.read_field(path)
        assert back.grid == grid
        np.testing.assert_array_equal(stack_coefficients(back),
                                      stack_coefficients(u))

    def test_rejects_bad_magic(self, rng, tmp_path):
        u = make_field(build_grid(8), rng)
        path = tmp_path / "f.gsf"
        gio.write_field(path, u)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(gio.FormatError, match="magic"):
            gio.read_field(path)

    def test_rejects_bad_version(self, rng, tmp_path):
        u = make_field(build_grid(8), rng)
        path = tmp_path / "f.gsf"
        gio.write_field(path, u)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(gio.FormatError, match="version"):
            gio.read_field(path)

    def test_rejects_truncated_payload(self, rng, tmp_path):
        u = make_field(build_grid(8), rng)
        path = tmp_path / "f.gsf"
        gio.write_field(path, u)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(gio.FormatError, match="size"):
            gio.read_field(path)

    def test_rejects_non_hermitian_content(self, tmp_path):
        grid = build_grid(8)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0, 1, 0, 0] = 1.0  # no conjugate partner
        path = helpers.write_raw_field(tmp_path / "f.gsf", grid, stack)
        with pytest.raises(CorruptedFieldError):
            gio.read_field(path)

    def test_write_is_deterministic(self, rng, tmp_path):
        u = make_field(build_grid(8), rng)
        gio.write_field(tmp_path / "a.gsf", u)
        gio.write_field(tmp_path / "b.gsf", u)
        assert (tmp_path / "a.gsf").read_bytes() == (tmp_path / "b.gsf").read_bytes()


def increments_layout(traj):
    return gio._INCREMENTS_HEADER.size + len(traj.times) * 3 * traj.band.size * 16


def picard_traj(n=8, n_times=4):
    grid = build_grid(n)
    u0 = make_initial_data("random_sobolev_tail", grid,
                           DataParams(amplitude=0.5, band_lo=1.0, band_hi=5.0), seed=3)
    traj, report = picard_solve(u0, navier_stokes_coeffs(),
                                SolverConfig(t_final=0.01, n_times=n_times, tol=1e-8))
    assert report.converged
    return traj


def shift_plane_increment(directory, traj, shift):
    """Add shift to the first component of the last state's increment at a
    kz = 0 plane mode of the band, without the matching change at its -k."""
    plane, partner = band_plane_pairs(traj.grid, traj.band_kind)
    pos = int(plane[np.flatnonzero(plane != partner)[0]])
    helpers.shift_increment(directory, (-1, 0, pos), shift)
    return pos


class TestTrajectoryRoundTrip:
    def test_round_trip(self, rng, tmp_path):
        grid = build_grid(8, period=2.0)
        traj = heat_traj(make_field(grid, rng), np.linspace(0.0, 0.02, 4))
        manifest_path = gio.write_trajectory(tmp_path / "run", traj,
                                             config_sha256="abc123")
        back = gio.read_trajectory(manifest_path)
        np.testing.assert_array_equal(np.asarray(back.times),
                                      np.asarray(traj.times))
        for a, b in zip(back.states, traj.states):
            np.testing.assert_array_equal(stack_coefficients(a),
                                          stack_coefficients(b))
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == gio.TRAJECTORY_FORMAT
        assert manifest["config_sha256"] == "abc123"
        assert manifest["band"] == "all"
        assert [f["name"] for f in manifest["files"]] == [gio.U0_FILE, gio.INCREMENTS_FILE]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
            [gio.U0_FILE, gio.INCREMENTS_FILE, "manifest.json"])
        assert "wall_clock_utc" in manifest

    def test_solver_trajectory_round_trips_bit_for_bit(self, tmp_path):
        traj = picard_traj()
        gio.write_trajectory(tmp_path / "run", traj)
        back = gio.read_trajectory(tmp_path / "run")
        assert back.band_kind == "kept"
        assert back.u0.tobytes() == traj.u0.tobytes()
        assert back.increments.tobytes() == traj.increments.tobytes()
        for i in range(len(traj.times)):
            assert back.half_state(i).tobytes() == traj.half_state(i).tobytes()

    def test_increments_file_is_header_plus_values(self, rng, tmp_path):
        for name, traj in (("kept", picard_traj(n_times=5)),
                           ("all", heat_traj(make_field(build_grid(8), rng),
                                             [0.0, 0.005, 0.01]))):
            gio.write_trajectory(tmp_path / name, traj)
            data = (tmp_path / name / gio.INCREMENTS_FILE).read_bytes()
            assert len(data) == increments_layout(traj)
            assert data[:4] == gio.INCREMENTS_MAGIC
            assert data[gio._INCREMENTS_HEADER.size:] == \
                traj.increments.astype("<c16").tobytes()

    def test_accepts_directory_argument(self, rng, tmp_path):
        traj = heat_traj(make_field(build_grid(8), rng), [0.0, 0.01])
        gio.write_trajectory(tmp_path / "run", traj)
        back = gio.read_trajectory(tmp_path / "run")
        assert len(back.states) == 2

    @staticmethod
    def flip_last_byte(path):
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_detects_tampered_state_file(self, rng, tmp_path):
        traj = heat_traj(make_field(build_grid(8), rng), [0.0, 0.01])
        gio.write_trajectory(tmp_path / "run", traj)
        self.flip_last_byte(tmp_path / "run" / gio.INCREMENTS_FILE)
        with pytest.raises(gio.FormatError, match="sha256"):
            gio.read_trajectory(tmp_path / "run")

    def test_detects_tampered_u0_file(self, rng, tmp_path):
        traj = heat_traj(make_field(build_grid(8), rng), [0.0, 0.01])
        gio.write_trajectory(tmp_path / "run", traj)
        self.flip_last_byte(tmp_path / "run" / gio.U0_FILE)
        with pytest.raises(gio.FormatError, match="sha256"):
            gio.read_trajectory(tmp_path / "run")

    def test_rejects_truncated_increments(self, rng, tmp_path):
        traj = heat_traj(make_field(build_grid(8), rng), [0.0, 0.01])
        gio.write_trajectory(tmp_path / "run", traj)
        target = tmp_path / "run" / gio.INCREMENTS_FILE
        target.write_bytes(target.read_bytes()[:-16])
        helpers.repoint_digest(tmp_path / "run", gio.INCREMENTS_FILE)
        with pytest.raises(gio.FormatError, match="size"):
            gio.read_trajectory(tmp_path / "run")

    def test_reads_each_state_file_once(self, rng, tmp_path, monkeypatch):
        traj = heat_traj(make_field(build_grid(8), rng), [0.0, 0.005, 0.01])
        gio.write_trajectory(tmp_path / "run", traj)
        calls = []
        real = io.open

        def spy(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                calls.append(Path(file).name)
            return real(file, *args, **kwargs)
        # Path.read_bytes opens through io.open, the package's own reads through open
        monkeypatch.setattr(io, "open", spy)
        monkeypatch.setattr(builtins, "open", spy)
        back = gio.read_trajectory(tmp_path / "run")
        monkeypatch.undo()
        assert len(back.states) == 3
        assert sorted(calls) == sorted([gio.INCREMENTS_FILE, gio.U0_FILE, "manifest.json"])

    def test_increments_are_one_new_array_and_u0_matches_read_field(self, tmp_path):
        traj = picard_traj()
        gio.write_trajectory(tmp_path / "run", traj)
        back = gio.read_trajectory(tmp_path / "run")
        # one array owning its values: no view of a block buffer or of the file's bytes
        assert back.increments.base is None
        assert back.increments.shape == traj.increments.shape
        assert not back.increments.flags.writeable
        single = gio.read_field(tmp_path / "run" / gio.U0_FILE)
        assert back.u0.tobytes() == single.half_spectrum().tobytes()

    def test_rejects_state_file_on_another_grid(self, rng, tmp_path):
        traj = heat_traj(make_field(build_grid(8), rng), [0.0, 0.01])
        gio.write_trajectory(tmp_path / "run", traj)
        gio.write_field(tmp_path / "run" / gio.U0_FILE,
                        make_field(build_grid(8, period=3.0), rng))
        helpers.repoint_digest(tmp_path / "run", gio.U0_FILE)
        with pytest.raises(gio.FormatError, match="grid differs"):
            gio.read_trajectory(tmp_path / "run")

    def test_rejects_non_hermitian_u0(self, rng, tmp_path):
        grid = build_grid(8)
        traj = heat_traj(make_field(grid, rng), [0.0, 0.01])
        gio.write_trajectory(tmp_path / "run", traj)
        stack = np.stack([random_hermitian_coeffs(grid, rng) for _ in range(3)])
        helpers.write_raw_field(tmp_path / "run" / gio.U0_FILE, grid,
                                helpers.oracle_leray(stack, 8, grid.period))
        helpers.repoint_digest(tmp_path / "run", gio.U0_FILE)
        with pytest.raises(CorruptedFieldError):
            gio.read_trajectory(tmp_path / "run")

    @pytest.mark.parametrize("band", ["kept", "all"])
    def test_rejects_non_hermitian_plane_increments(self, rng, tmp_path, band):
        # the kz = 0 and kz = n/2 planes of the band hold both k and -k
        traj = (picard_traj() if band == "kept"
                else heat_traj(make_field(build_grid(8), rng), [0.0, 0.005, 0.01]))
        assert traj.band_kind == band
        gio.write_trajectory(tmp_path / "run", traj)
        shift_plane_increment(tmp_path / "run", traj, 1e-3 * (1 + 1j))
        with pytest.raises(CorruptedFieldError, match=gio.INCREMENTS_FILE):
            gio.read_trajectory(tmp_path / "run")

    @pytest.mark.parametrize("band", ["kept", "all"])
    def test_rejects_non_finite_interior_increment(self, rng, tmp_path, band):
        # off the kz = 0 and kz = n/2 planes no Hermitian pair check sees it
        traj = (picard_traj() if band == "kept"
                else heat_traj(make_field(build_grid(8), rng), [0.0, 0.005, 0.01]))
        gio.write_trajectory(tmp_path / "run", traj)
        plane, _ = band_plane_pairs(traj.grid, band)
        pos = int(np.setdiff1d(np.arange(traj.increments.shape[-1]), plane)[0])
        helpers.shift_increment(tmp_path / "run", (-1, 0, pos), np.nan)
        with pytest.raises(CorruptedFieldError, match=gio.INCREMENTS_FILE):
            gio.read_trajectory(tmp_path / "run")

    @pytest.mark.parametrize("band", ["kept", "all"])
    def test_symmetrizes_plane_increments_within_tolerance(self, rng, tmp_path, band):
        traj = (picard_traj() if band == "kept"
                else heat_traj(make_field(build_grid(8), rng), [0.0, 0.005, 0.01]))
        gio.write_trajectory(tmp_path / "run", traj)
        pos = shift_plane_increment(tmp_path / "run", traj, 1e-12)
        back = gio.read_trajectory(tmp_path / "run")
        plane, partner = band_plane_pairs(traj.grid, band)
        mate = int(partner[np.flatnonzero(plane == pos)[0]])
        want = traj.increments.copy()
        want[-1, 0, pos] = 0.5 * (want[-1, 0, pos] + 1e-12
                                  + np.conj(want[-1, 0, mate]))
        want[-1, 0, mate] = np.conj(want[-1, 0, pos])
        np.testing.assert_array_equal(back.increments, want)
        assert hermitian_deviation(stack_coefficients(back.states[-1])) == 0.0

    def test_rejects_wrong_manifest_format(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(gio.FormatError, match="format"):
            gio.read_trajectory(tmp_path)

    def test_rejects_v1_trajectory(self, rng, tmp_path):
        traj = heat_traj(make_field(build_grid(8), rng), [0.0, 0.01])
        manifest_path = gio.write_trajectory(tmp_path / "run", traj)
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "gns-trajectory-v1"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(gio.FormatError, match="gns-trajectory-v1"):
            gio.read_trajectory(tmp_path / "run")

    def test_manifests_identical_up_to_wall_clock(self, rng, tmp_path):
        grid = build_grid(8)
        traj = heat_traj(make_field(grid, rng), [0.0, 0.005, 0.01])
        p1 = gio.write_trajectory(tmp_path / "r1", traj, config_sha256="s")
        p2 = gio.write_trajectory(tmp_path / "r2", traj, config_sha256="s")
        m1 = helpers.manifest_comparison_key(json.loads(p1.read_text()))
        m2 = helpers.manifest_comparison_key(json.loads(p2.read_text()))
        assert m1 == m2
        assert "wall_clock_utc" not in m1
        for name in (gio.U0_FILE, gio.INCREMENTS_FILE):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()


class TestTrajectoryWriter:
    def test_streamed_rows_write_the_bytes_of_the_whole_trajectory(self, tmp_path):
        traj = picard_traj()
        gio.write_trajectory(tmp_path / "whole", traj, config_sha256="s")
        with gio.TrajectoryWriter(tmp_path / "streamed", traj.grid, traj.times,
                                  traj.u0) as writer:
            for row in traj.increments:
                writer.append(row)
            gio.write_trajectory(tmp_path / "streamed", writer, config_sha256="s")
        for name in (gio.U0_FILE, gio.INCREMENTS_FILE):
            assert ((tmp_path / "whole" / name).read_bytes()
                    == (tmp_path / "streamed" / name).read_bytes())
        whole, streamed = (json.loads((tmp_path / d / "manifest.json").read_text())
                           for d in ("whole", "streamed"))
        assert (helpers.manifest_comparison_key(whole)
                == helpers.manifest_comparison_key(streamed))
        assert sorted(p.name for p in (tmp_path / "streamed").iterdir()) == sorted(
            [gio.U0_FILE, gio.INCREMENTS_FILE, "manifest.json"])

    def test_an_unfinished_writer_removes_the_directory_it_made(self, tmp_path):
        traj = picard_traj()
        with pytest.raises(RuntimeError):
            with gio.TrajectoryWriter(tmp_path / "run", traj.grid, traj.times,
                                      traj.u0) as writer:
                writer.append(traj.increments[0])
                assert len(list((tmp_path / "run").iterdir())) == 1
                raise RuntimeError("march failed")
        assert list(tmp_path.iterdir()) == []

    def test_an_unfinished_writer_keeps_a_directory_it_found(self, tmp_path):
        traj = picard_traj()
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "keep.txt").write_text("x")
        with gio.TrajectoryWriter(tmp_path / "run", traj.grid, traj.times, traj.u0):
            pass
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["keep.txt"]

    def test_a_short_trajectory_is_not_published(self, tmp_path):
        traj = picard_traj()
        with gio.TrajectoryWriter(tmp_path / "run", traj.grid, traj.times,
                                  traj.u0) as writer:
            writer.append(traj.increments[0])
            with pytest.raises(ValueError, match="1 of 4 states"):
                gio.write_trajectory(tmp_path / "run", writer)
        assert list(tmp_path.iterdir()) == []

    def test_rows_are_checked(self, tmp_path):
        traj = picard_traj(n_times=2)
        with gio.TrajectoryWriter(tmp_path / "run", traj.grid, traj.times,
                                  traj.u0) as writer:
            with pytest.raises(ValueError, match="shape"):
                writer.append(traj.increments[0][:, :-1])
            writer.append(traj.increments[0])
            writer.append(traj.increments[1])
            with pytest.raises(ValueError, match="all 2 states"):
                writer.append(traj.increments[1])
            with pytest.raises(ValueError, match="writes into"):
                gio.write_trajectory(tmp_path / "elsewhere", writer)


class TestCsv:
    def test_cell_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        gio.write_csv(path, ["a", "b", "c", "d"],
                      [(0.1, math.inf, True, 3),
                       (float("nan"), -math.inf, False, -1)])
        assert path.read_text() == (
            "a,b,c,d\n"
            "0.1,inf,true,3\n"
            "nan,-inf,false,-1\n")

    def test_floats_round_trip_through_repr(self, tmp_path):
        vals = [1.0 / 3.0, 1e-300, 6.02e23, 0.1 + 0.2]
        path = tmp_path / "t.csv"
        gio.write_csv(path, ["x"], [(v,) for v in vals])
        lines = path.read_text().splitlines()[1:]
        assert [float(s) for s in lines] == vals


def small_report():
    grid = build_grid(16)
    times = np.linspace(0.0, 0.04, 5)
    stack = np.zeros((3,) + grid.shape, dtype=complex)
    stack[0] = np.exp(-0.4 * helpers.oracle_k_norm(grid.n_per_axis, grid.period))
    traj = heat_traj(velocity_from_stack(grid, stack), times)
    return bound_report(traj, 1.0, "subcritical", 2.0, 10.0, [0.01, 0.04],
                        n_shells=48)


class TestBoundReportFiles:
    def test_csv_columns_and_values(self, tmp_path):
        rep = small_report()
        path = tmp_path / "report.csv"
        gio.write_bound_report_csv(path, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,eta_or_zeta,beta,lambda,predictor,measured_radius,ratio,capped,r2"
        assert len(lines) == 1 + rep.n_rows
        first = lines[1].split(",")
        assert float(first[0]) == rep.times[0]
        assert float(first[6]) == pytest.approx(rep.ratio[0], rel=0)
        assert first[7] == "false"

    def test_json_mirror_structure(self, tmp_path):
        rep = small_report()
        path = tmp_path / "report.json"
        gio.write_bound_report_json(path, rep)
        doc = json.loads(path.read_text())
        assert doc["format"] == gio.BOUND_REPORT_FORMAT
        assert doc["mode"] == "subcritical"
        assert doc["gamma"] == 1.0
        assert doc["fit_window"] == [2.0, 10.0]
        assert doc["grid"]["n_per_axis"] == 16
        rows = doc["rows"]
        assert rows["t"] == [0.01, 0.04]
        assert len(rows["k_t"]) == 2
        assert rows["capped"] == [False, False]
        assert rows["tail_empty"] == [False, False]
        np.testing.assert_allclose(rows["ratio"], rep.ratio, rtol=0)

    def test_json_nonfinite_sentinels(self, tmp_path):
        # critical-mode saturated zeta: predictor 0, ratio inf, beta nan
        grid = build_grid(16)
        times = np.linspace(0.0, 0.01, 3)
        stack = np.zeros((3,) + grid.shape, dtype=complex)
        stack[0] = 50.0 * np.exp(-0.5 * helpers.oracle_k_norm(grid.n_per_axis, grid.period))
        traj = heat_traj(velocity_from_stack(grid, stack), times)
        rep = bound_report(traj, 0.5, "critical", 2.0, 10.0, [0.01], 48)
        path = tmp_path / "report.json"
        gio.write_bound_report_json(path, rep)
        doc = json.loads(path.read_text())  # strict JSON parses cleanly
        assert doc["rows"]["ratio"] == ["inf"]
        assert doc["rows"]["beta"] == ["nan"]
        assert doc["rows"]["zeta_flagged"] == [True]

    def test_deterministic_serialization(self, tmp_path):
        rep = small_report()
        gio.write_bound_report_json(tmp_path / "a.json", rep)
        gio.write_bound_report_json(tmp_path / "b.json", rep)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        gio.write_bound_report_csv(tmp_path / "a.csv", rep)
        gio.write_bound_report_csv(tmp_path / "b.csv", rep)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestAtomicity:
    def test_no_temp_files_left_behind(self, rng, tmp_path):
        u = make_field(build_grid(8), rng)
        gio.write_field(tmp_path / "f.gsf", u)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_overwrite_replaces_cleanly(self, rng, tmp_path):
        grid = build_grid(8)
        u1 = make_field(grid, rng)
        u2 = make_field(grid, rng)
        path = tmp_path / "f.gsf"
        gio.write_field(path, u1)
        gio.write_field(path, u2)
        back = gio.read_field(path)
        np.testing.assert_array_equal(stack_coefficients(back),
                                      stack_coefficients(u2))
