"""gnsflow diagnose and report read the stored run in one streamed pass.

increments.gsi is read in blocks of whole rows (io.READ_BLOCK_BYTES), each
hashed and checked as it is read, by the one block reader that the whole
read drains too; the verdicts are raised in one order once the file has
been read to its end, and nothing is written before that.
"""
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gnsflow import cli, runner, solver
from gnsflow import io as gio
from gnsflow.config import parse_config
from gnsflow.diagnostics import eta_J
from gnsflow.runner import EXIT_CONFIG
from gnsflow.spectral import CorruptedFieldError, build_grid

CFG = """
grid.n = 16
solver.t_final = 0.02
solver.n_times = 9
data.kind = random_sobolev_tail
data.amplitude = 0.01
data.seed = 5
data.band_lo = 1.0
data.band_hi = 6.0
diagnostics.sample_times = 0.01, 0.02
diagnostics.fit_lo = 1.5
diagnostics.fit_hi = 5.5
diagnostics.n_shells = 48
"""


def solve(directory, n_times=9):
    cfg_path = directory / "scenario.cfg"
    cfg_path.write_text(CFG.replace("solver.n_times = 9", f"solver.n_times = {n_times}"))
    assert cli.main(["solve", str(cfg_path), "--out", str(directory / "run")]) == 0
    return cfg_path, directory / "run"


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One finished 9-time run, to be copied by each test that corrupts it."""
    return solve(tmp_path_factory.mktemp("stored"))


@pytest.fixture
def run(tmp_path, solved):
    return shutil.copytree(solved[1], tmp_path / "run")


def read_states(trajectory, stream=True):
    """Every state of the stored run, as the streamed reader hands them on,
    or from the whole read."""
    traj = gio.read_trajectory(trajectory, stream=stream)
    with traj if stream else contextlib.nullcontext():
        return [traj.half_state(i) for i in range(traj.times.size)]


# the two ways of draining io._increment_blocks
BOTH_READS = pytest.mark.parametrize("stream", [False, True], ids=["whole", "streamed"])


# CFG's band: a kz = 0 plane position that is not its own partner, and a
# position off the kz = 0 and kz = n/2 planes
PLANE, PARTNER = solver.band_plane_pairs(build_grid(16), "kept")
PLANE_POS = int(PLANE[np.flatnonzero(PLANE != PARTNER)[0]])
INTERIOR_POS = int(np.setdiff1d(np.arange(solver.band_modes(build_grid(16), "kept").size),
                                PLANE)[0])
ROW_BYTES = 3 * solver.band_modes(build_grid(16), "kept").size * 16


def flip_last_byte(trajectory):
    path = trajectory / gio.INCREMENTS_FILE
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def truncate(trajectory, repoint=True):
    path = trajectory / gio.INCREMENTS_FILE
    path.write_bytes(path.read_bytes()[:-16])
    if repoint:
        helpers.repoint_digest(trajectory, gio.INCREMENTS_FILE)


def nan_interior(trajectory, row=4):
    helpers.shift_increment(trajectory, (row, 0, INTERIOR_POS), np.nan)


def shift_plane(trajectory, row=4):
    helpers.shift_increment(trajectory, (row, 0, PLANE_POS), 1e-3 * (1 + 1j))


CORRUPTIONS = {
    "flipped_last_byte": (flip_last_byte, "sha256 mismatch"),
    "truncated_repointed": (truncate, "payload size"),
    "nan_interior": (nan_interior, "non-finite"),
    "shifted_plane": (shift_plane, "Hermitian deviation"),
}


class TestVerdictsThroughTheCli:
    @pytest.mark.parametrize("one_row_blocks", [True, False])
    @pytest.mark.parametrize("command", ["diagnose", "report"])
    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_exit_2_with_one_line_and_nothing_written(self, tmp_path, capsys, monkeypatch,
                                                      solved, run, command, name,
                                                      one_row_blocks):
        if one_row_blocks:
            monkeypatch.setattr(gio, "READ_BLOCK_BYTES", 1)
        corrupt, words = CORRUPTIONS[name]
        corrupt(run / "trajectory")
        before = sorted(p.name for p in run.iterdir())
        capsys.readouterr()
        if command == "diagnose":
            argv = ["diagnose", str(run / "trajectory"), str(solved[0]),
                    "--out", str(tmp_path / "diag")]
        else:
            argv = ["report", str(run)]
        assert cli.main(argv) == EXIT_CONFIG == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert gio.INCREMENTS_FILE in err[0] and words in err[0], err[0]
        assert not (tmp_path / "diag").exists()
        assert sorted(p.name for p in run.iterdir()) == before
        assert sorted(run.glob("*.dat")) == []


def json_leaves(doc, path=()):
    """The key or index path of every non-container value in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from json_leaves(value, path + (key,))
        else:
            yield path + (key,)


DELETE = object()
JSON_VALUES = [DELETE, None, "x", "nan", -1, 0, 1, 0.5, 1e300, 2**70, True, [], {},
               math.nan, math.inf]


def flip_bit(path, position, bit):
    data = bytearray(path.read_bytes())
    data[position % len(data)] ^= 1 << bit
    path.write_bytes(bytes(data))


def cut(path, length):
    path.write_bytes(path.read_bytes()[:length % path.stat().st_size])


def edit_json(path, leaf, value):
    doc = json.loads(path.read_text())
    leaves = list(json_leaves(doc))
    *parents, last = leaves[leaf % len(leaves)]
    parent = doc
    for key in parents:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    path.write_text(json.dumps(doc))


STORED_FILES = st.sampled_from([f"trajectory/{gio.U0_FILE}", f"trajectory/{gio.INCREMENTS_FILE}"])
# (corrupt, file in the run directory, arguments); a corrupted binary file
# gets its manifest digest re-pointed, so the reader's other checks are reached
CORRUPTION = st.one_of(
    st.tuples(st.just(flip_bit), STORED_FILES, st.integers(0, 2**20), st.integers(0, 7)),
    st.tuples(st.just(cut), STORED_FILES, st.integers(0, 2**20)),
    st.tuples(st.just(edit_json), st.sampled_from(["trajectory/manifest.json", "report.json"]),
              st.integers(0, 2**10), st.sampled_from(JSON_VALUES)))


class TestCorruptedRuns:
    """Whatever is corrupted, diagnose and report exit 0 or 2, and an exit 2
    prints one stderr line and writes nothing."""

    @settings(max_examples=100, deadline=None)
    @given(corruption=CORRUPTION)
    def test_exit_0_or_2(self, tmp_path_factory, solved, corruption):
        corrupt, name, *arguments = corruption
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as scratch:
            run = shutil.copytree(solved[1], Path(scratch) / "run")
            corrupt(run / name, *arguments)
            if corrupt is not edit_json:
                helpers.repoint_digest(run / "trajectory", Path(name).name)
            before = sorted(p.name for p in run.iterdir())
            diag = Path(scratch) / "diag"
            codes = {}
            for argv in (["diagnose", str(run / "trajectory"), str(solved[0]),
                          "--out", str(diag)],
                         ["report", str(run)]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    codes[argv[0]] = cli.main(argv)
                assert codes[argv[0]] in (0, EXIT_CONFIG), (argv[0], err.getvalue())
                if codes[argv[0]] == EXIT_CONFIG:
                    assert len(err.getvalue().splitlines()) == 1, err.getvalue()
                    assert sorted(p.name for p in run.iterdir()) == before
            # a report directory and .dat curves only on exit 0
            assert diag.exists() == (codes["diagnose"] == 0)
            assert bool(list(run.glob("*.dat"))) == (codes["report"] == 0)


class TestOrderOfVerdicts:
    """sha256 mismatch, then header or size, then a non-finite value or a
    broken plane pair, whichever block holds it first, through either read."""

    @pytest.fixture(autouse=True)
    def one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(gio, "READ_BLOCK_BYTES", 1)

    @BOTH_READS
    def test_sha256_mismatch_beats_a_bad_first_row(self, run, stream):
        nan_interior(run / "trajectory", row=0)
        flip_last_byte(run / "trajectory")
        with pytest.raises(gio.FormatError, match="sha256 mismatch"):
            read_states(run / "trajectory", stream)

    @BOTH_READS
    def test_size_beats_a_bad_first_row(self, run, stream):
        nan_interior(run / "trajectory", row=0)
        truncate(run / "trajectory")
        with pytest.raises(gio.FormatError, match="payload size"):
            read_states(run / "trajectory", stream)

    @BOTH_READS
    def test_sha256_mismatch_beats_a_truncation(self, run, stream):
        truncate(run / "trajectory", repoint=False)
        with pytest.raises(gio.FormatError, match="sha256 mismatch"):
            read_states(run / "trajectory", stream)

    @BOTH_READS
    def test_trailing_bytes_are_a_size_verdict(self, run, stream):
        path = run / "trajectory" / gio.INCREMENTS_FILE
        path.write_bytes(path.read_bytes() + bytes(16))
        helpers.repoint_digest(run / "trajectory", gio.INCREMENTS_FILE)
        with pytest.raises(gio.FormatError, match="payload size"):
            read_states(run / "trajectory", stream)

    @BOTH_READS
    @pytest.mark.parametrize("repoint, words", [(True, "bad magic"),
                                                (False, "sha256 mismatch")])
    def test_header(self, run, stream, repoint, words):
        path = run / "trajectory" / gio.INCREMENTS_FILE
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        if repoint:
            helpers.repoint_digest(run / "trajectory", gio.INCREMENTS_FILE)
        with pytest.raises(gio.FormatError, match=words):
            read_states(run / "trajectory", stream)

    @BOTH_READS
    @pytest.mark.parametrize("first, last, error, words", [
        (shift_plane, nan_interior, CorruptedFieldError, "Hermitian deviation"),
        (nan_interior, shift_plane, CorruptedFieldError, "non-finite")])
    def test_the_first_bad_block_wins(self, run, stream, first, last, error, words):
        first(run / "trajectory", row=2)
        last(run / "trajectory", row=8)
        with pytest.raises(error, match=words):
            read_states(run / "trajectory", stream)

    def test_no_state_of_a_bad_block_is_handed_on(self, run):
        nan_interior(run / "trajectory", row=3)
        handed = []
        with pytest.raises(CorruptedFieldError):
            with gio.read_trajectory(run / "trajectory", stream=True) as traj:
                for i in range(traj.times.size):
                    handed.append(traj.half_state(i))
        assert len(handed) == 3

    def test_the_exit_checks_the_rows_no_state_asked_for(self, run):
        # eta_J at the first sample time folds only the states up to it
        nan_interior(run / "trajectory", row=8)
        with pytest.raises(CorruptedFieldError, match="non-finite"):
            with gio.read_trajectory(run / "trajectory", stream=True) as traj:
                eta_J(traj, 10.0, 1.0, 0.01)


class TestStreamedStates:
    # one row, two rows (the last block shorter) and the default, one block here
    @pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES + 1, gio.READ_BLOCK_BYTES])
    def test_states_are_read_trajectorys(self, monkeypatch, run, block_bytes):
        # plane pairs off by less than the threshold are symmetrized on both paths
        helpers.shift_increment(run / "trajectory", (5, 0, PLANE_POS), 1e-12)
        monkeypatch.setattr(gio, "READ_BLOCK_BYTES", block_bytes)
        whole = gio.read_trajectory(run / "trajectory")
        streamed = read_states(run / "trajectory")
        assert len(streamed) == whole.times.size
        for i, half in enumerate(streamed):
            assert half.tobytes() == whole.half_state(i).tobytes(), i

    def test_states_are_handed_on_once_in_order(self, run):
        with gio.read_trajectory(run / "trajectory", stream=True) as traj:
            with pytest.raises(ValueError, match="in order"):
                traj.half_state(1)
            traj.half_state(0)
            with pytest.raises(ValueError, match="in order"):
                traj.half_state(0)
        with pytest.raises(ValueError, match="in order"):
            traj.half_state(1)

    @pytest.mark.parametrize("block_bytes", [2 * ROW_BYTES + 1, gio.READ_BLOCK_BYTES])
    def test_streams_open_at_once_keep_their_own_rows(self, monkeypatch, solved, run,
                                                      block_bytes):
        # each exit leaves its buffer for the next stream to reuse; two runs
        # that differ in every row, read in step, must not share one
        monkeypatch.setattr(gio, "READ_BLOCK_BYTES", block_bytes)
        for row in range(9):
            helpers.shift_increment(run / "trajectory", (row, 0, INTERIOR_POS), 1e-3)
        paths = (solved[1] / "trajectory", run / "trajectory")
        wholes = [gio.read_trajectory(path) for path in paths]
        read_states(paths[0])
        with gio.read_trajectory(paths[0], stream=True) as a, \
                gio.read_trajectory(paths[1], stream=True) as b:
            for i in range(9):
                for traj, whole in zip((a, b), wholes):
                    assert traj.half_state(i).tobytes() == whole.half_state(i).tobytes()

    def test_a_whole_read_keeps_its_rows_through_later_streams(self, solved, run):
        # the whole read fills its own array from the block buffer that the
        # streams after it reuse; rows that differ from it must not reach it
        for row in range(9):
            helpers.shift_increment(run / "trajectory", (row, 0, INTERIOR_POS), 1e-3)
        whole = gio.read_trajectory(solved[1] / "trajectory")
        before = whole.increments.tobytes()
        for _ in range(2):
            read_states(run / "trajectory")
        assert whole.increments.tobytes() == before


class TestMemory:
    """In the style of test_cli.TestStreamedSolve: diagnose and report hold
    one block of rows and one state at a time, whatever the number of times."""

    @staticmethod
    def traced_peaks(directory, n_times):
        cfg_path, run = solve(directory, n_times)
        cfg = parse_config(cfg_path)
        runner.diagnose_trajectory(run / "trajectory", cfg, out_dir=directory / "warm")
        return [helpers.peak_allocation(runner.diagnose_trajectory, run / "trajectory", cfg,
                                        out_dir=directory / "diag")[1],
                helpers.peak_allocation(runner.emit_plot_data, run)[1]]

    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_peaks_do_not_grow_with_the_time_lattice(self, tmp_path, monkeypatch,
                                                     block_rows):
        if block_rows is not None:
            monkeypatch.setattr(gio, "READ_BLOCK_BYTES", block_rows * ROW_BYTES)
        peaks = {}
        for n_times in (11, 101):
            (tmp_path / str(n_times)).mkdir()
            peaks[n_times] = self.traced_peaks(tmp_path / str(n_times), n_times)
        for short, long in zip(peaks[11], peaks[101]):
            if block_rows is None:
                # holding the 90 added rows would add 90 * ROW_BYTES; the
                # block buffer grows from 11 rows to about 1 MiB (30 rows)
                assert long - short < 45 * ROW_BYTES, (peaks, ROW_BYTES)
            else:
                # both lattices fill 5-row blocks
                assert long - short < 2 * ROW_BYTES, (peaks, ROW_BYTES)
