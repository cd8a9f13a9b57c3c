"""One workload in a fresh process; run.py starts it and completes its result.

Set-up (config parse, grid, initial data and, on the re-diagnose workload,
the solve that produces the stored run) is repeated SETUP_REPS times and
timed. Then a closed loop with one client runs the workload's operation
until ``--seconds`` have passed, gating every operation on the pipeline's
own certificates. With ``--trace 1`` the loop alternates untraced and traced
operations so the tracing overhead is measured in the same process.

The last line of standard output is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from gnsflow import runner
from gnsflow.config import parse_config_text
from gnsflow.initial_data import make_initial_data
from gnsflow.spectral import set_fft_workers

import scenarios
import tracing

SETUP_REPS = 3
# diagnose+report calls after each timed solve; the calls are short, so a
# second pair halves the noise of their per-run median
SOLVE_DIAGNOSES = 2
RATIO_FLOOR = 0.9  # criteria 4 and 7: every measured/predicted ratio >= 0.9
RESIDUAL_FACTOR = 10.0  # the solver certifies residual_max <= 10 * tol
REPORT_COLUMNS = ("measured_radius", "predictor", "ratio")


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _finite_or_text(x: float):
    return float(x) if math.isfinite(x) else repr(float(x))


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _installed(tracer):
    return nullcontext() if tracer is None else tracer.installed()


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


class Loop:
    """State of one workload process: config, gates, digests, records."""

    def __init__(self, args, work: Path):
        self.workload = scenarios.WORKLOADS[args.workload]
        self.text = self.workload.scenario_text(args.seed)
        self.runs = work / "runs" / f"{args.workload}-seed{args.seed}"
        self.evidence = work / "evidence"
        self.tag = f"{args.workload}-seed{args.seed}"
        shutil.rmtree(self.runs, ignore_errors=True)
        self.runs.mkdir(parents=True)
        self.cfg = None
        self.digests: dict[str, str] = {}
        self.records: list[dict] = []
        self.evidence_kept = None

    # ------------------------------------------------------------ gates
    def _agree(self, rec: dict, name: str, path: Path) -> None:
        """Byte agreement of an output with the first run of this invocation."""
        digest = _sha256(path)
        first = self.digests.setdefault(name, digest)
        if digest != first:
            rec["problems"].append(f"{name} sha256 {digest} differs from the "
                                   f"first run's {first}")

    def _gate_report(self, rec: dict, report) -> None:
        if report.capped.any():
            rec["problems"].append("capped radius fit")
        if report.zeta_flagged.any():
            rec["problems"].append("zeta_flagged row")
        if (report.ratio < RATIO_FLOOR).any():
            rec["problems"].append(f"ratio {float(report.ratio.min()):.4g} < {RATIO_FLOOR}")
        rec["min_ratio"] = float(report.ratio.min())
        rec["columns"] = {c: [_finite_or_text(v) for v in getattr(report, c)]
                          for c in REPORT_COLUMNS}

    def _solve(self, rec: dict, out: Path, tracer=None):
        """Timed run_scenario plus its gates; returns the artifacts or None."""
        cfg = self.cfg
        start = time.perf_counter()
        try:
            with _installed(tracer), _span(tracer, "runner.run_scenario"):
                arts = runner.run_scenario(cfg, out_dir=out)
        except runner.ScenarioError as exc:
            rec["problems"].append(f"ScenarioError (exit {exc.exit_code}): {exc}")
            return None
        rec["solve_s"] = time.perf_counter() - start
        rec["artifact_bytes"] = _tree_bytes(out)
        rec["picard_iterates"] = arts.picard.iterates
        rec["residual_max"] = arts.picard.residual_max
        rec["etd_rel_err"] = arts.etd_rel_error
        if not arts.picard.residual_max <= RESIDUAL_FACTOR * cfg.solver_tol:
            rec["problems"].append(f"residual_max {arts.picard.residual_max:.3e} "
                                   f"> {RESIDUAL_FACTOR:g} * tol")
        if arts.etd_rel_error is not None and not arts.etd_rel_error <= cfg.solver_oracle_tol:
            rec["problems"].append(f"etd_rel_error {arts.etd_rel_error:.3e} > oracle_tol")
        self._gate_report(rec, arts.report)
        self._agree(rec, "report.json", out / "report.json")
        self._agree(rec, "norms.csv", out / "norms.csv")
        return arts

    def _diagnose_and_report(self, rec: dict, run_dir: Path, target: Path,
                             tracer=None) -> None:
        """Timed diagnose_trajectory and emit_plot_data on a finished run."""
        manifest = run_dir / "trajectory" / "manifest.json"
        try:
            start = time.perf_counter()
            with _span(tracer, "runner.diagnose_trajectory"):
                report = runner.diagnose_trajectory(manifest, self.cfg, out_dir=target)
            rec.setdefault("diagnose_s", []).append(time.perf_counter() - start)
            start = time.perf_counter()
            with _span(tracer, "runner.emit_plot_data"):
                curves = runner.emit_plot_data(run_dir)
            rec.setdefault("report_s", []).append(time.perf_counter() - start)
        except runner.ScenarioError as exc:
            rec["problems"].append(f"ScenarioError (exit {exc.exit_code}): {exc}")
            return
        if "columns" not in rec:
            self._gate_report(rec, report)
        if (target / "report.json").read_bytes() != (run_dir / "report.json").read_bytes():
            rec["problems"].append("re-diagnosed report.json is not byte-identical "
                                   "to the solve's report.json")
        for path in curves:
            self._agree(rec, path.name, path)

    def _finish(self, rec: dict, out: Path, keep: bool = False) -> None:
        """Keep the first failing run as evidence; delete everything else."""
        self.records.append(rec)
        if rec["problems"] and self.evidence_kept is None and out.exists():
            dest = self.evidence / f"{self.tag}-{rec['kind']}{rec['op']}"
            shutil.rmtree(dest, ignore_errors=True)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(out), str(dest))
            if rec["kind"] == "op" and self.workload.op == "rediagnose":
                shutil.copy(self.runs / "stored" / "report.json",
                            dest / "stored_report.json")
            self.evidence_kept = rec["evidence"] = str(dest)
        elif not keep:
            shutil.rmtree(out, ignore_errors=True)

    # ------------------------------------------------------------ phases
    def set_up(self, rep: int) -> dict:
        """Config parse, grid, initial data and, to re-diagnose, one solve."""
        timing = {}
        start = time.perf_counter()
        cfg = parse_config_text(self.text)
        timing["parse_s"] = time.perf_counter() - start
        mark = time.perf_counter()
        grid = cfg.build_grid()
        make_initial_data(cfg.data_kind, grid, runner.data_params(cfg),
                          seed=cfg.data_seed)
        timing["make_s"] = time.perf_counter() - mark
        self.cfg = cfg
        if self.workload.op == "rediagnose":
            out = self.runs / "stored"
            shutil.rmtree(out, ignore_errors=True)
            rec = {"kind": "setup", "op": rep, "traced": False, "problems": []}
            arts = self._solve(rec, out)
            self._finish(rec, out, keep=arts is not None and not rec["problems"])
        timing["total_s"] = time.perf_counter() - start
        return timing

    def operation(self, i: int, tracer=None) -> dict:
        rec = {"kind": "op", "op": i, "traced": tracer is not None, "problems": []}
        if self.workload.op == "solve":
            out = self.runs / f"op{i}"
            if self._solve(rec, out, tracer) is not None:
                for _ in range(SOLVE_DIAGNOSES):
                    self._diagnose_and_report(rec, out, out / "rediagnosed")
            rec["op_s"] = rec.get("solve_s", 0.0)
        else:
            out = self.runs / f"diag{i}"
            with _installed(tracer):
                self._diagnose_and_report(rec, self.runs / "stored", out, tracer)
            rec["op_s"] = sum(rec.get("diagnose_s", [])) + sum(rec.get("report_s", []))
        self._finish(rec, out)
        return rec


def run_loop(loop: Loop, args) -> list[dict]:
    """Closed loop until the deadline. With tracing, every second operation
    is traced; the loop runs at least three, so that one traced and one
    untraced operation follow the first, which warms the process up."""
    ops, traced_spans = [], []
    deadline = time.perf_counter() + args.seconds
    while not ops or time.perf_counter() < deadline or (args.trace and len(ops) < 3):
        tracer = tracing.Tracer() if args.trace and len(ops) % 2 == 1 else None
        rec = loop.operation(len(ops), tracer)
        if tracer is not None:
            rec["layers"] = tracing.layer_metrics(tracer.spans, tracer.bytes)
            rec["breakdown"] = tracing.root_breakdown(tracer.spans)
            traced_spans.append({"op": rec["op"], "spans": tracer.spans})
        ops.append(rec)
    if args.trace:
        path = args.work / "traces" / f"{loop.tag}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(traced_spans))
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    set_fft_workers(1)
    loop = Loop(args, args.work)
    imports_s = time.monotonic() - args.spawned_at
    setups = [loop.set_up(rep) for rep in range(SETUP_REPS)]
    ops = []
    if loop.workload.op == "solve" or (loop.runs / "stored").exists():
        ops = run_loop(loop, args)
    shutil.rmtree(loop.runs, ignore_errors=True)

    records = loop.records
    solves = [r for r in records if "solve_s" in r]
    untraced = [r for r in ops if not r["traced"]]
    traced = [r for r in ops if r["traced"]]
    # on the solve workloads the timed operations solve; to re-diagnose,
    # set-up does, so the accuracy values come from set-up there
    solve_source = [r for r in solves if r["kind"] == "op"] or solves

    end_to_end = {
        "setup_s": imports_s + _median(s["total_s"] for s in setups),
        "operation_s": _median(r["op_s"] for r in untraced),
        "diagnose_s": _median(t for r in untraced for t in r.get("diagnose_s", [])),
        "report_s": _median(t for r in untraced for t in r.get("report_s", [])),
        "artifact_mb": _median(r["artifact_bytes"] for r in solves) / 1e6,
    }
    layers = {}
    if traced:
        # median_low: an observed value, so counts stay whole numbers
        for name in traced[0]["layers"]:
            layers[name] = statistics.median_low(r["layers"][name] for r in traced)
    layers.update({
        "solver.picard_iterates": _median(r["picard_iterates"] for r in solve_source),
        "solver.residual_max": max((r["residual_max"] for r in solve_source), default=0.0),
        "solver.etd_rel_err": max((r["etd_rel_err"] or 0.0 for r in solve_source),
                                  default=0.0),
        "diagnostics.min_ratio": min((r["min_ratio"] for r in records
                                      if "min_ratio" in r), default=0.0),
        "config.parse_s": _median(s["parse_s"] for s in setups),
        "initial_data.make_s": _median(s["make_s"] for s in setups),
        "trace.untraced_op_s": _median(r["op_s"] for r in untraced[1:]),
        "trace.traced_op_s": _median(r["op_s"] for r in traced),
    })
    layers["trace.overhead_s"] = layers["trace.traced_op_s"] - layers["trace.untraced_op_s"]

    failed = sum(1 for r in records if r["problems"])
    for r in records:
        for problem in r["problems"]:
            print(f"{loop.tag} {r['kind']} {r['op']}: {problem}", file=sys.stderr)
    print(json.dumps({
        "attempted": len(records),
        "failed": failed,
        "scenario": loop.text,
        "setups": setups,
        "imports_s": imports_s,
        "records": records,
        "digests": loop.digests,
        "end_to_end": end_to_end,
        "per_layer": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
