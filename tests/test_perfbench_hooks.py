"""The benchmark's trace hooks must keep resolving to callables, and firing.

perfbench/tracing.py rebinds (module, attribute) pairs by name; a rename in
the package, or a call path that stops going through a hooked name, would
otherwise only surface as missing per-layer data.
"""
import importlib.util
import json
from pathlib import Path

from gnsflow import runner
from gnsflow.config import parse_config_text

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

TINY_CFG = """
grid.n = 8
solver.t_final = 0.02
solver.n_times = 5
data.kind = random_sobolev_tail
data.amplitude = 0.01
data.seed = 5
data.band_lo = 1.0
data.band_hi = 6.5
data.spectral_exponent = 6.0
diagnostics.sample_times = 0.005, 0.01, 0.02
diagnostics.fit_lo = 1.0
diagnostics.fit_hi = 6.0
diagnostics.n_shells = 24
"""

FIRING = ("solver.picard", "operators.q", "spectral.wl2", "diagnostics.norm_series",
          "diagnostics.bound_report", "diagnostics.tail", "diagnostics.radius",
          "io.write_trajectory", "io.read_trajectory", "initial_data.make")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_patch_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.PATCHES
    for module, attr, _, _ in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_trace_hooks_fire_on_a_tiny_run(tmp_path):
    tracing = load_tracing()
    cfg = parse_config_text(TINY_CFG)
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run_scenario(cfg, out_dir=tmp_path / "run")
        runner.diagnose_trajectory(tmp_path / "run" / "trajectory" / "manifest.json",
                                   cfg, out_dir=tmp_path / "diag")
        runner.emit_plot_data(tmp_path / "run")
    fired = {name for name, *_ in tracer.spans}
    assert set(FIRING) <= fired, sorted(set(FIRING) - fired)
    assert tracer.bytes.get("io.write_trajectory", 0) > 0
    assert tracer.bytes.get("io.read_trajectory", 0) > 0


def test_q_spans_count_the_picard_q_evaluations(tmp_path):
    # operators.q_evals counts solver.apply_Q_stack calls: quad_order per
    # Picard round, each fed physical values that the march transformed
    tracing = load_tracing()
    cfg = parse_config_text(TINY_CFG)
    assert not cfg.solver_etd_check
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run_scenario(cfg, out_dir=tmp_path / "run")
    picard = json.loads((tmp_path / "run" / "run.json").read_text())["picard"]
    q_spans = sum(1 for name, *_ in tracer.spans if name == "operators.q")
    assert q_spans == cfg.solver_quad_order * sum(picard["interval_iterates"])


def test_hooks_see_the_oracle_beside_the_march(tmp_path):
    # the oracle runs on its own thread through runner.etd_integrate; its
    # 4 Q evaluations per step are spans too, counted exactly across threads
    tracing = load_tracing()
    cfg = parse_config_text(TINY_CFG + "solver.etd_check = true\nsolver.dt = 1e-3\n")
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run_scenario(cfg, out_dir=tmp_path / "run")
    picard = json.loads((tmp_path / "run" / "run.json").read_text())["picard"]
    names = [name for name, *_ in tracer.spans]
    assert "solver.etd" in names
    steps = round(cfg.solver_t_final / cfg.solver_dt)
    assert names.count("operators.q") == (cfg.solver_quad_order
                                          * sum(picard["interval_iterates"]) + 4 * steps)
