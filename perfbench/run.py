"""gnsflow benchmark: one workload per invocation, in a fresh pinned process.

    python3 perfbench/run.py --workload solve-crit24-etd [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or any checkout of it); the program is
imported from ``src/`` of that checkout. The workload runs in a child
process with FFT workers and BLAS/OpenMP threads set to 1, after a memory
preflight. Its result, with the environment it ran in, is stored under
``.perfbench_work/results/``; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (``--trace 0``) or every
per-layer metric (``--trace 1``). ``failed`` counts operations that broke a
gate, so ``failed / attempted`` is the fail rate.

End-to-end metrics are medians over the operations of one run. operation_s
is one timed operation: a run_scenario call on the solve workload, a
diagnose_trajectory plus emit_plot_data pair on the re-diagnose workload.
diagnose_s and report_s are those two calls alone (the solve workload makes
them twice after each solve). peak_rss_mb is the workload process's
ru_maxrss; artifact_mb the bytes (1e6) a solve wrote. Per-layer metrics are
medians over the traced operations; solver.trajectory_mb is computed as T *
3 * n^3 * 16 bytes (MiB) and solver.rss_over_trajectory is peak_rss_mb over
it. trace.overhead_s is traced minus untraced operation time, both measured
in the same process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170.0

# Peak RSS measured at about 2.2x the trajectory bytes (the solve holds two
# trajectories while it certifies the residual) over an interpreter with
# numpy and scipy loaded.
PEAK_PER_TRAJECTORY_BYTE = 2.2
BASE_BYTES = 150 * 2**20

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def mem_available_bytes() -> int | None:
    text = _read("/proc/meminfo") or ""
    for line in text.splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) * 1024
    return None


def cgroup_headroom_bytes() -> int | None:
    """memory.max minus memory.current of this cgroup (v2), read-only."""
    limit = _read("/sys/fs/cgroup/memory.max")
    current = _read("/sys/fs/cgroup/memory.current")
    if limit is None or current is None or limit == "max":
        return None
    return int(limit) - int(current)


def git_commit(root: Path) -> str | None:
    head = _read(str(root / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(root / ".git" / ref))
    if direct is not None:
        return direct
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(ROOT),
        "mem_available_bytes": mem_available_bytes(),
        "cgroup_headroom_bytes": cgroup_headroom_bytes(),
        "loadavg_at_start": os.getloadavg(),
        "pinned_env": PINNED_ENV,
        "fft_workers": 1,
    }


def preflight(trajectory_bytes: int) -> str | None:
    """Why the workload would not fit in memory, or None when it fits."""
    estimate = PEAK_PER_TRAJECTORY_BYTE * trajectory_bytes + BASE_BYTES
    for label, budget in (("MemAvailable", mem_available_bytes()),
                          ("cgroup memory.max headroom", cgroup_headroom_bytes())):
        if budget is not None and estimate > budget:
            return (f"estimated peak {estimate / 2**20:.0f} MiB exceeds "
                    f"{label} {budget / 2**20:.0f} MiB")
    return None


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    from scenarios import WORKLOADS

    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="data seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=int, default=specs["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        parser.error(f"--seed must be in [0, 2^64), got {seed}")

    src = ROOT / "src"
    if not (src / "gnsflow" / "__init__.py").is_file():
        print(f"error: no gnsflow sources under {src}", file=sys.stderr)
        return 2
    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]
    why = {w["name"]: w["why"] for w in specs["workloads"]}[args.workload]

    env_record = environment()
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    results = WORK / "results" / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    refusal = preflight(workload.trajectory_bytes())
    if refusal is not None:
        results.write_text(json.dumps({"workload": args.workload, "seed": seed,
                                       "environment": env_record,
                                       "refused": refusal}, indent=1))
        print(f"error: not started: {refusal}", file=sys.stderr)
        return 3

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(src)
    spawned_at = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spawned-at", repr(spawned_at),
         "--work", str(WORK)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish in {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        print(f"error: workload exited with {child.returncode}", file=sys.stderr)
        return 1
    payload = json.loads(out.strip().splitlines()[-1])

    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    trajectory_mb = workload.trajectory_bytes() / 2**20
    metrics = dict(payload["end_to_end"], peak_rss_mb=peak_rss_mb)
    metrics.update(payload["per_layer"])
    metrics["solver.trajectory_mb"] = trajectory_mb
    metrics["solver.rss_over_trajectory"] = peak_rss_mb / trajectory_mb

    results.write_text(json.dumps({
        "workload": args.workload, "why": why, "seed": seed,
        "seconds": args.seconds, "trace": args.trace, "claim": None,
        "environment": env_record, "metrics": metrics, **payload,
    }, indent=1))
    print(json.dumps({
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
