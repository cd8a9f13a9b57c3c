"""Agreement of outputs between two result sets of the benchmark.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are results files or directories of them (as written under
.perfbench_work/results/); directories are matched by file name. For each
pair the first gated operation is compared: the report columns
measured_radius, predictor and ratio, plus residual_max and etd_rel_err.
Prints the maximum relative difference of each, and over all of them.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

COLUMNS = ("measured_radius", "predictor", "ratio")
SCALARS = ("residual_max", "etd_rel_err")


def _first_output(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    rec = next(r for r in doc["records"] if "columns" in r)
    out = {c: [float(v) for v in rec["columns"][c]] for c in COLUMNS}
    out.update({s: [float(rec.get(s) or 0.0)] for s in SCALARS})
    return out


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: Path, new: Path) -> dict[str, float]:
    a, b = _first_output(old), _first_output(new)
    diffs = {}
    for name in COLUMNS + SCALARS:
        if len(a[name]) != len(b[name]):
            raise SystemExit(f"{old.name}: {name} has {len(a[name])} rows "
                             f"against {len(b[name])}")
        diffs[name] = max(_rel(x, y) for x, y in zip(a[name], b[name]))
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = Path(args[0]), Path(args[1])
    if old.is_dir():
        pairs = [(p, new / p.name) for p in sorted(old.glob("*.json"))
                 if (new / p.name).exists()]
    else:
        pairs = [(old, new)]
    if not pairs:
        print("no matching result files", file=sys.stderr)
        return 1
    overall = 0.0
    for a, b in pairs:
        diffs = compare(a, b)
        overall = max(overall, max(diffs.values()))
        cells = " ".join(f"{k}={v:.3e}" for k, v in diffs.items())
        print(f"{a.stem}: {cells}")
    print(f"max relative difference over all columns: {overall:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
