"""Compare benchmark results: each metric's median, new over base.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files of result lines as perfbench/run.py prints them
(the last line of its output, or many runs appended to one file; other
lines are ignored).  For every metric both files report, prints the run
count, the base and new medians, and the ratio new/base, marked against
the metric's better direction and bound from BENCHMARK.json.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(path):
    runs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if isinstance(obj, dict) and "metrics" in obj:
                runs.append(obj)
    if not runs:
        raise SystemExit(f"{path}: no result lines")
    return runs


def medians(runs):
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}, runs[0]["metrics"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_runs, new_runs = load_results(argv[0]), load_results(argv[1])
    base, units = medians(base_runs)
    new, _ = medians(new_runs)
    print(f"base: {argv[0]} ({len(base_runs)} runs)   new: {argv[1]} ({len(new_runs)} runs)")
    for side, runs in (("base", base_runs), ("new", new_runs)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{side}: correct={all(r['correct'] for r in runs)} "
              f"failed {failed} of {attempted} operations")
    print(f"{'metric':36s} {'unit':>6s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
    for name in base:
        if name not in new:
            continue
        b, n = base[name], new[name]
        ratio = n / b if b else float("nan")
        m = meta.get(name, {})
        note = ""
        if b and m.get("better"):
            worse = ratio > 1 if m["better"] == "lower" else ratio < 1
            note = "worse" if worse and ratio != 1 else "better" if ratio != 1 else ""
            if worse and "bound" in m and abs(ratio - 1) > m["bound"]:
                note += f" (beyond bound {m['bound']})"
        print(f"{name:36s} {units[name]['unit']:>6s} {b:12.6g} {n:12.6g} "
              f"{ratio:9.4f} {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
