"""Benchmark of the linsys CLI: one workload, timed or traced.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its
``src/``.  Rounds of the workload's operations repeat while another round
still fits in ``--seconds`` (at least one round).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics from spans with ``--trace 1``.  Each metric is the
median over the run's rounds.  Result and span files go to
``.perfbench_out/`` in the checkout.
"""

import os

# one BLAS thread, fixed before numpy loads; the worker cap comes from
# --threads on every call, never from the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LINSYS_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("part1_s", "s"),
    ("part2_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("engine.advance_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.observables_s", "s"),
    ("engine.site_array_s", "s"),
    ("engine.trajectory_records_s", "s"),
    ("engine.init_state_s", "s"),
    ("engine.self_s", "s"),
    ("kernel.kernel_moments_calls", "count"),
    ("kernel.validate_kernel_s", "s"),
    ("kernel.correlation_calls", "count"),
    ("kernel.cross_moment_calls", "count"),
    ("kernel.self_s", "s"),
    ("feynman_kac.x_jump_rates_calls", "count"),
    ("feynman_kac.oracle_assemble_s", "s"),
    ("feynman_kac.oracle_integrate_s", "s"),
    ("feynman_kac.fk3_limit_estimate_s", "s"),
    ("feynman_kac.fk3_estimate_s", "s"),
    ("feynman_kac.self_s", "s"),
    ("walk.green_s", "s"),
    ("walk.green_calls", "count"),
    ("walk.green_box_s", "s"),
    ("walk.green_box_calls", "count"),
    ("walk.simulate_walk_s", "s"),
    ("walk.self_s", "s"),
    ("stats.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
]


def import_program():
    """Import linsys from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "linsys", "cli.py")):
        sys.stderr.write(f"perfbench: no linsys sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import linsys
    from linsys import cli
    if not os.path.abspath(linsys.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: linsys imported from {linsys.__file__}\n")
        sys.exit(2)
    return cli


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import and build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _reset_process_caches():
    # every call starts as a fresh `linsys` process would: the h-field
    # cache is keyed on id(kernel), so an address reused by the next
    # parsed kernel would otherwise skip a build at random
    from linsys import feynman_kac
    cache = getattr(feynman_kac, "_H_FIELDS", None)
    if isinstance(cache, dict):
        cache.clear()


def run_op(cli, op, workdir, tracer):
    """Run one operation's CLI calls; returns (seconds, dirs, failure)."""
    elapsed, dirs, failure = 0.0, [], None
    for call in op.calls:
        out = tempfile.mkdtemp(dir=workdir)
        dirs.append(out)
        argv = [call.subcommand, json.dumps(call.config), "--threads",
                str(call.threads), "--output-dir", out]
        _reset_process_caches()
        if tracer is not None:
            tracer.active = op.part is not None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            failure = traceback.format_exc(limit=3)
        finally:
            elapsed += time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        if failure is None and rc not in call.ok_codes:
            failure = f"exit code {rc}"
        if rc == 1 and failure is None:
            sys.stderr.write(f"note: {op.label}: the CLI's own 3-SE verdict "
                             "failed; the benchmark's checks decide\n")
        if failure is not None:
            break
    return elapsed, dirs, failure


def _artifact_bytes(dirs):
    return sum(os.path.getsize(os.path.join(d, f))
               for d in dirs for f in os.listdir(d))


def run_round(cli, ops, workdir, tracer):
    start = tracer.mark() if tracer is not None else 0
    res = {"part1": 0.0, "part2": 0.0, "attempted": len(ops), "failed": 0,
           "problems": [], "bytes": 0}
    for op in ops:
        elapsed, dirs, failure = run_op(cli, op, workdir, tracer)
        if failure is None:
            try:
                problems = [f"{op.label}: {p}" for p in op.check(dirs)]
            except Exception:
                problems = [f"{op.label}: check raised "
                            + traceback.format_exc(limit=3)]
            if op.expect_fault and problems:
                failure = "; ".join(problems)
            else:
                res["problems"] += problems
        if failure is not None:
            res["failed"] += 1
            sys.stderr.write(f"FAILED {op.label}: {failure}\n")
        else:
            if op.part is not None:
                res["part1" if op.part == "part1" else "part2"] += elapsed
                res["bytes"] += _artifact_bytes(dirs)
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    if tracer is not None:
        res["layers"] = tracer.round_metrics(start)
        res["layers"]["cli.artifact_bytes"] = res["bytes"]
        res["layers"]["trace.wall_s"] = res["part1"] + res["part2"]
    return res


def _median(values, unit):
    return statistics.median_low(values) if unit in ("count", "bytes") \
        else statistics.median(values)


def main(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (set-up probe)")
    args = p.parse_args(argv)

    cli = import_program()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    rounds = []
    try:
        t_start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            rounds.append(run_round(cli, ops, workdir, tracer))
            took = time.perf_counter() - r0
            if time.perf_counter() - t_start + took > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r["problems"]]
    for prob in dict.fromkeys(problems):
        sys.stderr.write(f"CHECK FAILED {prob}\n")
    if args.trace:
        metrics = {name: {"value": _median([r["layers"][name] for r in rounds], unit),
                          "unit": unit} for name, unit in PER_LAYER}
        tracer.dump(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["part1"] + r["part2"] for r in rounds),
            "part1_s": statistics.median(r["part1"] for r in rounds),
            "part2_s": statistics.median(r["part2"] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    text = json.dumps(result)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    sys.stderr.write(f"rounds: {len(rounds)}; result in {path}\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
