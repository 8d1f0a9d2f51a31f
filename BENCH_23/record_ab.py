"""The per-record cost of both record kinds, parent against change, in one
process.

    python3 BENCH_23/record_ab.py <parent checkout> <change checkout> [rounds]

Imports both checkouts' ``linsys`` into one process, side by side, and
calls each side's ``engine._run_replicas`` (the ensemble worker) on the
same replica chunks, parent and change alternating which goes first, so
the machine's speed drift falls on both alike:

* the forward full records of the ``ensemble`` workload's ``simulate``
  (BCPP d=3, lambda=1, 130 replicas from the origin, grid 5, 10, 20, 30,
  base seed 1001, with the CLT battery): 520 records a round, in chunks
  of 13 replicas;
* the dual totals records of the workload's ``verify-martingale`` (4000
  replicas, grid 1, 5, 10, base seed 2): 12,000 records a round, in
  chunks of 100 replicas.

The replicas' ``init_state`` and ``ProcessState.advance`` calls are
clocked on their own ("engine"), and so is a worker call with no
replicas (the per-call setup: kernel tables and battery).  The record
cost is the rest of the worker's time, per record: computing each record,
storing it in the output arrays and the loop around it.  Prints, per
round and side, the worker's seconds, the engine seconds and the
microseconds per record, and whether the two sides' outputs are equal
bit for bit.
"""

import importlib.util
import os
import sys
import time

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def load(tree, alias):
    pkg = os.path.join(tree, "src", "linsys")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[alias] = mod
    spec.loader.exec_module(mod)
    return (importlib.import_module(alias + ".engine"),
            importlib.import_module(alias + ".kernel"),
            importlib.import_module(alias + ".stats"))


def clocked(fn, acc):
    """fn, adding the seconds of each call to acc[0]."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += time.perf_counter() - t0
    return timed


def worker_call(side, args, lo, hi):
    """Seconds of one ``_run_replicas`` call, the seconds of its replicas'
    ``init_state`` and ``advance`` calls, and its outputs."""
    _, eng, stats, advance = side
    args = args(stats)
    advance[0] = 0.0
    t0 = time.perf_counter()
    out = eng._run_replicas(*args[:5], lo, hi, *args[5:])
    return time.perf_counter() - t0, advance[0], out


def run(sides, rounds, label, args, replicas, chunk, records):
    for rnd in range(rounds):
        acc = {name: [0.0, 0.0, 0.0, []] for name, *_ in sides}
        for i, lo in enumerate(range(0, replicas, chunk)):
            for k in range(2):
                side = sides[(i + k) % 2]
                a = acc[side[0]]
                secs, adv, out = worker_call(side, args, lo, min(lo + chunk, replicas))
                setup, _, _ = worker_call(side, args, lo, lo)
                a[0] += secs
                a[1] += adv
                a[2] += setup
                a[3].append(out)
        same = all(p[0].tobytes() == c[0].tobytes() and p[1].tobytes() == c[1].tobytes()
                   and (p[2] == c[2]).all() and p[3:] == c[3:]
                   for p, c in zip(acc["parent"][3], acc["change"][3]))
        for name, (secs, adv, setup, _) in acc.items():
            rec = secs - adv - setup
            print(f"round {rnd + 1}  {label} {name}  worker {secs:6.3f} s  "
                  f"engine {adv:6.3f} s  setup {setup:.4f} s  "
                  f"{1e6 * rec / records:6.2f} us/record ({records} records)")
        print(f"round {rnd + 1}  {label} outputs equal bit for bit: {same}")


def main():
    parent, change = sys.argv[1], sys.argv[2]
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    sides = []
    for name, tree in (("parent", parent), ("change", change)):
        eng, kern, stats = load(tree, "linsys_" + name)
        advance = [0.0]
        eng.ProcessState.advance = clocked(eng.ProcessState.advance, advance)
        eng.init_state = clocked(eng.init_state, advance)
        sides.append((name, eng, stats, advance))
    kernel = kern.make_bcpp_kernel(3, 1.0).to_dict()
    origin = [((0, 0, 0), 1.0)]
    # (kernel_dict, initial, t_grid, dual, base_seed) and (max_occupied,
    # battery_spec, densities), around the replica range; each side's own
    # battery
    def forward(stats):
        return (kernel, origin, [5.0, 10.0, 20.0, 30.0], False, 1001,
                5_000_000, stats.default_battery, True)

    def dual(stats):
        return (kernel, origin, [1.0, 5.0, 10.0], True, 2, 5_000_000, None, False)
    run(sides, rounds, "forward full", forward, 130, 13, 520)
    run(sides, rounds, "dual totals", dual, 4000, 100, 12_000)


if __name__ == "__main__":
    main()
