"""Per-record cost of the dual ensemble loop, parent against change.

    python3 BENCH_21/record_ab.py <parent checkout> <change checkout> [rounds]

Imports both checkouts' ``linsys`` into one process, side by side, and
runs the dual loop of the ``ensemble`` workload's ``verify-martingale``
(BCPP d=3, lambda=1, 4000 replicas from the origin, grid 1, 5, 10, base
seed 2) replica by replica.  Each replica runs three ways in rotating
order: the parent's full record (``observables`` and ``_record_row``),
the change's full record, and the change's totals record
(``_totals_row``), so the machine's speed drift falls on all three
alike.  Prints, per round and way, the loop's seconds, the advance
seconds and the microseconds per record.  Then, in the same way, the
forward ``advance`` alone, parent against change: the ``ensemble``
workload's ``simulate`` sizes (130 replicas over the grid 5, 10, 20, 30,
base seed 1001), which the change's read-side underflow guard touches.
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
    return importlib.import_module(alias + ".engine"), importlib.import_module(
        alias + ".kernel")


def full_record(eng, d):
    def record(state):
        return eng._record_row(eng.observables(state), d, [])
    return record


def main():
    parent, change = sys.argv[1], sys.argv[2]
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    pe, pk = load(parent, "linsys_parent")
    ce, ck = load(change, "linsys_change")
    grid, replicas, base = [1.0, 5.0, 10.0], 4000, 2
    ways = [("parent full", pe, pe._KernelTables(pk.make_bcpp_kernel(3, 1.0)),
             full_record(pe, 3)),
            ("change full", ce, ce._KernelTables(ck.make_bcpp_kernel(3, 1.0)),
             full_record(ce, 3)),
            ("change totals", ce, ce._KernelTables(ck.make_bcpp_kernel(3, 1.0)),
             ce._totals_row)]
    for rnd in range(rounds):
        acc = {name: [0.0, 0.0, 0, 0, []] for name, *_ in ways}
        for r in range(replicas):
            for k in range(len(ways)):
                name, eng, tables, record = ways[(r + k) % len(ways)]
                a = acc[name]
                state = eng.init_state(tables, [((0, 0, 0), 1.0)], dual=True,
                                       seed=eng.replica_seed(base, r))
                prev = 0.0
                for t in grid:
                    t0 = time.perf_counter()
                    state.advance(t - prev)
                    t1 = time.perf_counter()
                    row = record(state)
                    t2 = time.perf_counter()
                    prev = t
                    a[0] += t1 - t0
                    a[1] += t2 - t1
                    a[3] += 1
                    a[4].append(row[0])
                a[2] += state._events
        totals = {name: a[4] for name, a in acc.items()}
        same = len({tuple(v) for v in totals.values()}) == 1
        for name, (adv, rec, events, records, _) in acc.items():
            print(f"round {rnd + 1}  {name:13s}  loop {adv + rec:6.3f} s  "
                  f"advance {adv:6.3f} s  {events} events  "
                  f"{1e6 * rec / records:6.2f} us/record ({records} records)")
        print(f"round {rnd + 1}  normalized totals equal bit for bit: {same}")
    forward = [(name, eng, tables) for name, eng, tables, _ in ways[:2]]
    for rnd in range(rounds):
        acc = {name: [0.0, 0] for name, *_ in forward}
        for r in range(130):
            for k in range(2):
                name, eng, tables = forward[(r + k) % 2]
                state = eng.init_state(tables, [((0, 0, 0), 1.0)],
                                       seed=eng.replica_seed(1001, r))
                prev = 0.0
                t0 = time.perf_counter()
                for t in [5.0, 10.0, 20.0, 30.0]:
                    state.advance(t - prev)
                    prev = t
                acc[name][0] += time.perf_counter() - t0
                acc[name][1] += state._events
        for name, (adv, events) in acc.items():
            print(f"round {rnd + 1}  forward {name.split()[0]:6s}  advance "
                  f"{adv:6.3f} s  {events} events  "
                  f"{events / adv / 1e6:.3f} M events/s")


if __name__ == "__main__":
    main()
