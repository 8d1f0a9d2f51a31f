"""The coordinate-range guard's cost, parent against change, in one process.

    python3 BENCH_22/record_ab.py <parent checkout> <change checkout> [rounds]

Imports both checkouts' ``linsys`` into one process, side by side, and
runs two loops replica by replica, parent and change alternating which
goes first, so the machine's speed drift falls on both alike:

* the forward ``advance`` at the ``ensemble`` workload's ``simulate``
  sizes (BCPP d=3, lambda=1, 130 replicas from the origin, grid 5, 10,
  20, 30, base seed 1001), where the change's audit owns the range check;
  the time inside ``ProcessState._audit`` is clocked on its own;
* the dual totals-record loop of the workload's ``verify-martingale``
  (4000 replicas, grid 1, 5, 10, base seed 2), where the change's
  ``_totals_row`` no longer unpacks the site keys.

Prints, per round and side, the seconds, events, audits and
microseconds per record, and whether the two sides' normalized totals
and final configurations are equal bit for bit.
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


def clock_audits(eng, acc):
    """Wrap ``ProcessState._audit`` to add its calls and seconds to acc."""
    audit = eng.ProcessState._audit

    def timed(self):
        t0 = time.perf_counter()
        try:
            return audit(self)
        finally:
            acc[0] += 1
            acc[1] += time.perf_counter() - t0
    eng.ProcessState._audit = timed


def main():
    parent, change = sys.argv[1], sys.argv[2]
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    sides = []
    for name, tree in (("parent", parent), ("change", change)):
        eng, kern = load(tree, "linsys_" + name)
        audits = [0, 0.0]
        clock_audits(eng, audits)
        sides.append((name, eng, eng._KernelTables(kern.make_bcpp_kernel(3, 1.0)),
                      audits))
    origin = [((0, 0, 0), 1.0)]
    for rnd in range(rounds):
        acc = {name: [0.0, 0, []] for name, *_ in sides}
        for _, _, _, audits in sides:
            audits[:] = [0, 0.0]
        for r in range(130):
            for k in range(2):
                name, eng, tables, _ = sides[(r + k) % 2]
                state = eng.init_state(tables, origin,
                                       seed=eng.replica_seed(1001, r))
                prev = 0.0
                t0 = time.perf_counter()
                for t in [5.0, 10.0, 20.0, 30.0]:
                    state.advance(t - prev)
                    prev = t
                acc[name][0] += time.perf_counter() - t0
                acc[name][1] += state._events
                acc[name][2].append(sorted(state.masses.items()))
        same = acc["parent"][2] == acc["change"][2]
        for name, _, _, (calls, secs) in sides:
            adv, events, _ = acc[name]
            print(f"round {rnd + 1}  forward {name}  advance {adv:6.3f} s  "
                  f"{events} events  {events / adv / 1e6:.3f} M events/s  "
                  f"{calls} audits  {secs:.4f} s in _audit "
                  f"({100 * secs / adv:.2f}% of advance)")
        print(f"round {rnd + 1}  forward configurations equal bit for bit: {same}")
    for rnd in range(rounds):
        acc = {name: [0.0, 0.0, 0, []] for name, *_ in sides}
        for r in range(4000):
            for k in range(2):
                name, eng, tables, _ = sides[(r + k) % 2]
                a = acc[name]
                state = eng.init_state(tables, origin, dual=True,
                                       seed=eng.replica_seed(2, r))
                prev = 0.0
                for t in [1.0, 5.0, 10.0]:
                    t0 = time.perf_counter()
                    state.advance(t - prev)
                    t1 = time.perf_counter()
                    row = eng._totals_row(state)
                    t2 = time.perf_counter()
                    prev = t
                    a[0] += t1 - t0
                    a[1] += t2 - t1
                    a[3].append(row[0])
                a[2] += state._events
        same = acc["parent"][3] == acc["change"][3]
        for name, (adv, rec, events, totals) in acc.items():
            print(f"round {rnd + 1}  dual {name}  loop {adv + rec:6.3f} s  "
                  f"advance {adv:6.3f} s  {events} events  "
                  f"{1e6 * rec / len(totals):6.2f} us/record "
                  f"({len(totals)} records)")
        print(f"round {rnd + 1}  dual normalized totals equal bit for bit: {same}")


if __name__ == "__main__":
    main()
