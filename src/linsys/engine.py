"""Exact event-driven simulation of the linear particle system.

Every lattice site carries a rate-1 exponential clock; at a ring of the
clock at z a fresh copy xi of the kernel vector is drawn and the
configuration is replaced by

    eta_z     <- xi_0 * eta_z
    eta_{z+u} <- eta_{z+u} + xi_u * eta_z     (u != 0),

or, for the dual process, by the transposed map

    eta_z     <- sum_u xi_u * eta_{z+u},      other sites unchanged.

Clocks at sites where the update cannot change anything are no-ops
(every replacement term carries a factor of the local mass), so the
simulation rings only occupied sites.  For the forward process an event
at z changes something only if z is occupied, so the total event rate is
the occupied-site count n.  A dual event (z, a) with atom a of
probability p_a changes something only if z + u is occupied for some u in
its read set R_a, where supp(a) = {u : xi_u > 0} and

    R_a = supp(a) - {0}          if xi_0 == 1,
    R_a = {0} u supp(a)          otherwise.

With xi_0 == 1 the new value minus the old one is
sum_{u != 0} xi_u eta_{z+u}, so (z, a) changes eta_z exactly when one of
those reads is occupied; otherwise a nonempty new or old value at z needs
an occupied read in {0} u supp(a).  The proposals are drawn by thinning
(Lewis and Shedler 1979): an occupied site y, then a pair (u, a) with
weight p_a/Q, Q = sum_a p_a |R_a|, at total rate n Q, and z = y - u.  The
proposal is accepted only if no read of a before u in R_a (0 first if it
is there, the rest sorted) is occupied at z, so each such (z, a) has
exactly one accepting (y, u) and fires at rate p_a.  For BCPP every read
set holds one offset, so every proposal is accepted; a kernel of identity
atoms has Q = 0 and its dual clock runs with no event.  Both restrictions
are distributionally exact.

Each event or proposal takes three uniforms of the state's stream, in
stream order: the wait, the site, then the atom or the pair (u, a).  They
are read a block of events at a time, and each block's waiting-time
logarithms, site uniforms and atom or pair picks are prepared before its
events run; the uniforms a block leaves unused stay for the next one, so
the block sizes do not change which uniform an event takes.

Masses are doubles scaled by a shared log-scale factor (the total mass
grows like exp(kappa_1 t)); normalized quantities are computed as
exp(log_scale - kappa_1 t) * (unscaled value) so nothing overflows, and
a mass that shrinks toward the bottom of the double range is rescaled
before it can underflow to a false death.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, starmap

import numpy as np

from .kernel import Kernel, kernel_moments

# packed site keys: each coordinate in a 21-bit field, offset so fields
# stay nonnegative; neighbor moves are single integer additions
_BITS = 21
_OFF = 1 << 20
_MASK = (1 << _BITS) - 1

# the audit every _AUDIT_EVERY events holds the sites inside the kernel's
# coordinate range and rescales when the largest mass is outside
# [_RESCALE_LO, _RESCALE_HI]; the event loops call it at once for
# a forward mass read outside [_GUARD_LO, _GUARD_HI), or a mass written at
# or above _GUARD_HI (dual) or positive below _GUARD_LO, before doubles
# overflow or underflow to a false death
_RESCALE_HI = 1e200
_RESCALE_LO = 1e-200
_GUARD_HI = 1e250
_GUARD_LO = 1e-250
_AUDIT_EVERY = 4096
# the stream is drawn _MIN_DRAW uniforms or more at a time, so a short
# block seldom calls the generator
_MIN_DRAW = 768
_BLOCK_SLACK = 16


class EngineError(RuntimeError):
    pass


class CorruptStateError(EngineError):
    """NaN or nonpositive mass detected inside the sparse configuration."""


def pack_site(x):
    return _pack_delta([c + _OFF for c in x])


def unpack_site(key, d):
    return tuple(((key >> (_BITS * i)) & _MASK) - _OFF for i in range(d))


def _pack_delta(u):
    # valid to *add* to a packed key as long as coordinates stay in range
    return sum(c << (_BITS * i) for i, c in enumerate(u))


class _KernelTables:
    """Per-kernel constants of the event loop: moments and atom tables.

    ``init_state`` builds them from a kernel, or takes them prebuilt, so
    a replica worker builds them once for all its replicas."""

    def __init__(self, kernel: Kernel):
        self.d = kernel.d
        # a new site lies within r_K (l1) of an occupied one and the audit
        # runs at every _AUDIT_EVERY-th event, so the sites it holds below
        # limit stay in the packed fields (a dual read r_K further out
        # cannot match another site's key)
        self.r_K, self.limit = kernel.r_K, _OFF - _AUDIT_EVERY * kernel.r_K
        if self.limit <= 0:
            raise EngineError(f"the engine needs r_K < {_OFF // _AUDIT_EVERY}, "
                              f"the kernel has r_K = {kernel.r_K}")
        mom = kernel_moments(kernel)
        self.kappa1 = mom.kappa1
        self.drift = mom.drift
        # cumulative probabilities for the draw, then per-atom
        # (xi_0, ((packed offset, value), ...)) with offset 0 split out for
        # the forward update and kept inline for the dual read
        cum = []
        acc = 0.0
        fwd, dualrd = [], []
        zero = tuple([0] * self.d)
        for p, vec in kernel.atoms:
            acc += p
            cum.append(acc)
            fwd.append((vec.get(zero, 0.0),
                        tuple((_pack_delta(u), v) for u, v in sorted(vec.items())
                              if u != zero)))
            dualrd.append(tuple((_pack_delta(u), v) for u, v in sorted(vec.items())))
        cum[-1] = 1.0 + 1e-15
        self.atom_cum = np.array(cum)
        self.atoms_fwd = fwd
        self.atoms_dual = dualrd
        # dual proposals: per (u, a) with u in R_a, (packed u, atom index,
        # packed reads of R_a before u) and cumulative weights p_a / Q
        pairs, weights = [], []
        for ai, (p, vec) in enumerate(kernel.atoms):
            reads = sorted(u for u in vec if u != zero)
            if vec.get(zero) != 1.0:
                reads.insert(0, zero)
            for k, u in enumerate(reads):
                pairs.append((_pack_delta(u), ai,
                              tuple(_pack_delta(v) for v in reads[:k])))
                weights.append(p)
        self.dual_rate = math.fsum(weights)  # Q, per occupied site; 0 if no reads
        pair_cum = [c / self.dual_rate for c in accumulate(weights)]
        if pairs:
            pair_cum[-1] = 1.0 + 1e-15
        self.pair_cum = np.array(pair_cum)
        self.dual_pairs = pairs


class ProcessState:
    """Mutable simulation state for one trajectory (single-threaded)."""

    def __init__(self, tables: _KernelTables, initial, dual, seed):
        if not initial:
            raise EngineError("initial configuration is empty; the process "
                              "would be identically zero")
        self.d = tables.d
        self.dual = bool(dual)
        self.t = 0.0
        self.log_scale = 0.0
        self.extinct = False
        self.truncated = False
        self.max_occupied = 5_000_000
        self._tables = tables

        self.masses = {}
        for x, m in initial:
            m = float(m)
            if not 0 < m < math.inf:
                raise EngineError(
                    f"initial mass at {x} must be finite and > 0, got {m}")
            key = pack_site(_check_coords(x, self.d, tables.limit))
            self.masses[key] = self.masses.get(key, 0.0) + m
        self._reach = max(abs(c) for x, _ in initial for c in x)  # largest |x_i|

        # the occupied sites as a list + position map, for O(1) uniform
        # pick and swap-remove
        self._active = list(self.masses)
        self._active_pos = {key: i for i, key in enumerate(self._active)}
        self.peak_occupied = len(self._active)  # the largest count so far

        self._rng = seeded_rng(seed)
        # uniforms drawn from _rng and not yet used, in stream order
        self._unread = np.empty(0)
        self._events = 0
        self._trace = None  # set to a list to record (site, atom, mass) per event

    def _read_block(self, m):
        """The next 3m unused uniforms of the stream as an (m, 3) array,
        one row per event or proposal: wait, site, then atom or pair.
        Reading consumes nothing; ``advance`` drops from ``_unread`` what
        its events used.  The values do not depend on the block sizes."""
        need = 3 * m - len(self._unread)
        if need > 0:
            fresh = self._rng.random(max(need, _MIN_DRAW))
            self._unread = (np.concatenate((self._unread, fresh))
                            if len(self._unread) else fresh)
        return self._unread[:3 * m].reshape(m, 3)

    # -- audits ----------------------------------------------------------

    def _audit(self):
        masses = self.masses
        if not masses:
            return
        hi = max(masses.values())
        lo = min(masses.values())
        if hi != hi or lo <= 0.0:
            raise CorruptStateError(
                f"bad stored mass (max={hi}, min={lo}) at t={self.t}")
        # the keys are unpacked only once r_K per event from the initial
        # sites can reach the limit
        limit = self._tables.limit
        if (self._reach + self._events * self._tables.r_K >= limit
                and abs(self.site_array()[0]).max() >= limit):
            raise CorruptStateError(
                f"a site reached the coordinate range limit {limit} at t={self.t}")
        if hi > _RESCALE_HI or hi < _RESCALE_LO:
            factor = 1.0 / hi
            for k in masses:
                masses[k] *= factor
            self.log_scale += math.log(hi)

    # -- core loop ---------------------------------------------------------

    def advance(self, duration):
        """Run the events of the next ``duration`` time units.

        Each forward event, and each dual proposal, accepted or not, takes
        three uniforms in stream order: waiting time, occupied site, then
        the atom (forward) or the pair (u, a) (dual).  They are read a
        block of events at a time, sized from the expected event count and
        ended at the next audit, and each block's logarithms, site
        uniforms and atom or pair picks are prepared before its events
        run; what the events leave unused stays for the next block.  The
        loop state lives in locals and is written back on exit; the
        active-set updates are inlined."""
        if duration < 0:
            raise EngineError("duration must be nonnegative")
        target = self.t + duration
        idle = self.dual and not self._tables.dual_rate  # no reads: Q = 0
        if self.extinct or self.truncated or idle:
            self.t = target
            return self
        masses = self.masses
        get = masses.get
        active = self._active
        pos = self._active_pos
        tables = self._tables
        log = math.log
        trace = self._trace
        cap = self.max_occupied
        # the count peaks just before it falls, or at the end
        peak = self.peak_occupied
        stop = target  # pulled to -inf by growth past the cap: truncation
        guard_lo, guard_hi = _GUARD_LO, _GUARD_HI
        t = self.t
        events = self._events
        n = len(active)
        if self.dual:
            rate, cum = tables.dual_rate, tables.pair_cum
        else:
            rate, cum = 1.0, tables.atom_cum
        try:
            while True:
                due = events - events % _AUDIT_EVERY + _AUDIT_EVERY
                # the expected event count, plus room for growth during a
                # short advance; one event when already past the cap (a cap
                # below the start), since the next event decides truncation
                size = 1 if n > cap else min(
                    due - events, int(n * rate * (target - t)) + _BLOCK_SLACK)
                block = self._read_block(size)
                # math.log, as per event: np.log differs in the last bit
                # for some arguments; searchsorted "right" is bisect_right
                waits = list(map(log, (1.0 - block[:, 0]).tolist()))
                sites = block[:, 1].tolist()
                picks = cum.searchsorted(block[:, 2], side="right").tolist()
                start = events
                skipped = 0  # blocked dual proposals
                if self.dual:
                    atoms = tables.atoms_dual
                    for lw, us, (off, ai, before) in zip(
                            waits, sites, map(tables.dual_pairs.__getitem__, picks)):
                        dt = -lw / (n * rate)
                        if t + dt >= stop:
                            break
                        t += dt
                        z = active[int(us * n)] - off
                        blocked = False
                        for dv in before:  # (z, a) fires from its first occupied read
                            if z + dv in masses:
                                blocked = True
                                break
                        if blocked:
                            skipped += 1
                            continue
                        events += 1
                        new = 0.0
                        for du, val in atoms[ai]:
                            m = get(z + du)
                            if m is not None:
                                new += val * m
                        old = get(z)
                        if trace is not None:
                            trace.append((z, ai, old if old is not None else 0.0))
                        if new > 0.0:
                            masses[z] = new
                            if old is None:
                                pos[z] = n
                                active.append(z)
                                n += 1
                                if n > cap:
                                    stop = -math.inf
                            # rescale before doubles overflow or underflow
                            if new >= guard_hi or new < guard_lo:
                                self.t, self._events = t, events
                                self._audit()
                        elif old is not None:
                            del masses[z]
                            if n > peak:
                                peak = n
                            n -= 1
                            p = pos.pop(z)
                            last = active.pop()
                            if last != z:
                                active[p] = last
                                pos[last] = p
                            if not n:
                                break
                else:
                    atoms = tables.atoms_fwd
                    for lw, us, ai in zip(waits, sites, picks):
                        dt = -lw / n
                        if t + dt >= stop:
                            break
                        t += dt
                        events += 1
                        z = active[int(us * n)]
                        k0, entries = atoms[ai]
                        mz = masses[z]
                        if trace is not None:
                            trace.append((z, ai, mz))
                        for du, val in entries:
                            y = z + du
                            m = get(y)
                            if m is None:
                                w = val * mz
                                if w > 0.0:  # a write that underflows occupies nothing
                                    masses[y] = w
                                    pos[y] = n
                                    active.append(y)
                                    n += 1
                                    if n > cap:
                                        stop = -math.inf
                            else:
                                masses[y] = m + val * mz
                        if k0 != 1.0:
                            m = k0 * mz
                            if m >= guard_lo:
                                masses[z] = m
                            elif m > 0.0:  # rescale before it underflows to 0
                                masses[z] = m
                                self.t, self._events = t, events
                                self._audit()
                            else:  # death
                                del masses[z]
                                if n > peak:
                                    peak = n
                                n -= 1
                                p = pos.pop(z)
                                last = active.pop()
                                if last != z:
                                    active[p] = last
                                    pos[last] = p
                                if not n:
                                    break
                        # rescale before doubles overflow, or before the
                        # writes from a small mass underflow
                        if mz >= guard_hi or mz < guard_lo:
                            self.t, self._events = t, events
                            self._audit()
                # events and proposals run in full; the wait that passed the
                # target, if one did, is one more uniform
                used = events - start + skipped
                self._unread = self._unread[3 * used:]
                if not n:
                    if n > cap:  # a negative cap truncates even at 0
                        self.truncated = True
                    else:
                        self.extinct = True
                        t = target
                    break
                if used < size and stop == target:  # a wait passed the target
                    self._unread = self._unread[1:]
                    t = target
                    break
                if events == due:
                    self.t, self._events = t, events
                    self._audit()
                if n > cap and events > start:  # not for a blocked proposal
                    self.truncated = True
                    break
                stop = target  # an event can undo its own growth past the cap
        finally:
            self.t = t
            self._events = events
            self.peak_occupied = max(peak, n)
        return self

    # -- observables -------------------------------------------------------

    def site_array(self):
        """(coords, masses) as numpy arrays, (n, d) ints and n floats, in the
        insertion order of the ``masses`` dict; that order fixes the float
        order of the sums in ``observables``."""
        n = len(self.masses)
        keys = np.fromiter(self.masses, dtype=np.int64, count=n)
        return (((keys[:, None] >> (_BITS * np.arange(self.d))) & _MASK) - _OFF,
                np.fromiter(self.masses.values(), dtype=float, count=n))


def replica_seed(base_seed, r):
    """Stream for replica r: independent of any other replica's stream."""
    return np.random.SeedSequence([int(base_seed) & 0xFFFFFFFFFFFFFFFF, int(r)])


def seeded_rng(seed, *tag):
    """Philox generator on the stream keyed by (seed, *tag); a SeedSequence
    seed is used as it is."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *tag])
    return np.random.Generator(np.random.Philox(seed))


def _check_coords(x, d, limit):
    t = tuple(int(c) for c in x)
    if len(t) != d:
        raise EngineError(f"site {x} has dimension {len(t)}, kernel has {d}")
    # comparing with x itself rejects fractional coordinates
    if t != tuple(x):
        raise EngineError(f"site {x} has a non-integer coordinate")
    if any(abs(c) >= limit for c in t):
        raise EngineError(f"site {x} outside the coordinate range |x_i| < {limit}")
    return t


def init_state(kernel: Kernel, initial, dual=False, seed=0) -> ProcessState:
    """Fresh state at t = 0 with a deterministic stream derived from seed.

    ``kernel`` is a Kernel or the _KernelTables built from one."""
    if not isinstance(kernel, _KernelTables):
        kernel = _KernelTables(kernel)
    return ProcessState(kernel, list(initial), dual, seed)


def observables(state: ProcessState, test_functions=None) -> dict:
    """Density observables of the current configuration, as the record
    ``{column: value}`` in the ``_record_names`` order.

    rho_x = eta_x/|eta|; rho_star = max rho; overlap = sum rho^2.  The
    weighted moments m1_i and m2_ij are sum_x xhat^{(k)} rho_x with
    xhat = (x - m t)/sqrt(t) centered by the kernel drift (scale 1 at
    t = 0), and "battery:<name>" is sum_x f(xhat) rho_x.  Extinction
    ("occupied" 0) gives the all-zero record.
    """
    test_functions = test_functions or {}
    battery = tuple(sorted(test_functions))
    names = _record_names(state.d, battery, True)
    if not state.masses:
        return dict.fromkeys(names, 0.0)
    coords, vals = state.site_array()
    total, totals = _totals(state)
    rho = vals / total
    scale = math.sqrt(state.t) if state.t > 0 else 1.0
    xhat = (coords - state._tables.drift * state.t) / scale
    m2 = (xhat * rho[:, None]).T @ xhat
    return dict(zip(names, [
        totals["normalized_total"], totals["normalized_total_sq"],
        float(rho.max()), float(rho @ rho), totals["occupied"],
        *(rho @ xhat).tolist(), *m2.ravel().tolist(),
        *(float(rho @ test_functions[b](xhat, scale)) for b in battery)]))


def _totals(state: ProcessState):
    """The masses' fsum (correctly rounded, so in any order) and the
    ``_TOTAL_NAMES`` columns both record kinds share: the normalized total
    (the fsum times exp(log_scale - kappa_1 t)), its square and the
    occupied-site count."""
    total = math.fsum(state.masses.values())
    normalized = total * math.exp(state.log_scale - state._tables.kappa1 * state.t)
    return total, {"normalized_total": normalized,
                   "normalized_total_sq": normalized**2,
                   "occupied": float(len(state.masses))}


# ---------------------------------------------------------------------------
# Ensembles


@dataclass(eq=False)
class ReplicaRows:
    """Per-replica records of one ensemble pass, in replica order.

    ``values[r, j]`` holds the ``names`` columns of replica r at the j-th
    grid time (it survived iff its "occupied" count is positive) and
    ``t[r, j]`` its engine clock there (accumulated, so it can differ from
    the grid value in the last bit).  Only the first ``recorded[r]`` grid
    times are filled: fewer than all of them when the replica was
    truncated.
    """
    names: list
    values: np.ndarray
    t: np.ndarray
    recorded: np.ndarray

    def kept(self, name):
        """The ``name`` column, (kept replicas, grid times), over the
        replicas kept for the statistics: those that recorded every grid
        time."""
        return self.values[self.recorded == self.values.shape[1], :,
                           self.names.index(name)]


@dataclass(eq=False)
class EnsembleSummary:
    """Per-time ensemble statistics over replicas.

    ``stats[name]`` has arrays mean/var/se/n of shape (len(t_grid),)
    under both conditionings: "all" replicas and "surviving" (occupied at
    the record time; survival-at-t is the finite-time proxy for surviving
    forever, recorded as such in the metadata).  ``rows`` holds every
    replica's records, truncated ones included, and ``diagnostics`` what
    the pass cost ("events": engine events over all replicas;
    "peak_occupied": the largest occupied-site count any replica reached,
    truncated ones included); neither is part of ``to_dict``.
    """
    t_grid: tuple
    replicas: int
    truncated: int
    survival_fraction: np.ndarray
    stats: dict
    metadata: dict
    rows: ReplicaRows
    diagnostics: dict

    def stat(self, name, which="all"):
        return self.stats[name][which]

    def to_dict(self):
        def arr(a):
            return np.asarray(a).tolist()
        return {
            "format_version": FORMAT_VERSION,
            "t_grid": list(self.t_grid),
            "replicas": self.replicas,
            "truncated": self.truncated,
            "survival_fraction": arr(self.survival_fraction),
            "stats": {
                name: {cond: {k: arr(v) for k, v in s.items()}
                       for cond, s in conds.items()}
                for name, conds in self.stats.items()
            },
            "metadata": self.metadata,
        }


FORMAT_VERSION = "linsys-summary-1"


_TOTAL_NAMES = ("normalized_total", "normalized_total_sq", "occupied")


@lru_cache
def _record_names(d, battery_names, densities):
    """The columns of a record, in order: those of ``observables`` with
    the sorted tuple ``battery_names``, or with ``densities=False`` the
    ``_TOTAL_NAMES`` of ``_totals`` alone."""
    if not densities:
        return _TOTAL_NAMES
    return (("normalized_total", "normalized_total_sq", "rho_star", "overlap",
             "occupied")
            + tuple(f"m1_{i}" for i in range(d))
            + tuple(f"m2_{i}{j}" for i in range(d) for j in range(d))
            + tuple(f"battery:{b}" for b in battery_names))


def _run_replicas(kernel_dict, initial, t_grid, dual, base_seed, lo, hi,
                  max_occupied, battery_spec, densities):
    """Worker: trajectories for replicas [lo, hi); returns raw rows, engine
    clocks, the count of recorded grid times, the total event count and
    the largest occupied-site count any of its replicas reached."""
    kernel = Kernel.from_dict(kernel_dict)
    tables = _KernelTables(kernel)
    test_functions = battery_spec(kernel) if battery_spec else {}
    width = len(_record_names(kernel.d, tuple(sorted(test_functions)), densities))
    records, clocks, recorded = [], [], []
    events = peak = 0
    for r in range(lo, hi):
        state = init_state(tables, initial, dual=dual,
                           seed=replica_seed(base_seed, r))
        state.max_occupied = max_occupied
        prev = 0.0
        start = len(records)
        for t in t_grid:
            state.advance(t - prev)
            prev = t
            if state.truncated:
                break
            rec = (observables(state, test_functions) if densities
                   else _totals(state)[1])
            records.append(list(rec.values()))
            clocks.append(state.t)
        recorded.append(len(records) - start)
        events += state._events
        peak = max(peak, state.peak_occupied)
    # the records fill each replica's first recorded[r] grid times, in order
    recorded = np.array(recorded, dtype=np.int64)
    filled = np.arange(len(t_grid)) < recorded[:, None]
    out = np.zeros((hi - lo, len(t_grid), width))
    clock = np.zeros((hi - lo, len(t_grid)))
    out[filled] = np.reshape(records, (-1, width))
    clock[filled] = clocks
    return out, clock, recorded, events, peak


def run_ensemble(kernel: Kernel, initial, t_grid, replicas, base_seed,
                 dual=False, threads=1, max_occupied=5_000_000,
                 battery=None, densities=True) -> EnsembleSummary:
    """Independent trajectories with per-replica streams (base_seed, r).

    ``battery`` is an optional factory kernel -> {name: f(xhat array)}
    evaluated on the normalized coordinates at every record; its per-
    replica statistics land in ``stats["battery:<name>"]``.  With
    ``densities=False`` a record holds only the ``_TOTAL_NAMES`` columns,
    bit for bit those of the full record, and ``observables`` is never
    called; a battery then has nothing to read.  Results are
    byte-identical for any thread count: replica r always uses the stream
    derived from (base_seed, r) and the reduction runs in replica order.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise EngineError("t_grid must be a nonempty increasing list")
    if replicas < 1:
        raise EngineError("replicas must be >= 1")
    if battery and not densities:
        raise EngineError("a battery needs the density records (densities=True)")
    kern_dict = kernel.to_dict()
    battery_names = sorted(battery(kernel)) if battery else []
    names = list(_record_names(kernel.d, tuple(battery_names), densities))

    chunk = max(64, (replicas + 4 * max(threads, 1) - 1) // (4 * max(threads, 1)))
    jobs = [(lo, min(lo + chunk, replicas)) for lo in range(0, replicas, chunk)]
    args = [(kern_dict, list(initial), t_grid, dual, base_seed, lo, hi,
             max_occupied, battery, densities) for lo, hi in jobs]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(_run_replicas, *zip(*args)))
    else:
        parts = list(starmap(_run_replicas, args))

    *columns, events, peaks = zip(*parts)
    rows = ReplicaRows(names, *map(np.concatenate, columns))
    surv = rows.kept("occupied") > 0
    n_kept = len(surv)

    stats = {}
    for name in names:
        col = rows.kept(name)
        stats[name] = {
            "all": _column_stats(col, np.ones_like(surv)),
            "surviving": _column_stats(col, surv),
        }
    return EnsembleSummary(
        t_grid=tuple(t_grid),
        replicas=n_kept,
        truncated=replicas - n_kept,
        survival_fraction=surv.mean(axis=0) if n_kept else np.zeros(len(t_grid)),
        stats=stats,
        metadata={
            "kernel": kern_dict,
            "initial": [[list(x), float(m)] for x, m in initial],
            "base_seed": int(base_seed),
            "dual": bool(dual),
            "conditioning": "survival at record time (finite-t proxy)",
            "battery": battery_names,
        },
        rows=rows,
        diagnostics={"events": sum(events), "peak_occupied": max(peaks)},
    )


def _column_stats(col, mask):
    T = col.shape[1]
    mean = np.zeros(T)
    var = np.zeros(T)
    se = np.zeros(T)
    n = np.zeros(T, dtype=np.int64)
    for j in range(T):
        sel = col[mask[:, j], j]
        n[j] = sel.size
        if sel.size:
            mean[j] = sel.mean()
            var[j] = sel.var(ddof=1) if sel.size > 1 else 0.0
            se[j] = math.sqrt(var[j] / sel.size) if sel.size > 1 else 0.0
    return {"mean": mean, "var": var, "se": se, "n": n}

