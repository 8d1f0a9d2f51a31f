import hashlib
import json
import math

import numpy as np
import pytest

from scipy.stats import ks_2samp

from linsys.engine import (CorruptStateError, EngineError, init_state,
                           observables, run_ensemble, replica_seed,
                           pack_site, unpack_site)
from linsys.kernel import Kernel, kernel_moments, make_bcpp_kernel
from linsys import engine, feynman_kac as fk, stats

BCPP3 = make_bcpp_kernel(3, 1.0)
ORIGIN3 = (0, 0, 0)


def test_pack_round_trip(rng):
    for _ in range(200):
        x = tuple(int(c) for c in rng.integers(-500, 500, size=3))
        assert unpack_site(pack_site(x), 3) == x


@pytest.mark.parametrize("d", [1, 2, 3])
def test_site_array_matches_unpack_site(d):
    kernel = make_bcpp_kernel(d, 1.0)
    initial = [((-3,) * d, 1.0), ((0,) * d, 2.0), (tuple(range(-1, d - 1)), 0.5)]
    st = init_state(kernel, initial, seed=4)
    st.advance(2.0)
    coords, vals = st.site_array()
    assert coords.dtype == np.int64 and coords.shape == (len(st.masses), d)
    assert [tuple(c) for c in coords.tolist()] == \
        [unpack_site(k, d) for k in st.masses]
    assert vals.tolist() == list(st.masses.values())
    assert coords.min() < 0


def test_init_single_particle():
    st = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=0)
    rec = observables(st)
    assert rec["normalized_total"] == 1.0
    assert rec["rho_star"] == 1.0 and rec["overlap"] == 1.0
    assert rec["occupied"] == 1  # not extinct


def test_init_two_sites():
    st = init_state(BCPP3, [(ORIGIN3, 1.0), ((1, 0, 0), 2.0)], seed=0)
    assert abs(math.fsum(st.masses.values()) - 3.0) < 1e-12
    assert observables(st)["occupied"] == 2


def test_init_empty_rejected():
    with pytest.raises(EngineError):
        init_state(BCPP3, [], seed=0)
    with pytest.raises(EngineError):
        init_state(BCPP3, [(ORIGIN3, 0.0)], seed=0)


@pytest.mark.parametrize("mass", [math.nan, math.inf])
def test_init_non_finite_mass_rejected(mass):
    with pytest.raises(EngineError, match="finite"):
        init_state(BCPP3, [(ORIGIN3, mass)], seed=0)


@pytest.mark.parametrize("site", [(0, 0), (0, 0, 0, 0)])
def test_init_wrong_dimension_rejected(site):
    with pytest.raises(EngineError, match="dimension"):
        init_state(BCPP3, [(site, 1.0)], seed=0)
    with pytest.raises(EngineError, match="dimension"):
        init_state(BCPP3, [(ORIGIN3, 1.0), (site, 1.0)], dual=True, seed=0)


@pytest.mark.parametrize("site", [(0.5, 0, 0), (0, 0, -1.25)])
def test_init_fractional_site_rejected(site):
    with pytest.raises(EngineError, match="non-integer"):
        init_state(BCPP3, [(site, 1.0)], seed=0)
    with pytest.raises(EngineError, match="non-integer"):
        init_state(BCPP3, [(ORIGIN3, 1.0), (site, 1.0)], dual=True, seed=0)


def test_replay_determinism():
    # identical inputs and the same advance sequence replay bit-identically
    a = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=123)
    b = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=123)
    for st in (a, b):
        st.advance(2.5)
        st.advance(1.5)
    assert a.t == b.t
    assert a.masses == b.masses
    assert a.extinct == b.extinct


def test_mass_accounting_per_event():
    # after an event at z with vector xi, new total = old + (|xi| - 1) eta_z
    st = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=7)
    st._trace = []
    before = math.fsum(st.masses.values())
    st.advance(6.0)
    total = before
    sums = [sum(v.values()) for _, v in BCPP3.atoms]
    for _, ai, mz in st._trace:
        total += (sums[ai] - 1.0) * mz
    assert abs(total - math.fsum(st.masses.values())) <= 1e-12 * max(1.0, total)
    assert len(st._trace) > 10


def test_branch_event_adds_neighbor_mass():
    # with a branch-only kernel every event duplicates the site's mass
    branch = Kernel(1, [(1.0, {(0,): 1.0, (1,): 1.0})])
    st = init_state(branch, [((0,), 1.0)], seed=3)
    st.advance(0.8)
    coords, vals = st.site_array()
    assert math.fsum(st.masses.values()) == 2 ** st._events
    assert vals.min() >= 1.0


def test_death_atom_extinction_is_absorbing():
    death = Kernel(1, [(1.0, {})])
    st = init_state(death, [((0,), 5.0)], seed=1)
    st.advance(50.0)
    assert st.extinct and not st.masses
    rec = observables(st)
    assert rec["occupied"] == 0 and rec["rho_star"] == 0.0 and rec["overlap"] == 0.0
    st.advance(10.0)
    assert st.extinct and st.t == 60.0


def test_first_event_time_exponential():
    # single occupied site: one rate-1 clock; the first waiting time is the
    # first uniform of the state's own stream, read as the first block's
    # wait, through -log(1-u)
    waits = []
    for seed in range(10_000):
        st = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=seed)
        waits.append(-math.log(1.0 - float(st._read_block(1)[0, 0])))
    waits = np.sort(waits)
    # Kolmogorov-Smirnov against Exp(1) at the 1% level
    n = len(waits)
    cdf = 1.0 - np.exp(-waits)
    dist = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
    assert dist < 1.63 / math.sqrt(n)


def test_observables_two_equal_sites():
    st = init_state(BCPP3, [(ORIGIN3, 1.0), ((1, 0, 0), 1.0)], seed=0)
    rec = observables(st)
    assert abs(rec["overlap"] - 0.5) < 1e-12
    assert abs(rec["rho_star"] - 0.5) < 1e-12


def test_observables_uniform_mass():
    sites = [((i, 0, 0), 2.5) for i in range(10)]
    st = init_state(BCPP3, sites, seed=0)
    rec = observables(st)
    assert abs(rec["overlap"] - 0.1) < 1e-12
    assert abs(rec["rho_star"] - 0.1) < 1e-12


@pytest.mark.parametrize("battery", [False, True], ids=["plain", "battery"])
def test_observables_keys_are_the_record_names(battery):
    test_functions = stats.default_battery(BCPP3) if battery else None
    names = engine._record_names(3, tuple(sorted(test_functions or {})), True)
    live = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=2).advance(2.0)
    extinct = init_state(Kernel(3, [(1.0, {})]), [(ORIGIN3, 1.0)],
                         seed=2).advance(50.0)
    assert live.masses and extinct.extinct
    for st in (live, extinct):
        assert tuple(observables(st, test_functions)) == names
        assert tuple(engine._totals(st)[1]) == engine._record_names(3, (), False)
    assert set(observables(extinct, test_functions).values()) == {0.0}


def test_overlap_sandwich_on_trajectories():
    for seed in range(30):
        st = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=seed)
        st.advance(5.0)
        rec = observables(st)
        if rec["occupied"] > 0:  # not extinct
            assert rec["rho_star"]**2 <= rec["overlap"] + 1e-12
            assert rec["overlap"] <= rec["rho_star"] + 1e-12
            assert rec["rho_star"] <= 1.0 + 1e-12


def test_martingale_small_ensemble():
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 3.0], 3000, base_seed=11)
    st = s.stat("normalized_total", "all")
    for m, se in zip(st["mean"], st["se"]):
        assert abs(m - 1.0) <= 3.5 * se


def test_dual_martingale_small_ensemble():
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 3.0], 3000, base_seed=12,
                     dual=True)
    st = s.stat("normalized_total", "all")
    for m, se in zip(st["mean"], st["se"]):
        assert abs(m - 1.0) <= 3.5 * se


@pytest.mark.parametrize("dual,seed", [(False, 2201), (True, 2202)],
                         ids=["forward", "dual"])
def test_second_moments_match_exact(dual, seed):
    # from one particle at 0: E|etabar_t|^2, and D(t) = sum_x
    # E[etabar_{t,x}^2] = E[overlap |etabar_t|^2], against the exact
    # Schrodinger-semigroup values
    grid = [0.5, 1.0, 2.0]
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], grid, 15_000, base_seed=seed,
                     dual=dual)
    assert s.truncated == 0
    col = {name: s.rows.values[:, :, i] for i, name in enumerate(s.rows.names)}
    sq = col["normalized_total_sq"]
    per_site = col["overlap"] * col["normalized_total"] ** 2
    for j, t in enumerate(grid):
        for name, x, exact in [
                ("E|etabar_t|^2", sq[:, j], fk.exp_local_time_moment(BCPP3, t)),
                ("D(t)", per_site[:, j],
                 fk.exp_local_time_moment(BCPP3, t, f=fk.f_delta0))]:
            mean, se = x.mean(), x.std(ddof=1) / math.sqrt(len(x))
            assert abs(mean - exact) <= 3 * se, (
                f"{name} at t={t}: {mean:.4f}+-{se:.4f} vs exact {exact:.4f}; "
                f"Hill index of |etabar_t|^2 {fk.hill_index(sq[:, j]):.2f}")


# d=1 kernel with a death atom, an atom that does not read its own site and
# atoms that read several offsets
MULTI1 = Kernel(1, [(0.25, {}), (0.25, {(0,): 0.5, (1,): 1.0, (-2,): 0.7}),
                    (0.25, {(2,): 1.5}), (0.25, {(0,): 1.0, (1,): 0.4, (-1,): 0.4})])


def test_dual_active_list_is_occupied_set():
    # dual proposals come from the occupied sites: the active list holds
    # each of them once, and _active_pos indexes it
    for kernel, initial in [(make_bcpp_kernel(1, 1.0), [((0,), 1.0)]),
                            (MULTI1, [((0,), 1.0), ((3,), 2.0)]),
                            (BCPP3, [(ORIGIN3, 1.0)])]:
        for seed in range(5):
            st = init_state(kernel, initial, dual=True, seed=seed)
            for duration in (0.5, 1.0, 2.0):
                st.advance(duration)
                assert sorted(st._active) == sorted(st.masses)
                assert st._active_pos == {k: i for i, k in enumerate(st._active)}


def _replay_dual(kernel, d, st):
    """Replays st's trace with the dual rule eta_z <- sum_u xi_u eta_{z+u}
    on a dict, checking each recorded old value; returns the final
    configuration and the (atom, old, new) of every event."""
    eta = {(0,) * d: 1.0}
    steps = []
    for key, ai, old in st._trace:
        z = unpack_site(key, d)
        assert eta.get(z, 0.0) == old
        new = 0.0
        for u, val in sorted(kernel.atoms[ai][1].items()):
            new += val * eta.get(tuple(a + b for a, b in zip(z, u)), 0.0)
        if new > 0.0:
            eta[z] = new
        else:
            eta.pop(z, None)
        steps.append((ai, old, new))
    return eta, steps


def test_dual_pull_update():
    # replaying the recorded events with the dual rule on a dict gives the
    # engine's final masses exactly
    branch = Kernel(1, [(1.0, {(0,): 1.0, (1,): 1.0})])
    for kernel, seed, duration in [(branch, 5, 4.0), (MULTI1, 6, 3.0)]:
        st = init_state(kernel, [((0,), 1.0)], dual=True, seed=seed)
        st._trace = []
        st.advance(duration)
        assert len(st._trace) > 5
        eta, _ = _replay_dual(kernel, 1, st)
        assert {unpack_site(k, 1): m for k, m in st.masses.items()} == eta


def test_dual_first_event_rate_and_outcomes():
    # from one BCPP3 site the events that can change anything are death at
    # the site and, at each neighbour -e, the branch to offset e, which reads
    # the site (rate 1/7 each); the branches at the site itself have
    # xi_0 = 1 and read only their empty neighbour, so they are never
    # proposed: total rate Q = 1.  A cap of -1 truncates at the first event,
    # so the clock stops there.
    n = 10_000
    waits, counts = [], {}
    origin = pack_site(ORIGIN3)
    for seed in range(n):
        st = init_state(BCPP3, [(ORIGIN3, 1.0)], dual=True, seed=seed)
        st.max_occupied = -1
        st._trace = []
        st.advance(1e9)
        assert st.truncated and st._events == 1
        waits.append(st.t)
        z, ai, _ = st._trace[0]
        if z != origin:
            outcome = unpack_site(z, 3)
            assert st.masses == {origin: 1.0, z: 1.0}
        else:
            outcome = "death"
            assert not BCPP3.atoms[ai][1] and not st.masses
        counts[outcome] = counts.get(outcome, 0) + 1
    waits = np.sort(waits)
    cdf = 1.0 - np.exp(-waits)
    assert np.max(np.abs(cdf - np.arange(1, n + 1) / n)) < 1.63 / math.sqrt(n)
    # chi-square against death 1/7 and each neighbour 1/7, 6 degrees of
    # freedom at the 1% level; no outcome leaves the configuration unchanged
    assert len(counts) == 7 and "death" in counts
    chi2 = sum((c - n / 7) ** 2 / (n / 7) for c in counts.values())
    assert chi2 < 16.81


def test_dual_accepted_events_all_change_the_configuration():
    # an atom with xi_0 = 1 never fires with new == old, since its read set
    # leaves out the site's own read.  Every BCPP3 atom writes; MULTI1's
    # atom {2: 1.5} does not read its own site and can repeat its last
    # value, so only its xi_0 = 1 atom is counted there
    for kernel, d, seeds in [(BCPP3, 3, range(5)), (MULTI1, 1, range(10))]:
        unit = {ai for ai, (_, vec) in enumerate(kernel.atoms)
                if vec.get((0,) * d) == 1.0}
        counted = unchanged = 0
        for seed in seeds:
            st = init_state(kernel, [((0,) * d, 1.0)], dual=True, seed=seed)
            st._trace = []
            st.advance(6.0)
            for ai, old, new in _replay_dual(kernel, d, st)[1]:
                if kernel is BCPP3 or ai in unit:
                    counted += 1
                    unchanged += new == old
        assert counted > 50 and unchanged == 0


def test_dual_mean_matches_reflected_one_point_profile():
    # the dual mean solves m' = sum_u E[K_u] m(. + u) - m, which is the
    # forward mean of the kernel reflected through u -> -u
    t, n = 1.0, 20_000
    reflected = Kernel(1, [(p, {(-u,): v for (u,), v in vec.items()})
                           for p, vec in MULTI1.atoms])
    exact = fk.one_point_profile(reflected, [((0,), 1.0)], t, radius=12)
    sites = range(-2, 4)
    tot = np.zeros(len(sites))
    sq = np.zeros(len(sites))
    for r in range(n):
        st = init_state(MULTI1, [((0,), 1.0)], dual=True,
                        seed=replica_seed(41, r))
        st.advance(t)
        scale = math.exp(st.log_scale)
        m = np.array([st.masses.get(pack_site((x,)), 0.0) * scale for x in sites])
        tot += m
        sq += m * m
    mean = tot / n
    se = np.sqrt((sq / n - mean**2) / (n - 1))
    for i, x in enumerate(sites):
        assert abs(mean[i] - exact[(x,)]) <= 4 * se[i], (x, mean[i], exact[(x,)])


def test_identity_kernel_noop_ensemble():
    ident = Kernel(2, [(1.0, {(0, 0): 1.0})])
    init = [((0, 0), 1.0), ((2, 1), 3.0)]
    s = run_ensemble(ident, init, [0.5, 2.0], 200, base_seed=4)
    st = s.stat("normalized_total", "all")
    assert np.allclose(st["mean"], 4.0) and np.allclose(st["var"], 0.0)
    assert np.allclose(s.stat("occupied", "all")["mean"], 2.0)
    assert np.allclose(s.survival_fraction, 1.0)


def test_dual_identity_kernel_noop_ensemble():
    # no atom can change anything (Q = 0): the dual clock runs out with no
    # event, and the replicas stay alive
    ident = Kernel(2, [(1.0, {(0, 0): 1.0})])
    init = [((0, 0), 1.0), ((2, 1), 3.0)]
    s = run_ensemble(ident, init, [0.5, 2.0], 200, base_seed=4, dual=True)
    st = s.stat("normalized_total", "all")
    assert np.allclose(st["mean"], 4.0) and np.allclose(st["var"], 0.0)
    assert np.allclose(s.stat("occupied", "all")["mean"], 2.0)
    assert np.allclose(s.survival_fraction, 1.0)
    assert s.diagnostics == {"events": 0, "peak_occupied": 2}
    state = init_state(ident, init, dual=True, seed=4)
    state.advance(2.0)
    assert state.t == 2.0 and not state.extinct and state._events == 0


def _assert_threads_do_not_change_results(dual):
    kwargs = dict(t_grid=[0.5, 1.5], replicas=400, base_seed=99, dual=dual)
    s1 = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], **kwargs, threads=1)
    s2 = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], **kwargs, threads=2)
    assert json.dumps(s1.to_dict(), sort_keys=True) == \
           json.dumps(s2.to_dict(), sort_keys=True)
    assert s1.diagnostics == s2.diagnostics
    assert s1.diagnostics["events"] > 0


def test_threads_do_not_change_results():
    _assert_threads_do_not_change_results(dual=False)


def test_dual_threads_do_not_change_results():
    _assert_threads_do_not_change_results(dual=True)


def test_diagnostics_count_every_replica_event():
    # truncated replicas included; the counts stay out of to_dict.  A BCPP
    # event adds at most one site, so a truncated replica peaks at the cap
    # plus one
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 3.0, 6.0], 40, base_seed=5,
                     max_occupied=8)
    assert s.truncated > 0
    events = 0
    for r in range(40):
        st = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=replica_seed(5, r))
        st.max_occupied = 8
        for t in (1.0, 2.0, 3.0):
            st.advance(t)
        events += st._events
    assert s.diagnostics == {"events": events, "peak_occupied": 9}
    assert "diagnostics" not in s.to_dict()


def test_peak_occupied_of_a_growing_process():
    # a branch-only kernel never empties a site, so every replica peaks at
    # its last record
    branch = Kernel(1, [(1.0, {(0,): 1.0, (1,): 1.0})])
    s = run_ensemble(branch, [((0,), 1.0)], [0.5, 2.0], 30, base_seed=6)
    occupied = s.rows.values[:, -1, s.rows.names.index("occupied")]
    assert s.diagnostics["peak_occupied"] == occupied.max() > 1


# sha256 of the to_dict JSON and the ReplicaRows arrays of four runs and of
# three event traces: a change to the streams or to the float order of an
# event shows here.  The forward digests date from before the event loop
# was rewritten for speed; the dual ones from the read sets that leave out
# the site's own read for atoms with xi_0 = 1
def _ensemble_digest(s):
    h = hashlib.sha256(json.dumps(s.to_dict(), sort_keys=True).encode())
    for a in (s.rows.values, s.rows.t, s.rows.recorded):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_GOLDEN_RUNS = {
    "forward_battery": (
        lambda: run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [2.0, 5.0, 10.0], 40,
                             base_seed=31, battery=stats.default_battery),
        "41efa1e9a318e632ef73376802e8b04e92ab2e1b2490efe72360ee28832c685b"),
    "dual": (
        lambda: run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 3.0, 5.0], 200,
                             base_seed=32, dual=True),
        "ee22e4e7d8faf999f0330be31bed18b5d9c190ac1985052f7979eac4b35d3bca"),
    "truncated": (
        lambda: run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 3.0, 6.0], 120,
                             base_seed=33, max_occupied=8),
        "5cb7b78002aafbdbae6f13ff7da43d9096d83779c585bf186c9ffe266c3ddbce"),
    "multiply": (
        lambda: run_ensemble(Kernel(1, [(1.0, {(0,): 100.0})]), [((0,), 1.0)],
                             [50.0, 200.0], 4, base_seed=34),
        "203e541b17f912bee542f3dd5889abb6db2d4e3c3803dfdb00bfb74887e992c0"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
def test_ensemble_streams_match_golden(name):
    run, digest = _GOLDEN_RUNS[name]
    assert _ensemble_digest(run()) == digest


@pytest.mark.parametrize("dual, seed, duration, events, digest", [
    (False, 17, 6.0, 111,
     "eb1b5506a61efdea15a3bf91414f73df5bbdc316ecbca6622b4edc65c06815fc"),
    # seed 27's first dual wait exceeds 3.0, so its trace is empty; the
    # longer run pins the events themselves
    (True, 27, 3.0, 0,
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (True, 27, 6.0, 51,
     "e5e90dee4c254a723f02327314f5c55a966e1814954b826f7cc8ac82b90a2d02"),
], ids=["forward", "dual", "dual_long"])
def test_event_trace_matches_golden(dual, seed, duration, events, digest):
    st = init_state(BCPP3, [(ORIGIN3, 1.0)], dual=dual, seed=seed)
    st._trace = []
    st.advance(duration)
    assert st._events == len(st._trace) == events
    assert hashlib.sha256(repr(st._trace).encode()).hexdigest() == digest


CUBE3 = [((x, y, z), 1.0) for x in (-1, 0, 1) for y in (-1, 0, 1)
         for z in (-1, 0, 1)]


@pytest.mark.parametrize("dual, events, digest", [
    (False, 5284,
     "5e81498e8e23cd1907ce8b0712ef400ff8c7edee05c2384e1b738e8c422a8dc9"),
    (True, 5196,
     "c9292fa8ca0fc67f1f4746536d8957587ecbee9f2f5649beccf70b7961c78d49"),
], ids=["forward", "dual"])
def test_stream_position_at_every_advance(dual, events, digest):
    # the events, masses, clock and event count after each of 60 short
    # advances: the stream position at every advance boundary, across an
    # audit at event 4096
    st = init_state(BCPP3, CUBE3, dual=dual, seed=2)
    st._trace = []
    h = hashlib.sha256()
    for _ in range(60):
        done = len(st._trace)
        st.advance(0.25)
        h.update(repr((st._trace[done:], list(st.masses.items()), st.t.hex(),
                       st.log_scale.hex(), st._events)).encode())
    assert st._events == events
    assert h.hexdigest() == digest


@pytest.mark.parametrize("dual", [False, True], ids=["forward", "dual"])
def test_audit_placement(dual):
    # every event multiplies the one mass by 0.88, so each audit finds it
    # near 1e-227 and rescales: the bits of log_scale pin the events at
    # which the audits ran
    st = init_state(Kernel(1, [(1.0, {(0,): 0.88})]), [((0,), 1.0)],
                    dual=dual, seed=3)
    seen = []
    for _ in range(7):
        st.advance(2000.0)
        seen.append((st._events, st.log_scale.hex()))
    assert seen == [(2049, "0x0.0p+0"), (4034, "0x0.0p+0"),
                    (6004, "-0x1.05cd80afc76bep+9"),
                    (7941, "-0x1.05cd80afc76bep+9"),
                    (9989, "-0x1.05cd80afc76bep+10"),
                    (11969, "-0x1.05cd80afc76bep+10"),
                    (13985, "-0x1.88b44107ab21dp+10")]
    assert [m.hex() for m in st.masses.values()] == [(6.124838459719726e-95).hex()]


def test_seed_changes_results():
    s1 = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0], 100, base_seed=1)
    s2 = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0], 100, base_seed=2)
    assert s1.stat("normalized_total")["mean"] != s2.stat("normalized_total")["mean"]


def _assert_rescaling_preserves_normalization(dual):
    # deterministic hundredfold multiplication at the origin overflows
    # doubles after ~150 events; the shared log-scale absorbs it (the dual
    # rule reads the same single site, so its loop rescales the same way)
    mult = Kernel(1, [(1.0, {(0,): 100.0})])
    st = init_state(mult, [((0,), 1.0)], dual=dual, seed=0)
    st.advance(200.0)
    assert st.log_scale > 0.0
    assert all(1e-200 <= m <= 1e200 for m in st.masses.values())
    # kappa_1 = 99; the true mass is 100^events: log check
    expected_log = st._events * math.log(100.0)
    got_log = math.log(next(iter(st.masses.values()))) + st.log_scale
    assert abs(got_log - expected_log) < 1e-6 * expected_log


def test_rescaling_preserves_normalization():
    _assert_rescaling_preserves_normalization(dual=False)


def test_dual_rescaling_preserves_normalization():
    _assert_rescaling_preserves_normalization(dual=True)


@pytest.mark.parametrize("dual", [False, True], ids=["forward", "dual"])
def test_underflow_is_not_extinction(dual):
    # halving the one mass at every event reaches 0.0 after 1075 events,
    # long before the periodic audit, unless the loop rescales first; the
    # process itself never dies
    st = init_state(Kernel(1, [(1.0, {(0,): 0.5})]), [((0,), 1.0)],
                    dual=dual, seed=3)
    st.advance(2000.0)
    assert not st.extinct and st._events > 1075
    got = math.log(math.fsum(st.masses.values())) + st.log_scale
    expected = st._events * math.log(0.5)
    assert abs(got - expected) <= 1e-9 * abs(expected)


def test_forward_neighbour_write_does_not_underflow():
    # each event moves the one mass a site to the right and halves it; the
    # read of a small mass rescales before the write can round to 0.0
    halve_right = Kernel(1, [(1.0, {(1,): 0.5})])
    st = init_state(halve_right, [((0,), 1.0)], seed=3)
    st.advance(5000.0)
    assert not st.extinct and st._events > 4096
    got = math.log(math.fsum(st.masses.values())) + st.log_scale
    expected = st._events * math.log(0.5)
    assert abs(got - expected) <= 1e-9 * abs(expected)
    # beside a large mass nothing rescales, so the tiny chain's write
    # rounds to 0.0 at last: that must occupy no site
    st = init_state(halve_right, [((0,), 1.0), ((10,), 1e-300)], seed=3)
    st.advance(5000.0)
    assert st.masses and min(st.masses.values()) > 0.0
    assert sorted(st._active) == sorted(st.masses)


@pytest.mark.parametrize("densities", [True, False], ids=["full", "totals"])
def test_range_check_in_both_record_kinds(densities):
    # a kernel whose reach leaves no room between audits is refused
    far = Kernel(1, [(1.0, {(0,): 1.0, (engine._OFF - 64,): 1.0})])
    with pytest.raises(EngineError, match=f"r_K = {engine._OFF - 64}"):
        run_ensemble(far, [((0,), 1.0)], [5.0], 4, base_seed=1,
                     densities=densities)
    # a translation started 5000 sites below the edge is stopped by the
    # audit whichever record kind the ensemble keeps
    step = Kernel(1, [(1.0, {(1,): 1.0})])
    with pytest.raises(CorruptStateError, match="coordinate range limit"):
        run_ensemble(step, [((engine._OFF - 5000,), 1.0)], [6000.0], 1,
                     base_seed=1, densities=densities)
    # the audit raises on a site at the limit once the event count lets
    # one get there (r_K = 1: limit events from the origin)
    limit = engine._OFF - engine._AUDIT_EVERY
    for c in (limit, -limit):
        st = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=0)
        assert st._tables.limit == limit
        st.masses[pack_site((0, c, 0))] = 1.0
        st._events = limit
        with pytest.raises(CorruptStateError, match="coordinate range limit"):
            st._audit()
    with pytest.raises(EngineError, match="coordinate range"):
        init_state(BCPP3, [((0, limit, 0), 1.0)])


@pytest.mark.parametrize("d", [1, 2])
def test_translation_stops_at_the_range_limit(d):
    # each event moves the one mass a site along e1; the site crosses the
    # limit after 904 events and would leave the packed field after 5000,
    # wrapping to the far side and, for d = 2, into the second coordinate
    e1 = (1,) + (0,) * (d - 1)
    start = (engine._OFF - 5000,) + (0,) * (d - 1)
    st = init_state(Kernel(d, [(1.0, {e1: 1.0})]), [(start, 1.0)], seed=1)
    with pytest.raises(CorruptStateError, match="coordinate range limit"):
        st.advance(6000.0)
    assert st._events == engine._AUDIT_EVERY
    assert st.site_array()[0].tolist() == [[start[0] + engine._AUDIT_EVERY]
                                         + [0] * (d - 1)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dual", [False, True], ids=["forward", "dual"])
def test_totals_records_match_full_records(dual, threads):
    # bit for bit the full record's columns, statistics and diagnostics,
    # extinct and truncated replicas included
    kwargs = dict(t_grid=[1.0, 3.0, 6.0], replicas=150, base_seed=41,
                  dual=dual, threads=threads, max_occupied=40)
    full = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], **kwargs)
    tot = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], **kwargs, densities=False)
    assert tot.rows.names == ["normalized_total", "normalized_total_sq",
                              "occupied"]
    cols = [full.rows.names.index(n) for n in tot.rows.names]
    assert full.truncated > 0 and (tot.rows.values[:, :, 2] == 0).any()
    assert full.rows.values[:, :, cols].tobytes() == tot.rows.values.tobytes()
    assert full.rows.t.tobytes() == tot.rows.t.tobytes()
    assert (full.rows.recorded == tot.rows.recorded).all()
    assert full.diagnostics == tot.diagnostics
    assert full.survival_fraction.tobytes() == tot.survival_fraction.tobytes()
    for name in tot.rows.names:
        for cond in ("all", "surviving"):
            for key, v in tot.stats[name][cond].items():
                assert v.tobytes() == full.stats[name][cond][key].tobytes()


def test_battery_needs_density_records():
    with pytest.raises(EngineError, match="densities"):
        run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0], 10, base_seed=0,
                     battery=stats.default_battery, densities=False)


# MULTI1's atom shapes in d = 2, with offsets off the axes
MULTI2 = Kernel(2, [(0.25, {}), (0.25, {(0, 0): 0.5, (1, 0): 1.0, (0, -1): 0.7}),
                    (0.25, {(0, 1): 1.5}),
                    (0.25, {(0, 0): 1.0, (1, 0): 0.4, (-1, 1): 0.4})])


def _site_samples(kernel, initial, dual, sites, t, replicas, base_seed):
    # unnormalized masses at the given sites: one row per replica
    keys = [pack_site(s) for s in sites]
    tables = engine._KernelTables(kernel)
    out = np.empty((replicas, len(sites)))
    for r in range(replicas):
        st = init_state(tables, initial, dual=dual,
                        seed=replica_seed(base_seed, r))
        st.advance(t)
        out[r] = [st.masses.get(k, 0.0) * math.exp(st.log_scale) for k in keys]
    return out


@pytest.mark.parametrize("kernel, radius", [(MULTI1, 14), (MULTI2, 8)],
                         ids=["d1", "d2"])
def test_dual_matches_forward_in_law(kernel, radius):
    # each event's dual map is the transpose of its forward map, and
    # Poisson clocks are reversible in time, so <eta_t, g> from
    # eta_0 = delta_0 has the law of zeta_t(0) from zeta_0 = g.  Second
    # moments against the forward oracle's u(x, y) = E[eta_t(x) eta_t(y)]
    # on the box of the given radius, and the whole law by a two-sample
    # KS test against the forward engine; x is the origin and y = e1
    t, n = 1.0, 20_000
    x = (0,) * kernel.d
    y = (1,) + x[1:]
    sol = fk.oracle_two_point(kernel, [(x, 1.0)], t, radius)
    u = sol.u[-1]
    ix, iy = sol.site_index[x], sol.site_index[y]
    fwd_x, fwd_y = _site_samples(kernel, [(x, 1.0)], False, [x, y], t, n,
                                 4101).T
    dual_y = _site_samples(kernel, [(y, 1.0)], True, [x], t, n, 4102)[:, 0]
    dual_xy = _site_samples(kernel, [(x, 1.0), (y, 1.0)], True, [x], t, n,
                            4103)[:, 0]
    for sample, exact in [(dual_y, u[iy, iy]),
                          (dual_xy, u[ix, ix] + u[iy, iy] + 2 * u[ix, iy])]:
        sq = sample**2
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - exact) <= 3 * se, (sq.mean(), se, exact)
    assert ks_2samp(fwd_y, dual_y).pvalue > 0.01
    assert ks_2samp(fwd_x + fwd_y, dual_xy).pvalue > 0.01


def test_resource_cap_truncates():
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [6.0], 40, base_seed=5,
                     max_occupied=8)
    assert s.truncated > 0
    assert s.replicas + s.truncated == 40


def test_nan_detection():
    st = init_state(BCPP3, [(ORIGIN3, 1.0)], seed=0)
    st.masses[pack_site(ORIGIN3)] = float("nan")
    with pytest.raises(CorruptStateError):
        st._audit()


def test_summary_metadata_and_shape():
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 2.0], 50, base_seed=0)
    assert s.metadata["conditioning"].startswith("survival at record time")
    d = s.to_dict()
    assert d["format_version"]
    assert len(d["survival_fraction"]) == 2
    assert "m2_00" in d["stats"]
