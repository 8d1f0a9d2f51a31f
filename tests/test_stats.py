import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from linsys.engine import run_ensemble
from linsys.kernel import Kernel, kernel_moments, make_bcpp_kernel
from linsys import feynman_kac as fk
from linsys import stats
from linsys import walk as walk_mod
from linsys.walk import h_of_x
from conftest import _cached

BCPP3 = make_bcpp_kernel(3, 1.0)
ORIGIN3 = (0, 0, 0)


def test_gaussian_references_match_closed_forms():
    # the library's closed forms vs 1-d quadrature against the Gaussian
    # density, 1e-8 (two independent routes)
    mom = kernel_moments(BCPP3)
    var = mom.gaussian_cov[0, 0]
    sigma = math.sqrt(var)

    def pdf(z):
        return math.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    refs = stats.battery_references(BCPP3)
    for name, kind, params in stats.battery_table(BCPP3):
        if kind == "halfspace":
            quad, _ = scipy.integrate.quad(pdf, params["thr"], 40 * sigma)
        elif kind == "cos":
            quad, _ = scipy.integrate.quad(
                lambda z: math.cos(params["freq"] * z) * pdf(z),
                -40 * sigma, 40 * sigma, limit=200)
        else:  # clipped quadratic
            quad, _ = scipy.integrate.quad(
                lambda z: min(z * z, params["clip"]) * pdf(z),
                -40 * sigma, 40 * sigma, limit=200)
        assert abs(refs[name] - quad) < 1e-8, name


def test_battery_functions_shapes():
    fns = stats.default_battery(BCPP3)
    xh = np.array([[0.1, -0.2, 0.3], [1.5, 0.0, 0.0]])
    for name, f in fns.items():
        out = f(xh, 3.0)
        assert out.shape == (2,)


def test_halfspace_ramp_converges_to_indicator():
    f = stats.default_battery(BCPP3)["halfspace0"]
    xh = np.array([[0.4, 0.0, 0.0], [-0.4, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = f(xh, 100.0)  # large t: one lattice cell is narrow
    assert out[0] == 1.0 and out[1] == 0.0 and out[2] == 0.5


@pytest.fixture(scope="module")
def small_ensemble():
    return run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 4.0, 8.0], 4000,
                        base_seed=2718, threads=2, battery=stats.default_battery)


def test_martingale_check_passes(small_ensemble):
    res = stats.martingale_check(small_ensemble)
    assert res.passed and res.reference == 1.0


def test_martingale_unnormalized_negative_control(small_ensemble):
    res = stats.martingale_check(small_ensemble, normalized=False)
    assert not res.passed  # raw mass grows like exp(kappa_1 t) ~ 2x at t=1


def test_martingale_identity_kernel_exact():
    ident = Kernel(1, [(1.0, {(0,): 1.0})])
    s = run_ensemble(ident, [((0,), 2.0)], [1.0, 2.0], 50, base_seed=0)
    res = stats.martingale_check(s)
    assert res.passed and res.standard_error == 0.0 and res.observed == 2.0


def test_clt_check_smoke(small_ensemble):
    # at t = 8 only the symmetric half-space is unbiased; the others carry
    # finite-t bias, so only plumbing and the symmetric reference are
    # asserted here (the full check is acceptance criterion 10)
    results = stats.clt_check(small_ensemble, BCPP3)
    byname = {r.name: r for r in results}
    sym = byname["clt:halfspace0"]
    assert abs(sym.observed - 0.5) <= max(0.05 * 0.5, 3 * sym.standard_error)
    assert "clt:variance_shrink" in byname
    assert all(r.notes.get("survivors", 1) > 100 for r in results
               if r.name != "clt:variance_shrink")


def test_clt_centering_with_drift():
    # asymmetric branching: drift m != 0 must be compensated by centering.
    # The survivor-conditioned profile lags the drift by an O(1) spatial
    # transient (~0.4 sites at t = 30, measured), so the half-space sits
    # within 0.08 of 1/2 rather than the asymptotic 5%; the quadratic
    # statistic already passes its 10% tolerance here.
    lam = 1.0
    denom = 2 * 3 * lam + 1
    atoms = [(1.0 / denom, {})]
    # unit offsets with asymmetric weights along e1
    probs = {(1, 0, 0): 1.6, (-1, 0, 0): 0.4, (0, 1, 0): 1.0,
             (0, -1, 0): 1.0, (0, 0, 1): 1.0, (0, 0, -1): 1.0}
    for off, wgt in probs.items():
        atoms.append((wgt * lam / denom, {ORIGIN3: 1.0, off: 1.0}))
    k = Kernel(3, atoms)
    mom = kernel_moments(k)
    assert mom.drift[0] > 0.05
    key = ("clt_drift", k.to_dict(), stats.battery_table(k), 30.0, 3000, 37)
    s = _cached(key, lambda: run_ensemble(k, [(ORIGIN3, 1.0)], [30.0], 3000,
                                          base_seed=37, threads=2,
                                          battery=stats.default_battery))
    half = s.stat("battery:halfspace0", "surviving")
    assert abs(half["mean"][-1] - 0.5) <= 0.08
    # without centering the whole profile lies right of 0 (m t ~ 5 sites
    # ~ 1.8 sigma sqrt(t)): the centered first moment must be far smaller
    m1 = s.stat("m1_0", "surviving")["mean"][-1]
    assert abs(m1) < 0.12 < 0.5 * mom.drift[0] * math.sqrt(30.0)
    quad = s.stat("battery:quadclip0", "surviving")
    ref = stats.battery_references(k)["quadclip0"]
    assert abs(quad["mean"][-1] - ref) <= max(0.10 * ref, 3 * quad["se"][-1])


def test_overlap_decay_identity_kernel_skipped():
    res = stats.overlap_decay_check(Kernel(3, [(1.0, {ORIGIN3: 1.0})]),
                                    [1.0, 2.0], 100, seed=0)
    assert res.skipped


def test_overlap_decay_heat_kernel_control():
    # kappa_2 weight forced to 0: pure return probability, slope -> -3/2
    res = stats.overlap_decay_check(BCPP3, [5.0, 10.0, 20.0, 40.0],
                                    200_000, seed=5, kappa2_override=0.0)
    assert res.passed
    assert -1.75 < res.observed < -1.25


def test_overlap_decay_zero_estimate_names_times():
    # at 2,000 samples no path ends at the origin at t = 40: the check
    # fails and says where, without numpy's divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = stats.overlap_decay_check(BCPP3, [5.0, 10.0, 20.0, 40.0],
                                        2_000, seed=1)
    assert res.notes["values"][-1] == 0.0 < min(res.notes["values"][:-1])
    assert not res.passed and math.isnan(res.observed)
    assert (res.reference, res.tolerance) == (-1.6, 0.4)
    assert res.notes["zero_estimate_at"] == [40.0]


def test_overlap_decay_bcpp():
    res = stats.overlap_decay_check(BCPP3, [5.0, 10.0, 20.0, 40.0],
                                    200_000, seed=6)
    assert res.notes["bound_ok"]
    assert -2.0 <= res.observed <= -1.2


def test_covariance_check_tilted_moderate_t():
    # plumbing test at t = 300 with a tolerance wide enough for the
    # known finite-horizon deficit (u = 7.42292 at t = 300, 14.3% below
    # h(0), by the renewal equation)
    res = stats.covariance_limit_check(BCPP3, ORIGIN3, ORIGIN3, 300.0,
                                       20_000, seed=7, rel_tol=0.25)
    assert res.passed
    assert abs(res.reference - 8.663) < 2e-2


def test_covariance_check_runs_one_quadrature(monkeypatch):
    # the reference h(a-b) comes from the quadrature that builds the
    # estimator's h-field, bit for bit the value of its own pass; every
    # check builds its own field
    calls = []
    green = walk_mod.green
    monkeypatch.setattr(walk_mod, "green",
                        lambda *a, **kw: calls.append(a) or green(*a, **kw))
    for w in [(5, 0, 0), (2, 1, 0)]:
        calls.clear()
        res = stats.covariance_limit_check(BCPP3, w, ORIGIN3, 20.0, 200,
                                           seed=7)
        assert len(calls) == 1
        assert res.reference == h_of_x(BCPP3, [w])[w]


def test_covariance_check_paths_agree(small_ensemble):
    res = stats.exact_second_moment_check(BCPP3, small_ensemble)
    assert res.passed
    # the exact E|etabar_t|^2 at the first grid time
    assert abs(res.reference - 1.75514) < 1e-5


def test_covariance_cross_check_uses_initial_data(monkeypatch):
    # two unit particles: E|etabar_t|^2 sums the exact moments over the
    # pair offsets 0 (weight 2) and +-e1, about 3.2 times the one-particle
    # value, and no tilted walk serves the check
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0), ((1, 0, 0), 1.0)], [1.0], 2000,
                     base_seed=1616)
    walks = []
    estimate = fk.fk3_limit_estimate
    monkeypatch.setattr(fk, "fk3_limit_estimate",
                        lambda *a, **kw: walks.append(a) or estimate(*a, **kw))
    res = stats.exact_second_moment_check(BCPP3, s)
    assert res.passed, res
    assert len(walks) == 0
    one = fk.exp_local_time_moment(BCPP3, 1.0)
    side = fk.exp_local_time_moment(BCPP3, 1.0, start=(1, 0, 0))
    assert math.isclose(res.reference, 2 * one + 2 * side, rel_tol=1e-12)


def test_covariance_cross_check_records_tail_health(small_ensemble):
    # for the record only: the Hill index of |etabar_t|^2 and the top 1%'s
    # share of its sum, at the tested grid time
    res = stats.exact_second_moment_check(BCPP3, small_ensemble)
    rows = small_ensemble.rows
    sq = rows.values[:, 0, rows.names.index("normalized_total_sq")]
    assert len(sq) == 4000 and small_ensemble.truncated == 0
    assert res.notes["hill_index"] == fk.hill_index(sq[sq > 0.0])
    assert res.notes["top_1pct_share"] == pytest.approx(
        np.sort(sq)[-40:].sum() / sq.sum(), rel=1e-12)
    assert 0.01 < res.notes["top_1pct_share"] < 1.0
    assert res.notes["hill_index"] > 0.0
    assert res.passed == (abs(res.observed - res.reference)
                          <= 3 * res.standard_error)
    assert math.isnan(stats._top_share(np.zeros(5), 0.01))


def test_second_moment_check(small_ensemble):
    res = stats.second_moment_boundedness_check(BCPP3, small_ensemble)
    assert res.passed
    assert res.notes["monotone_ok"] and res.notes["upper_ok"]
    assert abs(res.notes["h0"] - 8.663) < 2e-2


def test_second_moment_check_runs_one_quadrature(monkeypatch, small_ensemble):
    # the criterion and h at every pair offset come from one Green table,
    # bit for bit the values of their own quadratures
    calls = []
    green = walk_mod.green
    monkeypatch.setattr(walk_mod, "green",
                        lambda *a, **kw: calls.append(a) or green(*a, **kw))
    res = stats.second_moment_boundedness_check(BCPP3, small_ensemble)
    assert len(calls) == 1
    assert res.notes["h0"] == h_of_x(BCPP3, [ORIGIN3])[ORIGIN3]
    # below the critical rate; the check reads only the ensemble's means
    sub = make_bcpp_kernel(3, 0.4)
    calls.clear()
    res = stats.second_moment_boundedness_check(sub, small_ensemble)
    assert len(calls) == 1 and res.notes["trend"] == "unbounded"
    assert res.notes["criterion_value"] == walk_mod.survival_criterion(sub)[0]


def test_second_moment_with_limit_estimate(small_ensemble):
    limit = fk.fk3_limit_estimate(BCPP3, ORIGIN3, 2500.0, 4000, seed=9)
    res = stats.second_moment_boundedness_check(BCPP3, small_ensemble,
                                                limit_estimate=limit)
    assert res.passed and res.notes["limit_converged"] and res.notes["lower_ok"]


def test_second_moment_subcritical_unbounded():
    k = make_bcpp_kernel(3, 0.4)
    s = run_ensemble(k, [(ORIGIN3, 1.0)], [2.0, 8.0, 16.0], 1500, base_seed=10,
                     threads=2)
    res = stats.second_moment_boundedness_check(k, s)
    assert not res.passed
    assert res.notes["trend"] == "unbounded"
    assert res.notes["growth_factor"] > 1.5


@pytest.fixture(scope="module")
def truncated_ensemble():
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [2.0, 6.0], 40, base_seed=5,
                     max_occupied=8)
    assert s.truncated > 0
    return s


def test_second_moment_check_fails_on_truncated_ensemble(truncated_ensemble):
    res = stats.second_moment_boundedness_check(BCPP3, truncated_ensemble)
    assert not res.passed
    assert res.notes["truncated"] == truncated_ensemble.truncated


def test_covariance_cross_check_flags_truncated_ensemble(truncated_ensemble):
    res = stats.exact_second_moment_check(BCPP3, truncated_ensemble)
    assert res.notes["truncated"] == truncated_ensemble.truncated
    assert not res.passed
