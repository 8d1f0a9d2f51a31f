"""Acceptance suite: every criterion at its stated tolerance.

One pass/fail line per criterion is printed; run with ``pytest -v -s
tests/test_acceptance.py``.  The heavy fixtures (the 2e4-replica
ensemble, the limit estimates) are shared across criteria and sized for
a small workstation.
"""

import json
import math

import numpy as np
import pytest

from linsys.engine import init_state, run_ensemble, unpack_site, replica_seed
from linsys.kernel import kernel_moments, make_bcpp_kernel, validate_kernel
from linsys.walk import (bcpp_critical_lambda, green, h_of_x,
                         return_probability, survival_criterion,
                         walk_from_kernel)
from linsys import feynman_kac as fk
from linsys import stats
from conftest import _cached

BCPP3 = make_bcpp_kernel(3, 1.0)
BCPP1 = make_bcpp_kernel(1, 1.0)
ORIGIN3 = (0, 0, 0)
PI3 = 0.3405

def _report(num, name, passed, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


# -- shared heavy fixtures ---------------------------------------------------


def _big_ensemble_key():
    return ("big_ensemble", BCPP3.to_dict(), stats.battery_table(BCPP3), 1001)


@pytest.fixture(scope="module")
def big_ensemble():
    # 2e4 replicas recorded at t in {5, 10, 20, 30} with the CLT battery
    return _cached(_big_ensemble_key(), lambda: run_ensemble(
        BCPP3, [(ORIGIN3, 1.0)], [5.0, 10.0, 20.0, 30.0], 20_000,
        base_seed=1001, threads=2, battery=stats.default_battery))


@pytest.fixture(scope="module")
def limit_estimate_origin():
    # t -> infinity regime of E[exp(kappa_2/2 local time)] via the tilted walk
    key = ("limit_origin", BCPP3.to_dict(), 2500.0, 20_000, 2002)
    return _cached(key, lambda: fk.fk3_limit_estimate(
        BCPP3, ORIGIN3, 2500.0, 20_000, seed=2002))


def _build_d1_triangle():
    t, R, reps = 0.5, 6, 100_000
    sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [t], R)
    M = len(sol.sites)
    idx = sol.site_index
    acc = np.zeros((M, M))
    acc2 = np.zeros((M, M))
    for r in range(reps):
        st = init_state(BCPP1, [((0,), 1.0)], seed=replica_seed(3003, r))
        st.advance(t)
        v = np.zeros(M)
        for key, m in st.masses.items():
            s = unpack_site(key, 1)
            if s in idx:
                v[idx[s]] = m
        op = np.outer(v, v)
        acc += op
        acc2 += op * op
    sim_mean = acc / reps
    sim_se = np.sqrt(np.maximum(acc2 / reps - sim_mean**2, 0.0) / reps)
    chain_vals, chain_ses = fk.pair_chain_histogram(
        BCPP1, [((0,), 1.0)], t, 400_000, seed=3004)
    return dict(t=t, sol=sol, reps=reps, sim_mean=sim_mean, sim_se=sim_se,
                chain_vals=chain_vals, chain_ses=chain_ses, chain_n=400_000)


@pytest.fixture(scope="module")
def d1_triangle():
    """Ensemble means of eta_x eta_xt (1e5 replicas), oracle, pair chain."""
    return _cached(("d1_triangle", BCPP1.to_dict(), 3003, 3004),
                   _build_d1_triangle)


# -- criteria -----------------------------------------------------------------


def test_criterion_01_moments_closed_form():
    mom = kernel_moments(BCPP3)
    ok = abs(mom.kappa1 - 5 / 7) < 1e-12 and abs(mom.kappa2 - 1.0) < 1e-12
    _report(1, "kappa_1 = 5/7 and kappa_2 = 1 to 1e-12", ok,
            f"kappa1={mom.kappa1!r} kappa2={mom.kappa2!r}")


def test_criterion_02_return_probability():
    pi = return_probability(3)
    _report(2, "pi_3 = 0.3405 within 1e-3", abs(pi - PI3) < 1e-3,
            f"pi_3={pi:.6f}")


def test_criterion_03_criterion_flips_at_critical_lambda():
    lc = bcpp_critical_lambda(3)
    ok = abs(lc - 0.5226) < 1e-3
    above = survival_criterion(make_bcpp_kernel(3, lc * 1.01))
    below = survival_criterion(make_bcpp_kernel(3, lc * 0.99))
    ok = ok and above[1] and not below[1]
    _report(3, "survival criterion flips at lambda_c = 0.5226 +- 1e-3", ok,
            f"lambda_c={lc:.5f} above={above} below={below}")


@pytest.mark.parametrize("dual", [False, True])
def test_criterion_04_martingale(dual):
    s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 5.0, 10.0], 10_000,
                     base_seed=4040 + dual, dual=dual, threads=2)
    res = stats.martingale_check(s)
    means = np.array2string(np.asarray(res.notes["means"]), precision=4)
    _report(4, f"martingale mean |etabar_t| = 1 within 3 SE "
               f"({'dual' if dual else 'forward'})", res.passed, means)


def test_criterion_05_correctness_triangle(d1_triangle):
    tri = d1_triangle
    sol, t = tri["sol"], tri["t"]
    norm = sol.normalized(0)
    kappa2 = kernel_moments(BCPP1).kappa2
    scale = math.exp(2.0 * kernel_moments(BCPP1).kappa1 * t)
    floor_sim = 10.0 / tri["reps"]
    floor_chain = 10.0 * math.exp(kappa2 * t) / tri["chain_n"]
    worst = 0.0
    ok = True
    for i, x in enumerate(sol.sites):
        for j, xt in enumerate(sol.sites):
            o_raw = sol.u[0][i, j]                # raw two-point value
            o_norm = norm[i, j]                   # normalized counterpart
            s_raw = tri["sim_mean"][i, j]
            s_se = tri["sim_se"][i, j]
            c_norm = tri["chain_vals"].get((x, xt), 0.0)
            c_se = tri["chain_ses"].get((x, xt), 0.0)
            # simulator vs oracle (raw), chain vs oracle (normalized),
            # simulator vs chain (normalized)
            pairs = [
                (s_raw, o_raw, max(3 * s_se, floor_sim)),
                (c_norm, o_norm, max(3 * c_se, floor_chain)),
                (s_raw / scale, c_norm,
                 max(3 * math.hypot(s_se / scale, c_se),
                     floor_sim / scale + floor_chain)),
            ]
            for aa, bb, tol in pairs:
                worst = max(worst, abs(aa - bb) / tol)
                ok = ok and abs(aa - bb) <= tol
    _report(5, "d=1 triangle: simulation = oracle = pair chain at every "
               "pair in the R=6 box", ok, f"worst |dev|/tol = {worst:.2f}")


def test_criterion_06_fk3_vs_oracle(d1_triangle):
    sol, t = d1_triangle["sol"], d1_triangle["t"]
    norm = sol.normalized(0)
    res = fk.fk3_estimate(BCPP1, [((0,), 1.0)], t, fk.f_delta0, 400_000,
                          seed=6006)
    diag = float(np.trace(norm))
    ok = abs(res.value - diag) <= 3 * res.standard_error
    _report(6, "fk3(f = delta_0) matches oracle diagonal within 3 SE", ok,
            f"fk3={res.value:.5f}+-{res.standard_error:.5f} oracle={diag:.5f}")


def test_criterion_07_relative_motion_law():
    rep = stats.relative_motion_check(BCPP3, 2.0, 100_000, seed=7007)
    neg = stats.relative_motion_check(BCPP3, 2.0, 100_000, seed=7007,
                                      walk_time_factor=1.0)
    ok = rep.passed and not neg.passed
    _report(7, "Y - Ytilde law = S_{2t} (chi^2, 1%), S_t control fails", ok,
            f"p={rep.observed:.3f} control p={neg.observed:.2e}")


def test_criterion_08_second_moment_bound(big_ensemble, limit_estimate_origin):
    res = stats.second_moment_boundedness_check(
        BCPP3, big_ensemble, limit_estimate=limit_estimate_origin)
    # plain-estimator trend on a coarse grid: nondecreasing within SE
    grid = [2.5, 5.0, 10.0, 15.0]
    vals = []
    for i, t in enumerate(grid):
        r = fk.fk3_estimate(BCPP3, [(ORIGIN3, 1.0)], t, fk.f_one, 200_000,
                            seed=8008 + i)
        vals.append(r)
    mono = all(b.value >= a.value - 3 * math.hypot(a.standard_error,
                                                   b.standard_error)
               for a, b in zip(vals, vals[1:]))
    ok = res.passed and mono
    lim = limit_estimate_origin
    _report(8, "E|etabar_t|^2 nondecreasing and <= h(0); fk3(f=1) -> h(0) "
               "within max(10%, 3 SE)", ok,
            f"grid means={np.round(np.asarray(res.notes['means']), 3)} "
            f"limit={lim.value:.3f}+-{lim.standard_error:.3f} "
            f"h0={res.notes['h0']:.3f}")


def test_criterion_09_covariance_formula(big_ensemble, limit_estimate_origin):
    offsets = [ORIGIN3, (1, 0, 0), (5, 0, 0)]
    h = h_of_x(BCPP3, offsets)
    details = []
    ok = True
    for i, w in enumerate(offsets):
        if w == ORIGIN3:
            est = limit_estimate_origin
        else:
            est = _cached(("limit", BCPP3.to_dict(), w, 2500.0, 20_000, 9009 + i),
                          lambda: fk.fk3_limit_estimate(BCPP3, w, 2500.0, 20_000,
                                                        seed=9009 + i))
        ref = h[w]
        good = abs(est.value - ref) <= max(0.10 * ref, 3 * est.standard_error)
        ok = ok and good
        details.append(f"|a-b|={sum(map(abs, w))}: {est.value:.3f} vs {ref:.3f}")
    # the ensemble second moment at its first grid time against the exact
    # finite-t value (the closed form lives at t = infinity)
    res = stats.exact_second_moment_check(BCPP3, big_ensemble)
    ok = ok and res.passed
    details.append(f"ensemble at t={big_ensemble.t_grid[0]}: "
                   f"{res.observed:.3f}+-{res.standard_error:.3f} vs exact "
                   f"{res.reference:.3f}")
    _report(9, "P[|etabar^a||etabar^b|] = 1 + kappa_2 G(a-b)/(2-kappa_2 G(0)) "
               "within max(10%, 3 SE) for |a-b| in {0,1,5}", ok,
            "; ".join(details))


def test_criterion_10_density_clt(big_ensemble):
    results = stats.clt_check(big_ensemble, BCPP3, shrink_from=10.0)
    bad = [r for r in results if not r.passed and not r.skipped]
    shrink = next(r for r in results if r.name == "clt:variance_shrink")
    thr = max(shrink.notes["threshold_ratios"].values())
    detail = (f"{len(results) - 1} battery functions; var ratio t30/t10: "
              f"continuous worst {shrink.observed:.3f} "
              f"({shrink.notes['worst_function']}), thresholds worst {thr:.3f}")
    if bad:
        detail += " FAILED: " + ", ".join(
            f"{r.name}: {r.observed:.4f} vs {r.reference:.4f}" for r in bad)
    _report(10, "CLT battery matches N(0, Sigma) within max(5-10%, 3 SE); "
                "variance shrinks 2x from t=10 to t=30 (continuous probes)",
            not bad, detail)


def test_criterion_11_overlap_decay():
    res = stats.overlap_decay_check(BCPP3, [5.0, 10.0, 20.0, 40.0],
                                    400_000, seed=1111)
    ok = res.passed and res.notes["bound_ok"]
    _report(11, "t^{3/2} sum_x P[etabar_{t,x}^2] bounded (slack 1.5), "
                "log-log slope in [-2.0, -1.2]", ok,
            f"slope={res.observed:.3f} scaled="
            f"{np.round(np.asarray(res.notes['scaled']), 4)}")


def test_criterion_12_determinism():
    probes = {}

    def ens(threads):
        s = run_ensemble(BCPP3, [(ORIGIN3, 1.0)], [1.0, 3.0], 800,
                         base_seed=1212, threads=threads)
        return json.dumps(s.to_dict(), sort_keys=True)

    probes["ensemble threads=1 vs 2 vs rerun"] = (
        ens(1) == ens(2) == ens(1))

    def green_bytes():
        tab = green(walk_from_kernel(BCPP3), offsets=[(1, 0, 0)])
        return json.dumps({str(k): v for k, v in tab.values.items()},
                          sort_keys=True)

    probes["green rerun"] = green_bytes() == green_bytes()

    def fk3_bytes():
        r = fk.fk3_estimate(BCPP1, [((0,), 1.0)], 0.5, fk.f_one, 50_000,
                            seed=7)
        return (r.value, r.standard_error)

    probes["fk3 rerun"] = fk3_bytes() == fk3_bytes()

    def tilt_bytes():
        r = fk.fk3_limit_estimate(BCPP3, ORIGIN3, 20.0, 5_000, seed=8)
        return (r.value, r.standard_error)

    probes["tilted walk rerun"] = tilt_bytes() == tilt_bytes()

    def oracle_bytes():
        sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [0.4], 5)
        return sol.u[0].tobytes()

    probes["oracle rerun"] = oracle_bytes() == oracle_bytes()

    def chain_bytes():
        vals, _ = fk.pair_chain_histogram(BCPP1, [((0,), 1.0)], 0.4, 50_000,
                                          seed=9)
        return json.dumps({str(k): v for k, v in vals.items()},
                          sort_keys=True)

    probes["pair chain rerun"] = chain_bytes() == chain_bytes()

    ok = all(probes.values())
    _report(12, "byte-identical reruns across thread counts and subsystems",
            ok, ", ".join(f"{k}: {'ok' if v else 'DIFFERS'}"
                          for k, v in probes.items()))
