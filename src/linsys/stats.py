"""Statistical verification harness for the limit theorems.

Turns ensembles and Feynman-Kac estimators into pass/fail checks:
martingale property of the normalized total mass, the density CLT
against its Gaussian limit, the replica-overlap decay exponent, the
covariance closed form 1 + kappa_2 G(a-b)/(2 - kappa_2 G(0)), the
ensemble second moment against its exact finite-t value, the
second-moment sandwich, and the relative-motion law of the dual pair
chain.

Every check emits a CheckResult with the rule
|observed - reference| <= max(tolerance, k * standard_error); k and the
tolerance are recorded so results are auditable.  One-sided checks (the
CLT variance shrink, the second-moment sandwich, the relative-motion
test) set ``passed`` themselves, as their docstrings say; the
relative-motion test records its rule in its notes.  Convergence-in-
probability claims are operationalized as variance shrink across the
time grid, O(t^{-d/2}) claims as boundedness of the scaled values plus a
log-log slope window; both operationalizations are recorded in the
output, they are not claims of the source theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import seeded_rng
from .kernel import Kernel, kernel_moments
from . import walk as walk_mod
from . import feynman_kac as fk


@dataclass
class CheckResult:
    name: str
    observed: float
    reference: float
    tolerance: float
    standard_error: float
    k: float = 3.0
    passed: bool = False
    skipped: bool = False
    notes: dict = field(default_factory=dict)

    @classmethod
    def evaluate(cls, name, observed, reference, tolerance, standard_error,
                 k=3.0, notes=None):
        passed = abs(observed - reference) <= max(tolerance, k * standard_error)
        return cls(name=name, observed=float(observed), reference=float(reference),
                   tolerance=float(tolerance), standard_error=float(standard_error),
                   k=float(k), passed=bool(passed), notes=notes or {})

    def to_dict(self):
        return {
            "name": self.name, "observed": self.observed,
            "reference": self.reference, "tolerance": self.tolerance,
            "standard_error": self.standard_error, "k": self.k,
            "passed": self.passed, "skipped": self.skipped,
            "notes": _jsonable(self.notes),
        }


def _jsonable(obj):
    """Plain JSON values; non-finite floats become None (null), since
    strict JSON has no token for them."""
    if isinstance(obj, float):  # np.float64 too
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    return obj


# ---------------------------------------------------------------------------
# Gaussian test-function battery


def battery_table(kernel: Kernel):
    """Named battery entries (name, kind, params) for the CLT check.

    Coordinate half-space indicators at thresholds {0, +-0.5 sigma,
    +-sigma}, cosines at two frequencies, and a clipped quadratic per
    coordinate, all evaluated on xhat = (x - m t)/sqrt(t).

    The indicators are cell-averaged over one lattice spacing (a ramp of
    width 1/sqrt(t) around the threshold): a sizeable fraction of the
    mass sits exactly on lattice planes (~(2 pi Sigma_ii t)^{-1/2}), so
    the strict indicator carries an O(t^{-1/2}) alignment bias that the
    continuity correction removes; the Gaussian reference is unchanged.
    """
    mom = kernel_moments(kernel)
    s0 = math.sqrt(mom.gaussian_cov[0, 0])
    entries = []
    for label, thr in [("-1s", -s0), ("-05s", -0.5 * s0), ("0", 0.0),
                       ("+05s", 0.5 * s0), ("+1s", s0)]:
        entries.append((f"halfspace{label}", "halfspace", {"coord": 0, "thr": thr}))
    # cosine probes at theta = c/sigma: the finite-t bias is roughly
    # c^2 sigma^2/2 * (variance deficit ~ 1/t) + (lattice 4th cumulant)
    # c^4/(24 t); c <= 1.25 keeps both inside the 5% band at t ~ 30
    entries.append(("cos1", "cos", {"coord": 0, "freq": 0.5 / s0}))
    entries.append(("cos2", "cos", {"coord": 0, "freq": 1.25 / s0}))
    for i in range(kernel.d):
        entries.append((f"quadclip{i}", "quadclip",
                        {"coord": i, "clip": 25.0 * mom.gaussian_cov[i, i]}))
    return entries


def _battery_fn(kind, params):
    c = params["coord"]
    if kind == "halfspace":
        thr = params["thr"]
        return lambda xh, sqrt_t: np.clip((xh[:, c] - thr) * sqrt_t + 0.5,
                                          0.0, 1.0)
    if kind == "cos":
        freq = params["freq"]
        return lambda xh, sqrt_t: np.cos(freq * xh[:, c])
    if kind == "quadclip":
        clip = params["clip"]
        return lambda xh, sqrt_t: np.minimum(xh[:, c] ** 2, clip)
    raise ValueError(f"unknown battery kind {kind}")


def default_battery(kernel: Kernel):
    """Battery as {name: f(xhat array)}; factory passed to run_ensemble."""
    return {name: _battery_fn(kind, params)
            for name, kind, params in battery_table(kernel)}


def gaussian_reference(kind, params, variance):
    """Integral of the battery function against N(0, variance), in closed
    form over the relevant coordinate marginal."""
    s = math.sqrt(variance)
    if kind == "halfspace":
        return 0.5 * math.erfc(params["thr"] / (s * math.sqrt(2.0)))
    if kind == "cos":
        return math.exp(-0.5 * params["freq"] ** 2 * variance)
    if kind == "quadclip":
        # E[min(Z^2, c)]: the second moment inside |Z| <= sqrt(c), plus c
        # times the mass outside
        u = math.sqrt(params["clip"]) / s
        phi = math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        return (variance * (math.erf(u / math.sqrt(2.0)) - 2 * u * phi)
                + params["clip"] * math.erfc(u / math.sqrt(2.0)))
    raise ValueError(f"unknown battery kind {kind}")


def battery_references(kernel: Kernel):
    mom = kernel_moments(kernel)
    return {name: gaussian_reference(kind, params, mom.gaussian_cov[params["coord"],
                                                                    params["coord"]])
            for name, kind, params in battery_table(kernel)}


# ---------------------------------------------------------------------------
# Checks


def _fail_if_truncated(summary, results):
    """An ensemble that dropped truncated replicas is biased toward paths
    that did not explode, so no check on it passes."""
    if summary.truncated:
        for res in results:
            res.passed = False
            res.notes["truncated"] = summary.truncated
    return results


def martingale_check(summary, k=3.0, normalized=True) -> CheckResult:
    """Mean |etabar_t| equals the initial total mass at every grid time.

    ``normalized=False`` compares the raw total (the negative control:
    it grows like exp(kappa_1 t))."""
    eta0 = sum(m for _, m in summary.metadata["initial"])
    st = summary.stat("normalized_total", "all")
    means, ses = st["mean"].copy(), st["se"].copy()
    if not normalized:
        kernel = Kernel.from_dict(summary.metadata["kernel"])
        kappa1 = kernel_moments(kernel).kappa1
        grow = np.exp(kappa1 * np.asarray(summary.t_grid))
        means, ses = means * grow, ses * grow
    devs = np.abs(means - eta0)
    slack = np.maximum(k * ses, 0.0)
    worst = int(np.argmax(devs - slack))
    res = CheckResult.evaluate(
        "martingale" if normalized else "martingale_unnormalized",
        means[worst], eta0, 0.0, ses[worst], k=k,
        notes={"t_grid": list(summary.t_grid), "means": means, "ses": ses})
    res.passed = bool(np.all(devs <= slack))
    return _fail_if_truncated(summary, [res])[0]


CLT_MIN_SURVIVORS = 100   # fewer survivors mark a battery check underpowered
CLT_SHRINK_FACTOR = 0.5   # largest variance ratio the shrink proxy passes


def clt_check(summary, kernel: Kernel, rel_tol_bounded=0.05,
              rel_tol_quadratic=0.10, k=3.0, shrink_from=None):
    """Battery statistics against their Gaussian integrals, conditioned
    on survival at the final grid time, plus the variance-shrink proxy
    for convergence in probability (variance at the last grid time over
    the one at ``shrink_from``, default the first grid time)."""
    refs = battery_references(kernel)
    kinds = {name: kind for name, kind, _ in battery_table(kernel)}
    j0 = 0 if shrink_from is None else list(summary.t_grid).index(shrink_from)
    out = []
    ratios = {}
    for name, ref in refs.items():
        st = summary.stat(f"battery:{name}", "surviving")
        obs, se, n = st["mean"][-1], st["se"][-1], st["n"][-1]
        rel = rel_tol_quadratic if kinds[name] == "quadclip" else rel_tol_bounded
        res = CheckResult.evaluate(f"clt:{name}", obs, ref, rel * abs(ref), se, k=k,
                                   notes={"survivors": int(n)})
        if n < CLT_MIN_SURVIVORS:
            res.skipped = True
            res.notes["underpowered"] = True
        out.append(res)
        v0, v1 = st["var"][j0], st["var"][-1]
        if v0 > 0:
            ratios[name] = v1 / v0
    # the shrink factor gates the continuous probes (the limit theorem's
    # test class); threshold statistics relax like t^{-1/2} through slow
    # center-of-mass modes, so they are only required to decay
    gated = {n: r for n, r in ratios.items() if kinds[n] != "halfspace"}
    thresh = {n: r for n, r in ratios.items() if kinds[n] == "halfspace"}
    worst_name = max(gated, key=gated.get) if gated else None
    worst = gated.get(worst_name, math.inf)
    passed = worst <= CLT_SHRINK_FACTOR and all(r < 1.0 for r in thresh.values())
    shrink = CheckResult(
        name="clt:variance_shrink", observed=float(worst), reference=0.0,
        tolerance=CLT_SHRINK_FACTOR, standard_error=0.0, k=0.0,
        passed=bool(passed),
        notes={"proxy": "ensemble variance at last grid time over the one "
                        "at shrink_from (continuous probes gated; "
                        "thresholds must decay)",
               "worst_function": worst_name, "ratios": ratios,
               "threshold_ratios": thresh})
    out.append(shrink)
    return _fail_if_truncated(summary, out)


def overlap_decay_check(kernel: Kernel, t_grid, samples, seed,
                        initial=None, slack=1.5, slope_window=(-2.0, -1.2),
                        k=3.0, kappa2_override=None) -> CheckResult:
    """Decay of the deterministic overlap proxy sum_x P[etabar_{t,x}^2].

    Computes D(t) by the weighted-walk estimator with f = delta_0,
    asserts sup_t D(t) t^{d/2} <= slack * (value at the first grid time)
    and that the log-log slope sits in the window.  The slope window is
    an operational choice, the source bound is only O(t^{-d/2})."""
    mom = kernel_moments(kernel)
    kappa2 = mom.kappa2 if kappa2_override is None else kappa2_override
    if kappa2 == 0.0 and kappa2_override is None:
        return CheckResult(name="overlap_decay", observed=0.0, reference=0.0,
                           tolerance=0.0, standard_error=0.0, passed=True,
                           skipped=True,
                           notes={"reason": "kappa_2 = 0: frozen dynamics, no decay"})
    d = kernel.d
    zero = tuple([0] * d)
    initial = initial or [(zero, 1.0)]
    vals, ses = [], []
    for i, t in enumerate(t_grid):
        r = fk.fk3_estimate(kernel, initial, float(t), fk.f_delta0, samples,
                            seed + i, kappa2_override=kappa2_override)
        vals.append(r.value)
        ses.append(r.standard_error)
    vals = np.asarray(vals)
    ses = np.asarray(ses)
    tg = np.asarray(t_grid, dtype=float)
    scaled = vals * tg ** (d / 2.0)
    scaled_se = ses * tg ** (d / 2.0)
    bound_ok = bool(np.all(scaled <= slack * scaled[0]
                           + k * (scaled_se + slack * scaled_se[0])))
    notes = {"t_grid": list(t_grid), "values": vals, "ses": ses,
             "scaled": scaled, "slack": slack, "bound_ok": bound_ok,
             "operationalization": "bounded scaled values + slope window"}
    if np.any(vals <= 0.0):
        # too few samples: no path ended at the origin at these times, so
        # log D(t) and the slope are undefined and the check fails
        notes["zero_estimate_at"] = tg[vals <= 0.0].tolist()
        slope = math.nan
    else:
        slope = float(np.polyfit(np.log(tg), np.log(vals), 1)[0])
    lo, hi = slope_window
    res = CheckResult.evaluate(
        "overlap_decay", slope, 0.5 * (lo + hi), 0.5 * (hi - lo), 0.0, k=0.0,
        notes=notes)
    res.passed = res.passed and bound_ok
    return res


def _exact_second_moment(kernel: Kernel, initial, t):
    """E|etabar_t|^2 = sum_w W_w E_S^w[exp(kappa_2/2 L_2t)] over the pair
    offsets w of the initial data, exactly (``exp_local_time_moment``)."""
    return sum(W * fk.exp_local_time_moment(kernel, t, start=w)
               for w, W in fk._initial_pair_offsets(initial).items())


def _top_share(sample, fraction):
    """The largest ceil(fraction * n) values' share of the sample's sum
    (nan for an empty or all-zero sample)."""
    x = np.sort(np.asarray(sample, dtype=float))
    total = x.sum()
    if total <= 0.0:
        return math.nan
    return float(x[len(x) - math.ceil(fraction * len(x)):].sum() / total)


def tail_health(sample):
    """The Hill index of a nonnegative sample's positive values
    (``fk.hill_index``), the top 1% of all values' share of the sum, and
    whether the index is below 2 (None where it is nan), where a standard
    error is no error bar."""
    hill = fk.hill_index(sample)
    return {"hill_index": hill, "top_1pct_share": _top_share(sample, 0.01),
            "hill_index_below_2": None if math.isnan(hill) else hill < 2.0}


def covariance_limit_check(kernel: Kernel, a, b, t, samples, seed,
                           rel_tol=0.10, k=3.0, resolution=None) -> CheckResult:
    """Weighted-walk estimate of P[|etabar_inf^a| |etabar_inf^b|] against
    the closed form 1 + kappa_2 G(a-b)/(2 - kappa_2 G(0)).

    The estimator truncates the walk at time 2t, so t must be large; the
    truncation sits below the limit.  The estimate is the
    importance-sampled weighted walk (bounded weights; the plain weight
    has a Pareto tail with index barely above 1 here, whose unseen tail
    events bias the sample mean low at any feasible sample size).  The
    closed form comes from the quadrature that builds the estimator's
    h-field, or from its own quadrature at a given ``resolution``."""
    w0 = tuple(int(x) - int(y) for x, y in zip(a, b))
    est = fk.fk3_limit_estimate(kernel, w0, t, samples, seed)
    ref = (est.metadata["limit"] if resolution is None
           else walk_mod.h_of_x(kernel, [w0], resolution=resolution)[w0])
    return CheckResult.evaluate(f"covariance|a-b|={sum(map(abs, w0))}",
                                est.value, ref, rel_tol * ref,
                                est.standard_error, k=k,
                                notes={"offset": list(w0), "t": t,
                                       "samples": est.samples})


EXACT_SECOND_MOMENT_K = 3.0   # SEs the ensemble mean may sit from the exact value


def exact_second_moment_check(kernel: Kernel, summary) -> CheckResult:
    """The ensemble mean |etabar_t|^2 at its first grid time against the
    exact E|etabar_t|^2 there from its initial data, within
    ``EXACT_SECOND_MOMENT_K`` SE.

    Only the earliest grid time is tested: |etabar_t|^2 is heavy tailed
    (infinite 4th moment at this criterion value), and the ensemble
    mean's unseen-tail shortfall grows with t, so late-t z-tests measure
    the estimator's tail, not the model.  The notes hold that time and,
    for the record, the ``tail_health`` of the tested column."""
    st = summary.stat("normalized_total_sq", "all")
    t = summary.t_grid[0]
    exact = _exact_second_moment(kernel, summary.metadata["initial"], t)
    res = CheckResult.evaluate(
        "exact_second_moment", st["mean"][0], exact, 0.0, st["se"][0],
        k=EXACT_SECOND_MOMENT_K,
        notes={"t": t,
               **tail_health(summary.rows.kept("normalized_total_sq")[:, 0])})
    return _fail_if_truncated(summary, [res])[0]


def second_moment_boundedness_check(kernel: Kernel, summary,
                                    limit_estimate=None, rel_tol=0.10,
                                    k=3.0) -> CheckResult:
    """Sandwich for the second moment of the normalized total mass.

    Checks E[|etabar_t|^2] is nondecreasing within noise and stays below
    h(0) |eta_0|^2 at every grid time.  The lower half of the sandwich,
    h(0) sum eta_0^2, bounds the t -> infinity supremum, so it is
    checked against ``limit_estimate`` (a large-t weighted-walk value)
    when given, never against the finite grid.  For a kernel violating
    the survival criterion the second moment diverges and the check
    reports the growth trend instead."""
    st = summary.stat("normalized_total_sq", "all")
    means, ses = st["mean"], st["se"]
    initial = summary.metadata["initial"]
    eta0_total = sum(m for _, m in initial)
    eta0_sq = sum(m * m for _, m in initial)

    pair_offsets = fk._initial_pair_offsets(initial)
    if kernel_moments(kernel).kappa2 == 0.0:
        # the criterion holds trivially and h = 1: no quadrature
        value, h = 0.0, dict.fromkeys(pair_offsets, 1.0)
    else:
        # one quadrature gives the criterion (from G(0)) and h at every
        # pair offset, each offset's sum its own
        tab = walk_mod.green(walk_mod.walk_from_kernel(kernel),
                             offsets=list(pair_offsets))
        value, h = tab.criterion_value, tab.h_values
    if value >= 1.0:
        growth = means[-1] / means[0] if means[0] > 0 else math.inf
        res = CheckResult(
            name="second_moment_bound", observed=float(means[-1]),
            reference=math.inf, tolerance=0.0, standard_error=float(ses[-1]),
            k=k, passed=False,
            notes={"criterion_value": value, "trend": "unbounded",
                   "growth_factor": float(growth),
                   "means": means})
        return _fail_if_truncated(summary, [res])[0]

    h0 = h[tuple([0] * kernel.d)]
    upper = h0 * eta0_total**2
    lower = h0 * eta0_sq
    limit_ref = sum(W * h[w] for w, W in pair_offsets.items())

    upper_ok = bool(np.all(means <= upper + np.maximum(rel_tol * upper, k * ses)))
    inc_ok = bool(np.all(np.diff(means)
                         >= -k * np.hypot(ses[:-1], ses[1:])))
    notes = {
        "h0": h0, "upper": upper, "lower_for_sup": lower,
        "limit_reference": limit_ref,
        "means": means, "ses": ses, "monotone_ok": inc_ok,
        "upper_ok": upper_ok,
    }
    passed = upper_ok and inc_ok
    if limit_estimate is not None:
        conv_ok = (abs(limit_estimate.value - limit_ref)
                   <= max(rel_tol * limit_ref, k * limit_estimate.standard_error))
        lower_ok = (limit_estimate.value
                    >= lower - max(rel_tol * lower, k * limit_estimate.standard_error))
        notes["limit_estimate"] = limit_estimate.value
        notes["limit_se"] = limit_estimate.standard_error
        notes["limit_converged"] = bool(conv_ok)
        notes["lower_ok"] = bool(lower_ok)
        passed = passed and conv_ok and lower_ok
    else:
        notes["lower_ok"] = "not evaluated (needs a large-t limit estimate)"
    res = CheckResult(
        name="second_moment_bound", observed=float(means[-1]), reference=upper,
        tolerance=rel_tol * upper, standard_error=float(ses[-1]), k=k,
        passed=passed, notes=notes)
    return _fail_if_truncated(summary, [res])[0]


RELATIVE_MOTION_SIGNIFICANCE = 0.01   # the test passes above this p-value
RELATIVE_MOTION_MIN_EXPECTED = 5.0    # smaller expected cell counts are pooled


def relative_motion_check(kernel: Kernel, t, samples, seed,
                          walk_time_factor=2.0) -> CheckResult:
    """Two-sample chi-squared test: law of Y_t - Yt_t of the dual pair
    chain versus S at walk_time_factor * t (the true clock doubles;
    factor 1 is the negative control).  The observed value is the
    p-value, and the test passes above ``RELATIVE_MOTION_SIGNIFICANCE``
    (the reference), a one-sided rule recorded as ``notes["rule"]``."""
    import scipy.stats

    rng = seeded_rng(seed, 0x4E1)
    zero = tuple([0] * kernel.d)
    Y, Yt, _ = fk.pair_chain_samples(kernel, (zero, zero), t, samples, rng)
    rel = Y - Yt
    walk = walk_mod.walk_from_kernel(kernel)
    pos, _ = walk_mod.simulate_walk(walk, zero, walk_time_factor * float(t),
                                    samples, rng)

    def counts(arr):
        cells, n = np.unique(arr, axis=0, return_counts=True)
        return dict(zip(map(tuple, cells.tolist()), n.tolist()))

    c1, c2 = counts(rel), counts(pos)
    cells = sorted(set(c1) | set(c2))
    n1 = np.array([c1.get(c, 0) for c in cells], dtype=float)
    n2 = np.array([c2.get(c, 0) for c in cells], dtype=float)
    # pool cells whose pooled expected count is too small
    tot = n1 + n2
    keep = tot >= 2.0 * RELATIVE_MOTION_MIN_EXPECTED
    if (~keep).any():
        n1 = np.append(n1[keep], n1[~keep].sum())
        n2 = np.append(n2[keep], n2[~keep].sum())
    C = len(n1)
    N1, N2 = n1.sum(), n2.sum()
    p_hat = (n1 + n2) / (N1 + N2)
    e1, e2 = N1 * p_hat, N2 * p_hat
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum((n1 - e1) ** 2 / e1) + np.nansum((n2 - e2) ** 2 / e2)
    dof = max(C - 1, 1)
    p = float(scipy.stats.chi2.sf(chi2, dof))
    return CheckResult(
        name="relative_motion", observed=p,
        reference=RELATIVE_MOTION_SIGNIFICANCE, tolerance=0.0,
        standard_error=0.0, k=0.0, passed=p > RELATIVE_MOTION_SIGNIFICANCE,
        notes={"rule": "observed > reference",
               "statistic": float(chi2), "dof": dof, "cells": C,
               "samples": samples, "walk_horizon_factor": walk_time_factor})
