"""Output checks for the benchmark's CLI artifacts.

Every check compares an artifact against a value computed apart from the
code path that produced it (closed forms, Watson's constant, a different
solver), or against a property the method must have.  None compares
against a stored copy of an earlier output, so a change that legitimately
alters the random streams does not fail them.  Each function returns a
list of problems; an empty list means the artifact passed.

Statistical checks are at least five standard errors wide and add the
known finite-t bias allowance on top.
"""

from __future__ import annotations

import csv
import json
import math

# Watson (1939): return probability of the simple random walk on Z^3
PI3 = 0.340537329551

# BCPP in d=3 at lambda=1: every unit offset jumps at rate lambda/(2d lambda+1)
# = 1/7, so the symmetrized walk has total rate 6/7, G(0) = (7/6)/(1 - pi_3),
# and the per-coordinate CLT variance is 2 lambda/(2d lambda+1) = 2/7
G0_BCPP3 = (7.0 / 6.0) / (1.0 - PI3)
SIGMA2_BCPP3 = 2.0 / 7.0
LAMBDA_C3 = 1.0 / (6.0 * (1.0 - 2.0 * PI3))

K_SE = 5.0
REL_CLOSED_FORM = 1e-5


def bcpp_kappa1(d, lam):
    return (2 * d * lam - 1.0) / (2 * d * lam + 1.0)


def bcpp_criterion(d3_lambda):
    """kappa_2 G(0)/2 for BCPP d=3 at rate lambda (kappa_2 = 1)."""
    total_rate = 6.0 * d3_lambda / (6.0 * d3_lambda + 1.0)
    return 0.5 / (total_rate * (1.0 - PI3))


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# ensemble


def gaussian_battery_reference(kind, params, var):
    """Closed-form integral of one battery function against N(0, var)."""
    s = math.sqrt(var)
    if kind == "halfspace":
        return 0.5 * math.erfc(params["thr"] / (s * math.sqrt(2.0)))
    if kind == "cos":
        return math.exp(-0.5 * (params["freq"] * s) ** 2)
    if kind == "quadclip":
        a = math.sqrt(params["clip"])
        u = a / s
        inside = math.erf(u / math.sqrt(2.0))
        pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return var * inside - 2.0 * s * a * pdf + a * a * (1.0 - inside)
    raise ValueError(f"unknown battery kind {kind!r}")


def check_martingale_means(means, ses, label, target=1.0):
    """Mean |etabar_t| equals the initial mass at every t, within 5 SE."""
    problems = []
    for j, (m, se) in enumerate(zip(means, ses)):
        if not se > 0:
            problems.append(f"{label}: zero standard error at grid index {j}")
        elif abs(m - target) > K_SE * se:
            problems.append(f"{label}: mean |etabar| {m:.6g} at grid index {j} "
                            f"is {abs(m - target) / se:.1f} SE from {target}")
    return problems


def check_summary(summary, replicas, battery_table, min_survivors=20):
    """Forward ensemble summary: no truncation, martingale, CLT battery.

    ``battery_table`` is ``stats.battery_table(kernel)``: only the
    function parameters are taken from it; the Gaussian references are
    computed here in closed form with Sigma = (2/7) I.
    """
    problems = []
    if summary["truncated"] != 0:
        problems.append(f"{summary['truncated']} truncated replicas")
    if summary["replicas"] != replicas:
        problems.append(f"summary counts {summary['replicas']} replicas, "
                        f"expected {replicas}")
    nt = summary["stats"]["normalized_total"]["all"]
    problems += check_martingale_means(nt["mean"], nt["se"], "forward")

    for name, kind, params in battery_table:
        st = summary["stats"][f"battery:{name}"]["surviving"]
        obs, se, n = st["mean"][-1], st["se"][-1], st["n"][-1]
        if n < min_survivors:
            problems.append(f"battery {name}: only {n} survivors")
            continue
        ref = gaussian_battery_reference(kind, params, SIGMA2_BCPP3)
        # finite-t bias allowance documented in stats.battery_table
        bias = (0.10 if kind == "quadclip" else 0.05) * abs(ref)
        if abs(obs - ref) > K_SE * se + bias:
            problems.append(f"battery {name}: {obs:.5g} vs Gaussian {ref:.5g} "
                            f"(se {se:.3g}, allowance {bias:.3g})")
    return problems


def _cell(text):
    # the CLI writes numpy scalars with repr(), which numpy >= 2 renders
    # as "np.float64(x)"; check_csv_numeric reports that, the numeric
    # checks read the value inside
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_trajectories(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_cell(v) for v in r] for r in rows[1:]]


def check_csv_numeric(path):
    """Every cell of trajectories.csv is a plain decimal number."""
    with open(path, newline="") as fh:
        bad = [v for r in list(csv.reader(fh))[1:] for v in r
               if not _is_number(v)]
    if bad:
        return [f"trajectories.csv has {len(bad)} non-numeric cells, "
                f"e.g. {bad[0]!r}"]
    return []


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_csv_matches_summary(header, rows, summary, d=3, rel=1e-12):
    """Per-t column means of trajectories.csv equal summary.json means."""
    problems = []
    t_grid = summary["t_grid"]
    if len(rows) != summary["replicas"] * len(t_grid):
        problems.append(f"trajectories.csv has {len(rows)} rows, expected "
                        f"{summary['replicas']} x {len(t_grid)}")
    col = {name: i for i, name in enumerate(header)}
    pairs = [(c, c) for c in ("normalized_total", "rho_star", "overlap", "occupied")]
    pairs += [(f"m1_{i + 1}", f"m1_{i}") for i in range(d)]
    pairs += [(f"m2_{i + 1}{j + 1}", f"m2_{i}{j}")
              for i in range(d) for j in range(d)]
    ti = col["t"]
    for j, t in enumerate(t_grid):
        at_t = [r for r in rows if r[ti] == t]
        if not at_t:
            problems.append(f"no CSV rows at t={t}")
            continue
        for csv_name, summ_name in pairs:
            vals = [r[col[csv_name]] for r in at_t]
            mean = math.fsum(vals) / len(vals)
            scale = math.fsum(abs(v) for v in vals) / len(vals)
            want = summary["stats"][summ_name]["all"]["mean"][j]
            if abs(mean - want) > rel * scale:
                problems.append(f"CSV mean of {csv_name} at t={t} is {mean!r}, "
                                f"summary says {want!r}")
    return problems


def check_same_summaries(blobs):
    """summary.json bytes for --threads 1, --threads 2 and a rerun."""
    if all(b == blobs[0] for b in blobs[1:]):
        return []
    payloads = [json.loads(b) for b in blobs]
    for p in payloads:
        p.pop("config", None)
    where = ("only in the echoed config" if all(p == payloads[0] for p in payloads)
             else "in the statistics")
    return [f"summary.json bytes differ across --threads 1, 2 and a rerun, "
            f"{where}"]


def check_same_bytes(blobs, label):
    if all(b == blobs[0] for b in blobs[1:]):
        return []
    return [f"{label} bytes differ across --threads 1, 2 and a rerun"]


# ---------------------------------------------------------------------------
# walk-limit


def check_cov(check, offset):
    """One verify-cov check result against the closed forms.

    The reference h(a-b) must carry Watson's G(0) (recovered from h(0) =
    2/(2 - G(0)), kappa_2 = 1) and, off the origin, the walk's harmonic
    relation G(e1) = G(0) - 1/total_rate or its far field; the truncated
    estimate may only sit below the limit, within the CLI's 10%.
    """
    problems = []
    est, ref, se = check["observed"], check["reference"], check["standard_error"]
    if offset == (0, 0, 0):
        g0 = 2.0 - 2.0 / ref
        if not _rel_close(g0, G0_BCPP3, REL_CLOSED_FORM):
            problems.append(f"G(0) = {g0!r} from h(0), Watson gives {G0_BCPP3!r}")
    elif offset == (1, 0, 0):
        want = 1.0 + (G0_BCPP3 - 7.0 / 6.0) / (2.0 - G0_BCPP3)
        if not _rel_close(ref, want, REL_CLOSED_FORM):
            problems.append(f"h(e1) = {ref!r}, harmonic relation gives {want!r}")
    else:
        # continuum far field G(x) ~ 7/(4 pi |x|) for this walk; 1.2% off at |x|=5
        r = math.sqrt(sum(c * c for c in offset))
        want = 1.0 + 7.0 / (4.0 * math.pi * r) / (2.0 - G0_BCPP3)
        if not _rel_close(ref, want, 0.03):
            problems.append(f"h({offset}) = {ref!r}, far field gives {want!r}")
    if not se > 0:
        problems.append(f"offset {offset}: zero standard error")
    if est > ref + K_SE * se:
        problems.append(f"offset {offset}: estimate {est:.5g} above the limit "
                        f"{ref:.5g} by {(est - ref) / se:.1f} SE")
    if abs(est - ref) > 0.10 * ref:
        problems.append(f"offset {offset}: estimate {est:.5g} not within 10% "
                        f"of {ref:.5g}")
    return problems


def check_overlap(check):
    """Overlap proxy values are positive and decrease in t, within 5 SE.

    The plain weighted walk's weight has a Pareto tail of index ~1.13, so
    one path can lift a value far above its neighbours; its standard
    error then grows with it, and the 5-SE allowance keeps the check
    from failing by chance while still catching a real increase.
    """
    vals, ses = check["notes"]["values"], check["notes"]["ses"]
    problems = []
    if not all(v > 0 for v in vals):
        problems.append(f"overlap values not all positive: {vals}")
    for i in range(len(vals) - 1):
        slack = K_SE * math.hypot(ses[i], ses[i + 1])
        if not vals[i + 1] < vals[i] + slack:
            problems.append(f"overlap value rises from {vals[i]:.4g} to "
                            f"{vals[i + 1]:.4g} (5 SE = {slack:.3g})")
    return problems


# ---------------------------------------------------------------------------
# solves


def check_oracle(artifact, kappa1, t, reference):
    """Oracle total normalized second moment at time t equals a one-walk
    solve at t, and u is symmetric."""
    u = artifact["u"]
    n = len(u)
    problems = []
    if artifact["t"] != t:
        problems.append(f"oracle reports t={artifact['t']!r}, asked for {t!r}")
    top = max(abs(v) for row in u for v in row)
    asym = max(abs(u[i][j] - u[j][i]) for i in range(n) for j in range(i))
    if asym > 1e-12 * top:
        problems.append(f"oracle u is not symmetric (max |u - u^T| = {asym:.3g})")
    total = math.fsum(v for row in u for v in row)
    total *= math.exp(-2.0 * kappa1 * t)
    if not _rel_close(total, reference, REL_CLOSED_FORM):
        problems.append(f"oracle normalized second moment {total!r} vs "
                        f"one-walk solve {reference!r}")
    return problems


def check_green_pair(quadrature, truncated):
    """Quadrature G: Watson's G(0) and the harmonic relation; truncated
    solve (absorbing box) lies at or below it at every offset."""
    problems = []
    g0 = quadrature["g"]["[0, 0, 0]"]
    if not _rel_close(g0, G0_BCPP3, REL_CLOSED_FORM):
        problems.append(f"quadrature G(0) = {g0!r}, Watson gives {G0_BCPP3!r}")
    if not _rel_close(quadrature["pi_d"], PI3, REL_CLOSED_FORM):
        problems.append(f"pi_3 = {quadrature['pi_d']!r}, Watson gives {PI3!r}")
    ge1 = quadrature["g"].get("[1, 0, 0]")
    if ge1 is None or not _rel_close(ge1, g0 - 7.0 / 6.0, 1e-9):
        problems.append(f"G(e1) = {ge1!r} breaks G(e1) = G(0) - 7/6")
    if set(truncated["g"]) != set(quadrature["g"]):
        problems.append("green methods report different offsets")
    for key, g in truncated["g"].items():
        if key in quadrature["g"] and not g <= quadrature["g"][key]:
            problems.append(f"truncated G{key} = {g!r} above quadrature "
                            f"{quadrature['g'][key]!r}")
    return problems


def check_criterion(artifact, lam, expect_satisfied):
    problems = []
    want = bcpp_criterion(lam)
    if not _rel_close(artifact["criterion"], want, REL_CLOSED_FORM):
        problems.append(f"criterion at lambda={lam!r} is {artifact['criterion']!r}, "
                        f"closed form {want!r}")
    if artifact["satisfied"] is not expect_satisfied:
        problems.append(f"criterion at lambda={lam!r} satisfied="
                        f"{artifact['satisfied']}, lambda_c={LAMBDA_C3!r}")
    return problems


def check_validation(artifact):
    rep = artifact["report"]
    flags = ("k1_spanning", "k4_orthogonal", "strong_k4",
             "offdiag_gamma_nonnegative")
    problems = [f"single-offset kernel fails {f}" for f in flags if not rep[f]]
    if rep["violations"]:
        problems.append(f"violations reported: {rep['violations'][:3]}")
    return problems
