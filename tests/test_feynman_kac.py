import hashlib
import math

import numpy as np
import pytest

from linsys.engine import init_state, unpack_site
from linsys.kernel import (Kernel, _l1_ball, kernel_moments, make_bcpp_kernel,
                           validate_kernel)
from linsys import feynman_kac as fk
from linsys import stats
from linsys.walk import (WalkError, simulate_walk, survival_criterion,
                         walk_from_kernel)
from conftest import (diagonal_step_kernel, random_single_offset_kernel,
                      reach_two_kernel)

BCPP1 = make_bcpp_kernel(1, 1.0)
BCPP3 = make_bcpp_kernel(3, 1.0)
DIAG3 = diagonal_step_kernel()
REACH2 = reach_two_kernel()
# one atom touching two offsets at once: orthogonality fails
BAD = Kernel(1, [(0.5, {}), (0.5, {(0,): 1.0, (1,): 1.0, (2,): 1.0})])


# -- Gamma table ------------------------------------------------------------


def test_bcpp_potential_values():
    g = fk.GammaTable(BCPP3)
    assert abs(g.potential((0, 0, 0)) - 17 / 7) < 1e-12
    for u in [(1, 0, 0), (0, -1, 0), (2, 0, 0), (1, 1, 0)]:
        assert abs(g.potential(u) - 10 / 7) < 1e-12


def _interior_sums(kernel, R):
    """Row and column sums of the pair generator the oracle integrates,
    keyed by the pairs (x, xt) with both sites within R - 2 r_K, where no
    move into or out of the pair crosses the box boundary."""
    A = fk._pair_generator(fk.GammaTable(kernel), R)
    rows = np.asarray(A.sum(axis=1)).ravel()
    cols = np.asarray(A.sum(axis=0)).ravel()
    sites = fk._box_sites(kernel.d, R)
    inner = [(i, s) for i, s in enumerate(sites)
             if max(map(abs, s)) <= R - 2 * kernel.r_K]
    M = len(sites)
    return {(x, xt): (rows[i * M + j], cols[i * M + j])
            for i, x in inner for j, xt in inner}


def test_row_sums_equal_potential(rng):
    for _ in range(40):
        k = random_single_offset_kernel(rng, int(rng.integers(1, 3)))
        g = fk.GammaTable(k)
        sums = _interior_sums(k, 2 * k.r_K + 1)
        for w in [(0,) * k.d, (1,) + (0,) * (k.d - 1), (1,) * k.d]:
            row, _ = sums[w, (0,) * k.d]
            assert abs(row - g.potential(w)) < 1e-12


def test_column_sum_closed_form(rng):
    # sum over sources = 2 kappa_1 + delta_{w,0} sum_y c(y)
    for _ in range(20):
        k = random_single_offset_kernel(rng, 2)
        mom = kernel_moments(k)
        csum = sum(k.correlation(y) for y in _l1_ball(2, 2 * k.r_K))
        sums = _interior_sums(k, 2 * k.r_K + 1)
        assert abs(sums[(0, 0), (0, 0)][1] - (2 * mom.kappa1 + csum)) < 1e-10
        assert abs(sums[(1, 0), (0, 0)][1] - 2 * mom.kappa1) < 1e-10


def test_tabulated_correlation_matches_kernel(rng):
    # the one-pass table against the per-point sum over the support
    kernels = [BAD, BCPP3] + [random_single_offset_kernel(rng, int(rng.integers(1, 4)))
                              for _ in range(10)]
    for k in kernels:
        g = fk.GammaTable(k)
        for w in _l1_ball(k.d, 2 * k.r_K + 1):
            assert abs(g.correlation(w) - k.correlation(w)) < 1e-14


def test_potential_under_orthogonality(rng):
    # V(u) = 2 kappa_1 + kappa_2 delta_{u,0} for single-site-update kernels
    for _ in range(40):
        k = random_single_offset_kernel(rng, 2)
        g = fk.GammaTable(k)
        mom = kernel_moments(k)
        assert abs(g.potential((0, 0)) - (2 * mom.kappa1 + mom.kappa2)) < 1e-12
        assert abs(g.potential((1, 1)) - 2 * mom.kappa1) < 1e-12


def test_stationarity_iff_orthogonal(rng):
    # counting-measure stationarity: interior row sums equal column sums
    def stationary(kernel, R):
        return all(abs(row - col) <= 1e-12
                   for row, col in _interior_sums(kernel, R).values())
    assert stationary(BCPP3, 3)
    # an atom touching two offsets at once violates orthogonality
    bad = Kernel(1, [(0.5, {}), (0.5, {(0,): 1.0, (1,): 1.0, (2,): 1.0})])
    assert not stationary(bad, 8)


def test_identity_kernel_gamma_zero():
    g = fk.GammaTable(Kernel(1, [(1.0, {(0,): 1.0})]))
    assert g.potential((0,)) == 0.0 and g.potential((1,)) == 0.0
    assert not g.x_jump_rates((0,)) and not g.x_jump_rates((1,))
    assert g.diagonal_entry((0,)) == 0.0


def test_validate_reports_k4_violations_in_ball_order():
    k4 = [v for v in validate_kernel(BAD).violations if v[0] == "k4_orthogonal"]
    assert [v[1] for v in k4] == [(-1,), (1,)]
    assert all(abs(v[2] - 0.5) <= 1e-15 for v in k4)


def test_offdiag_rates_nonnegative(rng):
    # every off-diagonal entry reduces to E[K_u K_v] or E[K_u] forms with
    # nonnegative K, so negativity can only be numerical noise
    for _ in range(60):
        k = random_single_offset_kernel(rng, int(rng.integers(1, 3)))
        assert not fk.GammaTable(k).negative_offdiag()
    bad = Kernel(1, [(0.5, {}), (0.5, {(0,): 1.0, (1,): 1.0, (2,): 1.0})])
    assert not fk.GammaTable(bad).negative_offdiag()


def test_y_chain_rates_bcpp():
    tab = fk._PairChainTables(BCPP3)
    # off the diagonal: two free copies, each jumping at E[K_z] = 1/7
    assert len(tab.jumps) - tab.n_diag == 12
    off = np.diff(tab.off_cum, prepend=0.0) * tab.rate_off
    assert np.all(np.abs(off - 1 / 7) < 1e-12)
    # on the diagonal: 12 single moves plus 6 joint moves at c2(a,a) = 1/7
    assert tab.n_diag == 18
    assert abs(tab.rate_diag - 18 / 7) < 1e-12


def _random_joint_kernel(rng, d):
    """Random kernel whose atoms may touch several offsets in [-2, 2]^d
    at once, so that orthogonality mostly fails."""
    probs = rng.random(int(rng.integers(1, 5))) + 0.05
    probs /= probs.sum()
    atoms = []
    for p in probs:
        vec = {}
        for _ in range(int(rng.integers(0, 4))):
            off = tuple(int(c) for c in rng.integers(-2, 3, size=d))
            vec[off] = float(rng.uniform(0.1, 2.0))
        atoms.append((p, vec))
    return Kernel(d, atoms)


def test_validation_and_pair_chain_tables_golden():
    # sha256 of the validation reports (flags, violations and their order)
    # and the dual pair chain's jump tables over 60 seeded random kernels
    # in d = 1..3, every other one non-orthogonal (30 report violations),
    # recorded when both scanned the l1 ball of radius 2 r_K
    rng = np.random.default_rng(20240818)
    digest = hashlib.sha256()
    flagged = 0
    for i in range(60):
        d = int(rng.integers(1, 4))
        k = (_random_joint_kernel(rng, d) if i % 2
             else random_single_offset_kernel(rng, d))
        rep = validate_kernel(k)
        flagged += bool(rep.violations)
        digest.update(repr((rep.k1_spanning, rep.k4_orthogonal, rep.strong_k4,
                            rep.offdiag_gamma_nonnegative,
                            rep.violations)).encode())
        tab = fk._PairChainTables(k)
        for a in (tab.jumps, np.asarray([tab.n_diag]),
                  np.asarray([tab.rate_diag, tab.rate_off]),
                  tab.diag_cum, tab.off_cum):
            digest.update(np.ascontiguousarray(a).tobytes())
    assert flagged == 30
    assert digest.hexdigest() == (
        "39c5ca24c5832a2f1a4655c1551e39e0e4135149d32b761c7c0b937f49bc5c6e")


# -- oracle -----------------------------------------------------------------


def _reference_pair_generator(kernel, R):
    """Gamma assembled pair by pair from the table's rates: the reference
    the Kronecker-sum builder must reproduce."""
    table = fk.GammaTable(kernel)
    sites = fk._box_sites(kernel.d, R)
    index = {s: i for i, s in enumerate(sites)}
    M = len(sites)
    A = np.zeros((M * M, M * M))
    for x in sites:
        for xt in sites:
            w = tuple(a - b for a, b in zip(x, xt))
            src = index[x] * M + index[xt]
            A[src, src] = table.diagonal_entry(w)
            for (dy, dyt), rate in table.x_jump_rates(w):
                y = tuple(a + b for a, b in zip(x, dy))
                yt = tuple(a + b for a, b in zip(xt, dyt))
                if y in index and yt in index:  # absorbing exterior
                    A[src, index[y] * M + index[yt]] += rate
    return A


def test_pair_generator_matches_per_pair_assembly(rng):
    cases = [(BCPP1, 5), (make_bcpp_kernel(2, 1.0), 2), (BAD, 4)]
    cases += [(random_single_offset_kernel(rng, d), R)
              for d, R in [(1, 4), (1, 5), (2, 2), (2, 2)]]
    for kernel, R in cases:
        A = fk._pair_generator(fk.GammaTable(kernel), R).toarray()
        assert np.abs(A - _reference_pair_generator(kernel, R)).max() <= 1e-15


def test_box_generator_entries():
    walk = walk_from_kernel(make_bcpp_kernel(2, 1.0))
    sites = fk._box_sites(2, 3)
    potential = np.arange(len(sites), dtype=float)
    A = fk._box_generator(walk, 3, potential).toarray()
    i = {s: k for k, s in enumerate(sites)}
    assert np.allclose(np.diag(A), potential - walk.total_rate, rtol=0, atol=1e-15)
    off = A - np.diag(np.diag(A))
    assert off[i[(0, 0)], i[(1, 0)]] == walk.rates[(1, 0)]
    assert off[i[(3, 0)], i[(2, 0)]] == walk.rates[(-1, 0)]
    # the walk is killed at the edge: 4 neighbours inside, 3 on a side, 2 at a corner
    assert [np.count_nonzero(off[i[s]]) for s in [(0, 0), (3, 0), (3, -3)]] == [4, 3, 2]


def test_oracle_d2_matches_one_walk_solve():
    # P[|etabar_t|^2] two ways: the pair box at d = 2 (83,521 pair states)
    # and the symmetrized walk's Schrodinger semigroup on its own box
    t = 0.5
    sol = fk.oracle_two_point(make_bcpp_kernel(2, 1.0), [((0, 0), 1.0)], [t], 8)
    exact = fk.exp_local_time_moment(make_bcpp_kernel(2, 1.0), t)
    assert abs(sol.normalized(0).sum() - exact) <= 1e-5 * exact
    assert np.allclose(sol.u[0], sol.u[0].T, rtol=0, atol=1e-12)


def test_oracle_rejects_decreasing_times():
    with pytest.raises(fk.FeynmanKacError, match="increasing"):
        fk.oracle_two_point(BCPP1, [((0,), 1.0)], [0.5, 0.2], 3)


def test_oracle_repeated_time_and_degenerate_kernel():
    sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [0.3, 0.3], 4)
    assert np.array_equal(sol.u[0], sol.u[1])
    # pure death: no mass moves, u(t, 0, 0) = exp((2 kappa_1 + kappa_2) t)
    death = Kernel(1, [(1.0, {})])
    sol = fk.oracle_two_point(death, [((0,), 1.0)], [0.7], 2)
    assert abs(sol.value(0, (0,), (0,)) - math.exp(-0.7)) < 1e-12


def test_oracle_initial_condition():
    sol = fk.oracle_two_point(BCPP1, [((0,), 2.0), ((1,), 3.0)], [0.0], 4)
    assert sol.value(0, (0,), (0,)) == 4.0
    assert sol.value(0, (0,), (1,)) == 6.0
    assert sol.value(0, (1,), (1,)) == 9.0
    assert sol.value(0, (2,), (0,)) == 0.0


def test_oracle_swap_symmetry():
    sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [0.4], 5)
    u = sol.u[0]
    assert np.allclose(u, u.T, atol=1e-12)
    assert sol.boundary_leak[0] < 1e-4


def test_oracle_short_time_derivative():
    # d/dt u = Gamma u at t = 0: first-order check with a small step
    h = 1e-4
    sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [h], 4)
    table = fk.GammaTable(BCPP1)
    i0 = sol.site_index[(0,)]
    # u(h, e, 0) ~ h * Gamma[(e,0) <- (0,0)]: the (0,0)->(e,0) rate is mu(-e)
    for e in [(1,), (-1,)]:
        got = sol.value(0, e, (0,))
        assert abs(got - h * (1 / 3)) < 5 * h * h


def test_oracle_vs_direct_simulation_means():
    R, t, reps = 5, 0.4, 20000
    sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [t], R)
    sites = sol.sites
    idx = sol.site_index
    M = len(sites)
    acc = np.zeros((M, M))
    acc2 = np.zeros((M, M))
    for r in range(reps):
        st = init_state(BCPP1, [((0,), 1.0)], seed=np.random.SeedSequence([71, r]))
        st.advance(t)
        v = np.zeros(M)
        for key, m in st.masses.items():
            s = unpack_site(key, 1)
            if s in idx:
                v[idx[s]] = m
        op = np.outer(v, v)
        acc += op
        acc2 += op * op
    mean = acc / reps
    se = np.sqrt(np.maximum(acc2 / reps - mean**2, 0.0) / reps)
    # 3 combined SE with a zero-count Poisson floor of 10/reps
    tol = np.maximum(3.0 * se, 10.0 / reps)
    assert np.all(np.abs(mean - sol.u[0]) <= tol)


# -- estimators ---------------------------------------------------------------


def test_fk3_identity_kernel_exact():
    ident = Kernel(2, [(1.0, {(0, 0): 1.0})])
    init = [((0, 0), 1.0), ((1, 1), 2.0)]
    res = fk.fk3_estimate(ident, init, 5.0, fk.f_one, 100, seed=0)
    assert res.value == 9.0 and res.standard_error == 0.0


def test_fk3_t_zero():
    res = fk.fk3_estimate(BCPP1, [((0,), 1.0), ((2,), 1.0)], 0.0, fk.f_delta0,
                          500, seed=0)
    # only the two same-site pairs sit at offset 0; no time to move or weigh
    assert abs(res.value - 2.0) < 1e-12


def _pair_chain_estimate(kernel, initial, t, g, samples, seed):
    """sum_{x,xt} P[etabar_{t,x} etabar_{t,xt}] g(x, xt) and its SE.

    Runs the dual pair chain from every ordered pair of initial sites,
    weighted by exp(kappa_2 * diagonal local time); the SE adds the
    per-start-pair sample variances.
    """
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, 0x9A1])))
    kappa2 = kernel_moments(kernel).kappa2
    value = var = 0.0
    for x, mx in initial:
        for xt, mxt in initial:
            W = float(mx) * float(mxt)
            Y, Yt, loc = fk.pair_chain_samples(kernel, (x, xt), t, samples, rng)
            vals = np.exp(kappa2 * loc) * np.asarray(g(Y, Yt), dtype=float)
            value += W * vals.mean()
            var += W**2 * vals.var(ddof=1) / samples
    return value, math.sqrt(var)


def test_pair_chain_t_zero():
    g = lambda Y, Yt: (Y[:, 0] == 0).astype(float) * (Yt[:, 0] == 2)
    value, _ = _pair_chain_estimate(BCPP1, [((0,), 1.0), ((2,), 3.0)], 0.0, g,
                                    200, seed=0)
    assert abs(value - 3.0) < 1e-12


def test_pair_chain_without_jumps_stays_put():
    # no mass moves: the pair never jumps, and its diagonal local time is
    # the whole horizon exactly when it starts on the diagonal
    for kernel in [Kernel(2, [(1.0, {(0, 0): 1.0})]), Kernel(2, [(1.0, {})])]:
        for yt0, loc0 in [((0, 0), 1.5), ((1, 0), 0.0)]:
            Y, Yt, loc = fk.pair_chain_samples(
                kernel, ((0, 0), yt0), 1.5, 5, np.random.default_rng(0), batch=3)
            assert Y.tolist() == [[0, 0]] * 5 and Yt.tolist() == [list(yt0)] * 5
            assert loc.tolist() == [loc0] * 5


def test_fk3_vs_oracle_contractions():
    t = 0.5
    sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [t], 6)
    norm = sol.normalized(0)
    res0 = fk.fk3_estimate(BCPP1, [((0,), 1.0)], t, fk.f_delta0, 150_000, seed=2)
    diag = float(np.trace(norm))
    assert abs(res0.value - diag) <= 3 * res0.standard_error + 1e-4
    res1 = fk.fk3_estimate(BCPP1, [((0,), 1.0)], t, fk.f_one, 150_000, seed=3)
    assert abs(res1.value - norm.sum()) <= 3 * res1.standard_error + 1e-4


def test_pair_chain_vs_oracle_random_g(rng):
    # duality consistency on a small d=1 instance, 5 randomized g's
    t = 0.3
    sol = fk.oracle_two_point(BCPP1, [((0,), 1.0)], [t], 6)
    norm = sol.normalized(0)
    sites = sol.sites
    vals, ses = fk.pair_chain_histogram(BCPP1, [((0,), 1.0)], t, 150_000, seed=4)
    for trial in range(5):
        gtab = {(x, y): rng.uniform(-1, 1) for x in sites for y in sites}
        target = sum(norm[sol.site_index[x], sol.site_index[y]] * gtab[(x, y)]
                     for x in sites for y in sites)
        est = sum(v * gtab[key] for key, v in vals.items() if key[0] in
                  sol.site_index and key[1] in sol.site_index)
        se = math.sqrt(sum((s * gtab[key])**2 for key, s in ses.items()
                           if key[0] in sol.site_index and key[1] in sol.site_index))
        assert abs(est - target) <= 3 * se + 1e-3


@pytest.mark.parametrize("kernel, initial", [
    (BCPP1, [((0,), 1.0), ((1,), 1.0)]),
    (BCPP1, [((0,), 2.0), ((3,), 0.5)]),
    # the d=2 leg of the correctness triangle: pair chain = oracle
    (make_bcpp_kernel(2, 1.0), [((0, 0), 1.0)]),
], ids=["unit-pair", "unequal-masses", "d2-origin"])
def test_pair_chain_histogram_sums_over_starts(kernel, initial):
    # each start's weighted endpoint mean adds to the histogram; dividing
    # by the count of all starts' samples put every cell 1/n^2 too low
    t = 0.4
    sol = fk.oracle_two_point(kernel, initial, [t], 8)
    norm = sol.normalized(0)
    vals, ses = fk.pair_chain_histogram(kernel, initial, t, 50_000, seed=23)
    # the cells' summed variances bound the variance of their sum
    total_se = math.sqrt(sum(s * s for s in ses.values()))
    assert abs(sum(vals.values()) - norm.sum()) <= 4 * total_se
    for (x, xt), v in vals.items():
        exact = norm[sol.site_index[x], sol.site_index[xt]]
        assert abs(v - exact) <= 4.5 * ses[(x, xt)] + 1e-12


def test_pair_chain_matches_fk3_through_offsets():
    # g(x, xt) = f(x - xt) must agree between the two representations
    t = 1.0
    f_vec = lambda off: (np.abs(off[:, 0]) <= 1).astype(float)
    g = lambda Y, Yt: f_vec(Y - Yt)
    a, a_se = _pair_chain_estimate(BCPP1, [((0,), 1.0)], t, g, 120_000, seed=5)
    b = fk.fk3_estimate(BCPP1, [((0,), 1.0)], t, f_vec, 120_000, seed=6)
    se = math.hypot(a_se, b.standard_error)
    assert abs(a - b.value) <= 3 * se


def test_one_point_t_zero_and_conservation():
    init = [((0,), 2.0), ((3,), 1.0)]
    assert abs(fk.one_point_profile(BCPP1, init, 0.0, radius=7)[(0,)] - 2.0) < 1e-9
    mom = kernel_moments(BCPP1)
    prof = fk.one_point_profile(BCPP1, init, 1.5, radius=14)
    total = sum(prof.values()) * math.exp(-mom.kappa1 * 1.5)
    assert abs(total - 3.0) < 1e-6


@pytest.mark.parametrize("site", [(9,), (0, 0)], ids=["outside", "dimension"])
def test_box_refuses_initial_site_off_the_box(site):
    for solve in (lambda: fk.one_point_profile(BCPP1, [(site, 1.0)], 1.0, 4),
                  lambda: fk.oracle_two_point(BCPP1, [(site, 1.0)], 1.0, 4)):
        with pytest.raises(fk.FeynmanKacError, match="outside the box"):
            solve()


def test_one_point_vs_ensemble_means():
    # forward-engine validation: empirical site means match the
    # one-point formula (also validates occupied-only clocks)
    t, reps = 1.0, 30000
    prof = fk.one_point_profile(BCPP1, [((0,), 1.0)], t, radius=10)
    sums = {}
    sq = {}
    for r in range(reps):
        st = init_state(BCPP1, [((0,), 1.0)], seed=np.random.SeedSequence([31, r]))
        st.advance(t)
        for key, m in st.masses.items():
            s = unpack_site(key, 1)
            sums[s] = sums.get(s, 0.0) + m
            sq[s] = sq.get(s, 0.0) + m * m
    for s in [(-2,), (-1,), (0,), (1,), (2,)]:
        mean = sums.get(s, 0.0) / reps
        var = sq.get(s, 0.0) / reps - mean**2
        se = math.sqrt(max(var, 0.0) / reps)
        assert abs(mean - prof[s]) <= 3 * se + 1e-3


def test_exact_moment_matches_plain_estimator():
    exact = fk.exp_local_time_moment(BCPP3, 5.0)
    res = fk.fk3_estimate(BCPP3, [((0, 0, 0), 1.0)], 5.0, fk.f_one, 400_000, seed=8)
    assert abs(res.value - exact) <= 4 * res.standard_error


def test_tilted_estimator_unbiased():
    # the importance-sampled walk must reproduce the exact
    # Schrodinger-semigroup value at finite horizon
    for t, target_tol in [(10.0, 4.0), (30.0, 4.0)]:
        exact = fk.exp_local_time_moment(BCPP3, t)
        res = fk.fk3_limit_estimate(BCPP3, (0, 0, 0), t, 20_000, seed=9)
        assert abs(res.value - exact) <= target_tol * res.standard_error


def test_tilted_estimator_health():
    res = fk.fk3_limit_estimate(BCPP3, (0, 0, 0), 20.0, 5_000, seed=8)
    ess = res.metadata["ess"]
    assert 0.5 * res.samples < ess <= res.samples
    assert 1.0 / res.samples <= res.metadata["max_weight_share"] < 1.0


def test_tilted_estimator_with_delta0():
    # tilted and plain estimators agree for a non-constant f
    a = fk.fk3_limit_estimate(BCPP3, (0, 0, 0), 4.0, 60_000, seed=10,
                              f=fk.f_delta0)
    b = fk.fk3_estimate(BCPP3, [((0, 0, 0), 1.0)], 4.0, fk.f_delta0,
                        400_000, seed=11)
    se = math.hypot(a.standard_error, b.standard_error)
    assert abs(a.value - b.value) <= 3.5 * se


def test_relative_motion_law():
    rep = stats.relative_motion_check(BCPP3, 2.0, 60_000, seed=12)
    assert rep.passed and rep.observed > 0.01
    assert rep.notes["rule"] == "observed > reference"
    neg = stats.relative_motion_check(BCPP3, 2.0, 60_000, seed=12,
                                      walk_time_factor=1.0)
    assert not neg.passed and neg.observed <= neg.reference


def test_relative_motion_t_zero():
    rep = stats.relative_motion_check(BCPP3, 0.0, 1000, seed=13)
    assert rep.passed  # both laws are the point mass at the origin


# -- golden values and the h-field lookup -------------------------------------
#
# Computed with the row-array walk state and the mask / fancy-index / einsum
# h lookup that the coordinate-wise state replaced: RNG calls and float
# operations kept their order, so the numbers matched bit for bit on the
# machine that computed them.  They pass through np.exp, np.log and np.sqrt,
# whose SIMD paths numpy picks from the CPU at run time and which may differ
# in the last bits elsewhere, so floats are compared at a relative 1e-12:
# any change of stream or step order moves them by far more.  Integer parts
# compare exactly, and test_walk.py checks simulate_walk's bytes.


def _assert_golden(got, expected):
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def _limit_golden(res):
    m = res.metadata
    return (res.value, res.standard_error, m["ess"], m["max_weight_share"])


@pytest.mark.parametrize("offset,expected", [
    ((0, 0, 0), (8.1871332896252, 0.04227139032182589,
                 198.93933071984685, 0.005556229212425935)),
    ((1, 0, 0), (3.4103247637829863, 0.014898223904639468,
                 199.2395283693618, 0.005597325613471361)),
    ((5, 0, 0), (1.4102818372749888, 0.0051184462082544254,
                 199.47448899132056, 0.005620377913124895)),
])
def test_limit_estimate_golden_t2500(offset, expected):
    res = fk.fk3_limit_estimate(BCPP3, offset, 2500.0, 200, seed=41)
    _assert_golden(_limit_golden(res), expected)


def test_limit_estimate_golden_delta0_inside_box():
    res = fk.fk3_limit_estimate(BCPP3, (0, 0, 0), 20.0, 2000, seed=42,
                                f=fk.f_delta0)
    _assert_golden(_limit_golden(res), (0.058499906737690364,
                                        0.005247741151545426,
                                        1815.7104839217186,
                                        0.0007758717559716471))


def test_limit_estimate_golden_diagonal_steps_batched():
    res = fk.fk3_limit_estimate(DIAG3, (1, 0, 0), 2500.0, 300, seed=43,
                                batch=120)
    _assert_golden(_limit_golden(res), (1.864622943207329,
                                        0.0029070939349461673,
                                        299.7813940329295,
                                        0.0036142235273005476))
    res = fk.fk3_limit_estimate(DIAG3, (0, 0, 0), 20.0, 1500, seed=44,
                                f=fk.f_delta0, batch=1000)
    _assert_golden(_limit_golden(res), (0.01600005127206118,
                                        0.0032397634588172573,
                                        1470.9599945781217,
                                        0.0007748400366440947))


# The tilted estimates pinned bit for bit (float.hex of value, SE, ESS and
# the largest weight's share) on this machine's numpy: any change to the
# h-field's values or to the float order of the tilted rates moves them.
# DIAG3 has K = 10 steps, where a sum over the steps in another memory
# order moves the last bit; REACH2's steps reach two sites, so a path's
# neighbours lie up to two sites past the box.
@pytest.mark.parametrize("kernel,offset,t,samples,seed,f,batch,expected", [
    (BCPP3, (0, 0, 0), 2500.0, 200, 41, None, 50_000,
     ("0x1.05fcfef3dddc3p+3", "0x1.5a4987dfa35fcp-5",
      "0x1.8de0eff4c3bdap+7", "0x1.6c220ec1a6a81p-8")),
    (BCPP3, (1, 0, 0), 2500.0, 200, 41, None, 50_000,
     ("0x1.b485859897eacp+1", "0x1.e82f5c382e443p-7",
      "0x1.8e7aa37661bf1p+7", "0x1.6ed38a7475cf4p-8")),
    (BCPP3, (5, 0, 0), 2500.0, 200, 41, None, 50_000,
     ("0x1.69083b013d26ap+0", "0x1.4f7147121f28fp-8",
      "0x1.8ef2f03898115p+7", "0x1.70564b53f9ea5p-8")),
    (BCPP3, (0, 0, 0), 20.0, 2000, 42, fk.f_delta0, 50_000,
     ("0x1.df3b32483cde3p-5", "0x1.57ea7c9faecccp-8",
      "0x1.c5ed78918e076p+10", "0x1.96c7be8ad499ep-11")),
    (DIAG3, (1, 0, 0), 2500.0, 300, 43, None, 120,
     ("0x1.dd57ede0725dcp+0", "0x1.7d09e2c10552dp-9",
      "0x1.2bc8097078b8cp+8", "0x1.d9b937b34c0dap-9")),
    (REACH2, (0, 0, 0), 500.0, 300, 49, None, 50_000,
     ("0x1.6688b302464e0p+1", "0x1.24f7647b6f6f1p-10",
      "0x1.2bfc551b0e575p+8", "0x1.b976749c4a656p-9")),
], ids=["bcpp3-0", "bcpp3-e1", "bcpp3-5e1", "bcpp3-delta0", "diagonal-batched",
        "reach-two"])
def test_limit_estimate_bits(kernel, offset, t, samples, seed, f, batch,
                             expected):
    res = fk.fk3_limit_estimate(kernel, offset, t, samples, seed, f=f,
                                batch=batch)
    assert tuple(float(v).hex() for v in _limit_golden(res)) == expected


def test_reach_two_kernel_survives():
    value, ok = survival_criterion(REACH2)
    assert ok and value < 1.0


# sha256 of the dual pair chain's end points and diagonal local times,
# computed with the chain's own jump loop before it shared one with the
# walks; the d=3 case runs three batches
@pytest.mark.parametrize("kernel,start_pair,t,samples,seed,batch,digest", [
    (BCPP1, ((0,), (0,)), 2.0, 3000, 51, 200_000,
     "e7aa1be44e7821f80c20e7774f56ffc621da627be452c2aecfdfd01315f63b12"),
    (BCPP3, ((0, 0, 0), (1, 0, 0)), 1.5, 2500, 52, 900,
     "89c1fb4f4b8ceda605fd8e74a1469aac3aa6fe758596df17fd4e587433409ca3"),
], ids=["bcpp1", "bcpp3-batched"])
def test_pair_chain_samples_golden(kernel, start_pair, t, samples, seed,
                                   batch, digest):
    rng = np.random.Generator(np.random.Philox(seed))
    Y, Yt, loc = fk.pair_chain_samples(kernel, start_pair, t, samples, rng,
                                       batch=batch)
    assert Y.shape == Yt.shape == (samples, kernel.d)
    assert Y.dtype == Yt.dtype == np.int64
    got = hashlib.sha256(Y.tobytes() + Yt.tobytes() + loc.tobytes())
    assert got.hexdigest() == digest


# -- the stream contract -------------------------------------------------------
#
# Where the generator stands after a run, as (Philox counter, buffer
# position), recorded with the loop that stepped every path of a batch to
# the end.  A batch of b paths draws b exponentials per iteration and b
# uniforms while some path is alive, however few; the positions pin that.


def _stream_position(rng):
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


def _walk_run(kernel, start, horizon, samples, batch):
    return lambda rng: simulate_walk(walk_from_kernel(kernel), start, horizon,
                                     samples, rng, batch=batch)


def _pair_run(kernel, start_pair, t, samples, batch):
    return lambda rng: fk.pair_chain_samples(kernel, start_pair, t, samples,
                                             rng, batch=batch)


@pytest.mark.parametrize("run,seed,position", [
    (_walk_run(BCPP3, (0, 0, 0), 30.0, 5000, 200_000), 46,
     ([130916, 0, 0, 0], 1)),
    (_walk_run(DIAG3, (2, -1, 0), 12.0, 3000, 1100), 47, ([34319, 0, 0, 0], 1)),
    (_pair_run(BCPP1, ((0,), (0,)), 2.0, 3000, 200_000), 51,
     ([17550, 0, 0, 0], 3)),
    (_pair_run(BCPP3, ((0, 0, 0), (1, 0, 0)), 1.5, 2500, 900), 52,
     ([11985, 0, 0, 0], 3)),
], ids=["walk-bcpp3", "walk-diagonal-batched", "pair-bcpp1",
        "pair-bcpp3-batched"])
def test_stream_position_after_run(run, seed, position):
    rng = np.random.Generator(np.random.Philox(seed))
    run(rng)
    assert _stream_position(rng) == position


@pytest.mark.parametrize("run,seed,batches,position", [
    # every path finishes in its first hold, so no uniform is drawn
    (_walk_run(BCPP3, (0, 0, 0), 1e-6, 4000, 1500), 48, [1500, 1500, 1000],
     ([1038, 0, 0, 0], 2)),
    # the pair never jumps: every hold is infinite
    (_pair_run(Kernel(2, [(1.0, {(0, 0): 1.0})]), ((0, 0), (1, 0)), 1.5, 7, 3),
     53, [3, 3, 1], ([2, 0, 0, 0], 3)),
], ids=["walk-first-hold", "pair-without-jumps"])
def test_stream_draws_one_exponential_per_path(run, seed, batches, position):
    rng = np.random.Generator(np.random.Philox(seed))
    run(rng)
    ref = np.random.Generator(np.random.Philox(seed))
    for b in batches:
        ref.exponential(1.0, b)
    assert _stream_position(rng) == _stream_position(ref) == position


@pytest.mark.parametrize("kernel,offset,t,samples,seed,f,batch,position", [
    (BCPP3, (0, 0, 0), 20.0, 2000, 42, fk.f_delta0, 50_000,
     ([59492, 0, 0, 0], 4)),
    (DIAG3, (1, 0, 0), 30.0, 300, 43, None, 120, ([11136, 0, 0, 0], 1)),
], ids=["bcpp3-delta0", "diagonal-batched"])
def test_limit_estimate_stream_position(monkeypatch, kernel, offset, t,
                                        samples, seed, f, batch, position):
    made = []
    seeded = fk.seeded_rng
    monkeypatch.setattr(fk, "seeded_rng",
                        lambda *a: made.append(seeded(*a)) or made[-1])
    fk.fk3_limit_estimate(kernel, offset, t, samples, seed, f=f, batch=batch)
    assert _stream_position(made[0]) == position


def test_limit_estimate_rejects_no_samples(monkeypatch):
    # rejected before the h-field is built
    def no_field(*args, **kwargs):
        raise AssertionError("h-field built")
    monkeypatch.setattr(fk, "_HField", no_field)
    with pytest.raises(WalkError, match="samples"):
        fk.fk3_limit_estimate(BCPP3, (0, 0, 0), 1.0, 0, seed=1)


def test_plain_estimate_golden():
    res = fk.fk3_estimate(BCPP3, [((0, 0, 0), 1.0), ((1, 0, 0), 2.0)], 3.0,
                          fk.f_delta0, 20_000, seed=45)
    _assert_golden((res.value, res.standard_error), (
        1.9303431230711015, 0.07328221359978641))
    # the Hill index of the plain weight exp(kappa_2 L / 2), before f
    _assert_golden(res.metadata["hill_index"], 7.297854543055083)


def test_relative_motion_golden():
    rep = stats.relative_motion_check(BCPP3, 2.0, 20_000, seed=48)
    assert (rep.notes["dof"], rep.notes["cells"]) == (195, 196)
    _assert_golden((rep.observed, rep.notes["statistic"]),
                   (0.9220401666913337, 167.6935073951351))


def _values_reference(field, pos):
    """The row-array lookup the coordinate-wise one replaced."""
    pos = np.asarray(pos)
    inside = np.all(np.abs(pos) <= field.radius, axis=1)
    out = np.empty(len(pos))
    if inside.any():
        idx = pos[inside] + field.radius
        out[inside] = field.table[tuple(idx.T)]
    far = ~inside
    if far.any():
        x = pos[far].astype(float)
        r = np.sqrt(np.einsum("bi,ij,bj->b", x, field.A_inv, x))
        g = field.far_const / r ** (field.d - 2)
        out[far] = 1.0 + field.kappa2 * g / field.denom
    return out


@pytest.mark.parametrize("kernel", [BCPP3, DIAG3], ids=["bcpp3", "diagonal"])
def test_h_lookup_matches_row_reference(kernel):
    R = 8
    field = fk._HField(walk_from_kernel(kernel), radius=R)
    gen = np.random.default_rng(2718)
    inside = gen.integers(-R, R + 1, size=(3000, 3))
    face = gen.integers(-R, R + 1, size=(3000, 3))
    axis = gen.integers(0, 3, size=3000)
    face[np.arange(3000), axis] = R * gen.choice([-1, 1], size=3000)
    far = gen.integers(-40 * R, 40 * R + 1, size=(3000, 3))
    far[np.arange(3000), axis] = gen.choice([-1, 1], size=3000) * gen.integers(
        R + 1, 40 * R, size=3000)
    assert (np.abs(far).max(axis=1) > R).all()
    for pos in (inside, face, far, np.concatenate([inside, face, far])):
        got = field.lookup(pos.T)
        assert np.array_equal(got, _values_reference(field, pos))
    # coordinate arrays of any shape, as the walk passes (paths, neighbours)
    grid = np.stack([inside.T, far.T], axis=2)
    assert np.array_equal(field.lookup(grid), np.stack(
        [field.lookup(inside.T), field.lookup(far.T)], axis=1))
    with np.errstate(all="raise"):
        h0 = field.lookup(np.zeros((3, 1), dtype=np.int64))
    assert h0[0] == field.table[R, R, R]


@pytest.mark.parametrize("kernel", [BCPP3, DIAG3, REACH2],
                         ids=["bcpp3", "diagonal", "reach-two"])
def test_neighbourhood_read_matches_lookup(kernel):
    # paths at |x|_inf = R, R+1, R+rho, R+rho+1, R+2rho, R+2rho+1: across
    # the box edge, the edge of the paths read from the table, and the
    # edge of the padded table itself
    R = 8
    field = fk._HField(walk_from_kernel(kernel), radius=R)
    rho = int(np.abs(field.steps).max())
    gen = np.random.default_rng(1618)
    pos = [np.zeros((1, 3), dtype=np.int64)]
    for level in (R, R + 1, R + rho, R + rho + 1, R + 2 * rho, R + 2 * rho + 1):
        x = gen.integers(-level, level + 1, size=(400, 3))
        x[np.arange(400), gen.integers(0, 3, size=400)] = level * gen.choice(
            [-1, 1], size=400)
        pos.append(x)
    pos = np.concatenate(pos)
    xs = list(pos.T)
    with np.errstate(all="raise"):
        h, at0 = field.around(xs)
    points = pos[None, :, :] + np.vstack([np.zeros(3, np.int64),
                                          field.steps])[:, None, :]
    assert np.array_equal(h, field.lookup(np.moveaxis(points, 2, 0)))
    assert np.array_equal(h.ravel(),
                          _values_reference(field, points.reshape(-1, 3)))
    assert np.array_equal(at0, ~pos.any(axis=1))


def test_far_field_bits_do_not_depend_on_batch_shape():
    # DIAG3's A^-1 has 9 nonzero entries, enough for numpy's pairwise
    # order had the terms been summed by one reduction: a lone far point
    # (the start, or the one path past the table) must get the bits it
    # gets inside a batch and those of the plain float loop
    field = fk._HField(walk_from_kernel(DIAG3), radius=8)
    assert len(field._far_terms) >= 8
    # every point of the two shells just past the padded table, where h
    # is largest and a last-bit change in r^2 most often reaches h
    P = field._pad
    line = np.arange(-P - 2, P + 3)
    pos = np.stack(np.meshgrid(line, line, line, indexing="ij"),
                   axis=-1).reshape(-1, 3)
    pos = pos[np.abs(pos).max(axis=1) > P]
    batch = field.lookup(pos.T)
    for x, h in zip(pos, batch):
        r2 = 0.0
        for i, j, a in field._far_terms:
            r2 += float(x[i]) * a * float(x[j])
        g = field.far_const / math.sqrt(r2) ** (field.d - 2)
        assert h == 1.0 + field.kappa2 * g / field.denom
        assert field.lookup(x[:, None])[0] == h
        # one far path among paths in the table
        h_nb, _ = field.around(list(np.stack([np.zeros(3, np.int64), x]).T))
        assert h_nb[0, 1] == h


@pytest.mark.parametrize("kernel", [BCPP3, DIAG3, REACH2],
                         ids=["bcpp3", "diagonal", "reach-two"])
def test_limit_estimate_from_origin_raises_no_float_error(kernel):
    # the far field is never evaluated at the origin, where it divides by 0
    with np.errstate(all="raise"):
        res = fk.fk3_limit_estimate(kernel, (0, 0, 0), 30.0, 300, seed=50)
    assert np.isfinite(res.value) and res.metadata["ess"] > 0.9 * 300


# -- exact overlap reference and tail health --------------------------------


def test_exact_overlap_matches_reference_table():
    for t, ref in [(5.0, 0.22474), (10.0, 0.12414), (20.0, 0.06217)]:
        D = fk.exp_local_time_moment(BCPP3, t, f=fk.f_delta0)
        assert abs(D / ref - 1.0) < 1e-4


def test_exact_moment_default_end_point_is_one():
    # the value before the end-point argument existed, and f_one equal to it
    default = fk.exp_local_time_moment(BCPP3, 2.0)
    _assert_golden(default, 2.247116912640171)
    assert fk.exp_local_time_moment(BCPP3, 2.0, f=fk.f_one) == default


def test_exact_moment_frozen_walk():
    # pure death moves no mass: the walk stays at its start for the whole
    # horizon 2t, so the weight is exp(kappa_2 t) from 0 and 1 elsewhere
    death = Kernel(1, [(1.0, {})])
    assert abs(fk.exp_local_time_moment(death, 0.5) - math.exp(0.5)) < 1e-12
    assert abs(fk.exp_local_time_moment(death, 0.5, start=(3,)) - 1.0) < 1e-12


def test_exact_moment_box_covers_start():
    # the default box reaches past the start; from 30 sites away the walk
    # almost never reaches the origin by time 2t, so the weight stays 1
    # (up to the ~1e-8 of paths the box boundary kills)
    far = fk.exp_local_time_moment(BCPP3, 1.0, start=(30, 0, 0))
    assert abs(far - 1.0) < 1e-6


def test_tilted_overlap_matches_exact():
    for t in [5.0, 10.0, 20.0, 40.0]:
        exact = fk.exp_local_time_moment(BCPP3, t, f=fk.f_delta0)
        res = fk.fk3_limit_estimate(BCPP3, (0, 0, 0), t, 20_000, seed=13,
                                    f=fk.f_delta0)
        assert abs(res.value - exact) <= 3 * res.standard_error


def test_plain_overlap_matches_exact_t5():
    exact = fk.exp_local_time_moment(BCPP3, 5.0, f=fk.f_delta0)
    res = fk.fk3_estimate(BCPP3, [((0, 0, 0), 1.0)], 5.0, fk.f_delta0,
                          20_000, seed=14)
    assert abs(res.value - exact) <= 3 * res.standard_error


def test_hill_index_on_pareto_sample():
    gen = np.random.default_rng(1975)
    for alpha in (1.13, 2.5):
        x = gen.pareto(alpha, 100_000) + 1.0   # P[X > x] = x^-alpha, x >= 1
        # on an exact Pareto sample the Hill estimate has SE alpha/sqrt(k)
        assert abs(fk.hill_index(x) - alpha) <= 3 * alpha / math.sqrt(200)
    assert math.isnan(fk.hill_index(np.ones(200)))
    assert fk.hill_index(np.ones(201)) == math.inf


def test_frozen_walk_estimate_has_same_metadata_keys():
    # pure death: no mass moves, so no walk is drawn and no index exists;
    # the pair sits at 0 for the whole horizon 2t, weight exp(kappa_2 t)
    death = Kernel(1, [(1.0, {})])
    res = fk.fk3_estimate(death, [((0,), 1.0)], 0.5, fk.f_one, 100, seed=15)
    assert res.metadata["kappa2"] == 1.0
    assert abs(res.value - math.exp(0.5)) < 1e-12
    assert set(res.metadata) == {"kappa2", "horizon", "hill_index"}
    assert math.isnan(res.metadata["hill_index"])
