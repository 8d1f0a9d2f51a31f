import hashlib
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from linsys.kernel import Kernel, make_bcpp_kernel
from linsys import feynman_kac as fk
from linsys.walk import (DegenerateWalkError, DivergentHError,
                         RecurrentDimensionError, WalkError, WalkSpec,
                         bcpp_critical_lambda, green, green_box, h_of_x,
                         pick_step, pick_table, return_probability,
                         simple_walk, simulate_walk, survival_criterion,
                         walk_from_kernel)

from conftest import diagonal_step_kernel

PI3 = 0.34053732955  # simple-walk return probability in d = 3


def test_bcpp_walk_rates():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    assert len(w.rates) == 6
    assert all(abs(q - 1 / 7) < 1e-12 for q in w.rates.values())
    assert abs(w.total_rate - 6 / 7) < 1e-12


def test_symmetrization():
    # asymmetric drift: E[K_{e}] = 0.6, E[K_{-e}] = 0.2
    k = Kernel(1, [(0.2, {}), (0.6, {(0,): 1.0, (1,): 1.0}),
                   (0.2, {(0,): 1.0, (-1,): 1.0})])
    w = walk_from_kernel(k, symmetrized=True)
    assert abs(w.rates[(1,)] - 0.4) < 1e-12
    assert abs(w.rates[(-1,)] - 0.4) < 1e-12
    wx = walk_from_kernel(k, symmetrized=False)
    # one-point walk jumps by -z at rate E[K_z]
    assert abs(wx.rates[(-1,)] - 0.6) < 1e-12
    assert abs(wx.rates[(1,)] - 0.2) < 1e-12


def test_identity_kernel_degenerate():
    with pytest.raises(DegenerateWalkError):
        walk_from_kernel(Kernel(1, [(1.0, {(0,): 1.0})]))


def test_low_dimension_rejected():
    for d in (1, 2):
        with pytest.raises(RecurrentDimensionError):
            green(walk_from_kernel(make_bcpp_kernel(d, 1.0)))


def test_return_probability_d3():
    assert abs(return_probability(3) - PI3) < 1e-3


def test_return_probability_rate_invariant():
    # scaling all rates leaves the embedded chain (and pi_d) unchanged
    w = simple_walk(3)
    scaled = WalkSpec(d=3, rates={z: 7.3 * q for z, q in w.rates.items()},
                      total_rate=7.3 * w.total_rate)
    assert abs(green(w).pi_d - green(scaled).pi_d) < 1e-9


def test_green_zero_value_bcpp():
    tab = green(walk_from_kernel(make_bcpp_kernel(3, 1.0)))
    # sojourn decomposition: G(0) = 1/(total_rate (1 - pi_3))
    assert abs(tab.g0 - 7 / (6 * (1 - PI3))) < 2e-4
    assert abs(tab.criterion_value - 0.8846) < 5e-4


def test_green_nearest_neighbor_identity():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    e = (1, 0, 0)
    tab = green(w, offsets=[e])
    assert abs(tab.values[e] - (tab.g0 - 1.0 / w.total_rate)) < 1e-9


def test_green_symmetry():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    offs = [(1, 2, 0), (-1, -2, 0), (2, 0, 1), (-2, 0, -1)]
    tab = green(w, offsets=offs)
    assert abs(tab.values[(1, 2, 0)] - tab.values[(-1, -2, 0)]) < 1e-10
    assert abs(tab.values[(2, 0, 1)] - tab.values[(-2, 0, -1)]) < 1e-10


def test_green_scaling_covariance():
    w = simple_walk(3)
    doubled = WalkSpec(d=3, rates={z: 2 * q for z, q in w.rates.items()},
                       total_rate=2 * w.total_rate)
    g1 = green(w).g0
    g2 = green(doubled).g0
    assert abs(g2 - g1 / 2) < 1e-8


def test_green_max_at_zero():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    tab = green(w, offsets=[(1, 0, 0), (2, 1, 0), (3, 3, 3)])
    assert all(v <= tab.g0 for v in tab.values.values())


@pytest.mark.parametrize("lam", [0.6, 1.0, 5.0])
def test_quadrature_vs_truncated_solve(lam):
    w = walk_from_kernel(make_bcpp_kernel(3, lam))
    quad = green(w)
    trunc = green(w, method="truncated_solve")
    assert abs(quad.g0 - trunc.g0) <= quad.error_estimate + trunc.error_estimate


def test_truncated_solve_monotone_from_below():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    quad = green(w)
    g_prev = 0.0
    for radius in (6, 10, 16):
        g = green(w, method="truncated_solve", resolution=radius).g0
        assert g_prev < g < quad.g0 + quad.error_estimate
        g_prev = g


def test_green_box_matches_point_solve():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    box = green_box(w, 10)
    tab = green(w, offsets=[(1, 0, 0)], method="truncated_solve", resolution=10)
    assert abs(box[11, 10, 10] - tab.values[(1, 0, 0)]) < 1e-10


def _symmetric_walk(half_rates):
    rates = {}
    for z, q in half_rates.items():
        rates[z] = rates[tuple(-c for c in z)] = q
    return WalkSpec(d=len(next(iter(rates))), rates=rates,
                    total_rate=sum(rates.values()))


# faster along axis 0 than along axes 1 and 2
ANISOTROPIC_RATES = {(1, 0, 0): 0.2, (0, 1, 0): 0.1, (0, 0, 1): 0.1}
ANISOTROPIC = _symmetric_walk(ANISOTROPIC_RATES)


def _direct_box_solve(walk, R):
    """Reference: assemble (-L_S) on [-R, R]^d in C order, solve directly."""
    n = 2 * R + 1
    shape = (n,) * walk.d
    size = n**walk.d
    sites = np.indices(shape).reshape(walk.d, -1).T
    rows, cols = [np.arange(size)], [np.arange(size)]
    vals = [np.full(size, walk.total_rate)]
    for z, q in walk.rates.items():
        tgt = sites + np.asarray(z)
        ok = np.all((tgt >= 0) & (tgt < n), axis=1)
        rows.append(np.nonzero(ok)[0])
        cols.append(np.ravel_multi_index(tuple(tgt[ok].T), shape))
        vals.append(np.full(ok.sum(), -q))
    A = scipy.sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))
    rhs = np.zeros(shape)
    rhs[(R,) * walk.d] = 1.0
    return scipy.sparse.linalg.spsolve(A, rhs.ravel()).reshape(shape)


def test_truncated_solve_anisotropic_constant_deficit():
    offs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0), (0, 2, 3)]
    quad = green(ANISOTROPIC, offsets=offs)
    trunc = green(ANISOTROPIC, offsets=offs, method="truncated_solve")
    deficits = [quad.values[x] - trunc.values[x] for x in [(0, 0, 0)] + offs]
    assert min(deficits) > 0
    assert max(deficits) - min(deficits) < 0.02 * min(deficits)


def test_green_box_axes_anisotropic():
    R = 6
    box = green_box(ANISOTROPIC, R)
    tab = green(ANISOTROPIC, offsets=[(1, 0, 0)], method="truncated_solve",
                resolution=R)
    assert abs(box[R + 1, R, R] - tab.values[(1, 0, 0)]) < 1e-10
    # the fast axis carries the larger neighbour value
    assert box[R + 1, R, R] > box[R, R, R + 1] + 0.1


@pytest.mark.parametrize("half_rates, R", [
    (ANISOTROPIC_RATES, 6),
    # range 2
    ({(1, 0, 0): 0.1, (0, 1, 0): 0.15, (0, 0, 1): 0.2, (2, 1, 0): 0.05}, 8),
    # the jumps generate only {x1 + x2 + x3 = 0 mod 3}, whose dual point
    # 2 pi/3 (1, 1, 1) lies on the sine grid when 3 divides R + 1
    ({(1, -1, 0): 0.1, (0, 1, -1): 0.1, (1, 1, 1): 0.05}, 5),
])
def test_green_box_matches_direct_solve(half_rates, R):
    w = _symmetric_walk(half_rates)
    box = green_box(w, R)
    ref = _direct_box_solve(w, R)
    reached = ref != 0
    assert np.max(np.abs(box - ref)[reached] / ref[reached]) < 1e-8
    assert np.max(np.abs(box[~reached]), initial=0.0) < 1e-10


def test_green_rejects_bad_offsets():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    with pytest.raises(WalkError, match="dimension"):
        green(w, offsets=[(1, 0)])
    with pytest.raises(WalkError, match="outside the truncated box"):
        green(w, offsets=[(7, 0, 0)], method="truncated_solve", resolution=6)


def test_green_counts_a_repeated_offset_once():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    once = green(w, offsets=[(1, 0, 0)]).values
    assert green(w, offsets=[(1, 0, 0), (0, 0, 0), (1, 0, 0)]).values == once


def test_survival_criterion_bcpp():
    value, ok = survival_criterion(make_bcpp_kernel(3, 1.0))
    assert ok and abs(value - 0.8846) < 5e-4
    value, ok = survival_criterion(make_bcpp_kernel(3, 0.4))
    assert not ok and value > 1.0


def test_survival_criterion_identity_kernel():
    value, ok = survival_criterion(Kernel(3, [(1.0, {(0, 0, 0): 1.0})]))
    assert value == 0.0 and ok


def test_critical_lambda_d3():
    lc = bcpp_critical_lambda(3)
    assert abs(lc - 0.5226) < 1e-3
    # the criterion flips exactly at lambda_c
    assert survival_criterion(make_bcpp_kernel(3, lc * 1.01))[1]
    assert not survival_criterion(make_bcpp_kernel(3, lc * 0.99))[1]


def test_critical_lambda_limit_toward_1_over_2d():
    # pi_d decreases with d, so the excess over 1/(2d) shrinks
    lc3 = bcpp_critical_lambda(3)
    lc4 = bcpp_critical_lambda(4, resolution=24)
    assert lc4 > 1 / 8
    assert lc4 * 8 < lc3 * 6  # relative excess decreases


def test_h_values():
    k = make_bcpp_kernel(3, 1.0)
    h = h_of_x(k, [(0, 0, 0), (1, 0, 0), (4, 0, 0)])
    assert abs(h[(0, 0, 0)] - 8.663) < 2e-2
    assert h[(0, 0, 0)] > h[(1, 0, 0)] > h[(4, 0, 0)] > 1.0


def test_h_of_x_values_unchanged():
    # the criterion and h come from one Green table; pinned bit for bit
    h = h_of_x(make_bcpp_kernel(3, 1.0),
               [(0, 0, 0), (1, 0, 0), (2, 1, 0), (5, 0, 0)])
    assert h == {(0, 0, 0): 8.662381070648507, (1, 0, 0): 3.609325446103548,
                 (2, 1, 0): 2.089383296517617, (5, 0, 0): 1.4881914824797176}


def test_h_divergent_below_critical():
    with pytest.raises(DivergentHError):
        h_of_x(make_bcpp_kernel(3, 0.4), [(0, 0, 0)])


def test_monte_carlo_green_consistency():
    # mean local time at 0 up to T approaches G(0) from below; the
    # heat-kernel tail beyond T = 200 is under 2 * 0.42/sqrt(200) = 0.06
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    rng = np.random.Generator(np.random.Philox(12345))
    _, loc = simulate_walk(w, (0, 0, 0), 200.0, 100_000, rng)
    mean = loc.mean()
    se = loc.std(ddof=1) / math.sqrt(len(loc))
    g0 = green(w).g0
    assert mean <= g0 + 3 * se
    assert mean >= g0 - 0.06 - 3 * se


# sha256 of the positions and local times, computed with the row-array walk
# state that the coordinate-wise one replaced (same RNG calls and order)
@pytest.mark.parametrize("kernel,start,horizon,samples,seed,batch,digest", [
    (make_bcpp_kernel(3, 1.0), (0, 0, 0), 30.0, 5000, 46, 200_000,
     "b0042e5842ee60d70155067e58bf8f3f5f10a3f5168dd5e181f9cf78fedda414"),
    (diagonal_step_kernel(), (2, -1, 0), 12.0, 3000, 47, 1100,
     "cdcb14dd9b380bbb0bc612fb0d42489e920319295176de9c570630d24d8a4552"),
], ids=["bcpp3", "diagonal-batched"])
def test_simulate_walk_golden(kernel, start, horizon, samples, seed, batch,
                              digest):
    rng = np.random.Generator(np.random.Philox(seed))
    pos, loc = simulate_walk(walk_from_kernel(kernel), start, horizon,
                             samples, rng, batch=batch)
    assert pos.shape == (samples, 3) and pos.dtype == np.int64
    assert hashlib.sha256(pos.tobytes() + loc.tobytes()).hexdigest() == digest


def test_simulate_walk_rejects_no_samples():
    w = walk_from_kernel(make_bcpp_kernel(3, 1.0))
    with pytest.raises(WalkError, match="samples"):
        simulate_walk(w, (0, 0, 0), 1.0, 0, np.random.default_rng(0))


def _pair_tables(kernel):
    tab = fk._PairChainTables(kernel)
    return tab.diag_cum, tab.off_cum


def _walk_table(kernel):
    w = walk_from_kernel(kernel)
    return pick_table([w.rates[z] for z in sorted(w.rates)])


@pytest.mark.parametrize("cum", [
    _walk_table(make_bcpp_kernel(3, 1.0)),
    _walk_table(diagonal_step_kernel()),
    *_pair_tables(make_bcpp_kernel(3, 1.0)),
], ids=["bcpp3", "diagonal", "pair-diagonal", "pair-off-diagonal"])
def test_pick_step_matches_searchsorted(cum):
    u = np.random.default_rng(5).random(1_000_000)
    # every entry and its neighbours on both sides: ties go to the entry
    edges = np.concatenate([cum, np.nextafter(cum, 0.0),
                            np.nextafter(cum, 2.0), [0.0]])
    for v in (u, edges):
        assert np.array_equal(pick_step(cum, v), np.searchsorted(cum, v))
