"""Two-point function machinery: pair-chain rates, ODE oracle, estimators.

The second moments P[eta_{t,x} eta_{t,xt}] of the particle system evolve
linearly: u' = Gamma u, where the Gamma matrix couples pairs of sites.
Its entries decompose, for a pair at relative offset w = x - xt, into

  * single-component moves: component jumps by a at rate E[K_{-a}]
    (plus a cross term when it lands exactly on its partner),
  * joint moves of both components onto one site, with rate given by
    the cross-moments E[(K_u - delta_{u,0})(K_v - delta_{v,0})],

all translation invariant.  The row sums equal the potential
V(w) = 2 kappa_1 + c(w), and under orthogonality (c = 0 off 0) simply
V(w) = 2 kappa_1 + kappa_2 delta_{w,0}.

Three routes to the same two-point quantities are implemented and cross
checked against each other:

  1. ``oracle_two_point``: solve u' = Gamma u exactly on a truncated pair
     box (brute-force oracle; d = 1, and d = 2 up to R of about 8),
  2. ``pair_chain_histogram``: Monte Carlo over the transposed (dual) pair
     chain, weighted by exp(kappa_2 * local time on the pair diagonal),
     gives every pair value at once,
  3. ``fk3_estimate``: Monte Carlo over the symmetrized one-particle walk
     run to time 2t, weighted by exp(kappa_2/2 * local time at 0); this
     is the only route that scales to d = 3, and ``fk3_limit_estimate``
     runs it h-tilted to reach large t.

The Monte Carlo routes all run ``walk.jump_chain``, one batched loop
with exact holding times; each supplies only its rates, its special set
(the origin or the pair diagonal) and its step pick.

Every deterministic solve (the oracle, the one-point profile and the
exponential local-time moment) builds its lattice generator with one box
builder, ``_box_generator``; the pair generator is the Kronecker sum
L + L of the one-point generator plus the cross and joint-move terms at
the few offsets where they live.  Each is evolved with
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham 2011), one call
per time interval.

Local times are accumulated exactly from the exponential holding times;
no time discretization enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import seeded_rng
from .kernel import MOMENT_TOL, Kernel, kernel_moments
from .walk import (WalkSpec, walk_from_kernel, simulate_walk, jump_chain,
                   pick_table, pick_step,
                   DegenerateWalkError, WalkError)


class FeynmanKacError(RuntimeError):
    pass


class UnsupportedKernelError(FeynmanKacError):
    """Negative off-diagonal pair rates: chain simulation is undefined."""


def _neg(x):
    return tuple(-c for c in x)


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


class GammaTable:
    """Translation-invariant table of pair-chain rates and potential V."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.d = kernel.d
        self.zero = tuple([0] * kernel.d)
        self.kappa1 = kernel_moments(kernel).kappa1
        self.mu = kernel.mean_vector
        sup = set(kernel.support) | {self.zero}
        # c2(u, v) over (support u {0})^2; the keys w of `correlations`
        # and `near_rates` are differences u - v, within l1 reach 2 r_K
        self.cross_moments = {(u, v): kernel.cross_moment(u, v)
                              for u in sup for v in sup}
        # one pass over support pairs: (u, v) adds c2(u, v) to c(v - u) and
        # moves a pair at offset w = u - v by (-u, -v) at rate c2(u, v): the
        # cross term when u or v is 0, a joint move onto one site otherwise,
        # and the diagonal term c2(0, 0) when both are
        self.correlations = {}   # w -> c(w), zero off these keys
        self.near_rates = {}     # w -> {(dy, dyt): rate}, nonzero rates only
        for (u, v), c in sorted(self.cross_moments.items()):
            if c == 0.0:
                continue
            w = _add(u, _neg(v))
            self.correlations[_neg(w)] = self.correlations.get(_neg(w), 0.0) + c
            self.near_rates.setdefault(w, {})[(_neg(u), _neg(v))] = c
        # every other move is a single component jumping by a at rate mu(-a)
        self._single = {}
        for z, m in self.mu.items():
            if z != self.zero:
                self._single[(_neg(z), self.zero)] = m
                self._single[(self.zero, _neg(z))] = m

    def correlation(self, w):
        """c(w) = sum_y E[(K_y - delta_{y,0})(K_{w+y} - delta_{w+y,0})]."""
        return self.correlations.get(tuple(w), 0.0)

    def potential(self, w):
        """V(w) = 2 kappa_1 + c(w)."""
        return 2.0 * self.kappa1 + self.correlation(w)

    def diagonal_entry(self, w):
        """Matrix entry Gamma[(x,xt),(x,xt)] for w = x - xt."""
        g = 2.0 * (self.mu.get(self.zero, 0.0) - 1.0)
        if tuple(w) == self.zero:
            g += self.cross_moments[self.zero, self.zero]
        return g

    def x_jump_rates(self, w):
        """Off-diagonal entries Gamma[(x,xt) -> (y,yt)] for w = x - xt.

        Returns a sorted list of ((dy, dyt), rate) with dy = y - x,
        dyt = yt - xt: every single move, plus the near rates at w.  Where
        a single move and a near rate cancel, the entry is kept at exactly
        0.0.  That is harmless: it adds nothing to a generator, and in the
        dual pair chain's pick tables (built from the same sums) such a
        row has zero width, so a uniform picks it only through round-off,
        when it is the last row and `pick_table` forces its cumulative
        entry up to 1.0.  Entries may be negative for kernels that satisfy
        orthogonality but not the single-site-update condition.
        """
        out = dict(self._single)
        for jump, rate in self.near_rates.get(tuple(w), {}).items():
            if jump != (self.zero, self.zero):
                out[jump] = out.get(jump, 0.0) + rate
        return sorted(out.items())

    def negative_offdiag(self):
        """Off-diagonal entries below -MOMENT_TOL, as (w, jump, rate)
        tuples in increasing w.  Offsets without near rates have single
        moves only, at rates mu(-a) > 0."""
        return [(w, jump, rate) for w in sorted(self.near_rates)
                for jump, rate in self.x_jump_rates(w) if rate < -MOMENT_TOL]


# ---------------------------------------------------------------------------
# Truncated-generator oracle


@dataclass(eq=False)
class OracleSolution:
    radius: int
    sites: list                 # box sites, index order of the u arrays
    times: list
    u: list                     # per time: (M, M) array, M = len(sites)
    kappa1: float
    boundary_leak: list
    site_index: dict = field(repr=False, default_factory=dict)

    def value(self, ti, x, xt):
        return float(self.u[ti][self.site_index[tuple(x)], self.site_index[tuple(xt)]])

    def normalized(self, ti):
        """u(t) * exp(-2 kappa_1 t): second moments of the normalized field."""
        return self.u[ti] * math.exp(-2.0 * self.kappa1 * self.times[ti])


def _box_sites(d, R):
    n = 2 * R + 1
    return [tuple(x) for x in (np.indices((n,) * d).reshape(d, -1).T - R).tolist()]


def _box_shift(d, R, z):
    """For each box site x: whether x + z lies in the box, and its index.

    Indices follow the C order of ``_box_sites``; outside sites get a
    clipped (meaningless) index, masked by the first array.
    """
    n = 2 * R + 1
    y = np.indices((n,) * d).reshape(d, -1) + np.asarray(z, dtype=np.int64)[:, None]
    inside = np.all((y >= 0) & (y < n), axis=0)
    return inside, np.ravel_multi_index(np.clip(y, 0, n - 1), (n,) * d)


def _box_generator(walk: WalkSpec, R, potential=0.0):
    """L + potential for the walk killed outside the box |x|_inf <= R.

    CSR matrix on the (2R+1)^d box in ``_box_sites`` order: rates[z] at
    (x, x + z) when x + z lies in the box, and -total_rate + potential(x)
    on the diagonal (``potential`` is a scalar or one value per site).
    """
    import scipy.sparse

    M = (2 * R + 1) ** walk.d
    rows, cols = [np.arange(M)], [np.arange(M)]
    vals = [np.broadcast_to(potential - walk.total_rate, (M,))]
    for z, q in walk.rates.items():
        inside, target = _box_shift(walk.d, R, z)
        rows.append(np.flatnonzero(inside))
        cols.append(target[inside])
        vals.append(np.full(len(rows[-1]), q))
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(M, M))


def _box_walk(kernel: Kernel, symmetrized=True) -> WalkSpec:
    try:
        return walk_from_kernel(kernel, symmetrized)
    except DegenerateWalkError:
        # no mass moves between sites: the generator is its diagonal
        return WalkSpec(d=kernel.d, rates={}, total_rate=0.0,
                        kappa2=kernel_moments(kernel).kappa2)


def _pair_generator(table: GammaTable, R):
    """Gamma on the pair box, pair (x, xt) at index i(x) * M + i(xt).

    The two components move independently by the Kronecker sum L + L of
    the one-point generator with potential kappa_1 (diagonal mu(0) - 1);
    the cross and joint-move terms of ``table.near_rates`` are added on
    top, only at the pair offsets w where they live.
    """
    import scipy.sparse

    d = table.d
    L = _box_generator(_box_walk(table.kernel, symmetrized=False), R,
                       table.kappa1)
    M = L.shape[0]
    pairs = np.arange(M)
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for w, jumps in table.near_rates.items():
        in_t, i_t = _box_shift(d, R, _neg(w))            # xt = x - w
        for (dy, dyt), rate in jumps.items():
            in_y, i_y = _box_shift(d, R, dy)
            in_yt, i_yt = _box_shift(d, R, _add(_neg(w), dyt))
            ok = in_t & in_y & in_yt
            rows.append(pairs[ok] * M + i_t[ok])
            cols.append(i_y[ok] * M + i_yt[ok])
            vals.append(np.full(len(rows[-1]), rate))
    near = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(M * M, M * M))
    return scipy.sparse.kronsum(L, L, format="csr") + near


def _integrate(A, y0, times):
    """exp(t A) y0 at each of the non-decreasing times, one expm_multiply per interval."""
    import scipy.sparse.linalg

    t, y, out = 0.0, np.asarray(y0, dtype=float), []
    for T in times:
        if T < t:
            raise FeynmanKacError("times must be increasing")
        if T > t:
            y = scipy.sparse.linalg.expm_multiply((T - t) * A, y)
        out.append(y)
        t = T
    return out


def _box_initial(d, R, initial):
    """The sites of the box |x|_inf <= R in Z^d, their index map and the
    initial masses as a vector over them; a site outside the box, or of
    another dimension, raises FeynmanKacError."""
    sites = _box_sites(d, R)
    index = {s: i for i, s in enumerate(sites)}
    eta0 = np.zeros(len(sites))
    for x, m in initial:
        i = index.get(tuple(x))
        if i is None:
            raise FeynmanKacError(f"initial site {x} outside the box "
                                  f"|x|_inf <= {R} in Z^{d}")
        eta0[i] += float(m)
    return sites, index, eta0


def oracle_two_point(kernel: Kernel, initial, times, radius) -> OracleSolution:
    """Solve u' = Gamma u for u(t,x,xt) = P[eta_{t,x} eta_{t,xt}].

    Pairs outside the box |x|_inf, |xt|_inf <= radius are absorbing with
    u = 0, so values near the boundary are biased low; the per-time
    fraction of mass on boundary pairs is reported as ``boundary_leak``.
    State count is (2R+1)^(2d): d = 1, or d = 2 up to R of about 8.
    """
    if np.isscalar(times):
        times = [times]
    times = [float(t) for t in times]
    d, R = kernel.d, int(radius)
    sites, index, eta0 = _box_initial(d, R, initial)
    M = len(sites)

    table = GammaTable(kernel)
    A = _pair_generator(table, R)
    u0 = np.outer(eta0, eta0).ravel()

    snaps = _integrate(A, u0, times)
    boundary = np.array([max(abs(c) for c in s) >= R for s in sites])
    pair_boundary = boundary[:, None] | boundary[None, :]
    leaks = []
    for y in snaps:
        u = np.abs(y.reshape(M, M))
        tot = u.sum()
        leaks.append(float(u[pair_boundary].sum() / tot) if tot > 0 else 0.0)
    return OracleSolution(
        radius=R, sites=sites, times=times,
        u=[y.reshape(M, M) for y in snaps],
        kappa1=table.kappa1, boundary_leak=leaks, site_index=index,
    )


def one_point_profile(kernel: Kernel, initial, t, radius):
    """P[eta_{t,x}] on a box via the one-point walk's truncated generator.

    The mean solves m' = L_X m + kappa_1 m with L_X f(x) =
    sum_y E[K_{x-y}] (f(y) - f(x)); we evolve v' = L_X v from eta_0
    and scale by exp(kappa_1 t).
    """
    R = int(radius)
    _, index, v0 = _box_initial(kernel.d, R, initial)
    A = _box_generator(_box_walk(kernel, symmetrized=False), R)
    v = _integrate(A, v0, [float(t)])[0]
    scale = math.exp(kernel_moments(kernel).kappa1 * float(t))
    return {s: scale * float(v[i]) for s, i in index.items()}


def exp_local_time_moment(kernel: Kernel, t, start=None, f=None) -> float:
    """E_S^start[exp(kappa_2/2 * local time at 0 up to 2t) f(S_2t)].

    Deterministic Schrodinger-semigroup value: evolves
    v' = (L_S + kappa_2/2 delta_0) v from v = f on a truncated box; f
    maps an (M, d) array of sites to M values, as for the estimators, and
    defaults to 1.  The brute-force reference the Monte Carlo estimators
    are tested against: for a single initial particle, f = 1 gives
    P[|etabar_t|^2] and f = f_delta0 the overlap sum_x P[etabar_{t,x}^2];
    from a pair offset ``start`` (default 0) they are that pair's terms.
    The box reaches six walk standard deviations past both the origin
    and ``start``.  Its truncation is not exact: for BCPP d=3 at
    t <= 1 the value sits about 4e-8 relative below the one a box a few
    sites larger converges to.
    """
    walk = _box_walk(kernel)
    beta = 0.5 * walk.kappa2
    T = 2.0 * float(t)
    d = kernel.d
    start = tuple(start) if start is not None else tuple([0] * d)
    var = max(sum(z[i] ** 2 * q for z, q in walk.rates.items())
              for i in range(d))
    R = (int(math.ceil(6.0 * math.sqrt(var * T))) + kernel.r_K
         + max(map(abs, start)))
    sites = _box_sites(d, R)
    index = {s: i for i, s in enumerate(sites)}
    potential = np.zeros(len(sites))
    potential[index[tuple([0] * d)]] = beta
    A = _box_generator(walk, R, potential)
    v0 = (np.ones(len(sites)) if f is None
          else np.asarray(f(np.asarray(sites)), dtype=float))
    v = _integrate(A, v0, [T])[0]
    return float(v[index[start]])


# ---------------------------------------------------------------------------
# Weighted-walk (FK3) estimator


@dataclass
class EstimateResult:
    value: float
    standard_error: float
    samples: int
    metadata: dict = field(default_factory=dict)


def f_one(offsets):
    return np.ones(len(offsets))


def f_delta0(offsets):
    return (~np.asarray(offsets).any(axis=1)).astype(float)


def _initial_pair_offsets(initial):
    """Aggregated weights eta0_x * eta0_xt keyed by the pair offset x - xt."""
    wmap = {}
    for x, mx in initial:
        for xt, mxt in initial:
            w0 = tuple(a - b for a, b in zip(x, xt))
            wmap[w0] = wmap.get(w0, 0.0) + float(mx) * float(mxt)
    return wmap


_HILL_K = 200   # order statistics the Hill index is taken over


def hill_index(sample):
    """Hill (1975) estimate of the Pareto tail index of a nonnegative
    sample's positive values (zeros, such as extinct replicas', are no tail).

    1 / mean(log(X_(i) / X_(k+1))) over the k = 200 largest order
    statistics X_(1) >= ... >= X_(k); nan for k positive values or fewer.
    Below 2 the variance is infinite and a standard error is no error bar.
    """
    x = np.asarray(sample, dtype=float)
    n, k = len(x), _HILL_K
    if np.count_nonzero(x > 0.0) <= k:  # else the top k + 1 are positive
        return math.nan
    top = np.partition(x, n - k - 1)[n - k - 1:]
    mean_log = float(np.mean(np.log(top[1:] / top[0])))
    return 1.0 / mean_log if mean_log > 0.0 else math.inf


def fk3_estimate(kernel: Kernel, initial, t, f, samples, seed,
                 kappa2_override=None) -> EstimateResult:
    """Monte Carlo for sum_{x,xt} P[etabar_{t,x} etabar_{t,xt}] f(x - xt).

    Simulates the symmetrized walk to time 2t from every initial pair
    offset, weighting by exp(kappa_2/2 * exact local time at 0).  The
    weight is heavy tailed near criticality (Pareto index
    2/(kappa_2 G(0)) in theory), so the metadata holds the weights'
    ``hill_index`` over all offsets, before f: below 2 the weight has
    infinite variance and the standard error is no error bar (nan for a
    frozen walk, which draws no sample).
    """
    mom = kernel_moments(kernel)
    kappa2 = mom.kappa2 if kappa2_override is None else float(kappa2_override)
    wmap = _initial_pair_offsets(initial)
    horizon = 2.0 * float(t)
    try:
        walk = walk_from_kernel(kernel)
    except DegenerateWalkError:
        # frozen walk: local time is the full horizon iff started at 0
        value = sum(W * math.exp(0.5 * kappa2 * horizon * (not any(w0))) *
                    float(f(np.asarray([w0]))[0]) for w0, W in wmap.items())
        return EstimateResult(value=value, standard_error=0.0, samples=0,
                              metadata={"kappa2": kappa2, "horizon": horizon,
                                        "hill_index": math.nan})
    rng = seeded_rng(seed, 0x1D3)
    value = 0.0
    var = 0.0
    plain_weights = []
    for w0 in sorted(wmap):
        W = wmap[w0]
        pos, loc = simulate_walk(walk, w0, horizon, samples, rng)
        weight = np.exp(0.5 * kappa2 * loc)
        vals = weight * np.asarray(f(pos), dtype=float)
        value += W * vals.mean()
        var += W**2 * vals.var(ddof=1) / samples if samples > 1 else 0.0
        plain_weights.append(weight)
    return EstimateResult(value=value, standard_error=math.sqrt(var),
                          samples=samples * len(wmap),
                          metadata={"kappa2": kappa2, "horizon": horizon,
                                    "hill_index": hill_index(
                                        np.concatenate(plain_weights))})


# ---------------------------------------------------------------------------
# Importance-sampled limit estimator (Doob tilt)
#
# The plain weight exp(kappa_2/2 L) has Pareto tail index 2/(kappa_2 G(0)),
# barely above 1 near criticality: the sample mean then misses an O(n^{1-1/a})
# chunk carried by unseen tail events and no feasible sample size reaches the
# t -> infinity closed form.  Tilting the walk by (an approximation of) the
# harmonic function h of the Schrodinger operator L_S + beta delta_0 and
# carrying the exact pathwise Girsanov weight keeps the estimator unbiased for
# ANY tilt field - only the variance depends on the tilt quality - and the
# weights collapse to the bounded h(x0)/h(S_T) band.


class _HField:
    """Approximate h(x) = 1 + kappa_2 G(x)/(2 - kappa_2 G(0)) on all of Z^d.

    Inside a box the Green values come from a truncated solve corrected
    by a constant boundary deficit (calibrated against quadrature
    references); outside, from the continuum far field
    G(x) ~ 1/(4 pi sqrt(det A) sqrt(x' A^-1 x)) with A the diffusion
    matrix of the walk.  Only estimator variance depends on the quality
    of this field; the importance weights are exact for any field.

    One padded table covers |x|_inf <= R + 2 rho, rho the walk's longest
    step in l-inf: the box values inside R, and on the ring around it the
    far field, computed by the same element-wise expression as everywhere
    else outside the box, so either route gives the same bits.  ``table``
    is the box, a view of the padded table.

    The quadrature that calibrates the box also evaluates G at the extra
    ``offsets`` (each offset's sum is its own, so they leave the field
    unchanged): ``h_values`` holds the exact h at every quadrature
    offset, bit for bit as ``walk.h_of_x`` computes it.
    """

    def __init__(self, walk: WalkSpec, radius=40, offsets=()):
        from . import walk as walk_mod

        if walk.d < 3:
            raise FeynmanKacError("tilted estimator requires d >= 3")
        self.kappa2 = walk.kappa2
        self.d = d = walk.d
        self.radius = R = int(radius)
        refs = [tuple([0] * d), (1,) + (0,) * (d - 1), (3,) + (0,) * (d - 1)]
        qtab = walk_mod.green(walk, offsets=refs + list(offsets))
        if qtab.criterion_value >= 1.0:
            raise walk_mod.DivergentHError(
                f"criterion value {qtab.criterion_value} >= 1: "
                "exponential moment diverges")
        self.h_values = qtab.h_values
        gbox = walk_mod.green_box(walk, R)
        deficit = float(np.mean([qtab.values[x] - gbox[tuple(c + R for c in x)]
                                 for x in refs]))
        gbox = gbox + deficit
        self.g0 = qtab.g0
        denom = 2.0 - self.kappa2 * self.g0
        A = np.zeros((d, d))
        for z, q in walk.rates.items():
            za = np.asarray(z, dtype=float)
            A += 0.5 * q * np.outer(za, za)
        self.A_inv = np.linalg.inv(A)
        self.far_const = math.gamma((d - 2) / 2.0) / (
            4.0 * math.pi ** (d / 2.0) * math.sqrt(np.linalg.det(A)))
        self.denom = denom
        self._far_terms = [(i, j, float(self.A_inv[i, j]))
                           for i in range(d) for j in range(d)
                           if self.A_inv[i, j] != 0.0]

        self.steps = steps = np.asarray(sorted(walk.rates), dtype=np.int64)
        rho = int(np.abs(steps).max())
        self._pad = P = R + 2 * rho
        n = 2 * P + 1
        padded = np.empty((n,) * d)
        box = (slice(2 * rho, n - 2 * rho),) * d
        padded[box] = np.maximum(1.0 + self.kappa2 * gbox / denom, 1.0)
        # the ring R < |x|_inf <= P, one slab per axis i: |x_j| <= R for
        # j < i and |x_i| > R (no coordinates for the whole cube)
        line = np.arange(-P, P + 1)
        ring = np.concatenate([line[:2 * rho], line[n - 2 * rho:]])
        for i in range(d):
            axes = [line[box[0]]] * i + [ring] + [line] * (d - i - 1)
            slab = np.stack(np.broadcast_arrays(*np.ix_(*axes)))
            padded[np.ix_(*(a + P for a in axes))] = self._far(slab)
        self.table = padded[box]
        self._flat = padded.ravel()
        # flat index of x in the padded table: strides . x + centre
        self._strides = n ** np.arange(d - 1, -1, -1)
        self._centre = int(self._strides.sum()) * P
        # a path within `_reach` of the origin finds itself and all its
        # neighbours in the table, at these flat indices from its own
        self._reach = R + rho
        here_and_nb = np.vstack([np.zeros(d, np.int64), steps])
        self._nb_flat = (here_and_nb @ self._strides + self._centre)[:, None]
        # as floats, exact for these integers, so that the far field
        # converts no coordinate on each call
        self._nb_coords = here_and_nb.T[:, :, None].astype(float)

    def _far(self, X):
        """The far field at the points X[:, ...] (coordinates on axis 0),
        none at the origin.  The quadratic form x' A^-1 x is summed term by
        term in row-major order over the nonzero entries of A^-1, which
        reproduces ``einsum("bi,ij,bj->b")`` bit for bit."""
        r2 = np.zeros(X.shape[1:])
        for i, j, a in self._far_terms:
            r2 += X[i] * a * X[j]
        g = self.far_const / np.sqrt(r2) ** (self.d - 2)
        return 1.0 + self.kappa2 * g / self.denom

    def lookup(self, xs):
        """h-tilde at integer points given coordinate-wise.

        ``xs`` holds one int array per coordinate, all of one shape; the
        result has that shape.  Points in the padded table read it at one
        flat index; only the points beyond it go through the far field.
        """
        X = np.asarray(xs)
        inside = np.abs(X).max(axis=0) <= self._pad
        out = np.empty(inside.shape)
        out[inside] = self._flat.take(self._strides @ X[:, inside]
                                      + self._centre)
        far = ~inside
        out[far] = self._far(X[:, far])
        return out

    def around(self, xs):
        """h-tilde at each path's position and its neighbours x + z.

        ``xs`` holds the n paths' coordinates, one int array each; returns
        the (K+1, n) values, row 0 at the positions and row k at step k-1
        of ``steps``, equal bit for bit to ``lookup`` of those points, and
        the mask of the paths at the origin.  Every path reads its K+1
        points from the table in one ``take``; a path beyond R + rho, with
        every point outside the box, then has them replaced by the far
        field, which only such paths go through.
        """
        X = np.asarray(xs)
        near = np.abs(X).max(axis=0) <= self._reach
        flat = self._strides @ X
        far = np.flatnonzero(~near)
        h = self._flat.take(self._nb_flat + np.where(near, flat, 0))
        h[:, far] = self._far(X.take(far, axis=1)[:, None] + self._nb_coords)
        return h, near & (flat == 0)


def fk3_limit_estimate(kernel: Kernel, offset, t, samples, seed, f=None,
                       batch=50_000) -> EstimateResult:
    """E_S^offset[exp(kappa_2/2 * local time at 0 up to 2t) f(S_{2t})]
    by importance sampling under the h-tilted walk.

    Unbiased for the same estimand as the plain weighted walk, with
    bounded weights, so large horizons (the t -> infinity regime of the
    covariance formula) are reachable.  f defaults to 1.  The metadata
    reports the health of the importance weights w (before f): the
    effective sample size (sum w)^2 / sum w^2 (Kong 1992) and the largest
    weight's share of sum w.  For f = 1 it also holds ``limit``, the
    exact h(offset) = 1 + kappa_2 G(offset)/(2 - kappa_2 G(0)) that the
    estimand tends to as t -> infinity (None for any other f), from the
    Green quadrature that builds the h-field.
    """
    # checked before the h-field build, which a bad count would waste
    if samples < 1:
        raise WalkError(f"samples must be at least 1, got {samples}")
    walk = walk_from_kernel(kernel)
    offset = tuple(offset)
    field = _HField(walk, offsets=[offset])
    beta = 0.5 * walk.kappa2
    steps = field.steps
    K = len(steps)
    q = np.asarray([walk.rates[tuple(z)] for z in steps])[:, None]
    lam = q.sum()
    T = 2.0 * float(t)
    start = np.asarray(offset, dtype=np.int64)
    rng = seeded_rng(seed, 0x7117)

    def rates(xs, e):
        # the tilted rates q(z) h(x+z)/h(x), one row per step; the
        # Girsanov integrand is their total's excess over the walk's total
        # rate, summed as numpy sums each path's row of K rates in the
        # (paths, steps) memory layout (pairwise from K = 8 on)
        h, at0 = field.around(xs)
        cum = q * h[1:] / h[0]
        lam_t = np.ascontiguousarray(cum.T).sum(axis=1)
        # then their partial sums over the steps, in place
        for k in range(1, K):
            cum[k] += cum[k - 1]

        def pick(u):
            # the partial sums below u * lam_t; they do not decrease, so
            # counting K-1 of them caps the step index at K-1
            return (cum[:-1] < u * lam_t).sum(axis=0)
        return at0, e / lam_t, lam_t - lam, pick

    total = 0.0
    total_sq = 0.0
    w_sum = w_sq = w_max = 0.0   # importance weights alone, for the ESS
    h_start = float(field.lookup(start[:, None])[0])
    for xs, L, acc in jump_chain(start, steps, T, samples, rng, rates, batch):
        h_end = field.lookup(xs)
        logw = beta * L + math.log(h_start) - np.log(h_end) + acc
        w = np.exp(logw)
        w_sum += w.sum()
        w_sq += (w**2).sum()
        w_max = max(w_max, float(w.max()))
        if f is not None:
            w = w * np.asarray(f(np.stack(xs, axis=1)), dtype=float)
        total += w.sum()
        total_sq += (w**2).sum()
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return EstimateResult(value=float(mean),
                          standard_error=math.sqrt(var / samples),
                          samples=samples,
                          metadata={"method": "h-tilted importance sampling",
                                    "horizon": T,
                                    "ess": float(w_sum**2 / w_sq),
                                    "max_weight_share": float(w_max / w_sum),
                                    "limit": (field.h_values[offset]
                                              if f is None else None)})


# ---------------------------------------------------------------------------
# Dual pair-chain simulation


class _PairChainTables:
    """Jump tables of the dual pair chain (Y, Yt), one row per joint jump
    (dy, dyt): the diagonal rows first, then the off-diagonal ones."""

    def __init__(self, kernel):
        table = GammaTable(kernel)
        if table.negative_offdiag():
            raise UnsupportedKernelError(
                "kernel yields negative off-diagonal pair rates; "
                "use the ODE oracle instead")
        # the transposed moves: off the diagonal the two components are
        # free walks jumping by z at rate E[K_z]; on it, single moves pick
        # up c2(z, 0) and joint moves (u, v) run at c2(u, v)
        zero2 = (table.zero, table.zero)
        off = {(_neg(a), _neg(b)): m for (a, b), m in table._single.items()}
        diag = dict(off)
        for jumps in table.near_rates.values():
            for (dy, dyt), rate in jumps.items():
                if (dy, dyt) != zero2:
                    jump = (_neg(dy), _neg(dyt))
                    diag[jump] = diag.get(jump, 0.0) + rate
        diag, off = sorted(diag.items()), sorted(off.items())
        self.jumps = np.asarray([dy + dyt for (dy, dyt), _ in diag + off],
                                dtype=np.int64).reshape(-1, 2 * kernel.d)
        self.n_diag = len(diag)
        rates = [np.asarray([r for _, r in g], dtype=float) for g in (diag, off)]
        self.rate_diag, self.rate_off = (r.sum() for r in rates)
        self.diag_cum, self.off_cum = (pick_table(r) for r in rates)


def pair_chain_samples(kernel: Kernel, start_pair, t, samples, rng,
                       batch=200_000):
    """Simulate the dual pair chain from (y0, yt0) up to time t.

    Returns (Y, Yt, local_time) with the exact time spent on the pair
    diagonal.  Rates are state independent off the diagonal (two free
    copies of the one-particle walk) and pick up the joint-move terms on
    the diagonal.
    """
    tab = _PairChainTables(kernel)
    d = kernel.d
    y0 = np.asarray(start_pair[0], dtype=np.int64)
    yt0 = np.asarray(start_pair[1], dtype=np.int64)
    T = float(t)

    def rates(xs, e):
        diag = xs[0] == xs[d]
        for i in range(1, d):
            diag &= xs[i] == xs[d + i]
        rate = np.where(diag, tab.rate_diag, tab.rate_off)
        hold = np.where(rate > 0, e / np.maximum(rate, 1e-300), np.inf)

        # a path whose group has no jumps (all of them, for a kernel that
        # moves no mass) never steps: its hold is inf
        def pick(u):
            return np.where(diag, pick_step(tab.diag_cum, u),
                            tab.n_diag + pick_step(tab.off_cum, u))
        return diag, hold, None, pick

    out = list(jump_chain(np.concatenate([y0, yt0]), tab.jumps, T, samples,
                          rng, rates, batch))
    return (np.concatenate([np.stack(xs[:d], axis=1) for xs, _, _ in out]),
            np.concatenate([np.stack(xs[d:], axis=1) for xs, _, _ in out]),
            np.concatenate([loc for _, loc, _ in out]))


def pair_chain_histogram(kernel: Kernel, initial, t, samples, seed):
    """Weighted endpoint histogram: (x, xt) -> P[etabar_{t,x} etabar_{t,xt}].

    Runs the dual pair chain ``samples`` times from every ordered pair of
    initial sites, weighted by eta0_x eta0_xt exp(kappa_2 * diagonal local
    time), and gives every pair value at once: the sum over the starts of
    each start's weighted endpoint mean, with the standard error from the
    sum of the starts' variances; requires nonnegative off-diagonal pair
    rates.
    """
    rng = seeded_rng(seed, 0x9A1)
    kappa2 = kernel_moments(kernel).kappa2
    d = kernel.d
    values, var = {}, {}
    for x, mx in initial:
        for xt, mxt in initial:
            Y, Yt, loc = pair_chain_samples(kernel, (x, xt), t, samples, rng)
            w = float(mx) * float(mxt) * np.exp(kappa2 * loc)
            cells, cell = np.unique(np.concatenate([Y, Yt], axis=1), axis=0,
                                    return_inverse=True)
            mean = np.bincount(cell, w) / samples
            sq = np.bincount(cell, w * w) / samples
            for c, m, v in zip(cells.tolist(), mean.tolist(),
                               ((sq - mean**2) / samples).tolist()):
                key = (tuple(c[:d]), tuple(c[d:]))
                values[key] = values.get(key, 0.0) + m
                var[key] = var.get(key, 0.0) + max(v, 0.0)
    return values, {k: math.sqrt(v) for k, v in var.items()}

