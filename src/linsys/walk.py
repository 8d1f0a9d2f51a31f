"""Symmetrized random walk, its Green function and the survival criterion.

The walk S attached to a kernel jumps by z at rate
q(z) = (E[K_z] + E[K_{-z}])/2 (z != 0).  Its Green function

    G(x) = integral_0^inf P(S_t = x | S_0 = 0) dt
         = (2 pi)^{-d} int_{[-pi,pi]^d} cos(x . theta) / phi(theta) dtheta,
    phi(theta) = sum_z q(z) (1 - cos(z . theta)),

is finite only for d >= 3.  G(0) controls everything here: the return
probability of the embedded jump chain is pi_d = 1 - 1/(total_rate*G(0))
(sojourn decomposition: G(0) = holding 1/total_rate times expected number
of visits 1/(1-pi_d)), the survival criterion is kappa_2*G(0)/2 < 1, and
under the criterion the exponential local-time moment is

    h(x) = 1 + kappa_2 G(x) / (2 - kappa_2 G(0)).

Two independent routes compute G: tensor midpoint quadrature of the
Fourier integral with dyadic refinement toward the theta = 0 singularity
plus Richardson extrapolation, and a truncated-lattice solve of
(-L_S) g = delta_0 with absorbing exterior (monotone from below in the
box radius).  The truncated solve is matrix-free conjugate gradients on
the (2R+1)^d box, preconditioned by phi in the discrete sine basis: the
fast Poisson solver of Buzbee, Golub & Nielson (1970), exact for
nearest-neighbour walks and close for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import Kernel, kernel_moments


class WalkError(ValueError):
    pass


class RecurrentDimensionError(WalkError):
    """G(0) = infinity: the walk is recurrent for d <= 2."""


class DegenerateWalkError(WalkError):
    """All jump rates vanish."""


class DivergentHError(WalkError):
    """h(x) is infinite when the survival criterion fails."""


class ConvergenceError(WalkError):
    """A numerical solve stopped short of its tolerance."""


@dataclass(eq=False)
class WalkSpec:
    """Jump rates of the walk attached to a kernel.

    ``rates[z]`` is the rate of a jump *by displacement z*.  For the
    symmetrized walk this is q(z) = (E[K_z] + E[K_{-z}])/2; for the
    one-point walk (symmetrized=False) the generator
    L_X f(x) = sum_y E[K_{x-y}] (f(y) - f(x)) jumps from x to y = x - z
    at rate E[K_z], i.e. rates[z] = E[K_{-z}].
    """

    d: int
    rates: dict
    total_rate: float
    kappa2: float = 0.0


@dataclass(eq=False)
class GreenTable:
    values: dict              # offset -> G(x)
    g0: float
    pi_d: float
    criterion_value: float    # kappa_2 G(0) / 2
    h_values: dict            # offset -> h(x), empty if criterion >= 1
    method: str = "fourier_quadrature"
    resolution: int = 0
    error_estimate: float = math.inf


def walk_from_kernel(kernel: Kernel, symmetrized: bool = True) -> WalkSpec:
    mu = kernel.mean_vector
    zero = tuple([0] * kernel.d)
    rates = {}
    offs = set(mu)
    offs.update(tuple(-c for c in x) for x in mu)
    for z in offs:
        if z == zero:
            continue
        mz = tuple(-c for c in z)
        if symmetrized:
            r = 0.5 * (mu.get(z, 0.0) + mu.get(mz, 0.0))
        else:
            r = mu.get(mz, 0.0)
        if r > 0.0:
            rates[z] = r
    if not rates:
        raise DegenerateWalkError("walk has no nonzero jump rates")
    return WalkSpec(
        d=kernel.d,
        rates=rates,
        total_rate=sum(rates.values()),
        kappa2=kernel_moments(kernel).kappa2,
    )


# ---------------------------------------------------------------------------
# Green function


def _phi_on_grid(walk, axes, out=None):
    """phi(theta) on a tensor grid given 1-d axis arrays, written into
    ``out`` (a grid-shaped float array; a new one when None).

    The terms are added in ``walk.rates`` order onto a scalar 0.0, so
    each cell sees the same IEEE operations as a sum into a zero-filled
    grid; but the partial sum keeps its broadcast shape until it spans
    the grid, and only the later terms take full-grid passes, in place.
    """
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = tuple(len(a) for a in axes)
    if out is None:
        out = np.empty(shape)
    phi = 0.0
    for z, q in walk.rates.items():
        dot = sum(c * m for c, m in zip(z, mesh) if c != 0)
        # 2 sin^2(x/2) = 1 - cos(x) without cancellation at small angles
        term = q * 2.0 * np.sin(0.5 * dot) ** 2
        if np.broadcast_shapes(np.shape(phi), np.shape(term)) == shape:
            phi = np.add(phi, term, out=out)
        else:
            phi = phi + term
    if phi is not out:   # the terms never spanned the grid
        out[...] = phi
    return out, mesh


def _fourier_level_sums(walk, offsets, n, levels):
    """Midpoint sums of cos(x.theta)/phi over dyadic annuli around 0.

    Level k integrates over C_k \\ C_{k+1} with C_k = [-pi 2^-k, pi 2^-k]^d
    on an n-per-axis midpoint grid (n divisible by 4 so the inner half-cube
    is exactly the central block of cells).  The integrand is smooth on
    each annulus; the leftover cube C_levels contributes O(2^-levels).
    Two grid buffers serve every level: phi, inverted in place with the
    inner block zeroed, and the product cos(x.theta)/phi of one offset.
    """
    d = walk.d
    out = {x: 0.0 for x in offsets}
    lo, hi = n // 4, 3 * n // 4
    inner = (slice(lo, hi),) * d
    inv, prod = np.empty((n,) * d), np.empty((n,) * d)
    for k in range(levels):
        half = math.pi * 0.5**k
        step = 2.0 * half / n
        ax = -half + step * (np.arange(n) + 0.5)
        _, mesh = _phi_on_grid(walk, [ax] * d, out=inv)
        np.divide(1.0, inv, out=inv)
        inv[inner] = 0.0
        cell = step**d
        for x in offsets:
            if any(x):
                dot = sum(c * m for c, m in zip(x, mesh) if c != 0)
                np.multiply(np.cos(dot), inv, out=prod)
                out[x] += float(np.sum(prod)) * cell
            else:
                out[x] += float(np.sum(inv)) * cell
    return out


def _green_fourier(walk, offsets, n, levels=40):
    # the coarse grid of n/2 points needs its own inner half-cube on cell
    # boundaries, so n/2 is a multiple of 4
    if n % 8:
        raise WalkError("quadrature resolution must be a multiple of 8")
    coarse = _fourier_level_sums(walk, offsets, n // 2, levels)
    fine = _fourier_level_sums(walk, offsets, n, levels)
    norm = (2.0 * math.pi) ** walk.d
    values, err = {}, 0.0
    for x in offsets:
        a, b = coarse[x] / norm, fine[x] / norm
        # midpoint rule is O(h^2) on each smooth annulus
        values[x] = b + (b - a) / 3.0
        err = max(err, abs(b - a) / 3.0)
    return values, err


def _green_truncated(walk, offsets, radius):
    """Box-solve values at the offsets; 0 outside the box (absorbed)."""
    R = int(radius)
    box = green_box(walk, R)
    return {x: float(box[tuple(c + R for c in x)]) if max(map(abs, x)) <= R
            else 0.0 for x in offsets}


def green_box(walk: WalkSpec, radius):
    """Truncated-solve Green values as a dense array over [-R, R]^d.

    Solves (-L_S) g = delta_0 with absorbing exterior by conjugate
    gradients on the (2R+1)^d array: the operator is applied as a
    stencil, and the preconditioner is the walk's symbol phi in the
    DST-I basis, which diagonalizes nearest-neighbour walks exactly
    (Buzbee, Golub & Nielson 1970) and nearly diagonalizes the rest.
    ``box[R + x_1, ..., R + x_d]`` is the value at x.

    Absorbing exterior: every value underestimates G by roughly the mean
    Green value on the boundary (a nearly constant deficit ~ 1/R for
    d = 3), which callers can correct against quadrature references.
    """
    import scipy.fft
    import scipy.sparse.linalg

    if walk.d <= 2:
        raise RecurrentDimensionError("green_box requires d >= 3")
    d, R = walk.d, int(radius)
    n = 2 * R + 1
    shape = (n,) * d
    # row x reads x + z: dst holds the x with both x and x + z in the box
    moves = [(q, tuple(slice(max(-c, 0), n - max(c, 0)) for c in z),
              tuple(slice(max(c, 0), n + min(c, 0)) for c in z))
             for z, q in walk.rates.items() if max(map(abs, z)) < n]

    def apply(v):
        g = v.reshape(shape)
        out = walk.total_rate * g
        for q, dst, src in moves:
            out[dst] -= q * g[src]
        return out.ravel()

    theta = math.pi * np.arange(1, n + 1) / (n + 1)
    phi, _ = _phi_on_grid(walk, [theta] * d)
    # phi is smallest at the lowest mode unless the jumps generate only a
    # sublattice of Z^d; then phi nearly vanishes at its dual points, and
    # the floor keeps the preconditioner well conditioned
    phi = np.maximum(phi, phi[(0,) * d])

    def precondition(r):
        r_hat = scipy.fft.dstn(r.reshape(shape), type=1)
        return scipy.fft.idstn(r_hat / phi, type=1).ravel()

    size = n**d
    A = scipy.sparse.linalg.LinearOperator((size, size), matvec=apply,
                                           dtype=float)
    M = scipy.sparse.linalg.LinearOperator((size, size), matvec=precondition,
                                           dtype=float)
    rhs = np.zeros(shape)
    rhs[(R,) * d] = 1.0
    g, info = scipy.sparse.linalg.cg(A, rhs.ravel(), rtol=1e-12, atol=0.0,
                                     maxiter=20000, M=M)
    if info != 0:
        raise ConvergenceError(
            f"green_box solve did not converge (info={info})")
    return g.reshape(shape)


def green(walk: WalkSpec, offsets=None, method="fourier_quadrature",
          resolution=None) -> GreenTable:
    """Green function table, return probability and survival criterion.

    ``resolution`` is points per axis for the quadrature (default 64 for
    d = 3, 32 above) or the box radius for the truncated solve (default
    25 for d = 3).
    """
    if walk.d <= 2:
        raise RecurrentDimensionError(
            f"d={walk.d}: the walk is recurrent for d <= 2, G(0) diverges")
    zero = tuple([0] * walk.d)
    offsets = [tuple(x) for x in (offsets or [])]
    for x in offsets:
        if len(x) != walk.d:
            raise WalkError(f"offset {list(x)} has dimension {len(x)}, "
                            f"walk has {walk.d}")
    # each offset once: the quadrature adds one level sum per listed offset
    want = list(dict.fromkeys([zero] + offsets))

    if method == "fourier_quadrature":
        n = resolution or (64 if walk.d == 3 else 32)
        values, err = _green_fourier(walk, want, n)
        res = n
    elif method == "truncated_solve":
        R = resolution or (25 if walk.d == 3 else 8)
        outside = [x for x in want if max(map(abs, x)) > R]
        if outside:
            raise WalkError(f"offset {list(outside[0])} lies outside the "
                            f"truncated box of radius {R}")
        fine = _green_truncated(walk, want, R)
        coarse = _green_truncated(walk, want, max(R // 2, 2))
        values = fine
        err = max(abs(fine[x] - coarse[x]) for x in want)
        res = R
    else:
        raise WalkError(f"unknown green method {method!r}")

    g0 = values[zero]
    pi_d = 1.0 - 1.0 / (walk.total_rate * g0)
    criterion = 0.5 * walk.kappa2 * g0
    h = {}
    if criterion < 1.0:
        h = {x: 1.0 + walk.kappa2 * g / (2.0 - walk.kappa2 * g0)
             for x, g in values.items()}
    return GreenTable(values=values, g0=g0, pi_d=pi_d, criterion_value=criterion,
                      h_values=h, method=method, resolution=res,
                      error_estimate=err)


def survival_criterion(kernel: Kernel, resolution=None):
    """(kappa_2 G(0)/2, satisfied).  kappa_2 = 0 is trivially satisfied."""
    mom = kernel_moments(kernel)
    if mom.kappa2 == 0.0:
        return 0.0, True
    if kernel.d <= 2:
        raise RecurrentDimensionError(
            f"d={kernel.d}: criterion requires d >= 3 (walk recurrent below)")
    tab = green(walk_from_kernel(kernel), resolution=resolution)
    return tab.criterion_value, tab.criterion_value < 1.0


def simple_walk(d) -> WalkSpec:
    """Nearest-neighbor walk with unit rate per direction (scale-free uses)."""
    rates = {}
    for i in range(d):
        for s in (+1, -1):
            rates[tuple(s if j == i else 0 for j in range(d))] = 1.0
    return WalkSpec(d=d, rates=rates, total_rate=2.0 * d)


def return_probability(d, resolution=None):
    """Return probability pi_d of the simple random walk, d >= 3."""
    tab = green(simple_walk(d), resolution=resolution)
    return tab.pi_d


def bcpp_critical_lambda(d, resolution=None):
    """Critical BCPP rate 1/(2d(1 - 2 pi_d)) above which the criterion holds."""
    if d <= 2:
        raise RecurrentDimensionError("critical lambda defined only for d >= 3")
    pi_d = return_probability(d, resolution=resolution)
    return 1.0 / (2.0 * d * (1.0 - 2.0 * pi_d))


def h_of_x(kernel: Kernel, offsets, resolution=None):
    """h(x) = 1 + kappa_2 G(x)/(2 - kappa_2 G(0)) for the given offsets.

    One Green table serves both the survival criterion (from G(0)) and h.
    """
    if kernel_moments(kernel).kappa2 == 0.0:
        return {tuple(x): 1.0 for x in offsets}
    tab = green(walk_from_kernel(kernel), offsets=offsets, resolution=resolution)
    if tab.criterion_value >= 1.0:
        raise DivergentHError(f"criterion value {tab.criterion_value} >= 1: "
                              "exponential moment diverges")
    return {tuple(x): tab.h_values[tuple(x)] for x in offsets}


# ---------------------------------------------------------------------------
# Batched jump chain with exact holding times (Gillespie 1977): the one loop
# behind the plain walk, the h-tilted walk and the dual pair chain


def at_origin(xs):
    """Mask of the points, given one int array per coordinate, at 0."""
    at0 = xs[0] == 0
    for x in xs[1:]:
        at0 &= x == 0
    return at0


def pick_table(rates):
    """Normalized cumulative rates, ending at exactly 1.0, so that
    `pick_step` maps every uniform in [0, 1) to a step index."""
    rates = np.asarray(rates, dtype=float)
    cum = np.cumsum(rates / rates.sum())
    cum[-1:] = 1.0   # no-op for an empty table
    return cum


def pick_step(cum, u):
    """Step indices of the uniforms u in a `pick_table`: the count of
    entries below each u.  That is ``np.searchsorted(cum, u)`` for every
    u, ties included, at a fraction of its cost on a table of a few
    entries."""
    idx = np.zeros(len(u), dtype=np.intp)
    for c in cum:
        idx += u > c
    return idx


def jump_chain(start, steps, horizon, samples, rng, rates, batch):
    """Run `samples` paths of a continuous-time jump chain up to `horizon`.

    Paths start at the integer point `start`, are held as one int64 array
    per coordinate and move by the rows of `steps`.  Once per iteration
    ``rates(xs, e)`` maps the live paths' coordinate arrays and their unit
    exponentials e to (special, hold, drift, pick): the mask of the paths
    on the chain's special set, the holding times, an integrand to sum
    along each path up to the horizon (or None), and a function from the
    same paths' uniforms to step indices.

    Stream contract: a batch of b paths draws b exponentials per
    iteration, then b uniforms while some path is alive, and path i of
    the batch reads entry i of each draw.  The work is compacted: the
    live paths fill the front of the batch's arrays, and a path that
    passes the horizon swaps places with a live one from behind them, so
    its final row is kept and no later iteration touches it.  Yields per
    batch, in path order, the coordinate arrays at the horizon, the exact
    time spent on the special set and the integrals of the drift.
    """
    if samples < 1:
        raise WalkError(f"samples must be at least 1, got {samples}")
    steps = np.asarray(steps, dtype=np.int64)
    moves = list(steps.T)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        xs = [np.full(b, c) for c in start]
        t, loc, acc = np.zeros(b), np.zeros(b), np.zeros(b)
        rows = np.arange(b)   # the batch index of the path in each slot
        n = b                 # the paths in slots [0, n) are alive
        while True:
            e = rng.exponential(1.0, b).take(rows[:n])
            special, hold, drift, pick = rates([x[:n] for x in xs], e)
            dt = np.minimum(hold, horizon - t[:n])
            loc[:n] += np.where(special, dt, 0.0)
            if drift is not None:
                acc[:n] += drift * dt
            t[:n] += hold
            alive = t[:n] < horizon
            k = np.count_nonzero(alive)
            if k == 0:
                break
            idx = pick(rng.random(b).take(rows[:n]))
            if k < n:
                # finished paths swap places with live ones from [k, n);
                # pick has run, since its arrays cover slots [0, n)
                holes = np.flatnonzero(~alive[:k])
                movers = k + np.flatnonzero(alive[k:])
                for a in (*xs, t, loc, acc, rows, idx):
                    a[holes], a[movers] = a[movers], a[holes]
                n, idx = k, idx[:k]
            for x, m in zip(xs, moves):
                x[:n] += m.take(idx)
        for a in (*xs, loc, acc):
            a[rows] = a.copy()
        yield xs, loc, acc
        done += b


def simulate_walk(walk: WalkSpec, start, horizon, samples, rng,
                  batch=200_000):
    """Simulate `samples` paths of the walk up to `horizon`.

    Returns (positions, local_time) where positions is (samples, d) at the
    horizon and local_time[i] is the exact total time path i spent at the
    origin (accumulated from the exponential holding times, no time
    discretization).
    """
    steps = sorted(walk.rates)
    cum = pick_table([walk.rates[z] for z in steps])
    scale = 1.0 / walk.total_rate

    def rates(xs, e):
        # exponential(1.0) * scale is exponential(scale), bit for bit
        return at_origin(xs), e * scale, None, lambda u: pick_step(cum, u)

    out = list(jump_chain(np.asarray(start, dtype=np.int64), steps, horizon,
                          samples, rng, rates, batch))
    return (np.concatenate([np.stack(xs, axis=1) for xs, _, _ in out]),
            np.concatenate([loc for _, loc, _ in out]))
