"""Branching kernels: finite-atom laws of the random update vector.

A kernel is the distribution of a random nonnegative vector
``K = (K_x)_{x in Z^d}`` with finitely many realizations (atoms).  An
update event at site ``z`` replaces the configuration by

    eta_z     <- K_0 * eta_z
    eta_{z+u} <- eta_{z+u} + K_u * eta_z      (u != 0)

so the kernel fully determines the dynamics.  The binary contact path
process (BCPP) with parameter ``lambda`` is the special case with a death
atom (K = 0, probability 1/(2*d*lambda+1)) and, for each of the 2d unit
offsets e, a branch atom K = delta_0 + delta_e (probability
lambda/(2*d*lambda+1)).

This module computes the moment constants

    kappa_p = sum_x E[(K_x - delta_{x,0})^p]      (p = 1, 2)
    m       = sum_x x E[K_x]
    Sigma   = sum_x x x^T E[K_x]

and validates the structural conditions used elsewhere: support of E[K]
spans R^d, vanishing cross-correlations of K - delta_0 (orthogonality),
the stronger single-site-update property, and nonnegativity of the
off-diagonal pair-chain rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_TOL = 1e-12
MOMENT_TOL = 1e-12

Offset = tuple


class KernelError(ValueError):
    """Invalid kernel construction or arguments."""


def _as_offset(x, d):
    t = tuple(int(c) for c in x)
    # comparing with x itself rejects fractional coordinates
    if len(t) != d or t != tuple(x):
        raise KernelError(f"offset {x!r} is not {d} integers")
    return t


def _l1(x):
    return sum(abs(c) for c in x)


class Kernel:
    """Finite-atom law of the random branching vector.

    Parameters
    ----------
    d : int
        Lattice dimension.
    atoms : iterable of (probability, {offset: value})
        Realizations of K.  Zero values are dropped (canonical sparse
        form), so equality is representation independent.
    """

    def __init__(self, d, atoms):
        if d < 1:
            raise KernelError(f"dimension must be >= 1, got {d}")
        self.d = int(d)
        canon = []
        total_p = 0.0
        for p, vec in atoms:
            p = float(p)
            # "not" around the comparison also rejects NaN
            if not -PROB_TOL <= p <= 1 + PROB_TOL:
                raise KernelError(f"atom probability {p} outside [0, 1]")
            total_p += p
            v = {}
            for x, val in dict(vec).items():
                val = float(val)
                if not 0 <= val < math.inf:
                    raise KernelError(f"kernel value {val} at {x} is not "
                                      "finite and >= 0")
                if val != 0.0:
                    v[_as_offset(x, self.d)] = val
            canon.append((p, v))
        if abs(total_p - 1.0) > PROB_TOL:
            raise KernelError(f"atom probabilities sum to {total_p}, not 1")
        self.atoms = tuple(canon)
        self.b_K = max((val for _, v in canon for val in v.values()), default=0.0)
        self.r_K = max((_l1(x) for _, v in canon for x in v), default=0)
        # mean vector mu(x) = E[K_x] on the support union
        mu = {}
        for p, v in canon:
            for x, val in v.items():
                mu[x] = mu.get(x, 0.0) + p * val
        self._mu = {x: m for x, m in mu.items() if m != 0.0}

    # -- basic accessors -------------------------------------------------

    def mean(self, x):
        """E[K_x]."""
        return self._mu.get(tuple(x), 0.0)

    @property
    def mean_vector(self):
        """Dict offset -> E[K_x] over the nonzero support."""
        return dict(self._mu)

    @property
    def support(self):
        """Sorted offsets where some atom has a nonzero value."""
        offs = set()
        for _, v in self.atoms:
            offs.update(v)
        return sorted(offs)

    def cross_moment(self, u, v):
        """E[(K_u - delta_{u,0}) (K_v - delta_{v,0})]."""
        u = tuple(u)
        v = tuple(v)
        zu = tuple([0] * self.d)
        s = 0.0
        for p, vec in self.atoms:
            a = vec.get(u, 0.0) - (1.0 if u == zu else 0.0)
            b = vec.get(v, 0.0) - (1.0 if v == zu else 0.0)
            s += p * a * b
        return s

    def correlation(self, x):
        """c(x) = sum_y E[(K_y - delta_{y,0})(K_{x+y} - delta_{x+y,0})].

        c(0) equals kappa_2; orthogonality means c(x) = 0 for x != 0.
        """
        x = tuple(x)
        zero = tuple([0] * self.d)
        ys = set(self.support)
        ys.add(zero)
        # (K_{x+y} - delta) is nonzero only for x+y in support or x+y = 0
        ys.update(tuple(a - b for a, b in zip(s, x)) for s in self.support)
        ys.add(tuple(-c for c in x))
        return sum(self.cross_moment(y, tuple(a + b for a, b in zip(x, y))) for y in ys)

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return self.d == other.d and sorted(
            (p, sorted(v.items())) for p, v in self.atoms
        ) == sorted((p, sorted(v.items())) for p, v in other.atoms)

    def __repr__(self):
        return f"Kernel(d={self.d}, atoms={len(self.atoms)}, b_K={self.b_K}, r_K={self.r_K})"

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        return {
            "d": self.d,
            "atoms": [
                {"p": p, "v": [{"x": list(x), "val": val} for x, val in sorted(v.items())]}
                for p, v in self.atoms
            ],
        }

    @classmethod
    def from_dict(cls, obj):
        if "bcpp" in obj:
            spec = obj["bcpp"]
            return make_bcpp_kernel(spec["d"], spec["lambda"])
        d = obj["d"]
        atoms = [
            (a["p"], {tuple(e["x"]): e["val"] for e in a.get("v", [])})
            for a in obj["atoms"]
        ]
        return cls(d, atoms)


@dataclass(eq=False)
class KernelMoments:
    kappa1: float
    kappa2: float
    drift: np.ndarray        # m = sum_x x E[K_x]
    gaussian_cov: np.ndarray  # Sigma_ij = sum_x x_i x_j E[K_x]


@dataclass
class ValidationReport:
    k1_spanning: bool
    k4_orthogonal: bool
    strong_k4: bool
    offdiag_gamma_nonnegative: bool
    violations: list = field(default_factory=list)


def make_bcpp_kernel(d, lam):
    """Binary contact path process kernel in dimension d with rate lambda.

    One death atom (K = 0) with probability 1/(2*d*lam+1) and 2d branch
    atoms K = delta_0 + delta_e, each with probability lam/(2*d*lam+1).
    """
    if int(d) < 1 or d != int(d):
        raise KernelError(f"d must be a positive integer, got {d}")
    if not 0 < lam < math.inf:
        raise KernelError(f"lambda must be positive and finite, got {lam}")
    d = int(d)
    denom = 2 * d * lam + 1.0
    zero = tuple([0] * d)
    atoms = [(1.0 / denom, {})]
    for i in range(d):
        for s in (+1, -1):
            e = tuple(s if j == i else 0 for j in range(d))
            atoms.append((lam / denom, {zero: 1.0, e: 1.0}))
    return Kernel(d, atoms)


def kernel_moments(kernel: Kernel) -> KernelMoments:
    """Moment constants kappa_1, kappa_2, drift m and covariance Sigma."""
    d = kernel.d
    zero = tuple([0] * d)
    offs = set(kernel.support)
    offs.add(zero)
    kappa1 = 0.0
    kappa2 = 0.0
    for x in offs:
        kappa1 += kernel.mean(x) - (1.0 if x == zero else 0.0)
        kappa2 += kernel.cross_moment(x, x)
    m = np.zeros(d)
    sigma = np.zeros((d, d))
    for x, mu in kernel.mean_vector.items():
        xa = np.asarray(x, dtype=float)
        m += xa * mu
        sigma += np.outer(xa, xa) * mu
    return KernelMoments(kappa1=kappa1, kappa2=kappa2, drift=m, gaussian_cov=sigma)


def bcpp_kappa1(d, lam):
    """Closed form (2*d*lam - 1)/(2*d*lam + 1) for the BCPP growth rate."""
    return (2 * d * lam - 1.0) / (2 * d * lam + 1.0)


def validate_kernel(kernel: Kernel) -> ValidationReport:
    """Check the structural conditions required by the limit theorems.

    k1_spanning
        offsets with E[K_x] != 0 contain a linear basis of R^d.
    k4_orthogonal
        c(x) = 0 for every x != 0 (beyond l1 reach 2*r_K every term
        vanishes by finite range).
    strong_k4
        E[(K_x - delta_{x,0})(K_y - delta_{y,0})] = 0 for all x != y,
        i.e. updates touch at most one coordinate at a time.
    offdiag_gamma_nonnegative
        every off-diagonal pair-chain rate is >= -MOMENT_TOL; required for
        the two-point chains to be honest Markov chains.

    The last three read the pair-rate table; each lists its violations
    in increasing offset order.
    """
    violations = []
    d = kernel.d
    zero = tuple([0] * d)

    offs = [x for x in kernel.mean_vector if x != zero]
    if offs:
        rank = int(np.linalg.matrix_rank(np.asarray(offs, dtype=float)))
    else:
        rank = 0
    k1 = rank == d
    if not k1:
        violations.append(("k1_spanning", tuple(offs), rank))

    from . import feynman_kac  # deferred: feynman_kac imports this module

    table = feynman_kac.GammaTable(kernel)
    k4 = [("k4_orthogonal", x, c)
          for x, c in sorted(table.correlations.items())
          if x != zero and abs(c) > MOMENT_TOL]
    strong = [("strong_k4", (u, v), c)
              for (u, v), c in sorted(table.cross_moments.items())
              if u != v and abs(c) > MOMENT_TOL]
    neg = [("offdiag_gamma_nonnegative",) + entry
           for entry in table.negative_offdiag()]
    return ValidationReport(
        k1_spanning=k1,
        k4_orthogonal=not k4,
        strong_k4=not strong,
        offdiag_gamma_nonnegative=not neg,
        violations=violations + k4 + strong + neg,
    )


def _l1_ball(d, r):
    """All offsets in Z^d with l1 norm <= r."""
    if d == 0:
        yield ()
        return
    for c in range(-r, r + 1):
        for rest in _l1_ball(d - 1, r - abs(c)):
            yield (c,) + rest
