import numpy as np
import pytest

from linsys.kernel import Kernel


def random_single_offset_kernel(rng, d, max_extra=4, b_max=2.0):
    """Random kernel updating at most one coordinate per event.

    Atom types: death (K = 0), branch (K = delta_0 + V delta_a, the site
    keeps its own mass and seeds one offset), multiply (K = c delta_0).
    Always includes branch atoms at the d unit offsets so the spanning
    condition holds by construction.
    """
    offsets = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    for _ in range(rng.integers(0, max_extra + 1)):
        off = tuple(int(c) for c in rng.integers(-2, 3, size=d))
        if any(off):
            offsets.append(off)
    n = len(offsets) + 2
    probs = rng.random(n) + 0.05
    probs /= probs.sum()
    atoms = [(probs[0], {})]  # death
    zero = tuple([0] * d)
    atoms.append((probs[1], {zero: float(rng.uniform(0.1, b_max))}))  # multiply
    for p, off in zip(probs[2:], offsets):
        atoms.append((p, {zero: 1.0, off: float(rng.uniform(0.1, b_max))}))
    return Kernel(d, atoms)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def diagonal_step_kernel():
    """BCPP-like d=3 kernel branching to ±e1, ±e2, ±e3, ±(1,1,0), ±(1,0,1).

    Its walk's diffusion matrix couples every pair of coordinates, so A^-1
    has no zero entry, and reversing the coordinate order changes the
    walk.  The survival criterion holds (value ≈ 0.758).
    """
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]
    dirs += [tuple(-c for c in z) for z in dirs]
    return Kernel(3, [(1 / 11, {})]
                  + [(1 / 11, {(0, 0, 0): 1.0, z: 1.0}) for z in dirs])
