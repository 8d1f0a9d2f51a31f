import glob
import hashlib
import os
import pickle

import numpy as np
import pytest

import linsys
from linsys.kernel import Kernel

# Heavy fixtures and walk estimates are memoized on disk (exact reruns are
# byte-identical by the determinism contract, so a cache hit changes
# nothing); delete the directory or set LINSYS_TEST_CACHE=off for a cold
# run.  The key covers the package source and the numpy version, so a
# pickle built by other code is never replayed.
_CACHE_DIR = os.environ.get("LINSYS_TEST_CACHE", "/tmp/linsys_test_cache")


def _code_fingerprint():
    src = os.path.join(os.path.dirname(linsys.__file__), "*.py")
    digest = hashlib.sha256()
    for path in sorted(glob.glob(src)):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest(), np.__version__


def _cached(key_obj, builder):
    """builder(), or its pickle from an earlier run with the same key_obj,
    package source and numpy version."""
    if _CACHE_DIR == "off":
        return builder()
    key = hashlib.sha256(repr((key_obj, _code_fingerprint())).encode()).hexdigest()[:24]
    os.makedirs(_CACHE_DIR, exist_ok=True)
    path = os.path.join(_CACHE_DIR, key + ".pkl")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            return pickle.load(fh)
    obj = builder()
    with open(path, "wb") as fh:
        pickle.dump(obj, fh)
    return obj


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


def reach_two_kernel():
    """BCPP-like d=3 kernel branching to ±e_i and ±2e_i (i = 1, 2, 3).

    Its walk reaches two sites per step, so a path's neighbours lie up to
    2 sites away.  The survival criterion holds (value ≈ 0.646).
    """
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    dirs += [tuple(-c for c in z) for z in dirs]
    return Kernel(3, [(1 / 13, {})]
                  + [(1 / 13, {(0, 0, 0): 1.0, z: 1.0}) for z in dirs])
