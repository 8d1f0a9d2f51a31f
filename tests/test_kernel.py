import json
import math

import numpy as np
import pytest

from linsys.kernel import (Kernel, KernelError, bcpp_kappa1, kernel_moments,
                           make_bcpp_kernel, validate_kernel)
from conftest import random_single_offset_kernel

TOL = 1e-12


def test_bcpp_structure_d3():
    k = make_bcpp_kernel(3, 1.0)
    assert len(k.atoms) == 7
    assert k.b_K == 1.0 and k.r_K == 1
    probs = sorted(p for p, _ in k.atoms)
    assert all(abs(p - 1 / 7) < TOL for p in probs)
    # death atom is the empty vector
    assert any(not v for _, v in k.atoms)


def test_bcpp_structure_d1_lambda2():
    k = make_bcpp_kernel(1, 2.0)
    assert sorted(round(p, 12) for p, _ in k.atoms) == [0.2, 0.4, 0.4]


@pytest.mark.parametrize("d,lam", [(1, 0.5), (2, 1.0), (3, 1.0), (3, 5.0)])
def test_bcpp_kappa1_closed_form(d, lam):
    mom = kernel_moments(make_bcpp_kernel(d, lam))
    assert abs(mom.kappa1 - bcpp_kappa1(d, lam)) < TOL
    assert abs(mom.kappa2 - 1.0) < TOL


def test_bcpp_d3_moments():
    mom = kernel_moments(make_bcpp_kernel(3, 1.0))
    assert abs(mom.kappa1 - 5 / 7) < TOL
    assert np.allclose(mom.drift, 0.0, atol=TOL)
    # per-coordinate variance sum_x x_i^2 E[K_x] = 2*lambda/(2d lambda + 1);
    # both unit offsets +-e_i carry mean lambda/(2d lambda+1)
    assert np.allclose(mom.gaussian_cov, (2 / 7) * np.eye(3), atol=TOL)


def test_bcpp_invalid_args():
    with pytest.raises(KernelError):
        make_bcpp_kernel(0, 1.0)
    with pytest.raises(KernelError):
        make_bcpp_kernel(3, 0.0)
    with pytest.raises(KernelError):
        make_bcpp_kernel(3, -1.0)


def test_probabilities_must_sum_to_one():
    with pytest.raises(KernelError, match="sum"):
        Kernel(1, [(0.5, {}), (0.4, {(0,): 1.0})])


def test_negative_value_rejected():
    with pytest.raises(KernelError):
        Kernel(1, [(1.0, {(0,): -0.5})])


def test_nan_probability_rejected():
    with pytest.raises(KernelError, match="probability"):
        Kernel(1, [(math.nan, {}), (1.0, {(0,): 1.0})])


@pytest.mark.parametrize("val", [math.nan, math.inf])
def test_non_finite_value_rejected(val):
    with pytest.raises(KernelError, match="finite"):
        Kernel(1, [(1.0, {(0,): val})])


def test_non_integral_offset_rejected():
    with pytest.raises(KernelError, match="integers"):
        Kernel(1, [(1.0, {(0.5,): 1.0})])


def test_bcpp_infinite_lambda_rejected():
    with pytest.raises(KernelError, match="finite"):
        make_bcpp_kernel(3, math.inf)


def test_zero_values_dropped_and_equality():
    a = Kernel(2, [(1.0, {(0, 0): 1.0, (1, 0): 0.0})])
    b = Kernel(2, [(1.0, {(0, 0): 1.0})])
    assert a == b
    assert a.r_K == 0 and a.b_K == 1.0


def test_kappa1_mass_change_identity(rng):
    # kappa_1 equals sum_atoms p (|v| - 1): total-mass increment per event
    for _ in range(200):
        k = random_single_offset_kernel(rng, int(rng.integers(1, 4)))
        mom = kernel_moments(k)
        alt = sum(p * (sum(v.values()) - 1.0) for p, v in k.atoms)
        assert abs(mom.kappa1 - alt) < 1e-12


def test_strong_k4_implies_k4_on_random_kernels(rng):
    for _ in range(1000):
        k = random_single_offset_kernel(rng, int(rng.integers(1, 4)))
        rep = validate_kernel(k)
        assert rep.strong_k4
        assert rep.k4_orthogonal
        assert rep.k1_spanning


def test_sigma_positive_semidefinite(rng):
    for _ in range(300):
        k = random_single_offset_kernel(rng, int(rng.integers(1, 4)))
        eig = np.linalg.eigvalsh(kernel_moments(k).gaussian_cov)
        assert eig.min() >= -1e-10


def test_validate_bcpp_all_flags():
    rep = validate_kernel(make_bcpp_kernel(3, 1.0))
    assert rep.k1_spanning and rep.k4_orthogonal
    assert rep.strong_k4 and rep.offdiag_gamma_nonnegative
    assert not rep.violations


def test_validate_non_spanning():
    # support {0, +e1} in d=2 cannot span R^2
    k = Kernel(2, [(0.5, {}), (0.5, {(0, 0): 1.0, (1, 0): 1.0})])
    rep = validate_kernel(k)
    assert not rep.k1_spanning
    assert any(v[0] == "k1_spanning" for v in rep.violations)


def test_validate_identity_kernel():
    k = Kernel(2, [(1.0, {(0, 0): 1.0})])
    rep = validate_kernel(k)
    assert rep.k4_orthogonal
    assert kernel_moments(k).kappa2 == 0.0


def test_k4_violation_detected():
    # one atom duplicating onto two sites at once breaks orthogonality
    k = Kernel(1, [(0.5, {}), (0.5, {(0,): 1.0, (1,): 1.0, (2,): 1.0})])
    rep = validate_kernel(k)
    assert not rep.k4_orthogonal
    assert not rep.strong_k4


def test_json_round_trip():
    k = make_bcpp_kernel(2, 0.7)
    k2 = Kernel.from_dict(json.loads(json.dumps(k.to_dict())))
    assert k == k2


def test_bcpp_shorthand():
    k = Kernel.from_dict({"bcpp": {"d": 3, "lambda": 1.0}})
    assert k == make_bcpp_kernel(3, 1.0)


def test_correlation_at_zero_is_kappa2(rng):
    for _ in range(50):
        k = random_single_offset_kernel(rng, 2)
        mom = kernel_moments(k)
        zero = (0, 0)
        assert abs(k.correlation(zero) - mom.kappa2) < 1e-12
