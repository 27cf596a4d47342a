"""Random Fourier features: determinism, phase law, kernel expectation."""

import math

import numpy as np
import pytest

from fedkme.data import AgentDataset
from fedkme.embedding import EXACT, local_features, trace_cov_hat
from fedkme.kernels import eval_kernel, isotropic_gaussian_kernel, poly2_kernel
from fedkme.rff import RffParams, featurize, featurize_matrix, sample_rff

KERNEL3 = isotropic_gaussian_kernel(3)


def test_sampling_is_deterministic():
    a = sample_rff(KERNEL3, 500, seed=7)
    b = sample_rff(KERNEL3, 500, seed=7)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.b, b.b)
    assert a.kernel == b.kernel and a.D == b.D == 500


def test_different_seeds_differ():
    a = sample_rff(KERNEL3, 64, seed=1)
    b = sample_rff(KERNEL3, 64, seed=2)
    assert not np.array_equal(a.W, b.W)


def test_phases_live_in_half_open_interval():
    params = sample_rff(KERNEL3, 5000, seed=11)
    assert np.all(params.b >= 0.0)
    assert np.all(params.b < 2.0 * math.pi)


def test_poly2_kernel_rejected():
    with pytest.raises(ValueError):
        sample_rff(poly2_kernel(2), 16, seed=0)


def test_frequency_entries_have_zero_mean():
    params = sample_rff(isotropic_gaussian_kernel(1), 100000, seed=5)
    assert abs(float(params.W.mean())) <= 0.02


def test_featurize_single_zero_frequency():
    params = RffParams(W=np.zeros((1, 2)), b=np.zeros(1), D=1, kernel=isotropic_gaussian_kernel(2), seed=0)
    phi = featurize(params, np.array([3.0, -4.0]))
    np.testing.assert_allclose(phi, [math.sqrt(2.0)])


def test_feature_norm_bounded_by_sqrt2():
    params = sample_rff(KERNEL3, 256, seed=3)
    g = np.random.default_rng(0)
    for _ in range(20):
        z = g.normal(size=3) * 5
        phi = featurize(params, z)
        bound = math.sqrt(2.0 / params.D)
        assert np.all(np.abs(phi) <= bound + 1e-15)
        assert np.linalg.norm(phi) <= math.sqrt(2.0) + 1e-12


def test_dimension_mismatch_rejected():
    params = sample_rff(KERNEL3, 16, seed=0)
    with pytest.raises(ValueError):
        featurize(params, np.zeros(2))


def test_featurize_matrix_matches_rows():
    # BLAS may round the batched product differently from the single-row
    # product in the last ulp, so equality is asserted to 1e-15 relative
    params = sample_rff(KERNEL3, 32, seed=9)
    Z = np.random.default_rng(1).normal(size=(6, 3))
    F = featurize_matrix(params, Z)
    for i in range(6):
        np.testing.assert_allclose(F[i], featurize(params, Z[i]), rtol=1e-15, atol=1e-15)


def test_inner_product_estimates_kernel():
    z = np.array([0.3, -1.0, 0.7])
    z2 = np.array([-0.2, 0.4, 1.1])
    params = sample_rff(KERNEL3, 10000, seed=21)
    est = float(featurize(params, z) @ featurize(params, z2))
    assert abs(est - eval_kernel(KERNEL3, z, z2)) <= 0.05


def test_unbiasedness_hoeffding_band():
    # |<phi(z), phi(z')> - k(z,z')| <= 5/sqrt(D) should hold for the vast
    # majority of random pairs (acceptance covers the full 50-pair version)
    D = 4000
    g = np.random.default_rng(17)
    hits = 0
    for i in range(20):
        params = sample_rff(KERNEL3, D, seed=100 + i)
        z, z2 = g.normal(size=3), g.normal(size=3)
        est = float(featurize(params, z) @ featurize(params, z2))
        if abs(est - eval_kernel(KERNEL3, z, z2)) <= 5.0 / math.sqrt(D):
            hits += 1
    assert hits >= 18


def test_average_rff_trace_matches_kernel_trace():
    # mean over independent coefficient draws of the RFF covariance trace
    # approaches the kernel-form trace of the same fixed sample
    g = np.random.default_rng(4)
    ds = AgentDataset(g.normal(size=(6, 2)))
    kernel = isotropic_gaussian_kernel(2)
    exact = trace_cov_hat(local_features(ds, EXACT, kernel=kernel))
    draws = np.array([
        trace_cov_hat(local_features(ds, sample_rff(kernel, 64, seed=s)))
        for s in range(200)
    ])
    stderr = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - exact) <= 3.0 * stderr


def test_params_validation():
    with pytest.raises(ValueError):
        RffParams(W=np.zeros((2, 3)), b=np.array([0.0, 7.0]), D=2, kernel=KERNEL3, seed=0)
    with pytest.raises(ValueError):
        RffParams(W=np.zeros((2, 3)), b=np.zeros(3), D=2, kernel=KERNEL3, seed=0)
