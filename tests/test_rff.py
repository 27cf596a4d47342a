"""Random Fourier features: determinism, phase law, kernel expectation, and
the half-angle cosine against the textbook map."""

import math

import numpy as np
import pytest

from fedkme import rff
from fedkme.embedding import local_features, trace_cov_hat
from fedkme.kernels import isotropic_gaussian_kernel, poly2_kernel
from fedkme.rff import RffParams, featurize_matrix, sample_rff
from reference_kme import dataset_of, eval_kernel, exact_embed, featurize, kernel_trace_cov_hat

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
    params = RffParams(W=np.zeros((1, 2)), b=np.zeros(1), D=1, kernel=isotropic_gaussian_kernel(2))
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


@pytest.mark.parametrize("n", [1, 8, 13])
def test_featurize_matrix_writes_into_out_bit_for_bit(n):
    # D = 2000 makes 8-row blocks: one row, exactly one block, and a short last block
    params = sample_rff(KERNEL3, 2000, seed=4)
    assert max(1, rff._BLOCK // params.D) == 8
    Z = np.random.default_rng(n).normal(size=(n, 3))
    block = np.full((n + 3, params.D), np.nan)
    rows = block[2:2 + n]
    assert featurize_matrix(params, Z, out=rows) is rows
    assert np.array_equal(rows, featurize_matrix(params, Z))
    assert np.isnan(block[:2]).all() and np.isnan(block[2 + n:]).all()


def test_featurize_matrix_rejects_an_out_it_cannot_fill():
    params = sample_rff(KERNEL3, 16, seed=4)
    Z = np.zeros((4, 3))
    for out in (np.empty((4, 15)), np.empty((5, 16)), np.empty((4, 16), dtype=np.float32),
                np.empty((4, 32))[:, ::2], np.empty((16, 4)).T):
        with pytest.raises(ValueError, match="out must be"):
            featurize_matrix(params, Z, out=out)


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
    ds = dataset_of(g.normal(size=(6, 2)))
    kernel = isotropic_gaussian_kernel(2)
    exact = kernel_trace_cov_hat(exact_embed(ds, kernel))
    draws = np.array([
        trace_cov_hat(local_features(ds, sample_rff(kernel, 64, seed=s)))
        for s in range(200)
    ])
    stderr = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - exact) <= 3.0 * stderr


def test_params_validation():
    with pytest.raises(ValueError):
        RffParams(W=np.zeros((2, 3)), b=np.array([0.0, 7.0]), D=2, kernel=KERNEL3)
    with pytest.raises(ValueError):
        RffParams(W=np.zeros((2, 3)), b=np.zeros(3), D=2, kernel=KERNEL3)


def _textbook(params, Z):
    return np.sqrt(2.0 / params.D) * np.cos(Z @ params.W.T + params.b)


def _odd_pi_params(D=600, d=3):
    # at z = e_1, <w_s, z> = 2 pi k_s and b_s sits next to pi, so x/2 sits next
    # to an odd multiple of pi/2 where |tan(x/2)| is largest (k_s = 0 puts it
    # within an ulp of pi/2 itself)
    g = np.random.default_rng(8)
    k = g.integers(0, 10**6, size=D)
    k[:6] = 0
    W = np.zeros((D, d))
    W[:, 0] = 2.0 * np.pi * k
    b = np.pi + np.resize([0.0, 5e-16, -5e-16, 1e-12, -1e-12, 1e-9], D)
    return RffParams(W=W, b=b, D=D, kernel=isotropic_gaussian_kernel(d))


def _wide_params(D, d, scale):
    g = np.random.default_rng(9)
    W = g.uniform(-scale, scale, size=(D, d))
    W[0] = 0.0  # a zero-frequency row: the feature is the constant cos(b_0)
    return RffParams(W=W, b=2.0 * np.pi * g.random(D), D=D, kernel=isotropic_gaussian_kernel(d))


_COVARIATE_WIDE = sample_rff(isotropic_gaussian_kernel(9), 2000, seed=1)


@pytest.mark.parametrize("params, Z", [
    (_COVARIATE_WIDE, np.random.default_rng(2).normal(size=(400, 9))),
    (_COVARIATE_WIDE, np.random.default_rng(3).uniform(-6.0, 6.0, size=(397, 9))),  # a partial last block
    (_odd_pi_params(), np.tile([1.0, 0.0, 0.0], (5, 1))),
    (_wide_params(512, 4, 1e11), np.random.default_rng(4).uniform(-10.0, 10.0, size=(64, 4))),
    (_wide_params(512, 4, 1.0), np.zeros((3, 4))),
], ids=["gaussian", "uniform", "odd_pi", "huge_args", "zero_points"])
def test_featurize_matrix_matches_the_textbook_cosine(params, Z):
    bound = math.sqrt(2.0 / params.D)
    F = featurize_matrix(params, Z)
    assert F.shape == (Z.shape[0], params.D)
    assert np.all(np.isfinite(F))
    assert np.all(np.abs(F) <= bound)  # no slack
    assert np.abs(F - _textbook(params, Z)).max() <= 4.5e-16 * bound


def test_extreme_cases_reach_their_arguments():
    params = _wide_params(512, 4, 1e11)
    Z = np.random.default_rng(4).uniform(-10.0, 10.0, size=(64, 4))
    assert np.abs(Z @ params.W.T + params.b).max() >= 1e12
    params = _odd_pi_params()
    x = params.W[:, 0] + params.b
    assert np.abs(np.tan(0.5 * x)).min() >= 1e8
    assert np.abs(np.tan(0.5 * x)).max() >= 1e15
