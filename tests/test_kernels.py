"""Kernel evaluations against hand-derived values and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkme.data import AgentDataset
from fedkme.kernels import (
    KernelSpec,
    concept_shift_kernel,
    eval_kernel,
    gaussian_kernel,
    gram_matrix,
    isotropic_gaussian_kernel,
    kernel_bound,
    poly2_kernel,
    spectral_distribution,
)

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)


def vectors(dim: int):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(np.array)


@settings(max_examples=50, deadline=None)
@given(z=vectors(3))
def test_gaussian_kernel_is_one_at_zero_offset(z):
    spec = gaussian_kernel((0.3, 1.0, 2.5))
    assert eval_kernel(spec, z, z) == pytest.approx(1.0, abs=0.0)


def test_poly2_at_origin_is_one():
    spec = poly2_kernel(2)
    assert eval_kernel(spec, np.zeros(2), np.zeros(2)) == 1.0


def test_weighted_gaussian_hand_value():
    # exp(-|x-x'|^2/sqrt(d+1) - (y-y')^2) at d=1 with unit offsets in both
    # coordinates: exp(-1/sqrt(2) - 1)
    spec = gaussian_kernel((1.0 / math.sqrt(2.0), 1.0))
    value = eval_kernel(spec, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    assert value == pytest.approx(math.exp(-1.0 / math.sqrt(2.0) - 1.0), rel=1e-15)
    assert value == pytest.approx(0.18138983464961517, rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(z=vectors(2), z2=vectors(2))
def test_eval_kernel_symmetric_bitwise(z, z2):
    for spec in (gaussian_kernel((0.7, 1.3)), poly2_kernel(2)):
        assert eval_kernel(spec, z, z2) == eval_kernel(spec, z2, z)


@settings(max_examples=20, deadline=None)
@given(z=vectors(2), z2=vectors(2))
def test_gaussian_bounded_in_unit_interval(z, z2):
    v = eval_kernel(gaussian_kernel((0.5, 0.5)), z, z2)
    assert 0.0 < v <= 1.0


def test_gram_matrices_are_psd():
    g = np.random.default_rng(0)
    Z = g.normal(size=(20, 3))
    for spec in (isotropic_gaussian_kernel(3), poly2_kernel(3)):
        G = gram_matrix(spec, Z, Z)
        assert np.min(np.linalg.eigvalsh((G + G.T) / 2)) >= -1e-8


def test_gram_matrix_matches_pointwise_eval():
    g = np.random.default_rng(1)
    Z1, Z2 = g.normal(size=(4, 2)), g.normal(size=(5, 2))
    for spec in (gaussian_kernel((0.4, 1.1)), poly2_kernel(2)):
        G = gram_matrix(spec, Z1, Z2)
        for i in range(4):
            for j in range(5):
                assert G[i, j] == pytest.approx(eval_kernel(spec, Z1[i], Z2[j]), rel=1e-12)


def test_dimension_mismatch_rejected():
    spec = isotropic_gaussian_kernel(3)
    with pytest.raises(ValueError):
        eval_kernel(spec, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        gram_matrix(spec, np.zeros((2, 2)), np.zeros((2, 3)))


def test_kernel_bound_gaussian_is_one():
    assert kernel_bound(isotropic_gaussian_kernel(4)) == 1.0


def test_kernel_bound_poly2_hand_values():
    zero = AgentDataset(np.zeros((1, 2)))
    assert kernel_bound(poly2_kernel(2), zero) == pytest.approx(1.0)
    ones = AgentDataset(np.array([[1.0, 1.0]]))
    assert kernel_bound(poly2_kernel(2), ones) == pytest.approx(3.0)  # sqrt((2+1)^2)


def test_kernel_bound_poly2_over_multiple_datasets_takes_max():
    a = AgentDataset(np.array([[1.0, 0.0]]))
    b = AgentDataset(np.array([[2.0, 0.0]]))
    assert kernel_bound(poly2_kernel(2), [a, b]) == pytest.approx(5.0)


def test_kernel_bound_poly2_requires_data():
    with pytest.raises(ValueError):
        kernel_bound(poly2_kernel(2))


def test_spectral_distribution_isotropic_d4():
    dist = spectral_distribution(isotropic_gaussian_kernel(4))
    assert np.array_equal(dist.cov_diag, np.ones(4))


def test_spectral_distribution_concept_kernel():
    d = 3
    dist = spectral_distribution(concept_shift_kernel(d))
    expected = np.array([1.0 / (d + 1)] * d + [1.0])
    np.testing.assert_allclose(dist.cov_diag, expected, rtol=1e-15)


def test_spectral_distribution_rejects_poly2():
    with pytest.raises(ValueError):
        spectral_distribution(poly2_kernel(2))


def test_spectral_samples_match_covariance():
    dist = spectral_distribution(gaussian_kernel((0.5, 2.0)))
    g = np.random.default_rng(3)
    W = dist.sample(g, 200000)
    np.testing.assert_allclose(W.var(axis=0), dist.cov_diag, rtol=0.02)


def test_concept_kernel_closed_form():
    # exponent -|x-x'|^2/(2(d+1)) - (y-y')^2/2, the form whose spectral
    # distribution is N(0, diag(I_d/(d+1), 1))
    d = 2
    spec = concept_shift_kernel(d)
    z = np.array([1.0, -1.0, 0.5])
    z2 = np.array([0.0, 1.0, -0.5])
    dx = z[:d] - z2[:d]
    dy = z[d] - z2[d]
    expected = math.exp(-float(dx @ dx) / (2 * (d + 1)) - dy**2 / 2)
    assert eval_kernel(spec, z, z2) == pytest.approx(expected, rel=1e-14)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="cubic", ambient_dim=2, bandwidth=(1.0, 1.0))
    with pytest.raises(ValueError):
        gaussian_kernel((1.0, -1.0))
    with pytest.raises(ValueError):
        gaussian_kernel(())
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian", ambient_dim=3, bandwidth=(1.0,))
