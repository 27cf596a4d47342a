"""Embedding representations checked against independent oracle formulas.

The poly2 closed forms are validated against the exact kernel double sum,
the explicit feature lift, and hand arithmetic; the trace and directional
variance statistics are validated against kernel-expansion oracles written
out in plain numpy inside the tests.
"""

import math

import numpy as np
import pytest

from fedkme.data import AgentDataset
from fedkme.embedding import (
    EXACT,
    POLY2,
    Embedding,
    LocalFeatureSet,
    as_feature_vector,
    embed,
    kme_inner,
    local_features,
    mmd2,
    mmd2_mixture,
    poly2_lift,
    poly2_population_embedding,
    q_stat,
    trace_cov_hat,
)
from fedkme.kernels import eval_kernel, gram_matrix, isotropic_gaussian_kernel, poly2_kernel
from fedkme.rff import featurize, sample_rff

KERNEL2 = isotropic_gaussian_kernel(2)


def _dataset(rng, n, d):
    return AgentDataset(rng.normal(size=(n, d)))


def test_single_point_rff_embedding_is_the_feature():
    params = sample_rff(KERNEL2, 32, seed=1)
    z = np.array([[0.3, -0.7]])
    emb = embed(AgentDataset(z), params)
    np.testing.assert_allclose(emb.v, featurize(params, z[0]), rtol=1e-15)
    assert emb.n == 1


def test_poly2_embedding_hand_moments():
    data = AgentDataset(np.array([[1.0, 0.0], [0.0, 1.0]]))
    emb = embed(data, POLY2)
    np.testing.assert_allclose(emb.mean, [0.5, 0.5])
    np.testing.assert_allclose(emb.second_moment, [[0.5, 0.0], [0.0, 0.5]])


def test_duplication_leaves_embedding_unchanged():
    g = np.random.default_rng(2)
    Z = g.normal(size=(3, 2))
    params = sample_rff(KERNEL2, 16, seed=4)
    for mode in (params, POLY2):
        one = embed(AgentDataset(Z), mode)
        two = embed(AgentDataset(np.vstack([Z, Z])), mode)
        if mode == POLY2:
            np.testing.assert_allclose(two.mean, one.mean, rtol=1e-15)
            np.testing.assert_allclose(two.second_moment, one.second_moment, rtol=1e-15)
        else:
            np.testing.assert_allclose(two.v, one.v, rtol=1e-15)


def test_kme_inner_self_nonnegative():
    g = np.random.default_rng(3)
    for mode in (sample_rff(KERNEL2, 8, seed=0), POLY2):
        emb = embed(_dataset(g, 5, 2), mode)
        assert kme_inner(emb, emb) >= 0.0


def test_poly2_closed_form_equals_exact_double_sum():
    g = np.random.default_rng(5)
    kernel = poly2_kernel(2)
    for _ in range(10):
        a, b = _dataset(g, 5, 2), _dataset(g, 5, 2)
        closed = kme_inner(embed(a, POLY2), embed(b, POLY2))
        exact = kme_inner(embed(a, EXACT, kernel=kernel), embed(b, EXACT, kernel=kernel))
        assert closed == pytest.approx(exact, rel=1e-10)


def test_poly2_lift_reproduces_kernel_exactly():
    g = np.random.default_rng(6)
    Z = g.normal(size=(4, 3))
    F = poly2_lift(Z)
    assert F.shape == (4, 1 + 3 + 6)
    G = gram_matrix(poly2_kernel(3), Z, Z)
    np.testing.assert_allclose(F @ F.T, G, rtol=1e-12)


def test_single_point_exact_embeddings_give_kernel_value():
    z, z2 = np.array([[0.2, 0.4]]), np.array([[-1.0, 0.9]])
    a = embed(AgentDataset(z), EXACT, kernel=KERNEL2)
    b = embed(AgentDataset(z2), EXACT, kernel=KERNEL2)
    assert kme_inner(a, b) == pytest.approx(eval_kernel(KERNEL2, z[0], z2[0]), rel=1e-14)


def test_representation_mismatch_rejected():
    g = np.random.default_rng(7)
    rff_emb = embed(_dataset(g, 3, 2), sample_rff(KERNEL2, 8, seed=0))
    poly_emb = embed(_dataset(g, 3, 2), POLY2)
    with pytest.raises(ValueError):
        kme_inner(rff_emb, poly_emb)


def test_mmd2_self_is_exactly_zero():
    g = np.random.default_rng(8)
    emb = embed(_dataset(g, 4, 2), POLY2)
    assert mmd2(emb, emb) == 0.0


def test_mixture_with_unit_mass_on_target_is_zero():
    g = np.random.default_rng(9)
    params = sample_rff(KERNEL2, 16, seed=2)
    embs = [embed(_dataset(g, 4, 2), params) for _ in range(3)]
    w = np.array([1.0, 0.0, 0.0])
    assert mmd2_mixture(w, embs, embs[0]) == 0.0


def test_mixture_bilinear_expansion_matches_direct_norm():
    g = np.random.default_rng(10)
    params = sample_rff(KERNEL2, 32, seed=3)
    embs = [embed(_dataset(g, 5, 2), params) for _ in range(3)]
    w = np.array([0.2, 0.5, 0.3])
    direct = float(np.sum((sum(wk * e.v for wk, e in zip(w, embs)) - embs[0].v) ** 2))
    assert mmd2_mixture(w, embs, embs[0]) == pytest.approx(direct, abs=1e-12)


def test_trace_zero_for_identical_features():
    local = LocalFeatureSet(kind=POLY2, features=np.ones((4, 3)), kernel=poly2_kernel(1))
    assert trace_cov_hat(local) == 0.0


def test_trace_hand_value_two_scalar_features():
    local = LocalFeatureSet(kind=POLY2, features=np.array([[0.0], [2.0]]), kernel=poly2_kernel(1))
    assert trace_cov_hat(local) == pytest.approx(2.0)


def test_trace_needs_two_samples():
    ds = AgentDataset(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        trace_cov_hat(local_features(ds, POLY2))


def test_trace_feature_form_equals_kernel_expansion():
    # oracle: tr = (sum_i G_ii - sum_ij G_ij / n) / (n - 1) on the same Gram
    g = np.random.default_rng(11)
    ds = _dataset(g, 6, 2)
    for local in (
        local_features(ds, POLY2),
        local_features(ds, sample_rff(KERNEL2, 24, seed=5)),
    ):
        F = local.features
        G = F @ F.T
        n = F.shape[0]
        oracle = (np.trace(G) - np.sum(G) / n) / (n - 1)
        assert trace_cov_hat(local) == pytest.approx(float(oracle), rel=1e-10)


def test_trace_exact_mode_equals_lifted_feature_form():
    g = np.random.default_rng(12)
    ds = _dataset(g, 6, 2)
    kernel = poly2_kernel(2)
    exact = trace_cov_hat(local_features(ds, EXACT, kernel=kernel))
    lifted = trace_cov_hat(local_features(ds, POLY2))
    assert exact == pytest.approx(lifted, rel=1e-10)


def test_q_stat_zero_when_embeddings_coincide():
    g = np.random.default_rng(13)
    params = sample_rff(KERNEL2, 16, seed=6)
    ds = _dataset(g, 5, 2)
    emb = embed(ds, params)
    assert q_stat(local_features(ds, params), emb, emb) == 0.0


def test_q_stat_zero_for_constant_features():
    local = LocalFeatureSet(kind=POLY2, features=poly2_lift(np.ones((4, 1))), kernel=poly2_kernel(1))
    a = Embedding(kind=POLY2, n=4, kernel=poly2_kernel(1), mean=np.array([0.5]), second_moment=np.array([[0.5]]))
    b = Embedding(kind=POLY2, n=4, kernel=poly2_kernel(1), mean=np.array([0.1]), second_moment=np.array([[0.4]]))
    assert q_stat(local, a, b) == 0.0


def test_q_stat_feature_form_matches_plain_numpy_oracle():
    g = np.random.default_rng(14)
    params = sample_rff(KERNEL2, 24, seed=7)
    ds, other = _dataset(g, 6, 2), _dataset(g, 5, 2)
    local = local_features(ds, params)
    nu_1, nu_k = embed(ds, params), embed(other, params)
    u = nu_k.v - nu_1.v
    F = local.features
    oracle = float(np.sum(((F - nu_1.v) @ u) ** 2) / (F.shape[0] - 1))
    assert q_stat(local, nu_k, nu_1) == pytest.approx(oracle, rel=1e-10)


def test_q_stat_exact_kernel_expansion_matches_feature_form():
    g = np.random.default_rng(15)
    kernel = poly2_kernel(2)
    ds, other = _dataset(g, 6, 2), _dataset(g, 4, 2)
    feature_form = q_stat(
        local_features(ds, POLY2), embed(other, POLY2), embed(ds, POLY2)
    )
    kernel_form = q_stat(
        local_features(ds, EXACT, kernel=kernel),
        embed(other, EXACT, kernel=kernel),
        embed(ds, EXACT, kernel=kernel),
    )
    assert kernel_form == pytest.approx(feature_form, rel=1e-10)


def test_rff_embedding_norm_invariant_enforced():
    with pytest.raises(ValueError):
        Embedding(kind="rff", n=2, kernel=KERNEL2, v=np.full(8, 1.0))


def test_poly2_second_moment_must_be_psd():
    with pytest.raises(ValueError):
        Embedding(
            kind=POLY2, n=2, kernel=poly2_kernel(2),
            mean=np.zeros(2), second_moment=np.array([[1.0, 0.0], [0.0, -1.0]]),
        )


def test_cauchy_schwarz_across_representations():
    g = np.random.default_rng(18)
    params = sample_rff(KERNEL2, 16, seed=8)
    kernel = poly2_kernel(2)
    for mode, kw in ((params, {}), (POLY2, {}), (EXACT, {"kernel": kernel})):
        a = embed(_dataset(g, 4, 2), mode, **kw)
        b = embed(_dataset(g, 6, 2), mode, **kw)
        assert kme_inner(a, b) ** 2 <= kme_inner(a, a) * kme_inner(b, b) + 1e-12


def test_population_embedding_of_gaussian():
    mean = np.array([1.0, -0.5])
    cov = np.array([[0.5, 0.1], [0.1, 0.3]])
    pop = poly2_population_embedding(mean, cov)
    assert pop.n == 0
    np.testing.assert_allclose(pop.second_moment, cov + np.outer(mean, mean))
    # large-sample empirical embedding converges to the analytic one
    g = np.random.default_rng(19)
    Z = g.multivariate_normal(mean, cov, size=200000)
    emp = embed(AgentDataset(Z), POLY2)
    assert mmd2(emp, pop) <= 1e-3


def test_scope_features_drops_label_column():
    g = np.random.default_rng(20)
    X = g.normal(size=(5, 2))
    y = g.normal(size=5)
    labeled = AgentDataset(X, y)
    emb = embed(labeled, POLY2, scope="features")
    np.testing.assert_allclose(emb.mean, X.mean(axis=0))
    unlabeled = AgentDataset(X)
    with pytest.raises(ValueError):
        embed(unlabeled, POLY2, scope="features")


def test_as_feature_vector_inner_products_match_closed_form():
    g = np.random.default_rng(21)
    a, b = embed(_dataset(g, 5, 2), POLY2), embed(_dataset(g, 5, 2), POLY2)
    dot = float(as_feature_vector(a) @ as_feature_vector(b))
    assert dot == pytest.approx(kme_inner(a, b), rel=1e-12)
