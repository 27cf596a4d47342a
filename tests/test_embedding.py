"""Embedding representations checked against independent oracle formulas.

The poly2 vectors are validated against the moment closed form, the exact
kernel double sum, the explicit feature lift, and hand arithmetic; the trace
and directional variance statistics are validated against kernel-expansion
oracles, from ``reference_kme`` or written out in plain numpy inside the
tests.
"""

import math

import numpy as np
import pytest

from fedkme.data import AgentDataset
from fedkme.embedding import (
    POLY2,
    Embedding,
    LocalFeatureSet,
    _poly2_summary_lift,
    embed,
    featurize_agent,
    local_features,
    poly2_lift,
    q_stat,
    trace_cov_hat,
)
from fedkme.kernels import isotropic_gaussian_kernel, poly2_kernel
from fedkme.rff import featurize_matrix, sample_rff
from reference_kme import (
    EXACT,
    dataset_of,
    eval_kernel,
    exact_embed,
    featurize,
    gram_matrix,
    kernel_q_stat,
    kernel_trace_cov_hat,
    kme_inner,
    mmd2,
    mmd2_mixture,
    poly2_population_embedding,
)

KERNEL2 = isotropic_gaussian_kernel(2)


def _dataset(rng, n, d):
    return dataset_of(rng.normal(size=(n, d)))


def test_single_point_rff_embedding_is_the_feature():
    params = sample_rff(KERNEL2, 32, seed=1)
    z = np.array([[0.3, -0.7]])
    emb = embed(dataset_of(z), params)
    np.testing.assert_allclose(emb.v, featurize(params, z[0]), rtol=1e-15)


def test_poly2_embedding_hand_moments():
    data = dataset_of(np.array([[1.0, 0.0], [0.0, 1.0]]))
    emb = embed(data, POLY2)
    # mean (0.5, 0.5), second moment diag(0.5, 0.5): (1, sqrt2 m, C_11, sqrt2 C_12, C_22)
    r = math.sqrt(2.0)
    np.testing.assert_allclose(emb.v, [1.0, 0.5 * r, 0.5 * r, 0.5, 0.0, 0.5])


def test_duplication_leaves_embedding_unchanged():
    g = np.random.default_rng(2)
    Z = g.normal(size=(3, 2))
    params = sample_rff(KERNEL2, 16, seed=4)
    for mode in (params, POLY2):
        one = embed(dataset_of(Z), mode)
        two = embed(dataset_of(np.vstack([Z, Z])), mode)
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
        exact = kme_inner(exact_embed(a, kernel), exact_embed(b, kernel))
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
    a = exact_embed(dataset_of(z), KERNEL2)
    b = exact_embed(dataset_of(z2), KERNEL2)
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
    local = LocalFeatureSet(kind=POLY2, features=np.ones((4, 3)))
    assert trace_cov_hat(local) == 0.0


def test_trace_hand_value_two_scalar_features():
    local = LocalFeatureSet(kind=POLY2, features=np.array([[0.0], [2.0]]))
    assert trace_cov_hat(local) == pytest.approx(2.0)


def test_trace_is_the_sum_of_centred_squares_bit_for_bit():
    g = np.random.default_rng(23)
    ds = _dataset(g, 9, 2)
    for local in (
        local_features(ds, sample_rff(KERNEL2, 40, seed=3)),
        local_features(ds, POLY2),
        LocalFeatureSet(kind=POLY2, features=g.normal(size=(7, 5))),
    ):
        F = local.features
        n = F.shape[0]
        want = float(np.sum((F - F.mean(axis=0)) ** 2)) / (n - 1)
        assert trace_cov_hat(local) == want
        scratch = np.full((n + 2, F.shape[1]), np.nan)
        assert trace_cov_hat(local, out=scratch[:n]) == want


def test_local_feature_mean_is_formed_once():
    g = np.random.default_rng(24)
    ds = _dataset(g, 6, 2)
    emb, local = featurize_agent(ds, sample_rff(KERNEL2, 24, seed=2), with_features=True)
    assert local.mean is emb.v  # the RFF embedding is the feature mean
    for local in (local_features(ds, POLY2), LocalFeatureSet(kind=POLY2, features=g.normal(size=(4, 3)))):
        assert np.array_equal(local.mean, local.features.mean(axis=0))
        assert not local.mean.flags.writeable
    with pytest.raises(ValueError, match="RFF features only"):
        featurize_agent(ds, POLY2, with_features=True, out=np.empty((6, 10)))


def test_trace_needs_two_samples():
    ds = dataset_of(np.zeros((1, 2)))
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
    exact = kernel_trace_cov_hat(exact_embed(ds, kernel))
    lifted = trace_cov_hat(local_features(ds, POLY2))
    assert exact == pytest.approx(lifted, rel=1e-10)


def test_q_stat_zero_when_embeddings_coincide():
    g = np.random.default_rng(13)
    params = sample_rff(KERNEL2, 16, seed=6)
    ds = _dataset(g, 5, 2)
    emb = embed(ds, params)
    assert q_stat(local_features(ds, params), (emb.v - emb.v)[None])[0] == 0.0


def test_q_stat_zero_for_constant_features():
    local = LocalFeatureSet(kind=POLY2, features=poly2_lift(np.ones((4, 1))))
    # lifts (1, sqrt2 m, C) of the moments (0.5, 0.5) and (0.1, 0.4)
    a = Embedding(kind=POLY2, v=np.array([1.0, math.sqrt(2.0) * 0.5, 0.5]))
    b = Embedding(kind=POLY2, v=np.array([1.0, math.sqrt(2.0) * 0.1, 0.4]))
    assert q_stat(local, (a.v - b.v)[None])[0] == 0.0


def test_q_stat_feature_form_matches_plain_numpy_oracle():
    g = np.random.default_rng(14)
    params = sample_rff(KERNEL2, 24, seed=7)
    ds, other = _dataset(g, 6, 2), _dataset(g, 5, 2)
    local = local_features(ds, params)
    nu_1, nu_k = embed(ds, params), embed(other, params)
    u = nu_k.v - nu_1.v
    F = local.features
    oracle = float(np.sum(((F - nu_1.v) @ u) ** 2) / (F.shape[0] - 1))
    assert q_stat(local, u[None])[0] == pytest.approx(oracle, rel=1e-10)


def test_q_stat_exact_kernel_expansion_matches_feature_form():
    g = np.random.default_rng(15)
    kernel = poly2_kernel(2)
    ds, other = _dataset(g, 6, 2), _dataset(g, 4, 2)
    feature_form = q_stat(
        local_features(ds, POLY2), (embed(other, POLY2).v - embed(ds, POLY2).v)[None]
    )[0]
    kernel_form = kernel_q_stat(exact_embed(ds, kernel), exact_embed(other, kernel), exact_embed(ds, kernel))
    assert kernel_form == pytest.approx(feature_form, rel=1e-10)


def test_rff_embedding_norm_invariant_enforced():
    with pytest.raises(ValueError):
        Embedding(kind="rff", v=np.full(8, 1.0))


def test_cauchy_schwarz_across_representations():
    g = np.random.default_rng(18)
    params = sample_rff(KERNEL2, 16, seed=8)
    kernel = poly2_kernel(2)
    for make in (lambda ds: embed(ds, params), lambda ds: embed(ds, POLY2), lambda ds: exact_embed(ds, kernel)):
        a = make(_dataset(g, 4, 2))
        b = make(_dataset(g, 6, 2))
        assert kme_inner(a, b) ** 2 <= kme_inner(a, a) * kme_inner(b, b) + 1e-12


def test_population_embedding_of_gaussian():
    mean = np.array([1.0, -0.5])
    cov = np.array([[0.5, 0.1], [0.1, 0.3]])
    pop = poly2_population_embedding(mean, cov)
    S = cov + np.outer(mean, mean)
    r = math.sqrt(2.0)
    np.testing.assert_allclose(pop.v, [1.0, r * mean[0], r * mean[1], S[0, 0], r * S[0, 1], S[1, 1]])
    # large-sample empirical embedding converges to the analytic one
    g = np.random.default_rng(19)
    Z = g.multivariate_normal(mean, cov, size=200000)
    emp = embed(dataset_of(Z), POLY2)
    assert mmd2(emp, pop) <= 1e-3


def test_scope_features_drops_label_column():
    g = np.random.default_rng(20)
    X = g.normal(size=(5, 2))
    y = g.normal(size=5)
    labeled = AgentDataset(X, y)
    emb = embed(labeled, POLY2, scope="features")
    assert emb.v.size == 1 + 2 + 3  # the lift of two features, not three
    np.testing.assert_allclose(emb.v[1:3], math.sqrt(2.0) * X.mean(axis=0))


def test_poly2_vector_inner_products_match_moment_closed_form():
    g = np.random.default_rng(21)
    Za, Zb = g.normal(size=(5, 2)), g.normal(size=(5, 2))
    a, b = embed(dataset_of(Za), POLY2), embed(dataset_of(Zb), POLY2)
    closed = 1.0 + 2.0 * Za.mean(axis=0) @ Zb.mean(axis=0) + np.sum((Za.T @ Za / 5) * (Zb.T @ Zb / 5))
    assert float(a.v @ b.v) == pytest.approx(closed, rel=1e-12)


def test_featurize_agent_matches_embed_and_local_features_bit_for_bit():
    # one featurization yields both objects: the RFF embedding is the mean of
    # the very matrix a target keeps, so nothing differs from two passes
    g = np.random.default_rng(22)
    X, y = g.normal(size=(7, 2)), g.normal(size=7)
    ds = AgentDataset(X, y)
    cases = (
        (sample_rff(isotropic_gaussian_kernel(3), 24, seed=8), "full"),
        (sample_rff(KERNEL2, 24, seed=9), "features"),
        (POLY2, "full"),
        (POLY2, "features"),
    )
    for mode, scope in cases:
        Z = np.column_stack([X, y]) if scope == "full" else X
        emb, local = featurize_agent(ds, mode, scope, with_features=True)
        ref_emb = embed(ds, mode, scope=scope)
        ref_local = local_features(ds, mode, scope=scope)
        assert emb.kind == ref_emb.kind
        assert local.kind == ref_local.kind
        assert np.array_equal(local.features, ref_local.features)
        if mode == POLY2:
            assert np.array_equal(emb.v, ref_emb.v)
            assert np.array_equal(emb.v, _poly2_summary_lift(Z.mean(axis=0), Z.T @ Z / Z.shape[0]))
            np.testing.assert_allclose(emb.v, poly2_lift(Z).mean(axis=0), rtol=1e-12)
            assert np.array_equal(local.features, poly2_lift(Z))
        else:
            F = featurize_matrix(mode, Z)
            assert np.array_equal(emb.v, ref_emb.v) and np.array_equal(emb.v, F.mean(axis=0))
            assert np.array_equal(local.features, F)
        assert featurize_agent(ds, mode, scope)[1] is None
    # the exact kernel is a test oracle (reference_kme), not a protocol mode
    with pytest.raises(ValueError, match="unknown embedding mode"):
        featurize_agent(ds, EXACT)


def test_embedding_and_local_features_reject_other_kinds():
    for kind in (EXACT, "RFF", "poly3", ""):
        with pytest.raises(ValueError, match="unknown embedding kind"):
            Embedding(kind=kind, v=np.zeros(8))
        with pytest.raises(ValueError, match="unknown feature kind"):
            LocalFeatureSet(kind=kind, features=np.zeros((2, 8)))
