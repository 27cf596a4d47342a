"""Synthetic generators, their exact population moments, and CSV ingestion."""

import math

import numpy as np
import pytest

from fedkme.data import AgentDataset
from fedkme.datagen import (
    ConceptShiftSpec,
    CovariateShiftSpec,
    concept_shift_moments,
    concept_shift_test_sets,
    covariate_response,
    covariate_shift_moments,
    covariate_shift_test_sets,
    gen_concept_shift,
    gen_covariate_shift,
    load_csv_agents,
    write_csv,
)
from fedkme.models import LINEAR_GD, RIDGE, ModelSpec, evaluate, fit_weighted, moment_risk
from fedkme.rng import stream


def test_concept_spec_defaults_and_validation():
    spec = ConceptShiftSpec(sigma_c2=0.5)
    assert (spec.b, spec.n_k, spec.d, spec.sigma_y2) == (100, 10, 20, 2.0)
    with pytest.raises(ValueError):
        ConceptShiftSpec(sigma_c2=-0.01)
    with pytest.raises(ValueError):
        ConceptShiftSpec(sigma_c2=1.01)
    with pytest.raises(ValueError):
        ConceptShiftSpec(sigma_c2=0.5, b=0)
    with pytest.raises(ValueError):
        ConceptShiftSpec(sigma_c2=0.5, sigma_y2=0.0)


def test_concept_zero_shift_gives_two_exact_clusters():
    spec = ConceptShiftSpec(sigma_c2=0.0, b=40, n_k=3, d=6, seed=5)
    _, betas, groups = gen_concept_shift(spec)
    beta_0 = betas[groups.index(0)]
    for beta, group in zip(betas, groups):
        expected = beta_0 if group == 0 else -beta_0
        np.testing.assert_array_equal(beta, expected)
    assert set(groups) <= {0, 1}


def test_concept_full_shift_betas_uncorrelated_with_shared_direction():
    spec = ConceptShiftSpec(sigma_c2=1.0, b=200, n_k=2, d=50, seed=6)
    _, betas, _ = gen_concept_shift(spec)
    beta_0 = stream(6, "concept-shared").normal(size=50)
    unit = beta_0 / np.linalg.norm(beta_0)
    corrs = [float(np.dot(b / np.linalg.norm(b), unit)) for b in betas]
    assert abs(float(np.mean(corrs))) <= 0.1


@pytest.mark.parametrize("sigma_c2", [0.0, 0.3, 0.7, 1.0])
def test_concept_beta_norm_is_the_dimension(sigma_c2):
    # the shared direction is drawn once per seed, so the average must span
    # many seeds or sigma_c2 = 0 would only ever sample one ||beta_0||^2
    d = 12
    draws = []
    for seed in range(250):
        spec = ConceptShiftSpec(sigma_c2=sigma_c2, b=4, n_k=1, d=d, seed=seed)
        _, betas, _ = gen_concept_shift(spec)
        draws.extend(float(np.sum(b * b)) for b in betas)
    assert len(draws) == 1000
    mean_sq = float(np.mean(draws))
    assert 0.9 * d <= mean_sq <= 1.1 * d


def test_concept_feature_mean_is_one():
    reps = 5
    spec_base = ConceptShiftSpec(sigma_c2=0.5, b=50, n_k=10, d=4)
    total, count = 0.0, 0
    for rep in range(reps):
        spec = ConceptShiftSpec(sigma_c2=0.5, b=50, n_k=10, d=4, seed=rep)
        datasets, _, _ = gen_concept_shift(spec)
        for ds in datasets:
            total += float(ds.X.sum())
            count += ds.X.size
    tol = 3.0 / np.sqrt(spec_base.b * spec_base.n_k * reps)
    assert abs(total / count - 1.0) <= tol


def test_concept_labels_follow_the_linear_model():
    spec = ConceptShiftSpec(sigma_c2=0.4, b=5, n_k=2000, d=3, sigma_y2=0.25, seed=8)
    datasets, betas, _ = gen_concept_shift(spec)
    for ds, beta in zip(datasets, betas):
        resid = ds.y - ds.X @ beta
        assert abs(float(np.var(resid)) - 0.25) <= 0.05
        assert abs(float(np.mean(resid))) <= 0.05


def test_concept_determinism_and_seed_sensitivity():
    spec = ConceptShiftSpec(sigma_c2=0.3, b=8, n_k=5, d=4, seed=11)
    a, betas_a, groups_a = gen_concept_shift(spec)
    b, betas_b, groups_b = gen_concept_shift(spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.X, y.X)
        np.testing.assert_array_equal(x.y, y.y)
    np.testing.assert_array_equal(np.stack(betas_a), np.stack(betas_b))
    assert groups_a == groups_b
    other, _, _ = gen_concept_shift(ConceptShiftSpec(sigma_c2=0.3, b=8, n_k=5, d=4, seed=12))
    assert not np.array_equal(a[0].X, other[0].X)


def test_concept_test_sets_are_consistent_and_independent():
    spec = ConceptShiftSpec(sigma_c2=0.3, b=6, n_k=5, d=4, seed=13)
    train, betas, _ = gen_concept_shift(spec)
    tests = concept_shift_test_sets(spec, betas, n_test=7)
    assert len(tests) == 6
    for k, ts in enumerate(tests):
        assert ts.n == 7
        # same agent law: residuals against the agent's own beta are pure noise
        resid = ts.y - ts.X @ betas[k]
        assert np.all(np.isfinite(resid))
    # independence: fresh draws, not a prefix of the training sample
    assert not np.array_equal(tests[0].X[: train[0].n], train[0].X)
    # agent k's set drawn alone, or among others in any order, is the bits of its set drawn among all
    _assert_same_sets([concept_shift_test_sets(spec, betas, 7, [k])[0] for k in range(6)], tests)
    _assert_same_sets(concept_shift_test_sets(spec, betas, 7, [4, 1]), [tests[4], tests[1]])


def _assert_same_sets(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.X.tobytes() == b.X.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_concept_test_sets_follow_each_agents_own_beta():
    # with almost no label noise a test set's labels pin down the beta it was drawn with
    spec = ConceptShiftSpec(sigma_c2=1.0, b=6, n_k=5, d=4, sigma_y2=1e-20, seed=14)
    _, betas, _ = gen_concept_shift(spec)
    for k, ts in enumerate(concept_shift_test_sets(spec, betas, n_test=7)):
        assert np.abs(ts.y - ts.X @ betas[k]).max() <= 1e-8


def test_covariate_spec_defaults_and_validation():
    spec = CovariateShiftSpec()
    assert (spec.b, spec.n_k, spec.d, spec.k1, spec.k2) == (100, 20, 4, 30, 30)
    assert spec.v1_sq == 0.01 and spec.v2_sq == 0.3
    assert spec.mu0 == (2.0, 2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        CovariateShiftSpec(k1=60, k2=60, b=100)
    with pytest.raises(ValueError):
        CovariateShiftSpec(d=1)
    with pytest.raises(ValueError):
        CovariateShiftSpec(v1_sq=0.0)
    with pytest.raises(ValueError):
        CovariateShiftSpec(mu0=(1.0, 2.0))


def test_covariate_group_sizes():
    _, groups = gen_covariate_shift(CovariateShiftSpec(seed=14))
    assert groups.count(0) == 30 and groups.count(1) == 30 and groups.count(2) == 40
    assert groups == sorted(groups)


def test_covariate_uniform_group_support():
    spec = CovariateShiftSpec(b=10, k1=2, k2=2, n_k=50, seed=15)
    datasets, groups = gen_covariate_shift(spec)
    for ds, group in zip(datasets, groups):
        if group == 2:
            assert float(ds.X.min()) >= -6.0 and float(ds.X.max()) <= 6.0


def test_covariate_group_centers():
    spec = CovariateShiftSpec(b=60, k1=30, k2=30, n_k=200, v1_sq=0.01, v2_sq=0.01, seed=16)
    datasets, groups = gen_covariate_shift(spec)
    g0 = np.concatenate([ds.X for ds, g in zip(datasets, groups) if g == 0])
    g1 = np.concatenate([ds.X for ds, g in zip(datasets, groups) if g == 1])
    np.testing.assert_allclose(g0.mean(axis=0), np.zeros(4), atol=0.15)
    np.testing.assert_allclose(g1.mean(axis=0), np.full(4, 2.0), atol=0.15)


def test_covariate_response_at_origin():
    X = np.zeros((1, 4))
    assert covariate_response(X, np.zeros(1))[0] == 0.0


def test_covariate_response_formula():
    g = np.random.default_rng(17)
    X = g.normal(size=(50, 5))
    noise = g.normal(size=50)
    expected = np.sin(3 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.1 * (X[:, 2] + X[:, 3] + X[:, 4]) + noise
    np.testing.assert_allclose(covariate_response(X, noise), expected, rtol=1e-15)


def test_covariate_noise_variance():
    spec = CovariateShiftSpec(b=5, k1=5, k2=0, n_k=2000, seed=18)
    datasets, _ = gen_covariate_shift(spec)
    resid = np.concatenate([ds.y - covariate_response(ds.X, 0.0) for ds in datasets])
    assert abs(float(np.var(resid)) - 0.04) <= 0.15 * 0.04


def test_covariate_determinism_and_test_split():
    spec = CovariateShiftSpec(b=6, k1=2, k2=2, n_k=4, seed=19)
    a, _ = gen_covariate_shift(spec)
    b, _ = gen_covariate_shift(spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.X, y.X)
    tests = covariate_shift_test_sets(spec, n_test=9)
    assert [ts.n for ts in tests] == [9] * 6
    assert not np.array_equal(tests[0].X[:4], a[0].X)
    # agents 0, 2 and 5 are one of each group; each set drawn alone is the bits of that set drawn among all
    _assert_same_sets([covariate_shift_test_sets(spec, 9, [k])[0] for k in range(6)], tests)
    _assert_same_sets(covariate_shift_test_sets(spec, 9, [5, 2, 0]), [tests[5], tests[2], tests[0]])


_SETS, _ROWS = 200, 500  # sampled held-out sets per model, and rows per set
_MODELS = [ModelSpec(kind=RIDGE, lam=0.1), ModelSpec(kind=LINEAR_GD, lr=0.02, epochs=200)]


def _assert_sampled_mean_matches(model, exact, drawn, label):
    # the test MSE over fresh sets averages to the exact risk; each set is
    # every _SETS-th row of one draw from the agent's test stream, so the sets are independent
    X, y = drawn.X, drawn.y
    mse = np.array([evaluate(model, AgentDataset(X[i::_SETS], y[i::_SETS]), "mse") for i in range(_SETS)])
    stderr = mse.std(ddof=1) / math.sqrt(_SETS)
    assert abs(mse.mean() - exact) < 4.0 * stderr, f"{label}: sampled {mse.mean():.4f} +- {stderr:.4f}, exact {exact:.4f}"


def _fits(datasets, k):
    # the agent's own model and the grand-mean model, under each squared-loss kind
    rows = [np.eye(len(datasets))[k], np.ones(len(datasets))]
    return [(spec.kind, model) for spec in _MODELS for model in fit_weighted(spec, rows, datasets)]


def test_concept_shift_moments_give_each_models_exact_risk():
    spec = ConceptShiftSpec(sigma_c2=0.3, b=6, n_k=15, d=6, sigma_y2=1.5, seed=21)
    datasets, betas, _ = gen_concept_shift(spec)
    moments = concept_shift_moments(spec, betas)
    for k in (0, 3):
        drawn = concept_shift_test_sets(spec, betas, _SETS * _ROWS, [k])[0]
        for kind, model in _fits(datasets, k):
            exact = moment_risk(model, moments[k])
            theta, c = model.coefficients, model.intercept
            direct = spec.sigma_y2 + np.sum((betas[k] - theta) ** 2) + (np.sum(betas[k] - theta) - c) ** 2
            assert abs(exact - direct) <= 1e-12 * direct
            assert exact >= spec.sigma_y2 * (1.0 - 1e-12)
            _assert_sampled_mean_matches(model, exact, drawn, f"agent {k}, {kind}")


def test_covariate_shift_moments_give_each_models_exact_risk():
    # unequal group variances, and d = 5 for the linear coordinates beyond x_2
    spec = CovariateShiftSpec(b=6, n_k=40, d=5, k1=2, k2=2, sigma1_sq=0.5, sigma2_sq=1.5, seed=22)
    datasets, groups = gen_covariate_shift(spec)
    moments = covariate_shift_moments(spec)
    for k in (0, 2, 5):  # one agent of each group: two Gaussian, one uniform
        drawn = covariate_shift_test_sets(spec, _SETS * _ROWS, [k])[0]
        for kind, model in _fits(datasets, k):
            exact = moment_risk(model, moments[k])
            assert exact >= 0.04 * (1.0 - 1e-12)  # the noise variance bounds every model's risk
            _assert_sampled_mean_matches(model, exact, drawn, f"agent {k} of group {groups[k]}, {kind}")


def test_covariate_shift_moments_match_quadrature():
    # every entry of E[z z'] by tensor-product Gauss quadrature over x's law: Hermite nodes
    # for a Gaussian coordinate, Legendre nodes for a uniform one; this resolves terms such as
    # cos(6m) e^{-18s^2} that sit far below the sampling noise of a held-out set
    spec = CovariateShiftSpec(b=3, n_k=5, d=3, k1=1, k2=1, sigma1_sq=0.3, sigma2_sq=0.8, seed=24)
    groups = [spec.group_of(k) for k in range(spec.b)]
    for k, moment in enumerate(covariate_shift_moments(spec)):
        if groups[k] == 2:
            nodes, weights = np.polynomial.legendre.leggauss(120)
            nodes, weights = [6.0 * nodes] * spec.d, weights / 2.0
        else:
            nodes, weights = np.polynomial.hermite_e.hermegauss(60)
            # the agent's mean, from the stream its training set is drawn around
            draw = stream(spec.seed, "covshift-mean", k).normal(size=spec.d)
            if groups[k] == 0:
                mean, scale = math.sqrt(spec.v1_sq) * draw, math.sqrt(spec.sigma1_sq)
            else:
                mean, scale = np.array(spec.mu0) + math.sqrt(spec.v2_sq) * draw, math.sqrt(spec.sigma2_sq)
            nodes, weights = [m + scale * nodes for m in mean], weights / math.sqrt(2.0 * math.pi)
        X = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, spec.d)
        w = np.prod(np.meshgrid(*[weights] * spec.d, indexing="ij"), axis=0).ravel()
        Z = np.column_stack([X, np.ones(len(X)), covariate_response(X, 0.0)])
        quad = (Z * w[:, None]).T @ Z
        quad[-1, -1] += 0.04
        np.testing.assert_allclose(moment, quad, rtol=1e-10, atol=1e-10, err_msg=f"agent {k}")


def test_moments_of_one_agent_are_the_bits_of_all_agents():
    concept = ConceptShiftSpec(sigma_c2=0.5, b=5, n_k=3, d=4, seed=23)
    _, betas, _ = gen_concept_shift(concept)
    covariate = CovariateShiftSpec(b=6, n_k=3, d=3, k1=2, k2=2, seed=23)
    for every, one in (
        (concept_shift_moments(concept, betas), lambda k: concept_shift_moments(concept, betas, [k])[0]),
        (covariate_shift_moments(covariate), lambda k: covariate_shift_moments(covariate, [k])[0]),
    ):
        for k, moment in enumerate(every):
            assert moment.tobytes() == one(k).tobytes()
            np.testing.assert_array_equal(moment, moment.T)
    assert concept_shift_moments(concept, betas, []).shape == (0, 6, 6)
    assert covariate_shift_moments(covariate, []).shape == (0, 5, 5)


def test_concept_moments_are_the_bits_of_each_agents_own_sums():
    # the stack's row sums and row dot products are each agent's np.sum(beta_k) and beta_k @ beta_k
    spec = ConceptShiftSpec(sigma_c2=0.5, b=7, n_k=3, d=20, sigma_y2=1.5, seed=25)
    _, betas, _ = gen_concept_shift(spec)
    for beta, moment in zip(betas, concept_shift_moments(spec, betas)):
        total = float(np.sum(beta))
        assert moment[:-2, -1].tobytes() == (total + beta).tobytes()
        assert moment[-2, -1] == total
        assert moment[-1, -1] == total * total + beta @ beta + spec.sigma_y2


def test_csv_round_trip_is_bit_exact(tmp_path):
    spec = ConceptShiftSpec(sigma_c2=0.5, b=4, n_k=6, d=3, seed=20)
    datasets, _, _ = gen_concept_shift(spec)
    path = tmp_path / "train.csv"
    write_csv(datasets, path)
    back = load_csv_agents(path)
    assert list(back) == ["0", "1", "2", "3"]
    for ds, rt in zip(datasets, back.values()):
        np.testing.assert_array_equal(ds.X, rt.X)
        np.testing.assert_array_equal(ds.y, rt.y)


def test_write_csv_header(tmp_path):
    spec = ConceptShiftSpec(sigma_c2=0.0, b=1, n_k=1, d=2, seed=21)
    datasets, _, _ = gen_concept_shift(spec)
    path = tmp_path / "one.csv"
    write_csv(datasets, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "agent_id,x_1,x_2,y"
    assert len(lines) == 2


def test_load_csv_single_agent(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("agent_id,x_1,y\n0,1.5,2.0\n0,-1.0,0.5\n")
    sets = load_csv_agents(path)
    assert list(sets) == ["0"] and sets["0"].n == 2
    np.testing.assert_array_equal(sets["0"].X, [[1.5], [-1.0]])
    np.testing.assert_array_equal(sets["0"].y, [2.0, 0.5])


def test_load_csv_interleaved_agents(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text("agent_id,x_1,y\na,1,10\nb,2,20\na,3,30\nb,4,40\n")
    sets = load_csv_agents(path)
    assert list(sets) == ["a", "b"]
    assert [s.n for s in sets.values()] == [2, 2]
    np.testing.assert_array_equal(sets["a"].X[:, 0], [1.0, 3.0])
    np.testing.assert_array_equal(sets["b"].X[:, 0], [2.0, 4.0])
    rows = sorted(
        (float(x[0]), float(y)) for s in sets.values() for x, y in zip(s.X, s.y)
    )
    assert rows == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]


def test_load_csv_malformed_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    cases = (("oops", "non-numeric"), ("nan", "non-finite"), ("inf", "non-finite"), ("-Infinity", "non-finite"))
    for cell, kind in cases:
        for bad_row, column in (([f"0,{cell},9"], "x_1"), ([f"0,9,{cell}"], "y")):
            lines = ["agent_id,x_1,y"] + [f"0,{i},{i}" for i in range(5)] + bad_row
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=f"row 7, column '{column}': {kind} cell '{cell}'"):
                load_csv_agents(path)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("agent_id,x_1\n0,1.0\n")
    with pytest.raises(ValueError, match="missing column 'y'"):
        load_csv_agents(path)


def test_load_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv_agents(empty)
    header_only = tmp_path / "hdr.csv"
    header_only.write_text("agent_id,x_1,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv_agents(header_only)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("agent_id,x_1,y\n0,1.0,2.0\n0,1.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv_agents(path)

