"""Weighted ERM solvers: closed form vs gradient descent vs FedAvg."""


import numpy as np
import pytest

from fedkme import models
from fedkme.data import AgentDataset, audit_raw_access
from fedkme.datagen import (
    ConceptShiftSpec,
    CovariateShiftSpec,
    concept_shift_moments,
    covariate_shift_moments,
    gen_concept_shift,
    gen_covariate_shift,
)
from fedkme.models import (
    ACCURACY,
    LINEAR_GD,
    LOGISTIC_GD,
    MSE,
    RIDGE,
    FittedModel,
    ModelSpec,
    evaluate,
    fedavg,
    fit_weighted,
    moment_risk,
    moment_risks,
    weighted_gradient,
)
from fedkme.qagg import SimplexWeights
from reference_kme import weighted_objective


def _regression_agents(seed, B=3, n=30, d=4):
    g = np.random.default_rng(seed)
    out = []
    for _ in range(B):
        X = g.normal(size=(n, d))
        beta = g.normal(size=d)
        y = X @ beta + 0.1 * g.normal(size=n)
        out.append(AgentDataset(X, y))
    return out


def _theta(model):
    if np.ndim(model.intercept) == 0:
        return np.append(model.coefficients, model.intercept)
    return np.vstack([model.coefficients, model.intercept])


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="forest")
    with pytest.raises(ValueError):
        ModelSpec(lam=-0.1)
    with pytest.raises(ValueError):
        ModelSpec(lr=0.0)
    with pytest.raises(ValueError):
        ModelSpec(epochs=0)
    with pytest.raises(ValueError):
        ModelSpec(kind=LOGISTIC_GD, classes=1)


def test_zero_weights_rejected():
    datasets = _regression_agents(0, B=2)
    spec = ModelSpec(kind=RIDGE, lam=0.1)
    with pytest.raises(ValueError):
        fit_weighted(spec, [np.zeros(2)], datasets)
    with pytest.raises(ValueError):
        fit_weighted(spec, [np.array([1.0, -1.0])], datasets)
    with pytest.raises(ValueError):
        fit_weighted(spec, [SimplexWeights(np.array([1.0]))], datasets)


def test_non_finite_weights_rejected():
    datasets = _regression_agents(0, B=2)
    for w in (np.array([np.nan, 1.0]), np.array([np.inf, 1.0])):
        for fit in (lambda rows: fit_weighted(ModelSpec(kind=RIDGE), rows, datasets),
                    lambda rows: fedavg(ModelSpec(kind=LINEAR_GD), rows, datasets, rounds=1, local_steps=1, lr=0.1)):
            with pytest.raises(ValueError, match="weights must be finite"):
                fit([np.array([1.0, 0.0]), w])


def test_unit_weight_on_target_is_a_local_fit():
    datasets = _regression_agents(1)
    spec = ModelSpec(kind=RIDGE, lam=0.05)
    pooled = fit_weighted(spec, [SimplexWeights(np.array([1.0, 0.0, 0.0]))], datasets)[0]
    solo = fit_weighted(spec, [SimplexWeights(np.array([1.0]))], [datasets[0]])[0]
    np.testing.assert_array_equal(pooled.coefficients, solo.coefficients)
    assert pooled.intercept == solo.intercept


def test_equal_weights_on_copies_match_single_fit():
    datasets = _regression_agents(2, B=1)
    ds = datasets[0]
    spec = ModelSpec(kind=RIDGE, lam=0.2)
    split = fit_weighted(spec, [SimplexWeights(np.array([0.5, 0.5]))], [ds, ds])[0]
    single = fit_weighted(spec, [SimplexWeights(np.array([1.0]))], [ds])[0]
    np.testing.assert_allclose(split.coefficients, single.coefficients, rtol=1e-10)
    assert split.intercept == pytest.approx(single.intercept, rel=1e-10)


def test_weight_rescaling_is_bitwise_neutral():
    # dyadic weights so the normalization divide is exact
    datasets = _regression_agents(3)
    spec = ModelSpec(kind=RIDGE, lam=0.1)
    w = np.array([0.5, 0.25, 0.25])
    a = fit_weighted(spec, [w], datasets)[0]
    b = fit_weighted(spec, [2.0 * w], datasets)[0]
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    assert a.intercept == b.intercept


def test_ridge_normal_equation_residual():
    g = np.random.default_rng(4)
    for i in range(20):
        datasets = _regression_agents(100 + i, B=int(g.integers(1, 4)), n=25)
        B = len(datasets)
        w = g.dirichlet(np.ones(B))
        lam = float(g.uniform(0.01, 1.0))
        spec = ModelSpec(kind=RIDGE, lam=lam)
        model = fit_weighted(spec, [SimplexWeights(w)], datasets)[0]
        p = datasets[0].dim + 1
        G = np.zeros((p, p))
        r = np.zeros(p)
        for wk, ds in zip(w, datasets):
            Xd = np.hstack([ds.X, np.ones((ds.n, 1))])
            G += (wk / ds.n) * (Xd.T @ Xd)
            r += (wk / ds.n) * (Xd.T @ ds.y)
        theta = _theta(model)
        resid = (G + lam * np.eye(p)) @ theta - r
        assert float(np.max(np.abs(resid))) <= 1e-8 * max(1.0, float(np.max(np.abs(r))))
        assert model.status == "ok"


def test_ridge_is_the_weighted_objective_minimum():
    datasets = _regression_agents(5)
    w = np.array([0.6, 0.3, 0.1])
    spec = ModelSpec(kind=RIDGE, lam=0.3)
    model = fit_weighted(spec, [SimplexWeights(w)], datasets)[0]
    theta = _theta(model)
    base = weighted_objective(spec, w, datasets, theta)
    g = np.random.default_rng(6)
    for _ in range(100):
        assert weighted_objective(spec, w, datasets, theta + 0.01 * g.normal(size=theta.shape)) >= base


def test_singular_unpenalized_system_reports_min_norm():
    # duplicated feature column makes the Gram matrix rank deficient
    g = np.random.default_rng(7)
    base = g.normal(size=(12, 2))
    X = np.hstack([base, base[:, :1]])
    y = base @ np.array([1.0, -2.0]) + 0.05 * g.normal(size=12)
    spec = ModelSpec(kind=RIDGE, lam=0.0)
    model = fit_weighted(spec, [SimplexWeights(np.array([1.0]))], [AgentDataset(X, y)])[0]
    assert model.status == "singular-min-norm"
    assert np.all(np.isfinite(model.coefficients))
    pred = model.predict(X)
    assert float(np.mean((pred - y) ** 2)) <= 0.01


def test_singular_when_fewer_samples_than_parameters():
    # n < p with lam = 0: the normal equations are singular, and the fit is
    # their minimum-norm solution however the rounding falls
    g = np.random.default_rng(23)
    datasets = [AgentDataset(g.normal(size=(n, 12)), g.normal(size=n)) for n in (4, 5)]
    w = np.array([0.3, 0.7])
    model = fit_weighted(ModelSpec(kind=RIDGE, lam=0.0), [SimplexWeights(w)], datasets)[0]
    assert model.status == "singular-min-norm"
    H, r = _row_normal_equations(w, datasets, 0.0)
    expected = np.linalg.pinv(H, rcond=1e-10) @ r
    np.testing.assert_allclose(_theta(model), expected, rtol=1e-9, atol=1e-12)


def _row_normal_equations(w, datasets, lam):
    p = datasets[0].dim + 1
    H = lam * np.eye(p)
    r = np.zeros(p)
    for wk, ds in zip(w, datasets):
        Xd = np.hstack([ds.X, np.ones((ds.n, 1))])
        H += (wk / ds.n) * (Xd.T @ Xd)
        r += (wk / ds.n) * (Xd.T @ ds.y)
    return H, r


def _ridge_cases():
    """(label, lam, datasets, weight rows): singular and near-square systems at lam = 0, and lam > 0."""
    g = np.random.default_rng(31)

    def agents(sizes, d, duplicate=None):
        # duplicate: the scale of the noise on a copy of the first column, 0.0 for an exact copy
        out = []
        for n in sizes:
            X = g.normal(loc=0.3, size=(n, d))
            if duplicate is not None:
                X = np.hstack([X, X[:, :1] + duplicate * g.normal(size=(n, 1))])
            out.append(AgentDataset(X, X @ g.normal(size=X.shape[1]) + 0.5 + 0.3 * g.normal(size=n)))
        return out

    def rows(B):
        eye = np.eye(B)
        pair = np.zeros(B)
        pair[[0, B - 1]] = [0.4, 0.6]
        return [*eye, pair, *g.dirichlet(np.ones(B), size=4)]

    # p = d + 1 parameters; fewer pooled samples than p, a duplicated column, and n within one of p;
    # a column within 1e-4 of another leaves eigenvalues near 1e-9 of the largest, which both keep
    yield "n_below_p", 0.0, agents((2, 3, 4), 10), rows(3)
    yield "duplicated_column", 0.0, agents((20, 30, 25), 4, duplicate=0.0), rows(3)
    yield "near_duplicate_column", 0.0, agents((20, 30, 25), 4, duplicate=1e-4), rows(3)
    yield "lam_positive", 0.7, agents((3, 12, 40, 8), 6), rows(4)
    yield "lam_positive_n_below_p", 1e-3, agents((2, 3, 4), 10), rows(3)
    yield "n_near_p", 0.0, agents((6, 7, 8), 6), [*np.eye(3), np.ones(3)]


_RIDGE_CASES = list(_ridge_cases())


@pytest.mark.parametrize("label, lam, datasets, rows", _RIDGE_CASES, ids=[case[0] for case in _RIDGE_CASES])
def test_ridge_eigen_solve_matches_lstsq(label, lam, datasets, rows):
    # the eigen-solve keeps |lambda_i| > _RANK_RTOL max |lambda|, as lstsq keeps the
    # singular values above rcond times the largest, so the two agree on every status
    fitted = fit_weighted(ModelSpec(kind=RIDGE, lam=lam), rows, datasets)
    for w, model in zip(rows, fitted):
        _, _, _, S_w, r_w = _moment_form(w, datasets)
        H = S_w + lam * np.eye(len(r_w))
        want, _, rank, _ = np.linalg.lstsq(H, r_w, rcond=models._RANK_RTOL)
        assert model.status == ("ok" if rank == len(r_w) else "singular-min-norm"), (label, w)
        theta = _theta(model)
        if np.linalg.cond(H) <= 1e4:
            assert _relative_error(theta, want) <= 1e-9, (label, w)
        resid = H @ theta - r_w
        assert float(np.max(np.abs(resid))) <= 1e-8 * max(1.0, float(np.max(np.abs(r_w)))), (label, w)
    statuses = {model.status for model in fitted}
    if label in ("n_below_p", "duplicated_column"):
        assert statuses == {"singular-min-norm"}
    if label.startswith("lam_positive") or label == "near_duplicate_column":
        assert statuses == {"ok"}


def _zero_params(spec, datasets):
    p = datasets[0].dim + 1
    return np.zeros((p, spec.classes) if spec.kind == LOGISTIC_GD else p)


def _row_gd(spec, w, datasets):
    theta = _zero_params(spec, datasets)
    for _ in range(spec.epochs):
        theta = theta - spec.lr * weighted_gradient(spec, w, datasets, theta)
    return theta


def _row_fedavg(spec, w, datasets, rounds, local_steps, lr):
    participants = [k for k in range(len(datasets)) if w[k] > 0.0]
    total = sum(w[k] for k in participants)
    theta = _zero_params(spec, datasets)
    for _ in range(rounds):
        aggregate = np.zeros_like(theta)
        for k in participants:
            local = theta
            for _ in range(local_steps):
                local = local - lr * weighted_gradient(spec, np.array([1.0]), [datasets[k]], local)
            aggregate = aggregate + (w[k] / total) * local
        theta = aggregate
    return theta


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_moment_fits_match_row_based_references():
    # agents of different sizes, one with zero weight, lam > 0; the same
    # dataset objects serve every fit
    g = np.random.default_rng(24)
    datasets = []
    for n in (7, 19, 11, 4):
        X = g.normal(loc=0.5, size=(n, 3))
        datasets.append(AgentDataset(X, X @ g.normal(size=3) + 1.5 + 0.2 * g.normal(size=n)))
    w = np.array([0.45, 0.0, 0.35, 0.2])
    ridge = ModelSpec(kind=RIDGE, lam=0.3)
    H, r = _row_normal_equations(w, datasets, ridge.lam)
    got = _theta(fit_weighted(ridge, [SimplexWeights(w)], datasets)[0])
    assert _relative_error(got, np.linalg.solve(H, r)) <= 1e-10

    gd = ModelSpec(kind=LINEAR_GD, lam=0.3, lr=0.05, epochs=60)
    got = _theta(fit_weighted(gd, [SimplexWeights(w)], datasets)[0])
    assert _relative_error(got, _row_gd(gd, w, datasets)) <= 1e-10

    fed = fedavg(gd, [SimplexWeights(w)], datasets, rounds=15, local_steps=4, lr=0.04)[0]
    assert _relative_error(_theta(fed), _row_fedavg(gd, w, datasets, 15, 4, 0.04)) <= 1e-10


def _moment_form(w, datasets):
    """One normalized row, its active agents, their stacked augmented moments, and its S_w and r_w."""
    w = w / w.sum()
    active = np.flatnonzero(w > 0.0)
    M = np.stack([datasets[k].moments() for k in active])
    return w, active, M, np.tensordot(w[active], M[:, :-1, :-1], axes=1), w[active] @ M[:, :-1, -1]


def _one_row_gd(spec, w, datasets):
    """Gradient descent on one row's weighted moments, one mat-vec per epoch."""
    _, _, _, S_w, r_w = _moment_form(w, datasets)
    theta = np.zeros(S_w.shape[0])
    for _ in range(spec.epochs):
        theta = theta - spec.lr * (2.0 * spec.lam * theta + 2.0 * (S_w @ theta - r_w))
    return theta


def _one_row_fedavg(spec, w, datasets, rounds, local_steps, lr):
    """FedAvg of one row, its participants stepped as one stack."""
    w, active, M, _, _ = _moment_form(w, datasets)
    S, r = M[:, :-1, :-1], M[:, :-1, -1]
    share = w[active] / float(sum(w[k] for k in active))
    theta = np.zeros(S.shape[-1])
    for _ in range(rounds):
        local = theta
        for _ in range(local_steps):
            resid = (S @ local[..., None])[..., 0] - r
            local = local - lr * (2.0 * resid + 2.0 * spec.lam * local)
        theta = share @ local
    return theta


def _mixed_rows(g, B):
    """Vertex rows, a 2-agent row, a dense row, the dense row with a zero-weight agent, and a repeat."""
    eye = np.eye(B)
    pair = np.zeros(B)
    pair[[1, 3]] = [0.3, 0.7]
    dense = g.dirichlet(np.ones(B))
    ghost = dense.copy()
    ghost[2] = 0.0
    return [eye[0], eye[B - 1], pair, dense, ghost / ghost.sum(), eye[0], eye[2]]


def test_gd_batch_rows_are_their_one_row_bits():
    g = np.random.default_rng(28)
    datasets = [AgentDataset(X, X @ g.normal(size=3) + 0.2 * g.normal(size=len(X)))
                for X in (g.normal(loc=0.5, size=(n, 3)) for n in (7, 19, 11, 4, 9))]
    rows = _mixed_rows(g, len(datasets))
    for spec in (ModelSpec(kind=LINEAR_GD, lam=0.3, lr=0.05, epochs=60), ModelSpec(kind=RIDGE, lam=0.3)):
        batch = fit_weighted(spec, rows, datasets)
        assert len(batch) == len(rows)
        for w, model in zip(rows, batch):
            (one,) = fit_weighted(spec, [SimplexWeights(w)], datasets)
            np.testing.assert_array_equal(_theta(model), _theta(one))
            assert model.status == one.status
            if spec.kind == LINEAR_GD:
                np.testing.assert_array_equal(_theta(one), _one_row_gd(spec, w, datasets))


@pytest.mark.parametrize("rounds, local_steps", [(0, 1), (7, 1), (9, 3)])
def test_fedavg_batch_rows_are_their_one_row_bits(rounds, local_steps):
    g = np.random.default_rng(29)
    datasets = _regression_agents(29, B=5, n=13, d=3)
    rows = _mixed_rows(g, len(datasets))
    spec = ModelSpec(kind=LINEAR_GD, lam=0.2)
    batch = fedavg(spec, rows, datasets, rounds=rounds, local_steps=local_steps, lr=0.04)
    assert len(batch) == len(rows)
    for w, model in zip(rows, batch):
        (one,) = fedavg(spec, [w], datasets, rounds=rounds, local_steps=local_steps, lr=0.04)
        np.testing.assert_array_equal(_theta(model), _theta(one))
        np.testing.assert_array_equal(_theta(one), _one_row_fedavg(spec, w, datasets, rounds, local_steps, 0.04))


def test_fedavg_dense_rows_past_the_chunk_budget_keep_their_bits():
    B, d, R = 100, 20, 12
    # each dense row stacks B participant moments; R of them overflow one chunk
    assert models._FEDAVG_CHUNK_BYTES // (B * (d + 2) ** 2 * 8) < R
    g = np.random.default_rng(30)
    datasets = _regression_agents(30, B=B, n=25, d=d)
    rows = list(g.dirichlet(np.ones(B), size=R))
    spec = ModelSpec(kind=LINEAR_GD, lam=0.1)
    batch = fedavg(spec, rows, datasets, rounds=2, local_steps=2, lr=0.01)
    for w, model in zip(rows, batch):
        np.testing.assert_array_equal(_theta(model), _one_row_fedavg(spec, w, datasets, 2, 2, 0.01))


def test_second_fit_reads_no_raw_rows():
    datasets = _regression_agents(25, B=3, n=12, d=3)
    w = SimplexWeights(np.array([0.5, 0.3, 0.2]))
    specs = [ModelSpec(kind=RIDGE, lam=0.1), ModelSpec(kind=LINEAR_GD, lam=0.1, epochs=5)]
    with audit_raw_access() as first:
        fit_weighted(specs[0], [w], datasets)
    assert sorted(map(id, set(first))) == sorted(map(id, datasets))
    with audit_raw_access() as later:
        for spec in specs:
            fit_weighted(spec, [w], datasets)
            fedavg(spec, [w], datasets, rounds=3, local_steps=2, lr=0.05)
    assert later == []


def test_moments_are_the_augmented_second_moment():
    g = np.random.default_rng(26)
    X, y = g.normal(size=(9, 2)), g.normal(size=9)
    ds = AgentDataset(X, y)
    Z = np.column_stack([X, np.ones(9), y])
    np.testing.assert_allclose(ds.moments(), Z.T @ Z / 9, rtol=1e-14)
    assert ds.moments() is ds.moments()
    with pytest.raises(TypeError):
        AgentDataset(X)  # every dataset carries labels


def test_logistic_fits_keep_the_row_based_bits():
    g = np.random.default_rng(27)
    datasets = [AgentDataset(g.normal(size=(n, 2)), g.integers(0, 3, size=n).astype(float)) for n in (8, 13, 5)]
    rows = [np.array([0.5, 0.0, 0.5]), np.array([0.0, 1.0, 0.0]), np.array([0.2, 0.3, 0.5])]
    spec = ModelSpec(kind=LOGISTIC_GD, classes=3, lam=0.05, lr=0.3, epochs=40)
    fits = fit_weighted(spec, [SimplexWeights(w) for w in rows], datasets)
    feds = fedavg(spec, rows, datasets, rounds=6, local_steps=3, lr=0.2)
    for w, model, fed in zip(rows, fits, feds):
        np.testing.assert_array_equal(_theta(model), _row_gd(spec, w, datasets))
        np.testing.assert_array_equal(_theta(fed), _row_fedavg(spec, w, datasets, 6, 3, 0.2))


def test_gradient_matches_finite_differences():
    g = np.random.default_rng(8)
    datasets = _regression_agents(9, B=2, n=15, d=3)
    w = np.array([0.7, 0.3])
    for spec in (ModelSpec(kind=LINEAR_GD, lam=0.2), ModelSpec(kind=RIDGE, lam=0.2)):
        theta = g.normal(size=4)
        grad = weighted_gradient(spec, w, datasets, theta)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            fd = (
                weighted_objective(spec, w, datasets, theta + e)
                - weighted_objective(spec, w, datasets, theta - e)
            ) / 2e-6
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_logistic_gradient_matches_finite_differences():
    g = np.random.default_rng(10)
    X = g.normal(size=(20, 3))
    y = g.integers(0, 3, size=20).astype(float)
    ds = AgentDataset(X, y)
    spec = ModelSpec(kind=LOGISTIC_GD, classes=3, lam=0.1)
    theta = g.normal(size=(4, 3))
    grad = weighted_gradient(spec, np.array([1.0]), [ds], theta)
    for idx in np.ndindex(theta.shape):
        e = np.zeros_like(theta)
        e[idx] = 1e-6
        fd = (
            weighted_objective(spec, np.array([1.0]), [ds], theta + e)
            - weighted_objective(spec, np.array([1.0]), [ds], theta - e)
        ) / 2e-6
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_linear_gd_approaches_closed_form():
    datasets = _regression_agents(11, B=2, n=40, d=3)
    w = SimplexWeights(np.array([0.5, 0.5]))
    exact = fit_weighted(ModelSpec(kind=RIDGE, lam=0.1), [w], datasets)[0]
    gd = fit_weighted(ModelSpec(kind=LINEAR_GD, lam=0.1, lr=0.05, epochs=4000), [w], datasets)[0]
    np.testing.assert_allclose(gd.coefficients, exact.coefficients, rtol=1e-3, atol=1e-4)


def test_fedavg_zero_rounds_is_the_zero_model():
    datasets = _regression_agents(12, B=2)
    spec = ModelSpec(kind=RIDGE, lam=0.1)
    model = fedavg(spec, [SimplexWeights(np.array([0.5, 0.5]))], datasets, rounds=0, local_steps=1, lr=0.05)[0]
    np.testing.assert_array_equal(model.coefficients, np.zeros(4))
    assert model.intercept == 0.0


def test_fedavg_single_local_step_equals_centralized_gd():
    # with one local step and full participation each round is one plain
    # gradient step on the weighted objective
    datasets = _regression_agents(13, B=3, n=20, d=3)
    w = np.array([0.5, 0.3, 0.2])
    spec = ModelSpec(kind=LINEAR_GD, lam=0.15)
    lr = 0.04
    fed = fedavg(spec, [SimplexWeights(w)], datasets, rounds=20, local_steps=1, lr=lr)[0]
    theta = np.zeros(4)
    for _ in range(20):
        theta = theta - lr * weighted_gradient(spec, w, datasets, theta)
    np.testing.assert_allclose(_theta(fed), theta, rtol=1e-10, atol=1e-12)


def test_fedavg_single_agent_is_plain_gd():
    datasets = _regression_agents(14, B=1, n=25)
    spec = ModelSpec(kind=LINEAR_GD, lam=0.0)
    fed = fedavg(spec, [SimplexWeights(np.array([1.0]))], datasets, rounds=6, local_steps=5, lr=0.03)[0]
    theta = np.zeros(5)
    for _ in range(30):
        theta = theta - 0.03 * weighted_gradient(spec, np.array([1.0]), datasets, theta)
    np.testing.assert_allclose(_theta(fed), theta, rtol=1e-12)


def test_fedavg_converges_to_closed_form():
    # one local step per round is exactly centralized GD, so the iterates
    # approach the ridge minimizer; more local steps would add drift bias
    datasets = _regression_agents(15, B=3, n=30, d=3)
    w = SimplexWeights(np.array([0.4, 0.4, 0.2]))
    spec = ModelSpec(kind=RIDGE, lam=0.2)
    exact = _theta(fit_weighted(spec, [w], datasets)[0])
    fed = fedavg(spec, [w], datasets, rounds=500, local_steps=1, lr=0.05)[0]
    err = float(np.linalg.norm(_theta(fed) - exact) / np.linalg.norm(exact))
    assert err <= 1e-3


def test_fedavg_multi_step_drift_shrinks_with_the_learning_rate():
    datasets = _regression_agents(15, B=3, n=30, d=3)
    w = SimplexWeights(np.array([0.4, 0.4, 0.2]))
    spec = ModelSpec(kind=RIDGE, lam=0.2)
    exact = _theta(fit_weighted(spec, [w], datasets)[0])

    def drift(lr, rounds):
        fed = fedavg(spec, [w], datasets, rounds=rounds, local_steps=5, lr=lr)[0]
        return float(np.linalg.norm(_theta(fed) - exact))

    assert drift(0.003, 5000) <= 0.5 * drift(0.03, 500)


def test_fedavg_skips_zero_weight_agents():
    datasets = _regression_agents(16, B=3)
    spec = ModelSpec(kind=LINEAR_GD, lam=0.1)
    with_ghost = fedavg(
        spec, [np.array([0.5, 0.5, 0.0])], datasets, rounds=10, local_steps=3, lr=0.05
    )[0]
    without = fedavg(
        spec, [np.array([0.5, 0.5])], datasets[:2], rounds=10, local_steps=3, lr=0.05
    )[0]
    np.testing.assert_array_equal(with_ghost.coefficients, without.coefficients)


def test_fedavg_argument_validation():
    datasets = _regression_agents(17, B=1)
    spec = ModelSpec(kind=RIDGE)
    with pytest.raises(ValueError):
        fedavg(spec, [np.array([1.0])], datasets, rounds=-1, local_steps=1, lr=0.1)
    with pytest.raises(ValueError):
        fedavg(spec, [np.array([1.0])], datasets, rounds=1, local_steps=0, lr=0.1)
    with pytest.raises(ValueError):
        fedavg(spec, [np.array([1.0])], datasets, rounds=1, local_steps=1, lr=0.0)


def test_evaluate_perfect_fit_has_zero_mse():
    g = np.random.default_rng(18)
    X = g.normal(size=(50, 3))
    beta = np.array([1.0, -2.0, 0.5])
    ds = AgentDataset(X, X @ beta + 1.0)
    model = fit_weighted(ModelSpec(kind=RIDGE, lam=0.0), [np.array([1.0])], [ds])[0]
    assert evaluate(model, ds, MSE) <= 1e-20


def test_evaluate_zero_model_mse_is_the_variance():
    g = np.random.default_rng(19)
    y = g.normal(scale=2.0, size=20000)
    test = AgentDataset(np.zeros((20000, 1)), y)
    zero = FittedModel(np.zeros(1), 0.0, ModelSpec(kind=RIDGE))
    assert evaluate(zero, test, MSE) == pytest.approx(4.0, rel=0.1)


def test_evaluate_accuracy_of_constant_classifier():
    g = np.random.default_rng(20)
    y = g.integers(0, 2, size=1000).astype(float)
    test = AgentDataset(np.zeros((1000, 2)), y)
    spec = ModelSpec(kind=LOGISTIC_GD, classes=2)
    biased = FittedModel(np.zeros((2, 2)), np.array([1.0, 0.0]), spec)
    assert evaluate(biased, test, ACCURACY) == pytest.approx(0.5, abs=0.05)


def test_moment_risk_under_a_datasets_own_moments_is_its_mse():
    agents = _regression_agents(21, B=2, n=40)
    for spec in (ModelSpec(kind=RIDGE, lam=0.3), ModelSpec(kind=LINEAR_GD, lr=0.05, epochs=30)):
        for model in fit_weighted(spec, [np.array([1.0, 0.0]), np.array([0.5, 0.5])], agents):
            for ds in agents:
                assert moment_risk(model, ds.moments()) == pytest.approx(evaluate(model, ds, MSE), rel=1e-12)
    clf = FittedModel(np.zeros((4, 2)), np.zeros(2), ModelSpec(kind=LOGISTIC_GD))
    with pytest.raises(ValueError, match="undefined for classifiers"):
        moment_risk(clf, agents[0].moments())


def test_stacked_scores_are_each_pairs_one_model_bits():
    # concept and covariate population moments, every fitted model against every agent's law
    concept = ConceptShiftSpec(sigma_c2=0.4, b=5, n_k=12, d=6, seed=32)
    concept_data, betas, _ = gen_concept_shift(concept)
    covariate = CovariateShiftSpec(b=6, n_k=15, d=4, k1=2, k2=2, seed=33)
    covariate_data, _ = gen_covariate_shift(covariate)
    for datasets, moments in (
        (concept_data, concept_shift_moments(concept, betas)),
        (covariate_data, covariate_shift_moments(covariate)),
    ):
        B = len(datasets)
        rows = [np.eye(B)[0], np.eye(B)[B - 1], np.ones(B)]
        fitted = [model for spec in (ModelSpec(kind=RIDGE, lam=0.1), ModelSpec(kind=LINEAR_GD, lr=0.02, epochs=20))
                  for model in fit_weighted(spec, rows, datasets)]
        pairs = [(model, t) for model in fitted for t in range(B)]
        stacked = moment_risks([m for m, _ in pairs], moments[[t for _, t in pairs]])
        for (model, t), value in zip(pairs, stacked):
            u = np.append(model.coefficients, (model.intercept, -1.0))
            assert value == float(u @ (moments[t] @ u))
            assert value == moment_risk(model, moments[t])
        # a pair scored alone or among a few others keeps its bits
        some = pairs[3::4]
        np.testing.assert_array_equal(moment_risks([m for m, _ in some], moments[[t for _, t in some]]), stacked[3::4])
    assert moment_risks([], np.empty((0, 4, 4))).shape == (0,)


def test_evaluate_metric_mismatch():
    spec = ModelSpec(kind=RIDGE)
    reg = FittedModel(np.zeros(1), 0.0, spec)
    test = AgentDataset(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        evaluate(reg, test, ACCURACY)
    clf = FittedModel(np.zeros((1, 2)), np.zeros(2), ModelSpec(kind=LOGISTIC_GD))
    with pytest.raises(ValueError):
        evaluate(clf, test, MSE)
    with pytest.raises(ValueError):
        evaluate(reg, test, "mae")


def test_logistic_separable_reaches_full_accuracy():
    g = np.random.default_rng(21)
    X = np.vstack([g.normal(loc=-3.0, size=(40, 2)), g.normal(loc=3.0, size=(40, 2))])
    y = np.repeat([0.0, 1.0], 40)
    ds = AgentDataset(X, y)
    spec = ModelSpec(kind=LOGISTIC_GD, classes=2, lr=0.5, epochs=300)
    model = fit_weighted(spec, [np.array([1.0])], [ds])[0]
    assert evaluate(model, ds, ACCURACY) == 1.0


def test_logistic_three_class_smoke():
    g = np.random.default_rng(22)
    centers = np.array([[0.0, 6.0], [6.0, -3.0], [-6.0, -3.0]])
    X = np.vstack([g.normal(loc=c, size=(30, 2)) for c in centers])
    y = np.repeat([0.0, 1.0, 2.0], 30)
    ds = AgentDataset(X, y)
    spec = ModelSpec(kind=LOGISTIC_GD, classes=3, lr=0.5, epochs=300)
    model = fit_weighted(spec, [np.array([1.0])], [ds])[0]
    assert model.coefficients.shape == (2, 3)
    assert np.shape(model.intercept) == (3,)
    assert evaluate(model, ds, ACCURACY) >= 0.95
