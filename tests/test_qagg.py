"""Objective assembly and the simplex optimizer against brute-force oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkme import qagg
from fedkme.datagen import ConceptShiftSpec, gen_concept_shift
from fedkme.embedding import POLY2, RFF, LocalFeatureSet, embed, local_features
from fedkme.fedsim import ORACLE, baseline_weights
from fedkme.kernels import concept_shift_kernel, isotropic_gaussian_kernel, poly2_kernel
from fedkme.qagg import (
    QaggConfig,
    QaggProblem,
    SimplexWeights,
    build_problem,
    default_config,
    learn_weights,
    ones_config,
    operator_norm,
    theory_config,
    weights_matrix,
)
from fedkme.rff import featurize_matrix, sample_rff
from reference_kme import (
    concept_shift_law,
    dataset_of,
    exact_embed,
    feature_problem,
    kernel_problem,
    optimize,
    rff_population_embedding,
)

KERNEL2 = isotropic_gaussian_kernel(2)


def _instance(seed, n_agents=3, n=6, D=16):
    g = np.random.default_rng(seed)
    params = sample_rff(KERNEL2, D, seed=seed)
    datasets = [dataset_of(g.normal(loc=g.normal(), size=(n, 2))) for _ in range(n_agents)]
    embs = [embed(ds, params) for ds in datasets]
    local = local_features(datasets[0], params)
    return embs, local


def _random_problem(g, B):
    root = g.normal(size=(B, B))
    A = root @ root.T
    A[0, :] = 0.0
    A[:, 0] = 0.0
    b = np.abs(g.normal(size=B))
    return QaggProblem(
        A=A, b=b,
        op_norm_A=operator_norm(A), inf_norm_b=float(np.max(np.abs(b))),
        target_index=0,
    )


def test_config_presets():
    B = 100
    cfg = default_config(B)
    assert cfg.c_q == pytest.approx(math.sqrt(math.log(B)))
    assert cfg.c_p == pytest.approx(math.log(B))
    assert cfg.m == pytest.approx(math.sqrt(2.0))
    assert cfg.t == 1000 and cfg.c == 0.5
    flat = ones_config()
    assert flat.c_q == flat.c_p == 1.0
    u0 = 2.0 * math.log(100 * 10)
    theo = theory_config(100, 10)
    assert theo.c_q == pytest.approx(math.sqrt(u0))
    assert theo.c_p == pytest.approx(u0)
    assert default_config(1).c_q == 1.0  # log(1) = 0 is no penalty scale


def test_config_validation():
    with pytest.raises(ValueError):
        QaggConfig(c_q=0.0, c_p=1.0)
    with pytest.raises(ValueError):
        QaggConfig(c_q=1.0, c_p=1.0, t=0)
    with pytest.raises(ValueError):
        QaggConfig(c_q=1.0, c_p=1.0, target_index=-1)


def test_simplex_weights_invariants():
    w = SimplexWeights(np.array([0.25, 0.75]))
    assert len(w) == 2
    with pytest.raises(ValueError):
        SimplexWeights(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexWeights(np.array([1.5, -0.5]))


def test_problem_requires_zero_target_row():
    A = np.eye(2)
    with pytest.raises(ValueError):
        QaggProblem(A=A, b=np.zeros(2), op_norm_A=1.0, inf_norm_b=0.0, target_index=0)
    with pytest.raises(ValueError):
        QaggProblem(A=np.zeros((2, 2)), b=np.array([-1.0, 0.0]), op_norm_A=0.0, inf_norm_b=1.0, target_index=0)


def test_build_problem_single_agent():
    embs, local = _instance(0, n_agents=1)
    cfg = ones_config()
    problem = build_problem(embs, local, cfg)
    assert problem.A.shape == (1, 1) and problem.A[0, 0] == 0.0
    F = local.features
    n = F.shape[0]
    tr = np.sum((F - F.mean(axis=0)) ** 2) / (n - 1)
    assert problem.b[0] == pytest.approx(2.0 * tr / n, rel=1e-12)


def test_build_problem_identical_embeddings():
    g = np.random.default_rng(1)
    params = sample_rff(KERNEL2, 8, seed=1)
    ds = dataset_of(g.normal(size=(5, 2)))
    embs = [embed(ds, params)] * 3
    problem = build_problem(embs, local_features(ds, params), ones_config())
    np.testing.assert_allclose(problem.A, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(problem.b[1:], np.zeros(2), atol=1e-12)


def test_objective_matches_direct_penalized_formula():
    # oracle: the three-term objective written out from raw feature vectors
    embs, local = _instance(7)
    cfg = QaggConfig(c_q=0.8, c_p=1.7, m=math.sqrt(2.0))
    problem = build_problem(embs, local, cfg)
    V = np.stack([e.v for e in embs])
    F = local.features
    n = F.shape[0]
    nu1 = V[0]
    tr = np.sum((F - F.mean(axis=0)) ** 2) / (n - 1)
    g = np.random.default_rng(3)
    for _ in range(20):
        w = g.dirichlet(np.ones(3))
        l_hat = float(np.sum((w @ V - nu1) ** 2)) + 2.0 * w[0] * tr / n
        proj = F @ (V - nu1).T
        proj -= proj.mean(axis=0)
        q = np.sum(proj**2, axis=0) / (n - 1)
        q_hat = float(np.sum(w[1:] * np.sqrt(q[1:]))) / math.sqrt(n)
        p_hat = cfg.m / n * float(np.sum(w[1:] * np.linalg.norm(V[1:] - nu1, axis=1)))
        direct = l_hat + cfg.c_q * q_hat + cfg.c_p * p_hat
        assert problem.objective(w) == pytest.approx(direct, rel=1e-10)


def test_build_problem_matches_the_kernel_expansion():
    # under the poly2 kernel the lifted feature form and the exact kernel
    # expansion are the same program, written two ways
    g = np.random.default_rng(16)
    datasets = [dataset_of(g.normal(loc=g.normal(), size=(n, 2))) for n in (5, 7, 4, 6)]
    embs = [embed(ds, POLY2) for ds in datasets]
    exact = [exact_embed(ds, poly2_kernel(2)) for ds in datasets]
    for t in range(len(datasets)):
        cfg = replace(QaggConfig(c_q=0.8, c_p=1.7, m=3.0), target_index=t)
        feature_form = build_problem(embs, local_features(datasets[t], POLY2), cfg)
        kernel_form = kernel_problem(exact, exact[t], cfg)
        scale = float(np.abs(feature_form.A).max())
        np.testing.assert_allclose(kernel_form.A, feature_form.A, rtol=0.0, atol=1e-10 * scale)
        np.testing.assert_allclose(kernel_form.b, feature_form.b, rtol=1e-8)


def test_build_problem_needs_two_target_samples():
    g = np.random.default_rng(4)
    params = sample_rff(KERNEL2, 8, seed=2)
    ds = dataset_of(g.normal(size=(1, 2)))
    with pytest.raises(ValueError):
        build_problem([embed(ds, params)], local_features(ds, params), ones_config())


def test_optimize_single_agent():
    problem = QaggProblem(
        A=np.zeros((1, 1)), b=np.array([0.3]), op_norm_A=0.0, inf_norm_b=0.3, target_index=0
    )
    w = optimize(problem, ones_config())
    np.testing.assert_allclose(w.w, [1.0])


def test_optimize_linear_objective_puts_mass_on_cheap_coordinate():
    problem = QaggProblem(
        A=np.zeros((2, 2)), b=np.array([0.0, 1.0]), op_norm_A=0.0, inf_norm_b=1.0, target_index=0
    )
    w = optimize(problem, ones_config())
    assert w.w[1] <= 1e-3


def test_optimize_zero_problem_returns_uniform():
    problem = QaggProblem(
        A=np.zeros((3, 3)), b=np.zeros(3), op_norm_A=0.0, inf_norm_b=0.0, target_index=0
    )
    w = optimize(problem, ones_config())
    np.testing.assert_allclose(w.w, np.full(3, 1.0 / 3.0))


def test_optimize_matches_grid_search_b2():
    g = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 10001)
    for _ in range(20):
        problem = _random_problem(g, 2)
        w = optimize(problem, ones_config())
        values = (
            problem.A[1, 1] * grid**2
            + problem.b[0] * (1.0 - grid)
            + problem.b[1] * grid
        )
        assert problem.objective(w) <= float(values.min()) + 1e-4


def test_optimize_never_worse_than_uniform_start():
    g = np.random.default_rng(6)
    for B in (2, 3, 5):
        for _ in range(5):
            problem = _random_problem(g, B)
            w = optimize(problem, ones_config())
            start = np.full(B, 1.0 / B)
            assert problem.objective(w) <= problem.objective(start) + 1e-9


def test_iterates_stay_on_simplex():
    g = np.random.default_rng(7)
    problem = _random_problem(g, 4)
    w = optimize(problem, ones_config(t=17))
    assert np.all(w.w >= 0.0)
    assert abs(float(w.w.sum()) - 1.0) <= 1e-9


def test_larger_borrowing_penalty_keeps_more_local_mass():
    embs, local = _instance(11, n_agents=4)
    base = ones_config()
    w_lo = optimize(build_problem(embs, local, base), base)
    strong = replace(base, c_p=10.0)
    w_hi = optimize(build_problem(embs, local, strong), strong)
    assert w_hi.w[0] >= w_lo.w[0] - 1e-6


def test_nonfinite_gradient_raises():
    problem = QaggProblem(
        A=np.array([[0.0, 0.0], [0.0, np.inf]]), b=np.zeros(2),
        op_norm_A=1.0, inf_norm_b=0.0, target_index=0,
    )
    with pytest.raises(ArithmeticError):
        optimize(problem, ones_config())


def _kkt_block(H, E, S):
    """KKT matrix [[2 H_SS, E_S'], [E_S, 0]] of a support, assembled by ``np.block``."""
    return np.block([[2.0 * H[np.ix_(S, S)], E[:, S].T], [E[:, S], np.zeros((E.shape[0], E.shape[0]))]])


def _support_oracle(A, b):
    """Least objective over the simplex, by brute force over supports.

    On every support the equality-constrained program (weights summing to one,
    zero off the support) is solved through its KKT system; a solution that is
    consistent and non-negative is a candidate, and the best candidate wins.
    Every vertex of the set of minimisers is the unique solution on its own
    support, so the enumeration reaches the minimum.
    """
    B = b.size
    best = math.inf
    for size in range(1, B + 1):
        for S in map(list, itertools.combinations(range(B), size)):
            K = _kkt_block(A, np.ones((1, B)), S)
            rhs = np.concatenate([-b[S], [1.0]])
            x = np.linalg.lstsq(K, rhs, rcond=None)[0]
            if np.abs(K @ x - rhs).max() > 1e-9 * np.abs(rhs).max() or x[:size].min() < 0.0:
                continue
            w = np.zeros(B)
            w[S] = x[:size]
            best = min(best, float(w @ A @ w + b @ w))
    return best


@settings(max_examples=100, deadline=None)
@given(B=st.integers(1, 6), n_eq=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_kkt_matrix_is_the_np_block_form_bit_for_bit(B, n_eq, seed, data):
    g = np.random.default_rng(seed)
    H, E = g.normal(size=(B, B)), g.normal(size=(n_eq, B))
    S = np.array(data.draw(st.lists(st.integers(0, B - 1), min_size=1, max_size=B, unique=True), label="S"))
    buf = np.full((B + n_eq) ** 2, np.nan)
    K = qagg._kkt(buf, H, E, S)
    assert K.flags.c_contiguous and np.shares_memory(K, buf)
    assert np.array_equal(K, _kkt_block(H, E, S))


def test_active_set_is_bit_identical_with_the_np_block_kkt(monkeypatch):
    # random PSD programs with a duplicated agent, from random starting
    # supports, so both active-set calls of a solve take several steps
    g = np.random.default_rng(31)
    cases = []
    for _ in range(40):
        B = int(g.integers(2, 8))
        t = int(g.integers(B))
        root = g.normal(size=(B, int(g.integers(1, B + 1))))
        b = np.abs(g.normal(size=B))
        twin, of = g.choice([k for k in range(B) if k != t] + [t], size=2)
        root[twin], b[twin] = root[of], b[of]
        A = root @ root.T
        A[t, :] = 0.0
        A[:, t] = 0.0
        b[t] = b.max()
        support = sorted(g.choice(B, size=int(g.integers(1, B + 1)), replace=False).tolist())
        start = np.zeros(B)
        start[support] = 1.0 / len(support)
        cases.append((A, b, t, support, start))

    def run():
        out = []
        for A, b, t, support, start in cases:
            B = b.size
            out.append(qagg._active_set(A, b, np.ones((1, B)), start, support, np.ones(B, dtype=bool), 1000))
            out.append((qagg._solve(A, b, t, 1000),))
        return out

    fast = run()
    monkeypatch.setattr(qagg, "_kkt", lambda buf, H, E, S: _kkt_block(H, E, S))
    reference = run()
    assert sum(np.count_nonzero(r[0]) > 1 for r in fast[1::2]) >= 10  # not only vertices
    for got, want in zip(fast, reference, strict=True):
        for x, y in zip(got, want, strict=True):
            assert np.array_equal(x, y)


def _assert_kkt(problem, w, rtol=1e-9):
    """g = 2 A w + b equals lambda = g.w on the support and is at least lambda off it."""
    g = problem.gradient(w)
    lam = float(g @ w)
    tol = rtol * max(float(np.abs(problem.A).max()), float(problem.b.max()))
    on = w > 0.0
    np.testing.assert_allclose(g[on], lam, rtol=0.0, atol=tol)
    assert np.all(g[~on] >= lam - tol)


@settings(max_examples=200, deadline=None)
@given(B=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_optimize_matches_support_oracle(B, seed, data):
    # random PSD A of any rank with a vanishing target row, b >= 0, and
    # optionally one agent duplicated (a tie the minimum-norm rule splits evenly)
    t = data.draw(st.integers(0, B - 1), label="target")
    rank = data.draw(st.integers(0, B), label="rank")
    g = np.random.default_rng(seed)
    root = g.normal(size=(B, rank))
    b = np.abs(g.normal(size=B))
    peers = [k for k in range(B) if k != t]
    twins = data.draw(st.sampled_from([None] + list(itertools.combinations(peers, 2))), label="twins")
    if twins is not None:
        root[twins[1]] = root[twins[0]]
        b[twins[1]] = b[twins[0]]
    A = root @ root.T
    A[t, :] = 0.0
    A[:, t] = 0.0
    best = _support_oracle(A, b)
    for scale in (1.0, 1e12):  # 1e12 is the magnitude of poly2 lifts
        problem = QaggProblem(
            A=A * scale, b=b * scale, op_norm_A=operator_norm(A * scale), inf_norm_b=float(b.max() * scale),
            target_index=t,
        )
        w = optimize(problem, ones_config()).w
        assert problem.objective(w) / scale == pytest.approx(best, rel=1e-9)
        _assert_kkt(problem, w)
        if twins is not None:
            assert w[twins[0]] == pytest.approx(w[twins[1]], abs=1e-12)


def test_optimize_raises_at_the_step_cap():
    # from e_0 the solver needs a second step to bring in agent 1
    problem = QaggProblem(
        A=np.diag([0.0, 1.0]), b=np.array([1.0, 0.0]), op_norm_A=1.0, inf_norm_b=1.0, target_index=0,
    )
    np.testing.assert_allclose(optimize(problem, ones_config()).w, [0.5, 0.5])
    with pytest.raises(ArithmeticError, match="active-set steps"):
        optimize(problem, ones_config(t=1))


def test_strict_vertex_is_returned_without_the_active_set(monkeypatch):
    # A is PSD with a zero target row, so b_t strictly below every other b_k
    # makes e_t the unique minimiser; it needs no active-set step
    A = np.zeros((3, 3))
    A[1:, 1:] = [[2.0, 0.5], [0.5, 1.0]]
    problem = QaggProblem(A=A, b=np.array([0.1, 0.5, 0.7]), op_norm_A=2.2, inf_norm_b=0.7, target_index=0)

    def refuse(*args):
        raise AssertionError("a strict vertex reached the active-set method")

    with monkeypatch.context() as m:
        m.setattr(qagg, "_active_set", refuse)
        np.testing.assert_array_equal(optimize(problem, ones_config()).w, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("gap", [0.0, 1e-12])
def test_tied_vertex_takes_the_full_solve_to_the_minimum_norm_point(monkeypatch, gap):
    # agent 1 duplicates the target, and its cost ties with the target's, up
    # to the solver's tolerance: every split between them is optimal
    calls = []
    solve = qagg._active_set

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(qagg, "_active_set", counted)
    problem = QaggProblem(
        A=np.diag([0.0, 0.0, 1.0]), b=np.array([0.5, 0.5 + gap, 0.7]), op_norm_A=1.0, inf_norm_b=0.7,
        target_index=0,
    )
    np.testing.assert_allclose(optimize(problem, ones_config()).w, [0.5, 0.5, 0.0], atol=1e-12)
    assert calls


def test_operator_norm_matches_dense_solver():
    g = np.random.default_rng(8)
    for _ in range(10):
        root = g.normal(size=(6, 6))
        A = root @ root.T
        assert operator_norm(A) == pytest.approx(float(np.linalg.norm(A, 2)), rel=1e-8)
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_learn_weights_single_agent():
    embs, local = _instance(9, n_agents=1)
    rows = learn_weights(embs, {0: local}, ones_config())
    np.testing.assert_allclose(weights_matrix(rows), [[1.0]])


def test_learn_weights_shared_dataset_prefers_spreading():
    g = np.random.default_rng(10)
    params = sample_rff(KERNEL2, 16, seed=3)
    ds = dataset_of(g.normal(size=(6, 2)))
    B = 4
    embs = [embed(ds, params)] * B
    cfg = ones_config()
    rows = learn_weights(embs, {t: local_features(ds, params) for t in range(B)}, cfg)
    for t, row in enumerate(rows):
        problem = build_problem(embs, local_features(ds, params), replace(cfg, target_index=t))
        uniform = np.full(B, 1.0 / B)
        e_t = np.zeros(B)
        e_t[t] = 1.0
        assert problem.objective(row) <= problem.objective(e_t)
        assert problem.objective(uniform) <= problem.objective(e_t)


def _reference_row(embs, local, cfg, t):
    cfg_t = replace(cfg, target_index=t)
    return optimize(feature_problem(embs, local, cfg_t), cfg_t).w


@pytest.mark.parametrize("kind", ["rff", POLY2])
def test_build_problem_is_the_program_learn_weights_solves(kind, monkeypatch):
    g = np.random.default_rng(17)
    datasets = [dataset_of(g.normal(loc=g.normal(), size=(n, 2))) for n in (5, 7, 4, 6)]
    mode = sample_rff(KERNEL2, 24, seed=6) if kind == "rff" else kind
    embs = [embed(ds, mode) for ds in datasets]
    cfg = QaggConfig(c_q=0.8, c_p=1.7, m=3.0)
    solved = []
    solve = qagg._solve
    monkeypatch.setattr(qagg, "_solve", lambda A, b, t, cap: solved.append((A, b)) or solve(A, b, t, cap))
    learn_weights(embs, {t: local_features(ds, mode) for t, ds in enumerate(datasets)}, cfg)
    monkeypatch.undo()
    assert len(solved) == len(datasets)
    for t, (A, b) in enumerate(solved):
        local = local_features(datasets[t], mode)
        F = local.features.copy()
        problem = build_problem(embs, local, replace(cfg, target_index=t))
        assert np.array_equal(problem.A, A) and np.array_equal(problem.b, b)
        np.testing.assert_array_equal(local.features, F)  # not spent: a weight step can still use it
        (row,) = learn_weights(embs, {t: local}, cfg)
        np.testing.assert_array_equal(row.w, solve(A, b, t, cfg.t))


def test_cost_row_matches_the_kernel_expansion():
    # the b row of test_build_problem_matches_the_kernel_expansion, from the
    # weight step's own target-side function
    g = np.random.default_rng(16)
    datasets = [dataset_of(g.normal(loc=g.normal(), size=(n, 2))) for n in (5, 7, 4, 6)]
    embs = [embed(ds, POLY2) for ds in datasets]
    exact = [exact_embed(ds, poly2_kernel(2)) for ds in datasets]
    V = np.stack([e.v for e in embs])
    for t in range(len(datasets)):
        cfg = replace(QaggConfig(c_q=0.8, c_p=1.7, m=3.0), target_index=t)
        b = qagg.cost_row(local_features(datasets[t], POLY2), V - V[0], t, cfg)
        np.testing.assert_allclose(kernel_problem(exact, exact[t], cfg).b, b, rtol=1e-8)


def test_the_loss_term_less_the_target_trace_is_an_unbiased_kme_error():
    # for a fixed w over fresh samples, E L(w) = E ||sum_k w_k nu_k - mu_t||^2 + tr Sigma_t / n:
    # the cost row's 2 w_t tr(Sigma_hat_t) / n_t cancels the target's own noise in
    # ||sum_k w_k nu_k - nu_t||^2, and mu_t and tr Sigma_t have a closed form under concept shift
    B, n, d, D, draws = 30, 10, 20, 200, 2000
    spec = ConceptShiftSpec(sigma_c2=0.3, b=B, n_k=n, d=d, seed=3)
    datasets, betas, groups = gen_concept_shift(spec)
    w = baseline_weights(ORACLE, datasets, groups)[0].w
    params = sample_rff(concept_shift_kernel(d), D, seed=4)
    mu, trace = rff_population_embedding(params, *concept_shift_law(betas[0], spec.sigma_y2))
    g = np.random.default_rng(5)
    beta = np.stack(betas)
    loss, diag, err = [], [], []
    for _ in range(draws // 50):
        X = g.normal(loc=1.0, size=(50, B, n, d))
        y = np.einsum("rbnd,bd->rbn", X, beta) + np.sqrt(spec.sigma_y2) * g.normal(size=(50, B, n))
        F = featurize_matrix(params, np.concatenate([X, y[..., None]], axis=-1).reshape(-1, d + 1))
        F = F.reshape(50, B, n, D)
        for rows in F:
            nu = rows.mean(axis=1)
            b = qagg.cost_row(LocalFeatureSet(kind=RFF, features=rows[0]), nu - nu[0], 0, ones_config())
            mix = w @ nu
            loss.append(float(np.sum((mix - nu[0]) ** 2)))
            diag.append(w[0] * b[0])
            err.append(float(np.sum((mix - mu) ** 2)))
    loss, diag, err = np.array(loss), np.array(diag), np.array(err)

    def gap(estimate):  # mean of estimate - err, in standard errors of that mean
        delta = estimate - err
        return float(delta.mean() / (delta.std(ddof=1) / math.sqrt(draws)))

    assert abs(gap(loss + diag - trace / n)) < 3.0
    assert gap(loss - trace / n) < -10.0  # without the cost row's diagonal term
    assert gap(loss + diag) > 10.0  # without the target's population trace


def test_the_weight_step_spends_each_feature_set():
    # the cost row writes the trace's centred squares over the target's rows:
    # the features are gone after it, and a second weight step is refused
    embs, local = _instance(15)
    F = local.features.copy()
    learn_weights(embs, {0: local}, ones_config())
    np.testing.assert_array_equal(local.features, (F - F.mean(axis=0)) ** 2)
    np.testing.assert_array_equal(local.mean, F.mean(axis=0))
    with pytest.raises(ValueError, match="overwritten by an earlier weight step"):
        learn_weights(embs, {0: local}, ones_config())
    assert not local_features(dataset_of(np.zeros((3, 2))), POLY2).features.flags.writeable
    with pytest.raises(ValueError, match="writable C-contiguous float64"):
        LocalFeatureSet(kind=POLY2, features=np.asfortranarray(np.ones((3, 2))))


@pytest.mark.parametrize("kind", ["rff", POLY2])
def test_learn_weights_rows_match_per_target_reference(kind):
    g = np.random.default_rng(12)
    datasets = [dataset_of(g.normal(loc=g.normal(), size=(n, 2))) for n in (3, 7, 4, 9, 2, 6)]
    mode = sample_rff(KERNEL2, 24, seed=4) if kind == "rff" else kind
    embs = [embed(ds, mode) for ds in datasets]
    targets = (3, 0, 5)
    cfg = ones_config()
    # each weight step spends its feature sets, so every step gets fresh ones
    rows = learn_weights(embs, {t: local_features(datasets[t], mode) for t in targets}, cfg)
    assert len(rows) == 3
    for t, row in zip(targets, rows):
        reference = _reference_row(embs, local_features(datasets[t], mode), cfg, t)
        np.testing.assert_allclose(row.w, reference, rtol=0.0, atol=1e-12)
        (alone,) = learn_weights(embs, {t: local_features(datasets[t], mode)}, cfg)
        np.testing.assert_array_equal(alone.w, row.w)


@settings(max_examples=60, deadline=None)
@given(B=st.integers(1, 6), D=st.integers(1, 8), seed=st.integers(0, 2**16), data=st.data())
def test_learn_weights_rows_match_reference_on_edge_cases(B, D, seed, data):
    # each agent draws a fresh sample, a sample of one repeated row (zero
    # covariance), or a copy of an earlier agent's sample (duplicated embedding)
    g = np.random.default_rng(seed)
    datasets = []
    for k in range(B):
        source = data.draw(st.integers(-2, k - 1), label=f"source of agent {k}")
        n = int(g.integers(2, 6))
        if source >= 0:
            datasets.append(datasets[source])
        elif source == -1:
            datasets.append(dataset_of(g.normal(loc=g.normal(), size=(n, 2))))
        else:
            datasets.append(dataset_of(np.repeat(g.normal(size=(1, 2)), n, axis=0)))
    params = sample_rff(KERNEL2, D, seed=seed)
    embs = [embed(ds, params) for ds in datasets]
    order = data.draw(st.permutations(range(B)), label="target order")
    targets = order[: data.draw(st.integers(1, B), label="target count")]
    cfg = ones_config(t=200)
    rows = learn_weights(embs, {t: local_features(datasets[t], params) for t in targets}, cfg)
    for t, row in zip(targets, rows):
        reference = _reference_row(embs, local_features(datasets[t], params), cfg, t)
        np.testing.assert_allclose(row.w, reference, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(learn_weights(embs, {t: local_features(datasets[t], params)}, cfg)[0].w, row.w)


def test_learn_weights_degenerate_rows_in_one_batch():
    # every agent shares one embedding, so A = 0 and b vanishes off the target;
    # target 1 holds two equal points (zero covariance, so b = 0 too) and
    # target 3 a varying sample (b_t > 0), in the same call
    g = np.random.default_rng(13)
    params = sample_rff(KERNEL2, 16, seed=5)
    B = 5
    embs = [embed(dataset_of(g.normal(size=(6, 2))), params)] * B
    flat = local_features(dataset_of(np.repeat(g.normal(size=(1, 2)), 2, axis=0)), params)
    varied = local_features(dataset_of(g.normal(size=(6, 2))), params)
    flat_row, varied_row = learn_weights(embs, {1: flat, 3: varied}, ones_config())
    np.testing.assert_array_equal(flat_row.w, np.full(B, 1.0 / B))
    assert varied_row.w[3] < 1.0 / B


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0 at the target entry
def test_learn_weights_nonfinite_gradient_raises():
    embs, local = _instance(14)
    with pytest.raises(ArithmeticError):
        learn_weights(embs, {0: local}, replace(ones_config(), m=math.inf))


def test_weights_matrix_shape():
    rows = [SimplexWeights(np.array([0.5, 0.5])), SimplexWeights(np.array([1.0, 0.0]))]
    M = weights_matrix(rows)
    assert M.shape == (2, 2)
    np.testing.assert_allclose(M.sum(axis=1), [1.0, 1.0])
