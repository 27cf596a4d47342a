"""End-to-end acceptance gate: one test per criterion, each with its own
wall-clock budget.  Scales are small enough for a laptop; every random input
is seeded so reruns see the same numbers."""

import time
from dataclasses import replace

import numpy as np

from fedkme.cli import ExperimentConfig, main, serialize_config
from fedkme.data import AgentDataset
from fedkme.datagen import (
    ConceptShiftSpec,
    CovariateShiftSpec,
    concept_shift_test_sets,
    gen_concept_shift,
    gen_covariate_shift,
)
from fedkme.embedding import (
    POLY2,
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
from fedkme.fedsim import ProtocolConfig, baseline_weights, run_protocol
from fedkme.kernels import (
    KernelSpec,
    gram_matrix,
    isotropic_gaussian_kernel,
    poly2_kernel,
)
from fedkme.models import (
    ModelSpec,
    evaluate,
    fedavg,
    fit_weighted,
    weighted_gradient,
    weighted_objective,
)
from fedkme.qagg import (
    QaggProblem,
    SimplexWeights,
    build_problem,
    default_config,
    ones_config,
    operator_norm,
    optimize,
)
from fedkme.rff import featurize, sample_rff


def _budget(t0: float, seconds: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"ran {elapsed:.1f}s, budget {seconds:.0f}s"


def test_A1_poly2_inner_product_three_routes_agree():
    t0 = time.perf_counter()
    g = np.random.default_rng(11)
    for _ in range(20):
        n_a, n_b = int(g.integers(2, 11)), int(g.integers(2, 11))
        d = int(g.integers(1, 4))
        Za, Zb = g.normal(size=(n_a, d)), g.normal(size=(n_b, d))
        closed = kme_inner(
            embed(AgentDataset(Za), POLY2), embed(AgentDataset(Zb), POLY2)
        )
        double_sum = float(np.mean(gram_matrix(poly2_kernel(d), Za, Zb)))
        lift_dot = float(poly2_lift(Za).mean(axis=0) @ poly2_lift(Zb).mean(axis=0))
        scale = max(abs(double_sum), 1e-12)
        assert abs(closed - double_sum) <= 1e-10 * scale
        assert abs(lift_dot - double_sum) <= 1e-10 * scale
    _budget(t0, 1.0)


def test_A2_rff_inner_product_approximates_gaussian_kernel():
    t0 = time.perf_counter()
    d, D = 3, 10_000
    kern = isotropic_gaussian_kernel(d)
    g = np.random.default_rng(5)
    hits = 0
    for pair in range(50):
        params = sample_rff(kern, D, seed=100 + pair)
        z, z2 = g.normal(size=d), g.normal(size=d)
        approx = float(featurize(params, z) @ featurize(params, z2))
        exact = float(np.exp(-0.5 * np.sum((z - z2) ** 2)))
        if abs(approx - exact) <= 5.0 / np.sqrt(D):
            hits += 1
    assert hits >= 47, f"only {hits}/50 pairs within 5/sqrt(D)"
    _budget(t0, 5.0)


def test_A3_trace_and_q_statistic_match_kernel_expansions():
    t0 = time.perf_counter()
    g = np.random.default_rng(23)
    for _ in range(20):
        d = int(g.integers(1, 4))
        n1, nk = int(g.integers(3, 11)), int(g.integers(2, 11))
        Z1, Zk = g.normal(size=(n1, d)), g.normal(size=(nk, d))
        spec = poly2_kernel(d)
        lf = local_features(AgentDataset(Z1), POLY2)

        K11 = gram_matrix(spec, Z1, Z1)
        trace_feat = trace_cov_hat(lf)
        trace_kern = (float(np.trace(K11)) - float(K11.mean()) * n1) / (n1 - 1)
        assert abs(trace_feat - trace_kern) <= 1e-10 * max(1.0, abs(trace_kern))

        nu1 = embed(AgentDataset(Z1), POLY2)
        nuk = embed(AgentDataset(Zk), POLY2)
        q_feat = q_stat(lf, nuk, nu1)
        # <phi_i, nu_k> via gram rows, then the centered-projection second moment
        K1k = gram_matrix(spec, Z1, Zk)
        proj = K1k.mean(axis=1) - K11.mean(axis=1)
        proj = proj - proj.mean()
        q_kern = float(np.sum(proj**2)) / (n1 - 1)
        assert abs(q_feat - q_kern) <= 1e-10 * max(1.0, abs(q_kern))
    _budget(t0, 1.0)


def _random_problem(g: np.random.Generator, B: int) -> QaggProblem:
    R = g.normal(size=(B, B))
    A = R @ R.T
    A[0, :] = 0.0
    A[:, 0] = 0.0
    b = np.abs(g.normal(size=B))
    return QaggProblem(
        A=A, b=b, op_norm_A=operator_norm(A), inf_norm_b=float(np.max(np.abs(b))),
        target_index=0,
    )


def test_A4_optimizer_matches_grid_search_minimum():
    t0 = time.perf_counter()
    g = np.random.default_rng(31)

    def grid_min(problem: QaggProblem, W: np.ndarray) -> float:
        vals = np.einsum("pi,ij,pj->p", W, problem.A, W) + W @ problem.b
        return float(vals.min())

    # near-vertex optima need the long step budget to wash out stray mass
    s = 1e-4
    w1 = np.arange(0.0, 1.0 + s / 2, s)
    grid2 = np.stack([w1, 1.0 - w1], axis=1)
    for _ in range(10):
        problem = _random_problem(g, 2)
        w = optimize(problem, default_config(2, t=20_000, c=1.0))
        assert problem.objective(w) <= grid_min(problem, grid2) + 1e-4

    s = 5e-3
    pts = []
    for a in np.arange(0.0, 1.0 + s / 2, s):
        for b in np.arange(0.0, 1.0 - a + s / 2, s):
            pts.append((a, b, max(1.0 - a - b, 0.0)))
    grid3 = np.asarray(pts)
    for _ in range(10):
        problem = _random_problem(g, 3)
        w = optimize(problem, default_config(3, t=20_000, c=1.0))
        assert problem.objective(w) <= grid_min(problem, grid3) + 1e-4
    _budget(t0, 30.0)


def test_A5_identical_agents_aggregate_beats_local_embedding_error():
    t0 = time.perf_counter()
    B, n, d, scale = 10, 50, 3, 0.5
    pop = poly2_population_embedding(np.zeros(d), scale**2 * np.eye(d))
    agg_err, loc_err = [], []
    for rep in range(100):
        g = np.random.default_rng(rep)
        datasets = [AgentDataset(scale * g.normal(size=(n, d))) for _ in range(B)]
        embs = [embed(ds, POLY2) for ds in datasets]
        local = local_features(datasets[0], POLY2)
        m = max(float(np.max(np.sum(ds.X**2, axis=1))) + 1.0 for ds in datasets)
        cfg = replace(ones_config(), m=m)
        w = optimize(build_problem(embs, local, cfg), cfg)
        agg_err.append(mmd2_mixture(w, embs, pop))
        loc_err.append(mmd2(embs[0], pop))
    ratio = float(np.mean(agg_err) / np.mean(loc_err))
    assert ratio <= 0.6, f"aggregate/local embedding error {ratio:.3f} > 0.6"
    _budget(t0, 60.0)


def test_A6_far_shifted_agent_gets_no_weight():
    t0 = time.perf_counter()
    d, n, D, shift = 1, 100, 2000, 10.0
    kern = isotropic_gaussian_kernel(d + 1)
    w2s = []
    for rep in range(50):
        g = np.random.default_rng(4000 + rep)
        X1 = g.normal(size=(n, d))
        y1 = X1.sum(axis=1) + 0.1 * g.normal(size=n)
        X2 = g.normal(loc=shift, size=(n, d))
        y2 = X2.sum(axis=1) + 0.1 * g.normal(size=n)
        datasets = [AgentDataset(X1, y1), AgentDataset(X2, y2)]
        cfg = ProtocolConfig(
            kernel=kern, d_rff=D, seed=rep, qagg=default_config(2),
            model=ModelSpec(kind="ridge", lam=0.1),
        )
        w2s.append(run_protocol(cfg, datasets, target=0).weights.w[1])
    # premise: the shift must dominate the target's own estimation noise
    params = sample_rff(kern, D, seed=0)
    e1, e2 = embed(datasets[0], params), embed(datasets[1], params)
    noise = np.sqrt(trace_cov_hat(local_features(datasets[0], params)) / n)
    assert np.sqrt(mmd2(e1, e2)) >= 10.0 * noise
    mean_w2 = float(np.mean(w2s))
    assert mean_w2 <= 0.05, f"mean off-distribution weight {mean_w2:.4f} > 0.05"
    _budget(t0, 30.0)


def test_A7_concept_shift_tracks_oracle_then_local_with_crossover():
    """Desk-scale concept-shift curve: the learned weights should stay within
    15% of the group oracle under low intra-group spread, within 15% of local
    training at full spread, and the oracle/local crossover must fall inside
    [0.3, 0.7].  Configuration was tuned over bandwidth, penalty constants,
    step count, noise level, and ridge strength; with the exact weight solve
    the points at sigma_c^2 in {0, 0.1} sit at 1.41x and 1.35x oracle, so the
    first two assertions document a real shortfall of the method at this
    scale rather than a regression.

    Why it falls short, measured on this setup (all 20 x 6 target fits, each
    weight row the certified minimiser of its program): the mean learned
    self-weight is 0.234 at sigma_c^2 = 0 and 0.242 at 0.1, against 0.067
    for the group oracle (one over the group size), with 0.906 and 0.860 of
    the mass on the correct group and about 8 agents in the support.  The
    objective's minimizer keeps the target heavy.  There, every agent with
    weight has the same marginal cost.  The target's is its trace term
    b_t = 2 tr(Sigma_t)/n_t = 0.180, with no quadratic part, because A's
    target row vanishes and the target alone is free of the Q and P
    penalties.  A peer in the support pays its Q + P penalty (0.075 on
    average) plus 2 (A w)_k, which grows with the mass already on peers
    (0.104 on average), so peers stop taking mass while the target still
    holds about a quarter of it."""
    t0 = time.perf_counter()
    B, nk, d, D, noise_var, lam = 30, 10, 10, 200, 8.0, 0.07
    reps, targets = 20, (0, 5, 10, 15, 20, 25)
    base = default_config(B)
    qcfg = default_config(B, c_q=base.c_q * 0.6, c_p=base.c_p * 0.3, t=1000)
    band = tuple([1.0 / (2 * (d + 1))] * d + [0.25])
    kern = KernelSpec(kind="gaussian", ambient_dim=d + 1, bandwidth=band)
    mspec = ModelSpec(kind="ridge", lam=lam)

    curve: dict[float, tuple[float, float, float]] = {}
    for sc2 in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
        acc = {"q": [], "o": [], "l": []}
        for rep in range(reps):
            spec = ConceptShiftSpec(
                sigma_c2=sc2, b=B, n_k=nk, d=d, sigma_y2=noise_var, seed=1000 + rep
            )
            datasets, _, groups = gen_concept_shift(spec)
            tests = concept_shift_test_sets(spec, 400)
            cfg = ProtocolConfig(kernel=kern, d_rff=D, seed=7, qagg=qcfg, model=mspec)
            for t in targets:
                learned = run_protocol(cfg, datasets, t).weights

                def mse(wv) -> float:
                    model = fit_weighted(mspec, wv, datasets)
                    return evaluate(model, tests[t], metric="mse")

                acc["q"].append(mse(learned))
                acc["o"].append(mse(baseline_weights("oracle", datasets, t, groups=groups)))
                acc["l"].append(mse(baseline_weights("local", datasets, t)))
        curve[sc2] = tuple(float(np.mean(acc[m])) for m in ("q", "o", "l"))

    table = "\n".join(
        f"  sigma_c2={sc2}: qagg={q:.3f} oracle={o:.3f} local={ell:.3f}"
        for sc2, (q, o, ell) in curve.items()
    )
    q0, o0, _ = curve[0.0]
    q01, o01, _ = curve[0.1]
    q1, _, l1 = curve[1.0]
    assert curve[0.3][1] < curve[0.3][2] and curve[0.7][1] > curve[0.7][2], (
        "oracle/local crossover left [0.3, 0.7]:\n" + table
    )
    assert q1 <= 1.15 * l1, f"qagg {q1:.3f} > 1.15x local {l1:.3f} at sigma_c2=1:\n{table}"
    assert q0 <= 1.15 * o0, f"qagg {q0:.3f} > 1.15x oracle {o0:.3f} at sigma_c2=0:\n{table}"
    assert q01 <= 1.15 * o01, f"qagg {q01:.3f} > 1.15x oracle {o01:.3f} at sigma_c2=0.1:\n{table}"
    _budget(t0, 300.0)


def test_A8_ridge_fedavg_and_gradients_are_consistent():
    t0 = time.perf_counter()
    g = np.random.default_rng(47)

    for _ in range(20):
        B = int(g.integers(2, 5))
        d = int(g.integers(1, 5))
        sizes = [int(g.integers(4, 12)) for _ in range(B)]
        datasets = [
            AgentDataset(g.normal(size=(n, d)), g.normal(size=n)) for n in sizes
        ]
        raw = np.abs(g.normal(size=B)) + 0.1
        w = SimplexWeights(raw / raw.sum())
        spec = ModelSpec(kind="ridge", lam=float(g.uniform(0.01, 1.0)))
        model = fit_weighted(spec, w, datasets)
        assert model.status == "ok"
        p = d + 1
        G = np.zeros((p, p))
        r = np.zeros(p)
        for wk, ds in zip(w.w, datasets):
            Xd = np.hstack([ds.X, np.ones((ds.n, 1))])
            G += (wk / ds.n) * (Xd.T @ Xd)
            r += (wk / ds.n) * (Xd.T @ ds.y)
        theta = np.concatenate([model.coefficients, [model.intercept]])
        resid = float(np.max(np.abs((G + spec.lam * np.eye(p)) @ theta - r)))
        assert resid <= 1e-8 * max(1.0, float(np.max(np.abs(r))))

    g = np.random.default_rng(48)
    datasets = [AgentDataset(g.normal(size=(30, 3)), g.normal(size=30)) for _ in range(3)]
    w = SimplexWeights(np.array([0.5, 0.3, 0.2]))
    spec = ModelSpec(kind="ridge", lam=0.1)
    closed = fit_weighted(spec, w, datasets)
    iterated = fedavg(spec, w, datasets, rounds=500, local_steps=1, lr=0.05)
    ref = np.concatenate([closed.coefficients, [closed.intercept]])
    got = np.concatenate([iterated.coefficients, [iterated.intercept]])
    rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    assert rel <= 1e-3, f"fedavg missed the closed form by {rel:.2e}"

    theta = g.normal(size=4)
    grad = weighted_gradient(spec, w.w, datasets, theta)
    eps = 1e-6
    for i in range(theta.shape[0]):
        bump = np.zeros_like(theta)
        bump[i] = eps
        fd = (
            weighted_objective(spec, w.w, datasets, theta + bump)
            - weighted_objective(spec, w.w, datasets, theta - bump)
        ) / (2 * eps)
        assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))
    _budget(t0, 60.0)


def test_A9_covariate_shift_recovers_the_tight_cluster():
    t0 = time.perf_counter()
    B, nk, d, D, reps = 30, 20, 4, 300, 10
    kern = KernelSpec(kind="gaussian", ambient_dim=d, bandwidth=(0.5,) * d)
    mspec = ModelSpec(kind="ridge", lam=0.1)
    masses = []
    for rep in range(reps):
        spec = CovariateShiftSpec(b=B, n_k=nk, d=d, k1=9, k2=9, seed=4000 + rep)
        datasets, groups = gen_covariate_shift(spec)
        cfg = ProtocolConfig(
            kernel=kern, d_rff=D, seed=11, qagg=ones_config(),
            model=mspec, embedding_scope="features",
        )
        own = [k for k in range(B) if groups[k] == 0]
        for t in range(9):
            w = run_protocol(cfg, datasets, t).weights.w
            masses.append(float(np.asarray(w)[own].sum()))
    mean_mass = float(np.mean(masses))
    assert mean_mass >= 0.7, f"own-group weight mass {mean_mass:.3f} < 0.7"
    _budget(t0, 300.0)


def test_A10_thread_count_never_changes_output_bytes(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        grid=(0.0, 1.0),
        repetitions=2,
        test_size=50,
        agents=8,
        samples_per_agent=8,
        dim=4,
        d_rff=64,
        steps=300,
        ridge_penalty=0.05,
        seed=9,
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(serialize_config(cfg))
    dir1, dir4 = tmp_path / "t1", tmp_path / "t4"
    dir1.mkdir()
    dir4.mkdir()
    argv = ["run", "--config", str(cfg_path)]
    assert main(argv + ["--out", str(dir1), "--threads", "1"]) == 0
    assert main(argv + ["--out", str(dir4), "--threads", "4"]) == 0
    for name in ("results.csv", "weights.csv", "comm.csv"):
        assert (dir1 / name).read_bytes() == (dir4 / name).read_bytes(), name
    _budget(t0, 120.0)


def test_A11_embedding_error_scales_inversely_with_sample_size():
    t0 = time.perf_counter()
    d = 2
    mean = np.array([0.3, -0.5])
    cov = 0.8 * np.eye(d)
    pop = poly2_population_embedding(mean, cov)
    L = np.linalg.cholesky(cov)
    g = np.random.default_rng(0)
    m10, m40 = [], []
    for _ in range(500):
        for n, acc in ((10, m10), (40, m40)):
            X = mean + g.normal(size=(n, d)) @ L.T
            acc.append(mmd2(embed(AgentDataset(X), POLY2), pop))
    ratio = float(np.mean(m10) / np.mean(m40))
    assert 3.5 <= ratio <= 4.5, f"error ratio n=10 vs n=40 is {ratio:.3f}"
    _budget(t0, 60.0)
