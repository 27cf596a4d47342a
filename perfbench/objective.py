"""Objective value and Frank-Wolfe certificate of the weights a run wrote.

Each target's ``QaggProblem`` is rebuilt from the run's config through public
fedkme functions only (``datagen``, ``rff``, ``embedding``, ``qagg``), with the
seeds the CLI derives for grid point 0, repetition 0 -- the repetition that
``weights.csv`` holds.  For a row w of ``weights.csv``:

    f(w)   = w' A w + <b, w>
    gap(w) = max_k (grad f(w) . w - grad f(w)_k),  grad f(w) = 2 A w + b

The gap bounds f(w) - min f over the simplex (Jaggi 2013), so a faster solver
cannot buy its speed by stopping early without this number showing it.

The reported ``fw_gap`` is the mean over targets of gap(w) / L with
L = 2 ||A||_op + ||b||_inf, the scale the solver's step size is set from.
The raw gap scales with the data (poly2's b grows with the largest squared
norm in the sample), so its median moves by tens of percent from one seed
to the next; the scaled gap moves by about a tenth, yet still grows in
proportion when the solver is stopped early.  The raw median is reported
alongside.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from fedkme import datagen, embedding, kernels, qagg, rng, rff


def _datasets(cfg, data_seed: int):
    if cfg.experiment == "concept_shift":
        spec = datagen.ConceptShiftSpec(
            sigma_c2=cfg.grid[0], b=cfg.agents, n_k=cfg.samples_per_agent,
            d=cfg.dim, sigma_y2=cfg.noise_var, seed=data_seed,
        )
        return datagen.gen_concept_shift(spec)[0]
    k1, k2 = cfg.group_sizes
    spec = datagen.CovariateShiftSpec(
        b=cfg.agents, n_k=cfg.samples_per_agent, d=cfg.dim, k1=k1, k2=k2,
        v1_sq=cfg.center_var1, v2_sq=cfg.center_var2,
        sigma1_sq=cfg.group_var1, sigma2_sq=cfg.group_var2,
        mu0=(cfg.group2_center,) * cfg.dim, seed=data_seed,
    )
    return datagen.gen_covariate_shift(spec)[0]


def _kernel(cfg):
    ambient = cfg.dim if cfg.scope == "features" else cfg.dim + 1
    if cfg.kernel_kind == kernels.POLY2:
        return kernels.poly2_kernel(ambient)
    if cfg.bandwidth == "concept":
        return kernels.concept_shift_kernel(cfg.dim)
    if cfg.bandwidth == "isotropic":
        return kernels.isotropic_gaussian_kernel(ambient)
    raise ValueError(f"no workload uses kernel.bandwidth = {cfg.bandwidth!r}")


def rebuild_problems(cfg) -> list[qagg.QaggProblem]:
    """Every target's quadratic program for grid point 0, repetition 0."""
    datasets = _datasets(cfg, rng.derive_seed(cfg.seed, "experiment-data", 0, 0))
    kernel = _kernel(cfg)
    if kernel.kind == kernels.POLY2:
        mode = embedding.POLY2
    else:
        mode = rff.sample_rff(kernel, cfg.d_rff, rng.derive_seed(cfg.seed, "experiment-protocol", 0, 0))
    embs = [embedding.embed(ds, mode, scope=cfg.scope) for ds in datasets]
    base = qagg.default_config(len(datasets), t=cfg.steps, c=cfg.step_scale)
    if kernel.kind == kernels.POLY2:
        base = replace(base, m=kernels.kernel_bound(kernel, datasets))
    problems = []
    for t, ds in enumerate(datasets):
        local = embedding.local_features(ds, mode, scope=cfg.scope)
        problems.append(qagg.build_problem(embs, local, replace(base, target_index=t)))
    return problems


def certify(cfg, weights: list[list[float]]) -> dict[str, float]:
    """Objective and Frank-Wolfe gap statistics of the weight rows."""
    problems = rebuild_problems(cfg)
    if len(weights) != len(problems):
        raise ValueError(f"{len(weights)} weight rows for {len(problems)} targets")
    objectives, gaps, scaled = [], [], []
    for problem, row in zip(problems, weights):
        w = np.asarray(row, dtype=float)
        g = problem.gradient(w)
        gap = float(g @ w - g.min())
        objectives.append(problem.objective(w))
        gaps.append(gap)
        scaled.append(gap / (2.0 * problem.op_norm_A + problem.inf_norm_b))
    return {
        "qagg_objective": float(np.mean(objectives)),
        "fw_gap": float(np.mean(scaled)),
        "fw_gap_raw_median": float(np.median(gaps)),
    }
