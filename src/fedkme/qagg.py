"""Collaboration-weight learning: penalized aggregation over the simplex.

For a target agent with per-point features Phi_i and every agent's embedding
nu_k, the objective over simplex weights w is

    L(w)  = || sum_k w_k nu_k - nu_t ||^2 + 2 w_t tr(Sigma_t) / n_t
    Q(w)  = (1/sqrt(n_t)) sum_{k != t} w_k sqrt(q_k)
    P(w)  = (M/n_t) sum_{k != t} w_k ||nu_k - nu_t||
    f(w)  = L(w) + C_Q Q(w) + C_P P(w),

which on the simplex is the quadratic form w' A w + <b, w> with
A_{kl} = <nu_k - nu_t, nu_l - nu_t> (a PSD Gram matrix whose target row and
column vanish), b[t] = 2 tr(Sigma_t)/n_t, and for k != t
b[k] = C_Q sqrt(q_k)/sqrt(n_t) + C_P M ||nu_k - nu_t|| / n_t.

The quadratic form is minimized by exponentiated gradient descent with a
proxy step: from iterate w, a proxy w' = norm(w * exp(-eta g(w))) is formed,
and the actual step uses the proxy's gradient, w <- norm(w * exp(-eta g(w'))).
Updates run in log domain with subtract-max normalization; the learning rate
is eta = c / (2 ||A||_op + ||b||_inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .embedding import EXACT, Embedding, LocalFeatureSet, as_feature_vector, kme_inner, q_stat, trace_cov_hat

_POWER_ITERS = 100
_POWER_TOL = 1e-10


@dataclass(frozen=True)
class QaggConfig:
    """Penalty constants and optimizer schedule for weight learning."""

    c_q: float
    c_p: float
    m: float = math.sqrt(2.0)
    t: int = 1000
    c: float = 0.5
    target_index: int = 0

    def __post_init__(self):
        if self.c_q <= 0 or self.c_p <= 0 or self.m <= 0 or self.c <= 0:
            raise ValueError("C_Q, C_P, M and the step scale c must be positive")
        if self.t < 1:
            raise ValueError("iteration count must be at least 1")
        if self.target_index < 0:
            raise ValueError("target index must be non-negative")


def default_config(n_agents: int, **overrides) -> QaggConfig:
    """Default penalties C_Q = sqrt(log B), C_P = log B."""
    if n_agents < 2:
        # log 1 = 0 is not a valid penalty; fall back to the flat preset
        return ones_config(**overrides)
    log_b = math.log(n_agents)
    kwargs = {"c_q": math.sqrt(log_b), "c_p": log_b}
    kwargs.update(overrides)
    return QaggConfig(**kwargs)


def ones_config(**overrides) -> QaggConfig:
    """Flat preset C_Q = C_P = 1."""
    kwargs = {"c_q": 1.0, "c_p": 1.0}
    kwargs.update(overrides)
    return QaggConfig(**kwargs)


def theory_config(n_agents: int, n_target: int, **overrides) -> QaggConfig:
    """Theory-flavored preset C_Q^2 = C_P = u0 with u0 = 2 log(B n_target).

    The sufficiency constant in front of u0 is unknowable, so this preset
    makes no optimality claim; it is exposed as an alternative only.
    """
    u0 = 2.0 * math.log(n_agents * n_target)
    kwargs = {"c_q": math.sqrt(u0), "c_p": u0}
    kwargs.update(overrides)
    return QaggConfig(**kwargs)


@dataclass(frozen=True, eq=False)
class QaggProblem:
    """Quadratic form w' A w + <b, w> of the weight-learning objective."""

    A: np.ndarray
    b: np.ndarray
    op_norm_A: float
    inf_norm_b: float
    target_index: int

    def __post_init__(self):
        B = self.b.shape[0]
        if self.A.shape != (B, B):
            raise ValueError("A must be square and match b")
        if np.any(self.b < 0):
            raise ValueError("b entries must be non-negative")
        t = self.target_index
        if np.any(self.A[t, :] != 0.0) or np.any(self.A[:, t] != 0.0):
            raise ValueError("target row/column of A must vanish")
        self.A.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def n_agents(self) -> int:
        return self.b.shape[0]

    def objective(self, w) -> float:
        w = np.asarray(getattr(w, "w", w), dtype=float)
        return float(w @ self.A @ w + np.dot(self.b, w))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.A @ w) + self.b


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """Convex collaboration weights: non-negative, summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "w", w)
        self.w.setflags(write=False)

    def __len__(self) -> int:
        return self.w.shape[0]


def operator_norm(A: np.ndarray, iters: int = _POWER_ITERS, tol: float = _POWER_TOL) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    The start vector is a fixed graded ramp, so the estimate is deterministic.
    """
    B = A.shape[0]
    v = np.arange(1.0, B + 1.0)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        av = A @ v
        norm = float(np.linalg.norm(av))
        if norm == 0.0:
            return 0.0
        v = av / norm
        new_lam = float(v @ A @ v)
        if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
            return new_lam
        lam = new_lam
    return lam


def build_problem(embs: list[Embedding], local: LocalFeatureSet, cfg: QaggConfig) -> QaggProblem:
    """Assemble the quadratic form for one target agent.

    ``embs`` holds every agent's embedding (target included at
    ``cfg.target_index``); ``local`` holds the target's per-point features.
    """
    B = len(embs)
    if B < 1:
        raise ValueError("at least one agent is required")
    t = cfg.target_index
    if t >= B:
        raise ValueError(f"target index {t} out of range for {B} agents")
    n_t = local.n
    if n_t < 2:
        raise ValueError("target agent needs at least two samples")

    if all(e.kind != EXACT for e in embs):
        V = np.stack([as_feature_vector(e) for e in embs])
        diffs = V - V[t]
        A = diffs @ diffs.T
    else:
        G = np.array([[kme_inner(ek, el) for el in embs] for ek in embs])
        A = G - G[t, :][None, :] - G[:, t][:, None] + G[t, t]
    A = (A + A.T) / 2.0
    A[t, :] = 0.0
    A[:, t] = 0.0

    b = np.zeros(B)
    b[t] = 2.0 * trace_cov_hat(local) / n_t
    for k in range(B):
        if k == t:
            continue
        dist = math.sqrt(max(float(A[k, k]), 0.0))
        b[k] = cfg.c_q * math.sqrt(q_stat(local, embs[k], embs[t])) / math.sqrt(n_t) \
            + cfg.c_p * cfg.m * dist / n_t

    return QaggProblem(
        A=A, b=b, op_norm_A=operator_norm(A), inf_norm_b=float(np.max(np.abs(b))) if B else 0.0,
        target_index=t,
    )


def _log_normalize(log_w: np.ndarray) -> np.ndarray:
    shifted = log_w - np.max(log_w)
    return shifted - math.log(float(np.sum(np.exp(shifted))))


def optimize(problem: QaggProblem, cfg: QaggConfig) -> SimplexWeights:
    """Minimize the quadratic form over the simplex by proxy-step EG descent."""
    B = problem.n_agents
    if B == 1:
        return SimplexWeights(np.ones(1))
    denom = 2.0 * problem.op_norm_A + problem.inf_norm_b
    if denom == 0.0:
        # constant objective on the simplex; the start point is already optimal
        return SimplexWeights(np.full(B, 1.0 / B))
    eta = cfg.c / denom

    log_w = np.full(B, -math.log(B))
    for _ in range(cfg.t):
        w = np.exp(log_w)
        g = problem.gradient(w)
        if not np.all(np.isfinite(g)):
            raise ArithmeticError("non-finite gradient in weight optimization")
        proxy = np.exp(_log_normalize(log_w - eta * g))
        g_proxy = problem.gradient(proxy)
        if not np.all(np.isfinite(g_proxy)):
            raise ArithmeticError("non-finite gradient in weight optimization")
        log_w = _log_normalize(log_w - eta * g_proxy)
    w = np.exp(log_w)
    return SimplexWeights(w / float(w.sum()))


def learn_weights(
    embs: list[Embedding], locals_: dict[int, LocalFeatureSet], cfg: QaggConfig,
) -> list[SimplexWeights]:
    """Weights for each target, from every agent's embedding and the target's own features.

    ``locals_`` maps a target index to that target's per-point features; one
    target or all of them take the same loop.  Rows come back in the order of
    ``locals_``, and ``cfg.target_index`` is replaced by each key in turn.
    With RFF or poly2 embeddings no agent's raw data is read here; exact
    embeddings carry their sample and are read through it.
    """
    rows = []
    for t, local in locals_.items():
        cfg_t = replace(cfg, target_index=t)
        rows.append(optimize(build_problem(embs, local, cfg_t), cfg_t))
    return rows


def weights_matrix(rows: list[SimplexWeights]) -> np.ndarray:
    """Stack per-target weights into a B x B matrix (row = target agent)."""
    return np.stack([r.w for r in rows])
