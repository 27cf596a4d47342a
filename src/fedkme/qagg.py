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

Every target's program shares the Gram matrix G_{kl} = <nu_k, nu_l> and
differs only in t and b, so :func:`learn_weights` solves all requested targets
in one batch: one power iteration and one EG loop over a (targets x B) matrix
of log-weights, each row with its own step size.  A_t is never formed; for a
stack of vectors x it is applied as

    (A_t x)_k = (G x)_k - (G x)_t - (G_{tk} - G_{tt}) sum(x),

which is exactly 0 at k = t.  G x is computed as one vector-matrix product
per row rather than one matrix product for the stack, because a matrix
product rounds each row differently depending on how many rows it holds, and
a target's weights must not depend on which other targets share the batch.
:func:`build_problem` and :func:`optimize` are the explicit one-target form,
and :func:`optimize` runs the same loop on a single row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _explicit_operator(A: np.ndarray):
    """One stored matrix A for every row."""
    return lambda rows: lambda X: X @ A


def _gram_operator(G: np.ndarray, targets: np.ndarray):
    """Row operator X[r] -> A_t X[r] with t = targets[rows[r]], never forming A_t.

    Each row gets its own vector-matrix product, so a row's rounding does not
    depend on which other rows share the batch.
    """
    C = G[targets] - G[targets, targets][:, None]

    def bind(rows: np.ndarray):
        at_t = (np.arange(rows.size) * G.shape[0] + targets[rows])[:, None]  # flat index of (r, t)
        C_rows = C[rows]

        def apply(X: np.ndarray) -> np.ndarray:
            Y = (X[:, None, :] @ G)[:, 0, :]
            return Y - Y.ravel()[at_t] - C_rows * X.sum(axis=1, keepdims=True)

        return apply

    return bind


def _power_norms(bind, n_rows: int, B: int, iters: int = _POWER_ITERS, tol: float = _POWER_TOL) -> np.ndarray:
    """Largest eigenvalue of each row's symmetric PSD operator by power iteration.

    ``bind(rows)`` returns the map X -> (the operator of batch row
    ``rows[r]`` applied to ``X[r]``, for every r).  Every row starts from the
    same graded ramp, so the estimates are deterministic, and each row stops
    on its own tolerance test.
    """
    ramp = np.arange(1.0, B + 1.0)
    v = np.tile(ramp / np.linalg.norm(ramp), (n_rows, 1))
    lam = np.zeros(n_rows)
    live = np.arange(n_rows)
    for _ in range(iters):
        if live.size == 0:
            break
        av = bind(live)(v)
        norm = np.sqrt((av * av).sum(axis=1))
        nonzero = norm != 0.0
        lam[live[~nonzero]] = 0.0
        live, v = live[nonzero], av[nonzero] / norm[nonzero, None]
        new_lam = (v * bind(live)(v)).sum(axis=1)
        done = np.abs(new_lam - lam[live]) <= tol * np.maximum(1.0, np.abs(new_lam))
        lam[live] = new_lam
        live, v = live[~done], v[~done]
    return lam


def operator_norm(A: np.ndarray, iters: int = _POWER_ITERS, tol: float = _POWER_TOL) -> float:
    """Largest eigenvalue of a symmetric PSD matrix: one row of the batched power iteration."""
    return float(_power_norms(_explicit_operator(A), 1, A.shape[0], iters, tol)[0])


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
    shifted = log_w - log_w.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _mirror_prox(bind, b: np.ndarray, denom: np.ndarray, cfg: QaggConfig) -> np.ndarray:
    """Proxy-step EG descent on every row's program w' A_r w + <b_r, w> at once.

    ``bind`` gives the row operator as in :func:`_power_norms`; row r runs
    ``cfg.t`` steps of size c / denom[r].  A row with a zero denominator has a
    constant objective, so its uniform start is already optimal.
    """
    n_rows, B = b.shape
    W = np.full((n_rows, B), 1.0 / B)
    rows = np.flatnonzero(denom != 0.0) if B > 1 else np.arange(0)
    if rows.size == 0:
        return W
    eta = cfg.c / denom[rows, None]
    b = b[rows]
    apply = bind(rows)

    def gradient(X):
        g = 2.0 * apply(X) + b
        if not np.isfinite(g).all():
            raise ArithmeticError("non-finite gradient in weight optimization")
        return g

    log_w = np.full((rows.size, B), -math.log(B))
    for _ in range(cfg.t):
        proxy = np.exp(_log_normalize(log_w - eta * gradient(np.exp(log_w))))
        log_w = _log_normalize(log_w - eta * gradient(proxy))
    w = np.exp(log_w)
    W[rows] = w / w.sum(axis=1, keepdims=True)
    return W


def optimize(problem: QaggProblem, cfg: QaggConfig) -> SimplexWeights:
    """Minimize the quadratic form over the simplex: one row of the batched EG loop."""
    denom = np.array([2.0 * problem.op_norm_A + problem.inf_norm_b])
    return SimplexWeights(_mirror_prox(_explicit_operator(problem.A), problem.b[None, :], denom, cfg)[0])


def _assemble(embs: list[Embedding], locals_: dict[int, LocalFeatureSet], cfg: QaggConfig):
    """The shared Gram matrix G and one row of b per target, in the order of ``locals_``."""
    B = len(embs)
    exact = embs[0].kind == EXACT
    if exact:
        G = np.array([[kme_inner(ek, el) for el in embs] for ek in embs])
    else:
        V = np.stack([as_feature_vector(e) for e in embs])
        # A_t sees only differences; dropping the common offset avoids
        # cancellation on large poly2 lifts and keeps identical agents at exactly 0
        V = V - V[0]
        G = V @ V.T
    G = (G + G.T) / 2.0

    b = np.empty((len(locals_), B))
    for r, (t, local) in enumerate(locals_.items()):
        n = local.n
        if exact:
            q = np.array([0.0 if k == t else q_stat(local, e, embs[t]) for k, e in enumerate(embs)])
            dist = np.sqrt(np.maximum(np.diag(G) - 2.0 * G[t] + G[t, t], 0.0))
        else:
            # from the differences, not G_kk - 2 G_kt + G_tt: a duplicate of the
            # target must sit at distance 0, not at the root of a rounding residue
            diffs = V - V[t]
            dist = np.sqrt((diffs * diffs).sum(axis=1))
            proj = local.features @ diffs.T
            proj -= proj.mean(axis=0)
            q = (proj * proj).sum(axis=0) / (n - 1)
        b[r] = cfg.c_q * np.sqrt(q) / math.sqrt(n) + cfg.c_p * cfg.m * dist / n
        b[r, t] = 2.0 * trace_cov_hat(local) / n
    return G, b


def learn_weights(
    embs: list[Embedding], locals_: dict[int, LocalFeatureSet], cfg: QaggConfig,
) -> list[SimplexWeights]:
    """Weights for each target, from every agent's embedding and the target's own features.

    ``locals_`` maps a target index to that target's per-point features; rows
    come back in its order and ``cfg.target_index`` is ignored.  Every target's
    program is solved in one batch over the shared Gram matrix, and a row does
    not depend on which other targets are in the batch: asking for one target
    gives bit for bit the row that asking for all of them gives.  With RFF or
    poly2 embeddings no agent's raw data is read here; exact embeddings carry
    their sample and are read through it.
    """
    B = len(embs)
    if B < 1:
        raise ValueError("at least one agent is required")
    kind = embs[0].kind
    if any(e.kind != kind for e in embs) or any(local.kind != kind for local in locals_.values()):
        raise ValueError("embedding representation does not match local features")
    for t, local in locals_.items():
        if not 0 <= t < B:
            raise ValueError(f"target index {t} out of range for {B} agents")
        if local.n < 2:
            raise ValueError("target agent needs at least two samples")

    targets = np.array(list(locals_), dtype=int)
    G, b = _assemble(embs, locals_, cfg)
    bind = _gram_operator(G, targets)
    denom = 2.0 * _power_norms(bind, targets.size, B) + np.abs(b).max(axis=1)
    return [SimplexWeights(w) for w in _mirror_prox(bind, b, denom, cfg)]


def weights_matrix(rows: list[SimplexWeights]) -> np.ndarray:
    """Stack per-target weights into a B x B matrix (row = target agent)."""
    return np.stack([r.w for r in rows])
