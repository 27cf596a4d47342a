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

The program is solved exactly by a primal active-set method (Nocedal &
Wright, *Numerical Optimization*, ch. 16).  It starts at the vertex e_t, where
the gradient is just b, so e_t is returned at once whenever b_t <= b_k for
every k.  Each step solves the KKT system of the program restricted to the
current support; the method stops with a certificate, g_k = lambda on the
support and g_k >= lambda off it for g = 2 A w + b.  A and b are first divided
by max(|A|_max, |b|_inf), so its tolerances are relative and poly2 lifts of
any magnitude behave alike.  When the minimiser is not unique, the minimisers
form a face on which A w is fixed, and the minimum-norm point of that set is
returned: identical agents get equal weight, and the zero program gives the
uniform vector.  ``QaggConfig.t`` caps the number of steps; reaching the cap
raises ``ArithmeticError``, as does a non-finite entry of A or b.

Every target's program shares the Gram matrix G_{kl} = <nu_k, nu_l>, and
:func:`learn_weights` assembles G once and forms each target's
A_t = G - G_t - G_t' + G_tt from it, target by target, so a target's weights
are the same bits whether it is solved alone or with all the others.
:func:`build_problem` and :func:`optimize` are the explicit one-target form
and run the same solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EXACT, Embedding, LocalFeatureSet, as_feature_vector, kme_inner, q_stat, trace_cov_hat

# relative to the scaled program, whose largest entry is 1
_TOL = 1e-10


@dataclass(frozen=True)
class QaggConfig:
    """Penalty constants of the weight program and the solver's step cap.

    ``t`` caps the active-set steps of each solve; reaching it raises
    ``ArithmeticError``.  ``c`` has no effect on the exact solve; it is still
    validated so that configs which set it keep working.
    """

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
            raise ValueError("step cap t must be at least 1")
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


def operator_norm(A: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix."""
    return float(np.linalg.eigvalsh(A)[-1])


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


def _active_set(H, c, E, w, support, free, cap):
    """Primal active-set method for min w'Hw + <c, w> over {w >= 0, E w = E w0, w_k = 0 off ``free``}.

    Starts from the feasible w0 = ``w``, whose non-zeros lie in ``support``.
    Each step minimises the program on the current support with the bounds
    dropped, through the KKT system, by eigendecomposition: the minimum-norm
    minimiser if the program is bounded there, else the descent direction
    along which it is unbounded.  A minimiser inside the bounds is taken whole
    and its multipliers are checked at once; the most negative reduced cost
    off the support, if any is below -tol, joins the support.  Otherwise the
    step stops at the first bound it meets and that index leaves the support.
    Returns the solution and every index's reduced cost (about 0 on the support).
    """
    w = w.copy()
    e = E @ w
    support = list(support)
    n_eq = E.shape[0]
    for _ in range(cap):
        S = np.array(support)
        m = S.size
        K = np.block([[2.0 * H[np.ix_(S, S)], E[:, S].T], [E[:, S], np.zeros((n_eq, n_eq))]])
        lam, Q = np.linalg.eigh(K)
        null = np.abs(lam) <= _TOL * np.abs(lam).max()
        coef = Q.T @ np.concatenate([-c[S], e])
        x = Q[:, ~null] @ (coef[~null] / lam[~null])
        descent = (Q[:, null] @ coef[null])[:m]
        if np.abs(descent).max(initial=0.0) > _TOL:
            p, full = descent, math.inf  # unbounded below on the support
        else:
            p, full = x[:m] - w[S], 1.0
        shrink = p < 0.0
        ratios = -w[S][shrink] / p[shrink]
        step = min(full, ratios.min(initial=math.inf))
        if step == math.inf:
            raise ArithmeticError("weight program is unbounded below on the simplex")
        if step < full:
            w[S] = np.maximum(w[S] + step * p, 0.0)
            blocked = int(S[shrink][np.argmin(ratios)])
            w[blocked] = 0.0
            support.remove(blocked)
            continue
        w[S] = np.maximum(x[:m], 0.0)
        reduced = 2.0 * (H[:, S] @ w[S]) + c + E.T @ x[m:]
        out = free.copy()
        out[S] = False
        if not out.any() or reduced[out].min() >= -_TOL:
            return w, reduced
        support.append(int(np.flatnonzero(out)[np.argmin(reduced[out])]))
    raise ArithmeticError(f"weight optimization did not finish within {cap} active-set steps")


def _solve(A: np.ndarray, b: np.ndarray, t: int, cap: int) -> np.ndarray:
    """Minimiser of w'Aw + <b, w> over the simplex from e_t; the minimum-norm one if it is not unique."""
    B = b.size
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ArithmeticError("non-finite entry in the weight program")
    scale = max(float(np.abs(A).max()), float(np.abs(b).max()))
    if scale == 0.0:
        return np.full(B, 1.0 / B)  # constant program: uniform is the minimum-norm minimiser
    A, b = A / scale, b / scale
    start = np.zeros(B)
    start[t] = 1.0
    w, reduced = _active_set(A, b, np.ones((1, B)), start, [t], np.ones(B, dtype=bool), cap)
    # the optimal face: A w is fixed on it, so its least-norm point solves a second program
    face = reduced <= _TOL
    E = np.vstack([np.ones(B), A[face]])
    w, _ = _active_set(np.eye(B), np.zeros(B), E, w, np.flatnonzero(face), face, cap)
    return w / w.sum()


def optimize(problem: QaggProblem, cfg: QaggConfig) -> SimplexWeights:
    """Minimize the quadratic form over the simplex, exactly."""
    return SimplexWeights(_solve(problem.A, problem.b, problem.target_index, cfg.t))


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
    come back in its order and ``cfg.target_index`` is ignored.  The Gram matrix
    is assembled once and each target's program is formed from it and solved
    on its own, so a row does not depend on which other targets are asked for:
    asking for one target gives bit for bit the row that asking for all of
    them gives.  With RFF or
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

    G, b = _assemble(embs, locals_, cfg)
    rows = []
    for t, b_t in zip(locals_, b):
        A = G - G[t] - G[:, t, None] + G[t, t]
        A = (A + A.T) / 2.0
        A[t, :] = 0.0
        A[:, t] = 0.0
        rows.append(SimplexWeights(_solve(A, b_t, t, cfg.t)))
    return rows


def weights_matrix(rows: list[SimplexWeights]) -> np.ndarray:
    """Stack per-target weights into a B x B matrix (row = target agent)."""
    return np.stack([r.w for r in rows])
