"""Weighted empirical-risk minimizers and a simulated FedAvg loop.

The weighted objective over agents k with simplex weights w_k is

    J(theta) = sum_k w_k * R_k(theta) + lam * ||theta||^2,

with R_k the agent's mean loss (squared error, or softmax cross-entropy for
classification).  For the squared loss R_k depends on the data only through
the agent's second moments S_k = X_k' X_k / n_k and r_k = X_k' y_k / n_k,
where X_k always carries an appended intercept column.  Both are slices of
the augmented moment the dataset computes once and caches
(:meth:`AgentDataset.moments`), so repeated fits never re-read raw rows.  The
ridge case solves the normal equations

    H theta = (sum_k w_k S_k + lam I) theta = sum_k w_k r_k

(the penalty applies to the full parameter vector, intercept included) by
the eigendecomposition H = Q diag(lambda) Q': theta = Q diag(1/lambda) Q' r
over the eigenvalues with |lambda_i| above _RANK_RTOL times the largest, so a
singular system gets its minimum-norm solution.  Each full-batch gradient
step is one mat-vec with the weighted moments.
FedAvg runs the local steps of all participants as one batched update, each
row using only its own S_k and r_k, and the server takes the participants'
weighted sum of the local models; it reduces exactly to centralized gradient
descent when local_steps=1 and all weights are active.  Cross-entropy has no
finite sufficient statistic, so the classifier keeps its row-based gradient.

Every fit takes a sequence of weight rows and returns one model per row, in
order.  The agents' moments are stacked once per call, and the squared-loss
rows are solved or stepped together: ridge is one batched eigendecomposition
of the rows' H, each gradient-descent epoch is one batched mat-vec over the
rows' weighted moments, and each FedAvg local step is one over the rows'
participants, for rows with the same number of participants.  A batched
LAPACK or BLAS call works slice by slice, and every slice is the bits of its
one-row call, so a row's model does not depend on which other rows share its
call.  :func:`moment_risks` scores a stack of (model, moment) pairs the same
way, in one batched product.  A model
whose coefficients are not all finite (gradient steps too large for the
data diverge) carries the status ``NON_FINITE``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import AgentDataset
from .qagg import SimplexWeights

RIDGE = "ridge"
LINEAR_GD = "linear_gd"
LOGISTIC_GD = "logistic_gd"

MSE = "mse"
ACCURACY = "accuracy"

NON_FINITE = "non-finite"  # status of a model whose coefficients overflowed, e.g. from too large a step size


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus its hyperparameters."""

    kind: str = RIDGE
    lam: float = 0.0
    lr: float = 0.1
    epochs: int = 100
    classes: int = 2

    def __post_init__(self):
        if self.kind not in (RIDGE, LINEAR_GD, LOGISTIC_GD):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.kind == LOGISTIC_GD and self.classes < 2:
            raise ValueError("classification needs at least two classes")


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Learned coefficients; columns index classes for classifiers."""

    coefficients: np.ndarray
    intercept: np.ndarray | float
    spec: ModelSpec
    status: str = "ok"

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = X @ self.coefficients + self.intercept
        if self.spec.kind == LOGISTIC_GD:
            return np.argmax(scores, axis=1)
        return scores


def _design(dataset: AgentDataset) -> np.ndarray:
    return np.column_stack([dataset.X, np.ones(dataset.n)])


def _param_dim(spec: ModelSpec, d: int) -> tuple[int, ...]:
    if spec.kind == LOGISTIC_GD:
        return (d + 1, spec.classes)
    return (d + 1,)


def _unpack(theta: np.ndarray, spec: ModelSpec, d: int, status: str = "ok") -> FittedModel:
    if not np.all(np.isfinite(theta)):
        status = NON_FINITE
    return FittedModel(coefficients=theta[:d], intercept=theta[d], spec=spec, status=status)


def _local_gradient(spec: ModelSpec, ds: AgentDataset, theta: np.ndarray) -> np.ndarray:
    """Gradient of R_k alone (the lam term is added by the caller)."""
    Xd = _design(ds)
    if spec.kind == LOGISTIC_GD:
        logits = Xd @ theta
        shifted = logits - logits.max(axis=1, keepdims=True)
        expo = np.exp(shifted)
        probs = expo / expo.sum(axis=1, keepdims=True)
        probs[np.arange(ds.n), ds.y.astype(int)] -= 1.0
        return Xd.T @ probs / ds.n
    resid = Xd @ theta - ds.y
    return 2.0 * Xd.T @ resid / ds.n


def weighted_gradient(spec: ModelSpec, w: np.ndarray, datasets: list[AgentDataset], theta: np.ndarray) -> np.ndarray:
    grad = 2.0 * spec.lam * theta
    for wk, ds in zip(w, datasets):
        if wk == 0.0:
            continue
        grad = grad + wk * _local_gradient(spec, ds, theta)
    return grad


def _weight_rows(weights: Sequence[SimplexWeights | np.ndarray], datasets: list[AgentDataset]) -> np.ndarray:
    """The rows normalized, as one stack (rows x agents), after checking them and the datasets against each other.

    Weights are consumed post-normalization, so rescaling a row is a no-op.
    Each row's sum and quotients are the bits of that row's own ``w.sum()``
    and ``w / total``, whichever rows share the stack.
    """
    rows = [np.asarray(getattr(w, "w", w), dtype=float) for w in weights]
    if any(w.ndim != 1 for w in rows):
        raise ValueError("each weight row must be a vector")
    if any(w.shape[0] != len(datasets) for w in rows):
        raise ValueError("one weight per dataset is required")
    d = datasets[0].dim
    for ds in datasets:
        if ds.dim != d:
            raise ValueError("datasets must share one feature dimension")
    W = np.stack(rows) if rows else np.empty((0, len(datasets)))
    if not np.isfinite(W).all():
        raise ValueError("weights must be finite")
    if np.any(W < 0):
        raise ValueError("weights must be non-negative")
    totals = W.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("weights must not all be zero")
    return W / totals


def _moment_stack(rows: np.ndarray, datasets: list[AgentDataset]) -> tuple[np.ndarray, np.ndarray]:
    """The augmented moments of every agent some row weights, stacked once, and each agent's index into them.

    Moments that overflowed (entries near 1e154 square past the largest
    float) are rejected here, naming the agent: no fit can use them, and
    LAPACK may not return on them.
    """
    used = np.flatnonzero(np.any(rows > 0.0, axis=0))
    at = np.zeros(len(datasets), dtype=int)
    at[used] = np.arange(used.size)
    stack = np.stack([datasets[k].moments() for k in used])
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        k = int(used[np.argmin(finite)])
        raise ValueError(f"agent {k}'s second moments overflow to a non-finite value; scale its features and labels down")
    return stack, at


def _weighted_moments(rows: np.ndarray, stack: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's S_w = sum_k w_k S_k and r_w = sum_k w_k r_k over its agents with positive weight.

    A normalized row with one such agent weights it by exactly 1.0, so its
    sums are that agent's own moments, taken as they are.
    """
    active = rows > 0.0
    own = at[active.argmax(axis=1)]
    S_w, r_w = stack[own, :-1, :-1], stack[own, :-1, -1]
    for i in np.flatnonzero(active.sum(axis=1) > 1):
        w = rows[i, active[i]]
        M = stack[at[active[i]]]
        S_w[i] = np.tensordot(w, M[:, :-1, :-1], axes=1)
        r_w[i] = w @ M[:, :-1, -1]
    return S_w, r_w


# H is a weighted Gram matrix, so forming it rounds at about p * eps of its
# norm; eigenvalues whose magnitude is below this share of the largest are
# that rounding
_RANK_RTOL = 1e-12

# FedAvg stacks the participants' moments of a chunk of rows, rows x m x
# (p+1)^2 floats for m participants; a chunk holds as many rows as fit in
# this many bytes, and at least one
_FEDAVG_CHUNK_BYTES = 1 << 22

# a step size too large for the data overflows the iterates; the fit returns
# them with status NON_FINITE instead of warning at every overflowing step
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def fit_weighted(
    spec: ModelSpec, weights: Sequence[SimplexWeights | np.ndarray], datasets: list[AgentDataset],
) -> list[FittedModel]:
    """Minimize the weighted empirical risk of each weight row; one model per row, in order.

    Ridge solves every row's normal equations H theta = r_w in one batched
    symmetric eigendecomposition H = Q diag(lambda) Q', as theta = Q
    diag(1/lambda) Q' r_w over the eigenvalues with |lambda_i| > _RANK_RTOL *
    max |lambda|.  When all p are kept the status is "ok"; otherwise (numerical
    rank below p, e.g. lam=0 with fewer samples than parameters) theta is the
    minimum-norm solution and the status "singular-min-norm".  GD variants run
    full-batch gradient descent, every squared-loss row in one epoch loop.
    """
    rows = _weight_rows(weights, datasets)
    d = datasets[0].dim
    if spec.kind == LOGISTIC_GD:
        models = []
        for w in rows:
            theta = np.zeros(_param_dim(spec, d))
            for _ in range(spec.epochs):
                theta = theta - spec.lr * weighted_gradient(spec, w, datasets, theta)
            models.append(_unpack(theta, spec, d))
        return models
    if not len(rows):
        return []

    S_w, r_w = _weighted_moments(rows, *_moment_stack(rows, datasets))
    p = S_w.shape[-1]
    if spec.kind == RIDGE:
        eig, Q = np.linalg.eigh(S_w + spec.lam * np.eye(p))
        size = np.abs(eig)
        kept = size > _RANK_RTOL * size.max(axis=-1, keepdims=True)
        coords = (r_w[:, None, :] @ Q)[:, 0, :] * np.divide(1.0, eig, out=np.zeros_like(eig), where=kept)
        theta = (Q @ coords[..., None])[..., 0]
        full_rank = kept.all(axis=-1)
        return [_unpack(row, spec, d, "ok" if full else "singular-min-norm") for row, full in zip(theta, full_rank)]

    theta = np.zeros((len(rows), p))
    for _ in range(spec.epochs):
        theta = theta - spec.lr * (2.0 * spec.lam * theta + 2.0 * ((S_w @ theta[..., None])[..., 0] - r_w))
    return [_unpack(row, spec, d) for row in theta]


@_quiet_overflow
def fedavg(
    spec: ModelSpec,
    weights: Sequence[SimplexWeights | np.ndarray],
    datasets: list[AgentDataset],
    rounds: int,
    local_steps: int,
    lr: float,
) -> list[FittedModel]:
    """Simulated FedAvg on the weighted objective of each weight row; one model per row, in order.

    Each round broadcasts the model, every agent with positive weight takes
    ``local_steps`` gradient steps on its local risk (including the shared
    lam penalty), and the server replaces the model by the weighted sum of
    the local models, with the agents' weights renormalized over
    participants.  For the squared loss the rows with m participants step
    together, rows x m local models at once, each on its own S_k and r_k.
    """
    if rounds < 0 or local_steps < 1 or lr <= 0:
        raise ValueError("rounds must be >= 0, local_steps >= 1, lr > 0")
    rows = _weight_rows(weights, datasets)
    d = datasets[0].dim
    participants = [np.flatnonzero(w > 0.0) for w in rows]
    shares = [w[part] / float(sum(w[k] for k in part)) for w, part in zip(rows, participants)]
    if spec.kind == LOGISTIC_GD:
        models = []
        for share, part in zip(shares, participants):
            theta = np.zeros(_param_dim(spec, d))
            for _ in range(rounds):
                aggregate = np.zeros_like(theta)
                for wk, k in zip(share, part):
                    local = theta
                    for _ in range(local_steps):
                        local = local - lr * (_local_gradient(spec, datasets[k], local) + 2.0 * spec.lam * local)
                    aggregate = aggregate + wk * local
                theta = aggregate
            models.append(_unpack(theta, spec, d))
        return models
    if not len(rows):
        return []

    stack, at = _moment_stack(rows, datasets)
    theta = np.zeros((len(rows), d + 1))
    by_count: dict[int, list[int]] = {}
    for i, part in enumerate(participants):
        by_count.setdefault(part.size, []).append(i)
    for m, members in by_count.items():
        chunk = max(1, _FEDAVG_CHUNK_BYTES // (m * stack[0].nbytes))
        for lo in range(0, len(members), chunk):
            idx = members[lo:lo + chunk]
            M = stack[at[np.stack([participants[i] for i in idx])]]
            share = np.stack([shares[i] for i in idx])
            theta[idx] = _fedavg_rounds(spec.lam, M[..., :-1, :-1], M[..., :-1, -1], share, rounds, local_steps, lr)
    return [_unpack(row, spec, d) for row in theta]


def _fedavg_rounds(lam, S, r, share, rounds, local_steps, lr) -> np.ndarray:
    """FedAvg of rows x m participants from S (rows x m x p x p), r and share (rows x m)."""
    theta = np.zeros((share.shape[0], S.shape[-1]))
    for _ in range(rounds):
        local = theta[:, None, :]  # broadcast to one row per participant by the first step
        for _ in range(local_steps):
            resid = (S @ local[..., None])[..., 0] - r
            local = local - lr * (2.0 * resid + 2.0 * lam * local)
        theta = (share[:, None, :] @ local)[:, 0, :]
    return theta


def moment_risks(models: Sequence[FittedModel], moments: np.ndarray) -> np.ndarray:
    """Squared loss of each linear model ``models[i]`` under the law with augmented second moment ``moments[i]``.

    ``moments[i]`` is E[z z'] with z = (x, 1, y), in the layout of
    :meth:`AgentDataset.moments`, so E (x'theta + c - y)^2 = u' M u with
    u = (theta, c, -1).  Under a population moment this is the exact risk;
    under a dataset's own moments it is that dataset's MSE, up to rounding.
    Every pair is scored in one batched mat-vec and one batched row-times-
    column product, whose slices are the bits of one pair's ``u @ (M @ u)``
    (matmul makes the same gemv and dot calls per slice), so no model's
    score depends on the other pairs of the call.
    """
    if any(model.spec.kind == LOGISTIC_GD for model in models):
        raise ValueError("MSE is undefined for classifiers")
    U = np.empty((len(models), np.shape(moments)[-1]))
    for u, model in zip(U, models):
        u[:-2], u[-2] = model.coefficients, model.intercept
    U[:, -1] = -1.0
    return (U[:, None, :] @ (moments @ U[:, :, None]))[:, 0, 0]


def moment_risk(model: FittedModel, moment: np.ndarray) -> float:
    """:func:`moment_risks` of one model under one augmented second moment."""
    return float(moment_risks([model], np.asarray(moment)[None])[0])


def evaluate(model: FittedModel, test: AgentDataset, metric: str) -> float:
    """Test-set MSE or accuracy."""
    if test.n < 1:
        raise ValueError("test set must be non-empty")
    if metric == MSE:
        if model.spec.kind == LOGISTIC_GD:
            raise ValueError("MSE is undefined for classifiers")
        pred = model.predict(test.X)
        resid = pred - test.y
        return float(np.mean(resid * resid))
    if metric == ACCURACY:
        if model.spec.kind != LOGISTIC_GD:
            raise ValueError("accuracy needs a classifier")
        pred = model.predict(test.X)
        return float(np.mean(pred == test.y.astype(int)))
    raise ValueError(f"unknown metric {metric!r}")
