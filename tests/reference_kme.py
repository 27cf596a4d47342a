"""Reference forms of the kernel mean embedding, for tests only.

The package represents a KME by a finite vector, the RFF mean or the poly2
lift of the sample's moments, and no agent ever reads another agent's
sample.  The forms here need raw points, a single point, or a population
law, or write out term by term what the package forms in one pass, and no
protocol step calls them.  They are the oracles the finite forms are checked
against:

* pointwise kernel values, Gram matrices, and the RFF map of one point;
* the exact embedding, a handle on an agent's raw sample under a kernel, with
  the kernel-expansion forms of the inner product, the covariance trace, the
  q statistic and one target's weight program;
* one target's weight program in feature coordinates, written out term by
  term: A from the differences nu_k - nu_t, b one peer at a time, so it
  shares no assembly with ``qagg``;
* squared MMDs by bilinear expansion, and the analytic embedding of a
  Gaussian under poly2 and in RFF coordinates (the concept-shift law of
  (x, y) is Gaussian);
* the weighted model risk, and the one-target solve of a ``QaggProblem``;
* :func:`dataset_of`, the dataset whose sample tuples are given rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fedkme import qagg
from fedkme.data import AgentDataset
from fedkme.embedding import POLY2, Embedding, LocalFeatureSet, _poly2_summary_lift
from fedkme.kernels import GAUSSIAN, KernelSpec
from fedkme.models import LOGISTIC_GD, ModelSpec
from fedkme.rff import RffParams, featurize_matrix

EXACT = "exact"

# bilinear MMD expansions may go this far below zero before it is an error
_NEG_TOL = 1e-10


def dataset_of(Z) -> AgentDataset:
    """The labeled dataset whose full-scope sample matrix ``z()`` is ``Z``: its last column is the label."""
    Z = np.asarray(Z, dtype=float)
    return AgentDataset(Z[:, :-1], Z[:, -1])


def eval_kernel(spec: KernelSpec, z, z2) -> float:
    """Evaluate kappa(z, z2); symmetric in its arguments bit-for-bit."""
    z = np.asarray(z, dtype=float).reshape(-1)
    z2 = np.asarray(z2, dtype=float).reshape(-1)
    if z.shape[0] != spec.ambient_dim or z2.shape[0] != spec.ambient_dim:
        raise ValueError(
            f"points of dim {z.shape[0]}/{z2.shape[0]} passed to kernel of dim {spec.ambient_dim}"
        )
    if spec.kind == GAUSSIAN:
        delta = z - z2
        return float(np.exp(-np.dot(np.asarray(spec.bandwidth) * delta, delta)))
    return float((np.dot(z, z2) + 1.0) ** 2)


def gram_matrix(spec: KernelSpec, Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Matrix of kappa(z1_i, z2_j) for row sets Z1 (n1 x d) and Z2 (n2 x d)."""
    Z1 = np.asarray(Z1, dtype=float)
    Z2 = np.asarray(Z2, dtype=float)
    if Z1.shape[1] != spec.ambient_dim or Z2.shape[1] != spec.ambient_dim:
        raise ValueError("gram_matrix column count must equal ambient_dim")
    if spec.kind == GAUSSIAN:
        a = np.asarray(spec.bandwidth)
        diff = Z1[:, None, :] - Z2[None, :, :]
        return np.exp(-np.einsum("ijk,k,ijk->ij", diff, a, diff))
    return (Z1 @ Z2.T + 1.0) ** 2


def featurize(params: RffParams, z) -> np.ndarray:
    """Map one point to its D-dimensional cosine feature vector."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != params.kernel.ambient_dim:
        raise ValueError(f"point of dim {z.shape[0]} passed to RFF map of dim {params.kernel.ambient_dim}")
    # the package's one code path, so the two agree bit-for-bit
    return featurize_matrix(params, z[np.newaxis, :])[0]


@dataclass(frozen=True, eq=False)
class ExactEmbedding:
    """The exact empirical KME: an agent's raw points Z under a kernel.

    A target's per-point features in the kernel-expansion forms are its raw
    points, so the same handle serves as the target's local features.
    """

    kernel: KernelSpec
    Z: np.ndarray
    kind = EXACT

    @property
    def n(self) -> int:
        return self.Z.shape[0]


def exact_embed(dataset: AgentDataset, kernel: KernelSpec, scope: str = "full") -> ExactEmbedding:
    """The exact embedding of ``dataset.z(scope)`` under ``kernel``."""
    Z = dataset.z(scope)
    if kernel.ambient_dim != Z.shape[1]:
        raise ValueError("kernel ambient_dim does not match embedded scope")
    return ExactEmbedding(kernel, Z)


def _check_compatible(a, b) -> None:
    if a.kind != b.kind:
        raise ValueError(f"embedding representations differ: {a.kind} vs {b.kind}")


def kme_inner(a: Embedding | ExactEmbedding, b: Embedding | ExactEmbedding) -> float:
    """RKHS inner product <mu_a, mu_b> in the shared representation."""
    _check_compatible(a, b)
    if a.kind == EXACT:
        return float(np.mean(gram_matrix(a.kernel, a.Z, b.Z)))
    return float(np.dot(a.v, b.v))


def _clamp_sq(value: float) -> float:
    if value < -_NEG_TOL:
        raise ArithmeticError(f"squared MMD expansion is {value}, below -{_NEG_TOL}")
    return max(value, 0.0)


def mmd2(a, b) -> float:
    """Squared MMD <a-b, a-b>; tiny negative round-off is clamped to 0."""
    return _clamp_sq(kme_inner(a, a) - 2.0 * kme_inner(a, b) + kme_inner(b, b))


def mmd2_mixture(weights, embs: list, target) -> float:
    """Squared MMD between the weighted mixture of embeddings and a target.

    Computed by bilinear expansion over the pairwise inner products, so it
    works for every representation, exact handles included.
    """
    w = np.asarray(getattr(weights, "w", weights), dtype=float)
    if w.shape[0] != len(embs):
        raise ValueError("weight length must match the number of embeddings")
    G = np.array([[kme_inner(ek, el) for el in embs] for ek in embs])
    cross = np.array([kme_inner(ek, target) for ek in embs])
    val = float(w @ G @ w - 2.0 * np.dot(w, cross) + kme_inner(target, target))
    return _clamp_sq(val)


def poly2_population_embedding(mean, cov) -> Embedding:
    """Analytic KME of a Gaussian N(mean, cov) under the poly2 kernel.

    The lift of the population moments: the mean and the second moment
    cov + mean mean^T.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    return Embedding(kind=POLY2, v=_poly2_summary_lift(mean, cov + np.outer(mean, mean)))


def concept_shift_law(beta, sigma_y2: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of z = (x, y) under concept shift: x ~ N(1, I_d), y = <beta, x> + N(0, sigma_y2)."""
    beta = np.asarray(beta, dtype=float).reshape(-1)
    d = beta.size
    mean = np.append(np.ones(d), beta.sum())
    cov = np.block([[np.eye(d), beta[:, None]], [beta[None, :], np.array([[beta @ beta + sigma_y2]])]])
    return mean, cov


def rff_population_embedding(params: RffParams, mean, cov) -> tuple[np.ndarray, float]:
    """The population KME mu = E phi(z) of z ~ N(mean, cov) in RFF coordinates, and tr Cov phi(z).

    For phi_s(z) = sqrt(2/D) cos(<w_s, z> + b_s), E cos(<w, z> + b) =
    exp(-w'Sw/2) cos(<w, m> + b); and cos^2 = (1 + cos 2.)/2 gives
    E ||phi(z)||^2 = (1/D) sum_s (1 + exp(-2 w_s'Sw_s) cos(2 <w_s, m> + 2 b_s)).
    """
    mean = np.asarray(mean, dtype=float)
    quad = np.einsum("si,ij,sj->s", params.W, np.asarray(cov, dtype=float), params.W)
    phase = params.W @ mean + params.b
    mu = np.sqrt(2.0 / params.D) * np.exp(-quad / 2.0) * np.cos(phase)
    second = float(np.mean(1.0 + np.exp(-2.0 * quad) * np.cos(2.0 * phase)))
    return mu, second - float(mu @ mu)


def kernel_trace_cov_hat(local: ExactEmbedding) -> float:
    """tr Sigma_hat by kernel expansion: (S_diag - S_all/n) / (n-1) on the sample's Gram matrix."""
    n = local.n
    if n < 2:
        raise ValueError("covariance trace needs at least two samples")
    K = gram_matrix(local.kernel, local.Z, local.Z)
    return _clamp_sq((float(np.trace(K)) - float(np.sum(K)) / n) / (n - 1))


def kernel_q_stat(local: ExactEmbedding, nu_k: ExactEmbedding, nu_1: ExactEmbedding) -> float:
    """q_k by kernel expansion: (1/(n-1)) sum_i a_i^2 - (n/(n-1)) abar^2.

    Here a_i = mean_j k(Z_i, Z_j^{(k)}) - mean_j k(Z_i, Z_j^{(1)}) is the
    projection <Phi_i, nu_k - nu_1>, centred through abar as the feature form
    centres on the feature mean.
    """
    n = local.n
    if n < 2:
        raise ValueError("q statistic needs at least two samples")
    a = (
        gram_matrix(local.kernel, local.Z, nu_k.Z).mean(axis=1)
        - gram_matrix(local.kernel, local.Z, nu_1.Z).mean(axis=1)
    )
    abar = float(a.mean())
    return _clamp_sq(float(np.sum(a * a)) / (n - 1) - n / (n - 1) * abar**2)


def kernel_problem(embs: list[ExactEmbedding], local: ExactEmbedding, cfg: qagg.QaggConfig) -> qagg.QaggProblem:
    """``qagg.build_problem`` for exact embeddings: every term by kernel expansion."""
    B = len(embs)
    t = cfg.target_index
    n_t = local.n
    G = np.array([[kme_inner(ek, el) for el in embs] for ek in embs])
    A = G - G[t, :][None, :] - G[:, t][:, None] + G[t, t]
    A = (A + A.T) / 2.0
    A[t, :] = 0.0
    A[:, t] = 0.0
    b = np.zeros(B)
    b[t] = 2.0 * kernel_trace_cov_hat(local) / n_t
    for k in range(B):
        if k == t:
            continue
        dist = math.sqrt(max(float(A[k, k]), 0.0))
        b[k] = cfg.c_q * math.sqrt(kernel_q_stat(local, embs[k], embs[t])) / math.sqrt(n_t) \
            + cfg.c_p * cfg.m * dist / n_t
    return qagg.QaggProblem(
        A=A, b=b, op_norm_A=qagg.operator_norm(A), inf_norm_b=float(np.max(np.abs(b))), target_index=t,
    )


def feature_q_stat(local: LocalFeatureSet, nu_k: Embedding, nu_1: Embedding) -> float:
    """q_k = (1/(n-1)) sum_i <Phi_i - mean, nu_k - nu_1>^2 for one peer, from the target's feature rows."""
    proj = local.features @ (nu_k.v - nu_1.v)
    proj -= proj.mean()
    return float(np.sum(proj * proj)) / (local.n - 1)


def feature_problem(embs: list[Embedding], local: LocalFeatureSet, cfg: qagg.QaggConfig) -> qagg.QaggProblem:
    """``qagg.build_problem`` written out: A from the differences nu_k - nu_t, b one peer at a time.

    Reads ``local.features`` only, so the set is not spent.
    """
    B = len(embs)
    t = cfg.target_index
    n_t = local.n
    V = np.stack([e.v for e in embs])
    diffs = V - V[t]
    A = diffs @ diffs.T
    A = (A + A.T) / 2.0
    A[t, :] = 0.0
    A[:, t] = 0.0
    F = local.features
    trace = float(np.sum((F - F.mean(axis=0)) ** 2)) / (n_t - 1)
    b = np.zeros(B)
    b[t] = 2.0 * trace / n_t
    for k in range(B):
        if k == t:
            continue
        dist = math.sqrt(max(float(A[k, k]), 0.0))
        b[k] = cfg.c_q * math.sqrt(feature_q_stat(local, embs[k], embs[t])) / math.sqrt(n_t) \
            + cfg.c_p * cfg.m * dist / n_t
    return qagg.QaggProblem(
        A=A, b=b, op_norm_A=qagg.operator_norm(A), inf_norm_b=float(np.max(np.abs(b))), target_index=t,
    )


def optimize(problem: qagg.QaggProblem, cfg: qagg.QaggConfig) -> qagg.SimplexWeights:
    """Minimise one target's quadratic form over the simplex, with the solver ``learn_weights`` runs."""
    return qagg.SimplexWeights(qagg._solve(problem.A, problem.b, problem.target_index, cfg.t))


def weighted_objective(spec: ModelSpec, w: np.ndarray, datasets: list[AgentDataset], theta: np.ndarray) -> float:
    """J(theta) = sum_k w_k R_k(theta) + lam ||theta||^2."""
    total = spec.lam * float(np.sum(theta * theta))
    for wk, ds in zip(w, datasets):
        if wk == 0.0:
            continue
        total += wk * _local_risk(spec, ds, theta)
    return total


def _local_risk(spec: ModelSpec, ds: AgentDataset, theta: np.ndarray) -> float:
    Xd = np.column_stack([ds.X, np.ones(ds.n)])
    if spec.kind == LOGISTIC_GD:
        logits = Xd @ theta
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.sum(np.exp(shifted), axis=1))
        picked = shifted[np.arange(ds.n), ds.y.astype(int)]
        return float(np.mean(log_norm - picked))
    resid = Xd @ theta - ds.y
    return float(np.mean(resid * resid))
