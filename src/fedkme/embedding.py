"""Empirical kernel mean embeddings in three interchangeable representations.

A distribution's KME is represented either as

* an RFF vector ``v = mean_i phi(Z_i)`` in R^D,
* a degree-2 polynomial moment summary ``(mean, uncentered second moment)``,
  whose explicit feature lift ``(1, sqrt(2) z, z_i^2, sqrt(2) z_i z_j)_{i<j}``
  reproduces ``(<z, z'> + 1)^2`` exactly, or
* an exact-kernel handle on the raw sample (test oracle only; inner products
  need cross-agent raw data, so this mode is not federated).

All inner products, squared MMDs, covariance traces, and the q statistics
consumed by the weight learner are computed here, each in both a
feature-space form and a kernel-expansion form where the representation
allows, so the two routes can check one another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AgentDataset
from .kernels import KernelSpec, gram_matrix, poly2_kernel
from .rff import RffParams, featurize_matrix

RFF = "rff"
POLY2 = "poly2"
EXACT = "exact"

# bilinear MMD expansions may go this far below zero before it is an error
_NEG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Embedding:
    """One agent's empirical KME in a single representation."""

    kind: str
    n: int
    kernel: KernelSpec
    v: np.ndarray | None = None
    mean: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    data: AgentDataset | None = None
    scope: str = "full"

    def __post_init__(self):
        if self.kind not in (RFF, POLY2, EXACT):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.n < 0:
            raise ValueError("sample count must be non-negative")
        if self.kind == RFF:
            if self.v is None:
                raise ValueError("rff embedding requires a vector")
            if float(np.linalg.norm(self.v)) > np.sqrt(2.0) + 1e-9:
                raise ValueError("rff embedding norm exceeds sqrt(2)")
            self.v.setflags(write=False)
        elif self.kind == POLY2:
            if self.mean is None or self.second_moment is None:
                raise ValueError("poly2 embedding requires mean and second moment")
            C = self.second_moment
            if C.shape[0] != C.shape[1] or not np.allclose(C, C.T, atol=1e-10):
                raise ValueError("second moment must be symmetric")
            if float(np.min(np.linalg.eigvalsh(C))) < -1e-8:
                raise ValueError("second moment must be positive semi-definite")
            self.mean.setflags(write=False)
            self.second_moment.setflags(write=False)
        else:
            if self.data is None:
                raise ValueError("exact embedding requires a dataset handle")
            if self.n != self.data.n:
                raise ValueError("exact embedding n must equal the dataset row count")


@dataclass(frozen=True, eq=False)
class LocalFeatureSet:
    """The target agent's per-point features Phi_i (raw points in exact mode)."""

    kind: str
    features: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        if self.kind not in (RFF, POLY2, EXACT):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        self.features.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]


def poly2_lift(Z: np.ndarray) -> np.ndarray:
    """Explicit feature map of (<z, z'> + 1)^2: dim 1 + d + d(d+1)/2."""
    Z = np.asarray(Z, dtype=float)
    n, d = Z.shape
    iu, ju = np.triu_indices(d)
    quad = Z[:, iu] * Z[:, ju]
    quad = quad * np.where(iu == ju, 1.0, np.sqrt(2.0))
    return np.hstack([np.ones((n, 1)), np.sqrt(2.0) * Z, quad])


def _poly2_summary_lift(mean: np.ndarray, second_moment: np.ndarray) -> np.ndarray:
    """Lift of a moment summary; equals the mean of the per-point lifts."""
    d = mean.shape[0]
    iu, ju = np.triu_indices(d)
    quad = second_moment[iu, ju] * np.where(iu == ju, 1.0, np.sqrt(2.0))
    return np.concatenate([[1.0], np.sqrt(2.0) * mean, quad])


def as_feature_vector(emb: Embedding) -> np.ndarray:
    """Finite-dimensional coordinate vector of an embedding (rff or poly2)."""
    if emb.kind == RFF:
        return emb.v
    if emb.kind == POLY2:
        return _poly2_summary_lift(emb.mean, emb.second_moment)
    raise ValueError("exact embeddings have no finite coordinate vector")


def embed(dataset: AgentDataset, mode, scope: str = "full", kernel: KernelSpec | None = None) -> Embedding:
    """Compute an agent's empirical KME.

    Args:
        dataset: the agent's local sample (non-empty).
        mode: an :class:`RffParams` for the RFF representation, or one of
            the strings "poly2" / "exact".
        scope: "full" embeds the (x, y) tuples, "features" only the x part
            (requires a labeled dataset).
        kernel: required in "exact" mode; ignored otherwise.
    """
    if scope == "features" and not dataset.has_labels:
        raise ValueError("scope='features' requires a dataset with a label column")
    Z = dataset.z(scope)
    if isinstance(mode, RffParams):
        v = featurize_matrix(mode, Z).mean(axis=0)
        return Embedding(kind=RFF, n=dataset.n, kernel=mode.kernel, v=v, scope=scope)
    if mode == POLY2:
        mean = Z.mean(axis=0)
        second_moment = Z.T @ Z / Z.shape[0]
        return Embedding(
            kind=POLY2, n=dataset.n, kernel=poly2_kernel(Z.shape[1]),
            mean=mean, second_moment=second_moment, scope=scope,
        )
    if mode == EXACT:
        if kernel is None:
            raise ValueError("exact mode requires an explicit kernel")
        if kernel.ambient_dim != Z.shape[1]:
            raise ValueError("kernel ambient_dim does not match embedded scope")
        return Embedding(kind=EXACT, n=dataset.n, kernel=kernel, data=dataset, scope=scope)
    raise ValueError(f"unknown embedding mode {mode!r}")


def poly2_population_embedding(mean, cov) -> Embedding:
    """Analytic KME of a Gaussian N(mean, cov) under the poly2 kernel.

    The population second moment is cov + mean mean^T; the sample count is 0
    to mark an infinite-sample reference object.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    return Embedding(
        kind=POLY2, n=0, kernel=poly2_kernel(mean.shape[0]),
        mean=mean, second_moment=cov + np.outer(mean, mean),
    )


def local_features(dataset: AgentDataset, mode, scope: str = "full", kernel: KernelSpec | None = None) -> LocalFeatureSet:
    """Per-point features Phi_i of the target agent, matching :func:`embed`."""
    if scope == "features" and not dataset.has_labels:
        raise ValueError("scope='features' requires a dataset with a label column")
    Z = dataset.z(scope)
    if isinstance(mode, RffParams):
        return LocalFeatureSet(kind=RFF, features=featurize_matrix(mode, Z), kernel=mode.kernel)
    if mode == POLY2:
        return LocalFeatureSet(kind=POLY2, features=poly2_lift(Z), kernel=poly2_kernel(Z.shape[1]))
    if mode == EXACT:
        if kernel is None:
            raise ValueError("exact mode requires an explicit kernel")
        return LocalFeatureSet(kind=EXACT, features=Z, kernel=kernel)
    raise ValueError(f"unknown feature mode {mode!r}")


def _check_compatible(a: Embedding, b: Embedding) -> None:
    if a.kind != b.kind:
        raise ValueError(f"embedding representations differ: {a.kind} vs {b.kind}")
    if a.kernel != b.kernel:
        raise ValueError("embeddings use different kernels")


def kme_inner(a: Embedding, b: Embedding) -> float:
    """RKHS inner product <mu_a, mu_b> in the shared representation."""
    _check_compatible(a, b)
    if a.kind == RFF:
        return float(np.dot(a.v, b.v))
    if a.kind == POLY2:
        return float(
            1.0 + 2.0 * np.dot(a.mean, b.mean) + np.sum(a.second_moment * b.second_moment)
        )
    Za = a.data.z(a.scope)
    Zb = b.data.z(b.scope)
    return float(np.mean(gram_matrix(a.kernel, Za, Zb)))


def _clamp_sq(value: float) -> float:
    if value < -_NEG_TOL:
        raise ArithmeticError(f"squared MMD expansion is {value}, below -{_NEG_TOL}")
    return max(value, 0.0)


def mmd2(a: Embedding, b: Embedding) -> float:
    """Squared MMD <a-b, a-b>; tiny negative round-off is clamped to 0."""
    return _clamp_sq(kme_inner(a, a) - 2.0 * kme_inner(a, b) + kme_inner(b, b))


def mmd2_mixture(weights, embs: list[Embedding], target: Embedding) -> float:
    """Squared MMD between the weighted mixture of embeddings and a target.

    Computed by bilinear expansion over the pairwise inner products, so it
    works for every representation, including exact handles.
    """
    w = np.asarray(getattr(weights, "w", weights), dtype=float)
    if w.shape[0] != len(embs):
        raise ValueError("weight length must match the number of embeddings")
    G = np.array([[kme_inner(ek, el) for el in embs] for ek in embs])
    cross = np.array([kme_inner(ek, target) for ek in embs])
    val = float(w @ G @ w - 2.0 * np.dot(w, cross) + kme_inner(target, target))
    return _clamp_sq(val)


def trace_cov_hat(local: LocalFeatureSet) -> float:
    """Unbiased empirical covariance trace tr Sigma_hat of the local sample.

    Feature form: (1/(n-1)) sum_i ||Phi_i - mean||^2.  Exact mode uses the
    kernel expansion (S_diag - S_all/n) / (n-1) with S_diag = sum_i k(Z_i,Z_i)
    and S_all the full Gram sum, which is the same quantity expanded.
    """
    n = local.n
    if n < 2:
        raise ValueError("covariance trace needs at least two samples")
    if local.kind == EXACT:
        K = gram_matrix(local.kernel, local.features, local.features)
        val = (float(np.trace(K)) - float(np.sum(K)) / n) / (n - 1)
        return _clamp_sq(val)
    centered = local.features - local.features.mean(axis=0)
    return float(np.sum(centered * centered)) / (n - 1)


def q_stat(local: LocalFeatureSet, nu_k: Embedding, nu_1: Embedding) -> float:
    """Directional variance q_k = (1/(n-1)) sum_i <Phi_i - nu_1, nu_k - nu_1>^2.

    Equals <nu_1 - nu_k, Sigma_hat_1 (nu_1 - nu_k)> since Sigma_hat_1 carries
    the 1/(n-1) factor.  Both branches center on the feature mean (nu_1 when
    the embeddings were built from the same sample), so the feature form and
    the kernel expansion (1/(n-1)) sum_i a_i^2 - (n/(n-1)) abar^2, with
    a_i = mean_j k(Z_i, Z_j^{(k)}) - mean_j k(Z_i, Z_j^{(1)}), agree exactly.
    """
    n = local.n
    if n < 2:
        raise ValueError("q statistic needs at least two samples")
    if local.kind == EXACT:
        if nu_k.kind != EXACT or nu_1.kind != EXACT:
            raise ValueError("exact local features require exact embeddings")
        Z = local.features
        a = (
            gram_matrix(local.kernel, Z, nu_k.data.z(nu_k.scope)).mean(axis=1)
            - gram_matrix(local.kernel, Z, nu_1.data.z(nu_1.scope)).mean(axis=1)
        )
        abar = float(a.mean())
        val = float(np.sum(a * a)) / (n - 1) - n / (n - 1) * abar**2
        return _clamp_sq(val)
    if nu_k.kind != local.kind or nu_1.kind != local.kind:
        raise ValueError("embedding representation does not match local features")
    u = as_feature_vector(nu_k) - as_feature_vector(nu_1)
    proj = local.features @ u
    proj -= proj.mean()
    return float(np.sum(proj * proj)) / (n - 1)
