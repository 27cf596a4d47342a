"""Empirical kernel mean embeddings as finite coordinate vectors.

An agent's KME is one vector ``v``, which is both what the agent uploads and
what the weight learner reads:

* under RFF, ``v = mean_i phi(Z_i)`` in R^D;
* under poly2, ``v`` is the explicit feature lift
  ``(1, sqrt(2) z, z_i^2, sqrt(2) z_i z_j)_{i<j}`` of the sample's
  (mean, uncentered second moment) summary, which reproduces
  ``(<z, z'> + 1)^2`` exactly.  Its leading 1 is a constant, not a payload.

Either way an agent shares a finite summary and never its sample.  The
covariance trace and the q statistics that the weight learner consumes are
computed here, in feature space, from a target's per-point features:
:func:`trace_cov_hat` and :func:`q_stat`, which gives q for every peer at
once; :func:`fedkme.qagg.cost_row` calls both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AgentDataset
from .rff import RffParams, featurize_matrix

RFF = "rff"
POLY2 = "poly2"


@dataclass(frozen=True, eq=False)
class Embedding:
    """One agent's empirical KME: the coordinate vector it uploads and the weight program reads."""

    kind: str
    v: np.ndarray

    def __post_init__(self):
        if self.kind not in (RFF, POLY2):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.kind == RFF and float(np.linalg.norm(self.v)) > np.sqrt(2.0) + 1e-9:
            raise ValueError("rff embedding norm exceeds sqrt(2)")
        self.v.setflags(write=False)


@dataclass(frozen=True, eq=False)
class LocalFeatureSet:
    """A target agent's per-point features Phi_i and their mean, formed once from them, for one weight step.

    The set takes over the rows it is built from: ``features`` is a read-only
    view of them, and the set keeps them writable for the weight step alone.
    That step is their last reader, and it spends the set, which
    :attr:`spent` then reports; a second weight step on a spent set raises.
    When the step proves from the Gram matrix and one read of the rows that
    the target's row is its vertex e_t, it spends the set without writing to
    them, and ``features`` keeps the features.  Otherwise
    :func:`fedkme.qagg.cost_row` forms the target's projections from them,
    then takes them with :meth:`spend` and writes the centred squares of the
    covariance trace over them, so ``features`` no longer holds the
    features.  ``mean`` is an array of its own and keeps its value.
    """

    kind: str
    features: np.ndarray
    mean: np.ndarray = field(init=False, repr=False)
    _rows: np.ndarray | None = field(init=False, repr=False)  # None once spent

    def __post_init__(self):
        if self.kind not in (RFF, POLY2):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        rows = self.features
        if rows.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if rows.dtype != np.float64 or not rows.flags.c_contiguous or not rows.flags.writeable:
            raise ValueError("features must be writable C-contiguous float64 rows: the weight step overwrites them")
        view = rows.view()
        view.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "features", view)
        object.__setattr__(self, "mean", view.mean(axis=0))
        self.mean.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def spent(self) -> bool:
        """Whether a weight step has taken the rows; ``features`` may then hold its trace terms."""
        return self._rows is None

    def spend(self) -> np.ndarray:
        """The writable rows that ``features`` views, handed to the weight step once to overwrite."""
        rows = self._rows
        if rows is None:
            raise ValueError("these features were overwritten by an earlier weight step")
        object.__setattr__(self, "_rows", None)
        return rows


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


def featurize_agent(
    dataset: AgentDataset, mode, scope: str = "full", with_features: bool = False, out: np.ndarray | None = None,
) -> tuple[Embedding, LocalFeatureSet | None]:
    """One agent's empirical KME and, if ``with_features``, its per-point features, from one read of its sample.

    The RFF embedding is the mean of the feature matrix a target keeps, so an
    agent is featurized once whether or not it is a target.

    Args:
        dataset: the agent's local sample (non-empty).
        mode: an :class:`RffParams` for the RFF representation, or the
            string "poly2".
        scope: "full" embeds the (x, y) tuples, "features" only the x part.
        with_features: also return the :class:`LocalFeatureSet`; otherwise
            the second element is None.
        out: C-contiguous (n, D) rows that receive the RFF feature matrix,
            as for :func:`featurize_matrix`; RFF mode only.
    """
    Z = dataset.z(scope)
    local = None
    if isinstance(mode, RffParams):
        F = featurize_matrix(mode, Z, out=out)
        if with_features:
            local = LocalFeatureSet(kind=RFF, features=F)
        # a target's feature set has formed the mean already
        emb = Embedding(kind=RFF, v=F.mean(axis=0) if local is None else local.mean)
    elif out is not None:
        raise ValueError("out receives RFF features only")
    elif mode == POLY2:
        emb = Embedding(kind=POLY2, v=_poly2_summary_lift(Z.mean(axis=0), Z.T @ Z / Z.shape[0]))
        if with_features:
            local = LocalFeatureSet(kind=POLY2, features=poly2_lift(Z))
    else:
        raise ValueError(f"unknown embedding mode {mode!r}")
    return emb, local


def embed(dataset: AgentDataset, mode, scope: str = "full") -> Embedding:
    """An agent's empirical KME; see :func:`featurize_agent` for the arguments."""
    return featurize_agent(dataset, mode, scope)[0]


def local_features(dataset: AgentDataset, mode, scope: str = "full") -> LocalFeatureSet:
    """Per-point features Phi_i of the target agent, matching :func:`embed`."""
    return featurize_agent(dataset, mode, scope, with_features=True)[1]


def trace_cov_hat(local: LocalFeatureSet, out: np.ndarray | None = None) -> float:
    """Unbiased empirical covariance trace tr Sigma_hat = (1/(n-1)) sum_i ||Phi_i - mean||^2.

    The centred squares go to ``out``, a C-contiguous float array shaped like
    the features, if one is given; otherwise to a temporary of that size.
    ``out`` may be the features' own rows (:meth:`LocalFeatureSet.spend`):
    each entry is read before it is overwritten, and the trace is the same
    bits, but the features are then lost.
    """
    n = local.n
    if n < 2:
        raise ValueError("covariance trace needs at least two samples")
    centered = np.subtract(local.features, local.mean, out=out)
    centered *= centered  # in place: no second (n, D) temporary
    return float(np.sum(centered)) / (n - 1)


def q_stat(local: LocalFeatureSet, directions: np.ndarray) -> np.ndarray:
    """Directional variances q = (1/(n-1)) sum_i <Phi_i - mean, u>^2, one for each row u of ``directions``.

    With u = nu_k - nu_t this is q_k = <u, Sigma_hat_t u>, since Sigma_hat_t
    carries the 1/(n-1) factor.  The projections are centred on the feature
    mean, which is nu_t when the embeddings were built from the same sample.
    """
    n = local.n
    if n < 2:
        raise ValueError("q statistic needs at least two samples")
    proj = local.features @ directions.T
    proj -= proj.mean(axis=0)
    return (proj * proj).sum(axis=0) / (n - 1)
