"""In-process federated protocol simulator with a communication ledger.

The six protocol steps for a target agent are: the server samples the shared
random-feature coefficients, broadcasts them, each agent featurizes its sample
once (the mean is its embedding, and a target keeps the matrix), non-target
agents upload their embeddings (exactly once), the collaboration weights are
learned from the embeddings and the target's own per-point features, and the
weighted risk is minimized (closed form or FedAvg).

:func:`run_protocol_all` runs steps 1-5 with every agent as a target;
:func:`run_protocol` is its one-target slice followed by :func:`fit_model`
and :func:`charge_fedavg`, which charges one target's FedAvg rounds.
:func:`fit_model` is the one closed-form/FedAvg dispatch: the fit path is its
argument, so one caller can fit learned rows by FedAvg and baseline rows in
closed form, and it fits any number of weight rows in one call.

There are no sockets; the ledger is the communication model.  Coefficients
are "transmitted" by regenerating them from the shared seed, but the ledger
charges the full payload of D x (ambient_dim + 1) scalars per agent.  Each
target computes its per-point features before the weight step starts, so a
raw-data access audit asserts that the weight step reads no agent's sample
matrix at all, the target's included.  On the RFF path the targets' features
are row ranges of one block per job; the weight step is their last reader
and writes each target's trace terms over its own rows, so a job holds that
block and no scratch array beside it.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import AgentDataset, audit_raw_access
from .embedding import POLY2, featurize_agent
from .kernels import GAUSSIAN, KernelSpec, kernel_bound
from .models import FittedModel, ModelSpec, fedavg, fit_weighted
from .qagg import QaggConfig, SimplexWeights, learn_weights
from .rff import sample_rff

CLOSED_FORM = "closed_form"
FEDAVG = "fedavg"

LOCAL = "local"
GRAND_MEAN = "grand_mean"
ORACLE = "oracle"


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one protocol run needs besides the data."""

    kernel: KernelSpec
    d_rff: int
    seed: int
    qagg: QaggConfig
    model: ModelSpec
    embedding_scope: str = "full"
    optimizer_path: str = CLOSED_FORM
    fedavg_rounds: int = 200
    fedavg_local_steps: int = 5
    fedavg_lr: float = 0.05

    def __post_init__(self):
        if self.d_rff < 1:
            raise ValueError("d_rff must be at least 1")
        if self.embedding_scope not in ("full", "features"):
            raise ValueError("embedding_scope must be 'full' or 'features'")
        if self.optimizer_path not in (CLOSED_FORM, FEDAVG):
            raise ValueError("optimizer_path must be 'closed_form' or 'fedavg'")


class CommLedger:
    """Append-only transcript of every transmitted payload."""

    COLUMNS = ("round_label", "sender", "receiver", "payload_kind", "scalar_count")

    def __init__(self):
        self._entries: list[tuple[str, str, str, str, int]] = []

    def log(self, round_label: str, sender: str, receiver: str, payload_kind: str, scalar_count: int) -> None:
        if scalar_count < 0:
            raise ValueError("scalar_count must be non-negative")
        self._entries.append((round_label, sender, receiver, payload_kind, int(scalar_count)))

    def log_each(
        self, round_labels: list[str], sender: str, receivers: list[str], payload_kind: str, scalar_count: int,
    ) -> None:
        """One :meth:`log` per (round, receiver), rounds outer, as a single append."""
        if scalar_count < 0:
            raise ValueError("scalar_count must be non-negative")
        count = int(scalar_count)
        self._entries.extend(
            (label, sender, receiver, payload_kind, count) for label in round_labels for receiver in receivers
        )

    @property
    def entries(self) -> tuple[tuple[str, str, str, str, int], ...]:
        return tuple(self._entries)

    def total(self, payload_kind: str | None = None) -> int:
        return sum(e[4] for e in self._entries if payload_kind is None or e[3] == payload_kind)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            writer.writerows(self._entries)


class ProtocolResult(NamedTuple):
    weights: SimplexWeights
    model: FittedModel
    ledger: CommLedger


def _learn(
    cfg: ProtocolConfig, datasets: list[AgentDataset], targets: list[int],
) -> tuple[list[SimplexWeights], CommLedger]:
    """Protocol steps 1-5 for the given targets: one weight row per target, in order.

    Each agent featurizes its sample once: the mean is its embedding, and a
    target keeps the matrix, in its rows of one shared block, before the
    raw-data audit window opens.  :func:`learn_weights` spends the targets'
    feature sets: it overwrites their rows.  Each ledger count is the size
    of the array that is sent.
    """
    B = len(datasets)
    if B < 1:
        raise ValueError("at least one agent is required")
    for t in targets:
        if not 0 <= t < B:
            raise ValueError(f"target {t} out of range for {B} agents")
        if datasets[t].n < 2:
            raise ValueError(f"agent {t} needs at least two samples to act as a target")

    ledger = CommLedger()
    if cfg.kernel.kind == GAUSSIAN:
        mode = sample_rff(cfg.kernel, cfg.d_rff, cfg.seed)
        ledger.log_each(
            ["sampling"], "server", [f"agent_{k}" for k in range(B)], "rff_coefficients", mode.W.size + mode.b.size,
        )
        # a target's per-point features are its own local computation, in its
        # row range of one block that holds every target's: one allocation per job
        sizes = [datasets[t].n for t in targets]
        block = np.empty((sum(sizes), mode.D))
        feature_rows = {t: block[end - n:end] for t, n, end in zip(targets, sizes, np.cumsum(sizes))}
        qcfg, uploads = cfg.qagg, lambda v: [("kme", v.size)]
    else:
        mode, feature_rows = POLY2, {}
        # the poly2 bound is data-dependent: each agent sends its local scalar
        qcfg = replace(cfg.qagg, m=kernel_bound(cfg.kernel, datasets))
        # the lift's leading 1 is a constant, not sent: p means and p(p+1)/2 moments
        uploads = lambda v: [("kme", v[1:].size), ("kernel_bound", 1)]

    kept = set(targets)
    pairs = [
        featurize_agent(ds, mode, cfg.embedding_scope, with_features=k in kept, out=feature_rows.get(k))
        for k, ds in enumerate(datasets)
    ]
    embeddings = [emb for emb, _ in pairs]
    locals_ = {t: pairs[t][1] for t in targets}
    for k, emb in enumerate(embeddings):
        if targets == [k]:
            continue  # the only target's embedding never leaves it
        for kind, count in uploads(emb.v):
            ledger.log("kme_upload", f"agent_{k}", "server", kind, count)

    with audit_raw_access() as log:
        rows = learn_weights(embeddings, locals_, qcfg)
    if log:
        raise RuntimeError("server-side weight computation read raw data of a target or non-target agent")
    return rows, ledger


def fit_model(
    path: str, model: ModelSpec, weights: Sequence[SimplexWeights], datasets: list[AgentDataset],
    *, rounds: int, local_steps: int, lr: float,
) -> list[FittedModel]:
    """Step 6 for each weight row, in one call: the weighted risk minimized in closed form or by FedAvg.

    ``path`` is :data:`CLOSED_FORM` or :data:`FEDAVG`; ``rounds``,
    ``local_steps`` and ``lr`` drive the FedAvg path only.  One model per
    row, in order.  FedAvg rounds are charged by :func:`charge_fedavg`, once
    per target, not here.
    """
    if path == CLOSED_FORM:
        return fit_weighted(model, weights, datasets)
    if path == FEDAVG:
        return fedavg(model, weights, datasets, rounds=rounds, local_steps=local_steps, lr=lr)
    raise ValueError(f"unknown fit path {path!r}, expected 'closed_form' or 'fedavg'")


def charge_fedavg(cfg: ProtocolConfig, weights: SimplexWeights, model: FittedModel, ledger: CommLedger) -> None:
    """Charge one target's FedAvg rounds: a round trip of ``model`` per round and participant.

    A no-op on the closed-form path.  The ledger models every target's own
    FedAvg run, so a target whose equal weight row lets it reuse another
    target's model is still charged in full.
    """
    if cfg.optimizer_path != FEDAVG:
        return
    param_dim = int(np.size(model.coefficients)) + int(np.size(model.intercept))
    participants = [f"agent_{k}" for k in range(len(weights)) if weights.w[k] > 0.0]
    rounds = [f"fedavg_{rnd}" for rnd in range(cfg.fedavg_rounds)]
    ledger.log_each(rounds, "server", participants, "model_round_trip", 2 * param_dim)


def run_protocol(cfg: ProtocolConfig, datasets: list[AgentDataset], target: int) -> ProtocolResult:
    """The six protocol steps for one target: the one-target slice of :func:`run_protocol_all`, then the fit."""
    (weights,), ledger = _learn(cfg, datasets, [target])
    (model,) = fit_model(
        cfg.optimizer_path, cfg.model, [weights], datasets,
        rounds=cfg.fedavg_rounds, local_steps=cfg.fedavg_local_steps, lr=cfg.fedavg_lr,
    )
    charge_fedavg(cfg, weights, model, ledger)
    return ProtocolResult(weights=weights, model=model, ledger=ledger)


def run_protocol_all(cfg: ProtocolConfig, datasets: list[AgentDataset]) -> tuple[list[SimplexWeights], CommLedger]:
    """Weight row for every agent as target; uploads charged once per agent, no model fitted."""
    return _learn(cfg, datasets, list(range(len(datasets))))


def baseline_weights(
    policy: str, datasets: list[AgentDataset], groups: list[int] | None = None,
) -> list[SimplexWeights]:
    """Every target's row of a reference weight policy: local, sample-proportional, group oracle.

    The sample sizes are read once, and equal rows (GrandMean's, and Oracle's
    within a group) are one shared object.
    """
    B = len(datasets)
    sizes = np.array([ds.n for ds in datasets], dtype=float)
    if policy == LOCAL:
        return [SimplexWeights(row) for row in np.eye(B)]
    if policy == GRAND_MEAN:
        return [SimplexWeights(sizes / sizes.sum())] * B
    if policy == ORACLE:
        if groups is None:
            raise ValueError("oracle weights need a group assignment")
        if len(groups) != B:
            raise ValueError("one group id per agent is required")
        labels = np.asarray(groups)
        rows = {}
        for g in groups:
            if g not in rows:
                w = sizes * (labels == g)
                rows[g] = SimplexWeights(w / w.sum())
        return [rows[g] for g in groups]
    raise ValueError(f"unknown baseline policy {policy!r}")
