"""In-process federated protocol simulator with a communication ledger.

The six protocol steps for a target agent are: the server samples the shared
random-feature coefficients, broadcasts them, every agent computes its local
embedding, non-target agents upload their embeddings (exactly once), the
collaboration weights are learned from the embeddings and the target's own
per-point features, and the weighted risk is minimized (closed form or FedAvg).

:func:`run_protocol_all` runs steps 1-5 with every agent as a target;
:func:`run_protocol` is its one-target slice followed by :func:`fit_model`,
the one closed-form/FedAvg dispatch.

There are no sockets; the ledger is the communication model.  Coefficients
are "transmitted" by regenerating them from the shared seed, but the ledger
charges the full payload of D x (ambient_dim + 1) scalars per agent.  Each
target computes its per-point features before the weight step starts, so a
raw-data access audit asserts that the weight step reads no agent's sample
matrix at all, the target's included.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import AgentDataset, audit_raw_access
from .embedding import POLY2, Embedding, embed, local_features
from .kernels import GAUSSIAN, KernelSpec, kernel_bound
from .models import FittedModel, ModelSpec, fedavg, fit_weighted
from .qagg import QaggConfig, SimplexWeights, learn_weights
from .rff import RffParams, sample_rff

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


def _charge_gamma(ledger: CommLedger, cfg: ProtocolConfig, mode, n_agents: int) -> None:
    if not isinstance(mode, RffParams):
        return
    payload = cfg.d_rff * (cfg.kernel.ambient_dim + 1)  # W rows plus phases
    for k in range(n_agents):
        ledger.log("sampling", "server", f"agent_{k}", "rff_coefficients", payload)


def _kme_payload(cfg: ProtocolConfig, mode, emb: Embedding) -> int:
    if isinstance(mode, RffParams):
        return cfg.d_rff
    p = emb.mean.shape[0]
    return p + p * (p + 1) // 2  # mean plus symmetric second moment


def _weight_cfg(cfg: ProtocolConfig, mode, datasets) -> QaggConfig:
    if isinstance(mode, RffParams):
        return cfg.qagg
    # poly2 bound is data-dependent: each agent contributes its local scalar
    return replace(cfg.qagg, m=kernel_bound(cfg.kernel, datasets))


def _learn(
    cfg: ProtocolConfig, datasets: list[AgentDataset], targets: list[int],
) -> tuple[list[SimplexWeights], CommLedger]:
    """Protocol steps 1-5 for the given targets: one weight row per target, in order."""
    B = len(datasets)
    if B < 1:
        raise ValueError("at least one agent is required")
    for t in targets:
        if not 0 <= t < B:
            raise ValueError(f"target {t} out of range for {B} agents")
        if datasets[t].n < 2:
            raise ValueError(f"agent {t} needs at least two samples to act as a target")

    ledger = CommLedger()
    mode = sample_rff(cfg.kernel, cfg.d_rff, cfg.seed) if cfg.kernel.kind == GAUSSIAN else POLY2
    _charge_gamma(ledger, cfg, mode, B)
    embeddings = [embed(ds, mode, scope=cfg.embedding_scope) for ds in datasets]
    for k, emb in enumerate(embeddings):
        if targets == [k]:
            continue  # the only target's embedding never leaves it
        ledger.log("kme_upload", f"agent_{k}", "server", "kme", _kme_payload(cfg, mode, emb))
        if not isinstance(mode, RffParams):
            ledger.log("kme_upload", f"agent_{k}", "server", "kernel_bound", 1)

    # a target's per-point features are its own local computation
    locals_ = {t: local_features(datasets[t], mode, scope=cfg.embedding_scope) for t in targets}
    qcfg = _weight_cfg(cfg, mode, datasets)
    with audit_raw_access() as log:
        rows = learn_weights(embeddings, locals_, qcfg)
    if log:
        raise RuntimeError("server-side weight computation read raw data of a target or non-target agent")
    return rows, ledger


def fit_model(
    cfg: ProtocolConfig, weights: SimplexWeights, datasets: list[AgentDataset], ledger: CommLedger,
) -> FittedModel:
    """Step 6: minimize the weighted risk in closed form, or by FedAvg with its rounds charged to ``ledger``."""
    if cfg.optimizer_path != FEDAVG:
        return fit_weighted(cfg.model, weights, datasets)
    model = fedavg(
        cfg.model, weights, datasets,
        rounds=cfg.fedavg_rounds, local_steps=cfg.fedavg_local_steps, lr=cfg.fedavg_lr,
    )
    param_dim = int(np.size(model.coefficients)) + int(np.size(model.intercept))
    participants = [k for k in range(len(weights)) if weights.w[k] > 0.0]
    for rnd in range(cfg.fedavg_rounds):
        for k in participants:
            ledger.log(f"fedavg_{rnd}", "server", f"agent_{k}", "model_round_trip", 2 * param_dim)
    return model


def run_protocol(cfg: ProtocolConfig, datasets: list[AgentDataset], target: int) -> ProtocolResult:
    """The six protocol steps for one target: the one-target slice of :func:`run_protocol_all`, then the fit."""
    (weights,), ledger = _learn(cfg, datasets, [target])
    return ProtocolResult(weights=weights, model=fit_model(cfg, weights, datasets, ledger), ledger=ledger)


def run_protocol_all(cfg: ProtocolConfig, datasets: list[AgentDataset]) -> tuple[list[SimplexWeights], CommLedger]:
    """Weight row for every agent as target; uploads charged once per agent, no model fitted."""
    return _learn(cfg, datasets, list(range(len(datasets))))


def baseline_weights(
    policy: str,
    datasets: list[AgentDataset],
    target: int,
    groups: list[int] | None = None,
) -> SimplexWeights:
    """Reference weight policies: local, sample-proportional, group oracle."""
    B = len(datasets)
    if not 0 <= target < B:
        raise ValueError(f"target {target} out of range for {B} agents")
    sizes = np.array([ds.n for ds in datasets], dtype=float)
    if policy == LOCAL:
        w = np.zeros(B)
        w[target] = 1.0
        return SimplexWeights(w)
    if policy == GRAND_MEAN:
        return SimplexWeights(sizes / sizes.sum())
    if policy == ORACLE:
        if groups is None:
            raise ValueError("oracle weights need a group assignment")
        if len(groups) != B:
            raise ValueError("one group id per agent is required")
        mask = np.array([g == groups[target] for g in groups], dtype=float)
        if mask.sum() == 0:
            raise ValueError("target group is empty")
        w = sizes * mask
        return SimplexWeights(w / w.sum())
    raise ValueError(f"unknown baseline policy {policy!r}")
