"""Synthetic multi-agent data generators and CSV dataset ingestion.

Concept shift: every agent shares the feature law X ~ N((1,...,1), I_d) but
owns its regression vector

    beta_k = I_k sqrt(1 - sigma_c^2) beta_0 + sigma_c eps_k,
    I_k ~ U{-1,+1},  beta_0, eps_k ~ N(0, I_d),
    Y = <beta_k, X> + N(0, sigma_Y^2),

so E||beta_k||^2 = d for every sigma_c and agents fall into the two groups
I_k = +-1.

Covariate shift: every agent shares the conditional law

    Y = sin(3 X_1) + 0.5 X_2^2 + 0.1 sum_{i>=3} X_i + N(0, 0.04)

while features come from three groups: N(mu_k, sigma_1^2 I) with
mu_k ~ N(0, v_1^2 I); N(mu_k, sigma_2^2 I) with mu_k ~ N(mu_0, v_2^2 I);
and U([-6, 6]^d).

All draws flow through named, per-agent seed streams, so regenerating any
agent (or its held-out test set) is deterministic and order-independent.
The test-set functions draw the sets of the agents they are asked for, and
agent k's set has the same bits whether it is drawn alone or among others.

Each agent's law also has a closed-form augmented second moment
M = E[z z'] with z = (x, 1, y), in the layout of
:meth:`AgentDataset.moments`, so a linear model's population risk needs no
held-out draw; the moments of several agents come as one stack.  Under
concept shift it follows from beta_k and sigma_Y^2.
Under covariate shift the coordinates of x are independent, and every
moment of y = sum_j h_j(x_j) + noise is a sum of one-coordinate moments:

    E sin 3x   = sin(3m) e^{-9s^2/2},
    E x sin 3x = (m sin 3m + 3s^2 cos 3m) e^{-9s^2/2},
    E sin^2 3x = (1 - cos(6m) e^{-18s^2}) / 2

for x ~ N(m, s^2), the Gaussian moments up to order 4, and the same
integrals over U[-6, 6] in closed form.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .data import AgentDataset

_CONCEPT_SHARED = "concept-shared"
_CONCEPT_TASK = "concept-task"
_CONCEPT_DRAW = "concept-draw"
_COVSHIFT_MEAN = "covshift-mean"
_COVSHIFT_DRAW = "covshift-draw"
_COVSHIFT_NOISE_SD = 0.2  # the shared conditional law's noise, variance 0.04
_UNIFORM_HALF_WIDTH = 6.0  # the third covariate group is U([-6, 6]^d)
TRAIN = 0  # draw-stream index for training sets
TEST = 1  # draw-stream index for held-out test sets


@dataclass(frozen=True)
class ConceptShiftSpec:
    """Concept-shift generator parameters."""

    sigma_c2: float
    b: int = 100
    n_k: int = 10
    d: int = 20
    sigma_y2: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma_c2 <= 1.0:
            raise ValueError("sigma_c2 must lie in [0, 1]")
        if self.b < 1 or self.n_k < 1 or self.d < 1:
            raise ValueError("b, n_k and d must be positive")
        if self.sigma_y2 <= 0:
            raise ValueError("sigma_y2 must be positive")


def _concept_beta(spec: ConceptShiftSpec, k: int, beta_0: np.ndarray) -> tuple[np.ndarray, int]:
    g = rng.stream(spec.seed, _CONCEPT_TASK, k)
    sign = 1 if g.integers(0, 2) == 1 else -1
    eps = g.normal(size=spec.d)
    beta = sign * np.sqrt(1.0 - spec.sigma_c2) * beta_0 + np.sqrt(spec.sigma_c2) * eps
    return beta, (0 if sign > 0 else 1)


def _concept_sample(spec: ConceptShiftSpec, k: int, beta: np.ndarray, n: int, split: int) -> AgentDataset:
    g = rng.stream(spec.seed, _CONCEPT_DRAW, k, split)
    X = g.normal(loc=1.0, size=(n, spec.d))
    y = X @ beta + np.sqrt(spec.sigma_y2) * g.normal(size=n)
    return AgentDataset(X, y)


def gen_concept_shift(spec: ConceptShiftSpec) -> tuple[list[AgentDataset], list[np.ndarray], list[int]]:
    """Training sets, true regression vectors, and group ids (0 / 1)."""
    beta_0 = rng.stream(spec.seed, _CONCEPT_SHARED).normal(size=spec.d)
    datasets, betas, groups = [], [], []
    for k in range(spec.b):
        beta, group = _concept_beta(spec, k, beta_0)
        datasets.append(_concept_sample(spec, k, beta, spec.n_k, TRAIN))
        betas.append(beta)
        groups.append(group)
    return datasets, betas, groups


def concept_shift_test_sets(
    spec: ConceptShiftSpec, betas: list[np.ndarray], n_test: int, agents: Sequence[int] | None = None,
) -> list[AgentDataset]:
    """Held-out sets of ``agents`` (default: every agent), in that order, from each agent's own law.

    ``betas`` are the ones ``gen_concept_shift(spec)`` returned.  Each set
    has its own stream, so agent k's set is the same bits whether it is
    drawn alone or among others.
    """
    ks = range(spec.b) if agents is None else agents
    return [_concept_sample(spec, k, betas[k], n_test, TEST) for k in ks]


def _augmented_moments(mean: np.ndarray, var: np.ndarray, xy: np.ndarray, y: np.ndarray, yy: np.ndarray) -> np.ndarray:
    """E[z z'] for z = (x, 1, y) of each of a stack of laws, one per row of the arguments.

    From E x and the variances of x's independent coordinates, E[x y] (each
    laws x d), E y and E y^2 (each of length laws).
    """
    laws, d = xy.shape
    M = np.empty((laws, d + 2, d + 2))
    head = np.concatenate([mean, np.ones((laws, 1))], axis=1)
    M[:, :-1, :-1] = head[:, :, None] * head[:, None, :]
    M[:, range(d), range(d)] += var
    M[:, :-1, -1] = M[:, -1, :-1] = np.concatenate([xy, y[:, None]], axis=1)
    M[:, -1, -1] = yy
    return M


def concept_shift_moments(
    spec: ConceptShiftSpec, betas: list[np.ndarray], agents: Sequence[int] | None = None,
) -> np.ndarray:
    """Population augmented second moments of ``agents`` (default: every agent), stacked in that order.

    Under x ~ N(1, I) and y = x'beta_k + N(0, sigma_Y^2): E[x y] = 1 (1'beta_k)
    + beta_k, and E y^2 = (1'beta_k)^2 + ||beta_k||^2 + sigma_Y^2.  The row
    sums and row dot products are the bits of each agent's own ``np.sum`` and
    ``beta_k @ beta_k``, so agent k's moment does not depend on ``agents``.
    """
    ks = range(spec.b) if agents is None else agents
    beta = np.array([betas[k] for k in ks], dtype=float).reshape(len(ks), spec.d)
    total = beta.sum(axis=1)
    ones = np.ones_like(beta)
    yy = total * total + (beta[:, None, :] @ beta[:, :, None])[:, 0, 0] + spec.sigma_y2
    return _augmented_moments(ones, ones, total[:, None] + beta, total, yy)


@dataclass(frozen=True)
class CovariateShiftSpec:
    """Covariate-shift generator parameters (three feature groups)."""

    b: int = 100
    n_k: int = 20
    d: int = 4
    k1: int = 30
    k2: int = 30
    v1_sq: float = 0.01
    v2_sq: float = 0.3
    sigma1_sq: float = 1.0  # not fixed by the generator's reference tables
    sigma2_sq: float = 1.0  # not fixed by the generator's reference tables
    mu0: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.b < 1 or self.n_k < 1:
            raise ValueError("b and n_k must be positive")
        if self.d < 2:
            raise ValueError("the response formula needs d >= 2")
        if self.k1 < 0 or self.k2 < 0 or self.k1 + self.k2 > self.b:
            raise ValueError("group sizes must be non-negative and fit within b")
        for name in ("v1_sq", "v2_sq", "sigma1_sq", "sigma2_sq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        mu0 = self.mu0 if self.mu0 is not None else (2.0,) * self.d
        mu0 = tuple(float(v) for v in mu0)
        if len(mu0) != self.d:
            raise ValueError("mu0 must have length d")
        object.__setattr__(self, "mu0", mu0)

    def group_of(self, k: int) -> int:
        if k < self.k1:
            return 0
        if k < self.k1 + self.k2:
            return 1
        return 2


def covariate_response(X: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Shared conditional law of Y given X (noise passed in for testability)."""
    return np.sin(3.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.1 * X[:, 2:].sum(axis=1) + noise


def _covariate_mean(spec: CovariateShiftSpec, k: int) -> np.ndarray | None:
    group = spec.group_of(k)
    if group == 2:
        return None
    g = rng.stream(spec.seed, _COVSHIFT_MEAN, k)
    if group == 0:
        return np.sqrt(spec.v1_sq) * g.normal(size=spec.d)
    return np.asarray(spec.mu0) + np.sqrt(spec.v2_sq) * g.normal(size=spec.d)


def _covariate_sample(spec: CovariateShiftSpec, k: int, n: int, split: int) -> AgentDataset:
    group = spec.group_of(k)
    g = rng.stream(spec.seed, _COVSHIFT_DRAW, k, split)
    if group == 2:
        X = g.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=(n, spec.d))
    else:
        mu_k = _covariate_mean(spec, k)
        scale = np.sqrt(spec.sigma1_sq if group == 0 else spec.sigma2_sq)
        X = mu_k + scale * g.normal(size=(n, spec.d))
    y = covariate_response(X, _COVSHIFT_NOISE_SD * g.normal(size=n))
    return AgentDataset(X, y)


def gen_covariate_shift(spec: CovariateShiftSpec) -> tuple[list[AgentDataset], list[int]]:
    """Training sets and group ids (0, 1, 2)."""
    datasets = [_covariate_sample(spec, k, spec.n_k, TRAIN) for k in range(spec.b)]
    return datasets, [spec.group_of(k) for k in range(spec.b)]


def covariate_shift_test_sets(
    spec: CovariateShiftSpec, n_test: int, agents: Sequence[int] | None = None,
) -> list[AgentDataset]:
    """Held-out sets of ``agents`` (default: every agent), in that order, from each agent's own feature law."""
    ks = range(spec.b) if agents is None else agents
    return [_covariate_sample(spec, k, n_test, TEST) for k in ks]


def _covariate_law(spec: CovariateShiftSpec, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """E x, Var x, E[x y], E y and E y^2 of agent k's law, the arguments of one row of :func:`_augmented_moments`."""
    d, group = spec.d, spec.group_of(k)
    # per coordinate: E x, Var x, E x^3 and E x^4; for x_1 also E sin 3x, E x sin 3x and E cos 6x
    if group == 2:
        a = _UNIFORM_HALF_WIDTH
        m, var = np.zeros(d), np.full(d, a * a / 3.0)
        m3, m4 = np.zeros(d), np.full(d, a**4 / 5.0)
        sin3, x_sin3 = 0.0, -math.cos(3.0 * a) / 3.0 + math.sin(3.0 * a) / (9.0 * a)
        cos6 = math.sin(6.0 * a) / (6.0 * a)
    else:
        m = _covariate_mean(spec, k)
        s2 = spec.sigma1_sq if group == 0 else spec.sigma2_sq
        var = np.full(d, s2)
        m3, m4 = m**3 + 3.0 * m * s2, m**4 + 6.0 * m**2 * s2 + 3.0 * s2 * s2
        damp = math.exp(-4.5 * s2)
        sin3 = math.sin(3.0 * m[0]) * damp
        x_sin3 = (m[0] * math.sin(3.0 * m[0]) + 3.0 * s2 * math.cos(3.0 * m[0])) * damp
        cos6 = math.cos(6.0 * m[0]) * math.exp(-18.0 * s2)
    m2 = m * m + var
    # y = sum_j h_j(x_j) + noise with h_1 = sin 3x, h_2 = x^2 / 2 and h_j = x / 10 beyond:
    # E h_j, E h_j^2 and E x_j h_j for each coordinate
    h = np.concatenate([[sin3, 0.5 * m2[1]], 0.1 * m[2:]])
    h_sq = np.concatenate([[(1.0 - cos6) / 2.0, 0.25 * m4[1]], 0.01 * m2[2:]])
    x_h = np.concatenate([[x_sin3, 0.5 * m3[1]], 0.1 * m2[2:]])
    y = float(h.sum())
    yy = y * y + float(np.sum(h_sq - h * h)) + _COVSHIFT_NOISE_SD**2
    return m, var, x_h + m * (y - h), y, yy


def covariate_shift_moments(spec: CovariateShiftSpec, agents: Sequence[int] | None = None) -> np.ndarray:
    """Population augmented second moments of ``agents`` (default: every agent), stacked in that order.

    A Gaussian agent's mean is drawn from the stream its training set uses, so
    each moment is that of the law the agent's samples come from.
    """
    ks = range(spec.b) if agents is None else agents
    laws = [_covariate_law(spec, k) for k in ks]
    if not laws:
        return np.empty((0, spec.d + 2, spec.d + 2))
    return _augmented_moments(*(np.array(part, dtype=float) for part in zip(*laws)))


def write_csv(datasets: list[AgentDataset], path) -> None:
    """Labeled datasets in the schema of :func:`load_csv_agents`: agent_id, x_1..x_d, y; one row per sample."""
    if not datasets:
        raise ValueError("nothing to write")
    d = datasets[0].dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["agent_id"] + [f"x_{j}" for j in range(1, d + 1)] + ["y"]
        writer.writerow(header)
        for agent_id, ds in enumerate(datasets):
            X = ds.X
            y = ds.y
            for i in range(ds.n):
                row = [str(agent_id)] + [f"{v:.17g}" for v in X[i]] + [f"{y[i]:.17g}"]
                writer.writerow(row)


def load_csv_agents(path) -> dict[str, AgentDataset]:
    """One dataset per distinct agent id, keyed by that id in first-appearance order.

    The file has an ``agent_id`` and a ``y`` column, and every other column
    is a feature.  Errors carry 1-based physical row numbers (the header is
    row 1).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        rows = list(reader)

    def col_index(name: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise ValueError(f"{path}: missing column {name!r}") from None

    agent_idx = col_index("agent_id")
    label_idx = col_index("y")
    feature_idx = [j for j in range(len(header)) if j not in (agent_idx, label_idx)]
    if not feature_idx:
        raise ValueError(f"{path}: no feature columns")

    by_agent: dict[str, tuple[list[list[float]], list[float]]] = {}
    for row_pos, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_pos} has {len(row)} cells, expected {len(header)}")
        agent = row[agent_idx]
        feats, labels = by_agent.setdefault(agent, ([], []))

        def parse(j: int) -> float:
            where = f"{path}: row {row_pos}, column {header[j]!r}"
            try:
                value = float(row[j])
            except ValueError:
                raise ValueError(f"{where}: non-numeric cell {row[j]!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: non-finite cell {row[j]!r}")
            return value

        feats.append([parse(j) for j in feature_idx])
        labels.append(parse(label_idx))

    if not by_agent:
        raise ValueError(f"{path}: no data rows")
    return {
        agent: AgentDataset(np.array(feats), np.array(labels))
        for agent, (feats, labels) in by_agent.items()
    }
