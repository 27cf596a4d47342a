"""Correctness checks on the three files one ``fedkme run`` sample writes.

A sample fails, and is counted as failed rather than as fast, when the run
exits non-zero, when ``results.csv`` holds a non-finite value or the wrong
number of rows, when a ``weights.csv`` row is off the simplex, or when the
``comm.csv`` total differs from the closed-form payload.  Byte identity
across the samples of a run is checked by the caller from ``digests``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

OUTPUT_FILES = ("results.csv", "weights.csv", "comm.csv")
STATUS_METHOD = "status"
_SIMPLEX_TOL = 1e-9


@dataclass
class SampleCheck:
    errors: list[str] = field(default_factory=list)
    error_rows: int = 0  # repetitions recorded as ``status,error``
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors and self.error_rows == 0


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}


def read_results(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_weights(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row[1:]] for row in rows[1:]]


def comm_totals(path: Path) -> dict[str, int]:
    """Scalars per payload kind in a ``comm.csv``."""
    totals: dict[str, int] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            kind = row["payload_kind"]
            totals[kind] = totals.get(kind, 0) + int(row["scalar_count"])
    return totals


def expected_comm(cfg, weights: list[list[float]]) -> int:
    """Closed-form ledger total of one repetition.

    RFF: every agent receives D x (ambient + 1) coefficients and uploads a
    D-vector.  poly2: every agent uploads its mean and symmetric second
    moment (p + p(p+1)/2) plus one kernel-bound scalar.  FedAvg adds, per
    target, rounds x participants x 2 x param_dim for the model round trips.
    """
    B = cfg.agents
    ambient = cfg.dim if cfg.scope == "features" else cfg.dim + 1
    if cfg.kernel_kind == "poly2":
        total = B * (ambient + ambient * (ambient + 1) // 2) + B
    else:
        total = B * cfg.d_rff * (ambient + 1) + B * cfg.d_rff
    if cfg.optimizer == "fedavg":
        param_dim = cfg.dim + 1  # linear model with intercept
        participants = sum(sum(1 for v in row if v > 0.0) for row in weights)
        total += cfg.fedavg_rounds * participants * 2 * param_dim
    return total


def check_sample(cfg, exit_code: int, out_dir: Path) -> SampleCheck:
    """Run every per-sample check; ``cfg`` is the parsed ``ExperimentConfig``."""
    check = SampleCheck()
    if exit_code != 0:
        check.errors.append(f"exit code {exit_code}")
        return check
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        check.errors.append(f"missing outputs {missing}")
        return check
    check.digests = digests(out_dir)

    rows = read_results(out_dir / "results.csv")
    check.error_rows = sum(1 for r in rows if r["method"] == STATUS_METHOD)
    values = [r["mse_or_accuracy"] for r in rows if r["method"] != STATUS_METHOD]
    if not all(_finite(v) for v in values):
        check.errors.append("results.csv holds a non-finite value")
    expected_rows = cfg.repetitions * cfg.agents * (1 + len(cfg.baselines))
    if check.error_rows == 0 and len(values) != expected_rows:
        check.errors.append(f"results.csv has {len(values)} rows, expected {expected_rows}")

    weights = read_weights(out_dir / "weights.csv")
    if len(weights) != cfg.agents or any(len(row) != cfg.agents for row in weights):
        check.errors.append(f"weights.csv is not {cfg.agents} x {cfg.agents}")
    for t, row in enumerate(weights):
        if min(row, default=0.0) < 0.0 or abs(math.fsum(row) - 1.0) > _SIMPLEX_TOL:
            check.errors.append(f"weights.csv row {t} is off the simplex")
            break

    total = sum(comm_totals(out_dir / "comm.csv").values())
    expected = expected_comm(cfg, weights)
    if total != expected:
        check.errors.append(f"comm.csv totals {total} scalars, closed form gives {expected}")
    return check
