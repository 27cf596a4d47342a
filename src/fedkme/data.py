"""Per-agent datasets and the raw-data access audit used by the simulator.

An :class:`AgentDataset` holds one agent's labeled sample: features ``X``
(n rows, d columns) and the label/target column ``y``, since every agent's
risk is a supervised loss.  The full sample tuple ``Z`` is ``[X, y]``.  A
dataset also offers its augmented second moment ``[X, 1, y]' [X, 1, y] / n``,
formed on first request and cached, which is all a squared-loss fit needs
of it.

Reads of the raw arrays are observable through a module-level audit hook;
the federated simulator uses it to assert that computing one agent's
collaboration weights never touches another agent's raw data.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

# active audit logs, per thread so concurrent repetitions stay independent
_AUDIT_STATE = threading.local()


def _active_logs() -> list[list["AgentDataset"]]:
    logs = getattr(_AUDIT_STATE, "logs", None)
    if logs is None:
        logs = []
        _AUDIT_STATE.logs = logs
    return logs


@contextmanager
def audit_raw_access() -> Iterator[list["AgentDataset"]]:
    """Record which datasets have their raw arrays read inside the block.

    The log only sees reads made by the current thread; a window opened in
    one worker never observes another worker's accesses.
    """
    log: list[AgentDataset] = []
    logs = _active_logs()
    logs.append(log)
    try:
        yield log
    finally:
        logs.remove(log)


class AgentDataset:
    """One agent's local sample: features and labels."""

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d (n, d), got shape {X.shape}")
        if X.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"y length {y.shape[0]} != n rows {X.shape[0]}")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        self._X = X
        self._y = y
        self._moments: np.ndarray | None = None

    def _record(self) -> None:
        for log in _active_logs():
            log.append(self)

    @property
    def X(self) -> np.ndarray:
        self._record()
        return self._X

    @property
    def y(self) -> np.ndarray:
        self._record()
        return self._y

    def moments(self) -> np.ndarray:
        """Augmented second moment M = Z'Z / n with Z = [X, 1, y], shape (d+2, d+2).

        Read once through the audited ``X``/``y`` and cached on the instance;
        datasets are built per job, so the cache never outlives one job.
        """
        if self._moments is None:
            Z = np.column_stack([self.X, np.ones(self.n), self.y])
            self._moments = Z.T @ Z / self.n
            self._moments.setflags(write=False)  # shared by every later fit
        return self._moments

    @property
    def n(self) -> int:
        return self._X.shape[0]

    @property
    def dim(self) -> int:
        """Feature dimension d (labels excluded)."""
        return self._X.shape[1]

    def z(self, scope: str = "full") -> np.ndarray:
        """Sample matrix for the given scope: "full" tuples or "features" only."""
        if scope == "features":
            return self.X
        if scope == "full":
            return np.column_stack([self.X, self.y])
        raise ValueError(f"unknown scope {scope!r}, expected 'full' or 'features'")

    def __repr__(self) -> str:
        return f"AgentDataset(n={self.n}, d={self.dim})"
