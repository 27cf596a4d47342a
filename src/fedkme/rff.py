"""Random Fourier features: shared coefficient sampling and the cosine map.

For a translation-invariant kernel with spectral law p, the feature map

    phi(z) = sqrt(2/D) * (cos(<w_s, z> + b_s))_{s=1..D},
    w_s ~ p,  b_s ~ U[0, 2pi),

satisfies E <phi(z), phi(z')> = kappa(z, z'), and ||phi(z)|| <= sqrt(2).
The coefficient set Gamma = (W, b) is sampled once by the server from a
single seed and shared with every agent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .kernels import KernelSpec, spectral_distribution

_RFF_STREAM = "rff-coefficients"


@dataclass(frozen=True)
class RffParams:
    """Shared random Fourier coefficients Gamma = (w_s, b_s)_{s=1..D}."""

    W: np.ndarray  # (D, d) frequency rows
    b: np.ndarray  # (D,) phases in [0, 2pi)
    D: int
    kernel: KernelSpec
    seed: int

    def __post_init__(self):
        if self.W.shape != (self.D, self.kernel.ambient_dim):
            raise ValueError(f"W shape {self.W.shape} != (D, d) = ({self.D}, {self.kernel.ambient_dim})")
        if self.b.shape != (self.D,):
            raise ValueError(f"b shape {self.b.shape} != ({self.D},)")
        if np.any(self.b < 0.0) or np.any(self.b >= 2.0 * np.pi):
            raise ValueError("phases must lie in [0, 2pi)")
        self.W.setflags(write=False)
        self.b.setflags(write=False)


def sample_rff(kernel: KernelSpec, D: int, seed: int) -> RffParams:
    """Sample Gamma; a pure function of (kernel, D, seed)."""
    if D < 1:
        raise ValueError("D must be at least 1")
    spectral = spectral_distribution(kernel)  # rejects non-translation-invariant kernels
    g = rng.stream(seed, _RFF_STREAM)
    W = spectral.sample(g, D)
    b = 2.0 * np.pi * g.random(D)  # u in [0, 1) keeps b in [0, 2pi)
    return RffParams(W=W, b=b, D=int(D), kernel=kernel, seed=int(seed))


def featurize(params: RffParams, z) -> np.ndarray:
    """Map one point to its D-dimensional cosine feature vector."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != params.kernel.ambient_dim:
        raise ValueError(f"point of dim {z.shape[0]} passed to RFF map of dim {params.kernel.ambient_dim}")
    # single code path with featurize_matrix so the two agree bit-for-bit
    return featurize_matrix(params, z[np.newaxis, :])[0]


def featurize_matrix(params: RffParams, Z: np.ndarray) -> np.ndarray:
    """Row-wise feature map: (n, d) points to (n, D) features."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != params.kernel.ambient_dim:
        raise ValueError(f"expected (n, {params.kernel.ambient_dim}) points, got shape {Z.shape}")
    return np.sqrt(2.0 / params.D) * np.cos(Z @ params.W.T + params.b)
