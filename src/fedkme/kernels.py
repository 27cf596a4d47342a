"""Kernel specifications, bounds, and spectral laws.

Two kernel families are supported:

* weighted Gaussian with a diagonal bandwidth matrix A (entries a_j > 0):
  ``kappa(z, z') = exp(-sum_j a_j (z_j - z'_j)^2)``, bounded by 1;
* second-degree polynomial ``kappa(z, z') = (<z, z'> + 1)^2``, unbounded on
  R^d, so its bound M is taken as a maximum over observed data points.

For the Gaussian family, Bochner's theorem identifies the spectral law: if
``w ~ N(0, S)`` then ``E cos(<w, delta>) = exp(-delta' S delta / 2)``, so the
kernel above corresponds to ``w ~ N(0, 2A)``.  The isotropic kernel
``exp(-||z - z'||^2 / 2)`` is the special case ``A = I/2`` with spectral law
``N(0, I)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import AgentDataset

GAUSSIAN = "gaussian"
POLY2 = "poly2"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel identity: family, ambient dimension, and Gaussian bandwidth diagonal."""

    kind: str
    ambient_dim: int
    bandwidth: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, POLY2):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        if self.kind == GAUSSIAN:
            if self.bandwidth is None:
                raise ValueError("gaussian kernel requires a bandwidth diagonal")
            bw = tuple(float(a) for a in self.bandwidth)
            if len(bw) != self.ambient_dim:
                raise ValueError(
                    f"bandwidth length {len(bw)} != ambient_dim {self.ambient_dim}"
                )
            if any(a <= 0 for a in bw):
                raise ValueError("gaussian bandwidth entries must be strictly positive")
            object.__setattr__(self, "bandwidth", bw)
        elif self.bandwidth is not None:
            raise ValueError("poly2 kernel takes no bandwidth")


def gaussian_kernel(bandwidth: Sequence[float]) -> KernelSpec:
    """Weighted Gaussian kernel exp(-sum_j a_j (z_j - z'_j)^2)."""
    bw = tuple(float(a) for a in bandwidth)
    return KernelSpec(kind=GAUSSIAN, ambient_dim=len(bw), bandwidth=bw)


def isotropic_gaussian_kernel(dim: int) -> KernelSpec:
    """Isotropic kernel exp(-||z - z'||^2 / 2); spectral law N(0, I_dim)."""
    return gaussian_kernel((0.5,) * dim)


def concept_shift_kernel(n_features: int) -> KernelSpec:
    """Weighted Gaussian on (x, y) tuples that soft-pedals the features.

    A = diag(1/(2(d+1)), ..., 1/(2(d+1)), 1/2) for d = n_features, i.e.
    exp(-||x - x'||^2 / (2(d+1)) - (y - y')^2 / 2), whose spectral law is
    N(0, diag(I_d/(d+1), 1)).
    """
    d = int(n_features)
    if d < 1:
        raise ValueError("n_features must be positive")
    return gaussian_kernel((1.0 / (2.0 * (d + 1)),) * d + (0.5,))


def poly2_kernel(ambient_dim: int) -> KernelSpec:
    """Second-degree polynomial kernel (<z, z'> + 1)^2."""
    return KernelSpec(kind=POLY2, ambient_dim=int(ambient_dim))


def kernel_bound(spec: KernelSpec, datasets: Sequence[AgentDataset]) -> float:
    """Bound M with sup sqrt(kappa(z, z)) <= M over the relevant points.

    Gaussian kernels are globally bounded by 1.  Poly2 is unbounded, so M is
    the maximum of sqrt(kappa(z, z)) = ||z||^2 + 1 over the datasets' points:
    their (x, y) tuples if the kernel's dimension counts the label, else x.
    """
    if spec.kind == GAUSSIAN:
        return 1.0
    if not datasets:
        raise ValueError("poly2 kernel bound requires at least one dataset")
    best = 0.0
    for ds in datasets:
        Z = ds.z("full") if ds.dim + 1 == spec.ambient_dim else ds.z("features")
        if Z.shape[1] != spec.ambient_dim:
            raise ValueError("dataset dimension does not match kernel ambient_dim")
        best = max(best, float(np.max(np.sum(Z * Z, axis=1) + 1.0)))
    return best


@dataclass(frozen=True)
class GaussianSpectral:
    """Zero-mean Gaussian spectral law with diagonal covariance."""

    cov_diag: tuple[float, ...]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        scale = np.sqrt(np.asarray(self.cov_diag, dtype=float))
        return rng.normal(0.0, 1.0, size=(size, len(self.cov_diag))) * scale


def spectral_distribution(spec: KernelSpec) -> GaussianSpectral:
    """Spectral law of a translation-invariant kernel: N(0, 2A) for bandwidth A."""
    if spec.kind != GAUSSIAN:
        raise ValueError(f"kernel kind {spec.kind!r} is not translation invariant")
    return GaussianSpectral(cov_diag=tuple(2.0 * a for a in spec.bandwidth))
