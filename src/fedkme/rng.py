"""Deterministic random streams derived from a single master seed.

Every source of randomness in the package is a named stream obtained from
``stream(master_seed, purpose, *indices)``.  The purpose tag is hashed with
SHA-256 and folded, together with the integer indices, into the spawn key of
a ``numpy.random.SeedSequence``.  Two streams with different tags or indices
are statistically independent, and the same triple always reproduces the
same generator bit-for-bit, regardless of call order or thread count.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.lru_cache
def _tag_words(purpose: str) -> tuple[int, ...]:
    """The four 32-bit words of the purpose tag's hash; a run uses a handful of tags, each hashed once."""
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def _spawn_key(purpose: str, indices: tuple[int, ...]) -> tuple[int, ...]:
    # four 32-bit words of the tag hash, then the caller's indices
    for idx in indices:
        if idx < 0:
            raise ValueError(f"stream index must be non-negative, got {idx}")
    return _tag_words(purpose) + tuple(int(i) for i in indices)


def seed_sequence(master_seed: int, purpose: str, *indices: int) -> np.random.SeedSequence:
    """SeedSequence for the stream named (purpose, indices) under master_seed."""
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=_spawn_key(purpose, indices))


def stream(master_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Generator for the stream named (purpose, indices) under master_seed."""
    return np.random.default_rng(seed_sequence(master_seed, purpose, *indices))


def derive_seed(master_seed: int, purpose: str, *indices: int) -> int:
    """Collapse a named stream into a fresh 64-bit master seed for a sub-run."""
    lo, hi = seed_sequence(master_seed, purpose, *indices).generate_state(2, np.uint32)
    return int(hi) << 32 | int(lo)
