"""Deterministic random-stream derivation.

All randomness in the package flows through substreams keyed by a user seed
plus a structural path (task index, block index, restart index, ...). Streams
are backed by Philox, a counter-based generator, so any unit of work can be
computed in isolation, in any order, and still produce the same draws.

String key parts are folded to fixed 64-bit integers with BLAKE2s so that ids
coming from data files key streams stably across runs and platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

KeyPart = int | str


def _fold(part: KeyPart) -> int:
    if isinstance(part, int):
        return part & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(seed: int, *key: KeyPart) -> np.random.Generator:
    """Return an independent generator for (seed, *key).

    The same arguments always yield the same stream; distinct key tuples yield
    streams that are independent for practical purposes.
    """
    entropy = [_fold(seed)] + [_fold(part) for part in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *key: KeyPart) -> int:
    """Fold (seed, *key) into a single integer usable as another base seed."""
    h = hashlib.blake2s(digest_size=8)
    for part in (seed,) + key:
        h.update(_fold(part).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn from one categorical distribution by each uniform in u."""
    edges = np.cumsum(probs)
    return np.minimum(np.searchsorted(edges, u * edges[-1], side="right"), len(probs) - 1)


def categorical_rows(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn by uniform u[..., j] from row j of cumulative weights `edges` (n, K)."""
    u = u * edges[:, -1]
    return np.minimum((edges < u[..., None]).sum(axis=-1), edges.shape[1] - 1)
