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
import operator

import numpy as np

from .errors import InputError

KeyPart = int | str


def _fold(part: KeyPart) -> int:
    """A seed or key part as 64 bits; anything but an int or a str is an InputError."""
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    try:
        return operator.index(part) & 0xFFFFFFFFFFFFFFFF
    except TypeError:
        raise InputError(f"a seed must be an int or a str, got {part!r}") from None


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


def categorical_rows(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn by each uniform in u from its row of cumulative weights `edges` (..., K).

    u broadcasts against `edges[..., 0]`. The draw is the number of edges at
    or below u times the row total, capped at K - 1: the inverse CDF, which
    skips a leading category of zero weight even at u = 0. The edges are
    compared one category at a time, which for small K is much faster than a
    sum over a length-K last axis.
    """
    u = u * edges[..., -1]
    below = 0
    for k in range(edges.shape[-1]):
        below = below + (edges[..., k] <= u)
    return np.minimum(below, edges.shape[-1] - 1)
