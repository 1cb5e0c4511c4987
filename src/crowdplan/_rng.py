"""Deterministic random-stream derivation.

All randomness in the package flows through substreams or counter words
keyed by a user seed plus a structural path (task index or id, block index,
restart index, ...). Both are counter-based, so any unit of work can be
computed in isolation, in any order, and still produce the same draws.

String key parts are folded to fixed 64-bit integers with BLAKE2s so that ids
coming from data files key streams stably across runs and platforms. Philox
is keyed directly, as counter-based generators are meant to be (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011): the key of
`substream(seed, *key)` is the 16-byte BLAKE2b digest (RFC 7693) of the seed
and each key part, folded and written as 8 little-endian bytes, read as two
little-endian 64-bit words. `derive_seed` reads the same hash at 8 bytes,
which BLAKE2's parameter block makes unrelated to the 16-byte digest.
`substreams` gives one stream per task from one shared generator.

Plan execution opens no stream: its words are SplitMix64's (Steele, Lea &
Flood, OOPSLA 2014), `counter_words`, wrapping uint64 array ops that give a
whole table's words in one pass, the same on every numpy SIMD target.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Iterable, Iterator

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


def _hashed(h, parts: Iterable[KeyPart]):
    """BLAKE2b state `h` updated with each part's `_fold` as 8 little-endian bytes."""
    for part in parts:
        h.update(_fold(part).to_bytes(8, "little"))
    return h


def substream(seed: KeyPart, *key: KeyPart) -> np.random.Generator:
    """Return an independent generator for (seed, *key).

    The same arguments always yield the same stream; distinct key tuples yield
    streams that are independent for practical purposes.
    """
    digest = _hashed(hashlib.blake2b(digest_size=16), (seed, *key)).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest, "<u8")))


def stream_keys(seed: KeyPart, prefix: tuple, parts: Iterable) -> np.ndarray:
    """The Philox key of `substream(seed, *prefix, part)` for each part, shape (n, 2),
    from one copy per part of the hash of the seed and prefix. The seed and
    prefix are folded, and so checked, even for empty `parts`."""
    head, digests = _hashed(hashlib.blake2b(digest_size=16), (seed, *prefix)), []
    for part in parts:
        h = head.copy()
        h.update(_fold(part).to_bytes(8, "little"))
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), "<u8").reshape(-1, 2)


def substreams(seed: KeyPart, prefix: tuple, parts: Iterable) -> Iterator[np.random.Generator]:
    """The stream `substream(seed, *prefix, part)` of each part in turn: one shared
    generator reset to the part's key from `stream_keys`, counter 0 and an empty
    buffer, so each is valid only until the next one is taken. The keys are
    derived, and the seed checked, by the call itself."""
    keys = stream_keys(seed, prefix, parts).tolist()
    bits = np.random.Philox(0)
    rng, state = np.random.Generator(bits), bits.state  # counter 0, nothing buffered

    def reset(key: list[int]) -> np.random.Generator:
        state["state"]["key"] = key
        bits.state = state
        return rng

    return map(reset, keys)


GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2^64 over the golden ratio, made odd


def counter_words(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Word counters[i] (from 0) of SplitMix64 seeded with keys[i]: its finaliser of
    keys[i] + (counters[i] + 1) * GAMMA, modulo 2^64. `keys` is a uint64 array,
    `counters` one of non-negative integers."""
    x = keys + (counters.astype(np.uint64) + 1) * GAMMA
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def derive_seed(seed: KeyPart, *key: KeyPart) -> int:
    """Fold (seed, *key) into a single integer usable as another base seed."""
    digest = _hashed(hashlib.blake2b(digest_size=8), (seed, *key)).digest()
    return int.from_bytes(digest, "little")


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
