"""Deterministic random-stream derivation.

All randomness in the package flows through substreams keyed by a user seed
plus a structural path (task index, block index, restart index, ...). Streams
are backed by Philox, a counter-based generator, so any unit of work can be
computed in isolation, in any order, and still produce the same draws.

String key parts are folded to fixed 64-bit integers with BLAKE2s so that ids
coming from data files key streams stably across runs and platforms.
`substreams` gives one stream per task from one shared generator, with keys
derived in one array pass that replays numpy's `SeedSequence`, the oracle;
`substream_words` takes the first raw Philox words of each such stream.
"""

from __future__ import annotations

import functools
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


def substream(seed: int, *key: KeyPart) -> np.random.Generator:
    """Return an independent generator for (seed, *key).

    The same arguments always yield the same stream; distinct key tuples yield
    streams that are independent for practical purposes.
    """
    entropy = [_fold(seed)] + [_fold(part) for part in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# numpy's SeedSequence constants: hash multipliers for mixing (A) and output (B).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), 0xFFFFFFFF


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """Column of init * mult**i mod 2**32, i < n; hashmix i xors row i, multiplies by row i + 1."""
    return np.array([init * pow(mult, i, 2**32) & _MASK32 for i in range(n)], np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray, into: np.ndarray | None = None):
    """SeedSequence's hashmix of `value`, then its mix into the pool words `into` if given."""
    value = (value ^ consts[:-1]) * consts[1:]
    value ^= value >> 16
    if into is None:
        return value
    into = _MIX_L * into - _MIX_R * value
    return into ^ into >> 16


def stream_keys(seed: KeyPart, prefix: tuple, parts: Iterable) -> np.ndarray:
    """The Philox key of `substream(seed, *prefix, part)` for each part, shape (n, 2).

    Like numpy's `SeedSequence`, it splits each folded int into little-endian
    32-bit words (0 as one word), hash-mixes them into a pool of 4 words and
    makes each key word from two output words, but on uint32 arrays with one
    column per part. The seed and prefix are folded, and so checked, even for
    empty `parts`.
    """
    folded = np.array([_fold(part) for part in parts], dtype=np.uint64)
    folds = map(_fold, (seed, *prefix))
    head = [[w] for f in folds for w in (f & _MASK32, f >> 32)[: 1 + (f >> 32 > 0)]]
    # A one-word part's high word is 0, like padding; past the pool only two-word parts mix it in.
    entropy = np.zeros((max(len(head) + 2, 4), len(folded)), dtype=np.uint32)
    entropy[: len(head)] = head
    entropy[len(head) : len(head) + 2] = folded & _MASK32, folded >> 32
    h = _hash_consts(_INIT_A, _MULT_A, 1 + 4 * len(entropy))
    pool = _hashmix(entropy[:4], h[:5])
    for src in range(4):  # a source word is unchanged while it mixes into the other three
        dst = [d for d in range(4) if d != src]
        pool[dst] = _hashmix(pool[src], h[4 + 3 * src : 8 + 3 * src], pool[dst])
    for src in range(4, len(entropy)):
        mixed = _hashmix(entropy[src], h[4 * src : 4 * src + 5], pool)
        pool = mixed if src <= len(head) else np.where(folded > _MASK32, mixed, pool)
    out = _hashmix(pool, _hash_consts(_INIT_B, _MULT_B, 5))
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8")


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


def substream_words(
    seed: KeyPart, prefix: tuple, parts: Iterable, counts: Iterable[int]
) -> np.ndarray:
    """The first counts[i] raw 64-bit Philox words of `substream(seed, *prefix, part)`
    for each part i, concatenated, from one `random_raw` call per part."""
    streams = substreams(seed, prefix, parts)
    words = [rng.bit_generator.random_raw(c) for rng, c in zip(streams, counts)]
    return np.concatenate(words) if words else np.zeros(0, dtype=np.uint64)


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
