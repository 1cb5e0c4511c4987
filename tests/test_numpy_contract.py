"""Pins of the numpy behaviours that the package's bit-for-bit claims rest on.

Each test names one behaviour. If a numpy release changes it, the test that
fails names the primitive, instead of a golden digest failing with no reason
given.

* Plan execution replays `Generator.choice(n, k, replace=False)` from raw
  Philox words (`evaluation._execute`): Floyd's algorithm on Lemire-bounded
  32-bit draws, each 64-bit word giving its low half first. The replay only
  follows numpy's Floyd branch, so a population above 10,000 keeps `choice`.
* `scatter_rows` relies on `np.bincount` adding its weights in input order,
  and `task_sum` on `np.cumsum` adding in order.
* `label_sum`, `logsumexp` and `label_products` add a short label axis in
  order, one pass per entry; they equal numpy's own sum over that axis, bit
  for bit, because numpy adds 7 or fewer entries of a contiguous axis in
  order too (from 8 it sums pairwise).
* Every stream is a Philox4x64-10 keyed through `SeedSequence` mixing, which
  `_rng.stream_keys` replays. `tests/test_rng.py` checks that replay against
  numpy; here one key and the stream's first words are pinned as literals, so
  a numpy that changed both the same way still fails.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crowdplan._rng import _fold
from crowdplan.evaluation import _draw_bounds, _floyd, _lemire_rejects

CONTRACT = settings(max_examples=150, deadline=None, derandomize=True, database=None)
KEYS = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)).map(
    lambda key: np.array(key, dtype=np.uint64)
)


def _draws(words: np.ndarray) -> np.ndarray:
    """The 32-bit draws of raw words, as `_execute` splits them."""
    return words.astype("<u8", copy=False).view("<u4").astype(np.int64)


def _replay(key, n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, bool]:
    """Picks of each group in turn from one stream, as one mask over the groups'
    concatenated populations, and whether any draw was rejected."""
    per = 2 * k - 1
    words = np.random.Philox(key=key).random_raw((int(per.sum()) + 1) // 2)
    draws = _draws(words)[: per.sum()]
    _, bound = _draw_bounds(n, k)
    out = np.zeros(int(n.sum()), dtype=bool)
    _floyd(draws, np.cumsum(per) - per, n, k, np.cumsum(n) - n, out)
    return out, bool(_lemire_rejects(draws, bound).any())


def _choices(key, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The same mask from `choice` calls in turn on one generator."""
    rng = np.random.Generator(np.random.Philox(key=key))
    masks = []
    for size, want in zip(n.tolist(), k.tolist()):
        mask = np.zeros(size, dtype=bool)
        mask[rng.choice(size, size=want, replace=False)] = True
        masks.append(mask)
    return np.concatenate(masks)


@st.composite
def groups(draw):
    n = draw(st.lists(st.integers(2, 64), min_size=1, max_size=5))
    k = [draw(st.integers(1, size - 1)) for size in n]
    return np.array(n, dtype=np.int64), np.array(k, dtype=np.int64)


@CONTRACT
@given(key=KEYS, sizes=groups())
def test_floyd_replay_equals_choice_without_replacement(key, sizes):
    n, k = sizes
    picks, rejected = _replay(key, n, k)
    assume(not rejected)  # numpy would take one more draw; `_execute` then calls choice
    assert np.array_equal(picks, _choices(key, n, k))


def test_lemire_bounding_skips_exactly_the_draws_the_replay_rejects():
    """A bounded draw is the first draw that `_lemire_rejects` lets through, scaled.

    At bound 2**31 about half of all draws are rejected, so both outcomes occur.
    """
    bound = np.array([2**31])
    outcomes = set()
    for seed in range(64):
        draws = _draws(np.random.Philox(key=(seed, 3)).random_raw(20))
        rejected = _lemire_rejects(draws, bound)
        taken = int(np.argmin(rejected))
        outcomes.add(taken > 0)
        rng = np.random.Generator(np.random.Philox(key=(seed, 3)))
        assert rng.integers(0, 2**31 + 1) == (draws[taken] * (2**31 + 1)) >> 32
    assert outcomes == {False, True}


@CONTRACT
@given(key=KEYS, words=st.integers(1, 40))
def test_random_raw_words_split_low_half_first(key, words):
    raw = np.random.Philox(key=key).random_raw(words)
    halves = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**32, size=2 * words, dtype=np.uint32
    )
    assert np.array_equal(halves[0::2], raw & 0xFFFFFFFF)
    assert np.array_equal(halves[1::2], raw >> 32)
    assert np.array_equal(_draws(raw), halves.astype(np.int64))


def test_choice_above_ten_thousand_leaves_floyd():
    """numpy shuffles a tail of all n instead once n > 10,000 and k > n // 50, so the
    replay would pick other votes there; `_execute` keeps `choice` above 10,000."""
    key = (5, 7)
    n, k = np.array([10_001]), np.array([500])
    picks, rejected = _replay(key, n, k)
    assert not rejected
    assert not np.array_equal(picks, _choices(key, n, k))
    picks, rejected = _replay(key, n - 1, k)
    assert not rejected
    assert np.array_equal(picks, _choices(key, n - 1, k))


def _in_order(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


# Magnitudes from 1e-8 to 1e8 make the order of additions show in the last bits.
MIXED = st.lists(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1, 1), st.integers(-8, 8)),
    min_size=1,
    max_size=300,
)


@CONTRACT
@given(weights=MIXED, data=st.data())
def test_bincount_adds_weights_in_input_order(weights, data):
    bins = data.draw(st.lists(st.integers(0, 4), min_size=len(weights), max_size=len(weights)))
    got = np.bincount(bins, weights=weights, minlength=5)
    want = [_in_order(w for b, w in zip(bins, weights) if b == j) for j in range(5)]
    assert got.tolist() == want


def test_bincount_order_shows_in_the_sum():
    assert np.bincount([0, 0, 0], weights=[1e16, 1.0, -1e16])[0] == 0.0
    assert np.bincount([0, 0, 0], weights=[1e16, -1e16, 1.0])[0] == 1.0


@CONTRACT
@given(values=MIXED, rows=st.integers(1, 3))
def test_cumsum_adds_in_order(values, rows):
    a = np.array([values] * rows)
    a[1:] *= 3.0
    got = np.cumsum(a, axis=-1)[:, -1]
    assert got.tolist() == [_in_order(row) for row in a.tolist()]


@CONTRACT
@given(values=st.lists(MIXED, min_size=1, max_size=5).flatmap(
    lambda rows: st.integers(1, 7).map(lambda n: [(row * n)[:n] for row in rows])))
def test_sum_over_seven_or_fewer_entries_adds_in_order(values):
    a = np.array(values)
    assert a.sum(axis=-1).tolist() == [_in_order(row) for row in a.tolist()]
    assert np.ascontiguousarray(a.T).sum(axis=0).tolist() == [_in_order(row) for row in a.tolist()]


def test_sum_order_shows_from_eight_entries():
    """1 plus seven halves of an ulp: in order each addition rounds back to 1,
    while numpy's pairwise sum of 8 entries first adds the halves together."""
    tiny = 2.0**-53
    assert np.array([1.0] + [tiny] * 6).sum() == 1.0
    assert np.array([1.0] + [tiny] * 7).sum() > 1.0


def test_seed_sequence_key_and_philox_words_are_pinned():
    """The key and first raw words of the stream that executes task t1 under seed 0."""
    entropy = [_fold(0), _fold("exec"), _fold("t1")]
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    assert key.tolist() == [0xB457251D40378260, 0x23F1581B5505E4EE]
    words = np.random.Philox(key=key).random_raw(4)
    assert words.tolist() == [
        0x7EDC3EC132D9B9A4, 0x82DD7FC0488223CF, 0x1AFDC5F26793E0B9, 0x609AD892CC0C1E1B
    ]
