"""Pins of the numpy behaviours that the package's bit-for-bit claims rest on.

Each test names one behaviour. If a numpy release changes it, the test that
fails names the primitive, instead of a golden digest failing with no reason
given.

* Plan execution (`evaluation._execute`) keeps the votes of each group's
  smallest `_rng.counter_words`. Those are SplitMix64 words computed with
  uint64 array `*`, `+`, `^` and `>>`, which wrap modulo 2^64 without a
  warning, and they are ranked with `np.lexsort`, which orders 64-bit words
  unsigned and keeps input order among equal keys.
* `scatter_rows` relies on `np.bincount` adding its weights, each label
  entry's multiplicity times its gathered value, in input order.
* `normalise` sums a short label or state axis with numpy's own sum, and
  `_log_space` adds one in order, one pass per entry; both equal the
  task-major references of `tests/test_kernel.py` bit for bit, because numpy
  adds 7 or fewer entries of a contiguous axis in order too (from 8 it sums
  pairwise).
* Exact information gain takes its label products with
  `np.einsum("yp,yj->pj")`, which on its non-negative sides adds the K
  products in order over labels, starting from the first; numpy's sums over
  a leading label, state or path axis add their entries in order too. The
  other sums, over a contiguous task or draw axis, are pairwise. Their
  bytes hold for a fixed numpy version and SIMD target, as README's
  Determinism section states.
* Every stream is a Philox4x64-10 keyed directly with two 64-bit words,
  which `_rng` derives with BLAKE2b (`tests/test_rng.py` checks that
  recipe). Here one key's first raw words are pinned as literals, so a numpy
  that changed Philox's output for a given key fails.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

CONTRACT = settings(max_examples=150, deadline=None, derandomize=True, database=None)

WORDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50)


@CONTRACT
@given(a=WORDS, data=st.data())
def test_uint64_array_arithmetic_wraps_silently(a, data):
    b = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(a), max_size=len(a)))
    shift = data.draw(st.integers(0, 63))
    x, y = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [x * y, x + y, x ^ y, x >> shift, x * 0x94D049BB133111EB]
    m = 2**64
    want = [[p * q % m for p, q in zip(a, b)], [(p + q) % m for p, q in zip(a, b)],
            [p ^ q for p, q in zip(a, b)], [p >> shift for p in a],
            [p * 0x94D049BB133111EB % m for p in a]]
    assert [g.dtype for g in got] == [np.uint64] * 5
    assert [g.tolist() for g in got] == want


@CONTRACT
@given(rows=st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1])),
    max_size=300,
))
def test_lexsort_orders_words_unsigned_and_keeps_input_order_among_equal_keys(rows):
    group = np.array([g for g, _ in rows], dtype=np.int64)
    words = np.array([w for _, w in rows], dtype=np.uint64)
    want = sorted(range(len(rows)), key=rows.__getitem__)  # Python's sort is stable
    assert np.lexsort((words, group)).tolist() == want


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


def _mixed(rng, shape, low=-1.0):
    """Values from 1e-8 to 1e8 in size, some exactly 0, from `low` times that up."""
    a = rng.uniform(low, 1, shape) * 10.0 ** rng.integers(-8, 9, shape)
    return np.where(rng.random(shape) < 0.1, 0.0, a)


@CONTRACT
@given(k=st.integers(2, 10), p=st.integers(1, 40), j=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_einsum_adds_label_products_in_order(k, p, j, seed):
    """On non-negative sides, as exact information gain's scaled sides are. A
    (1, 1) product is a dot product, which numpy adds in another order; a
    product of -0.0 is added to a start of +0.0."""
    assume(p * j > 1)
    rng = np.random.default_rng(seed)
    a, b = _mixed(rng, (k, p), low=0.0), _mixed(rng, (k, j), low=0.0)
    want = a[0][:, None] * b[0]
    for y in range(1, k):
        want = want + a[y][:, None] * b[y]
    assert np.array_equal(np.einsum("yp,yj->pj", a, b).view(np.int64), want.view(np.int64))


@CONTRACT
@given(k=st.integers(1, 10), shape=st.lists(st.integers(1, 40), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_leading_axis_sum_adds_in_order(k, shape, seed):
    a = _mixed(np.random.default_rng(seed), (k, *shape))
    want = a[0]
    for y in range(1, k):
        want = want + a[y]
    assert np.array_equal(a.sum(axis=0).view(np.int64), want.view(np.int64))


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


def test_philox_words_for_a_key_are_pinned():
    """The first raw words of Philox under the key of `substream(0, "exec", "t1")`."""
    bits = np.random.Philox(key=np.array([0x392277D9B7B616A7, 0x60D8DD83B61A3A3D], np.uint64))
    assert bits.random_raw(4).tolist() == [
        0x840755DF20FAD3DA, 0xF03A22940CABB5BD, 0x9FA8CD75CAE38C89, 0xD6492C6217D660FE
    ]
