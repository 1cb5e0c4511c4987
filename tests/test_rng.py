"""Batched stream keys against numpy, the oracle.

`stream_keys` replays numpy's `SeedSequence` mixing for many parts at once,
and `substreams` hands out one shared generator set to each key in turn;
`substream_words` reads each one's first raw words. All must give exactly the
streams `substream` builds one at a time, so a numpy that changed its seeding
would fail here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdplan._rng import _fold, stream_keys, substream, substream_words, substreams
from crowdplan.errors import InputError

PARITY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]
near = st.sampled_from([0, 2**32, 2**64 - 1]).flatmap(lambda v: st.integers(v - 3, v + 3))
parts = st.one_of(near, st.integers(0, 2**64 - 1), st.text(max_size=3))


@PARITY
@given(
    st.one_of(near, st.text(max_size=3)),
    st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=3)), max_size=3),
    st.lists(parts, max_size=6),
)
def test_streams_match_numpy_seed_sequence(seed, prefix, drawn):
    prefix, every = tuple(prefix), drawn + EDGES + ["t1"]
    want = [
        np.random.SeedSequence([_fold(seed), *map(_fold, prefix), _fold(part)])
        .generate_state(2, np.uint64)
        .tolist()
        for part in every
    ]
    assert stream_keys(seed, prefix, every).tolist() == want
    for part, rng in zip(every, substreams(seed, prefix, every), strict=True):
        ref = substream(seed, *prefix, part)
        assert rng.random(13).tolist() == ref.random(13).tolist()
        choice = rng.choice(5, size=3, replace=False)
        assert choice.tolist() == ref.choice(5, size=3, replace=False).tolist()


@PARITY
@given(st.integers(0, 2**64 - 1), st.lists(st.tuples(parts, st.integers(0, 9)), max_size=6))
def test_words_are_each_streams_first_raw_words(seed, drawn):
    every, counts = [part for part, _ in drawn], [count for _, count in drawn]
    want = [substream(seed, "exec", part).bit_generator.random_raw(c) for part, c in drawn]
    got = substream_words(seed, ("exec",), every, counts)
    assert got.dtype == np.uint64
    assert got.tolist() == [w for words in want for w in words.tolist()]


def test_no_parts_still_check_the_seed_and_prefix():
    assert stream_keys(1, ("gen",), []).shape == (0, 2)
    assert list(substreams(1, ("gen",), range(0))) == []
    assert substream_words(1, ("gen",), [], []).tolist() == []
    for call in (
        lambda: stream_keys(1.5, ("gen",), []),
        lambda: substreams(1.5, ("gen",), range(0)),
        lambda: substream_words(1.5, ("gen",), [], []),
        lambda: stream_keys(1, (1.5,), []),
        lambda: stream_keys(1.5, ("gen",), [0]),
    ):
        with pytest.raises(InputError, match="a seed must be an int or a str, got 1.5"):
            call()
