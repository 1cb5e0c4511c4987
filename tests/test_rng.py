"""Stream keys and counter words: their recipes, literal values and batched forms.

The Philox key of `substream(seed, *key)` is the 16-byte BLAKE2b digest of
the 8-byte little-endian `_fold` of the seed and of each key part, read as two
little-endian 64-bit words; `derive_seed` is the same hash at 8 bytes.
`stream_keys` and `substreams` give many such streams at once, and must give
exactly the streams `substream` builds one at a time.

`counter_words` gives SplitMix64's outputs, word j of key k being its
finaliser of k + (j + 1) * GAMMA; plan execution keys it with `derive_seed(seed,
"exec")` XOR a task id's fold. Its pins are literal, it is checked against
the Python-int reference `_oracles.ref_mix`, and adjacent keys and counters
must give words with balanced, uncorrelated bits.
"""

import hashlib
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdplan._rng import (
    GAMMA,
    _fold,
    counter_words,
    derive_seed,
    stream_keys,
    substream,
    substreams,
)
from crowdplan.cli import main
from crowdplan.errors import InputError
from crowdplan.model import save_model

from _oracles import M64, random_model, ref_mix, ref_word

PARITY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]
near = st.sampled_from([0, 2**32, 2**64 - 1]).flatmap(lambda v: st.integers(v - 3, v + 3))
parts = st.one_of(near, st.integers(0, 2**64 - 1), st.text(max_size=3))
prefixes = st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=3)), max_size=3).map(tuple)


def key_of(seed, *key) -> list[int]:
    return substream(seed, *key).bit_generator.state["state"]["key"].tolist()


@PARITY
@given(st.one_of(near, st.text(max_size=3)), st.lists(parts, max_size=4))
def test_key_is_the_blake2b_digest_of_the_folded_parts(seed, key):
    def digest(size):
        data = b"".join(_fold(part).to_bytes(8, "little") for part in (seed, *key))
        return hashlib.blake2b(data, digest_size=size).digest()

    assert key_of(seed, *key) == np.frombuffer(digest(16), "<u8").tolist()
    assert derive_seed(seed, *key) == int.from_bytes(digest(8), "little")


def test_key_and_first_words_are_pinned():
    """The key and first raw words of the stream (0, "exec", "t1")."""
    assert key_of(0, "exec", "t1") == [0x392277D9B7B616A7, 0x60D8DD83B61A3A3D]
    assert substream(0, "exec", "t1").bit_generator.random_raw(4).tolist() == [
        0x840755DF20FAD3DA, 0xF03A22940CABB5BD, 0x9FA8CD75CAE38C89, 0xD6492C6217D660FE
    ]


@PARITY
@given(st.one_of(near, st.text(max_size=3)), prefixes, st.lists(parts, max_size=6))
def test_batched_streams_equal_substream_and_distinct_keys_differ(seed, prefix, drawn):
    every = drawn + EDGES + ["t1"]
    assert stream_keys(seed, prefix, every).tolist() == [key_of(seed, *prefix, p) for p in every]
    for part, rng in zip(every, substreams(seed, prefix, every), strict=True):
        ref = substream(seed, *prefix, part)
        assert rng.random(13).tolist() == ref.random(13).tolist()
        choice = rng.choice(5, size=3, replace=False)
        assert choice.tolist() == ref.choice(5, size=3, replace=False).tolist()
    # Key tuples that differ in one folded part or in length get distinct keys.
    tuples = {tuple(map(_fold, (seed, *prefix, part))) for part in every}
    tuples |= {tuple(map(_fold, (seed, *prefix[:n]))) for n in range(len(prefix) + 1)}
    assert len({tuple(key_of(*t)) for t in tuples}) == len(tuples)


def test_mix_and_an_execution_word_are_pinned():
    """SplitMix64 seeded with 0 gives these first three words (the reference
    `splitmix64.c` does too); and the word of task t1's third vote under seed 0."""
    first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert counter_words(np.zeros(3, np.uint64), np.arange(3)).tolist() == first
    assert [ref_mix(j * GAMMA & M64) for j in (1, 2, 3)] == first
    key = np.array([derive_seed(0, "exec") ^ _fold("t1")], dtype=np.uint64)
    assert counter_words(key, np.array([2])).tolist() == [ref_word(0, "t1", 2)]
    assert ref_word(0, "t1", 2) == 0x22330120429C018C


@PARITY
@given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1)),
                          st.integers(0, 2**40)), min_size=1, max_size=20))
def test_counter_words_equal_the_python_int_recipe(drawn):
    keys = np.array([k for k, _ in drawn], dtype=np.uint64)
    counters = np.array([j for _, j in drawn], dtype=np.int64)
    got = counter_words(keys, counters)
    assert got.dtype == np.uint64
    assert got.tolist() == [ref_mix((k + (j + 1) * GAMMA) & M64) for k, j in drawn]


@pytest.mark.parametrize("adjacent", ["keys", "counters"])
def test_adjacent_keys_and_counters_give_uncorrelated_words(adjacent):
    """10^4 words from keys h, h + 1, ... (counter 0) or from key h's counters
    0, 1, ...: every bit is set in half the words, as is every bit of the XOR of
    successive words, and successive words' uniforms do not correlate, each
    within 4 standard deviations."""
    n, start = 10_000, derive_seed(0, "exec")
    run = np.arange(n, dtype=np.uint64)
    if adjacent == "keys":
        words = counter_words(np.uint64(start) + run, np.zeros(n, np.int64))
    else:
        words = counter_words(np.full(n, start, np.uint64), run)
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    flips = ((words[1:] ^ words[:-1])[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    for share, m in ((bits.mean(axis=0), n), (flips.mean(axis=0), n - 1)):
        assert np.all(np.abs(share - 0.5) < 4 * 0.5 / np.sqrt(m)), share
    u = (words >> np.uint64(11)) * 2.0**-53
    assert abs(np.corrcoef(u[1:], u[:-1])[0, 1]) < 4 / np.sqrt(n - 1)


def test_no_parts_still_check_the_seed_and_prefix():
    assert stream_keys(1, ("gen",), []).shape == (0, 2)
    assert list(substreams(1, ("gen",), range(0))) == []
    for call in (
        lambda: stream_keys(1.5, ("gen",), []),
        lambda: substreams(1.5, ("gen",), range(0)),
        lambda: stream_keys(1, (1.5,), []),
        lambda: stream_keys(1.5, ("gen",), [0]),
    ):
        with pytest.raises(InputError, match="a seed must be an int or a str, got 1.5"):
            call()


EXAMPLE = str(files("crowdplan") / "data" / "example_model.json")


def test_cli_session_draws_no_seed_sequence(tmp_path, monkeypatch, capsys):
    """Every stream of a CLI session is keyed without numpy's `SeedSequence`."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.random.SeedSequence was called")

    d, seed = str(tmp_path), ("--seed", "3")
    save_model(random_model(np.random.default_rng(0), 3, per_worker=True), f"{d}/crowd.json")
    em = ("--max-iters", "5", "--restarts", "2", *seed)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    for argv in (
        ("simulate", "--model", f"{d}/crowd.json", "--plan", "2,2,2", "--tasks", "40",
         "--inject-p", "0.2", *seed, "--out", f"{d}/votes.csv"),
        ("learn", "--votes", f"{d}/votes.csv", *em, "--out", f"{d}/apm.json"),
        ("learn", "--votes", f"{d}/votes.csv", "--model-kind", "nbi", *em,
         "--out", f"{d}/nbi.json"),
        ("plan", "--model", EXAMPLE, "--budget", "9", "--ig", "sampled", "--samples", "300",
         *seed),
        ("plan", "--model", EXAMPLE, "--budget", "9", "--strategy", "rnd", *seed),
        ("sweep", "--votes", f"{d}/votes.csv", "--budgets", "4", "--folds", "2",
         "--costs", "1,2,3", "--strategies", "greedy,rnd", "--models", "apm,nbi",
         "--ig", "sampled", "--samples", "300", "--max-iters", "5", "--restarts", "1",
         *seed, "--out", f"{d}/sweep.csv"),
    ):
        assert main(list(argv)) == 0, (argv[0], capsys.readouterr().err)
