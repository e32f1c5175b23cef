import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlm.corpus import (
    BOS_ID,
    EOS_ID,
    NUM_SPECIALS,
    UNK_ID,
    build_vocab,
    is_trainable,
    load_corpus,
    load_vocab,
    partition_clients,
    save_corpus,
    save_vocab,
    split,
    synthesize_corpus,
    tokenize,
)

from conftest import make_sentences


# --- vocabulary -------------------------------------------------------------

def test_specials_are_fixed_ids():
    vocab = build_vocab(["a b"], 10)
    assert (BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2)
    assert vocab.words[:3] == ("<s>", "</s>", "<unk>")


def test_build_vocab_capacity_exceeds_uniques():
    vocab = build_vocab(["a b", "a"], 6)
    assert vocab.V == 5  # 3 specials + {a, b}
    assert vocab.id_of("a") == 3  # "a" (count 2) ranks before "b"
    assert vocab.id_of("b") == 4


def test_build_vocab_keeps_most_frequent():
    vocab = build_vocab(["a b", "a c", "a b"], 4)
    assert vocab.V == 4
    assert vocab.id_of("a") == 3
    assert vocab.id_of("b") == UNK_ID  # evicted: capacity 4 leaves room for one word
    assert vocab.id_of("c") == UNK_ID


def test_build_vocab_tie_break_lexicographic():
    vocab = build_vocab(["z q z q m"], 5)
    # counts: z=2, q=2, m=1; capacity for two words; tie z/q broken by string order
    assert vocab.id_of("q") == 3
    assert vocab.id_of("z") == 4
    assert vocab.id_of("m") == UNK_ID


def test_build_vocab_lowercases():
    vocab = build_vocab(["Apple APPLE apple"], 5)
    assert vocab.id_of("apple") == 3
    assert tokenize("ApPlE", vocab) == [BOS_ID, 3, EOS_ID]


def test_build_vocab_errors():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([], 10)
    with pytest.raises(ValueError):
        build_vocab(["a"], 3)


# --- tokenize ---------------------------------------------------------------

def test_tokenize_basic():
    vocab = build_vocab(["a b"], 6)
    assert tokenize("a b", vocab) == [BOS_ID, vocab.id_of("a"), vocab.id_of("b"), EOS_ID]


def test_tokenize_oov_and_empty():
    vocab = build_vocab(["a b"], 6)
    assert tokenize("a zzz", vocab) == [BOS_ID, vocab.id_of("a"), UNK_ID, EOS_ID]
    assert tokenize("", vocab) == [BOS_ID, EOS_ID]


@given(st.lists(st.text(alphabet="abcdxyz ", min_size=0, max_size=20), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_tokenize_ids_always_in_range(sentences):
    vocab = build_vocab(sentences, 8)
    for s in sentences:
        ids = tokenize(s, vocab)
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        assert all(0 <= i < vocab.V for i in ids)
        assert BOS_ID not in ids[1:]


def test_is_trainable():
    assert is_trainable([BOS_ID, 5, EOS_ID])
    assert not is_trainable([5, EOS_ID])
    assert not is_trainable([BOS_ID])


# --- split ------------------------------------------------------------------

def test_split_sizes():
    corpus = list(range(100))
    got = split(corpus, (0.8, 0.1, 0.1), seed=4)
    assert (len(got.train), len(got.test), len(got.eval)) == (80, 10, 10)


def test_split_all_train():
    corpus = list(range(17))
    got = split(corpus, (1.0, 0.0, 0.0), seed=4)
    assert len(got.train) == 17 and not got.test and not got.eval


def test_split_is_disjoint_partition():
    corpus = list(range(53))
    got = split(corpus, (0.5, 0.25, 0.25), seed=9)
    combined = got.train + got.test + got.eval
    assert sorted(combined) == corpus
    assert abs(len(got.train) - 26.5) <= 1
    assert abs(len(got.test) - 13.25) <= 1


def test_split_deterministic():
    corpus = list(range(40))
    a = split(corpus, (0.6, 0.2, 0.2), seed=7)
    b = split(corpus, (0.6, 0.2, 0.2), seed=7)
    assert a.train == b.train and a.test == b.test and a.eval == b.eval
    c = split(corpus, (0.6, 0.2, 0.2), seed=8)
    assert a.train != c.train


def test_split_bad_fractions():
    with pytest.raises(ValueError):
        split([1, 2], (0.5, 0.2, 0.2), seed=1)
    with pytest.raises(ValueError):
        split([1, 2], (1.2, -0.1, -0.1), seed=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_split_rejects_non_finite_fractions(slot, bad):
    # (0.8, 0.3, nan) used to pass both checks and split 80/20/0
    fractions = [0.8, 0.3, 0.3]
    fractions[slot] = bad
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        split(list(range(100)), tuple(fractions), seed=1)


# --- client partitioning ----------------------------------------------------

def test_partition_single_client_takes_everything():
    corpus = [[BOS_ID, 3, EOS_ID]] * 10
    shards = partition_clients(corpus, 1, mean_shard=400, seed=3)
    assert len(shards) == 1
    assert shards[0].n_k == 10


def test_partition_deterministic():
    corpus = [[BOS_ID, i % 7 + 3, EOS_ID] for i in range(200)]
    a = partition_clients(corpus, 12, 15, seed=5)
    b = partition_clients(corpus, 12, 15, seed=5)
    assert [s.sentences for s in a] == [s.sentences for s in b]
    assert [s.client_id for s in a] == [s.client_id for s in b]


def test_partition_sizes_track_requested_mean():
    corpus = [[BOS_ID, 3, EOS_ID]] * 10_000
    means = []
    for seed in range(5):
        shards = partition_clients(corpus, 20, 400, seed=seed)
        means.append(np.mean([s.n_k for s in shards]))
    assert 0.8 * 400 < np.mean(means) < 1.2 * 400


def test_partition_no_duplicates_and_nonempty():
    corpus = [[BOS_ID, i + 3, EOS_ID] for i in range(500)]
    shards = partition_clients(corpus, 30, 10, seed=11)
    seen = []
    for s in shards:
        assert s.n_k >= 1
        seen.extend(id(x) for x in s.sentences)
    assert len(seen) == len(set(seen))  # no sentence object assigned twice
    assert len(seen) <= len(corpus)


def test_partition_insufficient_corpus():
    with pytest.raises(ValueError, match="insufficient sentences"):
        partition_clients([[BOS_ID, 3, EOS_ID]] * 3, 5, 10, seed=0)


# --- synthesis --------------------------------------------------------------

def test_synthesize_zero_sentences():
    assert synthesize_corpus(2, 20, 0, seed=1) == []


def test_synthesize_mean_length():
    sents = synthesize_corpus(2, 50, 10_000, seed=42)
    mean_len = np.mean([len(s.split()) for s in sents])
    assert 3.8 <= mean_len <= 4.4


def test_synthesize_deterministic():
    a = synthesize_corpus(3, 30, 50, seed=8)
    b = synthesize_corpus(3, 30, 50, seed=8)
    assert a == b
    c = synthesize_corpus(3, 30, 50, seed=9)
    assert a != c


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_corpus(4, 50, 10, seed=1)
    with pytest.raises(ValueError):
        synthesize_corpus(2, 5, 10, seed=1)
    with pytest.raises(ValueError):
        synthesize_corpus(2, 50, -5, seed=1)


@pytest.mark.parametrize("args, digest", [
    ((2, 25, 150, 3), "5b12e2901016cfa1"),
    ((3, 500, 2000, 20260819), "407d5f5df830bcdd"),
    ((3, 10000, 300, 11), "4484e46e96ed7ed7"),
    ((2, 10, 200, 1), "06341d93a5ce5749"),
])
def test_synthesized_text_is_pinned(args, digest):
    text = "\n".join(synthesize_corpus(*args))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_synthesis_keeps_only_each_context_support():
    # 10,000-word source: a context's support must not pin its whole permutation
    tracemalloc.start()
    try:
        synthesize_corpus(3, 10000, 300, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_synthesized_text_is_skewed_not_uniform():
    # per-context distributions are sharply peaked: the most common first word
    # should occur far more often than 1/vocab of the time
    sents = synthesize_corpus(2, 40, 4_000, seed=3)
    first = [s.split()[0] for s in sents if s]
    _, counts = np.unique(first, return_counts=True)
    assert counts.max() / len(first) > 0.2


# --- file I/O ---------------------------------------------------------------

def test_corpus_file_round_trip(tmp_path):
    sents = synthesize_corpus(2, 25, 40, seed=6)
    path = tmp_path / "c.txt"
    save_corpus(path, sents)
    assert load_corpus(path) == sents
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data


def test_vocab_file_round_trip(tmp_path):
    raw = make_sentences(25, [f"w{i}" for i in range(9)], seed=13)
    vocab = build_vocab(raw, 10)
    path = tmp_path / "v.txt"
    save_vocab(path, vocab)
    loaded = load_vocab(path)
    assert loaded.words == vocab.words
    assert loaded.index == vocab.index
    assert path.read_text().startswith(f"#V={vocab.V}\n")


def test_vocab_file_bad_header(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("not-a-header\nword\n")
    with pytest.raises(ValueError):
        load_vocab(path)


@pytest.mark.parametrize("text", ["#V=6\nw1\nw2\nw1\n", "#V=5\nw1\n<unk>\n"],
                         ids=["repeated-word", "special-token"])
def test_vocab_file_with_a_colliding_word_is_rejected(tmp_path, text):
    path = tmp_path / "v.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="repeats a word or lists a special token"):
        load_vocab(path)
