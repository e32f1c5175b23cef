"""Tests for the discounted backoff n-gram model.

The hand-computed probabilities in TestHandCounted were worked out by hand
from the three-sentence corpus below (delta = 0.75, V = 6):

    unigram level: counts {3:3, 4:2, 5:1, 1:3}, total 9, 4 distinct
    after token 3: counts {4:2, 5:1},           total 3, 2 distinct

    P(w)        = max(c-0.75,0)/9 + (0.75*4/9) * 1/6
    P(w | 3)    = max(c-0.75,0)/3 + (0.75*2/3) * P(w)

giving P(4|3) = 5/12 + 7/72 = 37/72, P(3|3) = 11/72, P(5|3) = 1/8.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlm.corpus import NUM_SPECIALS, build_vocab, tokenize
from fedlm.ngram import (
    MAX_ORDER,
    backoff_probs,
    oracle_predict,
    predict_topk_ngram,
    train_ngram,
)
from fedlm.nn_core import rng_for

HAND_CORPUS = [
    [0, 3, 4, 1],
    [0, 3, 5, 1],
    [0, 3, 4, 1],
]
HAND_V = 6


def random_corpus(seed, n_sentences=10, vocab=9):
    rng = rng_for(seed, "ngram-corpus")
    out = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, 6))
        out.append([0] + [int(w) for w in rng.integers(3, vocab, size=n)] + [1])
    return out


class TestHandCounted:
    def test_raw_counts(self):
        table = train_ngram(HAND_CORPUS, order=2, discount=0.75, vocab_size=HAND_V)
        assert table.counts[()] == {3: 3, 4: 2, 5: 1, 1: 3}
        assert table.counts[(3,)] == {4: 2, 5: 1}
        assert table.counts[(0,)] == {3: 3}
        assert table.counts[(4,)] == {1: 2}
        assert table.counts[(5,)] == {1: 1}

    def test_bigram_distribution_after_token_three(self):
        table = train_ngram(HAND_CORPUS, order=2, discount=0.75, vocab_size=HAND_V)
        probs = backoff_probs(table, [0, 3])
        assert probs[4] == pytest.approx(37 / 72, rel=0, abs=1e-12)
        assert probs[3] == pytest.approx(11 / 72, rel=0, abs=1e-12)
        assert probs[5] == pytest.approx(1 / 8, rel=0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_topk_masks_specials_despite_tied_mass(self):
        # P(EOS|3) equals P(3|3) = 11/72, but EOS must never be offered.
        table = train_ngram(HAND_CORPUS, order=2, discount=0.75, vocab_size=HAND_V)
        out = predict_topk_ngram(table, [0, 3], 3)
        assert [i for i, _ in out] == [4, 3, 5]
        assert out[0][1] == pytest.approx(37 / 72, rel=0, abs=1e-12)

    def test_unigram_distribution(self):
        table = train_ngram(HAND_CORPUS, order=1, discount=0.75, vocab_size=HAND_V)
        probs = backoff_probs(table, [0, 3, 4])  # context ignored at order 1
        assert probs[3] == pytest.approx(11 / 36, rel=0, abs=1e-12)
        assert probs[4] == pytest.approx(7 / 36, rel=0, abs=1e-12)
        np.testing.assert_allclose(probs, backoff_probs(table, []), rtol=0, atol=0)


class TestBackoffStructure:
    def test_unseen_context_falls_back_to_empty_context(self):
        table = train_ngram(HAND_CORPUS, order=2, discount=0.75, vocab_size=HAND_V)
        np.testing.assert_array_equal(
            backoff_probs(table, [2]), backoff_probs(table, [])
        )

    def test_context_longer_than_order_uses_trailing_tokens_only(self):
        corpus = random_corpus(5, n_sentences=12)
        table = train_ngram(corpus, order=3, discount=0.5, vocab_size=9)
        long_ctx = [0, 4, 5, 6, 7]
        np.testing.assert_array_equal(
            backoff_probs(table, long_ctx), backoff_probs(table, long_ctx[-2:])
        )

    def test_empty_training_corpus_gives_uniform(self):
        table = train_ngram([], order=2, discount=0.75, vocab_size=10)
        probs = backoff_probs(table, [0, 5])
        np.testing.assert_array_equal(probs, np.full(10, 0.1))
        out = predict_topk_ngram(table, [0], 4)
        assert [i for i, _ in out] == [3, 4, 5, 6]

    def test_start_token_appears_in_contexts_but_never_as_continuation(self):
        corpus = random_corpus(11, n_sentences=15)
        table = train_ngram(corpus, order=3, discount=0.75, vocab_size=9)
        assert (0,) in table.counts
        for level in table.counts.values():
            assert 0 not in level

    def test_distributions_sum_to_one(self):
        corpus = random_corpus(3, n_sentences=15)
        table = train_ngram(corpus, order=3, discount=0.75, vocab_size=9)
        contexts = [[], [0], [0, 4], [4, 5], [0, 4, 5, 6], [2], [8, 8]]
        for ctx in contexts:
            assert abs(backoff_probs(table, ctx).sum() - 1.0) < 1e-9

    def test_words_tokenized_from_text_round_trip_through_training(self):
        text = ["the cat sat", "the cat ran", "a dog sat"]
        vocab = build_vocab(text, 10)
        corpus = [tokenize(s, vocab) for s in text]
        table = train_ngram(corpus, order=2, discount=0.75, vocab_size=vocab.V)
        the = vocab.id_of("the")
        cat = vocab.id_of("cat")
        assert table.counts[(the,)] == {cat: 2}


class TestOracleAgreement:
    """The table path and the direct-scan oracle share a formula but no code;
    they must produce identical candidate ids in identical order."""

    def all_contexts(self, corpus):
        seen = [[]]
        for seq in corpus:
            for j in range(1, len(seq)):
                seen.append(list(seq[:j]))
        return seen

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_training_prefix_matches(self, order):
        corpus = random_corpus(order * 100 + 7, n_sentences=8)
        table = train_ngram(corpus, order=order, discount=0.75, vocab_size=9)
        for ctx in self.all_contexts(corpus):
            got = [i for i, _ in predict_topk_ngram(table, ctx, 6)]
            want = oracle_predict(corpus, ctx, 6, order, 0.75, 9)
            assert got == want, f"order={order} ctx={ctx}"

    @given(seed=st.integers(0, 10_000), order=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_random_contexts_match(self, seed, order):
        corpus = random_corpus(seed, n_sentences=6, vocab=8)
        table = train_ngram(corpus, order=order, discount=0.6, vocab_size=8)
        rng = rng_for(seed, "ctx")
        ctx = [int(w) for w in rng.integers(0, 8, size=rng.integers(0, 4))]
        got = [i for i, _ in predict_topk_ngram(table, ctx, 5)]
        assert got == oracle_predict(corpus, ctx, 5, order, 0.6, 8)


class TestPredictionInterface:
    def test_k_is_capped_at_real_vocabulary_size(self):
        table = train_ngram(HAND_CORPUS, order=2, discount=0.75, vocab_size=HAND_V)
        out = predict_topk_ngram(table, [0], 50)
        assert len(out) == HAND_V - NUM_SPECIALS
        assert sorted(i for i, _ in out) == [3, 4, 5]

    def test_k_validation(self):
        table = train_ngram(HAND_CORPUS, order=2, discount=0.75, vocab_size=HAND_V)
        with pytest.raises(ValueError):
            predict_topk_ngram(table, [0], 0)

    def test_order_and_discount_validation(self):
        with pytest.raises(ValueError):
            train_ngram(HAND_CORPUS, order=0, discount=0.75, vocab_size=HAND_V)
        with pytest.raises(ValueError):
            train_ngram(HAND_CORPUS, order=MAX_ORDER + 1, discount=0.75, vocab_size=HAND_V)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                train_ngram(HAND_CORPUS, order=2, discount=bad, vocab_size=HAND_V)

    @pytest.mark.parametrize("corpus", [[[0, 5, -2, 1], [0, 5, 1]], [[0, 12, 1]]], ids=["negative", "past-V"])
    def test_token_ids_outside_the_vocabulary_are_rejected(self, corpus):
        # -2 used to be counted as id 7; 12 fitted, then failed at scoring
        with pytest.raises(ValueError, match=r"token ids must be in \[0, 9\)"):
            train_ngram(corpus, order=2, discount=0.75, vocab_size=9)

    def test_batched_candidates_agree_with_single_context_calls(self):
        corpus = random_corpus(21, n_sentences=12)
        table = train_ngram(corpus, order=3, discount=0.75, vocab_size=9)
        seqs = corpus[:5] + [[0]]
        rows = table.topk_candidates(seqs, k=4)
        assert len(rows) == len(seqs) and table.topk_candidates([], k=4) == []
        for seq, row in zip(seqs, rows):
            assert row.shape == (len(seq) - 1, 4)
            for j in range(1, len(seq)):
                want = [i for i, _ in predict_topk_ngram(table, seq[:j], 4)]
                assert list(row[j - 1]) == want

    def test_higher_order_fits_training_data_no_worse(self):
        corpus = HAND_CORPUS * 2
        lls = []
        for order in (1, 2, 3):
            table = train_ngram(corpus, order=order, discount=1e-6, vocab_size=HAND_V)
            ll = 0.0
            n = 0
            for seq in corpus:
                for j in range(1, len(seq)):
                    ll += math.log(backoff_probs(table, seq[:j])[seq[j]])
                    n += 1
            lls.append(ll / n)
        assert lls[1] > lls[0]
        assert lls[2] >= lls[1] - 1e-9
