"""Tests for the centralized SGD training loop."""

import numpy as np
import pytest

from fedlm.central import CentralConfig, train_centralized
from fedlm.cifg import CifgConfig, flatten, init_model, loss_and_grads, unflatten
from fedlm.corpus import CorpusSplit, build_vocab, tokenize
from fedlm.nn_core import rng_for, sgd_step


def memorization_split():
    """Twenty sentences from two rigid patterns; a model that learns them
    perfectly can reach top-1 recall 0.95 on the training data (the first
    word is genuinely ambiguous 16/20 of the time)."""
    text = ["a b c d"] * 16 + ["e f g h"] * 4
    vocab = build_vocab(text, 20)
    toks = [tokenize(s, vocab) for s in text]
    return vocab, CorpusSplit(train=toks, test=[], eval=toks, seed=0)


def random_split(seed, n=30, vocab_size=12):
    rng = rng_for(seed, "central-data")
    toks = [
        [0] + [int(w) for w in rng.integers(3, vocab_size, size=rng.integers(1, 6))] + [1]
        for _ in range(n)
    ]
    return CorpusSplit(train=toks, test=[], eval=toks[:10], seed=seed)


class TestTrainingLoop:
    def test_zero_steps_returns_initial_model_and_one_row(self):
        data = random_split(1)
        cfg = CifgConfig(V=12, D=4, H=5)
        model = init_model(cfg, seed=2, dtype=np.float64)
        before = flatten(model).copy()
        trained, rows = train_centralized(
            model, data, CentralConfig(max_steps=0, eval_every=5)
        )
        assert len(rows) == 1
        assert rows[0].step_or_round == 0
        assert np.isnan(rows[0].loss)
        np.testing.assert_array_equal(flatten(trained), before)

    def test_single_step_is_exactly_one_gradient_update(self):
        data = random_split(3, n=8)
        cfg = CifgConfig(V=12, D=4, H=5)
        model = init_model(cfg, seed=4, dtype=np.float64)
        config = CentralConfig(lr=0.25, batch_size=50, max_steps=1, eval_every=1, seed=9)

        # batch_size covers the whole corpus, so the one batch is the full
        # epoch permutation and the update must equal a hand-applied step.
        order = rng_for(9, "shuffle", 0).permutation(len(data.train))
        batch = [data.train[i] for i in order]
        _, grads = loss_and_grads(model, batch)
        expected = flatten(model) - 0.25 * flatten(grads)

        trained, rows = train_centralized(model, data, config)
        np.testing.assert_array_equal(flatten(trained), expected)
        assert rows[-1].step_or_round == 1
        assert rows[-1].examples_seen == len(data.train)

    def test_steps_across_an_epoch_boundary_replay_hand_sliced_batches(self):
        # 7 sentences in batches of 3: slices 3, 3, 1 of epoch 0, then 3, 3 of epoch 1
        data = random_split(15, n=7)
        cfg = CifgConfig(V=12, D=4, H=5)
        model = init_model(cfg, seed=4, dtype=np.float64)
        w = flatten(model)
        for epoch, starts in ((0, (0, 3, 6)), (1, (0, 3))):
            order = rng_for(9, "shuffle", epoch).permutation(7)
            for start in starts:
                batch = [data.train[i] for i in order[start : start + 3]]
                _, grads = loss_and_grads(unflatten(cfg, w), batch)
                w = sgd_step(w, flatten(grads), 0.25)

        config = CentralConfig(lr=0.25, batch_size=3, max_steps=5, eval_every=5, seed=9)
        trained, rows = train_centralized(model, data, config)
        np.testing.assert_array_equal(flatten(trained), w)
        assert rows[-1].examples_seen == 3 + 3 + 1 + 3 + 3

    def test_same_seed_is_bitwise_deterministic(self):
        data = random_split(5)
        cfg = CifgConfig(V=12, D=4, H=4)
        config = CentralConfig(lr=0.1, batch_size=7, max_steps=12, eval_every=6, seed=11)
        m1, r1 = train_centralized(init_model(cfg, seed=6, dtype=np.float64), data, config)
        m2, r2 = train_centralized(init_model(cfg, seed=6, dtype=np.float64), data, config)
        np.testing.assert_array_equal(flatten(m1), flatten(m2))
        assert [r.step_or_round for r in r1] == [r.step_or_round for r in r2]
        assert [(r.top1, r.top3) for r in r1] == [(r.top1, r.top3) for r in r2]
        # nan-aware equality for the step-0 placeholder loss
        np.testing.assert_array_equal(
            np.array([r.loss for r in r1]), np.array([r.loss for r in r2])
        )

    def test_row_cadence_and_example_counter(self):
        data = random_split(7, n=10)
        cfg = CifgConfig(V=12, D=3, H=3)
        config = CentralConfig(lr=0.01, batch_size=4, max_steps=10, eval_every=4, seed=0)
        _, rows = train_centralized(init_model(cfg, seed=1, dtype=np.float64), data, config)
        assert [r.step_or_round for r in rows] == [0, 4, 8, 10]
        # batches are consecutive slices of a 10-example epoch: 4+4+2 then repeat
        assert rows[-1].examples_seen == 4 + 4 + 2 + 4 + 4 + 2 + 4 + 4 + 2 + 4
        assert all(r.phase == "central" for r in rows)

    def test_full_batch_loss_decreases_strictly(self):
        vocab, data = memorization_split()
        cfg = CifgConfig(V=vocab.V, D=8, H=8)
        config = CentralConfig(lr=0.1, batch_size=len(data.train), max_steps=100,
                               eval_every=1, seed=7)
        _, rows = train_centralized(init_model(cfg, seed=3, dtype=np.float64), data, config)
        losses = [r.loss for r in rows[1:]]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_memorizes_a_tiny_corpus(self):
        vocab, data = memorization_split()
        cfg = CifgConfig(V=vocab.V, D=8, H=8)
        config = CentralConfig(lr=0.5, batch_size=20, max_steps=300, eval_every=100, seed=7)
        _, rows = train_centralized(init_model(cfg, seed=3, dtype=np.float64), data, config)
        assert rows[-1].top1 >= 0.9
        assert rows[-1].top3 >= rows[-1].top1

    @pytest.mark.filterwarnings("error")  # divergence ends in the error alone, no numpy warnings
    def test_divergence_aborts_instead_of_training_on_garbage(self):
        data = random_split(9, n=10)
        cfg = CifgConfig(V=12, D=4, H=4)
        config = CentralConfig(lr=1e8, batch_size=10, max_steps=50, eval_every=50, seed=1)
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_centralized(init_model(cfg, seed=2, dtype=np.float64), data, config)

    def test_empty_train_split_rejected(self):
        data = CorpusSplit(train=[], test=[], eval=[], seed=0)
        cfg = CifgConfig(V=12, D=3, H=3)
        with pytest.raises(ValueError, match="train split is empty"):
            train_centralized(init_model(cfg, seed=0), data, CentralConfig())

    def test_untrainable_sentences_are_filtered(self):
        # sentences not starting with the start token are dropped up front
        good = [[0, 4, 5, 1], [0, 6, 1]]
        junk = [[4, 5, 1], [0]]
        data = CorpusSplit(train=good + junk, test=[], eval=good, seed=0)
        cfg = CifgConfig(V=12, D=3, H=3)
        config = CentralConfig(lr=0.01, batch_size=10, max_steps=2, eval_every=2, seed=0)
        _, rows = train_centralized(init_model(cfg, seed=1, dtype=np.float64), data, config)
        assert rows[-1].examples_seen == 2 * len(good)

    def test_missing_eval_split_reports_nan_recalls(self):
        data = random_split(13, n=6)
        data = CorpusSplit(train=data.train, test=[], eval=[], seed=0)
        cfg = CifgConfig(V=12, D=3, H=3)
        config = CentralConfig(lr=0.01, batch_size=3, max_steps=2, eval_every=2, seed=0)
        _, rows = train_centralized(init_model(cfg, seed=1, dtype=np.float64), data, config)
        assert np.isnan(rows[-1].top1) and np.isnan(rows[-1].top3)

    def test_eval_split_with_nothing_scored_reports_nan_recalls(self):
        # a [BOS, EOS] sentence has no scored position, as in run_federated's rows
        data = random_split(13, n=6)
        data = CorpusSplit(train=data.train, test=[], eval=[[0, 1]], seed=0)
        cfg = CifgConfig(V=12, D=3, H=3)
        config = CentralConfig(lr=0.01, batch_size=3, max_steps=2, eval_every=1, seed=0)
        _, rows = train_centralized(init_model(cfg, seed=1, dtype=np.float64), data, config)
        assert [r.step_or_round for r in rows] == [0, 1, 2]
        assert all(np.isnan(r.top1) and np.isnan(r.top3) and r.top1_stderr == 0.0 for r in rows)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CentralConfig(lr=0.0)
        with pytest.raises(ValueError):
            CentralConfig(batch_size=0)
        with pytest.raises(ValueError):
            CentralConfig(max_steps=-1)
        with pytest.raises(ValueError):
            CentralConfig(eval_every=0)
