"""Tests for recall evaluation, jackknife error bars, and metrics output.

Scoring conventions exercised here:
  * end-of-sentence targets are skipped entirely (never scored),
  * unknown-word targets count as scored positions but can never hit,
  * a hit is a target whose rank among the candidates, from the
    predictor's batched target_ranks method, is below k.

The jackknife numbers in TestJackknife were computed by hand:
  clients (3 of 4) and (1 of 4): overall 4/8 = 0.5,
  leave-one-out rates 1/4 and 3/4, se = sqrt((1/2)(0.25^2 + 0.25^2)) = 0.25.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlm.cifg import CifgConfig, init_model
from fedlm.corpus import BOS_ID, EOS_ID, UNK_ID, build_vocab, synthesize_corpus, tokenize
from fedlm.evaluate import (
    CSV_HEADER,
    CompareReport,
    MetricsRow,
    compare_report,
    jackknife_recall,
    multi_k_stats,
    recalls_topk,
    stable_ranks,
    write_metrics_csv,
)
from fedlm.ngram import train_ngram


class ListPredictor:
    """Always proposes the same candidate ids, in order, at every position."""

    def __init__(self, ids):
        self.ids = list(ids)

    def target_ranks(self, seqs):
        absent = np.iinfo(np.int64).max  # a rank no k reaches
        ranks = [self.ids.index(t) if t in self.ids else absent for seq in seqs for t in seq[1:]]
        return np.array(ranks, dtype=np.int64)


class TestRecall:
    def test_hand_counted_hits(self):
        pred = ListPredictor([4, 5, 6])
        data = [[0, 4, 1], [0, 5, 1]]
        assert recalls_topk(pred, data, (1,))[1] == 0.5  # only target 4 is ranked first
        assert recalls_topk(pred, data, (2,))[2] == 1.0

    def test_eos_targets_are_not_scored(self):
        pred = ListPredictor([9])
        hits, positions = multi_k_stats(pred, [[0, 9, 1], [0, 9, 9, 1]], (1,))
        assert positions == 3  # two sentences, EOS excluded
        assert hits[1] == 3

    def test_unknown_targets_count_against_recall(self):
        pred = ListPredictor([4, 2])  # even offering unk id cannot score it
        data = [[0, 2, 4, 1]]
        assert recalls_topk(pred, data, (2,))[2] == 0.5

    def test_start_token_target_is_skipped(self):
        pred = ListPredictor([4])
        data = [[0, 0, 4, 1]]
        assert recalls_topk(pred, data, (1,))[1] == 1.0

    def test_multi_k_is_prefix_consistent(self):
        pred = ListPredictor([7, 5, 4])
        data = [[0, 4, 5, 7, 1]]
        hits, positions = multi_k_stats(pred, data, (1, 2, 3))
        assert positions == 3
        assert hits == {1: 1, 2: 2, 3: 3}

    def test_empty_evaluation_rejected(self):
        pred = ListPredictor([4])
        with pytest.raises(ValueError, match="empty evaluation"):
            recalls_topk(pred, [], (1,))
        with pytest.raises(ValueError, match="empty evaluation"):
            recalls_topk(pred, [[0, 1]], (1,))  # EOS-only targets

    def test_k_validation(self):
        with pytest.raises(ValueError):
            recalls_topk(ListPredictor([4]), [[0, 4, 1]], (0,))

    def test_shuffling_data_does_not_change_recall(self):
        data = [[0, 4, 1], [0, 5, 6, 1], [0, 2, 1], [0, 6, 6, 1]]
        pred = ListPredictor([6, 5])
        forward = recalls_topk(pred, data, (2,))[2]
        backward = recalls_topk(pred, list(reversed(data)), (2,))[2]
        assert forward == backward


# Ties, both zeros, both infinities and NaN, among ordinary float32 values.
SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
                   st.floats(width=32, allow_nan=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_stable_ranks_is_the_position_in_the_stable_argsort(dtype, data):
    n, V = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9))
    scores = np.array(data.draw(st.lists(st.lists(SCORES, min_size=V, max_size=V), min_size=n, max_size=n)),
                      dtype=dtype)
    targets = np.array(data.draw(st.lists(st.integers(0, V - 1), min_size=n, max_size=n)), dtype=np.int64)
    expected = [int(np.flatnonzero(np.argsort(-row, kind="stable") == t)[0]) for row, t in zip(scores, targets)]
    assert stable_ranks(scores, targets).tolist() == expected


def count_from_candidates(predictor, data, ks):
    """(hits per k, scored positions) counted from the ordered candidate rows."""
    hits, positions = {k: 0 for k in ks}, 0
    for seq, rows in zip(data, predictor.topk_candidates(data, max(ks))):
        for target, row in zip(seq[1:], rows):
            if target in (BOS_ID, EOS_ID):
                continue
            positions += 1
            for k in ks:
                hits[k] += target != UNK_ID and target in row[:k]
    return hits, positions


def scoring_fixture():
    """Sequences from a 40-word source over 25 vocabulary slots (so some are
    unk), plus length-2 sequences, and predictors fitted or drawn for them."""
    raw = synthesize_corpus(3, 40, 300, seed=12)
    vocab = build_vocab(raw, 25)
    seqs = [tokenize(s, vocab) for s in raw]
    data = seqs[200:] + [[0, 1], [0, 7], [0, UNK_ID], [0, 0]]
    cfg = CifgConfig(V=25, D=5, H=6)
    tied = init_model(cfg, seed=3, dtype=np.float64)
    tied.W[:, :3] = 8.0  # the specials would win every position
    tied.W[:, 14:] = tied.W[:, 3:14]  # words 14+i and 3+i tie at every position
    predictors = {"tied": tied, "unigram": train_ngram(seqs[:200], 1, 0.75, 25),
                  "trigram": train_ngram(seqs[:200], 3, 0.75, 25)}
    for seed in (1, 2):
        model = init_model(cfg, seed=seed)
        model.params[...] *= 6.0
        predictors[f"cifg{seed}-float32"], predictors[f"cifg{seed}-float64"] = model, model.astype(np.float64)
    return data, predictors


@pytest.mark.parametrize("name", ["cifg1-float32", "cifg1-float64", "cifg2-float32", "cifg2-float64",
                                  "tied", "unigram", "trigram"])
def test_hits_by_rank_equal_hits_counted_from_candidate_rows(name):
    data, predictors = scoring_fixture()
    predictor = predictors[name]
    for part in (data, data[-4:], []):
        assert multi_k_stats(predictor, part, (1, 3, 5)) == count_from_candidates(predictor, part, (1, 3, 5))


class TestJackknife:
    def test_two_client_hand_computation(self):
        result = jackknife_recall([(3, 4), (1, 4)])
        assert result.recall == 0.5
        assert result.stderr == pytest.approx(0.25, rel=0, abs=1e-15)
        assert not result.degenerate

    def test_identical_shards_have_exactly_zero_error(self):
        result = jackknife_recall([(2, 5)] * 4)
        assert result.recall == 0.4
        assert result.stderr == 0.0
        assert not result.degenerate

    def test_single_client_is_degenerate(self):
        result = jackknife_recall([(3, 10)])
        assert result.recall == 0.3
        assert result.stderr == 0.0
        assert result.degenerate

    def test_recall_is_token_weighted_not_client_averaged(self):
        result = jackknife_recall([(1, 1), (0, 9)])
        assert result.recall == 0.1

    def test_empty_clients_are_dropped(self):
        with_empty = jackknife_recall([(3, 4), (0, 0), (1, 4)])
        without = jackknife_recall([(3, 4), (1, 4)])
        assert with_empty == without

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="empty evaluation"):
            jackknife_recall([(0, 0), (0, 0)])

    def test_error_shrinks_with_replication(self):
        base = [(3, 9), (5, 11), (2, 10)]
        small = jackknife_recall(base)
        big = jackknife_recall(base * 4)
        assert big.recall == pytest.approx(small.recall, rel=0, abs=1e-15)
        assert big.stderr < small.stderr


class TestMetricsCsv:
    ROWS = [
        MetricsRow("central", 0, 0, float("nan"), 0.125, 0.25),
        MetricsRow("central", 200, 10000, 5.5, 0.1, 0.2, 0.0, 987.6),
    ]

    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.ROWS)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "phase,step_or_round,examples_seen,loss,top1,top3,top1_stderr,wall_ms"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 8 for line in lines)

    def test_floats_are_repr_rendered(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.ROWS)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[3] == "nan"
        assert lines[1].split(",")[4] == "0.125"
        assert lines[2].split(",")[3] == "5.5"

    def test_wall_clock_zeroed_unless_requested(self, tmp_path):
        quiet = tmp_path / "a.csv"
        timed = tmp_path / "b.csv"
        write_metrics_csv(quiet, self.ROWS)
        write_metrics_csv(timed, self.ROWS, include_timing=True)
        assert quiet.read_text().splitlines()[2].split(",")[7] == "0.0"
        assert timed.read_text().splitlines()[2].split(",")[7] == repr(987.6)

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a, self.ROWS)
        write_metrics_csv(b, self.ROWS)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.ROWS, include_timing=True)
        line = path.read_text().splitlines()[2].split(",")
        assert line[0] == "central"
        assert int(line[1]) == 200
        assert float(line[3]) == 5.5
        assert math.isnan(float(path.read_text().splitlines()[1].split(",")[3]))


class TestCompareReport:
    DATA = [[0, 4, 1], [0, 5, 1], [0, 6, 1], [0, 4, 1]]

    def test_rows_preserve_model_order_and_values(self):
        report = compare_report(
            [("alpha", ListPredictor([4, 5])), ("beta", ListPredictor([6]))],
            self.DATA,
            ks=(1, 2),
        )
        assert [name for name, _ in report.rows] == ["alpha", "beta"]
        alpha = report.rows[0][1]
        beta = report.rows[1][1]
        assert alpha == {1: 0.5, 2: 0.75}
        assert beta == {1: 0.25, 2: 0.25}

    def test_ks_are_sorted(self):
        report = compare_report([("m", ListPredictor([4]))], self.DATA, ks=(3, 1))
        assert report.ks == (1, 3)

    def test_csv_rendering(self):
        report = CompareReport(ks=(1, 3), rows=[("m", {1: 0.5, 3: 0.75})])
        assert report.as_csv() == "model,top1,top3\nm,0.5,0.75\n"

    def test_text_rendering_is_aligned(self):
        report = CompareReport(
            ks=(1,), rows=[("short", {1: 0.5}), ("a-much-longer-name", {1: 0.25})]
        )
        lines = report.as_text().splitlines()
        assert len({len(line) for line in lines}) == 1
        assert lines[1].startswith("short")

    def test_no_models_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            compare_report([], self.DATA)
