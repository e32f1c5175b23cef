"""Tests for recall evaluation, jackknife error bars, and metrics output.

Scoring conventions exercised here:
  * end-of-sentence targets are skipped entirely (never scored),
  * unknown-word targets count as scored positions but can never hit,
  * candidate lists come from the predictor's batched topk_candidates
    method, one ordered row per position.

The jackknife numbers in TestJackknife were computed by hand:
  clients (3 of 4) and (1 of 4): overall 4/8 = 0.5,
  leave-one-out rates 1/4 and 3/4, se = sqrt((1/2)(0.25^2 + 0.25^2)) = 0.25.
"""

import math

import numpy as np
import pytest

from fedlm.evaluate import (
    CSV_HEADER,
    CompareReport,
    MetricsRow,
    compare_report,
    jackknife_recall,
    multi_k_stats,
    recalls_topk,
    write_metrics_csv,
)


class ListPredictor:
    """Always proposes the same candidate ids at every position."""

    def __init__(self, ids):
        self.ids = list(ids)

    def topk_candidates(self, seqs, k):
        return [np.tile(np.array(self.ids[:k]), (len(seq) - 1, 1)) for seq in seqs]


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
