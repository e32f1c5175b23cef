"""Tests for the coupled-gate recurrent language model.

The hand-computed scalar constants below were derived with 64-bit Python
scalar arithmetic (math.exp / math.tanh) independently of the implementation
and then frozen.
"""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padded_reference
from fedlm.cifg import (
    CHECKPOINT_MAGIC,
    QUANTIZED_MAGIC,
    TENSOR_ORDER,
    CifgConfig,
    _pack,
    _real_logits,
    _scan,
    _sigmoid,
    dequantize,
    flatten,
    init_model,
    input_preactivations,
    load_checkpoint,
    load_quantized,
    loss_and_grads,
    param_count,
    predict_topk,
    quantize,
    recurrent_step,
    save_checkpoint,
    save_quantized,
    tensor_shapes,
    topk_candidates,
    unflatten,
)
from fedlm.corpus import NUM_SPECIALS
from fedlm.nn_core import finite_diff_grad, rng_for

# Frozen 64-bit scalar oracle: sigma(0.5), tanh(0.5), and the chained
# cell quantities for the all-0.5-weights single-unit configuration.
SIGMOID_HALF = 0.6224593312018546
TANH_HALF = 0.46211715726000974
CELL_C = 0.6651898054431133
CELL_H = 0.36215109644769744
CELL_R = 0.18107554822384872


def constant_model(config, value, dtype=np.float64):
    return unflatten(config, np.full(param_count(config), value, dtype=dtype))


def random_model(config, seed, dtype=np.float64, scale=0.4):
    rng = rng_for(seed, "test-model")
    model = unflatten(config, np.empty(param_count(config), dtype=dtype))
    for name, shape in tensor_shapes(config).items():  # draws W, P, Wi, Ui, bi, ... in turn
        getattr(model, name)[...] = (scale * rng.standard_normal(shape)).astype(dtype)
    return model


def step_one(model, x, c_prev, r_prev):
    """The recurrent step at batch size 1, on an embedded input x of shape (D,)."""
    return recurrent_step(model, input_preactivations(model, x[None, :]), c_prev[None, :], r_prev[None, :])


# ---------------------------------------------------------------------------
# Cell arithmetic


class TestCellStep:
    def test_single_unit_hand_computed_values(self):
        cfg = CifgConfig(V=4, D=1, H=1)
        model = constant_model(cfg, 0.5)
        for gate in ("bi", "bc", "bo"):
            getattr(model, gate)[...] = 0.0
        out = step_one(model, np.array([1.0]), c_prev=np.array([1.0]), r_prev=np.array([0.0]))
        assert out.i[0, 0] == pytest.approx(SIGMOID_HALF, rel=0, abs=1e-15)
        assert out.f[0, 0] == pytest.approx(1.0 - SIGMOID_HALF, rel=0, abs=1e-15)
        assert out.o[0, 0] == pytest.approx(SIGMOID_HALF, rel=0, abs=1e-15)
        assert out.c[0, 0] == pytest.approx(CELL_C, rel=0, abs=1e-15)
        assert out.h[0, 0] == pytest.approx(CELL_H, rel=0, abs=1e-15)
        assert out.r[0, 0] == pytest.approx(CELL_R, rel=0, abs=1e-15)

    def test_zero_weights_give_half_gates_and_zero_cell_state(self):
        cfg = CifgConfig(V=6, D=3, H=4)
        model = constant_model(cfg, 0.0)
        out = step_one(model, np.zeros(3), np.zeros(4), np.zeros(3))
        assert np.all(out.i == 0.5)
        assert np.all(out.f == 0.5)
        assert np.all(out.o == 0.5)
        assert np.all(out.c == 0.0)
        assert np.all(out.r == 0.0)

    def test_forget_gate_complements_input_gate_exactly(self):
        cfg = CifgConfig(V=8, D=5, H=7)
        c, r = np.zeros(7), np.zeros(5)
        for trial in range(50):
            model = random_model(cfg, 900 + trial, scale=2.0)
            x = rng_for(trial, "x").standard_normal(5)
            out = step_one(model, x, c, r)
            np.testing.assert_array_equal(out.f + out.i, np.ones((1, 7)))
            c, r = out.c[0], out.r[0]

    def test_large_magnitude_preactivations_stay_finite(self):
        cfg = CifgConfig(V=4, D=2, H=3)
        model = constant_model(cfg, 200.0)
        out = step_one(model, np.array([50.0, -50.0]), np.zeros(3), np.zeros(2))
        for field in (out.i, out.f, out.c, out.o, out.r):
            assert np.all(np.isfinite(field))


def sign_split_sigmoid(x):
    """The reference formula: 1/(1+exp(-x)) where x >= 0 and exp(x)/(1+exp(x))
    elsewhere, each evaluated only on its own entries."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("shape", [(50, 32), (50, 670)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bitwise_the_sign_split_formula(dtype, shape):
    x = (8.0 * rng_for(17, "sigmoid").standard_normal(shape)).astype(dtype)
    specials = np.array([0.0, -0.0, 1e4, -1e4, np.inf, -np.inf, np.nan, -np.nan], dtype=dtype)
    x.reshape(-1)[: specials.size] = specials
    got = _sigmoid(x)
    assert got.dtype == x.dtype and got.shape == shape
    bits = np.uint32 if dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(got.view(bits), sign_split_sigmoid(x).view(bits))


def test_batched_forward_matches_stepwise_recurrence():
    """The packed scan gives each sequence the outputs of its own chain of
    batch-size-1 steps, and lays the rows out longest sequence first."""
    cfg = CifgConfig(V=12, D=4, H=5)
    model = random_model(cfg, 31)
    seqs = [[0, 9, 1], [0, 7, 4, 11, 3, 1], [0, 5, 5, 1]]
    packed = _pack(seqs, cfg.V)
    assert packed.widths == [3, 3, 2, 1, 1]
    assert packed.inputs.tolist() == [0, 0, 0, 7, 5, 9, 4, 5, 11, 3]
    assert packed.targets.tolist() == [7, 5, 9, 4, 5, 1, 11, 1, 3, 1]
    _, steps = _scan(model, packed)
    R = np.concatenate([s.r for s in steps])[packed.rows]
    logits = np.split(R @ model.W, np.cumsum([len(s) - 1 for s in seqs[:-1]]))

    for b, seq in enumerate(seqs):
        assert logits[b].shape == (len(seq) - 1, cfg.V)
        c, r = np.zeros(cfg.H), np.zeros(cfg.D)
        for t, token in enumerate(seq[:-1]):
            out = step_one(model, model.W[:, token], c, r)
            c, r = out.c[0], out.r[0]
            np.testing.assert_allclose(logits[b][t], model.W.T @ r, rtol=0, atol=1e-12)


REFERENCE_V = 23
# Batches the property below always covers: one sentence, equal lengths,
# 2-token sentences only, one long outlier among short ones, duplicates.
EDGE_BATCHES = [
    [[0, 5, 1]],
    [[0, 4, 9, 1], [0, 8, 8, 1], [0, 3, 21, 1]],
    [[0, 1], [0, 7], [0, 22]],
    [[0, 6, 1], [0] + [3 + k % 20 for k in range(40)] + [1], [0, 4, 5, 1], [0, 9]],
    [[0, 7, 12, 1], [0, 7, 12, 1], [0, 5, 1], [0, 7, 12, 1]],
]

token_batches = st.lists(
    st.lists(st.integers(0, REFERENCE_V - 1), min_size=2, max_size=12), min_size=1, max_size=9
)


def assert_close_to_reference(got, want):
    """Agreement to 1e-12 relative to the reference's largest magnitude (at least 1)."""
    scale = max(1.0, float(np.abs(want).max()))
    assert float(np.abs(np.asarray(got) - want).max()) <= 1e-12 * scale


@given(batch=token_batches, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
@example(batch=EDGE_BATCHES[0], seed=1)
@example(batch=EDGE_BATCHES[1], seed=2)
@example(batch=EDGE_BATCHES[2], seed=3)
@example(batch=EDGE_BATCHES[3], seed=4)
@example(batch=EDGE_BATCHES[4], seed=5)
def test_packed_kernel_matches_padded_reference(batch, seed):
    """Loss and every gradient tensor of the packed kernel against the
    padded one it replaced, in float64."""
    cfg = CifgConfig(V=REFERENCE_V, D=3, H=4)
    model = random_model(cfg, seed)
    loss, grads = loss_and_grads(model, batch)
    ref_loss, ref_grads = padded_reference.loss_and_grads(model, batch)
    assert_close_to_reference(loss, np.array(ref_loss))
    for name in TENSOR_ORDER:
        assert_close_to_reference(getattr(grads, name), getattr(ref_grads, name))


@given(batch=token_batches, seed=st.integers(0, 2**16), chunk=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
@example(batch=EDGE_BATCHES[3], seed=4, chunk=256)
@example(batch=EDGE_BATCHES[4], seed=5, chunk=3)
def test_scoring_logits_match_padded_reference(batch, seed, chunk):
    """The logits target_ranks and topk_candidates rank, chunk by chunk in
    sequence order, against the padded reference's real positions."""
    cfg = CifgConfig(V=REFERENCE_V, D=3, H=4)
    model = random_model(cfg, seed)
    got = np.concatenate([logits for _, logits in _real_logits(model, batch, chunk)])
    want = padded_reference.real_logits(model, batch)
    specials = np.isneginf(want)
    np.testing.assert_array_equal(np.isneginf(got), specials)
    assert specials[:, :NUM_SPECIALS].all() and not specials[:, NUM_SPECIALS:].any()
    assert_close_to_reference(got[~specials], want[~specials])


# ---------------------------------------------------------------------------
# Loss


class TestLoss:
    def test_zero_model_loss_is_log_vocab(self):
        cfg = CifgConfig(V=11, D=3, H=4)
        model = constant_model(cfg, 0.0)
        batch = [[0, 5, 6, 1], [0, 9, 1], [0, 3, 4, 5, 6, 1]]
        loss, _ = loss_and_grads(model, batch)
        assert loss == pytest.approx(math.log(11), rel=0, abs=1e-12)

    def test_duplicating_the_batch_leaves_the_mean_unchanged(self):
        cfg = CifgConfig(V=9, D=3, H=4)
        model = random_model(cfg, 77)
        batch = [[0, 4, 7, 1], [0, 8, 1], [0, 3, 3, 5, 1]]
        once, _ = loss_and_grads(model, batch)
        twice, _ = loss_and_grads(model, batch + batch)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_mean_is_weighted_by_prediction_positions(self):
        """Mixed-length batches average over positions, not over sentences."""
        cfg = CifgConfig(V=9, D=3, H=4)
        model = random_model(cfg, 78)
        short = [0, 4, 1]
        long = [0, 8, 3, 5, 6, 1]
        l_short, _ = loss_and_grads(model, [short])
        l_long, _ = loss_and_grads(model, [long])
        l_both, _ = loss_and_grads(model, [short, long])
        n_s, n_l = len(short) - 1, len(long) - 1
        expected = (n_s * l_short + n_l * l_long) / (n_s + n_l)
        assert l_both == pytest.approx(expected, rel=1e-12)

    def test_loss_is_deterministic_bitwise(self):
        cfg = CifgConfig(V=10, D=4, H=4)
        model = random_model(cfg, 5)
        batch = [[0, 4, 5, 1], [0, 6, 1]]
        loss_a, grads_a = loss_and_grads(model, batch)
        loss_b, grads_b = loss_and_grads(model, batch)
        assert loss_a == loss_b
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(
                getattr(grads_a, name), getattr(grads_b, name)
            )

    def test_rejects_short_sequences_and_bad_ids(self):
        cfg = CifgConfig(V=8, D=3, H=3)
        model = random_model(cfg, 6)
        with pytest.raises(ValueError):
            loss_and_grads(model, [[0]])
        with pytest.raises(ValueError, match="out of range"):
            loss_and_grads(model, [[0, 8, 1]])
        with pytest.raises(ValueError, match="out of range"):
            loss_and_grads(model, [[0, -1, 1]])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_loss_is_positive_and_finite(self, seed):
        cfg = CifgConfig(V=14, D=3, H=4)
        model = random_model(cfg, seed)
        rng = rng_for(seed, "batch")
        batch = [
            [0] + [int(w) for w in rng.integers(3, 14, size=rng.integers(1, 6))] + [1]
            for _ in range(3)
        ]
        loss, grads = loss_and_grads(model, batch)
        assert math.isfinite(loss) and loss > 0
        assert all(np.all(np.isfinite(getattr(grads, n))) for n in TENSOR_ORDER)


def test_gradients_match_finite_differences():
    """Backprop through the full unrolled recurrence against central
    differences on a small configuration; the tied embedding/output matrix
    receives both its input-path and output-path contributions, so any
    missing term shows up here."""
    cfg = CifgConfig(V=8, D=3, H=4)
    model = random_model(cfg, 123, dtype=np.float64)
    batch = [[0, 5, 3, 1], [0, 6, 1]]

    def loss_fn(vec):
        return loss_and_grads(unflatten(cfg, vec), batch)[0]

    _, grads = loss_and_grads(model, batch)
    numeric = finite_diff_grad(loss_fn, flatten(model))
    analytic = flatten(grads)
    denom = np.maximum(np.abs(numeric), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# Shapes / parameter bookkeeping


class TestShapes:
    def test_param_count_matches_tensor_sizes(self):
        cfg = CifgConfig(V=50, D=7, H=9)
        total = sum(int(np.prod(s)) for s in tensor_shapes(cfg).values())
        assert param_count(cfg) == total
        assert flatten(init_model(cfg, seed=0)).size == total

    def test_flatten_unflatten_roundtrip(self):
        cfg = CifgConfig(V=20, D=4, H=6)
        model = init_model(cfg, seed=9, dtype=np.float64)
        rebuilt = unflatten(cfg, flatten(model))
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(
                getattr(model, name), getattr(rebuilt, name)
            )

    def test_every_tensor_is_a_view_of_the_flat_vector(self, tmp_path):
        cfg = CifgConfig(V=20, D=4, H=6)
        model = init_model(cfg, seed=9)
        save_checkpoint(tmp_path / "m.ckpt", model)
        _, grads = loss_and_grads(model, [[0, 5, 7, 1], [0, 9, 1]])
        built = {
            "init_model": model,
            "astype": model.astype(np.float64),
            "load_checkpoint": load_checkpoint(tmp_path / "m.ckpt"),
            "dequantize": dequantize(quantize(model)),
            "loss_and_grads": grads,
        }
        for how, m in built.items():
            flat = flatten(m)
            assert flat is m.params and flat.flags.c_contiguous, how
            assert flat.size == param_count(cfg), how
            for name in TENSOR_ORDER:
                assert np.shares_memory(getattr(m, name), flat), (how, name)
        model.P[0, 0] = 7.0
        assert flatten(model)[-cfg.D * cfg.H] == 7.0  # P is the last tensor in TENSOR_ORDER

    def test_unflatten_wraps_without_copying(self):
        cfg = CifgConfig(V=10, D=3, H=3)
        vec = np.arange(param_count(cfg), dtype=np.float64)
        model = unflatten(cfg, vec)
        assert flatten(model) is vec
        np.testing.assert_array_equal(model.W.ravel(), vec[: cfg.V * cfg.D])

    def test_unflatten_rejects_wrong_length(self):
        cfg = CifgConfig(V=10, D=3, H=3)
        with pytest.raises(ValueError):
            unflatten(cfg, np.zeros(param_count(cfg) + 1))

    def test_init_is_seed_deterministic_and_tensorwise_independent(self):
        cfg = CifgConfig(V=15, D=4, H=5)
        a = init_model(cfg, seed=3)
        b = init_model(cfg, seed=3)
        c = init_model(cfg, seed=4)
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(a.W, c.W)
        # distinct tensors must not share a stream
        assert not np.array_equal(a.Wi.ravel()[:5], a.Wc.ravel()[:5])

    def test_astype_converts_every_tensor(self):
        cfg = CifgConfig(V=10, D=3, H=3)
        model = init_model(cfg, seed=1, dtype=np.float32)
        wide = model.astype(np.float64)
        assert wide.dtype == np.float64
        assert model.dtype == np.float32
        np.testing.assert_allclose(wide.W, model.W, rtol=0, atol=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CifgConfig(V=0, D=3, H=3)
        with pytest.raises(ValueError):
            CifgConfig(V=10, D=-1, H=3)


# ---------------------------------------------------------------------------
# Prediction


class TestPrediction:
    def test_zero_model_returns_uniform_lowest_word_ids(self):
        cfg = CifgConfig(V=11, D=3, H=4)
        model = constant_model(cfg, 0.0)
        out = predict_topk(model, [0], 3)
        assert [i for i, _ in out] == [3, 4, 5]
        for _, p in out:
            assert p == pytest.approx(1.0 / 11, rel=0, abs=1e-15)

    def test_probabilities_sorted_and_specials_excluded(self):
        cfg = CifgConfig(V=30, D=4, H=5)
        model = random_model(cfg, 41)
        out = predict_topk(model, [0, 12, 7], 10)
        ids = [i for i, _ in out]
        probs = [p for _, p in out]
        assert len(out) == 10
        assert min(ids) >= NUM_SPECIALS
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 < p <= 1.0 for p in probs)

    def test_batched_candidates_agree_with_per_context_prediction(self):
        """The vectorized evaluation path must rank exactly like the
        one-context path at every position."""
        cfg = CifgConfig(V=25, D=4, H=5)
        model = random_model(cfg, 55)
        rng = rng_for(8, "seqs")
        seqs = [
            [0] + [int(w) for w in rng.integers(3, 25, size=n)] + [1]
            for n in (1, 3, 5, 2)
        ]
        rows = topk_candidates(model, seqs, k=6)
        assert len(rows) == len(seqs)
        for seq, row in zip(seqs, rows):
            assert row.shape == (len(seq) - 1, 6)
            for j in range(1, len(seq)):
                expected = [i for i, _ in predict_topk(model, seq[:j], 6)]
                assert list(row[j - 1]) == expected

    def test_candidates_chunking_is_transparent(self):
        cfg = CifgConfig(V=15, D=3, H=4)
        model = random_model(cfg, 17)
        seqs = [[0, 5, 9, 1] for _ in range(7)]
        whole = topk_candidates(model, seqs, k=4, chunk=256)
        pieces = topk_candidates(model, seqs, k=4, chunk=2)
        for a, b in zip(whole, pieces):
            np.testing.assert_array_equal(a, b)

    def test_candidate_rows_do_not_keep_the_full_sort_alive(self):
        cfg = CifgConfig(V=40, D=3, H=4)
        model = random_model(cfg, 19)
        seqs = [[0, 5, 9, 12, 1], [0, 7, 1], [0, 30, 31, 32, 33, 1]]
        for row in topk_candidates(model, seqs, k=3, chunk=2):
            assert row.base is None or row.base.shape[-1] == 3

    def test_context_and_k_validation(self):
        cfg = CifgConfig(V=10, D=3, H=3)
        model = random_model(cfg, 2)
        with pytest.raises(ValueError, match="empty context"):
            predict_topk(model, [], 1)
        with pytest.raises(ValueError):
            predict_topk(model, [0], 0)
        with pytest.raises(ValueError):
            predict_topk(model, [0], 8)  # only V-3 = 7 real words
        assert len(predict_topk(model, [0], 7)) == 7


# ---------------------------------------------------------------------------
# Quantization


class TestQuantization:
    def test_roundtrip_error_within_half_step(self):
        cfg = CifgConfig(V=40, D=6, H=8)
        model = init_model(cfg, seed=21, dtype=np.float32)
        q = quantize(model)
        back = dequantize(q)
        for name in TENSOR_ORDER:
            x = getattr(model, name).astype(np.float64)
            err = np.abs(getattr(back, name).astype(np.float64) - x).max()
            span = float(x.max() - x.min())
            assert err <= span / 510.0 + 1e-9
            assert q.codes[name].dtype == np.int8

    def test_constant_tensor_reconstructs_exactly(self):
        cfg = CifgConfig(V=6, D=2, H=3)
        model = constant_model(cfg, -0.625, dtype=np.float32)
        back = dequantize(quantize(model))
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(
                getattr(back, name), getattr(model, name)
            )

    def test_quantize_rejects_nonfinite(self):
        cfg = CifgConfig(V=6, D=2, H=3)
        model = constant_model(cfg, 0.5, dtype=np.float32)
        model.Wc[0, 0] = np.inf
        with pytest.raises(ValueError, match="numeric overflow"):
            quantize(model)

    def test_serialized_size_formula(self, tmp_path):
        cfg = CifgConfig(V=32, D=5, H=6)
        q = quantize(init_model(cfg, seed=4))
        path = tmp_path / "model.q8"
        save_quantized(path, q)
        assert os.path.getsize(path) == q.serialized_nbytes()
        expected = 20 + sum(
            8 + int(np.prod(s)) for s in tensor_shapes(cfg).values()
        )
        assert q.serialized_nbytes() == expected

    def test_quantized_file_roundtrip(self, tmp_path):
        cfg = CifgConfig(V=32, D=5, H=6)
        q = quantize(init_model(cfg, seed=4))
        path = tmp_path / "model.q8"
        save_quantized(path, q)
        loaded = load_quantized(path)
        assert loaded.config == cfg
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(loaded.codes[name], q.codes[name])
            assert loaded.scales[name] == q.scales[name]
            assert loaded.zero_points[name] == q.zero_points[name]


# ---------------------------------------------------------------------------
# Checkpoint files


class TestCheckpointIO:
    def test_save_load_save_is_byte_stable(self, tmp_path):
        cfg = CifgConfig(V=18, D=4, H=5)
        model = init_model(cfg, seed=11)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model)
        loaded = load_checkpoint(p1)
        assert loaded.config == cfg
        for name in TENSOR_ORDER:
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(model, name)
            )
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_header_plus_float32_tensors_in_order(self, tmp_path):
        cfg = CifgConfig(V=18, D=4, H=5)
        model = random_model(cfg, 12)  # float64 weights are written as float32
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        header = CHECKPOINT_MAGIC + struct.pack("<IIII", 1, 18, 4, 5)
        body = b"".join(getattr(model, n).astype("<f4").tobytes() for n in TENSOR_ORDER)
        assert path.read_bytes() == header + body

    def test_quantized_file_is_header_plus_scaled_codes_in_order(self, tmp_path):
        cfg = CifgConfig(V=18, D=4, H=5)
        q = quantize(init_model(cfg, seed=12))
        path = tmp_path / "m.q8"
        save_quantized(path, q)
        header = QUANTIZED_MAGIC + struct.pack("<IIII", 1, 18, 4, 5)
        body = b"".join(
            struct.pack("<ff", q.scales[n], q.zero_points[n]) + q.codes[n].tobytes() for n in TENSOR_ORDER
        )
        assert path.read_bytes() == header + body

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIII", 9, 4, 2, 2))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = CifgConfig(V=18, D=4, H=5)
        model = init_model(cfg, seed=11)
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, model)
        clipped = tmp_path / "cut.ckpt"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(clipped)

    def test_float_and_quantized_files_are_distinct(self, tmp_path):
        cfg = CifgConfig(V=12, D=3, H=3)
        model = init_model(cfg, seed=2)
        fp = tmp_path / "m.ckpt"
        qp = tmp_path / "m.q8"
        save_checkpoint(fp, model)
        save_quantized(qp, quantize(model))
        assert fp.read_bytes()[:4] == CHECKPOINT_MAGIC
        assert qp.read_bytes()[:4] == QUANTIZED_MAGIC
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(qp)
        with pytest.raises(ValueError, match="magic"):
            load_quantized(fp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_are_neither_written_nor_read(self, tmp_path, bad):
        cfg = CifgConfig(V=12, D=3, H=3)
        model = init_model(cfg, seed=2)
        model.Uo[1, 2] = bad
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="non-finite weights"):
            save_checkpoint(path, model)
        assert not path.exists()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIII", 1, 12, 3, 3)
                         + model.params.astype("<f4").tobytes())
        with pytest.raises(ValueError, match="non-finite weights"):
            load_checkpoint(path)
