"""Acceptance suite: twelve numbered end-to-end correctness criteria.

Each test covers one criterion and logs a PASS/FAIL line that is printed in
the terminal summary after the run. The desk-scale experiment (criterion 9)
is executed twice inside a session fixture so the determinism criterion can
compare the two passes byte for byte.
"""

import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_sentences, random_token_batch
from fedlm.central import CentralConfig, train_centralized
from fedlm.cifg import (
    CifgConfig,
    dequantize,
    flatten,
    init_model,
    input_preactivations,
    loss_and_grads,
    param_count,
    predict_topk,
    quantize,
    recurrent_step,
    save_quantized,
    tensor_shapes,
    topk_candidates,
    unflatten,
)
from fedlm.corpus import (
    ClientShard,
    CorpusSplit,
    build_vocab,
    synthesize_corpus,
    tokenize,
)
from fedlm.evaluate import jackknife_recall, recalls_topk, write_metrics_csv
from fedlm.fedavg import (
    ClientUpdate,
    FedConfig,
    aggregate,
    aggregation_weights,
    federated_recalls,
    run_federated,
)
from fedlm.ngram import backoff_probs, oracle_predict, predict_topk_ngram, train_ngram
from fedlm.nn_core import finite_diff_grad, make_optimizer, nesterov_step, rng_for
from fedlm.pipeline import run_desk


@contextmanager
def criterion(results, idx, label):
    log = SimpleNamespace(detail="")
    try:
        yield log
    except BaseException as exc:
        results.append((idx, label, "FAIL", log.detail or str(exc).split("\n")[0][:160]))
        raise
    results.append((idx, label, "PASS", log.detail))


# ---------------------------------------------------------------------------
# Desk-scale experiment (criteria 9-11): the full profile of
# scripts/desk_experiment.py, run twice through the same pipeline.run_desk.


def run_desk_pipeline(tmp_dir, tag):
    t0 = time.perf_counter()
    run = run_desk("full")
    elapsed = time.perf_counter() - t0
    assert (len(run.data.train), len(run.data.eval)) == (50000, 5000)
    csv = {}
    for arm, rows in (("central", run.central_rows), ("federated", run.fed_rows)):
        write_metrics_csv(tmp_dir / f"{arm}-{tag}.csv", rows)
        csv[arm] = (tmp_dir / f"{arm}-{tag}.csv").read_bytes()
    csv["compare"] = run.report.as_csv().encode()
    return SimpleNamespace(run=run, csv=csv, elapsed=elapsed)


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("desk")
    first = run_desk_pipeline(tmp_dir, "pass1")
    second = run_desk_pipeline(tmp_dir, "pass2")
    run = first.run
    models = {"central-cifg": run.central_model, "federated-cifg": run.fed_model,
              "trigram": run.trigram, "unigram": run.unigram}
    # exhaustive candidate scan over the whole eval split for the masking
    # criterion: smallest id ever offered by each model at k=3
    min_candidate = {}
    for name, model in models.items():
        lowest = run.vocab.V
        for rows in model.topk_candidates(run.data.eval, 3):
            if rows.size:
                lowest = min(lowest, int(rows.min()))
        min_candidate[name] = lowest
    return SimpleNamespace(first=first, second=second, run=run,
                           recalls=dict(run.report.rows), min_candidate=min_candidate)


# ---------------------------------------------------------------------------
# Degenerate-equivalence experiment (criteria 5 and 11).

def run_degenerate_federated(sentences, mcfg, m0, tmp_dir, tag):
    shard = ClientShard(client_id=0, sentences=sentences)
    states = []
    _, rows = run_federated(
        [shard],
        FedConfig(
            clients_per_round_min=1, clients_per_round_max=1, client_lr=0.25,
            client_batch_size=len(sentences), client_epochs=1, total_rounds=20,
            eligibility_prob=1.0, seed=12, server_lr=1.0, server_momentum=0.0,
            eval_every=5,
        ),
        mcfg,
        eval_population=[shard],
        initial_model=m0,
        on_round=lambda s: states.append(flatten(s.global_model)),
    )
    path = tmp_dir / f"degenerate-{tag}.csv"
    write_metrics_csv(path, rows)
    return states, path.read_bytes()


@pytest.fixture(scope="session")
def degenerate(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("degenerate")
    raw = synthesize_corpus(2, 10, 30, seed=404)
    vocab = build_vocab(raw, 13)
    toks = [tokenize(s, vocab) for s in raw]
    mcfg = CifgConfig(V=vocab.V, D=4, H=6)
    m0 = init_model(mcfg, seed=9, dtype=np.float64)

    fed_states, csv1 = run_degenerate_federated(toks, mcfg, m0, tmp_dir, "pass1")
    _, csv2 = run_degenerate_federated(toks, mcfg, m0, tmp_dir, "pass2")

    data = CorpusSplit(train=toks, test=[], eval=[], seed=0)
    central_states = []
    for steps in range(1, 21):
        model, _ = train_centralized(
            m0, data,
            CentralConfig(lr=0.25, batch_size=len(toks), max_steps=steps,
                          eval_every=steps, seed=0),
        )
        central_states.append(flatten(model))
    return SimpleNamespace(
        fed_states=fed_states, central_states=central_states, csv1=csv1, csv2=csv2
    )


# ---------------------------------------------------------------------------
# The criteria.


def test_c01_gradient_oracle(acceptance_log):
    with criterion(acceptance_log, 1, "gradients match finite differences") as log:
        t0 = time.perf_counter()
        cfg = CifgConfig(V=20, D=4, H=6)
        model = init_model(cfg, seed=71, dtype=np.float64)
        batch = random_token_batch(20, 3, seed=72)

        def loss_fn(vec):
            return loss_and_grads(unflatten(cfg, vec), batch)[0]

        _, grads = loss_and_grads(model, batch)
        numeric_flat = finite_diff_grad(loss_fn, flatten(model), h=1e-5)
        numeric = unflatten(cfg, numeric_flat)
        worst = 0.0
        for name in tensor_shapes(cfg):
            a = getattr(grads, name).ravel()
            n = getattr(numeric, name).ravel()
            rel = np.abs(a - n) / np.maximum(np.abs(n), 1e-8)
            worst = max(worst, float(rel.max()))
        elapsed = time.perf_counter() - t0
        log.detail = f"max rel err {worst:.2e}, {elapsed:.1f}s"
        assert worst < 1e-4
        assert elapsed < 30.0


def test_c02_gate_coupling_is_exact(acceptance_log):
    with criterion(acceptance_log, 2, "forget gate is exactly one minus input gate") as log:
        cfg = CifgConfig(V=9, D=6, H=8)
        worst = 0.0
        calls = 0
        for m in range(20):
            dtype = np.float64 if m % 2 == 0 else np.float32
            model = init_model(cfg, seed=500 + m, dtype=dtype)
            rng = rng_for(600 + m, "state")
            c, r = np.zeros((1, 8), dtype), np.zeros((1, 6), dtype)
            for _ in range(50):
                x = rng.standard_normal((1, 6)).astype(dtype) * 3.0
                if rng.random() < 0.3:  # occasionally restart from a random state
                    c = rng.standard_normal((1, 8)).astype(dtype)
                    r = rng.standard_normal((1, 6)).astype(dtype)
                step = recurrent_step(model, input_preactivations(model, x), c, r)
                worst = max(worst, float(np.abs(step.f + step.i - 1.0).max()))
                c, r = step.c, step.r
                calls += 1
        log.detail = f"max |f+i-1| = {worst} over {calls} calls"
        assert calls == 1000
        assert worst == 0.0


def test_c03_parameter_count(acceptance_log):
    with criterion(acceptance_log, 3, "full-scale parameter count and embedding share") as log:
        cfg = CifgConfig(V=10000, D=96, H=670)
        total = param_count(cfg)
        embedding = 10000 * 96
        log.detail = f"{total:,} params, embedding {embedding / total:.1%}"
        assert total == 1_412_250
        assert embedding * 3 > total * 2  # strictly more than two thirds


def test_c04_quantized_checkpoint_size(acceptance_log, tmp_path):
    with criterion(acceptance_log, 4, "quantized full-scale checkpoint is ~1.4 MB") as log:
        t0 = time.perf_counter()
        cfg = CifgConfig(V=10000, D=96, H=670)
        model = init_model(cfg, seed=13)
        q = quantize(model)
        path = tmp_path / "full.q8"
        save_quantized(path, q)
        size = path.stat().st_size
        elapsed = time.perf_counter() - t0
        log.detail = f"{size:,} bytes, {elapsed:.1f}s"
        assert size == q.serialized_nbytes()
        assert 1_350_000 <= size <= 1_550_000
        assert elapsed < 60.0


def test_c05_degenerate_federated_equals_centralized(acceptance_log, degenerate):
    with criterion(acceptance_log, 5, "one-client full-batch rounds replay centralized SGD") as log:
        assert len(degenerate.fed_states) == 20
        worst = 0.0
        for fed, central in zip(degenerate.fed_states, degenerate.central_states):
            worst = max(worst, float(np.abs(fed - central).max()))
        log.detail = f"max round deviation {worst:.2e} over 20 rounds"
        assert worst <= 1e-12


def test_c06_aggregation_algebra(acceptance_log):
    with criterion(acceptance_log, 6, "aggregation weights convex, fixed point exact, scale-free") as log:
        rng = rng_for(42, "agg")
        counts = [int(n) for n in rng.integers(1, 1000, size=12)]
        vec = rng.standard_normal(400)
        updates = [
            ClientUpdate(client_id=i, weights=rng.standard_normal(400), n_k=n, local_loss=0.0)
            for i, n in enumerate(counts)
        ]
        weight_err = abs(float(aggregation_weights(updates).sum()) - 1.0)
        assert weight_err <= 1e-12

        same = [
            ClientUpdate(client_id=i, weights=vec.copy(), n_k=n, local_loss=0.0)
            for i, n in enumerate(counts)
        ]
        fixed_point_exact = np.array_equal(aggregate(same), vec)
        assert fixed_point_exact

        scaled = [
            ClientUpdate(client_id=u.client_id, weights=u.weights, n_k=u.n_k * 13, local_loss=0.0)
            for u in updates
        ]
        rescale_err = float(np.abs(aggregate(updates) - aggregate(scaled)).max())
        log.detail = (
            f"weight sum err {weight_err:.1e}, fixed point exact, rescale err {rescale_err:.1e}"
        )
        assert rescale_err <= 1e-12


def test_c07_server_momentum_closed_form(acceptance_log):
    with criterion(acceptance_log, 7, "momentum step sizes follow 1.9g, 2.71g, ...") as log:
        n = 64
        opt = make_optimizer("nesterov", lr=1.0, momentum=0.9, size=n)
        g = np.full(n, 0.37)
        w = np.zeros(n)
        deltas = []
        for _ in range(3):
            new_w, opt = nesterov_step(opt, g, w)
            deltas.append(w - new_w)
            w = new_w
        worst = 0.0
        for got, factor in zip(deltas, (1.9, 2.71, 3.439)):
            worst = max(worst, float(np.abs(got - factor * g).max()))
        cumulative = float(np.abs((deltas[0] + deltas[1]) - 4.61 * g).max())
        worst = max(worst, cumulative)
        log.detail = f"max deviation {worst:.2e}"
        assert worst <= 1e-12


def test_c08_ngram_matches_oracle_exhaustively(acceptance_log):
    with criterion(acceptance_log, 8, "n-gram table equals brute-force oracle on all contexts") as log:
        words = [f"w{i}" for i in range(9)]
        raw = make_sentences(20, words, seed=808)
        vocab = build_vocab(raw, 12)
        corpus = [tokenize(s, vocab) for s in raw]
        contexts = [[]]
        seen = {()}
        for seq in corpus:
            for j in range(1, len(seq)):
                key = tuple(seq[:j])
                if key not in seen:
                    seen.add(key)
                    contexts.append(list(key))
        checked = 0
        worst_sum = 0.0
        for order in (1, 2, 3):
            table = train_ngram(corpus, order, 0.75, vocab.V)
            k = vocab.V - 3
            for ctx in contexts:
                got = [i for i, _ in predict_topk_ngram(table, ctx, k)]
                want = oracle_predict(corpus, ctx, k, order, 0.75, vocab.V)
                assert got == want, f"order {order}, context {ctx}"
                worst_sum = max(worst_sum, abs(float(backoff_probs(table, ctx).sum()) - 1.0))
                checked += 1
        log.detail = f"{checked} context/order pairs, max |sum-1| {worst_sum:.1e}"
        assert worst_sum <= 1e-9


@pytest.mark.slow  # runs the desk fixture
def test_c09_trained_models_beat_unigram(acceptance_log, desk):
    with criterion(acceptance_log, 9, "desk-scale run: both recurrent models beat unigram by 5+ points") as log:
        u1 = desk.recalls["unigram"][1]
        c1 = desk.recalls["central-cifg"][1]
        f1 = desk.recalls["federated-cifg"][1]
        log.detail = (
            f"top-1 unigram {u1:.3f}, central {c1:.3f}, federated {f1:.3f}; "
            f"{desk.first.elapsed:.0f}s"
        )
        assert c1 >= u1 + 0.05
        assert f1 >= u1 + 0.05
        # top-3 never below top-1: final evaluations and every metrics row
        for recalls in desk.recalls.values():
            assert recalls[3] >= recalls[1]
        for row in desk.run.central_rows + desk.run.fed_rows:
            assert row.top3 >= row.top1
        assert desk.first.elapsed < 1800.0


@pytest.mark.slow  # runs the desk fixture
def test_c10_special_tokens_never_offered(acceptance_log, desk):
    with criterion(acceptance_log, 10, "start/end/unknown tokens never appear in candidates") as log:
        assert all(lowest >= 3 for lowest in desk.min_candidate.values()), (
            f"special token offered: {desk.min_candidate}"
        )
        # adversarial model whose logits love the special tokens
        hostile = init_model(desk.run.model_config, seed=3)
        hostile.W[:, :3] = 8.0  # specials get by far the largest logits
        sample = desk.run.data.eval[:200]
        lowest = min(int(rows.min()) for rows in topk_candidates(hostile, sample, 3))
        assert lowest >= 3
        direct = predict_topk(hostile, [0], 5)
        assert min(i for i, _ in direct) >= 3
        log.detail = f"lowest candidate id {min(desk.min_candidate.values())} (specials are 0-2)"


@pytest.mark.slow  # runs the desk fixture
def test_c11_reruns_are_byte_identical(acceptance_log, desk, degenerate):
    with criterion(acceptance_log, 11, "metrics files identical across reruns") as log:
        assert degenerate.csv1 == degenerate.csv2
        assert desk.first.csv == desk.second.csv  # central and federated metrics, compare report
        sizes = ", ".join(f"{name} {len(data)}B" for name, data in desk.first.csv.items())
        log.detail = f"{sizes}, degenerate {len(degenerate.csv1)}B"


def test_c12_jackknife_error_bars(acceptance_log):
    with criterion(acceptance_log, 12, "jackknife stderr: zero on clones, shrinks with clients") as log:
        cfg = CifgConfig(V=30, D=4, H=5)
        model = init_model(cfg, seed=88)
        base = random_token_batch(30, 8, seed=89)
        clones = [ClientShard(client_id=i, sentences=list(base)) for i in range(6)]
        cloned = federated_recalls(model, clones, (3,))[3]
        assert cloned.stderr == 0.0

        def synth_clients(seed, n):
            rng = rng_for(seed, "jk-clients")
            out = []
            for _ in range(n):
                p = int(rng.integers(30, 70))
                rate = float(rng.uniform(0.1, 0.6))
                out.append((int(rng.binomial(p, rate)), p))
            return out

        wins = 0
        for seed in range(10):
            small = jackknife_recall(synth_clients(seed, 8))
            big = jackknife_recall(synth_clients(seed + 1000, 32))
            wins += big.stderr < small.stderr
        log.detail = f"clone stderr {cloned.stderr}, quadrupling reduced stderr {wins}/10 seeds"
        assert wins >= 9


# ---------------------------------------------------------------------------
# Supplementary end-to-end property: quantization barely moves recall.


@pytest.mark.slow  # runs the desk fixture
def test_quantized_model_recall_stays_close(desk):
    q = dequantize(quantize(desk.run.central_model))
    top1_q = recalls_topk(q, desk.run.data.eval, (1,))[1]
    top1_f = desk.recalls["central-cifg"][1]
    assert abs(top1_q - top1_f) < 0.005
