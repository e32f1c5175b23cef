"""Tests for the federated averaging protocol.

The protocol-critical algebra is pinned exactly:
  * aggregation weights are convex (sum 1) and scale-free in the example
    counts,
  * a cohort that all returns the same weights leaves the aggregate
    bit-identical to those weights,
  * with momentum 0 and server lr 1 a round is exactly "replace the global
    model with the weighted client average",
  * the degenerate one-client full-batch setup walks the same trajectory as
    the centralized loop.
"""

import numpy as np
import pytest

from fedlm.central import CentralConfig, train_centralized
from fedlm.cifg import CifgConfig, flatten, init_model
from fedlm.corpus import ClientShard, CorpusSplit
from fedlm.fedavg import (
    ClientUpdate,
    FedConfig,
    ServerState,
    aggregate,
    aggregation_weights,
    client_round,
    federated_recalls,
    run_federated,
    sample_clients,
    server_update,
)
from fedlm.nn_core import derive_seed, make_optimizer, rng_for, sgd_step
from fedlm.cifg import loss_and_grads, unflatten


def sentences_for(seed, n, vocab=12):
    rng = rng_for(seed, "fed-data")
    return [
        [0] + [int(w) for w in rng.integers(3, vocab, size=rng.integers(1, 5))] + [1]
        for _ in range(n)
    ]


def update(cid, weights, n_k):
    return ClientUpdate(client_id=cid, weights=np.asarray(weights, dtype=np.float64),
                        n_k=n_k, local_loss=0.0)


class TestSampling:
    CFG = FedConfig(clients_per_round_min=1, clients_per_round_max=5, seed=4)

    def test_deterministic_per_round(self):
        pop = list(range(30))
        a = sample_clients(pop, 3, self.CFG)
        b = sample_clients(pop, 3, self.CFG)
        assert a == b
        assert a != sample_clients(pop, 4, self.CFG)

    def test_cohort_size_capped_and_sorted(self):
        pop = list(range(30))
        cohort = sample_clients(pop, 0, self.CFG)
        assert len(cohort) == 5
        assert cohort == sorted(cohort)

    def test_full_participation_when_cap_covers_population(self):
        cfg = FedConfig(clients_per_round_min=1, clients_per_round_max=100, seed=0)
        pop = list(range(12))
        assert sample_clients(pop, 0, cfg) == pop

    def test_unavailable_rounds_return_empty(self):
        cfg = FedConfig(clients_per_round_min=3, clients_per_round_max=5,
                        eligibility_prob=0.05, seed=9)
        pop = list(range(10))
        assert all(sample_clients(pop, r, cfg) == [] for r in range(50))

    def test_partial_availability_mixes_closed_and_failed_rounds(self):
        cfg = FedConfig(clients_per_round_min=100, clients_per_round_max=200,
                        eligibility_prob=0.5, seed=4)
        pop = list(range(200))
        sizes = [len(sample_clients(pop, r, cfg)) for r in range(30)]
        assert any(s == 0 for s in sizes)
        assert any(s >= 100 for s in sizes)
        assert all(s == 0 or 100 <= s <= 200 for s in sizes)

    def test_population_below_minimum_rejected(self):
        cfg = FedConfig(clients_per_round_min=5, clients_per_round_max=5)
        with pytest.raises(ValueError, match="population too small"):
            sample_clients([1, 2, 3], 0, cfg)


class TestClientRound:
    MCFG = CifgConfig(V=12, D=3, H=4)

    def make(self, n=10):
        model = init_model(self.MCFG, seed=1, dtype=np.float64)
        shard = ClientShard(client_id=7, sentences=sentences_for(3, n))
        return model, shard

    def test_single_batch_is_one_exact_sgd_step(self):
        model, shard = self.make(n=6)
        cfg = FedConfig(clients_per_round_min=1, clients_per_round_max=1,
                        client_lr=0.3, client_batch_size=50, client_epochs=1, seed=2)
        out = client_round(model, shard, cfg, round_idx=5)
        order = rng_for(2, "client", 7, 5, 0).permutation(6)
        batch = [shard.sentences[i] for i in order]
        _, grads = loss_and_grads(model, batch)
        np.testing.assert_array_equal(out.weights, flatten(model) - 0.3 * flatten(grads))
        assert out.client_id == 7
        assert out.n_k == 6

    def test_epochs_replay_hand_sliced_batches(self):
        # 7 sentences in batches of 3: slices 3, 3, 1 per epoch, reshuffled each epoch
        model, shard = self.make(n=7)
        cfg = FedConfig(clients_per_round_min=1, clients_per_round_max=1,
                        client_lr=0.3, client_batch_size=3, client_epochs=2, seed=2)
        out = client_round(model, shard, cfg, round_idx=4)
        w, losses = flatten(model), []
        for epoch in range(2):
            order = rng_for(2, "client", 7, 4, epoch).permutation(7)
            for start in (0, 3, 6):
                batch = [shard.sentences[i] for i in order[start : start + 3]]
                loss, grads = loss_and_grads(unflatten(self.MCFG, w), batch)
                w = sgd_step(w, flatten(grads), 0.3)
                losses.append(loss)
        np.testing.assert_array_equal(out.weights, w)
        assert out.local_loss == float(np.mean(losses))

    def test_zero_learning_rate_returns_broadcast_weights(self):
        model, shard = self.make()
        cfg = FedConfig(clients_per_round_min=1, clients_per_round_max=1,
                        client_lr=0.0, client_batch_size=4, seed=2)
        out = client_round(model, shard, cfg)
        np.testing.assert_array_equal(out.weights, flatten(model))
        assert np.isfinite(out.local_loss)

    def test_bitwise_deterministic_and_round_sensitive(self):
        model, shard = self.make()
        cfg = FedConfig(clients_per_round_min=1, clients_per_round_max=1,
                        client_lr=0.3, client_batch_size=3, seed=2)
        a = client_round(model, shard, cfg, round_idx=0)
        b = client_round(model, shard, cfg, round_idx=0)
        c = client_round(model, shard, cfg, round_idx=1)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.local_loss == b.local_loss
        assert not np.array_equal(a.weights, c.weights)

    def test_empty_shard_rejected(self):
        model, _ = self.make()
        with pytest.raises(ValueError, match="empty"):
            client_round(model, ClientShard(client_id=0, sentences=[]), FedConfig())

    @pytest.mark.filterwarnings("error")
    def test_divergence_names_the_client(self):
        model, shard = self.make()
        # an absurd step size grows the weights multiplicatively until the
        # logits overflow; the loop must abort with a diagnosable error and
        # no numpy warnings
        cfg = FedConfig(clients_per_round_min=1, clients_per_round_max=1,
                        client_lr=1e9, client_batch_size=2, client_epochs=40, seed=2)
        with pytest.raises(FloatingPointError, match="client 7, round 1"):
            client_round(model, shard, cfg)


class TestAggregation:
    def test_weights_are_convex_and_id_ordered(self):
        ups = [update(9, [1.0], 3), update(2, [2.0], 1)]
        lam = aggregation_weights(ups)
        np.testing.assert_allclose(lam, [0.25, 0.75], rtol=0, atol=0)
        assert abs(lam.sum() - 1.0) < 1e-12

    def test_hand_weighted_mean(self):
        # counts 1 and 3 over values 0 and 4: mean = 0.25*0 + 0.75*4 = 3
        ups = [update(0, [0.0], 1), update(1, [4.0], 3)]
        np.testing.assert_allclose(aggregate(ups), [3.0], rtol=0, atol=1e-15)

    def test_identical_updates_are_a_bitwise_fixed_point(self):
        w = rng_for(8, "w").standard_normal(257)
        ups = [update(i, w.copy(), n) for i, n in enumerate((1, 7, 40, 2))]
        np.testing.assert_array_equal(aggregate(ups), w)

    def test_invariant_to_rescaling_example_counts(self):
        rng = rng_for(9, "w")
        ups = [update(i, rng.standard_normal(31), n) for i, n in enumerate((2, 5, 13))]
        scaled = [update(u.client_id, u.weights, u.n_k * 7) for u in ups]
        np.testing.assert_array_equal(aggregate(ups), aggregate(scaled))

    def test_invariant_to_update_ordering(self):
        rng = rng_for(10, "w")
        ups = [update(i, rng.standard_normal(31), n) for i, n in enumerate((2, 5, 13, 1))]
        np.testing.assert_array_equal(aggregate(ups), aggregate(list(reversed(ups))))

    def test_errors(self):
        with pytest.raises(ValueError, match="no updates"):
            aggregate([])
        bad = [update(0, [1.0, 2.0], 1), update(1, [1.0], 1)]
        with pytest.raises(ValueError, match="shape"):
            aggregate(bad)


class TestServerUpdate:
    MCFG = CifgConfig(V=8, D=2, H=2)

    def state(self, momentum, lr=1.0, dtype=np.float64):
        model = init_model(self.MCFG, seed=3, dtype=dtype)
        n = flatten(model).size
        return ServerState(round=0, global_model=model,
                           opt=make_optimizer("nesterov", lr, momentum, n, dtype=np.float64))

    def test_plain_averaging_when_momentum_zero(self):
        # with momentum 0 and lr 1 the new weights are exactly the average
        # (the subtraction w - (w - avg) is exact for nearby values)
        state = self.state(momentum=0.0)
        w = flatten(state.global_model)
        averaged = w * 1.25
        out = server_update(state, averaged)
        np.testing.assert_array_equal(flatten(out.global_model), averaged)
        assert out.round == 1

    def test_momentum_closed_form_step_sizes(self):
        state = self.state(momentum=0.9)
        g = np.full(flatten(state.global_model).size, 0.125)
        w0 = flatten(state.global_model)
        s1 = server_update(state, w0 - g)
        w1 = flatten(s1.global_model)
        np.testing.assert_allclose(w0 - w1, 1.9 * g, rtol=0, atol=1e-12)
        s2 = server_update(s1, w1 - g)
        w2 = flatten(s2.global_model)
        np.testing.assert_allclose(w1 - w2, 2.71 * g, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w0 - w2, 4.61 * g, rtol=0, atol=1e-12)

    def test_momentum_coasts_after_gradient_stops(self):
        state = self.state(momentum=0.5)
        w0 = flatten(state.global_model)
        g = np.full(w0.size, 0.25)
        s1 = server_update(state, w0 - g)
        # zero pseudo-gradient: velocity alone drives the next update
        s2 = server_update(s1, flatten(s1.global_model))
        delta = flatten(s1.global_model) - flatten(s2.global_model)
        np.testing.assert_allclose(delta, 0.5 * 0.5 * g, rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        state = self.state(momentum=0.0)
        with pytest.raises(ValueError, match="shape"):
            server_update(state, np.zeros(3))


class TestRunFederated:
    MCFG = CifgConfig(V=12, D=3, H=4)

    def population(self, n_clients=4, per=6):
        return [
            ClientShard(client_id=i, sentences=sentences_for(20 + i, per))
            for i in range(n_clients)
        ]

    def initial(self):
        return init_model(self.MCFG, derive_seed(5, "global-init"), dtype=np.float64)

    def fed_cfg(self, **kw):
        base = dict(clients_per_round_min=1, clients_per_round_max=4,
                    client_lr=0.2, client_batch_size=3, client_epochs=1,
                    total_rounds=4, eligibility_prob=1.0, seed=5,
                    server_lr=1.0, server_momentum=0.9, eval_every=2)
        base.update(kw)
        return FedConfig(**base)

    def test_zero_rounds_returns_seeded_initial_model(self):
        pop = self.population()
        model, rows = run_federated(pop, self.fed_cfg(total_rounds=0), self.MCFG,
                                    eval_population=pop[:2])
        expected = init_model(self.MCFG, derive_seed(5, "global-init"))
        np.testing.assert_array_equal(flatten(model), flatten(expected))
        assert len(rows) == 1 and rows[0].step_or_round == 0

    def test_rows_and_example_accounting(self):
        pop = self.population(n_clients=3, per=5)
        model, rows = run_federated(pop, self.fed_cfg(), self.MCFG,
                                    eval_population=pop, initial_model=self.initial())
        assert [r.step_or_round for r in rows] == [0, 2, 4]
        assert rows[-1].examples_seen == 4 * 3 * 5  # rounds x clients x shard size
        assert all(r.phase == "federated" for r in rows)
        assert rows[1].top1 >= 0.0 and rows[1].top1_stderr >= 0.0

    def test_bitwise_deterministic(self):
        pop = self.population()
        m1, r1 = run_federated(pop, self.fed_cfg(), self.MCFG, initial_model=self.initial())
        m2, r2 = run_federated(pop, self.fed_cfg(), self.MCFG, initial_model=self.initial())
        np.testing.assert_array_equal(flatten(m1), flatten(m2))
        assert [r.loss for r in r1[1:]] == [r.loss for r in r2[1:]]

    def test_held_out_caches_with_nothing_scored_give_nan_rows(self):
        # a [BOS, EOS] sentence has no scored position: rows read NaN, as central's do
        pop = self.population()
        _, rows = run_federated(pop, self.fed_cfg(), self.MCFG, initial_model=self.initial(),
                                eval_population=[ClientShard(0, [[0, 1]])])
        assert [r.step_or_round for r in rows] == [0, 2, 4]
        assert all(np.isnan(r.top1) and np.isnan(r.top3) and r.top1_stderr == 0.0 for r in rows)

    def test_initial_model_is_respected(self):
        pop = self.population()
        seeded = init_model(self.MCFG, seed=99, dtype=np.float64)
        model, _ = run_federated(pop, self.fed_cfg(total_rounds=0), self.MCFG,
                                 initial_model=seeded)
        np.testing.assert_array_equal(flatten(model), flatten(seeded))

    def test_fully_unavailable_population_trains_nothing(self):
        pop = self.population()
        cfg = self.fed_cfg(eligibility_prob=0.0, clients_per_round_min=1)
        model, rows = run_federated(pop, cfg, self.MCFG, initial_model=self.initial())
        np.testing.assert_array_equal(flatten(model), flatten(self.initial()))
        assert len(rows) == 1  # only the round-0 row

    def test_final_model_is_scored_when_the_last_rounds_fail(self):
        # rounds 0 and 2 close, 1 and 3 fail: no periodic row falls on a
        # closed round after round 0, so the trained model gets its own row
        # at the round that closed last
        pop = self.population(n_clients=10, per=4)
        cfg = FedConfig(clients_per_round_min=6, clients_per_round_max=8, total_rounds=4,
                        eligibility_prob=0.6, eval_every=2, seed=7)
        seen = []
        model, rows = run_federated(pop, cfg, self.MCFG, eval_population=pop[:3],
                                    initial_model=self.initial(), on_round=seen.append)
        assert len(seen) == 2
        assert [r.step_or_round for r in rows] == [0, 3]
        assert rows[-1].examples_seen == sum(s.n_k for r in (0, 2) for s in sample_clients(pop, r, cfg))
        recalls = federated_recalls(model, pop[:3], (1, 3))
        assert (rows[-1].top1, rows[-1].top3) == (recalls[1].recall, recalls[3].recall)

    def test_on_round_observes_every_closed_round(self):
        pop = self.population()
        seen = []
        run_federated(pop, self.fed_cfg(), self.MCFG, on_round=seen.append,
                      initial_model=self.initial())
        assert [s.round for s in seen] == [1, 2, 3, 4]
        assert all(isinstance(s, ServerState) for s in seen)

    def test_one_client_full_batch_replays_centralized_sgd(self):
        """One client holding all data, one full batch per round, momentum 0,
        server lr 1: round t must match centralized SGD step t to float
        accumulation noise."""
        sents = sentences_for(41, 12)
        pop = [ClientShard(client_id=0, sentences=sents)]
        eps = 0.4
        rounds = 5

        central_states = []
        data = CorpusSplit(train=sents, test=[], eval=[], seed=0)
        m0 = init_model(self.MCFG, seed=8, dtype=np.float64)
        cur = m0
        for step in range(rounds):
            # replicate each round's client permutation so both paths see
            # identical batch composition (a full batch either way)
            order = rng_for(6, "client", 0, step, 0).permutation(len(sents))
            batch = [sents[i] for i in order]
            _, grads = loss_and_grads(cur, batch)
            cur = unflatten(self.MCFG, sgd_step(flatten(cur), flatten(grads), eps))
            central_states.append(flatten(cur))

        fed_states = []
        cfg = self.fed_cfg(client_lr=eps, client_batch_size=len(sents),
                           total_rounds=rounds, server_momentum=0.0,
                           server_lr=1.0, seed=6, clients_per_round_max=1)
        run_federated(pop, cfg, self.MCFG, initial_model=m0,
                      on_round=lambda s: fed_states.append(flatten(s.global_model)))

        assert len(fed_states) == rounds
        for c, f in zip(central_states, fed_states):
            np.testing.assert_allclose(f, c, rtol=0, atol=1e-12)


class TestFederatedEval:
    MCFG = CifgConfig(V=12, D=3, H=4)

    def test_duplicated_shards_give_zero_stderr(self):
        model = init_model(self.MCFG, seed=0, dtype=np.float64)
        base = ClientShard(client_id=0, sentences=sentences_for(1, 5))
        pop = [ClientShard(client_id=i, sentences=list(base.sentences)) for i in range(6)]
        result = federated_recalls(model, pop, (3,))[3]
        assert result.stderr == 0.0
        assert not result.degenerate

    def test_single_client_is_flagged_degenerate(self):
        model = init_model(self.MCFG, seed=0, dtype=np.float64)
        pop = [ClientShard(client_id=0, sentences=sentences_for(2, 5))]
        result = federated_recalls(model, pop, (1,))[1]
        assert result.degenerate and result.stderr == 0.0

    def test_empty_population_rejected(self):
        model = init_model(self.MCFG, seed=0, dtype=np.float64)
        with pytest.raises(ValueError, match="empty evaluation population"):
            federated_recalls(model, [], (1,))


class TestFedConfigValidation:
    def test_rejects_inconsistent_settings(self):
        with pytest.raises(ValueError):
            FedConfig(clients_per_round_min=5, clients_per_round_max=2)
        with pytest.raises(ValueError):
            FedConfig(clients_per_round_min=0)
        with pytest.raises(ValueError):
            FedConfig(client_lr=-0.1)
        with pytest.raises(ValueError):
            FedConfig(client_lr=float("nan"))
        with pytest.raises(ValueError):
            FedConfig(server_lr=-1.0)
        with pytest.raises(ValueError):
            FedConfig(server_lr=float("nan"))
        with pytest.raises(ValueError):
            FedConfig(eligibility_prob=1.5)
        with pytest.raises(ValueError):
            FedConfig(client_batch_size=0)
        with pytest.raises(ValueError):
            FedConfig(client_epochs=0)
        with pytest.raises(ValueError):
            FedConfig(total_rounds=-3)
        with pytest.raises(ValueError):
            FedConfig(eval_every=0)


def test_trainers_never_write_into_the_model_they_are_given():
    """Tensors are views of one flat vector and flatten() aliases it, so a
    trainer that stepped in place would corrupt its caller's model."""
    mcfg = CifgConfig(V=12, D=3, H=4)
    model = init_model(mcfg, seed=4, dtype=np.float64)
    before = flatten(model).copy()
    data = CorpusSplit(train=sentences_for(5, 12), test=[], eval=[], seed=0)
    trained, _ = train_centralized(model, data, CentralConfig(lr=0.3, batch_size=4, max_steps=5, seed=1))
    shard = ClientShard(client_id=0, sentences=data.train)
    cfg = FedConfig(clients_per_round_min=1, clients_per_round_max=1, client_lr=0.3, client_batch_size=4, seed=1)
    local = client_round(model, shard, cfg)
    averaged = local.weights.copy()
    state = ServerState(round=0, global_model=model,
                        opt=make_optimizer("nesterov", 1.0, 0.9, before.size, dtype=np.float64))
    stepped = server_update(state, averaged)

    np.testing.assert_array_equal(flatten(model), before)
    np.testing.assert_array_equal(averaged, local.weights)
    for out in (flatten(trained), local.weights, flatten(stepped.global_model)):
        assert not np.shares_memory(out, flatten(model))
        assert not np.array_equal(out, before)
