"""FederatedAveraging orchestration: eligibility-based client sampling,
local SGD on each selected shard, example-count-weighted aggregation of the
returned weights, and a Nesterov-momentum server update driven by the
pseudo-gradient (current global weights minus the aggregated average).

Privacy structure: the server-side code in this module touches client data
only through ClientUpdate values (weights, example count, mean loss); shard
sentences are read exclusively inside client_round and federated evaluation
tasks, never by the aggregation/update path.

Setting server momentum to 0 and server lr to 1 makes the round update
exactly the weighted average of client weights (pure FederatedAveraging);
the degenerate single-client, full-batch configuration then reproduces
centralized SGD step for step, which is the key correctness lever the tests
pull on.

Both arms train with `sgd_steps`, the one minibatch-SGD loop, and write
their metrics rows with `eval_row`; the centralized arm scores its eval split
as one held-out cache, so its `top1_stderr` is 0.0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .cifg import CifgConfig, CifgModel, init_model, loss_and_grads, param_count
from .corpus import ClientShard
from .evaluate import MetricsRow, jackknife_recall, multi_k_stats, scoring_during_training
from .nn_core import OptimizerState, derive_seed, make_optimizer, nesterov_step, rng_for, sgd_step


@dataclass
class FedConfig:
    clients_per_round_min: int = 100
    clients_per_round_max: int = 500
    client_lr: float = 0.5
    client_batch_size: int = 50
    client_epochs: int = 1
    total_rounds: int = 100
    eligibility_prob: float = 1.0
    seed: int = 0
    server_lr: float = 1.0
    server_momentum: float = 0.9
    eval_every: int = 25

    def __post_init__(self):
        if self.clients_per_round_min > self.clients_per_round_max:
            raise ValueError("clients_per_round_min must not exceed max")
        if self.clients_per_round_min < 1:
            raise ValueError("clients_per_round_min must be at least 1")
        if not self.client_lr >= 0:  # NaN fails these comparisons too
            raise ValueError("client_lr must be non-negative")
        if not self.server_lr > 0:
            raise ValueError("server_lr must be positive")
        if not 0.0 <= self.eligibility_prob <= 1.0:
            raise ValueError("eligibility_prob must be in [0, 1]")
        if self.client_batch_size < 1 or self.client_epochs < 1:
            raise ValueError("client batch size and epochs must be at least 1")
        if self.total_rounds < 0 or self.eval_every < 1:
            raise ValueError("total_rounds must be >= 0 and eval_every >= 1")


@dataclass
class ClientUpdate:
    client_id: int
    weights: np.ndarray  # flat local weights after training (the global buffer itself if client_lr is 0)
    n_k: int  # sentences processed per epoch
    local_loss: float


@dataclass
class ServerState:
    round: int
    global_model: CifgModel
    opt: OptimizerState


def sample_clients(population: list, round_idx: int, config: FedConfig) -> list:
    """Select this round's cohort.

    Every client is independently available with eligibility_prob (the
    charging/idle/unmetered gate collapsed to one Bernoulli draw), then up
    to clients_per_round_max of the available ones are drawn uniformly
    without replacement. Fewer than clients_per_round_min available means
    the round fails to close: an empty list is returned and the caller moves
    on to the next round index.
    """
    if len(population) < config.clients_per_round_min:
        raise ValueError("population too small")
    rng = rng_for(config.seed, "sample", round_idx)
    available = np.flatnonzero(rng.random(len(population)) < config.eligibility_prob)
    if len(available) < config.clients_per_round_min:
        return []
    count = min(len(available), config.clients_per_round_max)
    chosen = rng.choice(available, size=count, replace=False)
    return [population[i] for i in sorted(chosen)]


def sgd_steps(model: CifgModel, sentences: list, batch_size: int, lr: float, seed: int, tags: tuple, where: str):
    """The one minibatch-SGD loop, run by client_round and
    central.train_centralized for as many steps as they take from it.

    Epoch e visits the non-empty sentences in the order
    rng_for(seed, *tags, e).permutation(n), in consecutive slices of
    batch_size; each step yields (model after it, batch, loss), and lr 0 only
    measures the loss. A loss that is non-finite or above 100 ln V (a uniform
    model scores ln V) raises FloatingPointError naming the step and where.
    """
    limit = 100 * math.log(model.config.V)
    step = 0
    for epoch in count():
        order = rng_for(seed, *tags, epoch).permutation(len(sentences))
        for start in range(0, len(sentences), batch_size):
            batch = [sentences[i] for i in order[start : start + batch_size]]
            step += 1
            with np.errstate(all="ignore"):  # divergence is reported by the loss check
                loss, grads = loss_and_grads(model, batch)
                if not loss <= limit:  # NaN fails the comparison too
                    raise FloatingPointError(
                        f"non-finite or runaway training loss {loss:.3g} at step {step} of {where} "
                        f"(limit 100 ln V = {limit:.4g})"
                    )
                if lr > 0:
                    model = CifgModel(model.config, sgd_step(model.params, grads.params, lr))
            yield model, batch, loss


def client_round(global_model: CifgModel, shard: ClientShard, config: FedConfig, round_idx: int = 0) -> ClientUpdate:
    """Local training on one shard: client_epochs shuffled passes in
    minibatches of client_batch_size, plain SGD at client_lr, starting from
    the broadcast global weights. Returns the resulting weights (not a
    delta), the shard's per-epoch example count, and the mean batch loss.
    """
    if shard.n_k < 1:
        raise ValueError("client shard is empty")
    steps = sgd_steps(global_model, shard.sentences, config.client_batch_size, config.client_lr, config.seed,
                      ("client", shard.client_id, round_idx), f"client {shard.client_id}, round {round_idx + 1}")
    current = global_model
    losses = []
    for current, _, loss in islice(steps, config.client_epochs * math.ceil(shard.n_k / config.client_batch_size)):
        losses.append(loss)
    return ClientUpdate(
        client_id=shard.client_id,
        weights=current.params,
        n_k=shard.n_k,
        local_loss=float(np.mean(losses)),
    )


def aggregation_weights(updates: list) -> np.ndarray:
    """Convex weights n_k / N in ascending client_id order."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.n_k for u in ordered)
    return np.array([u.n_k / total for u in ordered])


def aggregate(updates: list) -> np.ndarray:
    """Example-count-weighted average of client weights.

    Computed in anchored form, anchor + sum_k lambda_k * (w_k - anchor) with
    the lowest-client-id update as anchor and summation in ascending
    client_id order. Algebraically identical to sum_k lambda_k * w_k (the
    lambdas sum to 1) but with the property the protocol tests lean on: when
    every client returns the same weights, the aggregate is that vector
    bit-for-bit, no floating-point residue. The fixed order makes the result
    bit-deterministic regardless of how callers ordered the updates.
    """
    if not updates:
        raise ValueError("no updates")
    ordered = sorted(updates, key=lambda u: u.client_id)
    shape = ordered[0].weights.shape
    if any(u.weights.shape != shape for u in ordered):
        raise ValueError("client updates disagree on parameter shape")
    lambdas = aggregation_weights(updates)
    anchor = ordered[0].weights
    acc = np.zeros_like(anchor)
    for lam, u in zip(lambdas, ordered):
        acc += lam * (u.weights - anchor)
    return anchor + acc


def server_update(state: ServerState, averaged: np.ndarray, round_idx: int = None) -> ServerState:
    """One server step on the pseudo-gradient g = w_t - averaged. Weights or
    velocity that overflow raise FloatingPointError naming the server step
    and the 1-based round; round_idx defaults to state.round, as when every
    earlier round closed."""
    w = state.global_model.params
    if averaged.shape != w.shape:
        raise ValueError("averaged weights disagree with global shape")
    pseudo_grad = w - averaged
    with np.errstate(all="ignore"):  # reported below, at the server
        new_w, new_opt = nesterov_step(state.opt, pseudo_grad, w)
    if not (np.isfinite(new_w).all() and np.isfinite(new_opt.velocity).all()):
        round_number = (state.round if round_idx is None else round_idx) + 1
        raise FloatingPointError(
            f"non-finite server weights or velocity at server step {state.round + 1}, round {round_number}"
        )
    return ServerState(
        round=state.round + 1,
        global_model=CifgModel(state.global_model.config, new_w),
        opt=new_opt,
    )


def _per_client_k_stats(model: CifgModel, shards: list, ks: tuple) -> list:
    """Per-shard (hits-per-k, positions): the federated evaluation task run
    on each client's local cache."""
    return [multi_k_stats(model, shard.sentences, ks) for shard in shards]


def federated_recalls(model: CifgModel, eval_population: list, ks: tuple) -> dict:
    """{k: token-weighted top-k recall over per-client evaluations with a
    leave-one-client-out jackknife standard error}, from one pass over the
    clients for all ks."""
    if not eval_population:
        raise ValueError("empty evaluation population")
    stats = _per_client_k_stats(model, eval_population, ks)
    return {k: jackknife_recall([(hits[k], pos) for hits, pos in stats]) for k in ks}


def eval_row(model, caches: list, phase: str, index: int, examples: int, loss: float, t0: float) -> MetricsRow:
    """The one builder of metrics rows, for both arms: top-1/top-3 recall
    pooled over the held-out caches, with the jackknife stderr of top-1 (0.0
    from a single cache). Recalls are NaN when no cache holds a scored
    position. index is the step (central) or round (federated)."""
    unit = "step" if phase == "central" else "round"
    with scoring_during_training(f"{unit} {index}"):
        stats = _per_client_k_stats(model, caches, (1, 3))
    top1 = top3 = float("nan")
    stderr = 0.0
    if any(positions for _, positions in stats):
        r1, r3 = (jackknife_recall([(hits[k], pos) for hits, pos in stats]) for k in (1, 3))
        top1, stderr, top3 = r1.recall, r1.stderr, r3.recall
    return MetricsRow(
        phase=phase, step_or_round=index, examples_seen=examples, loss=loss,
        top1=top1, top3=top3, top1_stderr=stderr,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )


def run_federated(
    population: list,
    fed_config: FedConfig,
    model_config: CifgConfig,
    eval_population: list = (),
    initial_model: CifgModel = None,
    on_round=None,
) -> tuple:
    """The round loop: sample → local train → aggregate → server update.

    eval_population supplies held-out client shards for the evaluation rows:
    one every eval_every rounds, one at round 0 so improvement over
    initialization is visible, and one of the returned model at the round
    that closed last. Without initial_model the global model starts from a
    float32 init seeded by derive_seed(seed, "global-init").
    on_round, when given, observes each post-update ServerState — the
    protocol equivalence tests use it to walk the model sequence without
    re-running rounds.
    """
    if initial_model is None:
        initial_model = init_model(model_config, derive_seed(fed_config.seed, "global-init"))
    opt = make_optimizer(
        "nesterov", fed_config.server_lr, fed_config.server_momentum,
        param_count(model_config), dtype=initial_model.dtype,
    )
    state = ServerState(round=0, global_model=initial_model, opt=opt)

    t0 = time.perf_counter()
    rows = [eval_row(state.global_model, eval_population, "federated", 0, 0, float("nan"), t0)]
    examples = finished = 0
    for round_idx in range(fed_config.total_rounds):
        cohort = sample_clients(population, round_idx, fed_config)
        if not cohort:
            continue  # round failed to close; next index retries
        updates = [client_round(state.global_model, shard, fed_config, round_idx) for shard in cohort]
        state = server_update(state, aggregate(updates), round_idx)
        examples += sum(u.n_k for u in updates) * fed_config.client_epochs
        mean_loss = float(np.mean([u.local_loss for u in updates]))
        if on_round is not None:
            on_round(state)
        finished = round_idx + 1
        if finished % fed_config.eval_every == 0:
            rows.append(eval_row(state.global_model, eval_population, "federated", finished, examples, mean_loss, t0))
    if rows[-1].step_or_round != finished:  # the returned model has no row yet
        rows.append(eval_row(state.global_model, eval_population, "federated", finished, examples, mean_loss, t0))
    return state.global_model, rows
