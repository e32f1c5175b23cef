"""Centralized minibatch-SGD training loop with periodic evaluation.

Plain SGD, no weight decay, no momentum, fixed learning rate. Batches are
consecutive slices of a deterministic per-epoch shuffle, so the whole run is
a pure function of (initial model, data, config).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cifg import CifgModel, loss_and_grads
from .corpus import CorpusSplit, is_trainable
from .evaluate import MetricsRow, multi_k_stats, scoring_during_training
from .nn_core import rng_for, sgd_step


@dataclass
class CentralConfig:
    lr: float = 1e-3
    batch_size: int = 50
    max_steps: int = 1000
    eval_every: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_steps < 0 or self.eval_every < 1:
            raise ValueError("max_steps must be >= 0 and eval_every >= 1")


def _eval_recalls(model: CifgModel, data: list, step: int) -> tuple:
    if not data:
        return float("nan"), float("nan")
    with scoring_during_training(f"step {step}"):
        hits, positions = multi_k_stats(model, data, (1, 3))
    if positions == 0:
        return float("nan"), float("nan")
    return hits[1] / positions, hits[3] / positions


def train_centralized(model: CifgModel, data: CorpusSplit, config: CentralConfig) -> tuple:
    """Run config.max_steps SGD steps over data.train, evaluating top-1/top-3
    recall on data.eval every config.eval_every steps.

    Returns (trained model, metric rows). The first row reports the initial
    model at step 0 with loss nan; later rows carry the mean training batch
    loss since the previous row. A non-finite loss aborts with
    FloatingPointError rather than training on garbage.
    """
    train = [s for s in data.train if is_trainable(s)]
    if not train:
        raise ValueError("train split is empty")

    t0 = time.perf_counter()

    top1, top3 = _eval_recalls(model, data.eval, 0)
    rows = [
        MetricsRow(
            phase="central", step_or_round=0, examples_seen=0, loss=float("nan"),
            top1=top1, top3=top3, wall_ms=(time.perf_counter() - t0) * 1e3,
        )
    ]

    epoch = 0
    order = []
    cursor = 0
    examples_seen = 0
    window_losses = []
    current = model
    for step in range(1, config.max_steps + 1):
        if cursor >= len(order):
            order = rng_for(config.seed, "shuffle", epoch).permutation(len(train))
            epoch += 1
            cursor = 0
        batch = [train[i] for i in order[cursor : cursor + config.batch_size]]
        cursor += config.batch_size

        with np.errstate(all="ignore"):  # divergence is reported by the finite-loss check
            loss, grads = loss_and_grads(current, batch)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite training loss at step {step}")
            current = CifgModel(model.config, sgd_step(current.params, grads.params, config.lr))
        examples_seen += len(batch)
        window_losses.append(loss)

        if step % config.eval_every == 0 or step == config.max_steps:
            top1, top3 = _eval_recalls(current, data.eval, step)
            rows.append(
                MetricsRow(
                    phase="central", step_or_round=step, examples_seen=examples_seen,
                    loss=float(np.mean(window_losses)), top1=top1, top3=top3,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
            window_losses = []
    return current, rows
