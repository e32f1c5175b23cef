"""Centralized minibatch-SGD training loop with periodic evaluation.

Plain SGD, no weight decay, no momentum, fixed learning rate. The step is
FedAvg's: `fedavg.sgd_steps` takes consecutive slices of a deterministic
per-epoch shuffle, so the whole run is a pure function of (initial model,
data, config), and `fedavg.eval_row` writes the rows, scoring the eval split
as one held-out cache (so `top1_stderr` is 0.0).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cifg import CifgModel
from .corpus import ClientShard, CorpusSplit, is_trainable
from .fedavg import eval_row, sgd_steps


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


def train_centralized(model: CifgModel, data: CorpusSplit, config: CentralConfig) -> tuple:
    """Run config.max_steps SGD steps over data.train, evaluating top-1/top-3
    recall on data.eval every config.eval_every steps.

    Returns (trained model, metric rows). The first row reports the initial
    model at step 0 with loss nan; later rows carry the mean training batch
    loss since the previous row. A non-finite or runaway loss aborts with
    FloatingPointError rather than training on garbage.
    """
    train = [s for s in data.train if is_trainable(s)]
    if not train:
        raise ValueError("train split is empty")
    held_out = [ClientShard(0, data.eval)] if data.eval else []

    t0 = time.perf_counter()
    rows = [eval_row(model, held_out, "central", 0, 0, float("nan"), t0)]
    steps = sgd_steps(model, train, config.batch_size, config.lr, config.seed, ("shuffle",), "centralized training")
    current = model
    examples_seen = 0
    window_losses = []
    for step, (current, batch, loss) in enumerate(islice(steps, config.max_steps), 1):
        examples_seen += len(batch)
        window_losses.append(loss)
        if step % config.eval_every == 0 or step == config.max_steps:
            rows.append(eval_row(current, held_out, "central", step, examples_seen,
                                 float(np.mean(window_losses)), t0))
            window_losses = []
    return current, rows
