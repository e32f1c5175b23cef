"""Per-layer spans for the traced benchmark run.

The program has no timers of its own, so the traced run wraps the public
functions of each `fedlm` module from here: every module attribute that is
one of the functions below (including the copies that `central`, `fedavg`,
`cli` and the package import by name) is replaced by a wrapper while the
tracer is installed, and restored afterwards. Each wrapper records calls,
total time and self time (its duration minus the time of the wrapped calls
it made), plus a few work counts taken from the arguments or the result.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import fedlm
from fedlm import central, cifg, cli, corpus, evaluate, fedavg, ngram, nn_core

MODULES = (fedlm, corpus, nn_core, cifg, ngram, central, fedavg, evaluate, cli)

TRACED = (
    (corpus, "synthesize_corpus"),
    (corpus, "build_vocab"),
    (corpus, "tokenize"),
    (corpus, "split"),
    (corpus, "partition_clients"),
    (nn_core, "sgd_step"),
    (nn_core, "nesterov_step"),
    (cifg, "init_model"),
    (cifg, "loss_and_grads"),
    (cifg, "flatten"),
    (cifg, "unflatten"),
    (cifg, "topk_candidates"),
    (cifg, "save_checkpoint"),
    (cifg, "load_checkpoint"),
    (cifg, "quantize"),
    (cifg, "dequantize"),
    (cifg, "save_quantized"),
    (cifg, "load_quantized"),
    (ngram, "train_ngram"),
    (ngram, "backoff_probs"),
    (ngram.NgramTable, "topk_candidates"),
    (central, "train_centralized"),
    (fedavg, "sample_clients"),
    (fedavg, "client_round"),
    (fedavg, "aggregate"),
    (fedavg, "server_update"),
    (fedavg, "run_federated"),
    (evaluate, "multi_k_stats"),
    (evaluate, "compare_report"),
    (cli, "main"),
)

TOPK_CHUNK = inspect.signature(cifg.topk_candidates).parameters["chunk"].default


def _label(owner, attr: str) -> str:
    if inspect.ismodule(owner):
        return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
    return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"


def real_positions(seqs) -> int:
    """Prediction positions a batch really holds: len - 1 per sequence."""
    return sum(len(s) - 1 for s in seqs)


def computed_positions(seqs) -> int:
    """Positions a padded batch computes: B x (longest - 1)."""
    return len(seqs) * (max(len(s) for s in seqs) - 1) if seqs else 0


# Work counts per wrapped function: (accumulator, args, kwargs, result, parent span name).


def _count_loss(acc, args, kwargs, result, parent):
    batch = args[1]
    acc["cifg.loss_and_grads.real_positions"] += real_positions(batch)
    acc["cifg.loss_and_grads.computed_positions"] += computed_positions(batch)


def _count_topk(acc, args, kwargs, result, parent):
    seqs = args[1]
    chunk = kwargs.get("chunk", args[3] if len(args) > 3 else TOPK_CHUNK)
    acc["cifg.topk_candidates.real_positions"] += real_positions(seqs)
    acc["cifg.topk_candidates.computed_positions"] += sum(
        computed_positions(seqs[i : i + chunk]) for i in range(0, len(seqs), chunk)
    )


def _count_ngram_topk(acc, args, kwargs, result, parent):
    acc["ngram.NgramTable.topk_candidates.positions"] += real_positions(args[1])


def _count_backoff(acc, args, kwargs, result, parent):
    # Each memo miss of NgramTable.topk_candidates builds one distribution.
    if parent == "ngram.NgramTable.topk_candidates":
        acc["ngram.NgramTable.topk_candidates.distinct_contexts"] += 1


def _count_multi_k(acc, args, kwargs, result, parent):
    acc["evaluate.multi_k_stats.positions"] += result[1]


def _count_aggregate(acc, args, kwargs, result, parent):
    acc["fedavg.aggregate.bytes_in"] += sum(u.weights.nbytes for u in args[0])


def _count_sample(acc, args, kwargs, result, parent):
    if result:
        acc["fedavg.rounds_closed"] += 1


COUNTERS = {
    "cifg.loss_and_grads": _count_loss,
    "cifg.topk_candidates": _count_topk,
    "ngram.NgramTable.topk_candidates": _count_ngram_topk,
    "ngram.backoff_probs": _count_backoff,
    "evaluate.multi_k_stats": _count_multi_k,
    "fedavg.aggregate": _count_aggregate,
    "fedavg.sample_clients": _count_sample,
}


class Tracer:
    """Installs the wrappers, accumulates `<name>.calls`, `<name>.s`,
    `<name>.self_s` and the work counts in `acc`, and removes them again."""

    def __init__(self):
        self.acc = defaultdict(float)
        self._stack = []  # open spans: [name, seconds spent in wrapped children]
        self._restore = []

    def __enter__(self):
        for owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(_label(owner, attr), original)
            targets = (owner,) if inspect.isclass(owner) else MODULES
            for target in targets:
                if vars(target).get(attr) is original:
                    self._restore.append((target, attr, original))
                    setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)
        self._stack.clear()
        return False

    def _wrap(self, label, fn):
        counter = COUNTERS.get(label)
        acc, stack = self.acc, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # cli.main is timed per subcommand: cli.main.eval, cli.main.quantize.
            name = f"{label}.{args[0][0]}" if label == "cli.main" and args and args[0] else label
            parent = stack[-1] if stack else None
            span = [name, 0.0]
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                acc[name + ".calls"] += 1
                acc[name + ".s"] += dt
                acc[name + ".self_s"] += dt - span[1]
            if counter is not None:
                counter(acc, args, kwargs, result, parent[0] if parent else None)
            return result

        return wrapper
