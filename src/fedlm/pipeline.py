"""How an experiment is wired: raw corpus -> vocabulary and split -> client
shards -> both trainers -> n-gram baselines -> recall comparison.

`scripts/desk_experiment.py`, the `fedlm` trainers and the acceptance suite
build their runs here, so both arms of the comparison see the same split and
the same shard dealing. Seeds are arguments: the CLI derives them from its
one `seed`, the desk profiles pin them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import central, corpus, evaluate, fedavg, ngram
from .cifg import CifgConfig, CifgModel, init_model
from .nn_core import derive_seed

# The desk experiment: a corpus sampled from a random 3-gram source, split
# 5/6 : 1/12 : 1/12, a D=16/H=32 CIFG trained both ways, 10 held-out caches.
DESK_PROFILES = {
    "quick": dict(sentences=8000, steps=3000, rounds=60, clients=20, mean_shard=200),
    "full": dict(sentences=60000, steps=20000, rounds=300, clients=50, mean_shard=400),
}
DESK_CORPUS_SEED = 20260819
DESK_SEEDS = dict(split=101, init=5, central=33, fed=77)


def prepare(raw: list, vocab_size: int, fractions: tuple, seed: int) -> tuple:
    """(vocabulary, split) of raw sentences, the vocabulary built from all of them."""
    vocab = corpus.build_vocab(raw, vocab_size)
    return vocab, split_with(raw, vocab, fractions, seed)


def split_with(raw: list, vocab: corpus.Vocabulary, fractions: tuple, seed: int) -> corpus.CorpusSplit:
    """Every sentence tokenized with vocab, then the split drawn."""
    return corpus.split([corpus.tokenize(s, vocab) for s in raw], fractions, seed)


def eval_shards(sentences: list, n_clients: int, seed: int) -> list:
    """Held-out sentences dealt to at most n_clients device caches of about
    equal size; no caches when there are no sentences or no clients."""
    if n_clients < 0:
        raise ValueError("the number of evaluation clients must not be negative")
    if not sentences or n_clients == 0:
        return []
    return corpus.partition_clients(sentences, min(n_clients, len(sentences)),
                                    max(1, len(sentences) // n_clients), derive_seed(seed, "eval-clients"))


def client_shards(data: corpus.CorpusSplit, clients: int, mean_shard: int,
                  eval_clients: int, seed: int) -> tuple:
    """(training population, held-out population) for FederatedAveraging:
    the train split dealt to unbalanced client shards, the eval split to
    eval_clients caches."""
    population = corpus.partition_clients(data.train, clients, mean_shard, derive_seed(seed, "train-clients"))
    return population, eval_shards(data.eval, eval_clients, seed)


@dataclass
class DeskRun:
    raw: list  # the synthesized sentences
    vocab: corpus.Vocabulary
    data: corpus.CorpusSplit
    model_config: CifgConfig
    central_model: CifgModel
    central_rows: list
    fed_model: CifgModel
    fed_rows: list
    unigram: ngram.NgramTable
    trigram: ngram.NgramTable
    report: evaluate.CompareReport  # top-1/top-3 recall on the eval split


def run_desk(profile: str, seed: int = DESK_CORPUS_SEED, source_vocab: int = 500,
             embed_dim: int = 16, hidden: int = 32) -> DeskRun:
    """The desk experiment of one profile, deterministic in seed: both CIFG
    arms and both n-gram baselines, compared on the eval split."""
    prof = DESK_PROFILES[profile]
    raw = corpus.synthesize_corpus(3, source_vocab, prof["sentences"], seed=seed)
    vocab, data = prepare(raw, source_vocab + 3, (5 / 6, 1 / 12, 1 / 12), DESK_SEEDS["split"])
    mcfg = CifgConfig(V=vocab.V, D=embed_dim, H=hidden)

    central_model, central_rows = central.train_centralized(
        init_model(mcfg, seed=DESK_SEEDS["init"]), data,
        central.CentralConfig(lr=0.5, batch_size=50, max_steps=prof["steps"],
                              eval_every=max(1, prof["steps"] // 10), seed=DESK_SEEDS["central"]),
    )

    shards, eval_population = client_shards(data, prof["clients"], prof["mean_shard"], 10, DESK_SEEDS["fed"])
    fed_model, fed_rows = fedavg.run_federated(
        shards,
        fedavg.FedConfig(clients_per_round_min=5, clients_per_round_max=10, client_lr=0.5,
                         client_batch_size=50, client_epochs=1, total_rounds=prof["rounds"],
                         eligibility_prob=1.0, seed=DESK_SEEDS["fed"], server_lr=1.0,
                         server_momentum=0.9, eval_every=max(1, prof["rounds"] // 6)),
        mcfg,
        eval_population=eval_population,
    )

    unigram = ngram.train_ngram(data.train, 1, ngram.DEFAULT_DISCOUNT, vocab.V)
    trigram = ngram.train_ngram(data.train, 3, ngram.DEFAULT_DISCOUNT, vocab.V)
    report = evaluate.compare_report(
        [("central-cifg", central_model), ("federated-cifg", fed_model),
         ("trigram", trigram), ("unigram", unigram)],
        data.eval, ks=(1, 3),
    )
    return DeskRun(raw, vocab, data, mcfg, central_model, central_rows, fed_model, fed_rows,
                   unigram, trigram, report)
