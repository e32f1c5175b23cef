"""The benchmark's three workloads: their inputs, set-up and measured pass.

Every workload runs the same pipeline at its own scale:

    set-up         synthesize -> vocab -> tokenize -> split -> client shards
                   -> init (desk-serve also trains both models briefly here)
    measured pass  train_centralized and run_federated (unless trained in
                   set-up) -> unigram and trigram tables -> checkpoint
                   save/load, int8 quantize/save/load/dequantize -> (desk-serve:
                   `fedlm quantize` and `fedlm eval` in-process) -> recall of
                   the central, federated and int8 models (federated only on
                   phone-fedavg) and of both n-gram tables on the held-out
                   sentences, pooled as `evaluate.compare_report` scores them

All inputs derive from the workload seed; every other seed is a fixed
setting, as in `scripts/desk_experiment.py`. A pass is deterministic, so
repeated passes in one run produce bit-identical models and recalls.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fedlm import central, cifg, cli, corpus, evaluate, fedavg, ngram
from fedlm.nn_core import derive_seed, rng_for

# Fixed settings shared with scripts/desk_experiment.py.
SPLIT_SEED = 101
INIT_SEED = 5
CENTRAL_SEED = 33
FED_SEED = 77
DISCOUNT = 0.75
KS = (1, 3)
CENTRAL_WINDOWS = 4  # equal windows of central steps, each timed by the trainer


@dataclass(frozen=True)
class Scale:
    sentences: int
    source_vocab: int
    model_V: int | None  # None: the vocabulary size the corpus yields
    D: int
    H: int
    fractions: tuple  # train, test, eval
    central_steps: int
    central_lr: float
    clients: int
    mean_shard: int
    cohort: tuple  # clients per round, (min, max)
    rounds: int
    client_lr: float
    setups: int  # set-ups per run; setup_s is their median
    # 0: score the central, federated and int8 models on the pooled held-out
    # set. N: score only the federated model, by federated evaluation over N
    # held-out device caches (phone scale, where one recall pass takes ~10 s).
    eval_clients: int = 0
    train_in_setup: bool = False
    run_cli: bool = False
    batch: int = 50

    @property
    def vocab_capacity(self) -> int:
        return self.model_V or self.source_vocab + corpus.NUM_SPECIALS

    @property
    def scored(self) -> tuple:
        """The CIFG models whose recall a pass scores."""
        return ("federated",) if self.eval_clients else ("central", "federated", "quantized")


WORKLOADS = {
    # The quick desk profile's corpus, model and federated population, with
    # a fifth of its 3,000 steps and 60 rounds so that a pass fits a run.
    # Recall is scored on the whole held-out sixth (the profile's test and
    # eval splits together; the training split is the same) so that the
    # padding of its pooled chunks varies little from seed to seed.
    "desk-quick": {
        "full": Scale(8000, 500, None, 16, 32, (5 / 6, 0.0, 1 / 6),
                      central_steps=600, central_lr=0.5, clients=20, mean_shard=200,
                      cohort=(5, 10), rounds=12, client_lr=0.5, setups=9),
        "small": Scale(1200, 500, None, 16, 32, (5 / 6, 0.0, 1 / 6),
                       central_steps=100, central_lr=0.5, clients=8, mean_shard=120,
                       cohort=(4, 4), rounds=16, client_lr=0.5, setups=2),
    },
    # Phone-sized model (V=10000, D=96, H=670; 1.4M weights) trained by
    # cohorts of 10 small device caches; the corpus fills only part of the
    # 10,000 vocabulary slots. One recall pass scores the federated model
    # by federated evaluation over 10 held-out device caches.
    "phone-fedavg": {
        "full": Scale(3300, 10000, 10000, 96, 670, (28 / 33, 0.0, 5 / 33),
                      central_steps=32, central_lr=0.1, clients=60, mean_shard=40,
                      cohort=(10, 10), rounds=4, client_lr=0.1, setups=7, eval_clients=10),
        "small": Scale(400, 2000, 2000, 24, 40, (0.9, 0.0, 0.1),
                       central_steps=8, central_lr=0.1, clients=6, mean_shard=40,
                       cohort=(2, 2), rounds=2, client_lr=0.1, setups=2, eval_clients=4),
    },
    # Inference only in the measured pass: briefly trained desk models are
    # served over a large held-out set, through the library and the CLI.
    "desk-serve": {
        "full": Scale(7000, 500, None, 16, 32, (2 / 7, 0.0, 5 / 7),
                      central_steps=160, central_lr=0.5, clients=10, mean_shard=200,
                      cohort=(5, 5), rounds=5, client_lr=0.5, setups=5,
                      train_in_setup=True, run_cli=True),
        "small": Scale(600, 500, None, 16, 32, (0.4, 0.0, 0.6),
                       central_steps=20, central_lr=0.5, clients=4, mean_shard=50,
                       cohort=(2, 2), rounds=2, client_lr=0.5, setups=2,
                       train_in_setup=True, run_cli=True),
    },
}


def scored_positions(seqs) -> int:
    """Positions recall scores: every target except BOS and EOS."""
    return sum(1 for s in seqs for t in s[1:] if t != corpus.BOS_ID and t != corpus.EOS_ID)


def eval_sentences(inp) -> list:
    """The held-out sentences CIFG recall covers."""
    if inp.eval_population:
        return [s for shard in inp.eval_population for s in shard.sentences]
    return inp.data.eval


@dataclass
class Trained:
    model: cifg.CifgModel
    rows: list
    window_seconds: list  # time of each central window or FedAvg round

    @property
    def loss(self) -> float:
        """Mean training loss over the run: the mean of equal windows (central)
        or of rounds (federated)."""
        return float(np.mean([r.loss for r in self.rows[1:]]))


@dataclass
class Inputs:
    """What one set-up hands to the measured pass."""

    scale: Scale
    vocab: corpus.Vocabulary
    data: corpus.CorpusSplit
    population: list
    mcfg: cifg.CifgConfig
    init: cifg.CifgModel
    paths: dict
    eval_population: list  # held-out device caches (empty: CIFG recall is pooled)
    central: Trained | None = None
    fed: Trained | None = None
    # Work counts, filled in by count_work() outside the timed set-up.
    central_window_positions: list = field(default_factory=list)  # real (unpadded) positions per central window
    central_examples: int = 0
    fed_round_positions: list = field(default_factory=list)  # real positions each round's cohort trains
    fed_examples: int = 0
    eval_positions: int = 0  # positions one CIFG recall scores


def fed_config(scale: Scale) -> fedavg.FedConfig:
    return fedavg.FedConfig(
        clients_per_round_min=scale.cohort[0], clients_per_round_max=scale.cohort[1],
        client_lr=scale.client_lr, client_batch_size=scale.batch, client_epochs=1,
        total_rounds=scale.rounds, eligibility_prob=1.0, seed=FED_SEED,
        server_lr=1.0, server_momentum=0.9, eval_every=1,
    )


def central_batches(train: list, scale: Scale):
    """The batches train_centralized draws (consecutive slices of a seeded
    per-epoch shuffle), rebuilt here to count the positions it trains."""
    order, cursor, epoch = [], 0, 0
    for _ in range(scale.central_steps):
        if cursor >= len(order):
            order = rng_for(CENTRAL_SEED, "shuffle", epoch).permutation(len(train))
            epoch += 1
            cursor = 0
        yield [train[i] for i in order[cursor : cursor + scale.batch]]
        cursor += scale.batch


def train_central(inp: Inputs) -> Trained:
    scale = inp.scale
    # No eval split: periodic evaluation is off, the final model is scored
    # once. The trainer still closes a row, with its wall time, every window.
    data = corpus.CorpusSplit(train=inp.data.train, test=[], eval=[], seed=inp.data.seed)
    cfg = central.CentralConfig(lr=scale.central_lr, batch_size=scale.batch,
                                max_steps=scale.central_steps,
                                eval_every=scale.central_steps // CENTRAL_WINDOWS, seed=CENTRAL_SEED)
    model, rows = central.train_centralized(inp.init, data, cfg)
    return Trained(model, rows, (np.diff([r.wall_ms for r in rows]) / 1e3).tolist())


def train_federated(inp: Inputs) -> Trained:
    cfg = fed_config(inp.scale)
    ends = []
    t0 = time.perf_counter()
    model, rows = fedavg.run_federated(inp.population, cfg, inp.mcfg,
                                       on_round=lambda state: ends.append(time.perf_counter()))
    return Trained(model, rows, np.diff([t0] + ends).tolist())


def count_work(inp: Inputs) -> None:
    """Count the work a pass does, from the inputs alone."""
    batches = list(central_batches(inp.data.train, inp.scale))
    per_window = inp.scale.central_steps // CENTRAL_WINDOWS
    inp.central_window_positions = [sum(len(s) - 1 for b in batches[i : i + per_window] for s in b)
                                    for i in range(0, len(batches), per_window)]
    inp.central_examples = sum(len(b) for b in batches)
    cfg = fed_config(inp.scale)
    cohorts = [fedavg.sample_clients(inp.population, r, cfg) for r in range(cfg.total_rounds)]
    inp.fed_round_positions = [sum(len(s) - 1 for sh in cohort for s in sh.sentences) for cohort in cohorts]
    inp.fed_examples = sum(sh.n_k for cohort in cohorts for sh in cohort)
    inp.eval_positions = scored_positions(eval_sentences(inp))


def set_up(scale: Scale, seed: int, workdir: str) -> Inputs:
    raw = corpus.synthesize_corpus(3, scale.source_vocab, scale.sentences, seed=seed)
    vocab = corpus.build_vocab(raw, scale.vocab_capacity)
    data = corpus.split([corpus.tokenize(s, vocab) for s in raw], scale.fractions, SPLIT_SEED)
    population = corpus.partition_clients(data.train, scale.clients, scale.mean_shard,
                                          derive_seed(FED_SEED, "train-clients"))
    # Held-out device caches sized as `fedlm eval --fed-eval` and
    # scripts/desk_experiment.py cut them.
    eval_population = (corpus.partition_clients(data.eval, scale.eval_clients,
                                                len(data.eval) // scale.eval_clients,
                                                derive_seed(FED_SEED, "eval-clients"))
                       if scale.eval_clients else [])
    mcfg = cifg.CifgConfig(V=scale.model_V or vocab.V, D=scale.D, H=scale.H)
    paths = {name: os.path.join(workdir, name)
             for name in ("federated.ckpt", "federated.q8", "cli.q8", "vocab.txt", "eval.txt")}
    inp = Inputs(scale, vocab, data, population, mcfg,
                 cifg.init_model(mcfg, seed=INIT_SEED), paths, eval_population)
    if scale.run_cli:
        corpus.save_vocab(paths["vocab.txt"], vocab)
        raw_eval = corpus.split(raw, scale.fractions, SPLIT_SEED).eval
        corpus.save_corpus(paths["eval.txt"], raw_eval)
    if scale.train_in_setup:
        inp.central = train_central(inp)
        inp.fed = train_federated(inp)
    return inp


@dataclass
class Pass:
    """Outputs and timings of one measured pass."""

    seconds: float = 0.0
    central: Trained = None
    fed: Trained = None
    unigram: ngram.NgramTable = None
    trigram: ngram.NgramTable = None
    loaded: cifg.CifgModel = None  # federated model read back from its checkpoint
    quantized: cifg.QuantizedModel = None  # int8 model read back from its file
    int8: cifg.CifgModel = None  # dequantized int8 model
    recall: dict = field(default_factory=dict)  # model name -> {k: recall}
    eval_s: list = field(default_factory=list)  # seconds of CIFG recall, per model
    cli: dict = field(default_factory=dict)  # subcommand -> (exit code, stdout, stderr)
    operations: int = 0


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _recall(inp: Inputs, name: str, predictor) -> dict:
    """Top-k recall on the held-out sentences: pooled, as scripts/desk_experiment.py
    and `fedlm eval` score them, or per held-out device cache, as run_federated's
    federated evaluation scores them (token-weighted over the caches)."""
    if inp.eval_population and not isinstance(predictor, ngram.NgramTable):
        stats = fedavg._per_client_k_stats(predictor, inp.eval_population, KS)
        positions = sum(p for _, p in stats)
        return {k: sum(h[k] for h, _ in stats) / positions for k in KS}
    return evaluate.compare_report([(name, predictor)], inp.data.eval, ks=KS).rows[0][1]


def measured_pass(inp: Inputs) -> Pass:
    """One pass. Each model is scored as soon as it exists, so the short
    recall windows spread over the pass instead of sharing one moment."""
    scale, paths, res = inp.scale, inp.paths, Pass()
    t_start = time.perf_counter()

    def score(name, model):
        if name in scale.scored:
            t0 = time.perf_counter()
            res.recall[name] = _recall(inp, name, model)
            res.eval_s.append(time.perf_counter() - t0)

    res.unigram = ngram.train_ngram(inp.data.train, 1, DISCOUNT, inp.mcfg.V)
    res.trigram = ngram.train_ngram(inp.data.train, 3, DISCOUNT, inp.mcfg.V)
    res.central = inp.central if scale.train_in_setup else train_central(inp)
    score("central", res.central.model)
    res.fed = inp.fed if scale.train_in_setup else train_federated(inp)
    cifg.save_checkpoint(paths["federated.ckpt"], res.fed.model)
    res.loaded = cifg.load_checkpoint(paths["federated.ckpt"])
    score("federated", res.loaded)
    cifg.save_quantized(paths["federated.q8"], cifg.quantize(res.loaded))
    res.quantized = cifg.load_quantized(paths["federated.q8"])
    res.int8 = cifg.dequantize(res.quantized)
    if scale.run_cli:
        res.cli["quantize"] = _run_cli(["quantize", "--checkpoint", paths["federated.ckpt"],
                                        "--out", paths["cli.q8"]])
        res.cli["eval"] = _run_cli(["eval", "--checkpoint", paths["federated.ckpt"],
                                    "--vocab", paths["vocab.txt"], "--data", paths["eval.txt"]])
    score("quantized", res.int8)
    for name, table in (("trigram", res.trigram), ("unigram", res.unigram)):
        res.recall[name] = _recall(inp, name, table)
    res.seconds = time.perf_counter() - t_start
    # Steps and rounds (unless set-up trained), two n-gram fits, six checkpoint
    # and int8 operations, the recall scorings, and the CLI calls.
    res.operations = ((0 if scale.train_in_setup else scale.central_steps + scale.rounds)
                      + 2 + 6 + len(res.recall) + 2 * scale.run_cli)
    return res


def fingerprint(res: Pass) -> tuple:
    """What must repeat bit for bit from one pass to the next."""
    def weights(m):
        return b"".join(getattr(m, n).tobytes() for n in cifg.TENSOR_ORDER)

    return (weights(res.central.model), weights(res.fed.model), res.central.loss, res.fed.loss,
            sorted((name, sorted(r.items())) for name, r in res.recall.items()),
            {cmd: out[:2] for cmd, out in res.cli.items()})
