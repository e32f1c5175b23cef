"""Command-line pipeline: corpus synthesis, centralized and federated
training, evaluation, model comparison, and checkpoint quantization.

Configuration precedence is CLI flag > config file > built-in default. A
flag sets the RunConfig field of its name (--vocab-size sets vocab_size);
only --steps (max_steps), gen's -o/--out (corpus) and --clients-per-round
(both cohort bounds) are named otherwise. The config file is flat
`key = value` text (# starts a comment); every key is a RunConfig field and
unknown keys are rejected, so a saved file is a complete, diff-able record of
an experiment. All randomness descends from the single `seed` via
component-tagged sub-seeds.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

from . import central, corpus, evaluate, fedavg, ngram, pipeline
from .cifg import (
    CHECKPOINT_MAGIC,
    QUANTIZED_MAGIC,
    CifgConfig,
    dequantize,
    init_model,
    load_checkpoint,
    load_quantized,
    quantize,
    save_checkpoint,
    save_quantized,
)
from .nn_core import derive_seed


class UsageError(Exception):
    pass


class CliRuntimeError(Exception):
    pass


@dataclass
class RunConfig:
    # model architecture
    vocab_size: int = 10000
    embed_dim: int = 96
    hidden: int = 670
    # centralized training
    lr: float = 1e-3
    batch_size: int = 50
    max_steps: int = 1000
    eval_every: int = 200
    # federated training
    clients: int = 50
    mean_shard: int = 400
    clients_per_round_min: int = 5
    clients_per_round_max: int = 20
    client_lr: float = 0.5
    client_batch_size: int = 50
    client_epochs: int = 1
    rounds: int = 100
    eligibility_prob: float = 1.0
    server_lr: float = 1.0
    server_momentum: float = 0.9
    fed_eval_every: int = 25
    eval_clients: int = 10
    # n-gram baseline
    ngram_order: int = 3
    ngram_discount: float = 0.75
    # corpus synthesis
    sentences: int = 1000
    source_order: int = 3
    source_vocab: int = 500
    # split fractions
    train_frac: float = 0.8
    test_frac: float = 0.1
    eval_frac: float = 0.1
    # paths
    corpus: str = "corpus.txt"
    vocab: str = "vocab.txt"
    checkpoint: str = "model.ckpt"
    metrics: str = "metrics.csv"
    # misc
    seed: int = 0
    timing: bool = False  # include real wall_ms in metrics CSVs (breaks byte-identical reruns)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_TYPES = {"int": int, "float": float}  # field annotation -> value parser; other fields are strings


def _coerce(name: str, raw: str):
    kind = _FIELDS[name].type
    try:
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return _TYPES.get(kind, str)(raw)
    except ValueError as exc:
        raise UsageError(f"bad value for config key {name}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in text.split("=", 1))
                if key not in _FIELDS:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _coerce(key, raw)
    except OSError as exc:
        raise CliRuntimeError(f"cannot read config file {path}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
    for name in _FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "clients_per_round", None) is not None:
        cfg.clients_per_round_min = args.clients_per_round
        cfg.clients_per_round_max = args.clients_per_round
    return cfg


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _load_raw_corpus(path: str) -> list:
    if not os.path.exists(path):
        raise CliRuntimeError(f"corpus file not found: {path}")
    return corpus.load_corpus(path)


def _prepare(cfg: RunConfig) -> tuple:
    """(vocabulary, split) of the training corpus."""
    fractions = (cfg.train_frac, cfg.test_frac, cfg.eval_frac)
    return pipeline.prepare(_load_raw_corpus(cfg.corpus), cfg.vocab_size, fractions, cfg.seed)


def _model_config(cfg: RunConfig, V: int) -> CifgConfig:
    return CifgConfig(V=V, D=cfg.embed_dim, H=cfg.hidden)


def _load_model_any(path: str):
    """Load a float checkpoint or a quantized one (dequantized on the fly)."""
    if not os.path.exists(path):
        raise CliRuntimeError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == CHECKPOINT_MAGIC:
        return load_checkpoint(path)
    if magic == QUANTIZED_MAGIC:
        return dequantize(load_quantized(path))
    raise CliRuntimeError(f"{path}: not a model checkpoint (magic {magic!r})")


def _check_dims(model, vocab) -> None:
    if model.config.V != vocab.V:
        raise CliRuntimeError(
            f"checkpoint vocabulary size {model.config.V} does not match vocab file ({vocab.V})"
        )


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: RunConfig) -> int:
    sentences = corpus.synthesize_corpus(cfg.source_order, cfg.source_vocab, cfg.sentences, cfg.seed)
    corpus.save_corpus(cfg.corpus, sentences)
    print(f"wrote {len(sentences)} sentences to {cfg.corpus}")
    return 0


def _save_run(cfg: RunConfig, vocab, trained, rows: list, summary: str) -> int:
    save_checkpoint(cfg.checkpoint, trained)
    corpus.save_vocab(cfg.vocab, vocab)
    evaluate.write_metrics_csv(cfg.metrics, rows, include_timing=cfg.timing)
    print(summary)
    print(f"checkpoint: {cfg.checkpoint}  vocab: {cfg.vocab}  metrics: {cfg.metrics}")
    return 0


def cmd_train_server(cfg: RunConfig) -> int:
    vocab, data = _prepare(cfg)
    model = init_model(_model_config(cfg, vocab.V), derive_seed(cfg.seed, "central-init"))
    train_cfg = central.CentralConfig(
        lr=cfg.lr, batch_size=cfg.batch_size, max_steps=cfg.max_steps,
        eval_every=cfg.eval_every, seed=cfg.seed,
    )
    trained, rows = central.train_centralized(model, data, train_cfg)
    last = rows[-1]
    return _save_run(
        cfg, vocab, trained, rows,
        f"trained {cfg.max_steps} steps on {len(data.train)} sentences; "
        f"final top-1 {last.top1:.4f}, top-3 {last.top3:.4f}",
    )


def cmd_train_federated(cfg: RunConfig) -> int:
    vocab, data = _prepare(cfg)
    population, eval_population = pipeline.client_shards(
        data, cfg.clients, cfg.mean_shard, cfg.eval_clients, cfg.seed
    )
    fed_cfg = fedavg.FedConfig(
        clients_per_round_min=cfg.clients_per_round_min,
        clients_per_round_max=cfg.clients_per_round_max,
        client_lr=cfg.client_lr,
        client_batch_size=cfg.client_batch_size,
        client_epochs=cfg.client_epochs,
        total_rounds=cfg.rounds,
        eligibility_prob=cfg.eligibility_prob,
        seed=cfg.seed,
        server_lr=cfg.server_lr,
        server_momentum=cfg.server_momentum,
        eval_every=cfg.fed_eval_every,
    )
    trained, rows = fedavg.run_federated(
        population, fed_cfg, _model_config(cfg, vocab.V), eval_population=eval_population
    )
    last = rows[-1]
    return _save_run(
        cfg, vocab, trained, rows,
        f"ran {cfg.rounds} rounds over {len(population)} clients; "
        f"final top-1 {last.top1:.4f} ± {last.top1_stderr:.4f}, top-3 {last.top3:.4f}",
    )


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    vocab = _load_vocab_file(cfg.vocab)
    model = _load_model_any(cfg.checkpoint)
    _check_dims(model, vocab)
    raw = _load_raw_corpus(args.data)
    data = [corpus.tokenize(s, vocab) for s in raw]
    if args.fed_eval:
        shards = pipeline.eval_shards(data, cfg.eval_clients, cfg.seed)
        recalls = fedavg.federated_recalls(model, shards, (1, 3))
        r1, r3 = recalls[1], recalls[3]
        note = " (stderr degenerate: single client)" if r1.degenerate else ""
        print(f"top-1 {r1.recall:.4f} ± {r1.stderr:.4f}{note}")
        print(f"top-3 {r3.recall:.4f} ± {r3.stderr:.4f}")
    else:
        recalls = evaluate.recalls_topk(model, data, (1, 3))
        print(f"top-1 {recalls[1]:.4f}")
        print(f"top-3 {recalls[3]:.4f}")
    return 0


def _load_vocab_file(path: str):
    if not os.path.exists(path):
        raise CliRuntimeError(f"vocabulary file not found: {path}")
    return corpus.load_vocab(path)


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    vocab = _load_vocab_file(cfg.vocab)
    raw_eval = _load_raw_corpus(args.data)
    data = [corpus.tokenize(s, vocab) for s in raw_eval]

    ngram_train = None
    models = []
    for token in args.models.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("ngram", "unigram"):
            if ngram_train is None:
                ngram_train = _prepare(cfg)[1].train
            order = 1 if token == "unigram" else cfg.ngram_order
            table = ngram.train_ngram(ngram_train, order, cfg.ngram_discount, vocab.V)
            models.append((token, table))
        else:
            model = _load_model_any(token)
            _check_dims(model, vocab)
            models.append((os.path.basename(token), model))
    if not models:
        raise UsageError("no models given")
    report = evaluate.compare_report(models, data, ks=(1, 3))
    print(report.as_text(), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.as_csv())
        print(f"report: {args.out}")
    return 0


def cmd_quantize(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not os.path.exists(cfg.checkpoint):
        raise CliRuntimeError(f"checkpoint not found: {cfg.checkpoint}")
    model = load_checkpoint(cfg.checkpoint)
    q = quantize(model)
    save_quantized(args.out, q)
    orig = os.path.getsize(cfg.checkpoint)
    packed = os.path.getsize(args.out)
    print(f"quantized {cfg.checkpoint} ({orig} bytes) -> {args.out} ({packed} bytes, {packed / 1e6:.3f} MB)")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise UsageError(message)


# Every command's flags, in order. A RunConfig field name gives --name-with-dashes
# (dest=name, typed by its annotation; a bool field is a switch storing True); a
# (flags, kwargs) pair gives a flag named unlike its field, or not a field at all.
_DATA = (("--data",), {"required": True, "help": "evaluation corpus file"})
_MODEL_AND_SPLIT = ("vocab_size", "embed_dim", "hidden", "train_frac", "test_frac", "eval_frac")
_OUTPUTS = ("corpus", "checkpoint", "vocab", "metrics")

COMMANDS = {
    "gen": ("synthesize a corpus file", (
        "sentences", "source_order", "source_vocab",
        (("-o", "--out"), {"dest": "corpus", "help": "output corpus path"}),
    )),
    "train-server": ("centralized SGD training", (
        *_MODEL_AND_SPLIT, *_OUTPUTS, "lr", "batch_size",
        (("--steps",), {"type": int, "dest": "max_steps"}),
        "eval_every", "timing",
    )),
    "train-federated": ("simulated FederatedAveraging training", (
        *_MODEL_AND_SPLIT, *_OUTPUTS, "clients", "mean_shard", "rounds",
        (("--clients-per-round",), {"type": int, "dest": "clients_per_round", "help": "set min and max together"}),
        "clients_per_round_min", "clients_per_round_max", "client_lr", "client_batch_size", "client_epochs",
        "eligibility_prob", "server_lr", "server_momentum", "fed_eval_every", "eval_clients", "timing",
    )),
    "eval": ("top-k recall of a checkpoint on a corpus file", (
        "checkpoint", "vocab", _DATA,
        (("--fed-eval",), {"action": "store_true", "help": "evaluate over client shards with jackknife stderr"}),
        "eval_clients",
    )),
    "compare": ("side-by-side recall of checkpoints and n-gram baselines", (
        *_MODEL_AND_SPLIT,
        (("--models",), {"required": True, "help": "comma list: checkpoint paths, 'ngram', 'unigram'"}),
        _DATA,
        (("--corpus",), {"dest": "corpus", "help": "training corpus (fits n-gram baselines)"}),
        "vocab", "ngram_order", "ngram_discount",
        (("--out",), {"help": "also write the report as CSV"}),
    )),
    "quantize": ("8-bit quantize a float checkpoint", (
        "checkpoint",
        (("--out",), {"required": True, "help": "quantized checkpoint path"}),
    )),
}


def _field_flag(name: str) -> tuple:
    kind = _FIELDS[name].type
    kwargs = {"action": "store_const", "const": True} if kind == "bool" else {"type": _TYPES.get(kind)}
    return ("--" + name.replace("_", "-"),), {**kwargs, "dest": name}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedlm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, entries) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for entry in ((("--config",), {"help": "flat key = value config file"}), "seed", *entries):
            flags, kwargs = _field_flag(entry) if isinstance(entry, str) else entry
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train-server":
            return cmd_train_server(cfg)
        if args.command == "train-federated":
            return cmd_train_federated(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args)
        if args.command == "compare":
            return cmd_compare(cfg, args)
        if args.command == "quantize":
            return cmd_quantize(cfg, args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"fedlm: {exc}", file=sys.stderr)
        return 1
    except (CliRuntimeError, FloatingPointError, ValueError, OSError) as exc:
        print(f"fedlm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
