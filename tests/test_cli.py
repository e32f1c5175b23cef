"""End-to-end tests of the command-line pipeline.

Each test drives main() in-process with a tiny corpus so the whole file
stays fast. Exit-code contract: 0 success, 1 usage error, 2 runtime error.
"""

import dataclasses
import os
import struct

import numpy as np
import pytest

from fedlm import cli, corpus, evaluate, ngram
from fedlm.cifg import (
    CHECKPOINT_MAGIC,
    QUANTIZED_MAGIC,
    CifgConfig,
    flatten,
    init_model,
    load_checkpoint,
)
from fedlm.cli import COMMANDS, RunConfig, build_parser, main, parse_config_file, resolve_config
from fedlm.corpus import load_corpus, load_vocab, tokenize
from fedlm.evaluate import CSV_HEADER
from fedlm.nn_core import derive_seed

GEN = ["gen", "--sentences", "150", "--source-vocab", "25", "--source-order", "2",
       "--seed", "3", "-o", "tiny.txt"]

TRAIN = ["train-server", "--corpus", "tiny.txt", "--vocab-size", "40",
         "--embed-dim", "6", "--hidden", "8", "--lr", "0.3", "--batch-size", "8",
         "--steps", "6", "--eval-every", "3", "--seed", "5",
         "--checkpoint", "m.ckpt", "--vocab", "v.txt", "--metrics", "met.csv"]

FED = ["train-federated", "--corpus", "tiny.txt", "--vocab-size", "40",
       "--embed-dim", "6", "--hidden", "8", "--clients", "5", "--mean-shard", "20",
       "--clients-per-round", "2", "--client-lr", "0.3", "--client-batch-size", "8",
       "--rounds", "2", "--fed-eval-every", "1", "--eval-clients", "2", "--seed", "5",
       "--checkpoint", "f.ckpt", "--vocab", "fv.txt", "--metrics", "fmet.csv"]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_diverging(argv, lr_flag, capsys, lr="1e8"):
    """Run a trainer at a divergent lr; it must end in one stderr line, exit 2,
    no files. Callers turn warnings into errors, so a numpy warning fails too.
    Returns the stderr line."""
    run(GEN, capsys)
    argv = argv.copy()
    argv[argv.index(lr_flag) + 1] = lr
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("fedlm: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not os.path.exists(argv[argv.index("--checkpoint") + 1])
    return err


def with_flags(argv, **flags):
    """argv with each --flag-name's value replaced."""
    argv = argv.copy()
    for name, value in flags.items():
        argv[argv.index("--" + name.replace("_", "-")) + 1] = value
    return argv


class TestGen:
    def test_writes_requested_sentence_count(self, workdir, capsys):
        code, out, _ = run(GEN, capsys)
        assert code == 0
        assert "150 sentences" in out
        assert len(load_corpus("tiny.txt")) == 150

    def test_same_seed_is_byte_identical(self, workdir, capsys):
        assert run(GEN, capsys)[0] == 0
        assert run(GEN[:-1] + ["again.txt"], capsys)[0] == 0
        assert (workdir / "tiny.txt").read_bytes() == (workdir / "again.txt").read_bytes()

    def test_zero_sentences_gives_empty_file(self, workdir, capsys):
        code, _, _ = run(["gen", "--sentences", "0", "-o", "none.txt"], capsys)
        assert code == 0
        assert (workdir / "none.txt").read_bytes() == b""

    def test_unsupported_source_order_is_a_runtime_error(self, workdir, capsys):
        code, _, err = run(["gen", "--source-order", "7", "-o", "x.txt"], capsys)
        assert code == 2
        assert "fedlm:" in err


class TestTrainServer:
    def test_produces_checkpoint_vocab_and_metrics(self, workdir, capsys):
        run(GEN, capsys)
        code, out, _ = run(TRAIN, capsys)
        assert code == 0
        assert "top-1" in out
        assert (workdir / "m.ckpt").read_bytes()[:4] == CHECKPOINT_MAGIC
        lines = (workdir / "met.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [int(line.split(",")[1]) for line in lines[1:]] == [0, 3, 6]
        assert load_vocab("v.txt").V <= 40

    def test_rerun_is_byte_identical(self, workdir, capsys):
        run(GEN, capsys)
        assert run(TRAIN, capsys)[0] == 0
        first_ckpt = (workdir / "m.ckpt").read_bytes()
        first_csv = (workdir / "met.csv").read_bytes()
        assert run(TRAIN, capsys)[0] == 0
        assert (workdir / "m.ckpt").read_bytes() == first_ckpt
        assert (workdir / "met.csv").read_bytes() == first_csv

    def test_missing_corpus_is_a_runtime_error(self, workdir, capsys):
        code, _, err = run(TRAIN, capsys)
        assert code == 2
        assert "not found" in err

    @pytest.mark.filterwarnings("error")
    def test_divergent_learning_rate_is_a_runtime_error(self, workdir, capsys):
        argv = TRAIN.copy()
        argv[argv.index("--steps") + 1] = "40"
        run_diverging(argv, "--lr", capsys)

    @pytest.mark.filterwarnings("error")
    def test_runaway_but_finite_loss_is_a_runtime_error(self, workdir, capsys):
        # losses 3.35, 6.5e8, 1.9e20 stay finite; the loss limit stops step 2
        argv = with_flags(TRAIN, steps="3", eval_every="1")
        err = run_diverging(argv, "--lr", capsys, lr="1e6")
        assert "at step 2 of centralized training" in err


class TestTrainFederated:
    def test_produces_federated_metrics(self, workdir, capsys):
        run(GEN, capsys)
        code, out, _ = run(FED, capsys)
        assert code == 0
        assert "±" in out or "rounds" in out
        lines = (workdir / "fmet.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert all(line.split(",")[0] == "federated" for line in lines[1:])
        assert [int(line.split(",")[1]) for line in lines[1:]] == [0, 1, 2]

    def test_zero_rounds_checkpoint_is_the_seeded_initialization(self, workdir, capsys):
        run(GEN, capsys)
        argv = FED.copy()
        argv[argv.index("--rounds") + 1] = "0"
        assert run(argv, capsys)[0] == 0
        vocab = load_vocab("fv.txt")
        expected = init_model(
            CifgConfig(V=vocab.V, D=6, H=8), derive_seed(5, "global-init"),
            dtype=np.float32,
        )
        loaded = load_checkpoint("f.ckpt")
        np.testing.assert_array_equal(flatten(loaded), flatten(expected))

    def test_rerun_is_byte_identical(self, workdir, capsys):
        run(GEN, capsys)
        assert run(FED, capsys)[0] == 0
        first = (workdir / "fmet.csv").read_bytes()
        assert run(FED, capsys)[0] == 0
        assert (workdir / "fmet.csv").read_bytes() == first

    @pytest.mark.filterwarnings("error")
    def test_divergent_client_learning_rate_is_a_runtime_error(self, workdir, capsys):
        run_diverging(FED, "--client-lr", capsys)

    @pytest.mark.filterwarnings("error")
    def test_runaway_but_finite_client_loss_is_a_runtime_error(self, workdir, capsys):
        # a round loss of 6.1e20 stays finite; the loss limit stops the second round's
        # first client step, and the error counts rounds from 1 as the metrics rows do
        argv = with_flags(FED, rounds="3", eval_clients="0", client_batch_size="50")
        err = run_diverging(argv, "--client-lr", capsys, lr="1e6")
        assert "round 2" in err


    def test_reports_only_the_rounds_that_closed(self, workdir, capsys):
        # of 4 rounds only 0 and 2 find 6 eligible clients; the CSV's last row is round 3
        run(GEN, capsys)
        argv = ["train-federated", "--corpus", "tiny.txt", "--vocab-size", "40", "--embed-dim", "6",
                "--hidden", "8", "--clients", "10", "--mean-shard", "10", "--clients-per-round-min", "6",
                "--clients-per-round-max", "8", "--eligibility-prob", "0.6", "--rounds", "4",
                "--fed-eval-every", "2", "--seed", "7"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.startswith("ran 2 rounds over 10 clients; ")
        last = (workdir / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert (last[1], last[2]) == ("3", "127")

    @pytest.mark.filterwarnings("error")
    def test_server_overflow_is_named_at_the_server(self, workdir, capsys):
        # lr 1e300 overflows the first server step; the next client's loss
        # check used to report it, after a numpy warning, as client 2's in round 2
        argv = with_flags(FED + ["--server-lr", "1"], rounds="3", eval_clients="0")
        err = run_diverging(argv, "--server-lr", capsys, lr="1e300")
        assert "server step 1, round 1" in err

    @pytest.mark.parametrize("flag, value", [("fed_eval_every", "0"), ("rounds", "-3")])
    def test_invalid_round_settings_are_a_runtime_error(self, workdir, capsys, flag, value):
        run(GEN, capsys)
        code, out, err = run(with_flags(FED, **{flag: value}), capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("fedlm: ") and err.count("\n") == 1
        assert not os.path.exists("f.ckpt")

@pytest.mark.parametrize("argv", [
    FED + ["--server-lr", "-1"],
    TRAIN + ["--lr", "nan"],
    FED + ["--client-lr", "nan"],
    FED + ["--eval-clients", "-1"],
    ["gen", "--sentences", "-5", "-o", "x.txt"],
    TRAIN + ["--eval-frac", "nan"],
], ids=["server-lr--1", "lr-nan", "client-lr-nan", "eval-clients--1", "sentences--5", "eval-frac-nan"])
def test_malformed_settings_are_one_line_and_exit_2(workdir, capsys, argv):
    run(GEN, capsys)
    before = sorted(os.listdir())
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("fedlm: ") and err.count("\n") == 1
    assert sorted(os.listdir()) == before


KINDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
SWEEP_VALUES = {"int": ("-1", "0"), "float": ("-1", "0", "nan", "inf", "-inf")}


def _sweep_fed():
    argv = with_flags(FED, checkpoint="sweep.ckpt", vocab="sweep_v.txt", metrics="sweep.csv")
    at = argv.index("--clients-per-round")  # each bound on its own, so that sweeping one takes effect
    argv[at : at + 2] = ["--clients-per-round-min", "2", "--clients-per-round-max", "3"]
    return argv


# One representative run of each command on the files of sweep_dir. Outputs go to
# sweep* paths, removed before every run, so that a file an exit 2 leaves shows.
SWEEP_RUNS = {
    "gen": ["gen", "--sentences", "20", "--source-vocab", "25", "--seed", "3", "-o", "sweep.txt"],
    "train-server": with_flags(TRAIN, checkpoint="sweep.ckpt", vocab="sweep_v.txt", metrics="sweep.csv"),
    "train-federated": _sweep_fed(),
    "eval": ["eval", "--checkpoint", "m.ckpt", "--vocab", "v.txt", "--data", "tiny.txt",
             "--fed-eval", "--eval-clients", "3"],
    "compare": ["compare", "--models", "m.ckpt,ngram,unigram", "--data", "tiny.txt",
                "--corpus", "tiny.txt", "--vocab", "v.txt", "--out", "sweep.csv"],
    "quantize": ["quantize", "--checkpoint", "m.ckpt", "--out", "sweep.q8"],
}


@pytest.fixture
def sweep_dir(workdir, capsys):
    """tiny.txt, and m.ckpt with its v.txt of 20 ids: fewer than tiny.txt's 25 words."""
    assert run(GEN, capsys)[0] == 0
    assert run(with_flags(TRAIN, vocab_size="20"), capsys)[0] == 0
    return workdir


def _numeric_flags(entries):
    """(flag, annotation) of every int or float flag among a command's entries."""
    for entry in entries:
        if isinstance(entry, str):
            if KINDS[entry] in SWEEP_VALUES:
                yield "--" + entry.replace("_", "-"), KINDS[entry]
        elif entry[1].get("type") in (int, float):
            yield entry[0][-1], entry[1]["type"].__name__


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", COMMANDS)
def test_edge_values_of_every_numeric_flag_exit_0_or_2(sweep_dir, capsys, command):
    # --flag=value, because argparse reads a bare -inf as a flag
    failures = []
    for flag, kind in _numeric_flags(COMMANDS[command][1]):
        for value in SWEEP_VALUES[kind]:
            for name in os.listdir():
                if name.startswith("sweep"):
                    os.remove(name)
            before = sorted(os.listdir())
            try:
                code, out, err = run(SWEEP_RUNS[command] + [f"{flag}={value}"], capsys)
            except Exception as exc:  # main let it through: a traceback
                capsys.readouterr()
                failures.append((flag, value, repr(exc)))
                continue
            one_line = err.startswith("fedlm: ") and err.count("\n") == 1
            if not (code == 0 or (code == 2 and one_line and sorted(os.listdir()) == before)):
                failures.append((flag, value, code, err))
    assert failures == []


@pytest.mark.parametrize("command", COMMANDS)
def test_every_settable_field_is_read(sweep_dir, capsys, monkeypatch, command):
    reads = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if name in KINDS:
                reads.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(cli, "resolve_config", lambda args: Recording(**dataclasses.asdict(resolve_config(args))))
    assert run(SWEEP_RUNS[command], capsys)[0] == 0
    settable = vars(build_parser().parse_args(SWEEP_RUNS[command])).keys() & KINDS.keys()
    assert settable - reads == set()


class TestEvalAndCompare:
    def setup_run(self, capsys):
        run(GEN, capsys)
        run(TRAIN, capsys)

    def test_eval_prints_recalls(self, workdir, capsys):
        self.setup_run(capsys)
        code, out, _ = run(
            ["eval", "--checkpoint", "m.ckpt", "--vocab", "v.txt", "--data", "tiny.txt"],
            capsys,
        )
        assert code == 0
        assert out.startswith("top-1 ")
        assert "top-3" in out

    def test_fed_eval_prints_error_bars(self, workdir, capsys):
        self.setup_run(capsys)
        code, out, _ = run(
            ["eval", "--checkpoint", "m.ckpt", "--vocab", "v.txt", "--data", "tiny.txt",
             "--fed-eval", "--eval-clients", "3"],
            capsys,
        )
        assert code == 0
        assert "±" in out

    def test_fed_eval_of_an_empty_corpus_is_a_runtime_error(self, workdir, capsys):
        # training rows read NaN when nothing is scored; a requested evaluation fails instead
        self.setup_run(capsys)
        (workdir / "empty.txt").write_text("")
        code, out, err = run(
            ["eval", "--checkpoint", "m.ckpt", "--vocab", "v.txt", "--data", "empty.txt", "--fed-eval"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "fedlm: empty evaluation population\n"

    def test_eval_requires_data_flag(self, workdir, capsys):
        code, _, err = run(["eval", "--checkpoint", "m.ckpt"], capsys)
        assert code == 1
        assert "fedlm:" in err

    def test_vocab_checkpoint_mismatch_is_a_runtime_error(self, workdir, capsys):
        self.setup_run(capsys)
        argv = TRAIN.copy()
        argv[argv.index("--vocab-size") + 1] = "12"
        argv[argv.index("--checkpoint") + 1] = "small.ckpt"
        argv[argv.index("--vocab") + 1] = "smallv.txt"
        run(argv, capsys)
        code, _, err = run(
            ["eval", "--checkpoint", "small.ckpt", "--vocab", "v.txt", "--data", "tiny.txt"],
            capsys,
        )
        assert code == 2
        assert "does not match" in err

    def test_compare_reports_all_models(self, workdir, capsys):
        self.setup_run(capsys)
        code, out, _ = run(
            ["compare", "--models", "m.ckpt,ngram,unigram", "--data", "tiny.txt",
             "--corpus", "tiny.txt", "--vocab", "v.txt",
             "--seed", "5", "--out", "report.csv"],
            capsys,
        )
        assert code == 0
        body = [line for line in out.splitlines() if line and not line.startswith("report:")]
        assert body[0].startswith("model")
        assert {line.split()[0] for line in body[1:]} == {"m.ckpt", "ngram", "unigram"}
        csv_lines = (workdir / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "model,top1,top3"
        assert len(csv_lines) == 4

    def test_compare_fits_ngrams_on_the_vocab_file(self, workdir, capsys):
        # the n-gram corpus is tokenized with --vocab alone: a shared file's vocab_size
        # is the trainers' setting and must not move the n-gram rows
        run(GEN, capsys)
        assert run(with_flags(TRAIN, vocab_size="20"), capsys)[0] == 0
        (workdir / "shared.cfg").write_text("vocab_size = 12\nseed = 5\n")
        code, _, _ = run(
            ["compare", "--config", "shared.cfg", "--models", "ngram,unigram", "--data", "tiny.txt",
             "--corpus", "tiny.txt", "--vocab", "v.txt", "--out", "report.csv"],
            capsys,
        )
        assert code == 0
        vocab = load_vocab("v.txt")
        data = [tokenize(s, vocab) for s in load_corpus("tiny.txt")]
        train = corpus.split(data, (0.8, 0.1, 0.1), 5).train
        tables = [(name, ngram.train_ngram(train, order, 0.75, vocab.V)) for name, order in (("ngram", 3), ("unigram", 1))]
        assert (workdir / "report.csv").read_text() == evaluate.compare_report(tables, data, ks=(1, 3)).as_csv()

    def test_compare_same_checkpoint_twice_gives_identical_rows(self, workdir, capsys):
        self.setup_run(capsys)
        code, _, _ = run(
            ["compare", "--models", "m.ckpt,m.ckpt", "--data", "tiny.txt",
             "--vocab", "v.txt", "--out", "rep.csv"],
            capsys,
        )
        assert code == 0
        rows = (workdir / "rep.csv").read_text().splitlines()[1:]
        assert rows[0] == rows[1]


def _cut_in_header(data):
    return data[:12]


def _absurd_dims(data):
    # V = D = H = 2**24 - 1 asks for a petabyte of weights
    return data[:8] + struct.pack("<III", 0xFFFFFF, 0xFFFFFF, 0xFFFFFF) + data[20:]


def _trailing_bytes(data):
    return data + b"\x00" * 3


# The first float after the header is W[0, 0] in a float checkpoint and the
# first tensor's scale in an int8 one; the second is W[0, 1] or its zero point.
def _nan_first_float(data):
    return data[:20] + struct.pack("<f", float("nan")) + data[24:]


def _inf_second_float(data):
    return data[:24] + struct.pack("<f", float("inf")) + data[28:]


@pytest.mark.parametrize(
    "damage", [_cut_in_header, _absurd_dims, _trailing_bytes, _nan_first_float, _inf_second_float]
)
@pytest.mark.parametrize("quantized", [False, True], ids=["float", "int8"])
def test_eval_of_a_malformed_checkpoint_is_one_line_and_exit_2(workdir, capsys, quantized, damage):
    run(GEN, capsys)
    assert run(TRAIN, capsys)[0] == 0
    path = "m.ckpt"
    if quantized:
        assert run(["quantize", "--checkpoint", "m.ckpt", "--out", "m.q8"], capsys)[0] == 0
        path = "m.q8"
    (workdir / "bad").write_bytes(damage((workdir / path).read_bytes()))
    code, out, err = run(["eval", "--checkpoint", "bad", "--vocab", "v.txt", "--data", "tiny.txt"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("fedlm: ") and err.count("\n") == 1


def test_eval_with_a_repeated_vocab_word_is_one_line_and_exit_2(workdir, capsys):
    run(GEN, capsys)
    assert run(TRAIN, capsys)[0] == 0
    lines = (workdir / "v.txt").read_text().splitlines()
    lines[-1] = lines[-2]  # same size, one word twice
    (workdir / "v.txt").write_text("\n".join(lines) + "\n")
    code, out, err = run(["eval", "--checkpoint", "m.ckpt", "--vocab", "v.txt", "--data", "tiny.txt"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("fedlm: ") and err.count("\n") == 1
    assert "repeats a word" in err


class TestQuantizeCommand:
    def test_quantize_then_eval_through_the_same_interface(self, workdir, capsys):
        run(GEN, capsys)
        run(TRAIN, capsys)
        code, out, _ = run(
            ["quantize", "--checkpoint", "m.ckpt", "--out", "m.q8"], capsys
        )
        assert code == 0
        assert (workdir / "m.q8").read_bytes()[:4] == QUANTIZED_MAGIC
        assert os.path.getsize("m.q8") < os.path.getsize("m.ckpt")
        code, out, _ = run(
            ["eval", "--checkpoint", "m.q8", "--vocab", "v.txt", "--data", "tiny.txt"],
            capsys,
        )
        assert code == 0
        assert out.startswith("top-1 ")

    def test_missing_checkpoint_is_a_runtime_error(self, workdir, capsys):
        code, _, err = run(["quantize", "--checkpoint", "nope.ckpt", "--out", "x.q8"], capsys)
        assert code == 2
        assert "not found" in err


class TestConfigResolution:
    def test_file_overrides_defaults_and_flags_override_file(self, workdir, capsys):
        run(GEN, capsys)
        (workdir / "run.cfg").write_text(
            "# experiment record\nmax_steps = 2\neval_every = 1\nlr = 0.3\n"
            "vocab_size = 40\nembed_dim = 6\nhidden = 8\nbatch_size = 8\nseed = 5\n"
            "corpus = tiny.txt\ncheckpoint = c.ckpt\nvocab = cv.txt\nmetrics = c.csv\n"
        )
        code, _, _ = run(["train-server", "--config", "run.cfg"], capsys)
        assert code == 0
        steps = [int(l.split(",")[1]) for l in (workdir / "c.csv").read_text().splitlines()[1:]]
        assert steps == [0, 1, 2]  # file's max_steps=2 beat the default 1000

        code, _, _ = run(["train-server", "--config", "run.cfg", "--steps", "4"], capsys)
        assert code == 0
        steps = [int(l.split(",")[1]) for l in (workdir / "c.csv").read_text().splitlines()[1:]]
        assert steps == [0, 1, 2, 3, 4]  # flag beat the file

    def test_unknown_config_key_is_a_usage_error(self, workdir, capsys):
        (workdir / "bad.cfg").write_text("no_such_knob = 3\n")
        code, _, err = run(["train-server", "--config", "bad.cfg"], capsys)
        assert code == 1
        assert "unknown config key" in err

    def test_bad_value_is_a_usage_error(self, workdir, capsys):
        (workdir / "bad.cfg").write_text("max_steps = soon\n")
        code, _, err = run(["train-server", "--config", "bad.cfg"], capsys)
        assert code == 1
        assert "bad value" in err

    def test_comments_and_blanks_are_ignored(self, workdir):
        (workdir / "ok.cfg").write_text("\n# comment only\nseed = 7 # trailing\n\n")
        assert parse_config_file(str(workdir / "ok.cfg")) == {"seed": 7}

    def test_every_field_flag_resolves_like_its_config_key(self, workdir):
        # one sample value per annotation; a bool flag is a switch, its key reads "true"
        samples = {"int": "7", "float": "0.25", "str": "x.txt", "bool": "true"}
        required = {"eval": ["--data", "d.txt"], "compare": ["--models", "ngram", "--data", "d.txt"],
                    "quantize": ["--out", "q.q8"]}
        kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        parser = build_parser()
        reached = set()
        for command, (_, entries, _) in COMMANDS.items():
            base = [command, *required.get(command, [])]
            reached |= vars(parser.parse_args(base)).keys() & kinds.keys()
            for name in (entry for entry in entries if isinstance(entry, str)):
                raw = samples[kinds[name]]
                flag = ["--" + name.replace("_", "-")] + ([] if kinds[name] == "bool" else [raw])
                (workdir / "one.cfg").write_text(f"{name} = {raw}\n")
                by_flag = getattr(resolve_config(parser.parse_args(base + flag)), name)
                by_file = getattr(resolve_config(parser.parse_args(base + ["--config", "one.cfg"])), name)
                assert by_flag == by_file != getattr(RunConfig(), name), (command, name)
                assert type(by_flag).__name__ == type(by_file).__name__ == kinds[name], (command, name)
        assert reached == kinds.keys()  # every setting can be given on some command line

    def test_defaults_match_documented_values(self):
        cfg = RunConfig()
        assert (cfg.vocab_size, cfg.embed_dim, cfg.hidden) == (10000, 96, 670)
        assert cfg.ngram_order == 3
        assert (cfg.train_frac, cfg.test_frac, cfg.eval_frac) == (0.8, 0.1, 0.1)


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert "fedlm:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(["gen", "--warp-speed", "9"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["compare", "--models", "ngram", "--data", "d.txt", "--vocab-size", "40"],
        ["compare", "--models", "ngram", "--data", "d.txt", "--embed-dim", "6"],
        ["compare", "--models", "ngram", "--data", "d.txt", "--hidden", "8"],
        ["quantize", "--out", "q.q8", "--seed", "1"],
    ], ids=["compare-vocab-size", "compare-embed-dim", "compare-hidden", "quantize-seed"])
    def test_flags_a_command_never_reads_are_usage_errors(self, capsys, argv):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("fedlm: unrecognized arguments: ")

    def test_no_command(self, capsys):
        assert run([], capsys)[0] == 1
