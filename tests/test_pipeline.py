"""The client-shard wiring in fedlm.pipeline, checked against hand-made
partition_clients calls."""

from conftest import make_sentences
from fedlm.corpus import CorpusSplit, partition_clients
from fedlm.nn_core import derive_seed
from fedlm.pipeline import client_shards, eval_shards, prepare


def shard_lists(shards):
    return [(s.client_id, s.sentences) for s in shards]


def split_of(n_sentences):
    raw = make_sentences(n_sentences, [f"w{i}" for i in range(15)], seed=31)
    return prepare(raw, 12, (0.7, 0.1, 0.2), seed=8)[1]


def test_client_shards_use_the_train_and_eval_tags():
    data = split_of(120)
    population, held_out = client_shards(data, 6, 9, 4, seed=77)
    assert shard_lists(population) == shard_lists(
        partition_clients(data.train, 6, 9, derive_seed(77, "train-clients")))
    assert len(data.eval) == 24  # 4 caches of mean size 24 // 4
    assert shard_lists(held_out) == shard_lists(
        partition_clients(data.eval, 4, 6, derive_seed(77, "eval-clients")))


def test_fewer_held_out_sentences_than_eval_clients():
    sentences = [[0, 3 + i, 1] for i in range(3)]
    assert shard_lists(eval_shards(sentences, 10, seed=5)) == shard_lists(
        partition_clients(sentences, 3, 1, derive_seed(5, "eval-clients")))


def test_no_eval_clients_or_no_eval_split_gives_no_eval_population():
    data = split_of(40)
    assert client_shards(data, 3, 5, 0, seed=1)[1] == []
    no_eval = CorpusSplit(train=data.train, test=data.test, eval=[], seed=data.seed)
    assert client_shards(no_eval, 3, 5, 4, seed=1)[1] == []
