"""Desk-scale federated next-word prediction: a coupled-input-forget-gate
recurrent language model trained centrally and by simulated
FederatedAveraging, compared against a backoff n-gram baseline."""

__version__ = "0.1.0"

from .cifg import (
    CifgConfig,
    CifgModel,
    init_model,
    loss_and_grads,
    param_count,
    predict_topk,
    quantize,
    dequantize,
    save_checkpoint,
    load_checkpoint,
)
from .central import CentralConfig, train_centralized
from .corpus import Vocabulary, build_vocab, partition_clients, split, synthesize_corpus, tokenize
from .evaluate import MetricsRow, compare_report, write_metrics_csv
from .fedavg import FedConfig, aggregate, client_round, run_federated, sample_clients, server_update
from .ngram import NgramTable, oracle_predict, predict_topk_ngram, train_ngram

__all__ = [
    "CifgConfig", "CifgModel", "init_model", "loss_and_grads", "param_count",
    "predict_topk", "quantize", "dequantize", "save_checkpoint", "load_checkpoint",
    "CentralConfig", "train_centralized",
    "Vocabulary", "build_vocab", "partition_clients", "split", "synthesize_corpus", "tokenize",
    "MetricsRow", "compare_report", "write_metrics_csv",
    "FedConfig", "aggregate", "client_round", "run_federated",
    "sample_clients", "server_update",
    "NgramTable", "oracle_predict", "predict_topk_ngram", "train_ngram",
]
