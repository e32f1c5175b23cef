"""Recall metrics, per-client uncertainty, and model-comparison reporting.

Top-k recall here is the fraction of next-word positions whose true word
appears among the k highest-probability candidates, with the conventions:

* positions whose target is the end-of-sentence token are excluded entirely
  (the keyboard predicts words, and EOS is masked from candidates anyway,
  so counting it would deflate every model equally without information);
* positions whose target is out-of-vocabulary stay in the denominator as
  automatic misses (the masked UNK token can never be offered);
* the beginning-of-sentence token is never a target.

Any predictor with a `topk_candidates(seqs, k)` method works: it returns,
per sequence, the ordered candidate-id rows of every position, computed in
one batched pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .corpus import BOS_ID, EOS_ID, UNK_ID

CSV_HEADER = "phase,step_or_round,examples_seen,loss,top1,top3,top1_stderr,wall_ms"


@dataclass
class MetricsRow:
    phase: str  # "central" or "federated"
    step_or_round: int
    examples_seen: int
    loss: float
    top1: float
    top3: float
    top1_stderr: float = 0.0
    wall_ms: float = 0.0


def write_metrics_csv(path, rows: list, include_timing: bool = False) -> None:
    """Write the shared metrics schema. Floats are rendered with repr so the
    file is bit-faithful to the computed values. Wall-clock times are zeroed
    unless explicitly requested: they are the one column that would break
    byte-identical reruns.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            wall = repr(float(r.wall_ms)) if include_timing else "0.0"
            fh.write(
                f"{r.phase},{r.step_or_round},{r.examples_seen},"
                f"{float(r.loss)!r},{float(r.top1)!r},{float(r.top3)!r},"
                f"{float(r.top1_stderr)!r},{wall}\n"
            )


def multi_k_stats(predictor, data: list, ks: tuple) -> tuple:
    """(hits per k, scored positions) in one pass.

    Candidates are computed once at max(ks); a top-k list is a prefix of the
    top-max(ks) list because rows are ordered.
    """
    kmax = max(ks)
    hits = {k: 0 for k in ks}
    positions = 0
    for seq, cands in zip(data, predictor.topk_candidates(data, kmax)):
        for idx in range(len(seq) - 1):
            target = seq[idx + 1]
            if target == BOS_ID or target == EOS_ID:
                continue
            positions += 1
            if target == UNK_ID:
                continue  # automatic miss: the unk token is masked from candidates
            row = cands[idx]
            for k in ks:
                if target in row[:k]:
                    hits[k] += 1
    return hits, positions


def recalls_topk(predictor, data: list, ks: tuple) -> dict:
    """{k: top-k recall} for every k from one pass over data."""
    if min(ks) < 1:
        raise ValueError("k must be at least 1")
    hits, positions = multi_k_stats(predictor, data, ks)
    if positions == 0:
        raise ValueError("empty evaluation")
    return {k: hits[k] / positions for k in ks}


def recall_topk(predictor, data: list, k: int) -> float:
    return recalls_topk(predictor, data, (k,))[k]


@contextmanager
def scoring_during_training(where: str):
    """Scope for the trainers' periodic evaluation: a model that has diverged
    overflows here, and that ends the run with one FloatingPointError naming
    where, instead of numpy warnings and a meaningless recall row."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"non-finite model output at {where} ({exc})") from None


@dataclass
class JackknifeResult:
    recall: float
    stderr: float
    degenerate: bool  # True when fewer than two contributing clients exist


def jackknife_recall(per_client: list) -> JackknifeResult:
    """Token-weighted recall over clients plus leave-one-client-out jackknife
    standard error. per_client holds (hits, positions) pairs; clients with no
    scored positions are excluded (their leave-out replicate is undefined).
    """
    kept = [(h, p) for h, p in per_client if p > 0]
    if not kept:
        raise ValueError("empty evaluation")
    total_h = sum(h for h, _ in kept)
    total_p = sum(p for _, p in kept)
    overall = total_h / total_p
    n = len(kept)
    if n <= 1:
        return JackknifeResult(recall=overall, stderr=0.0, degenerate=True)
    theta = np.array([(total_h - h) / (total_p - p) for h, p in kept])
    if np.all(theta == theta[0]):
        # identical replicates have exactly zero variance; computing it via
        # the mean would leave 1-ulp residue when n*theta rounds
        return JackknifeResult(recall=overall, stderr=0.0, degenerate=False)
    se = math.sqrt((n - 1) / n * float(((theta - theta.mean()) ** 2).sum()))
    return JackknifeResult(recall=overall, stderr=se, degenerate=False)


@dataclass
class CompareReport:
    ks: tuple
    rows: list  # (name, {k: recall})

    def as_csv(self) -> str:
        lines = ["model," + ",".join(f"top{k}" for k in self.ks)]
        for name, recalls in self.rows:
            lines.append(name + "," + ",".join(repr(float(recalls[k])) for k in self.ks))
        return "\n".join(lines) + "\n"

    def as_text(self) -> str:
        name_w = max(len("model"), *(len(name) for name, _ in self.rows))
        header = f"{'model':<{name_w}}" + "".join(f"  {f'top-{k}':>8}" for k in self.ks)
        lines = [header]
        for name, recalls in self.rows:
            cells = "".join(f"  {recalls[k]:>8.4f}" for k in self.ks)
            lines.append(f"{name:<{name_w}}" + cells)
        return "\n".join(lines) + "\n"


def compare_report(models: list, data: list, ks: tuple = (1, 3)) -> CompareReport:
    """Evaluate named predictors on the same data. models is a list of
    (name, predictor) pairs and their order is preserved in the report."""
    if not models:
        raise ValueError("no models to compare")
    ks = tuple(sorted(ks))
    return CompareReport(ks=ks, rows=[(name, recalls_topk(predictor, data, ks)) for name, predictor in models])
