"""Backoff n-gram baseline with absolute discounting, plus a brute-force
prediction oracle that recomputes probabilities straight from a raw corpus.

The model estimates P(w | context) by discounting each observed count by a
fixed delta and handing the freed mass to the next-shorter context:

    P(w | ctx) = max(c(ctx, w) - delta, 0) / c(ctx) + lambda(ctx) * P(w | ctx[1:])
    lambda(ctx) = delta * |{w : c(ctx, w) > 0}| / c(ctx)

The recursion bottoms out in a uniform distribution over the full vocabulary,
so every distribution is proper. Prediction starts from the longest context
suffix actually observed in training (at most order-1 tokens).

The oracle path and the table path share the arithmetic of the formula above
but nothing else: counting, context matching, and traversal are written twice
so one can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import NUM_SPECIALS

MAX_ORDER = 5
DEFAULT_DISCOUNT = 0.75


@dataclass
class NgramTable:
    order: int
    discount: float
    vocab_size: int
    counts: dict = field(repr=False)  # context tuple -> {next_id: count}

    def topk_candidates(self, seqs, k):
        """Ordered candidate ids at every prediction position of every
        sequence, memoized per context suffix (the distribution depends on
        nothing else)."""
        k_eff = min(k, self.vocab_size - NUM_SPECIALS)
        span = self.order - 1
        cache = {}
        out = []
        for seq in seqs:
            rows = []
            for j in range(1, len(seq)):
                key = tuple(seq[max(0, j - span) : j])
                ids = cache.get(key)
                if ids is None:
                    probs = backoff_probs(self, key)
                    probs[:NUM_SPECIALS] = -1.0
                    ids = np.argsort(-probs, kind="stable")[:k_eff]
                    cache[key] = ids
                rows.append(ids)
            out.append(np.stack(rows) if rows else np.zeros((0, k_eff), dtype=np.int64))
        return out

    def target_ranks(self, seqs) -> np.ndarray:
        """Rank of each target among its position's candidates, as
        topk_candidates orders them: one int per prediction position. Each
        distinct context is ranked once, from one shared base level."""
        span = self.order - 1
        by_context = {}  # context -> flat indices of its positions
        targets = []
        for seq in seqs:
            for j in range(1, len(seq)):
                by_context.setdefault(tuple(seq[max(0, j - span) : j]), []).append(len(targets))
                targets.append(seq[j])
        targets = np.array(targets, dtype=np.int64)
        ranks = np.empty(len(targets), dtype=np.int64)
        base = _base_probs(self)
        rank_of = np.empty(self.vocab_size, dtype=np.int64)
        for key, idx in by_context.items():
            neg = -_backoff_from(self, key, base)
            neg[:NUM_SPECIALS] = 1.0  # the specials' -1.0, negated
            rank_of[np.argsort(neg, kind="stable")] = np.arange(self.vocab_size)
            ranks[idx] = rank_of[targets[idx]]
        return ranks


def train_ngram(corpus: list, order: int, discount: float, vocab_size: int) -> NgramTable:
    """Accumulate continuation counts for every context length 0..order-1.

    Contexts never cross the sentence start, so a position j contributes
    only the context lengths that fit (j, j-1, ..., 0 preceding tokens).
    The beginning-of-sentence token appears in contexts but is never a
    counted continuation.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must be in (0, 1)")
    counts = {}
    for seq in corpus:
        for j in range(1, len(seq)):
            target = seq[j]
            for span in range(0, min(order - 1, j) + 1):
                ctx = tuple(seq[j - span : j])
                bucket = counts.setdefault(ctx, {})
                bucket[target] = bucket.get(target, 0) + 1
    return NgramTable(order=order, discount=discount, vocab_size=vocab_size, counts=counts)


def _longest_known_suffix(context, order: int, present) -> tuple:
    ctx = tuple(context[max(0, len(context) - (order - 1)) :]) if order > 1 else ()
    while ctx and not present(ctx):
        ctx = ctx[1:]
    return ctx


def backoff_probs(table: NgramTable, context) -> np.ndarray:
    """Full next-token distribution (length V) for a context, built bottom-up
    from the uniform base through each observed suffix level."""
    return _backoff_from(table, context, _base_probs(table))


def _apply_level(table: NgramTable, level: dict, probs: np.ndarray) -> np.ndarray:
    tot = sum(level.values())
    lam = table.discount * len(level) / tot
    q = np.zeros(table.vocab_size)
    for w, c in level.items():
        q[w] = max(c - table.discount, 0.0) / tot
    return q + lam * probs


def _base_probs(table: NgramTable) -> np.ndarray:
    """The uniform base with the empty context's level applied, the first
    step of every distribution (the level is missing only on an empty table)."""
    probs = np.full(table.vocab_size, 1.0 / table.vocab_size)
    level = table.counts.get(())
    return probs if level is None else _apply_level(table, level, probs)


def _backoff_from(table: NgramTable, context, base: np.ndarray) -> np.ndarray:
    """backoff_probs from a precomputed _base_probs; every suffix of a known
    context is known. Returns base itself for an empty suffix."""
    ctx = _longest_known_suffix(context, table.order, lambda c: c in table.counts)
    probs = base
    for i in range(len(ctx) - 1, -1, -1):
        probs = _apply_level(table, table.counts[ctx[i:]], probs)
    return probs


def predict_topk_ngram(table: NgramTable, context, k: int) -> list:
    """Top-k (word id, probability) continuations; special tokens are barred
    from candidacy; ties break toward the lower id. At most V-3 items exist
    (every real word has positive backoff probability), so fewer than k come
    back when k exceeds that."""
    if k < 1:
        raise ValueError("k must be at least 1")
    probs = backoff_probs(table, context)
    masked = probs.copy()
    masked[:NUM_SPECIALS] = -1.0
    ids = np.argsort(-masked, kind="stable")[: min(k, table.vocab_size - NUM_SPECIALS)]
    return [(int(i), float(probs[i])) for i in ids]


# ---------------------------------------------------------------------------
# Brute-force oracle: no table, no shared counting code.


def _scan_continuations(corpus: list, ctx: tuple) -> dict:
    """Count, by direct corpus scan, what follows each occurrence of ctx."""
    span = len(ctx)
    found = {}
    for seq in corpus:
        for j in range(1, len(seq)):
            if j - span >= 0 and tuple(seq[j - span : j]) == ctx:
                found[seq[j]] = found.get(seq[j], 0) + 1
    return found


def oracle_predict(corpus: list, context, k: int, order: int, discount: float, vocab_size: int) -> list:
    """Reference prediction: recompute the backoff distribution by direct
    enumeration over the raw corpus and return the ordered top-k ids."""
    V = vocab_size
    ctx = _longest_known_suffix(context, order, lambda c: bool(_scan_continuations(corpus, c)))
    probs = np.full(V, 1.0 / V)
    for i in range(len(ctx), -1, -1):
        level = _scan_continuations(corpus, ctx[i:])
        if not level:
            continue
        tot = sum(level.values())
        lam = discount * len(level) / tot
        q = np.zeros(V)
        for w, c in level.items():
            q[w] = max(c - discount, 0.0) / tot
        probs = q + lam * probs
    masked = probs.copy()
    masked[:NUM_SPECIALS] = -1.0
    ids = np.argsort(-masked, kind="stable")[: min(k, V - NUM_SPECIALS)]
    return [int(i) for i in ids]
