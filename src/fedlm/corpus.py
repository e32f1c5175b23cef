"""Corpus handling: synthetic sentence generation, tokenization, vocabulary
construction, train/test/eval splitting, and partitioning into per-client
shards that simulate on-device caches.

Sentences on disk are UTF-8 text, one per line, LF-terminated. Vocabulary
files carry a `#V=<n>` header followed by one word per line (line number =
id - 3; the first three ids are reserved for the special tokens).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .nn_core import rng_for

BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
UNK_TOKEN = "<unk>"
SPECIAL_TOKENS = (BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
NUM_SPECIALS = 3

# Mean sentence length of the length model used by synthesize_corpus.
MEAN_SENTENCE_LEN = 4.1

# A token sequence is a plain list of ids: [BOS_ID, w1, ..., wn, EOS_ID].
TokenSeq = list


@dataclass(frozen=True)
class Vocabulary:
    """Dense id space [0, V): specials at 0..2, then words by frequency."""

    words: tuple
    index: dict = field(repr=False)

    @property
    def V(self) -> int:
        return len(self.words)

    def id_of(self, word: str) -> int:
        """Id of a surface word; absent (or special) surfaces map to unk."""
        return self.index.get(word, UNK_ID)


def build_vocab(corpus: list, V: int) -> Vocabulary:
    """Specials plus the V-3 most frequent whitespace-delimited words.

    Frequency ties break lexicographically so the id assignment is stable
    across platforms.
    """
    if V < NUM_SPECIALS + 1:
        raise ValueError("vocabulary capacity must be at least 4")
    if not corpus:
        raise ValueError("empty corpus")
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence.lower().split())
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [w for w, _ in ranked[: V - NUM_SPECIALS]]
    words = SPECIAL_TOKENS + tuple(kept)
    index = {w: NUM_SPECIALS + i for i, w in enumerate(kept)}
    return Vocabulary(words=words, index=index)


def tokenize(sentence: str, vocab: Vocabulary) -> TokenSeq:
    """[bos] + per-word ids (unk for unseen words) + [eos].

    An empty sentence becomes just [bos, eos].
    """
    return [BOS_ID] + [vocab.id_of(w) for w in sentence.lower().split()] + [EOS_ID]


def is_trainable(ids: TokenSeq) -> bool:
    """Training-eligibility filter: only sequences that begin with the
    beginning-of-sentence token are used as training examples. Trivially
    true for tokenizer output, but enforced explicitly at training entry."""
    return len(ids) >= 2 and ids[0] == BOS_ID


@dataclass
class ClientShard:
    """One simulated device cache: a client id and its local sentences."""

    client_id: int
    sentences: list

    @property
    def n_k(self) -> int:
        return len(self.sentences)


@dataclass
class CorpusSplit:
    train: list
    test: list
    eval: list
    seed: int


def split(corpus: list, fractions: tuple, seed: int) -> CorpusSplit:
    """Deterministic shuffled partition into (train, test, eval).

    Fractions must be non-negative and sum to 1; the realized sizes match
    the requested proportions within one sentence.
    """
    f_train, f_test, f_eval = fractions
    if min(f_train, f_test, f_eval) < 0 or abs(f_train + f_test + f_eval - 1.0) > 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    n = len(corpus)
    perm = rng_for(seed, "split").permutation(n)
    n_train = int(round(f_train * n))
    n_test = min(int(round(f_test * n)), n - n_train)
    shuffled = [corpus[i] for i in perm]
    return CorpusSplit(
        train=shuffled[:n_train],
        test=shuffled[n_train : n_train + n_test],
        eval=shuffled[n_train + n_test :],
        seed=seed,
    )


def partition_clients(corpus: list, num_clients: int, mean_shard: int, seed: int) -> list:
    """Assign sentences to clients with log-normally distributed shard sizes.

    Sizes are drawn with log-space sigma 0.5 and mean mean_shard, clamped
    to >= 1; a shuffled corpus is then consumed without replacement, each
    client taking its drawn size (or whatever remains). Clients that would
    receive nothing are dropped, so every returned shard is nonempty.
    Sentences beyond the drawn total stay unassigned, mirroring the fact
    that a round of devices never covers the whole population's data.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be at least 1")
    if len(corpus) < num_clients:
        raise ValueError("insufficient sentences")
    if mean_shard < 1:
        raise ValueError("mean_shard must be at least 1")
    rng = rng_for(seed, "partition")
    sigma = 0.5
    mu = np.log(mean_shard) - sigma**2 / 2.0
    sizes = np.maximum(1, np.rint(rng.lognormal(mu, sigma, size=num_clients))).astype(int)
    perm = rng.permutation(len(corpus))
    shards = []
    cursor = 0
    for k in range(num_clients):
        take = min(int(sizes[k]), len(corpus) - cursor)
        if take == 0:
            break
        shards.append(
            ClientShard(
                client_id=k,
                sentences=[corpus[i] for i in perm[cursor : cursor + take]],
            )
        )
        cursor += take
    return shards


def _context_support(seed: int, ctx: tuple, vocab_size: int) -> list:
    """Support of the source distribution for one context, most likely word
    first. Derived from (seed, context) alone so it never depends on
    generation order."""
    return rng_for(seed, "ctxdist", *ctx).permutation(vocab_size)[: min(12, vocab_size)].tolist()


def synthesize_corpus(source_order: int, vocab_size: int, num_sentences: int, seed: int) -> list:
    """Sample sentences from a randomly constructed source n-gram model.

    Each context of the previous (source_order - 1) words owns a fixed
    sparse distribution over a small support with geometrically decaying
    weights; sentence lengths are geometric with mean MEAN_SENTENCE_LEN.
    Words surface as "w<id>". Fully deterministic from the seed: one
    geometric draw per sentence plus exactly one uniform draw per word.
    """
    if source_order not in (2, 3):
        raise ValueError("source_order must be 2 or 3")
    if vocab_size < 10:
        raise ValueError("vocab_size must be at least 10")
    if num_sentences < 0:
        raise ValueError("the number of sentences must not be negative")
    stream = rng_for(seed, "sentences")
    support_size = min(12, vocab_size)
    weights = 0.6 ** np.arange(support_size)
    cum = np.cumsum(weights / weights.sum()).tolist()  # the same for every context
    supports = {}
    pad = (-1,) * (source_order - 1)
    sentences = []
    for _ in range(num_sentences):
        length = int(stream.geometric(1.0 / MEAN_SENTENCE_LEN))
        ctx = pad
        words = []
        for u in stream.uniform(size=length).tolist():  # the same doubles as one draw per word
            support = supports.get(ctx)
            if support is None:
                support = supports[ctx] = _context_support(seed, ctx, vocab_size)
            word_id = support[min(bisect_right(cum, u), support_size - 1)]
            words.append(f"w{word_id}")
            ctx = (ctx + (word_id,))[1:]
        sentences.append(" ".join(words))
    return sentences


def save_corpus(path, sentences: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in sentences:
            fh.write(s + "\n")


def load_corpus(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def save_vocab(path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#V={vocab.V}\n")
        for w in vocab.words[NUM_SPECIALS:]:
            fh.write(w + "\n")


def load_vocab(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#V="):
            raise ValueError(f"bad vocabulary header: {header!r}")
        declared = int(header[3:])
        kept = [line.rstrip("\n") for line in fh]
    if declared != NUM_SPECIALS + len(kept):
        raise ValueError("vocabulary size mismatch between header and body")
    words = SPECIAL_TOKENS + tuple(kept)
    index = {w: NUM_SPECIALS + i for i, w in enumerate(kept)}
    if len(index) != len(kept) or index.keys() & set(SPECIAL_TOKENS):
        raise ValueError(f"{path}: vocabulary repeats a word or lists a special token")
    return Vocabulary(words=words, index=index)
