"""Recurrent next-word model: a single-layer LSTM variant whose forget gate
is coupled to the input gate (f = 1 - i), with a learned projection of the
hidden state down to the embedding dimension. The projected state feeds both
the recurrence and the tied output logits, which is what keeps the parameter
budget dominated by the embedding matrix.

Shapes:
    W  : (D, V)  tied embedding / output projection (columns embed tokens)
    Wg : (H, D)  input weights for gate g in {i, c, o}
    Ug : (H, D)  recurrent weights over the projected state r
    bg : (H,)    gate bias
    P  : (D, H)  recurrent/output projection, no bias

One step, given embedded input x and previous (c_prev, r_prev):
    i = sigmoid(Wi x + Ui r_prev + bi)        f = 1 - i
    c~ = tanh(Wc x + Uc r_prev + bc)          c = f*c_prev + i*c~
    o = sigmoid(Wo x + Uo r_prev + bo)        h = o * tanh(c)
    r = P h                                   logits = W^T r

Batches are packed, not padded: the sequences are sorted by length, longest
first, and their positions are laid out time-major, so step t runs on the
n_t sequences still going and the scan computes real positions only. Only
the recurrence runs step by step. The input pre-activations (gates stacked
to 3H), the logits, the softmax and, after the backward loop, every weight
gradient are one product each over all N real positions (Appleyard et al.
2016, arXiv:1604.01946). Training and scoring share this one scan.

Gradients are hand-derived full backpropagation through time (sentences are
short enough that truncation would buy nothing); `finite_diff_grad` in
nn_core is the oracle they are tested against.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn_core import init_uniform, derive_seed
from .corpus import NUM_SPECIALS
from .evaluate import stable_ranks

CHECKPOINT_MAGIC = b"FKLM"
QUANTIZED_MAGIC = b"FKLQ"
CHECKPOINT_VERSION = 1

# Serialization and flattening order of the parameter tensors.
TENSOR_ORDER = ("W", "Wi", "Ui", "bi", "Wc", "Uc", "bc", "Wo", "Uo", "bo", "P")


@dataclass(frozen=True)
class CifgConfig:
    V: int
    D: int
    H: int

    def __post_init__(self):
        if self.V < 4 or self.D < 1 or self.H < 1:
            raise ValueError(f"invalid model config V={self.V} D={self.D} H={self.H}")


def tensor_shapes(config: CifgConfig) -> dict:
    V, D, H = config.V, config.D, config.H
    shapes = {"W": (D, V), "P": (D, H)}
    for g in "ico":
        shapes[f"W{g}"] = (H, D)
        shapes[f"U{g}"] = (H, D)
        shapes[f"b{g}"] = (H,)
    return shapes


def param_count(config: CifgConfig) -> int:
    """V*D tied embedding + 3 gates of (2*H*D weights + H bias) + D*H projection."""
    V, D, H = config.V, config.D, config.H
    return V * D + 3 * (2 * H * D + H) + D * H


class CifgModel:
    """The weights as one contiguous flat vector `params` laid out in
    TENSOR_ORDER. Each named tensor (W, Wi, Ui, bi, ..., P) is a writable
    reshaped view of it, so the optimizers step `params` directly and a
    checkpoint is that vector behind a header."""

    def __init__(self, config: CifgConfig, params: np.ndarray):
        if params.ndim != 1 or params.size != param_count(config):
            raise ValueError(f"flat vector has {params.size} entries, expected {param_count(config)}")
        self.config = config
        self.params = params
        shapes = tensor_shapes(config)
        offset = 0
        for name in TENSOR_ORDER:
            size = math.prod(shapes[name])
            setattr(self, name, params[offset : offset + size].reshape(shapes[name]))
            offset += size

    @property
    def dtype(self):
        return self.params.dtype

    def astype(self, dtype) -> "CifgModel":
        return CifgModel(self.config, self.params.astype(dtype))

    def topk_candidates(self, seqs, k):
        return topk_candidates(self, seqs, k)

    def target_ranks(self, seqs) -> np.ndarray:
        """Rank of each target among its position's candidates, as
        topk_candidates orders them: one int per prediction position."""
        ranks = [stable_ranks(logits, np.array([t for s in part for t in s[1:]], dtype=np.int64))
                 for part, logits in _real_logits(self, seqs, _CHUNK)]
        return np.concatenate(ranks) if ranks else np.zeros(0, dtype=np.int64)


def init_model(config: CifgConfig, seed: int, dtype=np.float32) -> CifgModel:
    model = CifgModel(config, np.empty(param_count(config), dtype=dtype))
    for name, shape in tensor_shapes(config).items():
        getattr(model, name)[...] = init_uniform(shape, derive_seed(seed, "init", name), dtype=dtype)
    return model


def flatten(model: CifgModel) -> np.ndarray:
    return model.params


def unflatten(config: CifgConfig, vec: np.ndarray) -> CifgModel:
    return CifgModel(config, vec)


# ---------------------------------------------------------------------------
# Cell


def _sigmoid(x):
    # min(x, -x) is -|x|, so exp never overflows; unlike -abs(x) it returns a
    # NaN x itself, sign bit included. Each sign takes its own stable formula.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Step(NamedTuple):
    """Activations of one recurrent step over n sequences, each (n, H) but r (n, D)."""

    i: np.ndarray
    f: np.ndarray
    ctil: np.ndarray
    c: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    r: np.ndarray


def gate_stack(model: CifgModel, kind: str) -> np.ndarray:
    """The three gates' tensors of one kind ("W", "U" or "b") stacked in
    gate order i, c, o: (3H, D) weights or a (3H,) bias."""
    return np.concatenate([getattr(model, f"{kind}{g}") for g in "ico"])


def input_preactivations(model: CifgModel, X: np.ndarray) -> np.ndarray:
    """Wx x + b for embedded inputs X of shape (..., D), as (..., 3H) with
    the gates stacked i, c, o. They have no recurrent dependency, so the scan
    computes them for every position at once."""
    return X @ gate_stack(model, "W").T + gate_stack(model, "b")


def recurrent_step(model: CifgModel, ax: np.ndarray, c_prev: np.ndarray, r_prev: np.ndarray, U=None) -> Step:
    """One step for n sequences: ax holds their stacked input pre-activations
    (n, 3H), c_prev is (n, H) and r_prev is (n, D). A caller running many
    steps passes U = gate_stack(model, "U") once."""
    H = model.config.H
    a = ax + r_prev @ (gate_stack(model, "U") if U is None else U).T
    i = _sigmoid(a[:, :H])
    f = 1.0 - i
    ctil = np.tanh(a[:, H : 2 * H])
    c = f * c_prev + i * ctil
    o = _sigmoid(a[:, 2 * H :])
    tanh_c = np.tanh(c)
    h = o * tanh_c
    r = h @ model.P.T
    return Step(i, f, ctil, c, o, tanh_c, h, r)


# ---------------------------------------------------------------------------
# Packed forward / backward

class Packed(NamedTuple):
    """A batch laid out so the scan computes real positions only. The
    sequences are sorted by length, longest first (stable), and their
    prediction positions are stored time-major: step t owns the next
    widths[t] rows, one for each of the widths[t] longest sequences, in
    sorted order. Row p of a step t > 0 continues row p - widths[t-1]."""

    inputs: np.ndarray  # (N,) token each row consumes
    targets: np.ndarray  # (N,) token each row predicts
    widths: list  # sequences still running at each step, non-increasing
    rows: np.ndarray  # (N,) the row of each position, in batch order


def _pack(batch: list, V: int) -> Packed:
    lens = np.array([len(s) - 1 for s in batch])  # prediction positions: BOS needs a target
    if lens.min() < 1:
        raise ValueError("sequences must contain at least two tokens")
    order = np.argsort(-lens, kind="stable")
    tokens = np.zeros((lens[order[0]] + 1, len(batch)), dtype=np.int64)  # (T + 1, B), sorted columns
    for j, b in enumerate(order):
        ids = np.asarray(batch[b], dtype=np.int64)
        if ids.min() < 0 or ids.max() >= V:
            raise ValueError("token id out of range")
        tokens[: len(ids), j] = ids
    live = np.arange(len(tokens) - 1)[:, None] < lens[order]  # (T, B): step t of sorted sequence j is real
    row = np.zeros(live.shape, dtype=np.int64)
    row[live] = np.arange(lens.sum())
    unsort = np.argsort(order)
    return Packed(tokens[:-1][live], tokens[1:][live], live.sum(axis=1).tolist(), row.T[unsort][live.T[unsort]])


def _scan(model: CifgModel, packed: Packed) -> tuple:
    """Run the recurrence over a packed batch. Returns the embedded inputs
    X (N, D) and one Step per timestep, step t of width widths[t]."""
    H, D = model.config.H, model.config.D
    X = model.W.T[packed.inputs]
    AX = input_preactivations(model, X)
    U = gate_stack(model, "U")
    c = np.zeros((packed.widths[0], H), dtype=model.dtype)  # state before t = 0
    r = np.zeros((packed.widths[0], D), dtype=model.dtype)
    steps, start = [], 0
    for n in packed.widths:
        steps.append(recurrent_step(model, AX[start : start + n], c[:n], r[:n], U))
        c, r = steps[-1].c, steps[-1].r
        start += n
    return X, steps


def _log_softmax_stats(logits: np.ndarray) -> tuple:
    m = logits.max(axis=-1, keepdims=True)
    probs = logits - m
    np.exp(probs, out=probs)  # one buffer for exp and the division
    s = probs.sum(axis=-1, keepdims=True)
    probs /= s
    lse = (m + np.log(s))[..., 0]
    return probs, lse


def loss_and_grads(model: CifgModel, batch: list) -> tuple:
    """Mean cross-entropy over every prediction position in the batch, and
    its gradient as a CifgModel (one flat vector, like the weights).

    The loss is position-weighted (a 7-word sentence contributes 7 terms to
    the same mean as a 2-word sentence's 2), which makes duplicating the
    batch a no-op and keeps the math independent of sentence packing.
    Only the recurrence runs step by step; the logits, the softmax and every
    weight gradient are one product over all N real positions.
    """
    if not batch:
        raise ValueError("empty batch")
    cfg = model.config
    H, dtype = cfg.H, model.dtype
    packed = _pack(batch, cfg.V)
    X, steps = _scan(model, packed)
    R = np.concatenate([s.r for s in steps])  # (N, D)
    N = len(R)
    logits = R @ model.W

    probs, lse = _log_softmax_stats(logits)
    positions = np.arange(N)
    loss = float((lse - logits[positions, packed.targets]).sum() / N)

    coeff = dtype.type(1.0) / dtype.type(N)  # per-position weight of the mean
    dlogits = probs  # scaled in place; each row has one target, so -= needs no ufunc.at
    dlogits *= coeff
    dlogits[positions, packed.targets] -= coeff

    grads = CifgModel(cfg, np.empty(param_count(cfg), dtype=dtype))
    g = {n: getattr(grads, n) for n in TENSOR_ORDER}
    g["W"][...] = R.T @ dlogits  # output-projection path
    dR = dlogits @ model.W.T  # gains the recurrent carry step by step
    dA = np.empty((N, 3 * H), dtype=dtype)  # gate pre-activation gradients, gates stacked i, c, o
    U = gate_stack(model, "U")
    c0 = np.zeros((packed.widths[0], H), dtype=dtype)
    dc_carry = np.zeros((0, H), dtype=dtype)
    dr_carry = np.zeros((0, cfg.D), dtype=dtype)

    end = N
    for t in range(len(steps) - 1, -1, -1):
        s = steps[t]
        n = len(s.h)
        c_prev = (steps[t - 1].c if t else c0)[:n]
        dr = dR[end - n : end]
        dr[: len(dr_carry)] += dr_carry
        dh = dr @ model.P

        da = dA[end - n : end]
        da[:, 2 * H :] = dh * s.tanh_c * s.o * (1.0 - s.o)
        dc = dh * s.o * (1.0 - s.tanh_c ** 2)
        dc[: len(dc_carry)] += dc_carry
        # Coupled gate: i scales the candidate in and (1-i) scales the old
        # cell out, so both paths meet in one gate gradient.
        da[:, :H] = dc * (s.ctil - c_prev) * s.i * (1.0 - s.i)
        da[:, H : 2 * H] = dc * s.i * (1.0 - s.ctil ** 2)
        dc_carry = dc * s.f
        dr_carry = da @ U
        end -= n

    R_prev = np.concatenate([np.zeros((packed.widths[0], cfg.D), dtype=dtype)]
                            + [steps[t - 1].r[:n] for t, n in enumerate(packed.widths) if t])
    gW, gU, gb = (np.split(a, 3) for a in (dA.T @ X, dA.T @ R_prev, dA.sum(axis=0)))
    for k, name in enumerate("ico"):
        g[f"W{name}"][...], g[f"U{name}"][...], g[f"b{name}"][...] = gW[k], gU[k], gb[k]
    g["P"][...] = dR.T @ np.concatenate([s.h for s in steps])
    np.add.at(g["W"].T, packed.inputs, dA @ gate_stack(model, "W"))  # embedding path
    return loss, grads


# ---------------------------------------------------------------------------
# Inference


def _masked_topk_ids(logits_row: np.ndarray, k: int) -> np.ndarray:
    masked = logits_row.copy()
    masked[:NUM_SPECIALS] = -np.inf
    order = np.argsort(-masked, kind="stable")  # stable → ties broken by lower id
    return order[:k]


def _logits_in_batch_order(model: CifgModel, seqs: list) -> np.ndarray:
    """Logits (N, V) of every prediction position of seqs, sequence by
    sequence, from one packed scan."""
    packed = _pack(seqs, model.config.V)
    R = np.concatenate([s.r for s in _scan(model, packed)[1]])
    return R[packed.rows] @ model.W


def predict_topk(model: CifgModel, context: list, k: int) -> list:
    """Top-k (word id, probability) continuations of a context that begins
    with BOS. Probabilities are the plain softmax values; the special tokens
    are barred from candidacy but keep their probability mass."""
    if len(context) == 0:
        raise ValueError("empty context")
    V = model.config.V
    if not 1 <= k <= V - NUM_SPECIALS:
        raise ValueError(f"k must be in [1, {V - NUM_SPECIALS}]")
    logits = _logits_in_batch_order(model, [list(context) + [0]])[-1]
    probs, _ = _log_softmax_stats(logits)
    ids = _masked_topk_ids(logits, k)
    return [(int(i), float(probs[i])) for i in ids]


_CHUNK = 256  # sentences per packed inference pass


def _real_logits(model: CifgModel, seqs: list, chunk: int):
    """Per chunk of seqs, (chunk, logits of its prediction positions in
    sequence order, (n, V), specials at -inf). The logits come from the
    chunk's packed pass: a product over other rows can round differently."""
    for start in range(0, len(seqs), chunk):
        part = seqs[start : start + chunk]
        logits = _logits_in_batch_order(model, part)
        logits[:, :NUM_SPECIALS] = -np.inf
        yield part, logits


def topk_candidates(model: CifgModel, seqs: list, k: int, chunk: int = _CHUNK) -> list:
    """Batched top-k candidate ids at every prediction position.

    Returns one (len(seq)-1, k) int array per sequence; row t is the ordered
    candidate list for the target at position t+1. Special tokens never
    appear.
    """
    V = model.config.V
    if not 1 <= k <= V - NUM_SPECIALS:
        raise ValueError(f"k must be in [1, {V - NUM_SPECIALS}]")
    out = []
    for part, logits in _real_logits(model, seqs, chunk):
        # Copy the top k so each chunk's full (n, V) sort is freed.
        order = np.argsort(-logits, axis=-1, kind="stable")[:, :k].copy()
        out.extend(np.split(order, np.cumsum([len(s) - 1 for s in part[:-1]])))
    return out


# ---------------------------------------------------------------------------
# Quantization

QUANT_LO = -128
QUANT_HI = 127
QUANT_LEVELS = 255.0


@dataclass
class QuantizedModel:
    """Per-tensor affine int8 codes: x ≈ (code - zero_point) * scale.

    Codes live in [-128, 127]; zero_point is stored as a real number in the
    same code space. A constant tensor quantizes degenerately (scale 1, all
    codes 0, zero_point = -value) and reconstructs exactly.
    """

    config: CifgConfig
    codes: dict
    scales: dict
    zero_points: dict

    def serialized_nbytes(self) -> int:
        return _HEADER.size + _quantized_payload_nbytes(self.config)


def _quantize_tensor(x: np.ndarray) -> tuple:
    lo = float(x.min())
    hi = float(x.max())
    if hi == lo:
        scale = np.float32(1.0)
        zp = np.float32(-lo)
        codes = np.zeros(x.shape, dtype=np.int8)
        return codes, scale, zp
    scale = np.float32((hi - lo) / QUANT_LEVELS)
    zp = np.float32(np.round(-lo / float(scale)) + QUANT_LO)
    codes = np.clip(np.round(x / float(scale) + float(zp)), QUANT_LO, QUANT_HI).astype(np.int8)
    return codes, scale, zp


def quantize(model: CifgModel) -> QuantizedModel:
    codes, scales, zps = {}, {}, {}
    for name in TENSOR_ORDER:
        x = getattr(model, name)
        if not np.all(np.isfinite(x)):
            raise ValueError("numeric overflow")
        codes[name], scales[name], zps[name] = _quantize_tensor(np.asarray(x, dtype=np.float64))
    return QuantizedModel(config=model.config, codes=codes, scales=scales, zero_points=zps)


def dequantize(q: QuantizedModel) -> CifgModel:
    model = CifgModel(q.config, np.empty(param_count(q.config), dtype=np.float32))
    for name in TENSOR_ORDER:
        getattr(model, name)[...] = (q.codes[name].astype(np.float32) - q.zero_points[name]) * q.scales[name]
    return model


# ---------------------------------------------------------------------------
# Checkpoints

_HEADER = struct.Struct("<4sIIII")  # magic, version, V, D, H


def _quantized_payload_nbytes(config: CifgConfig) -> int:
    return 8 * len(TENSOR_ORDER) + param_count(config)  # (scale, zp) + int8 codes per tensor


def _write_header(fh, magic: bytes, config: CifgConfig) -> None:
    fh.write(_HEADER.pack(magic, CHECKPOINT_VERSION, config.V, config.D, config.H))


def _read_model_file(path, expected_magic: bytes, payload_nbytes) -> tuple:
    """(config, payload) of a file that must be exactly a header plus
    payload_nbytes(config) bytes. The size is checked against the file's
    length before the payload is read, so a corrupt header cannot ask for
    an absurd allocation."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != expected_magic:
            raise ValueError(f"bad checkpoint magic {head[:4]!r}, expected {expected_magic!r}")
        if len(head) != _HEADER.size:
            raise ValueError(f"truncated checkpoint header ({len(head)} of {_HEADER.size} bytes)")
        _, version, V, D, H = _HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = CifgConfig(V=V, D=D, H=H)
        expected = _HEADER.size + payload_nbytes(config)
        actual = os.fstat(fh.fileno()).st_size
        if actual < expected:
            raise ValueError(f"truncated checkpoint: {actual} bytes, expected {expected} for V={V} D={D} H={H}")
        if actual > expected:
            raise ValueError(f"checkpoint has {actual - expected} trailing bytes after its weights")
        return config, fh.read()


def _require_finite(values: np.ndarray, message: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(message)


def save_checkpoint(path, model: CifgModel) -> None:
    _require_finite(model.params, f"non-finite weights; not writing checkpoint {path}")
    with open(path, "wb") as fh:
        _write_header(fh, CHECKPOINT_MAGIC, model.config)
        fh.write(np.ascontiguousarray(model.params, dtype="<f4").tobytes())


def load_checkpoint(path) -> CifgModel:
    config, payload = _read_model_file(path, CHECKPOINT_MAGIC, lambda config: 4 * param_count(config))
    params = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    _require_finite(params, f"{path}: checkpoint holds non-finite weights")
    return CifgModel(config, params)


def save_quantized(path, q: QuantizedModel) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, QUANTIZED_MAGIC, q.config)
        for name in TENSOR_ORDER:
            fh.write(struct.pack("<ff", float(q.scales[name]), float(q.zero_points[name])))
            fh.write(np.ascontiguousarray(q.codes[name], dtype=np.int8).tobytes())


def load_quantized(path) -> QuantizedModel:
    config, payload = _read_model_file(path, QUANTIZED_MAGIC, _quantized_payload_nbytes)
    shapes = tensor_shapes(config)
    codes, scales, zps = {}, {}, {}
    offset = 0
    for name in TENSOR_ORDER:
        scale, zp = struct.unpack_from("<ff", payload, offset)
        size = math.prod(shapes[name])
        codes[name] = np.frombuffer(payload, dtype=np.int8, count=size, offset=offset + 8).reshape(shapes[name])
        scales[name] = np.float32(scale)
        zps[name] = np.float32(zp)
        offset += 8 + size
    _require_finite(np.array([*scales.values(), *zps.values()]),
                    f"{path}: checkpoint holds non-finite scales or zero points")
    return QuantizedModel(config=config, codes=codes, scales=scales, zero_points=zps)
