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
    """Activations of one recurrent step over a batch, each (B, H) but r (B, D)."""

    i: np.ndarray
    f: np.ndarray
    ctil: np.ndarray
    c: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    r: np.ndarray


def input_preactivations(model: CifgModel, X: np.ndarray) -> tuple:
    """(Wi x + bi, Wc x + bc, Wo x + bo) for embedded inputs X of shape
    (..., D). They have no recurrent dependency, so the scan computes them
    for every timestep at once."""
    return X @ model.Wi.T + model.bi, X @ model.Wc.T + model.bc, X @ model.Wo.T + model.bo


def recurrent_step(model: CifgModel, ax: tuple, c_prev: np.ndarray, r_prev: np.ndarray) -> Step:
    """One step for a batch: ax holds this timestep's input pre-activations
    (each (B, H)), c_prev is (B, H) and r_prev is (B, D)."""
    ax_i, ax_c, ax_o = ax
    i = _sigmoid(ax_i + r_prev @ model.Ui.T)
    f = 1.0 - i
    ctil = np.tanh(ax_c + r_prev @ model.Uc.T)
    c = f * c_prev + i * ctil
    o = _sigmoid(ax_o + r_prev @ model.Uo.T)
    tanh_c = np.tanh(c)
    h = o * tanh_c
    r = h @ model.P.T
    return Step(i, f, ctil, c, o, tanh_c, h, r)


# ---------------------------------------------------------------------------
# Batched forward / backward

_MIN_SEQ_LEN = 2  # BOS plus at least one prediction target


def _batch_arrays(batch: list, V: int, dtype) -> tuple:
    """Pad a batch of token sequences into (inputs, targets, mask) arrays.

    Position t consumes token t and predicts token t+1; mask is 1.0 on real
    prediction positions and 0.0 on padding (padding feeds token 0, whose
    activations are computed and then discarded by the zero mask).
    """
    B = len(batch)
    lens = [len(s) for s in batch]
    if min(lens) < _MIN_SEQ_LEN:
        raise ValueError("sequences must contain at least two tokens")
    T = max(lens) - 1
    inputs = np.zeros((B, T), dtype=np.int64)
    targets = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T), dtype=dtype)
    for b, seq in enumerate(batch):
        ids = np.asarray(seq, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= V:
            raise ValueError("token id out of range")
        n = len(seq) - 1
        inputs[b, :n] = ids[:-1]
        targets[b, :n] = ids[1:]
        mask[b, :n] = 1.0
    return inputs, targets, mask


def _forward_scan(model: CifgModel, inputs: np.ndarray) -> tuple:
    """Run the recurrence over (B, T) token inputs. Returns the embedded
    inputs X (B, T, D), the T recurrent Steps the backward pass reads, and
    logits of shape (B, T, V)."""
    B, T = inputs.shape
    H, D = model.config.H, model.config.D

    X = model.W.T[inputs.reshape(-1)].reshape(B, T, D)
    AX = input_preactivations(model, X)

    c, r = np.zeros((B, H), dtype=model.dtype), np.zeros((B, D), dtype=model.dtype)
    steps = []
    for t in range(T):
        steps.append(recurrent_step(model, [a[:, t, :] for a in AX], c, r))
        c, r = steps[-1].c, steps[-1].r
    logits = np.stack([s.r for s in steps], axis=1) @ model.W
    return X, steps, logits


def _log_softmax_stats(logits: np.ndarray) -> tuple:
    m = logits.max(axis=-1, keepdims=True)
    z = np.exp(logits - m)
    s = z.sum(axis=-1, keepdims=True)
    probs = z / s
    lse = (m + np.log(s))[..., 0]
    return probs, lse


def loss_and_grads(model: CifgModel, batch: list) -> tuple:
    """Mean cross-entropy over every prediction position in the batch, and
    its gradient as a CifgModel (one flat vector, like the weights).

    The loss is position-weighted (a 7-word sentence contributes 7 terms to
    the same mean as a 2-word sentence's 2), which makes duplicating the
    batch a no-op and keeps the math independent of sentence packing.
    """
    if not batch:
        raise ValueError("empty batch")
    cfg = model.config
    dtype = model.dtype
    inputs, targets, mask = _batch_arrays(batch, cfg.V, dtype)
    X, steps, logits = _forward_scan(model, inputs)
    B, T, V = logits.shape

    probs, lse = _log_softmax_stats(logits)
    gathered = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    n_pos = mask.sum()
    loss = float(((lse - gathered) * mask).sum() / n_pos)

    coeff = mask / n_pos  # per-position weight of the mean
    dlogits = probs * coeff[..., None]
    np.subtract.at(dlogits, (np.arange(B)[:, None], np.arange(T)[None, :], targets), coeff)

    grads = CifgModel(cfg, np.zeros(param_count(cfg), dtype=dtype))
    g = {n: getattr(grads, n) for n in TENSOR_ORDER}
    dW_embed = np.zeros((V, cfg.D), dtype=dtype)  # scatter buffer, (V, D)
    dc_carry = np.zeros((B, cfg.H), dtype=dtype)
    dr_carry = np.zeros((B, cfg.D), dtype=dtype)
    c0, r0 = np.zeros((B, cfg.H), dtype=dtype), np.zeros((B, cfg.D), dtype=dtype)  # state before t = 0

    for t in range(T - 1, -1, -1):
        s = steps[t]
        c_prev, r_prev = (steps[t - 1].c, steps[t - 1].r) if t else (c0, r0)
        dlog = dlogits[:, t, :]
        g["W"] += s.r.T @ dlog  # output-projection path
        dr = dlog @ model.W.T + dr_carry
        g["P"] += dr.T @ s.h
        dh = dr @ model.P

        do = dh * s.tanh_c
        da_o = do * s.o * (1.0 - s.o)
        dc = dh * s.o * (1.0 - s.tanh_c ** 2) + dc_carry
        # Coupled gate: i scales the candidate in and (1-i) scales the old
        # cell out, so both paths meet in one gate gradient.
        di = dc * (s.ctil - c_prev)
        da_i = di * s.i * (1.0 - s.i)
        da_c = dc * s.i * (1.0 - s.ctil ** 2)
        dc_carry = dc * (1.0 - s.i)

        x_t = X[:, t, :]
        for name, da in (("i", da_i), ("c", da_c), ("o", da_o)):
            g[f"W{name}"] += da.T @ x_t
            g[f"U{name}"] += da.T @ r_prev
            g[f"b{name}"] += da.sum(axis=0)
        dr_carry = da_i @ model.Ui + da_c @ model.Uc + da_o @ model.Uo
        dx = da_i @ model.Wi + da_c @ model.Wc + da_o @ model.Wo
        np.add.at(dW_embed, inputs[:, t], dx)  # embedding path

    g["W"] += dW_embed.T
    return loss, grads


# ---------------------------------------------------------------------------
# Inference


def _masked_topk_ids(logits_row: np.ndarray, k: int) -> np.ndarray:
    masked = logits_row.copy()
    masked[:NUM_SPECIALS] = -np.inf
    order = np.argsort(-masked, kind="stable")  # stable → ties broken by lower id
    return order[:k]


def predict_topk(model: CifgModel, context: list, k: int) -> list:
    """Top-k (word id, probability) continuations of a context that begins
    with BOS. Probabilities are the plain softmax values; the special tokens
    are barred from candidacy but keep their probability mass."""
    if len(context) == 0:
        raise ValueError("empty context")
    V = model.config.V
    if not 1 <= k <= V - NUM_SPECIALS:
        raise ValueError(f"k must be in [1, {V - NUM_SPECIALS}]")
    inputs, _, _ = _batch_arrays([list(context) + [0]], V, model.dtype)
    logits = _forward_scan(model, inputs)[2][0, len(context) - 1]
    probs, _ = _log_softmax_stats(logits)
    ids = _masked_topk_ids(logits, k)
    return [(int(i), float(probs[i])) for i in ids]


def topk_candidates(model: CifgModel, seqs: list, k: int, chunk: int = 256) -> list:
    """Batched top-k candidate ids at every prediction position.

    Returns one (len(seq)-1, k) int array per sequence; row t is the ordered
    candidate list for the target at position t+1. Special tokens never
    appear. This is the fast path recall evaluation uses.
    """
    V = model.config.V
    if not 1 <= k <= V - NUM_SPECIALS:
        raise ValueError(f"k must be in [1, {V - NUM_SPECIALS}]")
    out = []
    for start in range(0, len(seqs), chunk):
        part = seqs[start : start + chunk]
        inputs, _, _ = _batch_arrays(part, V, model.dtype)
        logits = _forward_scan(model, inputs)[2]
        logits[:, :, :NUM_SPECIALS] = -np.inf
        # Copy the top k so each chunk's full (B, T, V) sort is freed.
        order = np.argsort(-logits, axis=-1, kind="stable")[:, :, :k].copy()
        for b, seq in enumerate(part):
            out.append(order[b, : len(seq) - 1, :])
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
