"""The padded kernel fedlm trained with before the packed scan, kept as an
independent reference for tests only.

Every batch is padded to its longest sentence in a (B, T) layout, padding
feeds token 0 and a zero mask discards it, and each timestep runs its own
per-gate products, logits and gradient updates. It shares only the weights'
layout, `_sigmoid` and `_log_softmax_stats` with `fedlm.cifg`.
"""

import numpy as np

from fedlm.cifg import TENSOR_ORDER, CifgModel, _log_softmax_stats, _sigmoid, param_count
from fedlm.corpus import NUM_SPECIALS


def batch_arrays(batch: list, V: int, dtype) -> tuple:
    """(inputs, targets, mask) of shape (B, T): position t consumes token t
    and predicts token t+1; mask is 1.0 on real positions, 0.0 on padding."""
    B = len(batch)
    lens = [len(s) for s in batch]
    if min(lens) < 2:
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


def forward_scan(model: CifgModel, inputs: np.ndarray) -> tuple:
    """X (B, T, D), the per-step activation dicts and logits (B, T, V)."""
    B, T = inputs.shape
    H, D = model.config.H, model.config.D
    X = model.W.T[inputs.reshape(-1)].reshape(B, T, D)
    c, r = np.zeros((B, H), dtype=model.dtype), np.zeros((B, D), dtype=model.dtype)
    steps = []
    for t in range(T):
        x = X[:, t, :]
        i = _sigmoid(x @ model.Wi.T + model.bi + r @ model.Ui.T)
        ctil = np.tanh(x @ model.Wc.T + model.bc + r @ model.Uc.T)
        c = (1.0 - i) * c + i * ctil
        o = _sigmoid(x @ model.Wo.T + model.bo + r @ model.Uo.T)
        tanh_c = np.tanh(c)
        h = o * tanh_c
        r = h @ model.P.T
        steps.append(dict(i=i, ctil=ctil, c=c, o=o, tanh_c=tanh_c, h=h, r=r))
    logits = np.stack([s["r"] for s in steps], axis=1) @ model.W
    return X, steps, logits


def loss_and_grads(model: CifgModel, batch: list) -> tuple:
    """Mean cross-entropy over the real positions and its gradient."""
    cfg = model.config
    dtype = model.dtype
    inputs, targets, mask = batch_arrays(batch, cfg.V, dtype)
    X, steps, logits = forward_scan(model, inputs)
    B, T, V = logits.shape

    probs, lse = _log_softmax_stats(logits)
    gathered = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    n_pos = mask.sum()
    loss = float(((lse - gathered) * mask).sum() / n_pos)

    coeff = mask / n_pos
    dlogits = probs * coeff[..., None]
    dlogits[np.arange(B)[:, None], np.arange(T)[None, :], targets] -= coeff

    grads = CifgModel(cfg, np.zeros(param_count(cfg), dtype=dtype))
    g = {n: getattr(grads, n) for n in TENSOR_ORDER}
    dW_embed = np.zeros((V, cfg.D), dtype=dtype)
    dc_carry = np.zeros((B, cfg.H), dtype=dtype)
    dr_carry = np.zeros((B, cfg.D), dtype=dtype)
    zero_c, zero_r = np.zeros((B, cfg.H), dtype=dtype), np.zeros((B, cfg.D), dtype=dtype)

    for t in range(T - 1, -1, -1):
        s = steps[t]
        c_prev, r_prev = (steps[t - 1]["c"], steps[t - 1]["r"]) if t else (zero_c, zero_r)
        dlog = dlogits[:, t, :]
        g["W"] += s["r"].T @ dlog
        dr = dlog @ model.W.T + dr_carry
        g["P"] += dr.T @ s["h"]
        dh = dr @ model.P

        da_o = dh * s["tanh_c"] * s["o"] * (1.0 - s["o"])
        dc = dh * s["o"] * (1.0 - s["tanh_c"] ** 2) + dc_carry
        da_i = dc * (s["ctil"] - c_prev) * s["i"] * (1.0 - s["i"])
        da_c = dc * s["i"] * (1.0 - s["ctil"] ** 2)
        dc_carry = dc * (1.0 - s["i"])

        x_t = X[:, t, :]
        for name, da in (("i", da_i), ("c", da_c), ("o", da_o)):
            g[f"W{name}"] += da.T @ x_t
            g[f"U{name}"] += da.T @ r_prev
            g[f"b{name}"] += da.sum(axis=0)
        dr_carry = da_i @ model.Ui + da_c @ model.Uc + da_o @ model.Uo
        dx = da_i @ model.Wi + da_c @ model.Wc + da_o @ model.Wo
        np.add.at(dW_embed, inputs[:, t], dx)

    g["W"] += dW_embed.T
    return loss, grads


def real_logits(model: CifgModel, seqs: list) -> np.ndarray:
    """Logits (n, V) of every real position of seqs in sequence order, from
    one padded pass, specials at -inf."""
    inputs, _, mask = batch_arrays(seqs, model.config.V, model.dtype)
    logits = forward_scan(model, inputs)[2][mask > 0]
    logits[:, :NUM_SPECIALS] = -np.inf
    return logits
