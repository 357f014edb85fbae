"""Attention-pooled CTR base model.

A behavior step t is the concatenation of that step's J field
embeddings (dim J*K).  A small two-layer unit scores each step against
the candidate from [v_t; c; v_t*c; v_t-c]; the raw scores are NOT
softmax-normalized, padded positions get weight exactly 0, and the
pooled vector is the score-weighted sum of the steps.  The prediction
MLP then maps [categorical embeddings; pooled; candidate] through ReLU
hidden layers to a sigmoid click probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError

LAU_HIDDEN = 16
PROB_CLIP = 1e-12


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class BaseParams:
    lau_w1: Tensor
    lau_b1: Tensor
    lau_w2: Tensor
    lau_b2: Tensor
    mlp: list[tuple[Tensor, Tensor]]  # (W, b) per affine layer, last one feeds the sigmoid

    def named(self) -> dict[str, Tensor]:
        out = {
            "lau_w1": self.lau_w1,
            "lau_b1": self.lau_b1,
            "lau_w2": self.lau_w2,
            "lau_b2": self.lau_b2,
        }
        for d, (w, b) in enumerate(self.mlp):
            out[f"mlp{d}_w"] = w
            out[f"mlp{d}_b"] = b
        return out


def init_base_params(
    x_dim: int, step_dim: int, mlp_sizes: tuple[int, ...], rng: np.random.Generator
) -> BaseParams:
    """x_dim: input width of the prediction MLP; step_dim: J*K width of
    one behavior step.  mlp_sizes lists every affine layer; the last
    entry must be 1 (the sigmoid head)."""
    if not mlp_sizes or mlp_sizes[-1] != 1:
        raise ConfigError(f"mlp sizes must end in 1, got {mlp_sizes}")
    lau_in = 4 * step_dim
    params = BaseParams(
        lau_w1=ad.parameter(glorot(rng, lau_in, LAU_HIDDEN), name="lau_w1"),
        lau_b1=ad.parameter(np.zeros(LAU_HIDDEN), name="lau_b1"),
        lau_w2=ad.parameter(glorot(rng, LAU_HIDDEN, 1), name="lau_w2"),
        lau_b2=ad.parameter(np.zeros(1), name="lau_b2"),
        mlp=[],
    )
    fan_in = x_dim
    for d, width in enumerate(mlp_sizes):
        params.mlp.append(
            (
                ad.parameter(glorot(rng, fan_in, width), name=f"mlp{d}_w"),
                ad.parameter(np.zeros(width), name=f"mlp{d}_b"),
            )
        )
        fan_in = width
    return params


def padding_mask(seq_len: np.ndarray, max_len: int) -> np.ndarray:
    """Front-padding convention: real events occupy the last seq_len slots."""
    pos = np.arange(max_len)
    return (pos[None, :] >= max_len - seq_len[:, None]).astype(np.float64)


def laup_pool(v: Tensor, mask: np.ndarray, cand: Tensor, params: BaseParams) -> Tensor:
    """Score-weighted sum over behavior steps.

    v: (B, L, D) step vectors, cand: (B, D), mask: (B, L) with 1 on
    real events.
    """
    nb, nl, dim = v.shape
    if mask.shape != (nb, nl):
        raise DataError(f"mask shape {mask.shape} does not match sequence {(nb, nl)}")
    if not mask.any(axis=1).all():
        raise DataError("all-padding behavior sequence (empty history)")
    cand_l = ad.reshape(cand, (nb, 1, dim))
    cand_full = ad.add(cand_l, ad.constant(np.zeros((nb, nl, 1))))
    z = ad.concat([v, cand_full, ad.mul(v, cand_l), ad.sub(v, cand_l)], axis=2)
    z2 = ad.reshape(z, (nb * nl, 4 * dim))
    h = ad.relu(ad.add(ad.matmul(z2, params.lau_w1), params.lau_b1))
    scores = ad.add(ad.matmul(h, params.lau_w2), params.lau_b2)
    weights = ad.mul(ad.reshape(scores, (nb, nl)), ad.constant(mask))
    return ad.tsum(ad.mul(v, ad.reshape(weights, (nb, nl, 1))), axis=1)


def mlp_predict(x: Tensor, params: BaseParams) -> Tensor:
    """ReLU hidden layers, affine head, sigmoid; returns (B,) probabilities."""
    h = x
    for w, b in params.mlp[:-1]:
        h = ad.relu(ad.add(ad.matmul(h, w), b))
    w, b = params.mlp[-1]
    logits = ad.add(ad.matmul(h, w), b)
    return ad.reshape(ad.sigmoid(logits), (x.shape[0],))


def field_concat(tables: dict[str, Tensor], fields: list[str], ids: np.ndarray) -> Tensor:
    """ids (B, F) -> (B, F*K): per-field lookups concatenated in order."""
    from .embeddings import embed

    parts = [embed(tables, f, ids[:, j]) for j, f in enumerate(fields)]
    return ad.concat(parts, axis=1) if len(parts) > 1 else parts[0]


def behavior_matrix(tables: dict[str, Tensor], seq_fields: list[str], seq_ids: np.ndarray) -> Tensor:
    """ids (B, J, L) -> step vectors (B, L, J*K), fields side by side.
    This is the step's only sequence lookup: the contrastive tower
    reads its channel stack from the same tensor."""
    from .embeddings import embed

    parts = [embed(tables, f, seq_ids[:, j, :]) for j, f in enumerate(seq_fields)]
    return ad.concat(parts, axis=2) if len(parts) > 1 else parts[0]


def predict_batch(
    tables: dict[str, Tensor],
    cat_fields: list[str],
    seq_fields: list[str],
    base: BaseParams,
    cat_ids: np.ndarray,
    v: Tensor,
    seq_len: np.ndarray,
    cand_ids: np.ndarray,
) -> Tensor:
    """Full base-model forward for one batch over the step vectors v
    (B, L, J*K) from behavior_matrix; returns (B,) probabilities."""
    cand = field_concat(tables, seq_fields, cand_ids)
    cats = field_concat(tables, cat_fields, cat_ids)
    mask = padding_mask(seq_len, v.shape[1])
    pooled = laup_pool(v, mask, cand, base)
    x = ad.concat([cats, pooled, cand], axis=1)
    return mlp_predict(x, base)


def logloss(preds: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with probabilities clipped to
    [1e-12, 1 - 1e-12] before the logs."""
    y = ad.constant(np.asarray(labels, dtype=np.float64))
    p = ad.clip(preds, PROB_CLIP, 1.0 - PROB_CLIP)
    pos = ad.mul(y, ad.tlog(p))
    neg = ad.mul(ad.sub(ad.constant(1.0), y), ad.tlog(ad.sub(ad.constant(1.0), p)))
    return ad.scale(ad.tmean(ad.add(pos, neg)), -1.0)
