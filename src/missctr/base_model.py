"""Attention-pooled CTR base model.

A behavior step t is the concatenation of that step's J field
embeddings (dim J*K).  A small two-layer unit scores each step against
the candidate from [v_t; c; v_t*c; v_t-c]; the raw scores are NOT
softmax-normalized, padded positions get weight exactly 0, and the
pooled vector is the score-weighted sum of the steps.  The prediction
MLP then maps [categorical embeddings; pooled; candidate] through ReLU
hidden layers to a sigmoid click probability.

The unit's first layer is computed folded.  With lau_w1 split into its
four J*K-row blocks [W_v; W_c; W_vc; W_d],
[v_t; c; v_t*c; v_t-c] @ lau_w1 = [v_t, v_t*c] @ [W_v + W_d; W_vc] + c @ (W_c - W_d),
so the candidate's term is one row per sample, added to every step,
and no 4*J*K-wide input is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError

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
        """Each parameter under its own name (its checkpoint key): the
        attention unit's four, then each MLP layer's weight and bias."""
        unit = [self.lau_w1, self.lau_b1, self.lau_w2, self.lau_b2]
        return {t.name: t for t in unit + [t for layer in self.mlp for t in layer]}


def init_base_params(
    x_dim: int, step_dim: int, mlp_sizes: tuple[int, ...], rng: np.random.Generator
) -> BaseParams:
    """x_dim: input width of the prediction MLP; step_dim: J*K width of
    one behavior step.  mlp_sizes lists every affine layer; the last
    entry is 1 (the sigmoid head)."""
    lau_in = 4 * step_dim
    params = BaseParams(
        lau_w1=ad.parameter(glorot(rng, lau_in, LAU_HIDDEN), name="base:lau_w1"),
        lau_b1=ad.parameter(np.zeros(LAU_HIDDEN), name="base:lau_b1"),
        lau_w2=ad.parameter(glorot(rng, LAU_HIDDEN, 1), name="base:lau_w2"),
        lau_b2=ad.parameter(np.zeros(1), name="base:lau_b2"),
        mlp=[],
    )
    fan_in = x_dim
    for d, width in enumerate(mlp_sizes):
        params.mlp.append(
            (
                ad.parameter(glorot(rng, fan_in, width), name=f"base:mlp{d}_w"),
                ad.parameter(np.zeros(width), name=f"base:mlp{d}_b"),
            )
        )
        fan_in = width
    return params


@functools.lru_cache(maxsize=8)
def _fold_selectors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant 0/+-1 matrices that read the folded blocks off
    lau_w1 = [W_v; W_c; W_vc; W_d] (four dim-row blocks):
    step_sel @ lau_w1 = [W_v + W_d; W_vc] and cand_sel @ lau_w1 = W_c - W_d.
    Built once per width and read-only, since every caller shares them."""
    eye, zero = np.eye(dim), np.zeros((dim, dim))
    step_sel = np.block([[eye, zero, zero, eye], [zero, zero, eye, zero]])
    cand_sel = np.block([[zero, eye, zero, -eye]])
    for sel in (step_sel, cand_sel):
        sel.flags.writeable = False
    return step_sel, cand_sel


def laup_pool(v: Tensor, mask: np.ndarray, cand: Tensor, params: BaseParams) -> Tensor:
    """Score-weighted sum over behavior steps.

    v: (B, L, D) step vectors, cand: (B, D), mask: (B, L), true or 1 on
    real events; either form enters the tape as the same 0.0/1.0 constant.

    The unit's first layer [v; c; v*c; v-c] @ lau_w1 + b1 is computed
    folded, as [v, v*c] @ [W_v + W_d; W_vc] + (c @ (W_c - W_d) + b1):
    the candidate term is one row per sample, broadcast over L, and no
    (B, L, 4D) input is built.  Only the summation order differs from
    the concatenated form.  The weighted sum over steps is one batched
    (B, 1, L) @ (B, L, D) product.
    """
    nb, nl, dim = v.shape
    if mask.shape != (nb, nl):
        raise DataError(f"mask shape {mask.shape} does not match sequence {(nb, nl)}")
    hidden = params.lau_w1.shape[1]
    step_sel, cand_sel = _fold_selectors(dim)
    w_step = ad.matmul(ad.constant(step_sel), params.lau_w1)
    w_cand = ad.matmul(ad.constant(cand_sel), params.lau_w1)
    z = ad.concat([v, ad.mul(v, ad.reshape(cand, (nb, 1, dim)))], axis=2)
    h_step = ad.matmul(ad.reshape(z, (nb * nl, 2 * dim)), w_step)
    h_cand = ad.add(ad.matmul(cand, w_cand), params.lau_b1)
    h = ad.relu(ad.add(ad.reshape(h_step, (nb, nl, hidden)), ad.reshape(h_cand, (nb, 1, hidden))))
    scores = ad.add(ad.matmul(ad.reshape(h, (nb * nl, hidden)), params.lau_w2), params.lau_b2)
    weights = ad.mul(ad.reshape(scores, (nb, 1, nl)), ad.constant(mask[:, None, :]))
    return ad.reshape(ad.matmul(weights, v), (nb, dim))


def mlp_predict(x: Tensor, params: BaseParams) -> Tensor:
    """ReLU hidden layers, affine head, sigmoid; returns (B,) probabilities."""
    h = x
    for w, b in params.mlp[:-1]:
        h = ad.relu(ad.add(ad.matmul(h, w), b))
    w, b = params.mlp[-1]
    logits = ad.add(ad.matmul(h, w), b)
    return ad.reshape(ad.sigmoid(logits), (x.shape[0],))


def field_concat(tables: dict[str, Tensor], fields: list[str], ids: np.ndarray) -> Tensor:
    """ids (B, F) or (B, F, L) -> (B, F*K) or (B, L, F*K): per-field
    lookups concatenated in order on the last axis.  On a batch's
    history ids it gives the step vectors, the step's only sequence
    lookup: the contrastive tower reads its channel stack from them."""
    from .embeddings import embed

    parts = [embed(tables, f, ids[:, j]) for j, f in enumerate(fields)]
    return ad.concat(parts, axis=-1)


def predict_batch(
    tables: dict[str, Tensor],
    cat_fields: list[str],
    seq_fields: list[str],
    base: BaseParams,
    cat_ids: np.ndarray,
    v: Tensor,
    mask: np.ndarray,
    cand_ids: np.ndarray,
) -> Tensor:
    """Full base-model forward for one batch over the step vectors v
    (B, L, J*K) from field_concat and the batch's (B, L) mask of real
    events (`SampleSet.batch`); returns (B,) probabilities."""
    cand = field_concat(tables, seq_fields, cand_ids)
    cats = field_concat(tables, cat_fields, cat_ids)
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
