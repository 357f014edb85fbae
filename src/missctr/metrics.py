"""Ranking and calibration metrics.

AUC is the Mann-Whitney rank statistic with average ranks on ties,
which matches brute-force pair counting (ties worth 0.5) exactly, not
just approximately: both numerators are sums of halves, exact in
float64 at these scales, and the denominators are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .base_model import logloss as _logloss_op
from .errors import MetricError, NumericalError


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_bad = int((~np.isfinite(s)).sum())
    if n_bad:
        raise NumericalError(f"AUC undefined: {n_bad} of {s.size} scores are not finite")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"AUC undefined: {n_pos} positives, {n_neg} negatives")
    order = np.argsort(s, kind="mergesort")
    ss = s[order]
    # tie runs [i, j) of the sorted scores share the average of 1-based ranks i+1..j
    i = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    j = np.r_[i[1:], s.size]
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (i + j + 1), j - i)
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss_value(scores: np.ndarray, labels: np.ndarray) -> float:
    """Same clipped binary cross-entropy the trainer optimizes."""
    return float(_logloss_op(ad.constant(np.asarray(scores, dtype=np.float64)), labels).data)


@dataclass
class EvalReport:
    auc: float
    logloss: float
    n_pos: int
    n_neg: int


def evaluate_scores(scores: np.ndarray, labels: np.ndarray) -> EvalReport:
    y = np.asarray(labels)
    return EvalReport(
        auc=auc(scores, y),
        logloss=logloss_value(scores, y),
        n_pos=int((y == 1).sum()),
        n_neg=int((y == 0).sum()),
    )
