"""Ranking metric against a brute-force pair-counting oracle."""

import threading

import numpy as np
import pytest

from missctr import autodiff as ad
from missctr.base_model import logloss
from missctr.errors import MetricError, NumericalError
from missctr.metrics import auc, evaluate_scores, logloss_value
from oracles import brute_force_auc


def test_perfect_ranking():
    assert auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0


def test_reversed_ranking():
    assert auc(np.array([0.1, 0.9]), np.array([1, 0])) == 0.0


def test_all_ties_is_half():
    assert auc(np.full(6, 0.3), np.array([1, 0, 1, 0, 1, 0])) == 0.5


def test_three_of_four_pairs():
    scores = np.array([0.8, 0.6, 0.4, 0.2])
    labels = np.array([1, 0, 1, 0])
    assert auc(scores, labels) == 0.75


def test_single_class_rejected():
    with pytest.raises(MetricError):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(MetricError):
        auc(np.array([0.1, 0.2]), np.array([0, 0]))


def test_nan_score_rejected_without_hanging():
    # the call runs in a thread so a hang fails the test instead of the suite
    outcome = {}

    def call():
        try:
            outcome["value"] = auc(np.array([0.1, np.nan, 0.3]), np.array([1, 0, 1]))
        except NumericalError as exc:
            outcome["error"] = str(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive(), "auc did not return within 5 s on a NaN score"
    assert outcome == {"error": "AUC undefined: 1 of 3 scores are not finite"}


def test_infinite_scores_rejected():
    with pytest.raises(NumericalError, match="2 of 4 scores"):
        auc(np.array([np.inf, 0.2, -np.inf, 0.4]), np.array([1, 0, 1, 0]))


def test_matches_pair_counting_oracle():
    rng = np.random.default_rng(33)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid forces plenty of ties
        scores = rng.integers(0, 8, size=n) / 8.0
        got = auc(scores, labels)
        want = brute_force_auc(scores.tolist(), labels.tolist())
        assert abs(got - want) < 1e-12, f"trial {trial}: {got} vs {want}"


def test_monotone_transform_invariance():
    rng = np.random.default_rng(7)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    assert auc(2.0 * scores + 1.0, labels) == base
    assert auc(1.0 / (1.0 + np.exp(-scores)), labels) == base


def test_logloss_value_matches_model_loss():
    rng = np.random.default_rng(5)
    scores = rng.uniform(0.01, 0.99, size=40)
    labels = rng.integers(0, 2, size=40)
    with ad.no_grad():
        ad.fresh_graph()
        want = float(logloss(ad.constant(scores), labels).data)
    assert abs(logloss_value(scores, labels) - want) <= 1e-12


def test_evaluate_scores_report():
    scores = np.array([0.9, 0.2, 0.7, 0.4])
    labels = np.array([1, 0, 1, 0])
    rep = evaluate_scores(scores, labels)
    assert rep.auc == 1.0
    assert rep.n_pos == 2 and rep.n_neg == 2
    assert rep.logloss > 0.0
