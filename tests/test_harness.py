"""Sweep and robustness protocols: aggregation, determinism, identity
rows, and the report files."""

from dataclasses import replace

import numpy as np
import pytest
from oracles import pack_splits, random_windows

import missctr.harness
from missctr.errors import ConfigError
from missctr.harness import (
    robustness_study,
    run_experiment,
    sweep,
    write_robustness_report,
    write_rows,
    write_sweep_report,
)
from missctr.trainer import ExperimentConfig


def toy_splits(seed=0):
    rng = np.random.default_rng(seed)
    return pack_splits(
        [random_windows(n, 20, rng) for n in (32, 12, 12)],
        cat_fields=["user"],
        seq_fields=["item", "attr_1"],
        vocab_sizes={"user": 10, "item": 20, "attr_1": 20},
        max_len=6,
    )


def toy_cfg(**over):
    base = dict(
        emb_dim=3, batch_size=16, mlp=(4, 1), enc_interest=(4,),
        enc_feature=(3,), lr=1e-2, alpha_interest=0.3, alpha_feature=0.3,
        tau=0.5, n_branches=2, n_depths=1, max_offset=2, max_len=6,
        epochs=1, patience=1, seed=0,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_sweep_single_cell_equals_one_run():
    splits = toy_splits()
    cfg = toy_cfg()
    report = sweep("loss_weight", [0.3], cfg, splits, seeds=[5])
    run_cfg = replace(cfg, alpha_interest=0.3, alpha_feature=0.3, seed=5)
    _, single = run_experiment(run_cfg, splits)
    row = report.rows[0]
    assert row.auc_per_seed == [single.auc]
    assert row.logloss_per_seed == [single.logloss]
    assert row.auc_mean == single.auc
    assert row.auc_std == 0.0


def test_sweep_rows_sorted_by_value():
    splits = toy_splits()
    report = sweep("temperature", [1.0, 0.1], toy_cfg(), splits, seeds=[0])
    assert [r.value for r in report.rows] == [0.1, 1.0]


def test_sweep_deterministic():
    splits = toy_splits()
    a = sweep("loss_weight", [0.1, 0.5], toy_cfg(), splits, seeds=[0, 1])
    b = sweep("loss_weight", [0.1, 0.5], toy_cfg(), splits, seeds=[0, 1])
    for ra, rb in zip(a.rows, b.rows):
        assert ra.auc_per_seed == rb.auc_per_seed
        assert ra.logloss_per_seed == rb.logloss_per_seed


def test_sweep_temperature_changes_results():
    splits = toy_splits()
    report = sweep("temperature", [0.05, 5.0], toy_cfg(epochs=2), splits, seeds=[0])
    a, b = report.rows
    assert a.auc_per_seed != b.auc_per_seed or a.logloss_per_seed != b.logloss_per_seed


def test_sweep_rejects_bad_inputs():
    splits = toy_splits()
    with pytest.raises(ConfigError):
        sweep("dropout", [0.1], toy_cfg(), splits, seeds=[0])
    with pytest.raises(ConfigError):
        sweep("loss_weight", [], toy_cfg(), splits, seeds=[0])
    with pytest.raises(ConfigError):
        sweep("loss_weight", [0.1], toy_cfg(), splits, seeds=[])


def test_sweep_annotates_run_errors():
    splits = toy_splits()
    with pytest.raises(ConfigError, match=r"temperature=-1.0 seed=0"):
        sweep("temperature", [-1.0], toy_cfg(), splits, seeds=[0])


def test_sweep_validates_every_run_before_the_first_trains(monkeypatch):
    calls = []
    monkeypatch.setattr(missctr.harness, "run_experiment", lambda *args: calls.append(args))
    cfg = toy_cfg(grid_mode=True, lr=0.01, alpha_interest=0.1, alpha_feature=0.1)
    with pytest.raises(ConfigError, match=r"^temperature=7.0 seed=0: grid mode: tau=7.0 not in"):
        sweep("temperature", [0.1, 0.5, 7.0], cfg, toy_splits(), seeds=[0, 1])
    assert calls == []


def test_robustness_identity_rows_match_clean_run():
    splits = toy_splits()
    cfg_base = toy_cfg(model="din")
    cfg_miss = toy_cfg()
    _, clean_base = run_experiment(replace(cfg_base, seed=0), splits)
    _, clean_miss = run_experiment(replace(cfg_miss, seed=0), splits)

    spars = robustness_study("sparsity", [1.0], cfg_base, cfg_miss, splits, seeds=[0])
    assert spars.rows[0].auc_base == clean_base.auc
    assert spars.rows[0].auc_miss == clean_miss.auc

    noise = robustness_study("noise", [0.0], cfg_base, cfg_miss, splits, seeds=[0])
    assert noise.rows[0].auc_base == clean_base.auc
    assert noise.rows[0].auc_miss == clean_miss.auc


def test_robustness_ri_recomputable():
    splits = toy_splits()
    report = robustness_study(
        "sparsity", [1.0, 0.8], toy_cfg(model="din"), toy_cfg(), splits, seeds=[0],
    )
    for row in report.rows:
        assert abs(row.ri - (row.auc_miss - row.auc_base) / row.auc_base) <= 1e-12


def test_robustness_rows_pair_the_two_sweeps_in_the_order_given():
    splits = toy_splits()
    cfg_base, cfg_miss = toy_cfg(model="din"), toy_cfg()
    rates = [0.3, 0.0]
    report = robustness_study("noise", rates, cfg_base, cfg_miss, splits, seeds=[1, 0])
    base = sweep("noise", rates, cfg_base, splits, seeds=[1, 0])
    miss = sweep("noise", rates, cfg_miss, splits, seeds=[1, 0])
    assert report.base == base and report.miss == miss
    assert [r.rate for r in report.rows] == rates
    for row, b, m in zip(report.rows, base.rows, miss.rows):
        assert (row.rate, row.auc_base, row.auc_miss) == (b.value, b.auc_mean, m.auc_mean)
        assert row.gaps == [am - ab for ab, am in zip(b.auc_per_seed, m.auc_per_seed)]


def test_robustness_validates_the_full_models_runs_before_any_run(monkeypatch):
    calls = []
    monkeypatch.setattr(missctr.harness, "run_experiment", lambda *args: calls.append(args))
    cfg_miss = toy_cfg(grid_mode=True, lr=0.01, alpha_interest=0.1, alpha_feature=0.1, tau=7.0)
    with pytest.raises(ConfigError, match=r"^grid mode: tau=7.0 not in"):
        robustness_study("noise", [0.0], toy_cfg(model="din"), cfg_miss, toy_splits(), seeds=[0])
    assert calls == []


def test_robustness_rejects_bad_rates():
    splits = toy_splits()
    cb, cm = toy_cfg(model="din"), toy_cfg()
    with pytest.raises(ConfigError):
        robustness_study("sparsity", [0.0], cb, cm, splits, seeds=[0])
    with pytest.raises(ConfigError):
        robustness_study("noise", [1.0], cb, cm, splits, seeds=[0])
    with pytest.raises(ConfigError):
        robustness_study("jitter", [0.5], cb, cm, splits, seeds=[0])
    with pytest.raises(ConfigError):
        robustness_study("noise", [], cb, cm, splits, seeds=[0])


def test_report_files_deterministic(tmp_path):
    splits = toy_splits()
    report = sweep("loss_weight", [0.1, 0.5], toy_cfg(), splits, seeds=[0])
    p1 = write_sweep_report(report, str(tmp_path), "toy")
    first = open(p1, "rb").read()
    p2 = write_sweep_report(report, str(tmp_path), "toy")
    assert p1 == p2
    assert open(p2, "rb").read() == first
    lines = first.decode().splitlines()
    assert lines[0].startswith("value\tauc_mean")
    assert len(lines) == 1 + len(report.rows)
    # numeric cells parse back
    for line in lines[1:]:
        vals = [float(x) for x in line.split("\t")]
        assert len(vals) == len(lines[0].split("\t"))


def test_robustness_report_file(tmp_path):
    splits = toy_splits()
    report = robustness_study(
        "noise", [0.0], toy_cfg(model="din"), toy_cfg(), splits, seeds=[0],
    )
    path = write_robustness_report(report, str(tmp_path), "toy")
    lines = open(path).read().splitlines()
    assert lines[0] == "rate\tauc_base\tauc_miss\trelative_improvement"
    rate, ab, am, ri = (float(x) for x in lines[1].split("\t"))
    assert rate == 0.0
    assert abs(ri - (am - ab) / ab) <= 1e-15


def test_history_and_telemetry_files(tmp_path):
    splits = toy_splits()
    result, _ = run_experiment(toy_cfg(epochs=2), splits)
    hist = str(tmp_path / "history.tsv")
    tele = str(tmp_path / "telemetry.tsv")
    write_rows(hist, result.history)
    write_rows(tele, result.telemetry)
    hlines = open(hist).read().splitlines()
    assert hlines[0].split("\t") == [
        "epoch", "loss_ll", "loss_interest", "loss_feature", "val_auc", "val_logloss",
    ]
    assert len(hlines) == 1 + len(result.history)
    tlines = open(tele).read().splitlines()
    assert len(tlines) == 1 + len(result.telemetry)
    assert tlines[0].split("\t")[5] == "sim_mean"
