"""Experiment protocols over the trainer, and their report tables.

A sweep trains one model per (value, seed) along a config axis, which
SWEEP_AXES maps to the config fields a value sets, or a robustness kind,
which ROBUSTNESS_KINDS maps to the function that degrades the training
labels at a rate.  A robustness study is two sweeps over a
degraded-label axis, paired by seed.

Every report is a tab-separated file with a one-line header, named by
its study axis and a dataset tag; its bytes are fixed for fixed seeds,
so a rerun can be diffed against its predecessor.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .data import Splits, downsample_train, flip_labels
from .errors import ConfigError, MissError
from .metrics import EvalReport, evaluate_scores
from .trainer import ExperimentConfig, TrainResult, predict_scores, train

SWEEP_AXES = {"loss_weight": ("alpha_interest", "alpha_feature"), "temperature": ("tau",)}
ROBUSTNESS_KINDS = {"sparsity": downsample_train, "noise": flip_labels}


def run_experiment(cfg: ExperimentConfig, splits: Splits) -> tuple[TrainResult, EvalReport]:
    """One train run evaluated on the held-out test split."""
    result = train(cfg, splits)
    scores = predict_scores(result.model, splits.test, cfg.batch_size)
    return result, evaluate_scores(scores, splits.test.label)


def _in_run(label: str, fn, *args):
    """fn(*args), with the message of any error it raises led by label."""
    try:
        return fn(*args)
    except MissError as exc:
        exc.args = (f"{label}: {exc}",)
        raise


@dataclass
class SweepRow:
    value: float
    auc_per_seed: list[float]
    logloss_per_seed: list[float]

    @property
    def auc_mean(self) -> float:
        return float(np.mean(self.auc_per_seed))

    @property
    def auc_std(self) -> float:
        return float(np.std(self.auc_per_seed))

    @property
    def logloss_mean(self) -> float:
        return float(np.mean(self.logloss_per_seed))

    @property
    def logloss_std(self) -> float:
        return float(np.std(self.logloss_per_seed))


@dataclass
class SweepReport:
    axis: str
    seeds: list[int]
    rows: list[SweepRow]  # a config axis sorted by value, a kind's rates as given


def sweep_runs(axis: str, grid: list[float], cfg: ExperimentConfig,
               seeds: list[int]) -> dict[tuple[float, int], ExperimentConfig]:
    """Every (value, seed) run's config in run order, each one validated;
    needs no dataset.  A config axis's values are sorted and set its
    fields; a robustness kind's rates keep their order."""
    if axis not in SWEEP_AXES and axis not in ROBUSTNESS_KINDS:
        raise ConfigError(f"sweep axis {axis!r} is none of {(*SWEEP_AXES, *ROBUSTNESS_KINDS)}")
    if not grid or not seeds:
        raise ConfigError(f"a {axis} sweep needs at least one value and one seed")
    for seed in seeds:
        replace(cfg, seed=seed).validate()
    if axis in SWEEP_AXES and cfg.model == "din":
        raise ConfigError(f"a {axis} sweep of din is a no-op: only the contrastive tower reads it")
    if axis != "loss_weight" and cfg.model == "din-miss" and not (cfg.alpha_interest or cfg.alpha_feature):
        raise ConfigError(f"din-miss with both loss weights 0 is din: a {axis} study is a no-op")
    for r in grid if axis in ROBUSTNESS_KINDS else ():
        span = "(0, 1]" if axis == "sparsity" else "[0, 1)"
        if not (0.0 < r <= 1.0 if axis == "sparsity" else 0.0 <= r < 1.0):
            raise ConfigError(f"{axis} rate must lie in {span}, got {r}")
    runs = {(value, seed): replace(cfg, seed=seed, **dict.fromkeys(SWEEP_AXES.get(axis, ()), value))
            for value in (sorted(grid) if axis in SWEEP_AXES else grid) for seed in seeds}
    for (value, seed), run in runs.items():
        _in_run(f"{axis}={value} seed={seed}", run.validate)
    return runs


def sweep(axis: str, grid: list[float], cfg: ExperimentConfig, splits: Splits,
          seeds: list[int]) -> SweepReport:
    """Train one model per (value, seed), a kind's on the split it degrades
    by rate and seed; aggregate test metrics.  Validates every run first."""
    runs = sweep_runs(axis, grid, cfg, seeds)
    degrade = ROBUSTNESS_KINDS.get(axis, lambda clean, rate, seed: clean)
    reports = {(value, seed): _in_run(f"{axis}={value} seed={seed}", run_experiment, run,
                                      degrade(splits, value, seed))[1]
               for (value, seed), run in runs.items()}
    rows = [SweepRow(value=value, auc_per_seed=[reports[value, s].auc for s in seeds],
                     logloss_per_seed=[reports[value, s].logloss for s in seeds])
            for value in dict.fromkeys(value for value, _ in runs)]
    return SweepReport(axis=axis, seeds=list(seeds), rows=rows)


@dataclass
class RobustnessRow:
    rate: float
    auc_base: float
    auc_miss: float
    gaps: list[float]  # per seed, the full model's test AUC less the base model's

    @property
    def ri(self) -> float:
        # relative improvement, recomputable from the two AUC columns
        return (self.auc_miss - self.auc_base) / self.auc_base


@dataclass
class RobustnessReport:
    kind: str
    seeds: list[int]
    rows: list[RobustnessRow]
    base: SweepReport  # the base model's sweep over the rates
    miss: SweepReport  # the full model's, paired with base's by rate and seed


def robustness_study(kind: str, rates: list[float], cfg_base: ExperimentConfig,
                     cfg_miss: ExperimentConfig, splits: Splits, seeds: list[int]) -> RobustnessReport:
    """Sweep both models over the degraded-label axis and pair them by
    rate and seed: mean test AUCs, relative improvement, per-seed gaps."""
    for cfg in (cfg_base, cfg_miss):  # every run of both, before the first trains
        sweep_runs(kind, rates, cfg, seeds)
    base, miss = (sweep(kind, rates, cfg, splits, seeds) for cfg in (cfg_base, cfg_miss))
    rows = [RobustnessRow(b.value, b.auc_mean, m.auc_mean,
                          [am - ab for ab, am in zip(b.auc_per_seed, m.auc_per_seed)])
            for b, m in zip(base.rows, miss.rows)]
    return RobustnessReport(kind=kind, seeds=list(seeds), rows=rows, base=base, miss=miss)


# ---------------------------------------------------------------------------
# report files


def _write_tsv(path: str, header: list[str], rows: list[list]) -> str:
    with open(path, "w", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def write_sweep_report(report: SweepReport, out_dir: str, tag: str) -> str:
    path = os.path.join(out_dir, f"sweep_{report.axis}_{tag}.tsv")
    header = ["value", "auc_mean", "auc_std", "logloss_mean", "logloss_std"]
    header += [f"auc_seed{s}" for s in report.seeds]
    rows = [[r.value, r.auc_mean, r.auc_std, r.logloss_mean, r.logloss_std, *r.auc_per_seed]
            for r in report.rows]
    return _write_tsv(path, header, rows)


def write_robustness_report(report: RobustnessReport, out_dir: str, tag: str) -> str:
    path = os.path.join(out_dir, f"robustness_{report.kind}_{tag}.tsv")
    header = ["rate", "auc_base", "auc_miss", "relative_improvement"]
    rows = [[r.rate, r.auc_base, r.auc_miss, r.ri] for r in report.rows]
    return _write_tsv(path, header, rows)


def write_robustness_runs(report: RobustnessReport, out_dir: str, tag: str) -> str:
    """One row per (rate, seed), in study order."""
    path = os.path.join(out_dir, f"robustness_runs_{report.kind}_{tag}.tsv")
    header = ["rate", "seed", "auc_base", "auc_miss", "auc_gap", "logloss_base", "logloss_miss"]
    rows = [[r.rate, seed, b.auc_per_seed[i], m.auc_per_seed[i], r.gaps[i],
             b.logloss_per_seed[i], m.logloss_per_seed[i]]
            for r, b, m in zip(report.rows, report.base.rows, report.miss.rows)
            for i, seed in enumerate(report.seeds)]
    return _write_tsv(path, header, rows)


def write_rows(path: str, rows: list) -> None:
    """Per-epoch or per-step training rows (EpochRow, StepRow): the
    header is the row dataclass's field names."""
    _write_tsv(path, [f.name for f in fields(rows[0])], [astuple(r) for r in rows])
