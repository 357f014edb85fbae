"""Experiment protocols over the trainer: hyperparameter sweeps,
label-sparsity and label-noise robustness studies, and plot-ready
report tables.

Two tables dispatch the studies: SWEEP_AXES maps each sweep axis to the
config fields its grid value sets, and ROBUSTNESS_KINDS maps each
robustness kind to the function that degrades the training split.

Every report is a delimiter-separated file with a one-line schema
header.  File names encode the study axis and a caller-supplied dataset
tag; content is byte-deterministic for fixed seeds, so a rerun can be
diffed against its predecessor.
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


def _check_seeds(seeds: list[int], study: str, *cfgs: ExperimentConfig) -> None:
    """Reject an empty or invalid seed list before the first run trains."""
    if not seeds:
        raise ConfigError(f"{study} needs at least one seed")
    for cfg in cfgs:
        for seed in seeds:
            replace(cfg, seed=seed).validate()


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
    rows: list[SweepRow]  # sorted by grid value


def sweep_runs(axis: str, grid: list[float], cfg: ExperimentConfig,
               seeds: list[int]) -> dict[tuple[float, int], ExperimentConfig]:
    """Every (grid value, seed) run's config, in run order, each one
    validated; needs no dataset, so a caller can check before reading one."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    _check_seeds(seeds, "sweep", cfg)
    runs = {(value, seed): replace(cfg, seed=seed, **dict.fromkeys(SWEEP_AXES[axis], value))
            for value in sorted(grid) for seed in seeds}
    for (value, seed), run in runs.items():
        _in_run(f"{axis}={value} seed={seed}", run.validate)
    return runs


def sweep(axis: str, grid: list[float], cfg: ExperimentConfig, splits: Splits,
          seeds: list[int]) -> SweepReport:
    """Train one model per (grid value, seed); aggregate test metrics.
    Every run's config is validated before the first run trains."""
    runs = sweep_runs(axis, grid, cfg, seeds)
    reports = {(value, seed): _in_run(f"{axis}={value} seed={seed}", run_experiment, run, splits)[1]
               for (value, seed), run in runs.items()}
    rows = [SweepRow(value=value, auc_per_seed=[reports[value, s].auc for s in seeds],
                     logloss_per_seed=[reports[value, s].logloss for s in seeds])
            for value in sorted(grid)]
    return SweepReport(axis=axis, seeds=list(seeds), rows=rows)


@dataclass
class RobustnessRow:
    rate: float
    auc_base: float
    auc_miss: float

    @property
    def ri(self) -> float:
        # relative improvement, recomputable from the two AUC columns
        return (self.auc_miss - self.auc_base) / self.auc_base


@dataclass
class RobustnessReport:
    kind: str
    seeds: list[int]
    rows: list[RobustnessRow]


def check_robustness(kind: str, rates: list[float], seeds: list[int], *cfgs: ExperimentConfig) -> None:
    """Reject an unknown kind, an empty or out-of-range rate list and an
    empty or invalid seed list; needs no dataset."""
    if kind not in ROBUSTNESS_KINDS:
        raise ConfigError(f"robustness kind must be one of {tuple(ROBUSTNESS_KINDS)}, got {kind!r}")
    if not rates:
        raise ConfigError("robustness study needs at least one rate")
    _check_seeds(seeds, "robustness study", *cfgs)
    for r in rates:
        if kind == "sparsity" and not (0.0 < r <= 1.0):
            raise ConfigError(f"sparsity rate must lie in (0, 1], got {r}")
        if kind == "noise" and not (0.0 <= r < 1.0):
            raise ConfigError(f"noise rate must lie in [0, 1), got {r}")


def robustness_study(kind: str, rates: list[float], cfg_base: ExperimentConfig,
                     cfg_miss: ExperimentConfig, splits: Splits, seeds: list[int]) -> RobustnessReport:
    """Degrade the training labels, train both models per seed, report
    mean test AUC and the relative improvement at each rate."""
    check_robustness(kind, rates, seeds, cfg_base, cfg_miss)
    rows = []
    for rate in rates:
        aucs = ([], [])  # base, miss
        for seed in seeds:
            degraded = ROBUSTNESS_KINDS[kind](splits, rate, seed)
            for cfg, sink in zip((cfg_base, cfg_miss), aucs):
                run = (replace(cfg, seed=seed), degraded)
                sink.append(_in_run(f"{kind}={rate} seed={seed}", run_experiment, *run)[1].auc)
        rows.append(RobustnessRow(rate, *(float(np.mean(a)) for a in aucs)))
    return RobustnessReport(kind=kind, seeds=list(seeds), rows=rows)


# ---------------------------------------------------------------------------
# report files


def _write_tsv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_sweep_report(report: SweepReport, out_dir: str, tag: str) -> str:
    path = os.path.join(out_dir, f"sweep_{report.axis}_{tag}.tsv")
    header = ["value", "auc_mean", "auc_std", "logloss_mean", "logloss_std"]
    header += [f"auc_seed{s}" for s in report.seeds]
    rows = [[r.value, r.auc_mean, r.auc_std, r.logloss_mean, r.logloss_std, *r.auc_per_seed]
            for r in report.rows]
    _write_tsv(path, header, rows)
    return path


def write_robustness_report(report: RobustnessReport, out_dir: str, tag: str) -> str:
    path = os.path.join(out_dir, f"robustness_{report.kind}_{tag}.tsv")
    header = ["rate", "auc_base", "auc_miss", "relative_improvement"]
    rows = [[r.rate, r.auc_base, r.auc_miss, r.ri] for r in report.rows]
    _write_tsv(path, header, rows)
    return path


def write_rows(path: str, rows: list) -> None:
    """Per-epoch or per-step training rows (EpochRow, StepRow): the
    header is the row dataclass's field names."""
    _write_tsv(path, [f.name for f in fields(rows[0])], [astuple(r) for r in rows])
