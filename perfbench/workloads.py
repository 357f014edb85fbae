"""The three benchmark workloads and the output checks they run.

Each workload turns the workload seed into its inputs (untimed), sets
up (timed as set-up), and then runs one fixed unit of work, a repeat,
that the runner times and may run several times.  A repeat is
deterministic for a given seed, so every repeat must reach the same
test AUC and the same parameters.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.stats import rankdata

from hostspeed import HostSlowdown
from missctr import data, metrics, trainer
from missctr.errors import MissError

BATCH = 128
ITEMS = 500
INTERESTS = 5
SEQ_RANGE = (8, 16)
MAX_LEN = 16


class CheckFailed(Exception):
    """An output check failed; the run reports incorrect and exits non-zero."""


class OperationFailed(Exception):
    """A pipeline stage, step or scored batch failed; counted, then the run stops."""


PROBE_EVERY_S = 0.5  # work between two samples of the host probe


@dataclass
class Tally:
    """What a pass did: attempts and failures, one time per train_step
    call, and (rows, seconds) per training and scoring phase.

    It also owns the host probe.  The probe runs between operations,
    at most every PROBE_EVERY_S of work, so that it samples the host
    while the work runs; `clock()` stops while it does, so no measured
    time includes it."""

    attempted: int = 0
    failed: int = 0
    step_s: list[float] = field(default_factory=list)
    train: list[tuple[int, float]] = field(default_factory=list)
    score: list[tuple[int, float]] = field(default_factory=list)
    host: HostSlowdown = field(default_factory=HostSlowdown)
    probe_every_s: float = PROBE_EVERY_S
    paused_s: float = 0.0
    last_probe: float = float("-inf")

    def clock(self) -> float:
        return perf_counter() - self.paused_s

    def probe(self, force: bool = False) -> None:
        t0 = perf_counter()
        if force or t0 - self.last_probe >= self.probe_every_s:
            self.host.sample()
            self.last_probe = perf_counter()
            self.paused_s += self.last_probe - t0

    def stage(self, fn, *args):
        """Run one pipeline stage as a counted operation."""
        self.attempted += 1
        try:
            out = fn(*args)
        except MissError as exc:
            self.failed += 1
            raise OperationFailed(f"{fn.__name__}: {exc}") from exc
        self.probe()
        return out


class StepTimer:
    """One timer pair around every trainer.train_step call, installed
    for the duration of a pass.  The trainer resolves train_step as a
    module global at call time, so this sees the steps inside
    trainer.train as well as the benchmark's own."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self._original = None

    def __enter__(self):
        self._original = original = trainer.train_step
        tally = self.tally

        def train_step(*args, **kwargs):
            tally.attempted += 1
            t0 = perf_counter()
            try:
                row = original(*args, **kwargs)
            except MissError as exc:
                tally.failed += 1
                raise OperationFailed(f"train_step: {exc}") from exc
            tally.step_s.append(perf_counter() - t0)
            tally.probe()
            return row

        trainer.train_step = train_step
        return self

    def __exit__(self, *exc):
        trainer.train_step = self._original


@dataclass
class Outcome:
    """The result of one repeat: test AUC plus every array that must be
    bitwise equal between repeats and between traced and untraced runs."""

    test_auc: float
    state: dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# shared pieces


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Independent oracle: Mann-Whitney AUC from scipy's average ranks."""
    ranks = rankdata(scores)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def score(model, part, tally: Tally) -> tuple[np.ndarray, float]:
    """predict_scores over one split, each batch a counted operation,
    then AUC checked against the rank oracle."""
    n_batches = math.ceil(part.n / BATCH)
    tally.attempted += n_batches
    t0 = tally.clock()
    try:
        scores = trainer.predict_scores(model, part, BATCH)
    except MissError as exc:
        tally.failed += n_batches
        raise OperationFailed(f"predict_scores: {exc}") from exc
    tally.score.append((part.n, tally.clock() - t0))
    tally.probe()
    bad = ~np.isfinite(scores)
    if bad.any():
        # metrics.auc never returns on a non-finite score, so stop here
        tally.failed += len({int(i) // BATCH for i in np.flatnonzero(bad)})
        raise OperationFailed(f"non-finite scores in {int(bad.sum())} rows")
    value = tally.stage(metrics.auc, scores, part.label)
    oracle = rank_auc(scores, part.label)
    if value != oracle:
        raise CheckFailed(f"auc {value!r} differs from the rank oracle {oracle!r}")
    return scores, value


def params_state(model, prefix: str = "param:") -> dict[str, np.ndarray]:
    return {prefix + k: p.data.copy() for k, p in model.parameters().items()}


def train_steps(model, splits, n_steps: int, tally: Tally) -> np.ndarray:
    """n_steps of din training over the shuffled epochs, driven through
    trainer.train_step with the batches and seeds the trainer's epoch
    loop uses; returns the loss trajectory."""
    cfg = model.cfg
    params = model.base_parameters()
    optimizer = trainer.AdamState()
    batches: list[np.ndarray] = []
    for epoch in range(n_steps):
        if len(batches) >= n_steps:
            break
        batches += data.make_batches(
            splits.train.n, cfg.batch_size, shuffle=True, seed=[cfg.seed, 2, epoch], drop_partial=True
        )
    if len(batches) < n_steps:
        raise CheckFailed(f"{len(batches)} batches, {n_steps} steps wanted")
    losses = np.empty(n_steps)
    t0 = tally.clock()
    for step, idx in enumerate(batches[:n_steps]):
        losses[step] = trainer.train_step(model, splits.train, idx, None, optimizer, params, step).total
    tally.train.append((n_steps * cfg.batch_size, tally.clock() - t0))
    if not np.isfinite(losses).all():
        raise CheckFailed("non-finite training loss")
    return losses


def splits_equal(a, b) -> str | None:
    """None when b reproduces a as a snapshot stores it, else what differs."""
    for name in ("train", "valid", "test"):
        pa, pb = getattr(a, name), getattr(b, name)
        for arr in ("cat", "seq", "seq_len", "cand", "label"):
            xa, xb = getattr(pa, arr), getattr(pb, arr)
            if xa.dtype != xb.dtype or not np.array_equal(xa, xb):
                return f"{name}.{arr}"
    for attr in ("cat_fields", "seq_fields", "vocab_sizes", "max_len"):
        if getattr(a, attr) != getattr(b, attr):
            return attr
    return None


def synth(n_users: int, seed: int):
    return data.synth_generate(n_users, ITEMS, INTERESTS, SEQ_RANGE, seed)


def config(seed: int, model: str, **kw) -> trainer.ExperimentConfig:
    """The acceptance-gate configuration."""
    return trainer.ExperimentConfig(
        emb_dim=10, batch_size=BATCH, lr=1e-2, tau=0.1, n_branches=2, n_depths=2,
        max_offset=2, max_len=MAX_LEN, seed=seed, model=model, **kw,
    ).validate()


# ---------------------------------------------------------------------------
# workloads


class MissGate:
    """din-miss joint training at the acceptance-gate config through
    trainer.train, then scoring of the test split."""

    name = "miss-gate"
    n_users = 2000
    epochs = 2

    def inputs(self, seed: int, workdir: str):
        return seed, synth(self.n_users, seed)

    def setup(self, inp, tally: Tally):
        seed, log = inp
        splits = tally.stage(data.build_splits, log, MAX_LEN, seed)
        cfg = config(seed, "din-miss", epochs=self.epochs, patience=self.epochs)
        return cfg, splits

    def repeat(self, ctx, tally: Tally) -> Outcome:
        cfg, splits = ctx
        t0 = tally.clock()
        result = trainer.train(cfg, splits)
        n_rows = len(result.telemetry) * cfg.batch_size
        tally.train.append((n_rows, tally.clock() - t0))
        losses = np.array([
            (r.loss_ll, r.loss_interest, r.loss_feature, r.total) for r in result.telemetry
        ])
        vals = np.array([(h.val_auc, h.val_logloss) for h in result.history])
        if len(result.history) != self.epochs:
            raise CheckFailed(f"{len(result.history)} epochs ran, {self.epochs} wanted")
        if not (np.isfinite(losses).all() and np.isfinite(vals).all()):
            raise CheckFailed("non-finite training or validation loss")
        scores, test_auc = score(result.model, splits.test, tally)
        state = params_state(result.model)
        state.update(losses=losses, val=vals, scores=scores)
        return Outcome(test_auc, state)


class DinVocab:
    """din training on a 50k-user corpus for a fixed number of steps,
    then scoring of the test split."""

    name = "din-vocab"
    n_users = 50_000
    n_steps = 100

    def inputs(self, seed: int, workdir: str):
        return seed, synth(self.n_users, seed)

    def setup(self, inp, tally: Tally):
        seed, log = inp
        splits = tally.stage(data.build_splits, log, MAX_LEN, seed)
        return config(seed, "din"), splits

    def repeat(self, ctx, tally: Tally) -> Outcome:
        cfg, splits = ctx
        model = tally.stage(trainer.build_model, cfg, splits)
        losses = train_steps(model, splits, self.n_steps, tally)
        scores, test_auc = score(model, splits.test, tally)
        state = params_state(model)
        state.update(losses=losses, scores=scores)
        return Outcome(test_auc, state)


class IngestEval:
    """The read path: raw TSV to splits, snapshot round trip, checkpoint
    load, and untaped scoring of all three splits."""

    name = "ingest-eval"
    n_users = 5_000
    ckpt_steps = 150

    def inputs(self, seed: int, workdir: str):
        log = synth(self.n_users, seed)
        tsv = os.path.join(workdir, "log.tsv")
        data.write_log_tsv(log, tsv)
        paths = (tsv, os.path.join(workdir, "splits.txt"), os.path.join(workdir, "ckpt.bin"))
        return seed, log, paths

    def setup(self, inp, tally: Tally):
        seed, log, paths = inp
        splits = tally.stage(data.build_splits, log, MAX_LEN, seed)
        cfg = config(seed, "din")
        model = tally.stage(trainer.build_model, cfg, splits)
        losses = train_steps(model, splits, self.ckpt_steps, tally)
        tally.stage(trainer.save_checkpoint, paths[2], model)
        state = params_state(model, "ckpt:")
        state["ckpt_losses"] = losses
        return seed, paths, cfg, splits, state

    def repeat(self, ctx, tally: Tally) -> Outcome:
        seed, (tsv, snap, ckpt), cfg, reference, state = ctx
        log = tally.stage(data.ingest_log, tsv)
        built = tally.stage(data.build_splits, log, MAX_LEN, seed)
        if (diff := splits_equal(reference, built)) is not None:
            raise CheckFailed(f"splits from the TSV differ from the in-memory log's in {diff}")
        tally.stage(data.save_splits, built, snap)
        loaded = tally.stage(data.load_splits, snap)
        if (diff := splits_equal(built, loaded)) is not None:
            raise CheckFailed(f"snapshot round trip changed {diff}")
        model = tally.stage(trainer.build_model, cfg, loaded)
        tally.stage(trainer.load_checkpoint, ckpt, model)
        out = dict(state)
        for name in ("train", "valid", "test"):
            out[f"scores:{name}"], auc = score(model, getattr(loaded, name), tally)
        return Outcome(auc, out)


WORKLOADS = {w.name: w for w in (MissGate(), DinVocab(), IngestEval())}
