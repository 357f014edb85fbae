"""Training loop: experiment configuration, Adam, and one `train` for
the joint and pretrain strategies over the base model plus contrastive
auxiliaries.

Total loss per step is  L = L_ll + a1 * L_int + a2 * L_feat.  The pair
sampler draws from its own seeded plan stream, independent of batch
shuffling, and a step runs the contrastive tower only when given that
stream.  So turning the auxiliaries off (a1 = a2 = 0 or model "din")
leaves the base trajectory bit-identical: no stream is made, no SSL
graph built and no extra randomness consumed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import base_model as bm
from . import interests as it
from .autodiff import Tensor
from .data import Splits, make_batches, SampleSet
from .embeddings import init_tables
from .errors import ConfigError, DegenerateDatasetError, FormatError, NumericalError
from .metrics import auc, logloss_value
from .serialize import load_arrays, save_arrays

log = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 4096  # rows per Adam update pass: the fastest of 1024-8192 on a 50k-row table
# share of a table's rows with a gradient so far at which its moments go
# back to row order.  On a 50k x 10 table, 128 rows a step (shared 2-vCPU
# host, numpy 2.4.6), the pass over live slots takes 0.40 / 1.30 / 2.27 /
# 2.89 / 3.77 / 5.29 ms at 5 / 20 / 40 / 50 / 70 / 100% live, the
# whole-table pass 2.9-3.1 ms at any share; at 5k rows the crossover is
# also near half, so 0.4 switches a little before it
LIVE_SHARE = 0.4

_ALPHA_GRID = {0.05, 0.1, 0.5, 1.0, 5.0}
# field name -> published search grid, checked in this order in grid mode
GRID = {
    "lr": {1e-1, 1e-2, 1e-3, 1e-4},
    "alpha_interest": _ALPHA_GRID,
    "alpha_feature": _ALPHA_GRID,
    "tau": {0.05, 0.1, 0.5, 1.0, 5.0},
    "n_branches": {1, 2, 3, 4},
    "n_depths": {1, 2},
    "max_offset": {1, 2, 3, 4},
}
# field name -> least valid value
MINIMUMS = {
    "emb_dim": 1, "batch_size": 2, "n_branches": 1, "n_depths": 0, "max_offset": 1,
    "max_len": 1, "epochs": 1, "patience": 1, "seed": 0,
}

STRATEGIES = ("joint", "pretrain")
MODELS = ("din", "din-miss")


@dataclass
class ExperimentConfig:
    """Every tunable in one validated record.

    grid_mode restricts lr / alphas / tau / branch counts / offsets to
    the published search grids and ties the two loss weights together;
    explicit mode allows free values.
    """

    emb_dim: int = 10
    batch_size: int = 128
    mlp: tuple[int, ...] = (40, 40, 40, 1)
    enc_interest: tuple[int, ...] = (20, 20)
    enc_feature: tuple[int, ...] = (10, 10)
    lr: float = 1e-3
    alpha_interest: float = 0.5
    alpha_feature: float = 0.5
    tau: float = 0.1
    n_branches: int = 2
    n_depths: int = 2
    max_offset: int = 2
    max_len: int = 30
    n_pairs_interest: int | None = None  # default: one per branch
    n_pairs_feature: int | None = None  # default: branches * depths
    epochs: int = 10
    patience: int = 3
    seed: int = 0
    strategy: str = "joint"
    model: str = "din-miss"
    grid_mode: bool = False

    @property
    def pairs_interest(self) -> int:
        return self.n_pairs_interest if self.n_pairs_interest is not None else self.n_branches

    @property
    def pairs_feature(self) -> int:
        if self.n_pairs_feature is not None:
            return self.n_pairs_feature
        return self.n_branches * max(self.n_depths, 1)

    @property
    def ssl_enabled(self) -> bool:
        return self.model == "din-miss" and (self.alpha_interest > 0 or self.alpha_feature > 0)

    def validate(self) -> "ExperimentConfig":
        for name, least in MINIMUMS.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("mlp", "enc_interest", "enc_feature"):
            sizes = getattr(self, name)
            if not sizes or min(sizes) < 1:
                got = ",".join(map(str, sizes)) or "none"
                raise ConfigError(f"{name} widths must be >= 1, got {got}")
        if self.mlp[-1] != 1:
            raise ConfigError(f"mlp sizes must end in 1, got {self.mlp}")
        for name in ("lr", "tau", "alpha_interest", "alpha_feature"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.alpha_interest < 0 or self.alpha_feature < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.max_len < self.n_branches:
            raise ConfigError(
                f"max_len ({self.max_len}) must cover the widest branch ({self.n_branches})"
            )
        for name, v in (("n_pairs_interest", self.n_pairs_interest),
                        ("n_pairs_feature", self.n_pairs_feature)):
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be >= 1 when set, got {v}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.grid_mode:
            for name, grid in GRID.items():
                if getattr(self, name) not in grid:
                    raise ConfigError(
                        f"grid mode: {name}={getattr(self, name)} not in {sorted(grid)}"
                    )
            if self.alpha_interest != self.alpha_feature:
                raise ConfigError(
                    "grid mode ties the two loss weights together; "
                    f"got {self.alpha_interest} and {self.alpha_feature}"
                )
        return self


# ---------------------------------------------------------------------------
# model assembly


@dataclass
class MissModel:
    cfg: ExperimentConfig
    cat_fields: list[str]
    seq_fields: list[str]
    tables: dict[str, Tensor]
    base: bm.BaseParams
    conv: it.ConvBank
    enc_interest: it.EncoderParams
    enc_feature: it.EncoderParams

    def parameters(self) -> dict[str, Tensor]:
        """Every parameter keyed by its own name, its checkpoint key:
        tables, base model, then the kernels wider than 1 and encoders, if built."""
        kernels = {k: g for k, g in self.conv.named().items() if g.requires_grad}
        return ({t.name: t for t in self.tables.values()} | self.base.named() | kernels
                | self.enc_interest.named() | self.enc_feature.named())

    def ssl_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if not k.startswith("base:")}

    def base_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if not k.startswith("ssl:")}


def build_model(cfg: ExperimentConfig, splits: Splits) -> MissModel:
    """Deterministic construction: one init stream, fixed draw order
    (tables, attention unit + MLP, kernels, encoders), so the base
    model's parameters do not depend on whether cfg enables SSL, the
    only case that draws the kernels and encoders.  Vertical kernels
    wider than the field count are warned about here, once; the
    extractors skip them at every step.  So is a field count that leaves
    every vertical kernel one field row or none: no feature pair forms."""
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 0])
    ordered_sizes = {f: splits.vocab_sizes[f] for f in splits.cat_fields + splits.seq_fields}
    tables = init_tables(ordered_sizes, cfg.emb_dim, rng)
    n_cat = len(splits.cat_fields)
    n_seq = len(splits.seq_fields)
    step_dim = n_seq * cfg.emb_dim
    x_dim = n_cat * cfg.emb_dim + 2 * step_dim
    base = bm.init_base_params(x_dim, step_dim, tuple(cfg.mlp), rng)
    conv, enc_i, enc_f = it.ConvBank([], []), it.EncoderParams([]), it.EncoderParams([])
    if cfg.ssl_enabled:
        conv = it.init_conv_bank(cfg.n_branches, cfg.n_depths, rng)
        enc_i = it.init_encoder(step_dim, tuple(cfg.enc_interest), rng, "enc_int")
        enc_f = it.init_encoder(cfg.emb_dim, tuple(cfg.enc_feature), rng, "enc_feat")
        if cfg.n_depths > n_seq:
            log.warning("vertical width %d exceeds field count %d: "
                        "the extractor skips the kernels wider than %d", cfg.n_depths, n_seq, n_seq)
        if cfg.n_depths and n_seq < 2:
            log.warning("field count %d leaves no vertical kernel 2 field rows: "
                        "the feature loss never forms a pair, so its kernels never train", n_seq)
    return MissModel(
        cfg=cfg,
        cat_fields=list(splits.cat_fields),
        seq_fields=list(splits.seq_fields),
        tables=tables,
        base=base,
        conv=conv,
        enc_interest=enc_i,
        enc_feature=enc_f,
    )


def save_checkpoint(path: str, model: MissModel) -> None:
    save_arrays(path, {k: v.data for k, v in model.parameters().items()})


def load_checkpoint(path: str, model: MissModel) -> None:
    """Replace the model's parameters with the checkpoint's.  Every
    record is checked (names, dtype, shape, finiteness) before any
    parameter is replaced."""
    arrays = load_arrays(path)
    params = model.parameters()
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise ConfigError(
            f"checkpoint/model mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for k, p in params.items():
        if arrays[k].dtype != np.float64:
            raise FormatError(f"{path}: checkpoint record {k!r} is {arrays[k].dtype}, not float64")
        if arrays[k].shape != p.data.shape:
            raise ConfigError(
                f"checkpoint shape for {k}: {arrays[k].shape} vs model {p.data.shape}"
            )
        n_bad = arrays[k].size - np.count_nonzero(np.isfinite(arrays[k]))
        if n_bad:
            raise NumericalError(
                f"{path}: checkpoint record {k!r} is not finite "
                f"({n_bad} of {arrays[k].size} values are NaN or Inf)"
            )
    for k, p in params.items():
        p.data = arrays[k]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Step count, first and second moments, and per-parameter work
    buffers (the update and its denominator) of at most ADAM_BLOCK rows,
    all kept across steps.

    Moments are whole-table arrays, kept in row order or in slot order.
    A parameter whose first gradient is row-sparse (a table with more
    rows than each of its gathers has indices) starts in slot order:
    slot i holds row order[i], a row takes the next free slot the first
    time it has a gradient, and slot[row] is -1 until then; the first
    n_live slots are live.  Once n_live reaches LIVE_SHARE of the rows,
    or a dense gradient arrives, the moments go back to row order for
    good and order, slot and n_live are dropped.  Every other parameter
    starts in row order.

    The parameters with a dense gradient and at most ADAM_BLOCK rows at
    the first step (kernels, encoders, attention unit, MLP, and the
    tables no larger than a gather into them) form one group.  Its
    moments and work buffers are each one flat array, flat = (m, v,
    update, denom), and a member's m, v and work entries are views of
    its span of them."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    work: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    order: dict[str, np.ndarray] = field(default_factory=dict)
    slot: dict[str, np.ndarray] = field(default_factory=dict)
    n_live: dict[str, int] = field(default_factory=dict)
    group: list[str] = field(default_factory=list)
    flat: tuple[np.ndarray, ...] = ()
    t: int = 0


def _live_slots(state: AdamState, name: str, rows):
    """(slots of `rows`, row of each live slot) once the new ones among
    `rows` (a sorted unique index array, or ... for a dense gradient) have
    taken the next free slots; (rows, None) when that puts the moments
    back in row order."""
    slot = state.slot[name]
    if rows is not ...:
        fresh = rows[slot[rows] < 0]
        lo = state.n_live[name]
        hi = state.n_live[name] = lo + len(fresh)
        slot[fresh] = np.arange(lo, hi)
        state.order[name][lo:hi] = fresh
        if hi < LIVE_SHARE * len(slot):
            return slot[rows], state.order[name][:hi]
    live = state.order.pop(name)[: state.n_live.pop(name)]
    del state.slot[name]
    for moments in (state.m, state.v):
        by_row = np.zeros_like(moments[name])
        by_row[live] = moments[name][: len(live)]
        moments[name] = by_row
    return rows, None


def _form_group(params: dict[str, Tensor], held: dict, state: AdamState) -> None:
    """Make the group of the parameters in `held` with a dense gradient
    and at most ADAM_BLOCK rows, with their state as views of flat."""
    state.group = [name for name, (rows, _) in held.items()
                   if rows is ... and len(params[name].data) <= ADAM_BLOCK]
    sizes = [params[name].data.size for name in state.group]
    state.flat = tuple(np.zeros(sum(sizes)) for _ in range(4))
    for name, hi, size in zip(state.group, np.cumsum(sizes), sizes):
        m, v, update, denom = (a[hi - size : hi].reshape(params[name].shape) for a in state.flat)
        state.m[name], state.v[name], state.work[name] = m, v, (update, denom)


def _update(m: np.ndarray, v: np.ndarray, u: np.ndarray, d: np.ndarray,
            lr: float, c1: float, c2: float) -> None:
    """u = lr * (m / c1) / (sqrt(v / c2) + eps), with d as scratch."""
    np.divide(m, c1, out=u)
    u *= lr
    np.divide(v, c2, out=d)
    np.sqrt(d, out=d)
    d += ADAM_EPS
    u /= d


def _flat_step(params: dict[str, Tensor], held: dict, state: AdamState, lr: float,
               c1: float, c2: float) -> None:
    """The per-parameter pass once over the group's flat arrays, which
    hold the gradient terms first."""
    m, v, u, d = state.flat
    np.concatenate([held[name][1].reshape(-1) for name in state.group], out=u)
    np.multiply(u, 1.0 - BETA2, out=d)
    d *= u  # (1 - BETA2) * g * g
    u *= 1.0 - BETA1
    m *= BETA1
    m += u
    v *= BETA2
    v += d
    _update(m, v, u, d, lr, c1, c2)
    for name in state.group:
        params[name].data -= state.work[name][0]


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam, in place.  Parameters whose grad is None (not
    touched by this step's graph) are left alone, moments included.

    A row-sparse gradient is read as its rows: every row's moments
    decay, and only the rows held add their gradient terms.  A dense
    gradient is the all-rows case.  The update runs a block of ADAM_BLOCK
    rows at a time through the work buffers, so its passes stay in cache.
    Each value is the one the textbook dense expressions give, except
    that an untouched row's moment that decays to -0.0 keeps its sign.

    The small parameters' group (see AdamState) runs as one flat pass in
    a step where every member has a dense gradient; in any other step its
    members run the per-parameter pass on their views.  Every update is
    elementwise, so both give the same bits.

    Rows that have never had a gradient are skipped: their moments are
    +0.0, so their update is lr * (0 / c1) / (sqrt(0 / c2) + eps) = +0.0,
    and p - 0.0 is p for every p, -0.0 included.  A table in slot order
    (see AdamState) runs the decay, the gradient terms and the update over
    its live slots only, so a step costs O(rows touched so far), not
    O(table).  That saving lasts while a table is cold: once LIVE_SHARE
    of its rows are live (about 180 steps of B=128 into a 50k-user synthetic
    corpus) it runs the whole-table pass, which is then the faster one."""
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    held = {name: h for name, p in params.items() if (h := p.grad_rows()) is not None}
    if state.t == 1:
        _form_group(params, held, state)
    done = ()
    if state.group and all(name in held and held[name][0] is ... for name in state.group):
        _flat_step(params, held, state, lr, c1, c2)
        done = set(state.group)
    for name, (rows, g) in held.items():
        if name in done:
            continue
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
            block = p.data[:ADAM_BLOCK]
            state.work[name] = (np.empty_like(block), np.empty_like(block))
            if rows is not ...:
                state.order[name] = np.empty(len(p.data), dtype=np.intp)
                state.slot[name] = np.full(len(p.data), -1, dtype=np.intp)
                state.n_live[name] = 0
        order = None
        if name in state.slot:
            rows, order = _live_slots(state, name, rows)
        n = len(p.data) if order is None else len(order)
        m, v = state.m[name][:n], state.v[name][:n]
        update, denom = state.work[name]
        m *= BETA1
        m[rows] += (1.0 - BETA1) * g
        v *= BETA2
        v[rows] += (1.0 - BETA2) * g * g
        for lo in range(0, n, ADAM_BLOCK):
            at = slice(lo, lo + ADAM_BLOCK)
            m_at = m[at]
            u = update[: len(m_at)]
            _update(m_at, v[at], u, denom[: len(m_at)], lr, c1, c2)
            if order is None:
                p.data[at] -= u
            else:
                p.data[order[at]] -= u


# ---------------------------------------------------------------------------
# forward / step


@dataclass
class StepRow:
    step: int
    loss_ll: float
    loss_interest: float
    loss_feature: float
    total: float
    sim_mean: float
    sim_min: float
    sim_max: float
    n_infeasible_interest: int
    n_infeasible_feature: int


@dataclass
class EpochRow:
    epoch: int
    loss_ll: float
    loss_interest: float
    loss_feature: float
    val_auc: float
    val_logloss: float


@dataclass
class TrainResult:
    model: MissModel
    history: list[EpochRow]
    telemetry: list[StepRow]
    best_epoch: int
    best_val_auc: float


def predict_scores(model: MissModel, part: SampleSet, batch_size: int) -> np.ndarray:
    """Ordered, full-coverage predictions (partial tail batch kept)."""
    out = np.zeros(part.n)
    with ad.no_grad():
        for idx in make_batches(part.n, batch_size, shuffle=False):
            cat, seq, mask, cand, _ = part.batch(idx)
            v = bm.field_concat(model.tables, model.seq_fields, seq)
            preds = bm.predict_batch(
                model.tables, model.cat_fields, model.seq_fields, model.base,
                cat, v, mask, cand,
            )
            out[idx] = preds.data
    return out


def _check_finite(name: str, value: float, step: int) -> None:
    if not np.isfinite(value):
        raise NumericalError(f"non-finite {name} ({value}) at step {step}")


def step_loss(
    model: MissModel,
    part: SampleSet,
    idx: np.ndarray,
    click: bool,
    ssl_rng: np.random.Generator | None,
) -> tuple[Tensor | None, Tensor | None, it.SslOut | None]:
    """Tape the step objective L = L_ll + a1 * L_int + a2 * L_feat on one
    batch; returns (L, L_ll, SSL outputs), None for a part not built.
    The click loss L_ll is built only when click is set.

    The plan stream is the switch: the contrastive tower is built, with
    its plans drawn from ssl_rng, only when ssl_rng is given and cfg
    enables SSL.  The sequence embeddings are looked up once, as the base
    tower's step vectors v, and the contrastive tower reads its channel
    stack from v; both towers read the batch's padding mask."""
    cfg = model.cfg
    cat, seq, mask, cand, label = part.batch(idx)
    v = bm.field_concat(model.tables, model.seq_fields, seq)

    terms: list[Tensor] = []
    ll = None
    if click:
        preds = bm.predict_batch(
            model.tables, model.cat_fields, model.seq_fields, model.base,
            cat, v, mask, cand,
        )
        ll = bm.logloss(preds, label)
        terms.append(ll)

    ssl = None
    if ssl_rng is not None and cfg.ssl_enabled:
        ssl = it.ssl_forward(
            it.channel_stack(v, len(model.seq_fields)), mask,
            model.conv, model.enc_interest, model.enc_feature,
            cfg.pairs_interest, cfg.pairs_feature, cfg.max_offset, cfg.tau,
            ssl_rng,
        )
        if ssl.loss_interest is not None and cfg.alpha_interest > 0:
            terms.append(ad.scale(ssl.loss_interest, cfg.alpha_interest))
        if ssl.loss_feature is not None and cfg.alpha_feature > 0:
            terms.append(ad.scale(ssl.loss_feature, cfg.alpha_feature))

    return (reduce(ad.add, terms) if terms else None), ll, ssl


def _value(t: Tensor | None) -> float:
    return float(t.data) if t is not None else 0.0


def train_step(
    model: MissModel,
    part: SampleSet,
    idx: np.ndarray,
    ssl_rng: np.random.Generator | None,
    optimizer: AdamState,
    params: dict[str, Tensor],
    step: int,
    click: bool = True,
) -> StepRow:
    """One forward/backward/update over a batch; returns the telemetry row."""
    graph = ad.fresh_graph()
    ad.zero_grads(params.values())
    total, ll, ssl = step_loss(model, part, idx, click, ssl_rng)
    ssl = ssl or it.SslOut(None, None)  # defaults: NaN similarities, no counts
    stats = (ssl.sim_mean, ssl.sim_min, ssl.sim_max,
             ssl.n_infeasible_interest, ssl.n_infeasible_feature)
    if total is None:
        # nothing to optimize on this batch (e.g. SSL-only phase, all infeasible)
        return StepRow(step, 0.0, 0.0, 0.0, 0.0, *stats)
    losses = {
        "loss_ll": _value(ll),
        "loss_interest": _value(ssl.loss_interest),
        "loss_feature": _value(ssl.loss_feature),
        "total loss": float(total.data),
    }
    for name, value in losses.items():
        _check_finite(name, value, step)

    graph.backward(total)
    adam_step(params, optimizer, model.cfg.lr)
    return StepRow(step, *losses.values(), *stats)


def _run_epochs(
    model: MissModel,
    splits: Splits,
    params: dict[str, Tensor],
    ssl_rng: np.random.Generator | None,
    *,
    click: bool,
    telemetry: list[StepRow],
    history: list[EpochRow],
) -> tuple[int, float]:
    """Shared loop over cfg.epochs epochs, appending to telemetry and
    history, numbered on from the rows already there; a step runs the
    contrastive tower only when given the plan stream ssl_rng.  A click
    phase adds the click loss to each step, stops after `patience`
    epochs without a better validation AUC and restores the best epoch's
    parameters; pretrain's contrastive phase does none of these.
    Returns (best_epoch, best_val_auc)."""
    cfg = model.cfg
    if splits.train.n < cfg.batch_size:
        raise DegenerateDatasetError(
            f"{splits.train.n} training rows are fewer than batch_size {cfg.batch_size}: "
            "no full batch to train on"
        )
    optimizer = AdamState()
    best_auc = -np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] | None = None
    wait = 0
    first_epoch = len(history)
    for epoch in range(first_epoch, first_epoch + cfg.epochs):
        batches = make_batches(
            splits.train.n, cfg.batch_size,
            shuffle=True, seed=[cfg.seed, 2, epoch], drop_partial=True,
        )
        rows = []
        for idx in batches:
            row = train_step(model, splits.train, idx, ssl_rng, optimizer, params,
                             len(telemetry), click=click)
            rows.append(row)
            telemetry.append(row)
        scores = predict_scores(model, splits.valid, cfg.batch_size)
        val_auc = auc(scores, splits.valid.label)
        val_ll = logloss_value(scores, splits.valid.label)
        means = [float(np.mean([getattr(r, a) for r in rows]))
                 for a in ("loss_ll", "loss_interest", "loss_feature")]
        history.append(EpochRow(epoch, *means, val_auc=val_auc, val_logloss=val_ll))
        log.info("epoch %d: ll=%.5f int=%.5f feat=%.5f val_auc=%.5f", epoch, *means, val_auc)
        if val_auc > best_auc:
            best_auc = val_auc
            best_epoch = epoch
            if click:
                best_state = {k: p.data.copy() for k, p in params.items()}
            wait = 0
        else:
            wait += 1
            if click and wait >= cfg.patience:
                log.info("early stop after epoch %d", epoch)
                break
    if best_state is not None:
        for k, p in params.items():
            p.data = best_state[k]
    return best_epoch, best_auc


def train(cfg: ExperimentConfig, splits: Splits) -> TrainResult:
    """Build (so validate) and train the model.  Joint: one phase on the
    full loss over every parameter the model holds, with the plan stream
    when SSL is enabled.  Pretrain with SSL (else joint): a
    contrastive-only phase on the SSL parameters, then a click-loss phase
    on the base ones, fresh optimizer, no plan stream."""
    model = build_model(cfg, splits)
    telemetry: list[StepRow] = []
    history: list[EpochRow] = []
    ssl_rng = np.random.default_rng([cfg.seed, 1]) if cfg.ssl_enabled else None
    params = model.parameters()
    if cfg.strategy == "pretrain" and cfg.ssl_enabled:
        _run_epochs(model, splits, model.ssl_parameters(), ssl_rng, click=False,
                    telemetry=telemetry, history=history)
        params, ssl_rng = model.base_parameters(), None
    best_epoch, best_auc = _run_epochs(model, splits, params, ssl_rng, click=True,
                                       telemetry=telemetry, history=history)
    return TrainResult(model, history, telemetry, best_epoch, best_auc)
