"""Training loop: experiment configuration, Adam, and the joint /
pretrain strategies over the base model plus contrastive auxiliaries.

Total loss per step is  L = L_ll + a1 * L_int + a2 * L_feat.  The pair
sampler draws from its own seeded stream, independent of batch
shuffling, so turning the auxiliaries off (a1 = a2 = 0 or model "din")
leaves the base trajectory bit-identical: the SSL graph is simply never
built and no extra randomness is consumed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields as dc_fields
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import base_model as bm
from . import interests as it
from .autodiff import Tensor
from .data import Splits, make_batches, SampleSet
from .embeddings import init_tables, zero_pad_rows
from .errors import ConfigError, DegenerateDatasetError, FormatError, NumericalError
from .metrics import auc, logloss_value
from .serialize import load_arrays, save_arrays

log = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

GRID = {
    "lr": {1e-1, 1e-2, 1e-3, 1e-4},
    "alpha": {0.05, 0.1, 0.5, 1.0, 5.0},
    "tau": {0.05, 0.1, 0.5, 1.0, 5.0},
    "n_branches": {1, 2, 3, 4},
    "n_depths": {1, 2},
    "max_offset": {1, 2, 3, 4},
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
        if self.emb_dim < 1:
            raise ConfigError(f"emb_dim must be >= 1, got {self.emb_dim}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
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
        if self.n_branches < 1:
            raise ConfigError(f"n_branches must be >= 1, got {self.n_branches}")
        if self.n_depths < 0:
            raise ConfigError(f"n_depths must be >= 0, got {self.n_depths}")
        if self.max_offset < 1:
            raise ConfigError(f"max_offset must be >= 1, got {self.max_offset}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.max_len < self.n_branches:
            raise ConfigError(
                f"max_len ({self.max_len}) must cover the widest branch ({self.n_branches})"
            )
        for name, v in (("n_pairs_interest", self.n_pairs_interest),
                        ("n_pairs_feature", self.n_pairs_feature)):
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be >= 1 when set, got {v}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.grid_mode:
            checks = [
                ("lr", self.lr, GRID["lr"]),
                ("alpha_interest", self.alpha_interest, GRID["alpha"]),
                ("alpha_feature", self.alpha_feature, GRID["alpha"]),
                ("tau", self.tau, GRID["tau"]),
                ("n_branches", self.n_branches, GRID["n_branches"]),
                ("n_depths", self.n_depths, GRID["n_depths"]),
                ("max_offset", self.max_offset, GRID["max_offset"]),
            ]
            for name, v, grid in checks:
                if v not in grid:
                    raise ConfigError(f"grid mode: {name}={v} not in {sorted(grid)}")
            if self.alpha_interest != self.alpha_feature:
                raise ConfigError(
                    "grid mode ties the two loss weights together; "
                    f"got {self.alpha_interest} and {self.alpha_feature}"
                )
        return self

    def to_dict(self) -> dict:
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


# ---------------------------------------------------------------------------
# model assembly


@dataclass
class MissModel:
    cfg: ExperimentConfig
    cat_fields: list[str]
    seq_fields: list[str]
    vocab_sizes: dict[str, int]
    tables: dict[str, Tensor]
    base: bm.BaseParams
    conv: it.ConvBank
    enc_interest: it.EncoderParams
    enc_feature: it.EncoderParams

    def parameters(self) -> dict[str, Tensor]:
        out = {f"emb:{name}": t for name, t in self.tables.items()}
        out.update({f"base:{k}": v for k, v in self.base.named().items()})
        out.update({f"ssl:{k}": v for k, v in self.conv.named().items()})
        out.update({f"ssl:{k}": v for k, v in self.enc_interest.named("enc_int").items()})
        out.update({f"ssl:{k}": v for k, v in self.enc_feature.named("enc_feat").items()})
        return out

    def ssl_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if not k.startswith("base:")}

    def base_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if not k.startswith("ssl:")}


def build_model(cfg: ExperimentConfig, splits: Splits) -> MissModel:
    """Deterministic construction: one init stream, fixed draw order
    (tables, attention unit + MLP, kernels, encoders), so the base
    model's parameters do not depend on whether the SSL tower exists.
    Kernels wider than the sequence or the field count are warned about
    here, once; the extractors skip them at every step."""
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 0])
    ordered_sizes = {f: splits.vocab_sizes[f] for f in splits.cat_fields + splits.seq_fields}
    tables = init_tables(ordered_sizes, cfg.emb_dim, rng)
    n_cat = len(splits.cat_fields)
    n_seq = len(splits.seq_fields)
    step_dim = n_seq * cfg.emb_dim
    x_dim = n_cat * cfg.emb_dim + 2 * step_dim
    base = bm.init_base_params(x_dim, step_dim, tuple(cfg.mlp), rng)
    conv = it.init_conv_bank(cfg.n_branches, cfg.n_depths, rng)
    enc_i = it.init_encoder(step_dim, tuple(cfg.enc_interest), rng, "enc_int")
    enc_f = it.init_encoder(cfg.emb_dim, tuple(cfg.enc_feature), rng, "enc_feat")
    for kind, widest, size, axis in (("branch", cfg.n_branches, splits.max_len, "sequence length"),
                                     ("vertical", cfg.n_depths, n_seq, "field count")):
        if cfg.ssl_enabled and widest > size:
            log.warning("%s width %d exceeds %s %d: the extractor skips the kernels wider than %d",
                        kind, widest, axis, size, size)
    return MissModel(
        cfg=cfg,
        cat_fields=list(splits.cat_fields),
        seq_fields=list(splits.seq_fields),
        vocab_sizes=ordered_sizes,
        tables=tables,
        base=base,
        conv=conv,
        enc_interest=enc_i,
        enc_feature=enc_f,
    )


def save_checkpoint(path: str, model: MissModel) -> None:
    save_arrays(path, {k: v.data for k, v in model.parameters().items()})


def load_checkpoint(path: str, model: MissModel) -> None:
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
        p.data = arrays[k]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Step count, first and second moments, and per-parameter work
    buffers (the update and its denominator), all kept across steps."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    work: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam, in place.  Parameters whose grad is None (not
    touched by this step's graph) are left alone, moments included.

    A row-sparse gradient is read as its rows: every row's moments
    decay, and only the rows held add their gradient terms.  A dense
    gradient is the all-rows case.  The update is computed into the
    parameter's work buffers, so a step allocates nothing table-sized.
    Each value is the one the textbook dense expressions give, except
    that an untouched row's moment that decays to -0.0 keeps its sign."""
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    for name, p in params.items():
        held = p.grad_rows()
        if held is None:
            continue
        rows, g = held
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
            state.work[name] = (np.empty_like(p.data), np.empty_like(p.data))
        m, v = state.m[name], state.v[name]
        update, denom = state.work[name]
        m *= BETA1
        m[rows] += (1.0 - BETA1) * g
        v *= BETA2
        v[rows] += (1.0 - BETA2) * g * g
        # update = lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=update)
        update *= lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        p.data -= update


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


def _batch_arrays(part: SampleSet, idx: np.ndarray):
    return part.cat[idx], part.seq[idx], part.seq_len[idx], part.cand[idx], part.label[idx]


def predict_scores(model: MissModel, part: SampleSet, batch_size: int) -> np.ndarray:
    """Ordered, full-coverage predictions (partial tail batch kept)."""
    out = np.zeros(part.n)
    with ad.no_grad():
        for idx in make_batches(part.n, batch_size, shuffle=False):
            cat, seq, seq_len, cand, _ = _batch_arrays(part, idx)
            v = bm.behavior_matrix(model.tables, model.seq_fields, seq)
            preds = bm.predict_batch(
                model.tables, model.cat_fields, model.seq_fields, model.base,
                cat, v, seq_len, cand,
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
    include_ll: bool,
    include_ssl: bool,
    ssl_rng: np.random.Generator | None,
) -> tuple[Tensor | None, Tensor | None, it.SslOut | None]:
    """Tape the step objective L = L_ll + a1 * L_int + a2 * L_feat on one
    batch; returns (L, L_ll, SSL outputs), None for a part not built.

    The sequence embeddings are looked up once, as the base tower's step
    vectors v, and the contrastive tower reads its channel stack from v.
    The SSL part draws its plans from ssl_rng."""
    cfg = model.cfg
    cat, seq, seq_len, cand, label = _batch_arrays(part, idx)
    v = bm.behavior_matrix(model.tables, model.seq_fields, seq)

    terms: list[Tensor] = []
    ll = None
    if include_ll:
        preds = bm.predict_batch(
            model.tables, model.cat_fields, model.seq_fields, model.base,
            cat, v, seq_len, cand,
        )
        ll = bm.logloss(preds, label)
        terms.append(ll)

    ssl = None
    if include_ssl and cfg.ssl_enabled:
        ssl = it.ssl_forward(
            it.channel_stack(v, len(model.seq_fields)),
            bm.padding_mask(seq_len, seq.shape[2]),
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
    include_ll: bool = True,
    include_ssl: bool = True,
) -> StepRow:
    """One forward/backward/update over a batch; returns the telemetry row."""
    graph = ad.fresh_graph()
    ad.zero_grads(params.values())
    total, ll, ssl = step_loss(model, part, idx, include_ll, include_ssl, ssl_rng)
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
    zero_pad_rows(model.tables)
    return StepRow(step, *losses.values(), *stats)


def _epoch_mean(rows: list[StepRow], attr: str) -> float:
    vals = [getattr(r, attr) for r in rows]
    return float(np.mean(vals)) if vals else 0.0


def _run_epochs(
    model: MissModel,
    splits: Splits,
    params: dict[str, Tensor],
    *,
    n_epochs: int,
    include_ll: bool,
    include_ssl: bool,
    early_stop: bool,
    telemetry: list[StepRow],
    history: list[EpochRow],
) -> tuple[int, float]:
    """Shared epoch loop, appending to telemetry and history; epochs and
    steps are numbered on from the rows already there.  Returns
    (best_epoch, best_val_auc)."""
    cfg = model.cfg
    if splits.train.n < cfg.batch_size:
        raise DegenerateDatasetError(
            f"{splits.train.n} training rows are fewer than batch_size {cfg.batch_size}: "
            "no full batch to train on"
        )
    optimizer = AdamState()
    ssl_rng = np.random.default_rng([cfg.seed, 1]) if cfg.ssl_enabled else None
    best_auc = -np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] | None = None
    wait = 0
    first_epoch = len(history)
    for epoch in range(first_epoch, first_epoch + n_epochs):
        batches = make_batches(
            splits.train.n, cfg.batch_size,
            shuffle=True, seed=[cfg.seed, 2, epoch], drop_partial=True,
        )
        rows = []
        for idx in batches:
            row = train_step(
                model, splits.train, idx, ssl_rng, optimizer, params, len(telemetry),
                include_ll=include_ll, include_ssl=include_ssl,
            )
            rows.append(row)
            telemetry.append(row)
        scores = predict_scores(model, splits.valid, cfg.batch_size)
        val_auc = auc(scores, splits.valid.label)
        val_ll = logloss_value(scores, splits.valid.label)
        history.append(
            EpochRow(
                epoch=epoch,
                loss_ll=_epoch_mean(rows, "loss_ll"),
                loss_interest=_epoch_mean(rows, "loss_interest"),
                loss_feature=_epoch_mean(rows, "loss_feature"),
                val_auc=val_auc,
                val_logloss=val_ll,
            )
        )
        log.info(
            "epoch %d: ll=%.5f int=%.5f feat=%.5f val_auc=%.5f",
            epoch, history[-1].loss_ll,
            history[-1].loss_interest, history[-1].loss_feature, val_auc,
        )
        if val_auc > best_auc:
            best_auc = val_auc
            best_epoch = epoch
            best_state = {k: p.data.copy() for k, p in params.items()}
            wait = 0
        else:
            wait += 1
            if early_stop and wait >= cfg.patience:
                log.info("early stop after epoch %d", epoch)
                break
    if early_stop and best_state is not None:
        for k, p in params.items():
            p.data = best_state[k]
    return best_epoch, best_auc


def train_joint(cfg: ExperimentConfig, splits: Splits) -> TrainResult:
    """Single phase: every step optimizes the full decomposed loss."""
    model = build_model(cfg, splits)
    telemetry: list[StepRow] = []
    history: list[EpochRow] = []
    params = model.parameters() if cfg.ssl_enabled else model.base_parameters()
    best_epoch, best_auc = _run_epochs(
        model, splits, params,
        n_epochs=cfg.epochs, include_ll=True, include_ssl=True,
        early_stop=True, telemetry=telemetry, history=history,
    )
    return TrainResult(model, history, telemetry, best_epoch, best_auc)


def train_pretrain(cfg: ExperimentConfig, splits: Splits) -> TrainResult:
    """Phase 1 optimizes only the contrastive losses (embeddings,
    kernels, encoders); phase 2 fine-tunes the click loss from the
    phase-1 representations with a fresh optimizer."""
    if not cfg.ssl_enabled:
        raise ConfigError("pretrain strategy needs the SSL path enabled")
    model = build_model(cfg, splits)
    telemetry: list[StepRow] = []
    history: list[EpochRow] = []
    _run_epochs(
        model, splits, model.ssl_parameters(),
        n_epochs=cfg.epochs, include_ll=False, include_ssl=True,
        early_stop=False, telemetry=telemetry, history=history,
    )
    best_epoch, best_auc = _run_epochs(
        model, splits, model.base_parameters(),
        n_epochs=cfg.epochs, include_ll=True, include_ssl=False,
        early_stop=True, telemetry=telemetry, history=history,
    )
    return TrainResult(model, history, telemetry, best_epoch, best_auc)


def train(cfg: ExperimentConfig, splits: Splits) -> TrainResult:
    cfg.validate()
    if cfg.strategy == "pretrain" and cfg.ssl_enabled:
        return train_pretrain(cfg, splits)
    return train_joint(cfg, splits)
