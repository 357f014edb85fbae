"""Multi-interest extraction and the two contrastive auxiliary losses.

From the per-field channel stack C (B, J, L, K) a bank of 1-d kernels
slides along the time axis: branch m (width m, one kernel per branch,
shared across fields and channels) emits ReLU'd maps (B, J, L-m+1, K).
Reading one time column across all fields gives an interest vector of
width J*K; a second bank of vertical kernels (width n along the field
axis, separate per horizontal branch) refines each branch into
fine-grained maps (B, J-n+1, L-m+1, K) whose rows are K-wide feature
views.

Two InfoNCE losses sit on top.  The interest loss draws, per pair slot,
a branch, a time offset h, and an anchor column, and treats columns l
and l+h as the two views of one sample.  The feature loss draws a
refined slice, one valid time column, and two distinct rows.  The slot
is an array axis: the P slots of a loss share its n contributing rows,
so each view side is one slot-major (P*n, D) stack (row p*n + i is slot
p, contributor i), gathered once and passed once through a small
weight-only MLP encoder shared by both sides.  One InfoNCE call on the
(P, n, d) reshape gives every slot its own softmax over its n rows, the
positive included.  Samples whose sequences are too short to form a
view pair drop out of the loss and are counted, never imputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

KERNEL_INIT = 0.5


# ---------------------------------------------------------------------------
# kernel bank


@dataclass
class ConvBank:
    """Horizontal kernels g[m-1] of width m = 1..M and, per branch,
    vertical kernels ghat[m-1][n-1] of width n = 1..N."""

    horizontal: list[Tensor]
    vertical: list[list[Tensor]]

    @property
    def n_branches(self) -> int:
        return len(self.horizontal)

    @property
    def n_depths(self) -> int:
        return len(self.vertical[0]) if self.vertical else 0

    def param_count(self) -> int:
        m = self.n_branches
        n = self.n_depths
        return m * (m + 1) // 2 + m * (n * (n + 1) // 2)

    def named(self) -> dict[str, Tensor]:
        out = {f"conv_g{m + 1}": g for m, g in enumerate(self.horizontal)}
        for m, row in enumerate(self.vertical):
            for n, g in enumerate(row):
                out[f"conv_g{m + 1}v{n + 1}"] = g
        return out


def init_conv_bank(n_branches: int, n_depths: int, rng: np.random.Generator) -> ConvBank:
    if n_branches < 1 or n_depths < 0:
        raise ConfigError(f"need n_branches >= 1 and n_depths >= 0, got {n_branches}, {n_depths}")
    horizontal = [
        ad.parameter(rng.uniform(-KERNEL_INIT, KERNEL_INIT, size=m + 1), name=f"g{m + 1}")
        for m in range(n_branches)
    ]
    vertical = [
        [
            ad.parameter(rng.uniform(-KERNEL_INIT, KERNEL_INIT, size=n + 1), name=f"g{m + 1}v{n + 1}")
            for n in range(n_depths)
        ]
        for m in range(n_branches)
    ]
    return ConvBank(horizontal, vertical)


# ---------------------------------------------------------------------------
# extractors


def channel_stack(v: Tensor, n_fields: int) -> Tensor:
    """Step vectors v (B, L, J*K) -> C (B, J, L, K): one channel block per
    field.  A view of the base tower's lookup, not a second gather, so
    both towers' embedding gradients meet in v before the scatter."""
    nb, nl, width = v.shape
    return ad.transpose(ad.reshape(v, (nb, nl, n_fields, width // n_fields)), (0, 2, 1, 3))


def _conv_along(x: Tensor, kernel: Tensor, axis: int) -> Tensor:
    """Valid cross-correlation along one axis, stride 1, then ReLU."""
    return ad.relu(ad.conv1d(x, kernel, axis))


@dataclass
class InterestBank:
    """Per-branch interest maps plus per-sample window validity.

    branches[i]: (B, J, L-m_i+1, K) for kernel width m_i; valid[i]:
    bool (B, L-m_i+1), true where the window covers only real events.
    With front padding the valid windows form a contiguous tail run, so
    counts[b, i] (its length) and starts[b, i] (its first column, 0 when
    empty) describe it fully; both samplers read them from here.
    """

    branches: list[Tensor]
    widths: list[int]
    valid: list[np.ndarray]
    counts: np.ndarray = field(init=False)
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.stack([v.sum(axis=1) for v in self.valid], axis=1)
        self.starts = np.stack(
            [np.where(v.any(axis=1), v.argmax(axis=1), 0) for v in self.valid], axis=1
        )

    @property
    def n_vectors(self) -> int:
        return sum(b.shape[2] for b in self.branches)


def window_validity(mask: np.ndarray, width: int) -> np.ndarray:
    """(B, L) event mask -> (B, L-width+1) all-real window mask."""
    if width > mask.shape[1]:
        return np.zeros((mask.shape[0], 0), dtype=bool)
    view = np.lib.stride_tricks.sliding_window_view(mask.astype(bool), width, axis=1)
    return view.all(axis=-1)


def mie_forward(C: Tensor, mask: np.ndarray, bank: ConvBank) -> InterestBank:
    """Run every horizontal branch over the time axis of C (B, J, L, K).

    A branch wider than the sequence is skipped, not an error:
    downstream sampling simply never picks it (`trainer.build_model`
    reports such a configuration once).
    """
    if C.ndim != 4:
        raise ShapeError(f"channel stack must be (B, J, L, K), got {C.shape}")
    n_l = C.shape[2]
    branches, widths, valid = [], [], []
    for g in bank.horizontal:
        w = g.shape[0]
        if w > n_l:
            continue
        branches.append(_conv_along(C, g, axis=2))
        widths.append(w)
        valid.append(window_validity(mask, w))
    return InterestBank(branches, widths, valid)


@dataclass
class FineBank:
    """Vertically refined maps per (branch, depth): (B, J-n+1, L-m+1, K).
    Time validity is inherited from the horizontal branch."""

    maps: dict[tuple[int, int], Tensor]  # keyed by (branch index, depth index)
    depths: list[int]

    def row_count(self, j_fields: int) -> int:
        return sum(j_fields - n + 1 for n in self.depths)


def mimfe_forward(bank: InterestBank, conv: ConvBank) -> FineBank:
    """Slide each branch's vertical kernels along the field axis; a
    kernel wider than the field count is skipped."""
    maps: dict[tuple[int, int], Tensor] = {}
    depths: list[int] = []
    for bi, branch in enumerate(bank.branches):
        n_j = branch.shape[1]
        for di, g in enumerate(conv.vertical[bi]):
            w = g.shape[0]
            if w > n_j:
                continue
            maps[(bi, di)] = _conv_along(branch, g, axis=1)
            if bi == 0:
                depths.append(w)
    return FineBank(maps, depths)


# ---------------------------------------------------------------------------
# augmentation sampling (pure functions of the validity structure + rng)


@dataclass
class InterestPlan:
    """Chosen (branch, anchor, offset) per pair slot and contributor.
    rows: (n,) batch indices; branch/anchor/offset: (P, n)."""

    rows: np.ndarray
    branch: np.ndarray
    anchor: np.ndarray
    offset: np.ndarray
    n_infeasible: int = 0

    @property
    def n_pairs(self) -> int:
        return self.branch.shape[0]


def _pick_feasible(feasible: np.ndarray, n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """(P, n) column indices, each uniform among the true entries of its
    row of `feasible` (n, S); every row must have one.  One integer draw
    k per element picks the (k+1)-th true entry: the number of columns
    whose running count of true entries is <= k."""
    cum = np.cumsum(feasible, axis=1)
    k = rng.integers(0, feasible.sum(axis=1), size=(n_pairs, feasible.shape[0]))
    return (cum <= k[..., None]).sum(axis=-1)


def sample_interest_plan(
    bank: InterestBank, n_pairs: int, max_offset: int, rng: np.random.Generator
) -> InterestPlan:
    """Per contributor and pair slot: pick a branch uniformly among those
    with >= 2 valid windows, an offset h uniform on [1, min(max_offset,
    windows-1)], and an anchor uniform among columns where both l and
    l+h are valid.  Samples with no such branch are excluded and counted.

    Draw order: the branches of all (P, n) slots, then all offsets, then
    all anchors, each one `rng.integers` call with per-element bounds."""
    if max_offset < 1:
        raise ConfigError(f"max_offset must be >= 1, got {max_offset}")
    counts, starts = bank.counts, bank.starts
    feasible = counts >= 2
    rows = np.flatnonzero(feasible.any(axis=1))
    branch = _pick_feasible(feasible[rows], n_pairs, rng)
    v = counts[rows, branch]
    offset = rng.integers(1, np.minimum(max_offset, v - 1) + 1)
    anchor = starts[rows, branch] + rng.integers(0, v - offset)
    return InterestPlan(
        rows=rows, branch=branch, anchor=anchor, offset=offset,
        n_infeasible=counts.shape[0] - rows.size,
    )


@dataclass
class FeaturePlan:
    """Chosen (branch, depth, anchor column, two distinct rows) per pair
    slot and contributor."""

    rows: np.ndarray
    branch: np.ndarray
    depth: np.ndarray
    anchor: np.ndarray
    row_a: np.ndarray
    row_b: np.ndarray
    n_infeasible: int = 0

    @property
    def n_pairs(self) -> int:
        return self.branch.shape[0]


def sample_feature_plan(
    bank: InterestBank, fine: FineBank, n_pairs: int, rng: np.random.Generator
) -> FeaturePlan:
    """Uniform over feasible (branch, depth) slices: the slice must keep
    >= 2 rows and the sample >= 1 valid time column in that branch.
    Both views share the slice and column; rows are drawn distinct, an
    ordered pair uniform over the slice's distinct rows.

    Draw order: the slices of all (P, n) slots, then all columns, then
    all first rows, then all second rows, each one `rng.integers` call
    with per-element bounds."""
    counts, starts = bank.counts, bank.starts
    usable = [k for k in sorted(fine.maps) if fine.maps[k].shape[1] >= 2]
    slice_branch = np.array([bi for bi, _ in usable], dtype=np.int64)
    slice_depth = np.array([di for _, di in usable], dtype=np.int64)
    slice_rows = np.array([fine.maps[k].shape[1] for k in usable], dtype=np.int64)
    feas = counts[:, slice_branch] >= 1
    rows = np.flatnonzero(feas.any(axis=1))
    s = _pick_feasible(feas[rows], n_pairs, rng)
    branch, n_rows = slice_branch[s], slice_rows[s]
    anchor = starts[rows, branch] + rng.integers(0, counts[rows, branch])
    row_a = rng.integers(0, n_rows)
    row_b = rng.integers(0, n_rows - 1)
    row_b += row_b >= row_a
    return FeaturePlan(
        rows=rows, branch=branch, depth=slice_depth[s], anchor=anchor,
        row_a=row_a, row_b=row_b, n_infeasible=counts.shape[0] - rows.size,
    )


# ---------------------------------------------------------------------------
# view gathering


def gather_interest_views(bank: InterestBank, plan: InterestPlan) -> tuple[Tensor, Tensor]:
    """The two (P*n, J*K) view stacks, slot-major: flattened columns at l
    and l+h.  All branches are flattened into one row table so a single
    gather per side serves every slot of a mixed-branch plan."""
    flats, offsets = [], []
    base = 0
    for branch in bank.branches:
        nb, nj, nl, nk = branch.shape
        flat = ad.reshape(ad.transpose(branch, (0, 2, 1, 3)), (nb * nl, nj * nk))
        flats.append(flat)
        offsets.append(base)
        base += nb * nl
    table = ad.concat(flats, axis=0) if len(flats) > 1 else flats[0]
    lens = np.array([b.shape[2] for b in bank.branches])
    offs = np.array(offsets)

    idx1 = offs[plan.branch] + plan.rows * lens[plan.branch] + plan.anchor
    idx2 = idx1 + plan.offset
    return ad.gather_rows(table, idx1.reshape(-1)), ad.gather_rows(table, idx2.reshape(-1))


def gather_feature_views(fine: FineBank, plan: FeaturePlan) -> tuple[Tensor, Tensor]:
    """The two (P*n, K) view stacks, slot-major: same slice and column,
    distinct rows.  Every slice is flattened into one row table, and a
    (branch, depth) -> (offset, rows, columns) lookup turns the whole
    plan into table rows at once."""
    keys = sorted(fine.maps)
    flats = []
    slot = np.zeros((max(k[0] for k in keys) + 1, max(k[1] for k in keys) + 1), dtype=np.int64)
    meta = np.zeros((len(keys), 3), dtype=np.int64)
    base = 0
    for si, key in enumerate(keys):
        t = fine.maps[key]
        nb, nj, nl, nk = t.shape
        flats.append(ad.reshape(t, (nb * nj * nl, nk)))
        slot[key] = si
        meta[si] = (base, nj, nl)
        base += nb * nj * nl
    table = ad.concat(flats, axis=0) if len(flats) > 1 else flats[0]

    off, nj, nl = np.moveaxis(meta[slot[plan.branch, plan.depth]], -1, 0)
    idx1 = off + (plan.rows * nj + plan.row_a) * nl + plan.anchor
    idx2 = off + (plan.rows * nj + plan.row_b) * nl + plan.anchor
    return ad.gather_rows(table, idx1.reshape(-1)), ad.gather_rows(table, idx2.reshape(-1))


# ---------------------------------------------------------------------------
# encoders


@dataclass
class EncoderParams:
    """Weight-only MLP (no biases), ReLU between layers, none after the last."""

    weights: list[Tensor]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}_w{i}": w for i, w in enumerate(self.weights)}


def init_encoder(d_in: int, sizes: tuple[int, ...], rng: np.random.Generator, name: str) -> EncoderParams:
    from .base_model import glorot

    weights = []
    fan = d_in
    for i, width in enumerate(sizes):
        weights.append(ad.parameter(glorot(rng, fan, width), name=f"{name}_w{i}"))
        fan = width
    return EncoderParams(weights)


def encode(x: Tensor, enc: EncoderParams) -> Tensor:
    h = x
    for i, w in enumerate(enc.weights):
        h = ad.matmul(h, w)
        if i < len(enc.weights) - 1:
            h = ad.relu(h)
    return h


# ---------------------------------------------------------------------------
# InfoNCE


def infonce(z1: Tensor, z2: Tensor, tau: float) -> Tensor:
    """-mean_x log( exp(cos(z1_x, z2_x)/tau) / sum_x' exp(cos(z1_x, z2_x')/tau) ).

    z1 and z2 are (..., n, d): each leading index is one pair slot whose
    denominator runs over its own n rows, x itself included, and the
    mean runs over every slot and row.  The row-max shift is detached,
    which leaves gradients exact while keeping exp bounded for any
    tau > 0.
    """
    if tau <= 0.0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if z1.shape != z2.shape or z1.ndim < 2 or z1.shape[-2] < 2:
        raise ShapeError(f"need two equal view matrices with >= 2 rows, got {z1.shape} and {z2.shape}")
    flip = (*range(z1.ndim - 2), z1.ndim - 1, z1.ndim - 2)
    s = ad.matmul(ad.normalize_rows(z1), ad.transpose(ad.normalize_rows(z2), flip))
    logits = ad.scale(s, 1.0 / tau)
    shift = ad.constant(logits.data.max(axis=-1, keepdims=True))
    lse = ad.add(
        ad.tlog(ad.tsum(ad.texp(ad.sub(logits, shift)), axis=-1)),
        ad.constant(shift.data[..., 0]),
    )
    pos = ad.tsum(ad.mul(logits, ad.constant(np.eye(z1.shape[-2]))), axis=-1)
    return ad.tmean(ad.sub(lse, pos))


def view_similarity_stats(pairs: list[tuple[Tensor, Tensor]]) -> tuple[float, float, float]:
    """(mean, min, max) cosine between paired views, norms floored."""
    sims = []
    for z1, z2 in pairs:
        a, b = z1.data, z2.data
        na = np.maximum(np.linalg.norm(a, axis=1), ad.COSINE_EPS)
        nb = np.maximum(np.linalg.norm(b, axis=1), ad.COSINE_EPS)
        sims.append((a * b).sum(axis=1) / (na * nb))
    if not sims:
        return (float("nan"),) * 3
    s = np.concatenate(sims)
    return float(s.mean()), float(s.min()), float(s.max())


# ---------------------------------------------------------------------------
# one-call orchestration for the trainer


def _contrast(
    views: tuple[Tensor, Tensor], enc: EncoderParams, n_pairs: int, tau: float
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Encode both (P*n, D) view stacks and score all P slots in one
    InfoNCE; returns the loss and the flat encodings."""
    z1, z2 = (encode(v, enc) for v in views)
    slots = (n_pairs, -1, z1.shape[1])
    return infonce(ad.reshape(z1, slots), ad.reshape(z2, slots), tau), (z1, z2)


@dataclass
class SslOut:
    loss_interest: Tensor | None
    loss_feature: Tensor | None
    sim_mean: float = float("nan")
    sim_min: float = float("nan")
    sim_max: float = float("nan")
    n_infeasible_interest: int = 0
    n_infeasible_feature: int = 0


def ssl_forward(
    C: Tensor,
    mask: np.ndarray,
    conv: ConvBank,
    enc_interest: EncoderParams,
    enc_feature: EncoderParams,
    n_pairs_interest: int,
    n_pairs_feature: int,
    max_offset: int,
    tau: float,
    rng: np.random.Generator,
) -> SslOut:
    """Extract, sample, encode, and score both contrastive losses for
    one batch.  The plans are a function of the padding mask, the map
    shapes and rng alone, never of parameter values, so a generator in
    the same state draws the same plans."""
    bank = mie_forward(C, mask, conv)
    fine = mimfe_forward(bank, conv)
    iplan = sample_interest_plan(bank, n_pairs_interest, max_offset, rng)
    fplan = sample_feature_plan(bank, fine, n_pairs_feature, rng)

    encoded: list[tuple[Tensor, Tensor]] = []
    loss_i = loss_f = None
    if iplan.rows.size >= 2 and iplan.n_pairs > 0:
        loss_i, z = _contrast(gather_interest_views(bank, iplan), enc_interest, iplan.n_pairs, tau)
        encoded.append(z)
    if fplan.rows.size >= 2 and fplan.n_pairs > 0 and fine.maps:
        loss_f, z = _contrast(gather_feature_views(fine, fplan), enc_feature, fplan.n_pairs, tau)
        encoded.append(z)
    return SslOut(loss_i, loss_f, *view_similarity_stats(encoded),
                  n_infeasible_interest=iplan.n_infeasible, n_infeasible_feature=fplan.n_infeasible)
