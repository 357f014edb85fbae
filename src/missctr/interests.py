"""Multi-interest extraction and the two contrastive auxiliary losses.

From the per-field channel stack C (B, J, L, K) a bank of 1-d kernels
slides along the time axis: branch m (width m, one kernel per branch,
shared across fields and channels) emits ReLU'd maps (B, J, L-m+1, K).
Reading one time column across all fields gives an interest vector of
width J*K; a second bank of vertical kernels (width n along the field
axis, separate per horizontal branch) refines each branch into
fine-grained maps (B, J-n+1, L-m+1, K) whose rows are K-wide feature
views.  An interest pair reads two time columns and a feature pair two
distinct rows, so a model holds only the kernels a weighted loss can
reach (trainer.build_model); the extractors convolve every kernel of
the bank they are given.

Two InfoNCE losses sit on top.  The interest loss draws, per pair slot,
a branch, a time offset h, and an anchor column, and treats columns l
and l+h as the two views of one sample.  The feature loss draws a
refined slice, one valid time column, and two distinct rows.  The slot
is an array axis: the P slots of a loss share its n contributing rows,
so each view side is one slot-major (P*n, D) stack (row p*n + i is slot
p, contributor i).  Both sides of a loss come from one gather, stacked
side after side, and pass once through a small weight-only MLP encoder;
the encoded stack reshaped to (2, P, n, d) gives the two sides as
views.  One InfoNCE call gives every slot its own softmax over its n
rows, the positive included, and reads each positive as the dot
product of its two normalized rows.  Samples whose sequences are too
short to form a view pair drop out of the loss and are counted, never
imputed.

Histories are front-padded and kernel widths grow with the branch
index, so a sample's all-real windows in a branch are one run at its
end, and the branches and slices it can sample are a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

KERNEL_INIT = 0.5


# ---------------------------------------------------------------------------
# kernel bank


@dataclass
class ConvBank:
    """Horizontal kernels g[m-1] of width m = 1..M and, per branch,
    vertical kernels ghat[m-1][n-1] of width n = 1..N."""

    horizontal: list[Tensor]
    vertical: list[list[Tensor]]

    def named(self) -> dict[str, Tensor]:
        """Each kernel under its own name: the horizontal ones, then the
        vertical ones branch by branch."""
        return {g.name: g for g in self.horizontal + [g for row in self.vertical for g in row]}


def init_conv_bank(n_branches: int, n_depths: int, rng: np.random.Generator) -> ConvBank:
    """Draw order: the horizontal kernels by width, then each branch's
    vertical kernels by width, each one uniform draw of its width.  A
    width-1 kernel scales a map in front of a ReLU, which the cosines of
    both losses cannot see, so it is the constant sign of its draw."""
    def kernel(width: int, name: str) -> Tensor:
        draw = rng.uniform(-KERNEL_INIT, KERNEL_INIT, size=width)
        return ad.parameter(draw, name=name) if width > 1 else ad.constant(np.sign(draw), name=name)

    horizontal = [kernel(m + 1, f"ssl:conv_g{m + 1}") for m in range(n_branches)]
    vertical = [[kernel(n + 1, f"ssl:conv_g{m + 1}v{n + 1}") for n in range(n_depths)]
                for m in range(n_branches)]
    return ConvBank(horizontal, vertical)


# ---------------------------------------------------------------------------
# extractors


def channel_stack(v: Tensor, n_fields: int) -> Tensor:
    """Step vectors v (B, L, J*K) -> C (B, J, L, K): one channel block per
    field.  A view of the base tower's lookup, not a second gather, so
    both towers' embedding gradients meet in v before the scatter."""
    nb, nl, width = v.shape
    return ad.transpose(ad.reshape(v, (nb, nl, n_fields, width // n_fields)), (0, 2, 1, 3))


@dataclass
class InterestBank:
    """Per-branch interest maps and each sample's run of all-real windows.

    branches[i]: (B, J, L-m_i+1, K) for kernel width m_i.  Histories are
    front-padded, so a sample of history length s has counts[b, i] =
    max(s - m_i + 1, 0) all-real windows in branch i, one run from
    column starts[b, i] = L - s (0 when empty); both samplers read them.
    """

    branches: list[Tensor]
    counts: np.ndarray
    starts: np.ndarray

    @property
    def n_vectors(self) -> int:
        return sum(b.shape[2] for b in self.branches)


def mie_forward(C: Tensor, mask: np.ndarray, bank: ConvBank) -> InterestBank:
    """Run every horizontal branch over the time axis of C (B, J, L, K)
    and size each sample's window runs from its front-padded mask (B, L)."""
    if C.ndim != 4:
        raise ShapeError(f"channel stack must be (B, J, L, K), got {C.shape}")
    seq_len = np.count_nonzero(mask, axis=1)[:, None]
    widths = np.array([g.shape[0] for g in bank.horizontal], dtype=np.int64)
    counts = np.maximum(seq_len - widths + 1, 0)
    starts = np.where(counts > 0, C.shape[2] - seq_len, 0)
    branches = [ad.conv1d(C, g, axis=2) for g in bank.horizontal]
    return InterestBank(branches, counts, starts)


@dataclass
class FineBank:
    """Vertically refined maps per (branch, depth): (B, J-n+1, L-m+1, K).
    Time validity is inherited from the horizontal branch."""

    maps: dict[tuple[int, int], Tensor]  # keyed by (branch index, depth index), in key order


def mimfe_forward(bank: InterestBank, conv: ConvBank) -> FineBank:
    """Slide each branch's vertical kernels along the field axis."""
    return FineBank({(bi, di): ad.conv1d(branch, g, axis=1)
                     for bi, branch in enumerate(bank.branches)
                     for di, g in enumerate(conv.vertical[bi])})


# ---------------------------------------------------------------------------
# augmentation sampling (pure functions of the window runs + rng)


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


def sample_interest_plan(
    bank: InterestBank, n_pairs: int, max_offset: int, rng: np.random.Generator
) -> InterestPlan:
    """Per contributor and pair slot: pick a branch uniformly among those
    with >= 2 valid windows, an offset h uniform on [1, min(max_offset,
    windows-1)], and an anchor uniform among columns where both l and
    l+h are valid.  Samples with no such branch are excluded and counted.
    Widths grow with the branch index, so the feasible branches are a
    prefix and the pick is one draw below their count.

    Draw order: the branches of all (P, n) slots, then all offsets, then
    all anchors, each one `rng.integers` call with per-element bounds."""
    counts, starts = bank.counts, bank.starts
    n_feasible = (counts >= 2).sum(axis=1)
    rows = np.flatnonzero(n_feasible)
    branch = rng.integers(0, n_feasible[rows], size=(n_pairs, rows.size))
    v = counts[rows, branch]
    offset = rng.integers(1, np.minimum(max_offset, v - 1) + 1)
    anchor = starts[rows, branch] + rng.integers(0, v - offset)
    return InterestPlan(
        rows=rows, branch=branch, anchor=anchor, offset=offset,
        n_infeasible=counts.shape[0] - rows.size,
    )


@dataclass
class FeaturePlan:
    """Chosen (refined slice, anchor column, two distinct rows) per pair
    slot and contributor; slice_idx indexes FineBank.maps in key order."""

    rows: np.ndarray
    slice_idx: np.ndarray
    anchor: np.ndarray
    row_a: np.ndarray
    row_b: np.ndarray
    n_infeasible: int = 0

    @property
    def n_pairs(self) -> int:
        return self.slice_idx.shape[0]


def sample_feature_plan(
    bank: InterestBank, fine: FineBank, n_pairs: int, rng: np.random.Generator
) -> FeaturePlan:
    """Uniform over feasible (branch, depth) slices: the sample must
    keep >= 1 valid time column in that branch.  Both views share the
    slice and column; rows are drawn distinct, an ordered pair uniform
    over the slice's distinct rows, so every slice needs >= 2 rows (a
    model holds no vertical kernel wider than J - 1).  The slices are
    keyed by branch first, so the feasible ones are a prefix too.

    Draw order: the slices of all (P, n) slots, then all columns, then
    all first rows, then all second rows, each one `rng.integers` call
    with per-element bounds."""
    counts, starts = bank.counts, bank.starts
    slice_branch = np.array([bi for bi, _ in fine.maps], dtype=np.int64)
    slice_rows = np.array([m.shape[1] for m in fine.maps.values()], dtype=np.int64)
    n_feasible = (counts[:, slice_branch] >= 1).sum(axis=1)
    rows = np.flatnonzero(n_feasible)
    s = rng.integers(0, n_feasible[rows], size=(n_pairs, rows.size))
    branch, n_rows = slice_branch[s], slice_rows[s]
    anchor = starts[rows, branch] + rng.integers(0, counts[rows, branch])
    row_a = rng.integers(0, n_rows)
    row_b = rng.integers(0, n_rows - 1)
    row_b += row_b >= row_a
    return FeaturePlan(rows=rows, slice_idx=s, anchor=anchor, row_a=row_a, row_b=row_b,
                       n_infeasible=counts.shape[0] - rows.size)


# ---------------------------------------------------------------------------
# view gathering


def _row_table(maps: list[Tensor]) -> tuple[Tensor, np.ndarray]:
    """Every map's K-wide rows, map after map, in one (rows, K) table,
    and the table row where each map starts."""
    flats = [ad.reshape(m, (-1, m.shape[-1])) for m in maps]
    table = ad.concat(flats, axis=0)
    return table, np.cumsum([0] + [f.shape[0] for f in flats[:-1]])


def gather_interest_views(bank: InterestBank, plan: InterestPlan) -> Tensor:
    """Both (P*n, J*K) view sides in one (2*P*n, J*K) stack: first every
    slot's column l, then every slot's column l+h.  A column is its J
    field rows of a branch map side by side, so one gather of J rows per
    view from the table of all branches serves a mixed-branch plan."""
    table, offs = _row_table(bank.branches)
    _, nj, _, nk = bank.branches[0].shape
    nl = np.array([b.shape[2] for b in bank.branches])[plan.branch]
    col = np.stack([plan.anchor, plan.anchor + plan.offset])
    first = offs[plan.branch] + plan.rows * nj * nl + col  # row (b, 0, col) of the branch map
    idx = first[..., None] + np.arange(nj) * nl[..., None]
    return ad.reshape(ad.gather_rows(table, idx.reshape(-1)), (-1, nj * nk))


def gather_feature_views(fine: FineBank, plan: FeaturePlan) -> Tensor:
    """Both (P*n, K) view sides in one (2*P*n, K) stack: first every
    slot's row_a, then every slot's row_b, at the same slice and column.
    Every slice is flattened into the table, so the whole plan turns
    into table rows at once through slice_idx."""
    maps = list(fine.maps.values())
    table, offs = _row_table(maps)
    nj, nl = np.array([m.shape[1:3] for m in maps]).T
    s = plan.slice_idx
    rows = np.stack([plan.row_a, plan.row_b])
    idx = offs[s] + (plan.rows * nj[s] + rows) * nl[s] + plan.anchor
    return ad.gather_rows(table, idx.reshape(-1))


# ---------------------------------------------------------------------------
# encoders


@dataclass
class EncoderParams:
    """Weight-only MLP (no biases), ReLU between layers, none after the last."""

    weights: list[Tensor]

    def named(self) -> dict[str, Tensor]:
        """Each weight under its own name, layer by layer."""
        return {w.name: w for w in self.weights}


def init_encoder(d_in: int, sizes: tuple[int, ...], rng: np.random.Generator, name: str) -> EncoderParams:
    """Layer i's weight is named `ssl:<name>_w<i>`."""
    from .base_model import glorot

    weights = []
    fan = d_in
    for i, width in enumerate(sizes):
        weights.append(ad.parameter(glorot(rng, fan, width), name=f"ssl:{name}_w{i}"))
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


def infonce(z1: Tensor, z2: Tensor, tau: float, *, cosines: list[np.ndarray] | None = None) -> Tensor:
    """-mean_x log( exp(cos(z1_x, z2_x)/tau) / sum_x' exp(cos(z1_x, z2_x')/tau) ).

    z1 and z2 are (..., n, d): each leading index is one pair slot whose
    denominator runs over its own n rows, x itself included, and the
    mean runs over every slot and row.  The row-max shift is detached,
    which leaves gradients exact while keeping exp bounded for any
    tau > 0 (see `ad.logsumexp`).  The positive cosines are the row dot
    products of the normalized views; given a list, they are appended to
    it, (..., n).
    """
    if z1.shape != z2.shape or z1.ndim < 2 or z1.shape[-2] < 2:
        raise ShapeError(f"need two equal view matrices with >= 2 rows, got {z1.shape} and {z2.shape}")
    flip = (*range(z1.ndim - 2), z1.ndim - 1, z1.ndim - 2)
    n1, n2 = ad.normalize_rows(z1), ad.normalize_rows(z2)
    lse = ad.logsumexp(ad.matmul(n1, ad.transpose(n2, flip)), 1.0 / tau)
    cos = ad.tsum(ad.mul(n1, n2), axis=-1)
    if cosines is not None:
        cosines.append(cos.data)
    return ad.tmean(ad.sub(lse, ad.scale(cos, 1.0 / tau)))


# ---------------------------------------------------------------------------
# one-call orchestration for the trainer


def _contrast(views: Tensor, enc: EncoderParams, n_pairs: int, tau: float,
              cosines: list[np.ndarray]) -> Tensor:
    """Encode the (2*P*n, D) stack of both view sides in one pass and
    score all P slots in one InfoNCE on its (P, n, d) halves, each a view
    of the encoded stack."""
    z = encode(views, enc)
    sides = ad.reshape(z, (2, n_pairs, -1, z.shape[-1]))
    return infonce(ad.take(sides, 0), ad.take(sides, 1), tau, cosines=cosines)


@dataclass
class SslOut:
    """Both losses (None when too few samples form pairs) and the mean,
    min and max InfoNCE positive cosine over every scored pair."""

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
    the same state draws the same plans.  conv holds only the kernels
    a weighted loss can reach (trainer.build_model), so every refined
    map it builds has the >= 2 field rows a feature pair reads.  A loss
    is scored only when its encoder is held; the interest plan is drawn
    either way, so the plan stream does not depend on that encoder."""
    bank = mie_forward(C, mask, conv)
    fine = mimfe_forward(bank, conv)
    iplan = sample_interest_plan(bank, n_pairs_interest, max_offset, rng)
    fplan = sample_feature_plan(bank, fine, n_pairs_feature, rng)

    cosines: list[np.ndarray] = []
    loss_i = loss_f = None
    if iplan.rows.size >= 2 and enc_interest.weights:
        loss_i = _contrast(gather_interest_views(bank, iplan), enc_interest, iplan.n_pairs, tau, cosines)
    if fplan.rows.size >= 2:
        loss_f = _contrast(gather_feature_views(fine, fplan), enc_feature, fplan.n_pairs, tau, cosines)
    sims = np.concatenate([c.reshape(-1) for c in cosines]) if cosines else np.full(1, np.nan)
    return SslOut(loss_i, loss_f, float(sims.mean()), float(sims.min()), float(sims.max()),
                  n_infeasible_interest=iplan.n_infeasible, n_infeasible_feature=fplan.n_infeasible)
