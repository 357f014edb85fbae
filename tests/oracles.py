"""Naive reference implementations shared by the extractor,
contrastive-loss, ranking-metric, gather, optimizer, ingest, split and
attention-pooling tests: scalar loops in the library's own tap order,
so the extractor oracles can be compared bitwise, the expressions the
in-place backwards of logsumexp and width-1 conv1d replace, conv1d as
a masked tap sum with both its gradients, the two-gather split of the
encoded view stack, the dense textbook
forms of the row-sparse gather gradient and of the Adam step (one
array, or a whole optimizer step over a parameter dict), the
line-by-line TSV reader, the per-row split builder, the attention
unit with its first layer applied to the concatenated [v; c; v*c; v-c]
input, and the view-pair samplers over per-branch window masks.  log_events and make_log convert between a columnar
InteractionLog and per-user event lists; pack_splits turns hand-built
per-row windows into Splits over one shared event table."""

import logging
from typing import NamedTuple

import numpy as np

from missctr import autodiff as ad
from missctr.data import MIN_BEHAVIORS, InteractionLog, SampleSet, Splits
from missctr.errors import ConfigError, DataError, DegenerateDatasetError, FormatError

log = logging.getLogger(__name__)
UNKNOWN_ID = 1


def naive_time_conv(C, g):
    """C (J, L, K), kernel (m,) -> (J, L-m+1, K); taps left to right, ReLU."""
    n_j, n_l, n_k = C.shape
    m = len(g)
    out = np.zeros((n_j, n_l - m + 1, n_k))
    for j in range(n_j):
        for l in range(n_l - m + 1):
            for k in range(n_k):
                s = C[j, l, k] * g[0]
                for i in range(1, m):
                    s = s + C[j, l + i, k] * g[i]
                out[j, l, k] = np.maximum(s, 0.0)
    return out


def naive_field_conv(G, g):
    """G (J, Lw, K), kernel (n,) -> (J-n+1, Lw, K); taps top to bottom, ReLU."""
    n_j, n_l, n_k = G.shape
    n = len(g)
    out = np.zeros((n_j - n + 1, n_l, n_k))
    for j in range(n_j - n + 1):
        for l in range(n_l):
            for k in range(n_k):
                s = G[j, l, k] * g[0]
                for i in range(1, n):
                    s = s + G[j + i, l, k] * g[i]
                out[j, l, k] = np.maximum(s, 0.0)
    return out


def front_mask(seq_lens, max_len: int) -> np.ndarray:
    """(B, max_len) float event mask, 1.0 on the last seq_len slots of
    each row: histories are front-padded."""
    mask = np.zeros((len(seq_lens), max_len))
    for i, s in enumerate(seq_lens):
        mask[i, max_len - s :] = 1.0
    return mask


def naive_window_validity(mask: np.ndarray, width: int) -> np.ndarray:
    """(B, L) event mask -> (B, L-width+1) all-real window mask."""
    if width > mask.shape[1]:
        return np.zeros((mask.shape[0], 0), dtype=bool)
    view = np.lib.stride_tricks.sliding_window_view(mask.astype(bool), width, axis=1)
    return view.all(axis=-1)


def naive_pick_feasible(feasible: np.ndarray, n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """(P, n) column indices, each uniform among the true entries of its
    row of `feasible` (n, S); every row must have one.  One integer draw
    k per element picks the (k+1)-th true entry: the number of columns
    whose running count of true entries is <= k."""
    cum = np.cumsum(feasible, axis=1)
    k = rng.integers(0, feasible.sum(axis=1), size=(n_pairs, feasible.shape[0]))
    return (cum <= k[..., None]).sum(axis=-1)


def _window_runs(valid: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch window masks -> (B, S) run lengths and first columns
    (0 for an empty run)."""
    counts = np.stack([v.sum(axis=1) for v in valid], axis=1)
    starts = np.stack([np.where(v.any(axis=1), v.argmax(axis=1), 0) for v in valid], axis=1)
    return counts, starts


def naive_interest_plan(valid, n_pairs, max_offset, rng):
    """sample_interest_plan read from the window masks `valid` (one per
    branch), with no assumption on which branches are feasible: (rows,
    branch, anchor, offset)."""
    counts, starts = _window_runs(valid)
    feasible = counts >= 2
    rows = np.flatnonzero(feasible.any(axis=1))
    branch = naive_pick_feasible(feasible[rows], n_pairs, rng)
    v = counts[rows, branch]
    offset = rng.integers(1, np.minimum(max_offset, v - 1) + 1)
    anchor = starts[rows, branch] + rng.integers(0, v - offset)
    return rows, branch, anchor, offset


def naive_feature_plan(valid, fine, n_pairs, rng):
    """sample_feature_plan read from the window masks `valid`, with no
    assumption on which slices are feasible: (rows, slice_idx, anchor,
    row_a, row_b)."""
    counts, starts = _window_runs(valid)
    slice_branch = np.array([bi for bi, _ in fine.usable], dtype=np.int64)
    slice_rows = np.array([fine.maps[k].shape[1] for k in fine.usable], dtype=np.int64)
    feas = counts[:, slice_branch] >= 1
    rows = np.flatnonzero(feas.any(axis=1))
    s = naive_pick_feasible(feas[rows], n_pairs, rng)
    branch, n_rows = slice_branch[s], slice_rows[s]
    anchor = starts[rows, branch] + rng.integers(0, counts[rows, branch])
    row_a = rng.integers(0, n_rows)
    row_b = rng.integers(0, n_rows - 1)
    row_b += row_b >= row_a
    return rows, s, anchor, row_a, row_b


def naive_cosine(a, b):
    """Cosine of two vectors with each norm floored at 1e-12."""
    na = max(np.sqrt(np.sum(a * a)), 1e-12)
    nb = max(np.sqrt(np.sum(b * b)), 1e-12)
    return float(np.sum(a * b) / (na * nb))


def naive_infonce(z1, z2, tau):
    """Explicit softmax cross-entropy over cosine logits, averaged over rows."""
    n = len(z1)
    total = 0.0
    for x in range(n):
        logits = np.array([naive_cosine(z1[x], z2[xp]) / tau for xp in range(n)])
        total += -np.log(np.exp(logits[x]) / np.exp(logits).sum())
    return total / n


def brute_force_auc(scores, labels):
    """All-pairs count: wins + half-ties over pos*neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def dense_scatter_add(n_rows, idx, g):
    """Gradient of table[idx] for upstream g, as a dense table: np.add.at
    of g's rows into zeros, in index order."""
    k = g.shape[-1]
    out = np.zeros((n_rows, k))
    np.add.at(out, np.asarray(idx).reshape(-1), g.reshape(-1, k))
    return out


def logsumexp_grad(x, c, g):
    """The gradient ad.logsumexp(x, c) passes on for upstream g, as the
    expression its backward builds in place: (e * (g / s)) * c over the
    shifted exponentials e and their row sums s."""
    e = x * c
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    s = e.sum(axis=-1)
    return (e * (g / s)[..., None]) * c


def relu_width_one_conv_grad(x, k0, g):
    """The input gradient of a width-1 ad.conv1d for upstream g, as the
    expression its backward builds in place: g masked where x * k0 > 0,
    times k0."""
    return (g * (x * k0 > 0.0)) * k0


def masked_tap_sum_conv(x, k, axis, g):
    """ad.conv1d and its backward for upstream g, one element at a time:
    returns (out, x grad, kernel grad).  Each sum adds its taps left to
    right and is then ReLU'd; g is masked where that sum is > 0.  An x
    gradient element adds the masked g times each tap that covers it, in
    tap order from +0.0, except at width 1, where it is the masked g
    times the tap.  Each kernel gradient is one einsum reduction over
    the masked g and its tap's slice of x, the sum order the op names."""
    xm, gm = np.moveaxis(x, axis, 0), np.moveaxis(g, axis, 0)
    w = len(k)
    n = xm.shape[0] - w + 1
    out, masked = np.zeros(gm.shape), np.zeros(gm.shape)
    for l in range(n):
        for pos in np.ndindex(*xm.shape[1:]):
            s = xm[(l,) + pos] * k[0]
            for i in range(1, w):
                s = s + xm[(l + i,) + pos] * k[i]
            out[(l,) + pos] = np.maximum(s, 0.0)
            masked[(l,) + pos] = gm[(l,) + pos] * (s > 0.0)
    if w == 1:
        gx = masked * k[0]
    else:
        gx = np.zeros(xm.shape)
        for p in range(xm.shape[0]):
            for pos in np.ndindex(*xm.shape[1:]):
                for i in range(w):
                    if 0 <= p - i < n:
                        gx[(p,) + pos] += masked[(p - i,) + pos] * k[i]
    # the reduction runs over the op's own layouts: masked g contiguous
    # in x's axis order, each tap a view of x
    masked = np.ascontiguousarray(np.moveaxis(masked, 0, axis))
    dims = "abcdefghijklmnopqrstuvwxyz"[: x.ndim]
    gk = []
    for i in range(w):
        tap = [slice(None)] * x.ndim
        tap[axis] = slice(i, i + n)
        gk.append(np.einsum(f"{dims},{dims}->", masked, x[tuple(tap)]))
    return np.moveaxis(out, 0, axis), np.moveaxis(gx, 0, axis), np.array(gk)


def two_gather_contrast(views, enc, n_pairs, tau, cosines):
    """interests._contrast with the encoded stack split into its (P, n, d)
    sides by two row gathers over the arange halves."""
    from missctr import interests

    z = interests.encode(views, enc)
    sides = np.arange(z.shape[0]).reshape(2, n_pairs, -1)
    return interests.infonce(ad.gather_rows(z, sides[0]), ad.gather_rows(z, sides[1]), tau,
                             cosines=cosines)


def textbook_adam(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One dense bias-corrected Adam step at step count t; returns the
    new (p, m, v)."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return p, m, v


def dense_adam_step(params, state, lr):
    """trainer.adam_step's stand-in: one textbook_adam step on every
    parameter with a gradient, read dense through p.grad, with
    whole-table moments in row order in state.m and state.v."""
    state.t += 1
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        p.data, state.m[name], state.v[name] = textbook_adam(p.data, m, v, g, state.t, lr)


class Event(NamedTuple):
    item: str
    attrs: tuple[str, ...]
    ts: int


def log_events(interactions: InteractionLog) -> dict[str, list[Event]]:
    """user -> the user's events in stored order."""
    columns = [[tokens[c] for c in codes]
               for tokens, codes in zip(interactions.tokens, interactions.codes.tolist())]
    events = [Event(item, tuple(attrs), ts)
              for item, *attrs, ts in zip(*columns, interactions.ts.tolist())]
    stops = np.cumsum(interactions.counts).tolist()
    return {u: events[stop - n : stop]
            for u, n, stop in zip(interactions.users, interactions.counts.tolist(), stops)}


def make_log(users: dict[str, list[tuple]], seq_fields: list[str], n_skipped: int = 0) -> InteractionLog:
    """The columnar log of user -> [(item, attrs, ts), ...], each list in
    stored order; tokens are coded in order of first appearance."""
    vocabs = [{} for _ in seq_fields]
    events = [(item, *attrs) for evs in users.values() for item, attrs, _ in evs]
    codes = [[v.setdefault(e[j], len(v)) for e in events] for j, v in enumerate(vocabs)]
    return InteractionLog(
        users=list(users), counts=np.array([len(e) for e in users.values()], dtype=np.int64),
        seq_fields=list(seq_fields), tokens=[list(v) for v in vocabs],
        codes=np.array(codes, dtype=np.int64),
        ts=np.array([t for evs in users.values() for *_, t in evs], dtype=np.int64),
        n_skipped=n_skipped,
    )


def naive_ingest_log(path: str) -> InteractionLog:
    """The TSV reader line by line.

    Malformed lines (wrong column count, empty field, a timestamp that
    is not an integer or does not fit int64) are skipped and counted; if
    they exceed 1% of the file a FormatError names the first offending
    line.  Rows are grouped by user and sorted chronologically, ties
    keeping input order.
    """
    rows = []
    n_cols = None
    n_bad = 0
    first_bad = None
    n_lines = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                n_lines += 1
                parts = line.split("\t")
                ok = len(parts) >= 3 and all(p != "" for p in parts)
                if ok and n_cols is None:
                    n_cols = len(parts)
                ok = ok and len(parts) == n_cols
                ts = None
                if ok:
                    try:
                        ts = int(parts[-1])
                    except ValueError:
                        ok = False
                    else:
                        ok = -(2**63) <= ts < 2**63
                if not ok:
                    n_bad += 1
                    if first_bad is None:
                        first_bad = lineno
                    continue
                rows.append((parts[0], parts[1], tuple(parts[2:-1]), ts))
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a UTF-8 text file") from None
    if n_lines == 0 or not rows:
        raise DataError(f"no usable records in {path}")
    if n_bad > 0:
        log.warning("skipped %d malformed lines in %s, first at line %d", n_bad, path, first_bad)
        if n_bad / n_lines > 0.01:
            raise FormatError(
                f"{path}: {n_bad}/{n_lines} malformed lines, first at line {first_bad}"
            )
    users = {}
    for user, item, attrs, ts in rows:
        users.setdefault(user, []).append((item, attrs, ts))
    for events in users.values():
        events.sort(key=lambda e: e[2])  # sort is stable: ties keep input order
    seq_fields = ["item"] + [f"attr_{i + 1}" for i in range(n_cols - 3)]
    return make_log(users, seq_fields, n_bad)


def _encode(vocab: dict[str, int], token: str) -> int:
    return vocab.get(token, UNKNOWN_ID)


def naive_build_splits(interactions: InteractionLog, max_len: int, seed: int) -> Splits:
    """The leave-last-out splits row by row: every history re-encoded
    token by token, and a fresh pool of unseen items per user.

    Leave-last-out protocol over each user's chronological behaviors.

    With behaviors b_1..b_n: train predicts b_{n-2} from b_1..b_{n-3},
    validation predicts b_{n-1} from one more step of history, test
    predicts b_n from everything before it.  Users with fewer than 4
    behaviors are excluded (counted in n_short_users).  Every positive
    gets one uniformly sampled negative over the items the user never
    interacted with, sharing user and history; a user who touched every
    item gets no negatives (logged).  Histories keep the most
    recent max_len events and are front-padded with id 0.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    seq_fields = interactions.seq_fields
    n_seq = len(seq_fields)

    users = log_events(interactions)
    eligible = {u: recs for u, recs in users.items() if len(recs) >= MIN_BEHAVIORS}
    n_short = len(users) - len(eligible)
    if not eligible:
        raise DegenerateDatasetError("no user has enough behaviors to split")

    # vocab over the filtered log, first-appearance order, ids from 2
    user_vocab: dict[str, int] = {}
    seq_vocab: list[dict[str, int]] = [{} for _ in range(n_seq)]
    item_attrs: dict[str, tuple[str, ...]] = {}
    for u, recs in eligible.items():
        if u not in user_vocab:
            user_vocab[u] = 2 + len(user_vocab)
        for r in recs:
            toks = (r.item, *r.attrs)
            for j in range(n_seq):
                if toks[j] not in seq_vocab[j]:
                    seq_vocab[j][toks[j]] = 2 + len(seq_vocab[j])
            if r.item not in item_attrs:
                item_attrs[r.item] = r.attrs

    all_items = sorted(item_attrs)
    if len(all_items) < 2:
        raise DegenerateDatasetError("need at least 2 distinct items to sample negatives")
    rng = np.random.default_rng(seed)

    def encode_event(item: str) -> list[int]:
        toks = (item, *item_attrs[item])
        return [_encode(seq_vocab[j], toks[j]) for j in range(n_seq)]

    def pack(history: list[Event], target_item: str, user: str, label: int, out: dict) -> None:
        s = min(len(history), max_len)
        row = np.zeros((n_seq, max_len), dtype=np.int64)
        for pos, r in enumerate(history[-s:]):
            row[:, max_len - s + pos] = encode_event(r.item)
        out["cat"].append([user_vocab[user]])
        out["seq"].append(row)
        out["seq_len"].append(s)
        out["cand"].append(encode_event(target_item))
        out["label"].append(label)

    buffers = {name: {"cat": [], "seq": [], "seq_len": [], "cand": [], "label": []}
               for name in ("train", "valid", "test")}
    n_no_negative = 0
    for u, recs in eligible.items():
        n = len(recs)
        seen = {r.item for r in recs}
        pool = [it for it in all_items if it not in seen]
        cases = {
            "train": (recs[: n - 3], recs[n - 3].item),
            "valid": (recs[: n - 2], recs[n - 2].item),
            "test": (recs[: n - 1], recs[n - 1].item),
        }
        for name, (hist, target) in cases.items():
            pack(hist, target, u, 1, buffers[name])
            if pool:
                pack(hist, pool[int(rng.integers(len(pool)))], u, 0, buffers[name])
            else:
                n_no_negative += 1
    if n_no_negative:
        log.warning("skipped %d negative rows: their users touched every item", n_no_negative)

    vocab_sizes = {"user": 2 + len(user_vocab)}
    for j, name in enumerate(seq_fields):
        vocab_sizes[name] = 2 + len(seq_vocab[j])
    return pack_splits(
        buffers.values(), cat_fields=["user"], seq_fields=list(seq_fields),
        vocab_sizes=vocab_sizes, max_len=max_len, n_short_users=n_short,
    )


def pack_splits(parts, *, cat_fields, seq_fields, vocab_sizes, max_len, n_short_users=0) -> Splits:
    """Splits from three hand-built parts (train, valid, test), each a
    mapping of per-row `cat`, `seq` (front-padded (J, max_len) windows),
    `seq_len`, `cand` and `label`.  Every row's history, the last
    seq_len slots of its window, is appended to one event table that the
    three parts share, after the padding row 0."""
    chunks, n_events, samples = [np.zeros((1, len(seq_fields)), dtype=np.int64)], 0, []
    for part in parts:
        end = []
        for window, s in zip(part["seq"], part["seq_len"]):
            chunks.append(np.asarray(window)[:, max_len - s:].T)
            n_events += s
            end.append(n_events)
        samples.append(dict(
            cat=np.asarray(part["cat"], dtype=np.int64),
            seq_len=np.asarray(part["seq_len"], dtype=np.int64),
            cand=np.asarray(part["cand"], dtype=np.int64),
            label=np.asarray(part["label"], dtype=np.int64),
            end=np.asarray(end, dtype=np.int64),
        ))
    events = np.concatenate(chunks).astype(np.int64)
    return Splits(*(SampleSet(**a, events=events, max_len=max_len) for a in samples),
                  cat_fields=cat_fields, seq_fields=seq_fields, vocab_sizes=vocab_sizes,
                  n_short_users=n_short_users)


def random_windows(n, n_items, rng, J=2, L=6) -> dict:
    """One hand-built part: alternating labels, random user ids and
    candidates, histories of 3..L random items per row."""
    seq = np.zeros((n, J, L), dtype=np.int64)
    seq_len = rng.integers(3, L + 1, size=n)
    for i, s in enumerate(seq_len):
        seq[i, :, L - s:] = rng.integers(2, n_items, size=(J, s))
    labels = np.zeros(n, dtype=np.int64)
    labels[0::2] = 1
    return dict(cat=rng.integers(2, 10, size=(n, 1)), seq=seq, seq_len=seq_len,
                cand=rng.integers(2, n_items, size=(n, J)), label=labels)


def concat_laup_pool(v, mask, cand, params):
    """Attention pooling with the unit's first layer applied to the
    concatenated (B, L, 4D) input [v; c; v*c; v-c], taped with the
    library's ops; the pooled vector is a mul and a sum over steps."""
    nb, nl, dim = v.shape
    cand_l = ad.reshape(cand, (nb, 1, dim))
    cand_full = ad.add(cand_l, ad.constant(np.zeros((nb, nl, 1))))
    z = ad.concat([v, cand_full, ad.mul(v, cand_l), ad.sub(v, cand_l)], axis=2)
    z2 = ad.reshape(z, (nb * nl, 4 * dim))
    h = ad.relu(ad.add(ad.matmul(z2, params.lau_w1), params.lau_b1))
    scores = ad.add(ad.matmul(h, params.lau_w2), params.lau_b2)
    weights = ad.mul(ad.reshape(scores, (nb, nl)), ad.constant(mask))
    return ad.tsum(ad.mul(v, ad.reshape(weights, (nb, nl, 1))), axis=1)
