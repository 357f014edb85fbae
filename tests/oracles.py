"""Naive reference implementations shared by the extractor,
contrastive-loss, ranking-metric, gather, optimizer and split tests:
scalar loops in the library's own tap order, so the extractor oracles
can be compared bitwise, the dense textbook forms of the row-sparse
gather gradient and of the Adam step, and the per-row split builder."""

import logging

import numpy as np

from missctr.data import MIN_BEHAVIORS, InteractionLog, Record, SampleSet, Splits
from missctr.errors import ConfigError, DegenerateDatasetError

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


def textbook_adam(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One dense bias-corrected Adam step at step count t; returns the
    new (p, m, v)."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    p = p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return p, m, v


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

    eligible = {u: recs for u, recs in interactions.users.items() if len(recs) >= MIN_BEHAVIORS}
    n_short = len(interactions.users) - len(eligible)
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

    def pack(history: list[Record], target_item: str, user: str, label: int, out: dict) -> None:
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

    def finish(buf) -> SampleSet:
        return SampleSet(
            cat=np.asarray(buf["cat"], dtype=np.int64),
            seq=np.stack(buf["seq"]).astype(np.int64),
            seq_len=np.asarray(buf["seq_len"], dtype=np.int64),
            cand=np.asarray(buf["cand"], dtype=np.int64),
            label=np.asarray(buf["label"], dtype=np.int64),
        )

    vocab_sizes = {"user": 2 + len(user_vocab)}
    for j, name in enumerate(seq_fields):
        vocab_sizes[name] = 2 + len(seq_vocab[j])
    return Splits(
        train=finish(buffers["train"]),
        valid=finish(buffers["valid"]),
        test=finish(buffers["test"]),
        cat_fields=["user"],
        seq_fields=list(seq_fields),
        vocab_sizes=vocab_sizes,
        max_len=max_len,
        n_short_users=n_short,
    )
