"""Behavior-log ingestion, filtering, leave-last-out splitting, split
snapshots, and the synthetic multi-interest corpus generator.

File format: tab-separated rows `user  item  attr_1 .. attr_{J-1}  ts`
with an integer timestamp in the last column.  The number of attribute
columns is inferred from the first well-formed line.  Everything
downstream is integer-encoded: id 0 is reserved for padding, id 1 for
unknown tokens, real tokens are numbered densely from 2 in order of
first appearance.  A split snapshot stores those integer splits in the
`serialize` array container (see `save_splits`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError, DegenerateDatasetError, FormatError
from .serialize import load_arrays, save_arrays

log = logging.getLogger(__name__)

PAD_ID = 0
UNKNOWN_ID = 1
MIN_BEHAVIORS = 4  # leave-last-out needs 3 held-out events plus >=1 of history


@dataclass(frozen=True)
class Record:
    user: str
    item: str
    attrs: tuple[str, ...]
    ts: int


@dataclass
class InteractionLog:
    """Per-user chronological behavior lists (stable order on timestamp ties)."""

    users: dict[str, list[Record]]
    seq_fields: list[str]  # ["item", "attr_1", ...]
    n_skipped: int = 0

    @property
    def n_records(self) -> int:
        return sum(len(v) for v in self.users.values())


def ingest_log(path: str) -> InteractionLog:
    """Parse a TSV behavior log.

    Malformed lines (wrong column count, empty field, non-integer
    timestamp) are skipped and counted; if they exceed 1% of the file a
    FormatError names the first offending line.  Rows are grouped by
    user and sorted chronologically, ties keeping input order.
    """
    rows: list[tuple[str, str, tuple[str, ...], int, int]] = []
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
                if not ok:
                    n_bad += 1
                    if first_bad is None:
                        first_bad = lineno
                    continue
                rows.append((parts[0], parts[1], tuple(parts[2:-1]), ts, lineno))
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a UTF-8 text file") from None
    if n_lines == 0 or not rows:
        raise DataError(f"no usable records in {path}")
    if n_bad > 0:
        log.warning("skipped %d malformed lines in %s", n_bad, path)
        if n_bad / n_lines > 0.01:
            raise FormatError(
                f"{path}: {n_bad}/{n_lines} malformed lines, first at line {first_bad}"
            )
    users: dict[str, list[Record]] = {}
    for user, item, attrs, ts, _ in rows:
        users.setdefault(user, []).append(Record(user, item, attrs, ts))
    for recs in users.values():
        recs.sort(key=lambda r: r.ts)  # sort is stable: ties keep input order
    n_attrs = n_cols - 3
    seq_fields = ["item"] + [f"attr_{i + 1}" for i in range(n_attrs)]
    return InteractionLog(users=users, seq_fields=seq_fields, n_skipped=n_bad)


def write_log_tsv(interactions: InteractionLog, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user in interactions.users:
            for r in interactions.users[user]:
                fh.write("\t".join([r.user, r.item, *r.attrs, str(r.ts)]) + "\n")


@dataclass
class FilterStats:
    rounds: int = 0
    users_dropped: int = 0
    records_dropped: int = 0


def filter_infrequent(
    interactions: InteractionLog, min_count: int
) -> tuple[InteractionLog, FilterStats]:
    """Drop users and items with fewer than min_count events, repeating
    until a fixpoint: removing an item can push a user below threshold
    and vice versa."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    users = {u: list(v) for u, v in interactions.users.items()}
    stats = FilterStats()
    if min_count == 1:
        return InteractionLog(users, list(interactions.seq_fields), interactions.n_skipped), stats
    while True:
        item_counts: dict[str, int] = {}
        for recs in users.values():
            for r in recs:
                item_counts[r.item] = item_counts.get(r.item, 0) + 1
        changed = False
        next_users: dict[str, list[Record]] = {}
        for u, recs in users.items():
            kept = [r for r in recs if item_counts[r.item] >= min_count]
            stats.records_dropped += len(recs) - len(kept)
            if len(kept) < len(recs):
                changed = True
            if len(kept) >= min_count:
                next_users[u] = kept
            else:
                stats.users_dropped += 1
                stats.records_dropped += len(kept)
                changed = True
        users = next_users
        stats.rounds += 1
        if not changed:
            break
    if not users:
        raise DegenerateDatasetError(
            f"filtering at min_count={min_count} removed every user"
        )
    return InteractionLog(users, list(interactions.seq_fields), interactions.n_skipped), stats


# ---------------------------------------------------------------------------
# splits


@dataclass
class SampleSet:
    """One split as parallel arrays.  Each positive is followed by its
    negative (same user, context, and history), except the positive of a
    user who touched every item, which has none."""

    cat: np.ndarray  # (n, I) int64
    seq: np.ndarray  # (n, J, L) int64, front-padded with 0
    seq_len: np.ndarray  # (n,) int64
    cand: np.ndarray  # (n, J) int64
    label: np.ndarray  # (n,) int64 in {0, 1}

    @property
    def n(self) -> int:
        return self.cat.shape[0]

    def take(self, idx: np.ndarray) -> "SampleSet":
        return SampleSet(
            cat=self.cat[idx],
            seq=self.seq[idx],
            seq_len=self.seq_len[idx],
            cand=self.cand[idx],
            label=self.label[idx],
        )


@dataclass
class Splits:
    train: SampleSet
    valid: SampleSet
    test: SampleSet
    cat_fields: list[str]
    seq_fields: list[str]
    vocab_sizes: dict[str, int]
    max_len: int
    n_short_users: int = 0

    @property
    def fields(self) -> list[str]:
        return self.cat_fields + self.seq_fields


def _encode(vocab: dict[str, int], token: str) -> int:
    return vocab.get(token, UNKNOWN_ID)


def build_splits(interactions: InteractionLog, max_len: int, seed: int) -> Splits:
    """Leave-last-out protocol over each user's chronological behaviors.

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


def make_batches(
    n: int, batch_size: int, *, shuffle: bool, seed: int = 0, drop_partial: bool = False
) -> list[np.ndarray]:
    """Index batches over n samples.  Training shuffles with its own
    seeded stream and drops a short final batch; evaluation keeps order
    and the tail."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    order = np.arange(n)
    if shuffle:
        order = np.random.default_rng(seed).permutation(n)
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    if drop_partial and batches and len(batches[-1]) < batch_size:
        batches.pop()
    return batches


# ---------------------------------------------------------------------------
# synthetic corpus


def synth_generate(
    n_users: int,
    n_items: int,
    n_interests: int,
    seq_len_range: tuple[int, int],
    seed: int,
) -> InteractionLog:
    """Clustered-preference corpus: items are partitioned into
    n_interests equal clusters (cluster id is the single attribute);
    each user samples 1-3 interests and emits runs of 2-4 consecutive
    same-interest items, occasionally interleaving another of their
    interests mid-run.  Held-out positives therefore always come from a
    user's own interest set."""
    if n_items % n_interests != 0:
        raise ConfigError(
            f"n_items ({n_items}) must be divisible by n_interests ({n_interests})"
        )
    lo, hi = seq_len_range
    if lo < MIN_BEHAVIORS or hi < lo:
        raise ConfigError(f"bad seq_len_range {seq_len_range}; need {MIN_BEHAVIORS} <= lo <= hi")
    rng = np.random.default_rng(seed)
    per = n_items // n_interests
    width = len(str(n_items - 1))
    item_name = lambda i: f"i{i:0{width}d}"

    users: dict[str, list[Record]] = {}
    uw = len(str(n_users - 1))
    for u in range(n_users):
        k = min(int(rng.integers(1, 4)), n_interests)
        interests = sorted(rng.choice(n_interests, size=k, replace=False).tolist())
        target = int(rng.integers(lo, hi + 1))
        items: list[int] = []
        while len(items) < target:
            c = interests[int(rng.integers(k))]
            run = int(rng.integers(2, 5))
            for _ in range(run):
                if len(items) >= target:
                    break
                cluster = c
                if k > 1 and rng.random() < 0.15:
                    others = [x for x in interests if x != c]
                    cluster = others[int(rng.integers(len(others)))]
                items.append(cluster * per + int(rng.integers(per)))
        name = f"u{u:0{uw}d}"
        users[name] = [
            Record(name, item_name(it), (f"c{it // per}",), t) for t, it in enumerate(items)
        ]
    return InteractionLog(users=users, seq_fields=["item", "attr_1"])


# ---------------------------------------------------------------------------
# training-set perturbations for robustness studies


def downsample_train(splits: Splits, rate: float, seed: int) -> Splits:
    """Keep a uniform fraction of training positive/negative pairs.
    rate is the kept fraction; 1.0 returns the input split untouched."""
    if not 0.0 < rate <= 1.0:
        raise ConfigError(f"downsample rate must be in (0, 1], got {rate}")
    if rate == 1.0:
        return splits
    pair = np.cumsum(splits.train.label == 1) - 1  # a positive and the negative after it
    n_pairs = int(pair[-1]) + 1 if pair.size else 0
    n_keep = int(round(rate * n_pairs))
    if n_keep < 1:
        raise DegenerateDatasetError(f"downsampling at rate {rate} keeps no training pairs")
    rng = np.random.default_rng(seed)
    kept = rng.choice(n_pairs, size=n_keep, replace=False)
    return replace(splits, train=splits.train.take(np.flatnonzero(np.isin(pair, kept))))


def flip_labels(splits: Splits, rate: float, seed: int) -> Splits:
    """Flip the labels of a uniform fraction of training examples.
    rate 0.0 returns the input split untouched."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"flip rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return splits
    n = splits.train.n
    n_flip = int(round(rate * n))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=n_flip, replace=False)
    label = splits.train.label.copy()
    label[chosen] = 1 - label[chosen]
    train = replace(splits.train, label=label)
    return replace(splits, train=train)


# ---------------------------------------------------------------------------
# split snapshots (int64 records in the serialize container)

SPLIT_NAMES = ("train", "valid", "test")
SAMPLE_ARRAYS = ("cat", "seq", "seq_len", "cand", "label")


def save_splits(splits: Splits, path: str) -> None:
    """Serialize integer-encoded splits as int64 records: `max_len`, one
    vocab-size scalar per field (`cat:<field>`, then `seq:<field>`, in
    field order), then `<split>:<array>` for each split and sample
    array.  Token maps are not stored; snapshots are self-sufficient for
    training and eval."""
    records = {"max_len": np.int64(splits.max_len)}
    for kind, fields in (("cat", splits.cat_fields), ("seq", splits.seq_fields)):
        records |= {f"{kind}:{f}": np.int64(splits.vocab_sizes[f]) for f in fields}
    for name in SPLIT_NAMES:
        part = getattr(splits, name)
        records |= {f"{name}:{a}": getattr(part, a) for a in SAMPLE_ARRAYS}
    save_arrays(path, records)


def _check_sample_set(
    path: str, name: str, part: SampleSet,
    cat_fields: list[str], seq_fields: list[str], vocab_sizes: dict[str, int], max_len: int,
) -> None:
    """Raise FormatError at the first row of a loaded split whose ids,
    label, length or padding a model could not consume."""

    def fail(bad: np.ndarray, what: str) -> None:
        if bad.any():
            row = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
            raise FormatError(f"{path}: {name} sample {row}: {what}")

    for arr, fields in ((part.cat, cat_fields), (part.cand, seq_fields), (part.seq, seq_fields)):
        for j, field_name in enumerate(fields):
            ids, size = arr[:, j], vocab_sizes[field_name]
            fail((ids < 0) | (ids >= size), f"{field_name} id outside [0, {size})")
    fail((part.label != 0) & (part.label != 1), "label not 0 or 1")
    fail((part.seq_len < 0) | (part.seq_len > max_len), f"seq_len outside [0, {max_len}]")
    padding = np.arange(max_len) < (max_len - part.seq_len)[:, None]
    fail((part.seq != 0) & padding[:, None, :], "nonzero id in a padding slot")


def load_splits(path: str) -> Splits:
    """Read a snapshot written by save_splits.  Raises a one-line
    FormatError naming the path on a missing, extra or non-int64 record,
    an array whose shape disagrees with the fields and max_len, max_len
    or a vocab size below 1, a split without samples (so max_len is
    bounded by the file), and any sample a model could not consume."""
    arrays = load_arrays(path)
    cat_fields = [k[4:] for k in arrays if k.startswith("cat:")]
    seq_fields = [k[4:] for k in arrays if k.startswith("seq:")]

    def take(name: str, *shape: int) -> np.ndarray:
        """The int64 record `name`; -1 in `shape` matches any length."""
        a = arrays.pop(name, None)
        if a is None:
            raise FormatError(f"{path}: missing record {name!r}")
        if a.dtype != np.int64:
            raise FormatError(f"{path}: record {name!r} is {a.dtype}, not int64")
        if a.ndim != len(shape) or any(w not in (-1, n) for w, n in zip(shape, a.shape)):
            raise FormatError(f"{path}: record {name!r} has shape {a.shape}, expected {shape}")
        return a

    def at_least_one(name: str) -> int:
        value = int(take(name))
        if value < 1:
            raise FormatError(f"{path}: {name} is {value}, must be >= 1")
        return value

    max_len = at_least_one("max_len")
    if not cat_fields or not seq_fields:
        raise FormatError(f"{path}: needs at least one cat: and one seq: field")
    vocab_sizes = {f: at_least_one(f"cat:{f}") for f in cat_fields}
    vocab_sizes |= {f: at_least_one(f"seq:{f}") for f in seq_fields}
    parts = []
    for name in SPLIT_NAMES:
        label = take(f"{name}:label", -1)
        n = label.shape[0]
        if n == 0:
            raise FormatError(f"{path}: {name} split has no samples")
        part = SampleSet(
            cat=take(f"{name}:cat", n, len(cat_fields)),
            seq=take(f"{name}:seq", n, len(seq_fields), max_len),
            seq_len=take(f"{name}:seq_len", n),
            cand=take(f"{name}:cand", n, len(seq_fields)),
            label=label,
        )
        _check_sample_set(path, name, part, cat_fields, seq_fields, vocab_sizes, max_len)
        parts.append(part)
    if arrays:
        raise FormatError(f"{path}: unexpected record {next(iter(arrays))!r}")
    return Splits(*parts, cat_fields=cat_fields, seq_fields=seq_fields,
                  vocab_sizes=vocab_sizes, max_len=max_len)
