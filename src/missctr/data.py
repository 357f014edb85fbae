"""Behavior-log ingestion, filtering, leave-last-out splitting, split
snapshots, and the synthetic multi-interest corpus generator.

File format: tab-separated rows `user  item  attr_1 .. attr_{J-1}  ts`
with an integer timestamp in the last column.  The number of attribute
columns is inferred from the first well-formed line.  Everything
downstream is integer-encoded: id 0 is padding, id 1 is reserved and
never emitted (every token of the log being split gets an id), and
real tokens are numbered densely from 2 in order of first appearance.
A split snapshot stores those integer splits in the `serialize` array
container (see `save_splits`).
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

    An event is encoded as its item and the item's first-seen
    attributes: one code-table row per item, gathered into every split.
    Draw k of a user picks its k-th unseen item in sorted item order.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    seq_fields = interactions.seq_fields
    eligible = [recs for recs in interactions.users.values() if len(recs) >= MIN_BEHAVIORS]
    n_users = len(eligible)
    if not eligible:
        raise DegenerateDatasetError("no user has enough behaviors to split")

    # vocab over the filtered log, one field column at a time,
    # first-appearance order, ids from 2; user k of the log gets id 2 + k
    records = [r for recs in eligible for r in recs]  # user after user
    columns = [[r.item for r in records]]
    columns += [[r.attrs[j] for r in records] for j in range(len(seq_fields) - 1)]
    seq_vocab = [{t: 2 + i for i, t in enumerate(dict.fromkeys(column))} for column in columns]
    ids = np.array([list(map(v.__getitem__, c)) for v, c in zip(seq_vocab, columns)], dtype=np.int64)
    ev = ids[0]
    n_items = len(seq_vocab[0])
    if n_items < 2:
        raise DegenerateDatasetError("need at least 2 distinct items to sample negatives")
    # item ids count up in first-seen order, so an item's first event is
    # where the running maximum of ev grows
    codes = np.zeros((2 + n_items, len(seq_fields)), dtype=np.int64)  # row 0 encodes padding
    codes[2:] = ids[:, np.diff(np.maximum.accumulate(ev), prepend=1) > 0].T
    n_events = np.array([len(recs) for recs in eligible], dtype=np.int64)

    # each user's seen items as sorted ranks in sorted item order (sort and
    # drop repeats: np.unique hashes, which is far slower here); below[i]
    # counts the unseen ranks under seen rank i, offset per user so that
    # one searchsorted serves every user
    by_rank = np.array([seq_vocab[0][it] for it in sorted(seq_vocab[0])], dtype=np.int64)
    rank = np.empty(2 + n_items, dtype=np.int64)
    rank[by_rank] = np.arange(n_items)
    seen = np.sort(np.repeat(np.arange(n_users), n_events) * n_items + rank[ev])
    seen_user, seen_rank = np.divmod(seen[np.diff(seen, prepend=-1) > 0], n_items)
    n_seen = np.bincount(seen_user, minlength=n_users)
    first = np.cumsum(n_seen) - n_seen
    below = seen_rank - np.arange(seen_rank.size) + first[seen_user] + seen_user * (n_items + 1)
    drawn = np.flatnonzero(n_seen < n_items)  # users with a negative; k per user, then per split
    k = np.random.default_rng(seed).integers(np.repeat(n_items - n_seen[drawn], 3)).reshape(-1, 3)
    k += np.searchsorted(below, drawn[:, None] * (n_items + 1) + k, side="right")
    k -= first[drawn, None]
    negative = np.zeros((n_users, 3), dtype=np.int64)
    negative[drawn] = by_rank[k]
    if drawn.size < n_users:
        log.warning("skipped %d negative rows: their users touched every item",
                    3 * (n_users - drawn.size))

    # each positive row, then its negative row if the user has one
    keep = np.column_stack([np.ones(n_users, dtype=bool), n_seen < n_items]).ravel()
    row_user = np.repeat(np.arange(n_users), 2)[keep]
    is_pos = np.tile([True, False], n_users)[keep]
    row_stop = np.cumsum(n_events)[row_user]
    parts = []
    for split, back in enumerate((3, 2, 1)):
        target = row_stop - back  # the held-out event; the history ends before it
        seq_len = np.minimum(n_events[row_user] - back, max_len)
        pos = target[:, None] + np.arange(-max_len, 0)
        hist = np.where(pos >= (target - seq_len)[:, None], ev[np.maximum(pos, 0)], PAD_ID)
        cand = np.where(is_pos, ev[target], negative[row_user, split])
        parts.append(SampleSet(
            cat=(2 + row_user)[:, None], seq=np.ascontiguousarray(codes[hist].transpose(0, 2, 1)),
            seq_len=seq_len, cand=codes[cand], label=is_pos.astype(np.int64)))
    vocab_sizes = {"user": 2 + n_users} | {f: 2 + len(v) for f, v in zip(seq_fields, seq_vocab)}
    return Splits(*parts, cat_fields=["user"], seq_fields=list(seq_fields), vocab_sizes=vocab_sizes,
                  max_len=max_len, n_short_users=len(interactions.users) - n_users)


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
