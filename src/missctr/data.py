"""Behavior-log ingestion, filtering, leave-last-out splitting, split
snapshots, and the synthetic multi-interest corpus generator.

File format: tab-separated rows `user  item  attr_1 .. attr_{J-1}  ts`
with an int64 timestamp in the last column.  The number of attribute
columns is inferred from the first well-formed line.  In memory a log
is integer-coded columns, and splits are integer-encoded: id 0 is
padding, id 1 is reserved and never emitted (every token of the log
being split gets an id), and real tokens are numbered densely from 2 in
order of first appearance.  The three splits are rows over one event
table that holds each eligible user's history once (see `SampleSet`);
a split snapshot stores the table and the rows in the `serialize`
array container (see `save_splits`).
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, compress, count, repeat

import numpy as np

from .errors import ConfigError, DataError, DegenerateDatasetError, FormatError
from .serialize import load_arrays, save_arrays

log = logging.getLogger(__name__)

PAD_ID = 0
MIN_BEHAVIORS = 4  # leave-last-out needs 3 held-out events plus >=1 of history
BLOCK = 1 << 18  # characters of a TSV log parsed at a time (larger blocks were slower)


@dataclass
class InteractionLog:
    """Events as parallel columns, user after user, chronological within
    a user (ties keep input order).  Field j of event e is
    tokens[j][codes[j, e]]; a filter may leave tokens no event uses."""

    users: list[str]  # distinct users in stored order
    counts: np.ndarray  # (len(users),) int64, each user's events, all >= 1
    seq_fields: list[str]  # ["item", "attr_1", ...]
    tokens: list[list[str]]  # per seq field; ingest_log lists them by first appearance
    codes: np.ndarray  # (len(seq_fields), n_records) int64
    ts: np.ndarray  # (n_records,) int64
    n_skipped: int = 0

    @property
    def n_records(self) -> int:
        return self.ts.size


def _is_int64(token: str) -> bool:
    try:
        return -(1 << 63) <= int(token) < 1 << 63
    except ValueError:
        return False


def _well_formed(lines: list[str], width: int) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Which lines have `width` nonempty fields and an int64 timestamp,
    their fields as one flat list, and their timestamps.  Each check is
    one pass over the block; only a failed check revisits its lines."""
    ok = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) == width - 1
    joined = "\t".join(compress(lines, ok))
    # an empty field (an empty last field fails the timestamp check)
    if "\t\t" in joined or joined[:1] == "\t":
        ok[ok] = ["" not in line.split("\t") for line in compress(lines, ok)]
        joined = "\t".join(compress(lines, ok))
    fields = joined.split("\t") if joined else []
    stamps = fields[width - 1 :: width] if fields else []
    try:
        return ok, fields, np.fromiter(map(int, stamps), np.int64, len(stamps))
    except (ValueError, OverflowError):
        ok[ok] = keep = list(map(_is_int64, stamps))
        fields = list(compress(fields, np.repeat(keep, width)))
        return ok, fields, np.array(list(map(int, compress(stamps, keep))), dtype=np.int64)


def ingest_log(path: str) -> InteractionLog:
    """Parse a TSV behavior log a block of lines and a column at a time;
    each column's dict numbers a token on first sight.  Malformed lines
    (a column count other than the first well-formed line's, an empty
    field, a timestamp that is not an int64) are skipped and counted; if
    they exceed 1% of the nonblank lines a FormatError names the first.
    Rows are grouped by user in order of first appearance and sorted
    chronologically, ties keeping input order."""
    vocabs, parts = [], []  # token -> code per column (user, item, ...); (codes, ts) per block
    width = lineno = n_bad = 0
    first_bad, tail = None, ""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for chunk in chain(iter(partial(fh.read, BLOCK), ""), ["\n"]):  # "\n" ends the last line
                lines = (tail + chunk).split("\n")
                tail = lines.pop()
                if not width:  # the first line of 3+ columns and no empty field
                    width = next((line.count("\t") + 1 for line in lines
                                  if line.count("\t") >= 2 and "" not in line.split("\t")), 0)
                    vocabs = [defaultdict(count().__next__) for _ in range(width - 1)]
                ok, fields, ts = _well_formed(lines, width)
                bad = [lineno + 1 + i for i in np.flatnonzero(~ok).tolist() if lines[i]]  # not blank
                first_bad = first_bad or next(iter(bad), None)
                n_bad, lineno = n_bad + len(bad), lineno + len(lines)
                parts.append(([np.fromiter(map(v.__getitem__, fields[j::width]), np.int64, ts.size)
                               for j, v in enumerate(vocabs)], ts))
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a UTF-8 text file") from None
    ts = np.concatenate([t for _, t in parts])
    if not ts.size:
        raise DataError(f"no usable records in {path}")
    if n_bad:
        log.warning("skipped %d malformed lines in %s, first at line %d", n_bad, path, first_bad)
        if n_bad / (n_bad + ts.size) > 0.01:
            raise FormatError(
                f"{path}: {n_bad}/{n_bad + ts.size} malformed lines, first at line {first_bad}")
    codes = np.concatenate([c for c, _ in parts if c], axis=1)
    # by user, then time, then input order: two stable sorts (np.lexsort is slower)
    order = np.argsort(ts, kind="stable")
    order = order[np.argsort(codes[0, order], kind="stable")]
    return InteractionLog(
        users=list(vocabs[0]), counts=np.bincount(codes[0], minlength=len(vocabs[0])),
        seq_fields=["item"] + [f"attr_{i + 1}" for i in range(width - 3)],
        tokens=[list(v) for v in vocabs[1:]], codes=codes[1:, order], ts=ts[order], n_skipped=n_bad,
    )


def write_log_tsv(interactions: InteractionLog, path: str) -> None:
    columns = [np.repeat(np.array(interactions.users, dtype=object), interactions.counts)]
    columns += [np.array(t, dtype=object)[c] for t, c in zip(interactions.tokens, interactions.codes)]
    stamps = map(str, interactions.ts.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in map("\t".join, zip(*columns, stamps)))


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
    n_users, items = len(interactions.users), interactions.codes[0]
    user = np.repeat(np.arange(n_users), interactions.counts)
    kept, live, stats = np.ones(items.size, dtype=bool), np.ones(n_users, dtype=bool), FilterStats()
    while True:
        stats.rounds += 1
        n_before = int(kept.sum())
        kept &= np.bincount(items[kept], minlength=len(interactions.tokens[0]))[items] >= min_count
        dropped = live & (np.bincount(user[kept], minlength=n_users) < min_count)
        stats.users_dropped += int(dropped.sum())
        live &= ~dropped
        kept &= live[user]
        stats.records_dropped += n_before - int(kept.sum())
        if kept.sum() == n_before:
            break
    if not live.any():
        raise DegenerateDatasetError(f"filtering at min_count={min_count} removed every user")
    out = replace(interactions, users=list(compress(interactions.users, live)),
                  counts=np.bincount(user[kept], minlength=n_users)[live],
                  codes=interactions.codes[:, kept], ts=interactions.ts[kept])
    return out, stats


# ---------------------------------------------------------------------------
# splits


@dataclass
class SampleSet:
    """One split as rows over the event table its Splits share.  Row i
    predicts cand[i] from events end[i] - seq_len[i] .. end[i] - 1, held
    in table rows one higher (row 0 is padding).  Each positive is
    followed by its negative (same user, context, and history), except
    the positive of a user who touched every item, which has none."""

    cat: np.ndarray  # (n, I) int64
    seq_len: np.ndarray  # (n,) int64, at most max_len
    cand: np.ndarray  # (n, J) int64
    label: np.ndarray  # (n,) int64 in {0, 1}
    end: np.ndarray  # (n,) int64, seq_len <= end <= n_events
    events: np.ndarray  # (n_events + 1, J) int64, row 0 all PAD_ID
    max_len: int

    @property
    def n(self) -> int:
        return self.cat.shape[0]

    def take(self, idx: np.ndarray) -> "SampleSet":
        return replace(self, **{a: getattr(self, a)[idx] for a in SAMPLE_ARRAYS})

    def batch(self, idx) -> tuple[np.ndarray, ...]:
        """(cat, seq, mask, cand, label) of rows idx, where seq is their
        (B, J, max_len) history windows, front-padded with 0, and mask the
        (B, max_len) bool mask of real events that both towers read."""
        end = self.end[idx]
        pos = end[:, None] + np.arange(-self.max_len, 0)
        mask = pos >= (end - self.seq_len[idx])[:, None]
        seq = self.events.take(np.where(mask, pos + 1, PAD_ID), axis=0).transpose(0, 2, 1)
        return self.cat[idx], seq, mask, self.cand[idx], self.label[idx]

    @property
    def seq(self) -> np.ndarray:
        """(n, J, max_len) windows of every row, gathered on each read."""
        return self.batch(slice(None))[1]


@dataclass
class Splits:
    train: SampleSet
    valid: SampleSet
    test: SampleSet
    cat_fields: list[str]
    seq_fields: list[str]
    vocab_sizes: dict[str, int]
    n_short_users: int = 0

    @property
    def fields(self) -> list[str]:
        return self.cat_fields + self.seq_fields

    @property
    def max_len(self) -> int:
        return self.train.max_len


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
    attributes: one code-table row per item, gathered once into the
    event table that the three splits share.
    Draw k of a user picks its k-th unseen item in sorted item order.
    Vocabulary encoding and negative sampling run in helpers whose
    event-sized temporaries die on return, before the rows are built.
    """
    seq_fields = interactions.seq_fields
    eligible = interactions.counts >= MIN_BEHAVIORS
    n_events = interactions.counts[eligible]
    n_users = n_events.size
    if not n_users:
        raise DegenerateDatasetError("no user has enough behaviors to split")
    events, codes, by_id = _encode_events(interactions, eligible)
    ev = events[1:, 0]  # each event's item id: an item's code-table row starts with it
    names = [interactions.tokens[0][c] for c in by_id[0].tolist()]
    negative, has_negative = _sample_negatives(ev, n_events, names, seed)
    if not has_negative.all():
        log.warning("skipped %d negative rows: their users touched every item",
                    3 * (n_users - np.count_nonzero(has_negative)))

    # each positive row, then its negative row if the user has one
    keep = np.column_stack([np.ones(n_users, dtype=bool), has_negative]).ravel()
    row_user = np.repeat(np.arange(n_users), 2)[keep]
    is_pos = np.tile([True, False], n_users)[keep]
    row_stop = np.cumsum(n_events)[row_user]
    parts = []
    for split, back in enumerate((3, 2, 1)):
        target = row_stop - back  # the held-out event; the history ends before it
        cand = np.where(is_pos, ev[target], negative[row_user, split])
        parts.append(SampleSet(
            cat=(2 + row_user)[:, None], seq_len=np.minimum(n_events[row_user] - back, max_len),
            cand=codes[cand], label=is_pos.astype(np.int64), end=target, events=events,
            max_len=max_len))
    vocab_sizes = {"user": 2 + n_users} | {f: 2 + c.size for f, c in zip(seq_fields, by_id)}
    return Splits(*parts, cat_fields=["user"], seq_fields=list(seq_fields), vocab_sizes=vocab_sizes,
                  n_short_users=len(interactions.users) - n_users)


def _encode_events(interactions: InteractionLog, eligible: np.ndarray):
    """The eligible users' event table, code table and by_id[j], field
    j's codes in id order: vocab over their events (user after user), one
    field column at a time, first-appearance order, ids from 2."""
    ids = interactions.codes[:, np.repeat(eligible, interactions.counts)]
    by_id = []
    for column, tokens in zip(ids, interactions.tokens):
        first_at = np.full(len(tokens), column.size)
        np.minimum.at(first_at, column, np.arange(column.size))
        order = np.argsort(first_at)  # codes by first appearance, unused ones last
        by_id.append(order[: np.count_nonzero(first_at < column.size)])
        column[:] = 2 + np.argsort(order)[column]
    ev = ids[0]
    n_items = by_id[0].size
    if n_items < 2:
        raise DegenerateDatasetError("need at least 2 distinct items to sample negatives")
    # item ids count up in first-seen order, so an item's first event is
    # where the running maximum of ev grows
    codes = np.zeros((2 + n_items, ids.shape[0]), dtype=np.int64)  # row 0 encodes padding
    codes[2:] = ids[:, np.diff(np.maximum.accumulate(ev), prepend=1) > 0].T
    return codes[np.concatenate(([PAD_ID], ev))], codes, by_id  # row 1 + e encodes event e


def _sample_negatives(ev: np.ndarray, n_events: np.ndarray, names: list[str], seed: int):
    """Each user's negative per split over the items the user never
    touched, given ev, the events' item ids, and names, the item tokens in
    id order; and whether the user has any."""
    n_users, n_items = n_events.size, len(names)
    by_rank = 2 + np.array(sorted(range(n_items), key=names.__getitem__), dtype=np.int64)
    rank = np.empty(2 + n_items, dtype=np.int64)
    rank[by_rank] = np.arange(n_items)
    # each user's seen items as sorted ranks in sorted item order (sort and
    # drop repeats: np.unique hashes, which is far slower here)
    seen = np.sort(np.repeat(np.arange(n_users), n_events) * n_items + rank[ev])
    seen_user, below = np.divmod(seen[np.concatenate(([True], seen[1:] != seen[:-1]))], n_items)
    del seen
    n_seen = np.bincount(seen_user, minlength=n_users)
    first = np.cumsum(n_seen) - n_seen
    # below[i], the i-th seen rank, becomes the count of unseen ranks under
    # it, offset per user so that one searchsorted serves every user
    below -= np.arange(below.size)
    below += first[seen_user]
    below += seen_user * (n_items + 1)
    drawn = np.flatnonzero(n_seen < n_items)  # users with a negative; k per user, then per split
    k = np.random.default_rng(seed).integers(np.repeat(n_items - n_seen[drawn], 3)).reshape(-1, 3)
    k += np.searchsorted(below, drawn[:, None] * (n_items + 1) + k, side="right")
    k -= first[drawn, None]
    negative = np.zeros((n_users, 3), dtype=np.int64)
    negative[drawn] = by_rank[k]
    return negative, n_seen < n_items


def make_batches(
    n: int, batch_size: int, *, shuffle: bool, seed: int = 0, drop_partial: bool = False
) -> list[np.ndarray]:
    """Index batches over n samples.  Training shuffles with its own
    seeded stream and drops a short final batch; evaluation keeps order
    and the tail."""
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
    for name, value, least in (("n_users", n_users, 1), ("n_items", n_items, 1),
                               ("n_interests", n_interests, 1), ("seed", seed, 0)):
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    if n_items % n_interests != 0:
        raise ConfigError(
            f"n_items ({n_items}) must be divisible by n_interests ({n_interests})"
        )
    lo, hi = seq_len_range
    if lo < MIN_BEHAVIORS or hi < lo:
        raise ConfigError(f"bad seq_len_range {seq_len_range}; need {MIN_BEHAVIORS} <= lo <= hi")
    rng = np.random.default_rng(seed)
    per = n_items // n_interests
    items: list[int] = []
    counts = np.empty(n_users, dtype=np.int64)
    for u in range(n_users):
        k = min(int(rng.integers(1, 4)), n_interests)
        interests = sorted(rng.choice(n_interests, size=k, replace=False).tolist())
        counts[u] = target = int(rng.integers(lo, hi + 1))
        target += len(items)
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
    item = np.array(items, dtype=np.int64)
    uw, iw = len(str(n_users - 1)), len(str(n_items - 1))
    return InteractionLog(
        users=[f"u{u:0{uw}d}" for u in range(n_users)], counts=counts, seq_fields=["item", "attr_1"],
        tokens=[[f"i{i:0{iw}d}" for i in range(n_items)], [f"c{c}" for c in range(n_interests)]],
        codes=np.stack([item, item // per]),
        ts=np.arange(item.size) - np.repeat(np.cumsum(counts) - counts, counts),
    )


# ---------------------------------------------------------------------------
# training-set perturbations for robustness studies


def downsample_train(splits: Splits, rate: float, seed: int) -> Splits:
    """Keep a uniform fraction of training positive/negative pairs.
    rate is the kept fraction; 1.0 returns the input split untouched."""
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
    if rate == 0.0:
        return splits
    n = splits.train.n
    n_flip = int(round(rate * n))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=n_flip, replace=False)
    label = splits.train.label.copy()
    label[chosen] = 1 - label[chosen]
    return replace(splits, train=replace(splits.train, label=label))


# ---------------------------------------------------------------------------
# split snapshots (int64 records in the serialize container)

SPLIT_NAMES = ("train", "valid", "test")
SAMPLE_ARRAYS = ("cat", "seq_len", "cand", "label", "end")  # a split's per-row arrays


def save_splits(splits: Splits, path: str) -> None:
    """Serialize integer-encoded splits as int64 records: `max_len`, one
    vocab-size scalar per field (`cat:<field>`, then `seq:<field>`, in
    field order), the shared (n_events + 1, J) `events` table, then
    `<split>:<array>` for each split and row array.  Token maps are not
    stored; snapshots are self-sufficient for training and eval."""
    records = {"max_len": np.int64(splits.max_len)}
    for kind, fields in (("cat", splits.cat_fields), ("seq", splits.seq_fields)):
        records |= {f"{kind}:{f}": np.int64(splits.vocab_sizes[f]) for f in fields}
    records["events"] = splits.train.events  # the table the three splits share
    for name in SPLIT_NAMES:
        part = getattr(splits, name)
        records |= {f"{name}:{a}": getattr(part, a) for a in SAMPLE_ARRAYS}
    save_arrays(path, records)


def load_splits(path: str) -> Splits:
    """Read a snapshot written by save_splits.  Raises a one-line
    FormatError naming the path on the earlier per-row window layout, a
    missing, extra or non-int64 record, a shape that disagrees with the
    fields, max_len or a vocab size below 1, a split without samples, and
    any event or row (an empty history, an end past the table) a model cannot use."""
    arrays = load_arrays(path)
    if old := next((f"{n}:seq" for n in SPLIT_NAMES if f"{n}:seq" in arrays), None):
        raise FormatError(f"{path}: record {old!r} holds per-row windows, a layout this version "
                          "does not read; rerun `missctr ingest` to rebuild the snapshot")
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

    def fail(where: str, bad: np.ndarray, what: str) -> None:
        """FormatError at the first row of `bad` that holds a True."""
        if bad.any():
            row = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
            raise FormatError(f"{path}: {where} {row}: {what}")

    def check_ids(where: str, arr: np.ndarray, fields: list[str]) -> None:
        for j, field_name in enumerate(fields):
            size = vocab_sizes[field_name]
            fail(where, (arr[:, j] < 0) | (arr[:, j] >= size), f"{field_name} id outside [0, {size})")

    max_len = at_least_one("max_len")
    if not cat_fields or not seq_fields:
        raise FormatError(f"{path}: needs at least one cat: and one seq: field")
    vocab_sizes = {f: at_least_one(f"cat:{f}") for f in cat_fields}
    vocab_sizes |= {f: at_least_one(f"seq:{f}") for f in seq_fields}
    events = take("events", -1, len(seq_fields))
    fail("events row", events[:1] != PAD_ID, "nonzero id in the padding row")
    check_ids("events row", events, seq_fields)
    n_events = events.shape[0] - 1
    parts = []
    for name in SPLIT_NAMES:
        label = take(f"{name}:label", -1)
        n = label.shape[0]
        if n == 0:
            raise FormatError(f"{path}: {name} split has no samples")
        part = SampleSet(
            cat=take(f"{name}:cat", n, len(cat_fields)), seq_len=take(f"{name}:seq_len", n),
            cand=take(f"{name}:cand", n, len(seq_fields)), label=label,
            end=take(f"{name}:end", n), events=events, max_len=max_len,
        )
        where = f"{name} sample"
        check_ids(where, part.cat, cat_fields)
        check_ids(where, part.cand, seq_fields)
        fail(where, (label != 0) & (label != 1), "label not 0 or 1")
        fail(where, (part.seq_len < 1) | (part.seq_len > max_len), f"seq_len outside [1, {max_len}]")
        fail(where, (part.end < part.seq_len) | (part.end > n_events),
             f"end outside [seq_len, {n_events}]")
        parts.append(part)
    if arrays:
        raise FormatError(f"{path}: unexpected record {next(iter(arrays))!r}")
    return Splits(*parts, cat_fields=cat_fields, seq_fields=seq_fields, vocab_sizes=vocab_sizes)
