"""Ingestion, filtering, splitting, batching, synthetic generation, and
the robustness-study perturbations."""

import logging
import re
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import front_mask, log_events, make_log, naive_build_splits, naive_ingest_log

from missctr import data as D
from missctr.errors import ConfigError, DataError, DegenerateDatasetError, FormatError, MissError
from missctr.serialize import load_arrays, save_arrays


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def toy_log(users):
    """users: dict name -> list of (item, attr) in chronological order."""
    recs = {
        u: [(it, (at,), t) for t, (it, at) in enumerate(events)]
        for u, events in users.items()
    }
    return make_log(recs, ["item", "attr_1"])


def first_appearance_ids(interactions, token):
    """The ids build_splits gives token(user, record): numbered from 2 in
    order of first appearance over the users it keeps."""
    ids = {}
    for u, recs in log_events(interactions).items():
        if len(recs) >= D.MIN_BEHAVIORS:
            for r in recs:
                ids.setdefault(token(u, r), 2 + len(ids))
    return ids


def item_ids(interactions):
    return first_appearance_ids(interactions, lambda u, r: r.item)


def user_ids(interactions):
    return first_appearance_ids(interactions, lambda u, r: u)


# ---------------------------------------------------------------------------
# ingest


def test_ingest_groups_and_sorts(tmp_path):
    path = write(
        tmp_path,
        "log.tsv",
        "u1\ta\tx\t3\n"
        "u2\tb\ty\t1\n"
        "u1\tc\tx\t1\n",
    )
    out = D.ingest_log(path)
    assert list(out.users) == ["u1", "u2"]
    assert [r.item for r in log_events(out)["u1"]] == ["c", "a"]
    assert out.seq_fields == ["item", "attr_1"]
    assert out.n_skipped == 0


def test_ingest_tie_keeps_input_order(tmp_path):
    path = write(tmp_path, "log.tsv", "u\ta\tx\t5\nu\tb\tx\t5\n")
    out = D.ingest_log(path)
    assert [r.item for r in log_events(out)["u"]] == ["a", "b"]


def test_ingest_skips_malformed_under_threshold(tmp_path):
    good = "".join(f"u\ti{k}\tx\t{k}\n" for k in range(200))
    path = write(tmp_path, "log.tsv", good + "broken-line-no-tabs\n")
    out = D.ingest_log(path)
    assert out.n_skipped == 1
    assert len(log_events(out)["u"]) == 200


def test_ingest_error_names_first_bad_line(tmp_path):
    path = write(tmp_path, "log.tsv", "u\ta\tx\t1\nnot good\nu\tb\tx\t2\n")
    with pytest.raises(FormatError, match="line 2"):
        D.ingest_log(path)


def test_ingest_bad_timestamp_is_malformed(tmp_path):
    good = "".join(f"u\ti{k}\tx\t{k}\n" for k in range(200))
    path = write(tmp_path, "log.tsv", good + "u\tz\tx\tnot-a-number\n")
    out = D.ingest_log(path)
    assert out.n_skipped == 1


def test_ingest_missing_file_raises_io_error(tmp_path):
    with pytest.raises(OSError):
        D.ingest_log(str(tmp_path / "absent.tsv"))


def test_ingest_binary_file_is_format_error(tmp_path):
    path = tmp_path / "weights.bin"
    path.write_bytes(b"u\ti1\tx\t1\n" + bytes(range(128, 256)))
    with pytest.raises(FormatError, match="weights.bin: not a UTF-8 text file"):
        D.ingest_log(str(path))


def test_ingest_empty_file(tmp_path):
    with pytest.raises(DataError):
        D.ingest_log(write(tmp_path, "log.tsv", ""))


def test_ingest_timestamp_beyond_int64_is_malformed(tmp_path):
    good = "".join(f"u\ti{k}\tx\t{k}\n" for k in range(199))
    path = write(tmp_path, "log.tsv", good + f"u\tz\tx\t{2**63}\n")
    out = D.ingest_log(path)
    assert out.n_skipped == 1 and out.n_records == 199
    # one such line in fewer than 100 is over the 1% rule
    path = write(tmp_path, "short.tsv", "u\ta\tx\t1\n" f"u\tb\tx\t{-(2**63) - 1}\n")
    with pytest.raises(FormatError, match="1/2 malformed lines, first at line 2"):
        D.ingest_log(path)


def test_ingest_keeps_the_int64_extremes(tmp_path):
    path = write(tmp_path, "log.tsv", f"u\ta\tx\t{2**63 - 1}\nu\tb\tx\t{-(2**63)}\n")
    out = D.ingest_log(path)
    assert [r.item for r in log_events(out)["u"]] == ["b", "a"]
    assert out.ts.tolist() == [-(2**63), 2**63 - 1]


# fuzz: any byte input parses or raises a MissError, within a deadline


@pytest.fixture(scope="module")
def real_log(tmp_path_factory):
    """A directory for fuzz inputs and the bytes of a small real log."""
    d = tmp_path_factory.mktemp("tsv")
    D.write_log_tsv(D.synth_generate(8, 8, 2, (4, 6), seed=0), str(d / "log.tsv"))
    return d, (d / "log.tsv").read_bytes()


def _ingest(d, body: bytes) -> None:
    path = d / "fuzz.tsv"
    path.write_bytes(body)
    try:
        D.ingest_log(str(path))
    except MissError:
        pass


FUZZ = settings(max_examples=150, deadline=2000)
# text made of the log's own separators and token characters gets past
# UTF-8 decoding, where arbitrary bytes mostly stop
TSV_TEXT = st.text(alphabet="\t\n\r u1i0-9_x é", max_size=400).map(str.encode)


# timestamps of 18-25 digits (around the int64 limits) or signed, and
# \n, \r\n or \r line endings
TIMESTAMP = st.one_of(
    st.integers(-5, 5).map(str),
    st.integers(10**17, 10**25).map(str),
    st.integers(-(10**25), 10**25).map(str),
    st.sampled_from([str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "+3", "-0"]),
)
STAMPED_TSV = st.lists(
    st.tuples(st.sampled_from(["u1", "u2"]), st.sampled_from(["i1", "é"]), TIMESTAMP,
              st.sampled_from(["\n", "\r\n", "\r"])),
    max_size=30,
).map(lambda rows: "".join(f"{u}\t{i}\tx\t{t}{end}" for u, i, t, end in rows).encode())


@FUZZ
@given(body=st.one_of(st.binary(max_size=400), TSV_TEXT, STAMPED_TSV))
def test_fuzz_ingest_arbitrary_bytes(real_log, body):
    _ingest(real_log[0], body)


@FUZZ
@given(cut=st.floats(0.0, 1.0))
def test_fuzz_ingest_truncated_real_log(real_log, cut):
    d, blob = real_log
    _ingest(d, blob[: int(cut * len(blob))])


@FUZZ
@given(data=st.data())
def test_fuzz_ingest_byte_flips_of_real_log(real_log, data):
    d, blob = real_log
    blob = bytearray(blob)
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), min_size=1, max_size=4
    ))
    for pos, value in flips:
        blob[pos] = value
    _ingest(d, bytes(blob))


# ingest_log against the line-by-line oracle

TOKEN = st.sampled_from(["u1", "u2", "é", "日本", "a b", "x", "0", "ü9"])
FIELD = st.one_of(TOKEN, st.just(""))
STAMP = st.one_of(st.integers(-2, 2).map(str), TIMESTAMP, st.sampled_from(["", "1.5", " 7", "1_0", "٣"]))


@st.composite
def tsv_texts(draw):
    """TSV text with 0-2 attribute columns: well-formed rows with tied
    timestamps, rows of other widths or with empty fields, blank and
    tab-only lines, mixed line endings, and optionally 150 well-formed
    rows first so that a few malformed lines are skipped rather than
    fatal."""
    width = 3 + draw(st.integers(0, 2))
    good = st.builds(lambda f, t: "\t".join(f + [t]), st.lists(TOKEN, min_size=width - 1,
                     max_size=width - 1), st.integers(-2, 2).map(str))
    n_fields = st.one_of(st.just(width - 1), st.integers(0, 5))
    other = st.builds(lambda f, t: "\t".join(f + [t]),
                      n_fields.flatmap(lambda n: st.lists(FIELD, min_size=n, max_size=n)), STAMP)
    line = st.one_of(good, good, other, other, st.sampled_from(["", "\t", "\t\t\t"]))
    lines = draw(st.lists(line, max_size=30))
    if draw(st.booleans()):
        lines = [f"p{k % 7}\t" + "\t".join(["i", "x", "y"][: width - 2]) + f"\t{k % 3}"
                 for k in range(150)] + lines
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(l + e for l, e in zip(lines, ends))
    return text[: len(text) - draw(st.integers(0, 1))]  # maybe no final line ending


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def _warnings(name):
    handler, logger = _Messages(), logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


def _outcome(reader, path, logger_name):
    """What a reader makes of a file: the users, their events in order,
    the fields and skip count, or the error, plus its warnings."""
    with _warnings(logger_name) as messages:
        try:
            out = reader(path)
        except MissError as exc:
            return (type(exc), str(exc)), messages
    assert out.codes.dtype == out.ts.dtype == out.counts.dtype == np.int64
    return (out.users, log_events(out), out.seq_fields, out.n_skipped), messages


@settings(max_examples=300, deadline=None)
@given(text=tsv_texts(), block=st.sampled_from([1, 7, 64, D.BLOCK]))
def test_ingest_matches_the_line_by_line_oracle(snapshot_dir, text, block):
    path = snapshot_dir / "oracle.tsv"
    path.write_bytes(text.encode())
    want = _outcome(naive_ingest_log, str(path), "oracles")
    with mock.patch.object(D, "BLOCK", block):  # lines that span reads
        got = _outcome(D.ingest_log, str(path), "missctr.data")
    assert got == want


# ---------------------------------------------------------------------------
# filtering


def test_filter_min_count_one_is_identity():
    interactions = toy_log({"u": [("a", "x")] * 4})
    out, stats = D.filter_infrequent(interactions, 1)
    assert out.n_records == 4
    assert stats.users_dropped == 0 and stats.records_dropped == 0


def test_filter_cascades_to_fixpoint():
    # dropping u3 orphans item c, which drops u2, which orphans b;
    # u1 still stands on its two a events
    interactions = toy_log(
        {
            "u1": [("a", "x"), ("a", "x"), ("b", "x")],
            "u2": [("b", "x"), ("c", "x")],
            "u3": [("c", "x")],
        }
    )
    out, stats = D.filter_infrequent(interactions, 2)
    assert list(out.users) == ["u1"]
    assert [r.item for r in log_events(out)["u1"]] == ["a", "a"]
    assert stats.rounds >= 3
    assert stats.users_dropped == 2
    with pytest.raises(DegenerateDatasetError):
        D.filter_infrequent(interactions, 3)


def test_filter_brute_force_fixpoint_agreement():
    rng = np.random.default_rng(9)
    users = {
        f"u{k}": [(f"i{rng.integers(6)}", "x") for _ in range(rng.integers(1, 8))]
        for k in range(12)
    }
    interactions = toy_log(users)
    min_count = 2
    # brute-force reference: iterate the defining rule until stable
    recs = {u: [(r.item) for r in v] for u, v in log_events(interactions).items()}
    while True:
        item_counts = {}
        for v in recs.values():
            for it in v:
                item_counts[it] = item_counts.get(it, 0) + 1
        nxt = {}
        for u, v in recs.items():
            kept = [it for it in v if item_counts[it] >= min_count]
            if len(kept) >= min_count:
                nxt[u] = kept
        if nxt == recs:
            break
        recs = nxt
    try:
        out, _ = D.filter_infrequent(interactions, min_count)
        got = {u: [r.item for r in v] for u, v in log_events(out).items()}
    except DegenerateDatasetError:
        got = {}
    assert got == recs


# ---------------------------------------------------------------------------
# splits


def five_event_log():
    return toy_log({"u1": [("a", "x"), ("b", "x"), ("c", "y"), ("d", "y"), ("e", "y")],
                    "u2": [("a", "x"), ("c", "y"), ("b", "x"), ("d", "y")]})


def test_leave_last_out_positions():
    splits = D.build_splits(five_event_log(), max_len=10, seed=0)
    # u1 positives: train target c, valid target d, test target e
    # item vocab first-appearance: a=2 b=3 c=4 d=5 e=6
    assert splits.train.cand[0, 0] == 4
    assert splits.valid.cand[0, 0] == 5
    assert splits.test.cand[0, 0] == 6
    # u1 train history = [a, b] front-padded
    row = splits.train.seq[0, 0]
    assert row.tolist() == [0] * 8 + [2, 3]
    assert splits.train.seq_len[0] == 2
    # u2 (4 events): train history has a single event
    assert splits.train.seq_len[2] == 1


def test_held_out_events_differ_across_splits():
    interactions = D.synth_generate(40, 20, 4, (6, 12), seed=5)
    splits = D.build_splits(interactions, max_len=8, seed=0)
    for u, recs in log_events(interactions).items():
        n = len(recs)
        assert n >= 4
    # positives at even rows; per user the three split targets are the
    # last three events in order
    users = list(interactions.users)
    vocab = item_ids(interactions)
    for k, u in enumerate(users):
        recs = log_events(interactions)[u]
        assert splits.train.cand[2 * k, 0] == vocab[recs[-3].item]
        assert splits.valid.cand[2 * k, 0] == vocab[recs[-2].item]
        assert splits.test.cand[2 * k, 0] == vocab[recs[-1].item]


def test_negatives_never_interacted():
    interactions = D.synth_generate(30, 20, 4, (6, 10), seed=1)
    splits = D.build_splits(interactions, max_len=8, seed=3)
    inv = {v: k for k, v in item_ids(interactions).items()}
    users = list(interactions.users)
    for part in (splits.train, splits.valid, splits.test):
        for k, u in enumerate(users):
            neg_id = int(part.cand[2 * k + 1, 0])
            seen = {r.item for r in log_events(interactions)[u]}
            assert inv[neg_id] not in seen
            assert part.label[2 * k] == 1 and part.label[2 * k + 1] == 0


def test_negative_shares_user_and_history():
    # u1 touched every item, so only u2's positive (row 1) has a negative
    splits = D.build_splits(five_event_log(), max_len=10, seed=0)
    for part in (splits.train, splits.valid, splits.test):
        assert part.label.tolist() == [1, 1, 0]
        np.testing.assert_array_equal(part.seq[1], part.seq[2])
        np.testing.assert_array_equal(part.cat[1], part.cat[2])


def test_split_determinism():
    a = D.build_splits(five_event_log(), max_len=10, seed=42)
    b = D.build_splits(five_event_log(), max_len=10, seed=42)
    for pa, pb in ((a.train, b.train), (a.valid, b.valid), (a.test, b.test)):
        np.testing.assert_array_equal(pa.cand, pb.cand)
        np.testing.assert_array_equal(pa.seq, pb.seq)


def test_short_users_excluded():
    interactions = toy_log(
        {"short": [("a", "x"), ("b", "x"), ("c", "x")],
         "long": [("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")]}
    )
    splits = D.build_splits(interactions, max_len=5, seed=0)
    assert splits.n_short_users == 1
    # only the long user's positive: it touched every item, so no negative
    assert splits.train.cat[:, 0].tolist() == [user_ids(interactions)["long"]]


def test_truncation_keeps_most_recent():
    events = [(f"i{k}", "x") for k in range(9)]
    interactions = toy_log({"u": events})
    splits = D.build_splits(interactions, max_len=3, seed=0)
    # test history is events 0..7, truncated to the last 3: i5 i6 i7
    vocab = item_ids(interactions)
    assert splits.test.seq[0, 0].tolist() == [vocab["i5"], vocab["i6"], vocab["i7"]]
    assert splits.test.seq_len[0] == 3


# build_splits against the per-row oracle, compared as snapshot bytes

# item names whose sorted order differs from any first-seen order
ITEM_NAMES = ["b", "a", "ab", "Z", "é", "a1", "10", "9"]


@st.composite
def small_logs(draw):
    """Logs with 0-2 attribute columns, items seen again with other
    attributes, users below MIN_BEHAVIORS, and optionally a first user
    who touched every item."""
    n_attrs = draw(st.integers(0, 2))
    items = draw(st.permutations(ITEM_NAMES))[: draw(st.integers(1, len(ITEM_NAMES)))]
    attr = st.sampled_from(["x", "y", "z"])
    usual = {it: tuple(draw(attr) for _ in range(n_attrs)) for it in items}
    event = st.tuples(st.sampled_from(items), st.booleans())
    users = {}
    for u in range(draw(st.integers(1, 5))):
        events = draw(st.lists(event, min_size=1, max_size=10))
        if u == 0 and draw(st.booleans()):
            events = [(it, False) for it in draw(st.permutations(items))] + events
        users[f"u{u}"] = [
            (it, tuple(draw(attr) for _ in range(n_attrs)) if other else usual[it], t)
            for t, (it, other) in enumerate(events)
        ]
    return make_log(users, ["item"] + [f"attr_{i + 1}" for i in range(n_attrs)])


def assert_same_splits(got, want):
    """Row for row: every split's windows (read through the accessor),
    cat, seq_len, cand and label, int64 and equal; then the fields,
    vocab sizes, max_len and short-user count."""
    for name in D.SPLIT_NAMES:
        g, w = getattr(got, name), getattr(want, name)
        assert g.events is got.train.events, name  # the splits share one table
        for a in D.SAMPLE_ARRAYS:
            assert getattr(g, a).dtype == np.int64 and getattr(g, a).flags.c_contiguous, (name, a)
        for a in ("cat", "seq", "seq_len", "cand", "label"):
            x, y = getattr(g, a), getattr(w, a)
            assert x.dtype == y.dtype == np.int64, (name, a)
            np.testing.assert_array_equal(x, y, err_msg=f"{name}.{a}")
        for a in ("cat", "seq", "cand"):
            assert not (getattr(g, a) == 1).any(), (name, a)  # id 1 is reserved
    assert got.train.events.dtype == np.int64 and not (got.train.events == 1).any()
    assert (got.cat_fields, got.seq_fields, got.vocab_sizes, got.max_len, got.n_short_users) == (
        want.cat_fields, want.seq_fields, want.vocab_sizes, want.max_len, want.n_short_users)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=200, deadline=None)
@given(interactions=small_logs(), max_len=st.integers(1, 12), seed=st.integers(0, 3))
def test_build_splits_matches_the_per_row_oracle(interactions, max_len, seed):
    try:
        want = naive_build_splits(interactions, max_len, seed)
    except DegenerateDatasetError as exc:
        with pytest.raises(DegenerateDatasetError, match=re.escape(str(exc))):
            D.build_splits(interactions, max_len, seed)
        return
    assert_same_splits(D.build_splits(interactions, max_len, seed), want)


def test_build_splits_matches_the_oracle_on_a_2k_user_corpus():
    interactions = D.synth_generate(2000, 500, 5, (8, 16), seed=0)
    got = D.build_splits(interactions, 16, 0)
    assert_same_splits(got, naive_build_splits(interactions, 16, 0))


def test_build_splits_peaks_near_what_it_returns():
    # each phase's event-sized temporaries die before the next phase
    # allocates; holding them all peaks at about 2.5x the splits
    interactions = D.synth_generate(5000, 500, 5, (8, 16), seed=0)
    tracemalloc.start()
    try:
        splits = D.build_splits(interactions, 16, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert splits.train.events.nbytes <= held
    assert peak <= 1.6 * held, f"peak {peak / 1e6:.1f} MB, held {held / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# batching


@settings(max_examples=100, deadline=None)
@given(data=st.data(), max_len=st.integers(1, 10), n_events=st.integers(0, 20))
def test_batch_mask_is_the_front_padding_oracle(data, max_len, n_events):
    # any row's mask is its last seq_len slots, and its window holds the
    # events end - seq_len .. end - 1 there and padding everywhere else
    seq_len = np.array(data.draw(st.lists(st.integers(0, min(max_len, n_events)), min_size=1,
                                          max_size=8)), dtype=np.int64)
    end = np.array([data.draw(st.integers(s, n_events)) for s in seq_len], dtype=np.int64)
    n = seq_len.size
    events = np.arange(n_events + 1)[:, None] * np.array([1, 2])  # row 0 is padding
    part = D.SampleSet(cat=np.zeros((n, 1), dtype=np.int64), seq_len=seq_len,
                       cand=np.zeros((n, 2), dtype=np.int64), label=np.zeros(n, dtype=np.int64),
                       end=end, events=events, max_len=max_len)
    idx = np.array(data.draw(st.permutations(range(n))))
    _, seq, mask, _, _ = part.batch(idx)
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, front_mask(seq_len[idx], max_len) == 1.0)
    np.testing.assert_array_equal(seq == D.PAD_ID, np.broadcast_to(~mask[:, None], seq.shape))
    for b, i in enumerate(idx):
        rows = np.arange(end[i] - seq_len[i], end[i]) + 1
        np.testing.assert_array_equal(seq[b][:, mask[b]], events[rows].T)


def test_make_batches_counts():
    batches = D.make_batches(10, 4, shuffle=False)
    assert [len(b) for b in batches] == [4, 4, 2]
    batches = D.make_batches(10, 4, shuffle=True, seed=0, drop_partial=True)
    assert [len(b) for b in batches] == [4, 4]


def test_make_batches_shuffle_determinism():
    a = D.make_batches(50, 8, shuffle=True, seed=7)
    b = D.make_batches(50, 8, shuffle=True, seed=7)
    c = D.make_batches(50, 8, shuffle=True, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_determinism():
    a = D.synth_generate(20, 12, 3, (5, 9), seed=11)
    b = D.synth_generate(20, 12, 3, (5, 9), seed=11)
    assert log_events(a) == log_events(b)


def test_synth_users_stay_within_three_clusters():
    interactions = D.synth_generate(50, 40, 8, (8, 14), seed=2)
    for recs in log_events(interactions).values():
        clusters = {r.attrs[0] for r in recs}
        assert 1 <= len(clusters) <= 3
        assert len(recs) in range(8, 15)


def test_synth_single_interest_single_cluster():
    interactions = D.synth_generate(30, 10, 1, (5, 8), seed=3)
    for recs in log_events(interactions).values():
        assert {r.attrs[0] for r in recs} == {"c0"}


def test_synth_cluster_matches_item_partition():
    interactions = D.synth_generate(10, 12, 4, (5, 8), seed=4)
    per = 12 // 4
    for recs in log_events(interactions).values():
        for r in recs:
            idx = int(r.item[1:])
            assert r.attrs[0] == f"c{idx // per}"


def test_synth_divisibility_check():
    with pytest.raises(ConfigError):
        D.synth_generate(10, 10, 3, (5, 8), seed=0)


def full_coverage_log():
    # u1 touches every item, so no item is left to serve as its negative
    return toy_log({"u1": [("a", "x"), ("b", "x"), ("c", "y"), ("d", "y")],
                    "u2": [("a", "x"), ("b", "x"), ("a", "x"), ("b", "x"), ("a", "x")]})


def test_user_who_touched_every_item_gets_no_negatives(caplog):
    interactions = full_coverage_log()
    with caplog.at_level("WARNING", logger="missctr.data"):
        splits = D.build_splits(interactions, max_len=5, seed=0)
    assert "skipped 3 negative rows" in caplog.text
    item_vocab, user_vocab = item_ids(interactions), user_ids(interactions)
    for part in (splits.train, splits.valid, splits.test):
        for u, recs in log_events(interactions).items():
            history = {item_vocab[r.item] for r in recs}
            rows = part.cat[:, 0] == user_vocab[u]
            negatives = part.cand[rows & (part.label == 0), 0]
            assert not set(negatives.tolist()) & history, (u, negatives)
        # u1 keeps its positive; u2 keeps its pair
        assert part.label.tolist() == [1, 1, 0]


def test_downsample_keeps_a_positive_without_negative_whole():
    splits = D.build_splits(full_coverage_log(), max_len=5, seed=0)
    out = D.downsample_train(splits, 0.5, seed=1)
    # two pairs (u1's lone positive, u2's pair); one is kept whole
    assert out.train.label.tolist() in ([1], [1, 0])


# ---------------------------------------------------------------------------
# robustness perturbations


def make_synth_splits():
    return D.build_splits(D.synth_generate(24, 12, 3, (6, 10), seed=0), max_len=8, seed=0)


def test_downsample_identity_at_full_rate():
    splits = make_synth_splits()
    assert D.downsample_train(splits, 1.0, seed=5) is splits


def test_downsample_keeps_pairs():
    splits = make_synth_splits()
    out = D.downsample_train(splits, 0.5, seed=5)
    assert out.train.n == 2 * round(0.5 * (splits.train.n // 2))
    assert out.train.label.reshape(-1, 2).tolist() == [[1, 0]] * (out.train.n // 2)
    # untouched splits share eval sets
    np.testing.assert_array_equal(out.test.cand, splits.test.cand)


def test_flip_identity_at_zero():
    splits = make_synth_splits()
    assert D.flip_labels(splits, 0.0, seed=5) is splits


def test_flip_count_exact():
    splits = make_synth_splits()
    out = D.flip_labels(splits, 0.25, seed=5)
    n_diff = int((out.train.label != splits.train.label).sum())
    assert n_diff == round(0.25 * splits.train.n)


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip(tmp_path):
    splits = make_synth_splits()
    p1 = str(tmp_path / "splits.txt")
    p2 = str(tmp_path / "again.txt")
    D.save_splits(splits, p1)
    loaded = D.load_splits(p1)
    for a, b in ((splits.train, loaded.train), (splits.valid, loaded.valid), (splits.test, loaded.test)):
        np.testing.assert_array_equal(a.cat, b.cat)
        np.testing.assert_array_equal(a.seq, b.seq)
        np.testing.assert_array_equal(a.seq_len, b.seq_len)
        np.testing.assert_array_equal(a.cand, b.cand)
        np.testing.assert_array_equal(a.label, b.label)
    assert loaded.vocab_sizes == splits.vocab_sizes
    assert loaded.fields == splits.fields
    D.save_splits(loaded, p2)
    assert (tmp_path / "splits.txt").read_bytes() == (tmp_path / "again.txt").read_bytes()


def test_snapshot_bad_magic(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("something else\n")
    with pytest.raises(FormatError):
        D.load_splits(str(p))


def test_snapshot_round_trip_keeps_a_positive_without_negative(tmp_path):
    splits = D.build_splits(full_coverage_log(), max_len=5, seed=0)
    path = str(tmp_path / "splits.txt")
    D.save_splits(splits, path)
    np.testing.assert_array_equal(D.load_splits(path).train.label, [1, 1, 0])


def _corrupt_train(splits, what):
    """Break one value of a snapshot; returns where the load must
    report it: train sample 3, or the event table row holding it."""
    part, events = splits.train, splits.train.events
    if what == "cat_id_past_vocab":
        part.cat[3, 0] = splits.vocab_sizes["user"]
    elif what == "cand_id_huge":
        part.cand[3, 0] = 10**6
    elif what == "seq_id_negative":  # the last event of sample 3's history
        events[part.end[3], 1] = -1
        return f"events row {part.end[3]}"
    elif what == "event_id_past_vocab":  # the last user's test target, in no history
        events[-1, 0] = splits.vocab_sizes["item"]
        return f"events row {events.shape[0] - 1}"
    elif what == "nonzero_padding":  # every padding slot reads row 0
        events[0, 0] = 2
        return "events row 0"
    elif what == "label_two":
        part.label[3] = 2
    elif what == "seq_len_past_max":
        part.seq_len[3] = splits.max_len + 1
    elif what == "seq_len_negative":
        part.seq_len[3] = -1
    elif what == "seq_len_zero":  # an empty history, which no model can pool
        part.seq_len[3] = 0
    elif what == "end_past_table":
        part.end[3] = events.shape[0]
    elif what == "end_before_seq_len":
        part.end[3] = part.seq_len[3] - 1
    return "train sample 3"


SNAPSHOT_DEFECTS = {
    "cat_id_past_vocab": "user id outside",
    "cand_id_huge": "item id outside",
    "seq_id_negative": "attr_1 id outside",
    "event_id_past_vocab": "item id outside",
    "nonzero_padding": "nonzero id in the padding row",
    "label_two": "label not 0 or 1",
    "seq_len_past_max": "seq_len outside",
    "seq_len_negative": "seq_len outside",
    "seq_len_zero": "seq_len outside [1, ",
    "end_past_table": "end outside [seq_len, ",
    "end_before_seq_len": "end outside [seq_len, ",
}


@pytest.mark.parametrize("what", sorted(SNAPSHOT_DEFECTS))
def test_snapshot_body_validated_at_load(tmp_path, what):
    splits = make_synth_splits()
    where = _corrupt_train(splits, what)
    path = str(tmp_path / "splits.txt")
    D.save_splits(splits, path)
    with pytest.raises(FormatError, match=re.escape(f"{where}: {SNAPSHOT_DEFECTS[what]}")) as info:
        D.load_splits(path)
    assert path in str(info.value) and "\n" not in str(info.value)


def _restructure(records, what):
    """Break the container structure of a snapshot's records."""
    if what == "float_record":
        records["valid:seq_len"] = records["valid:seq_len"].astype(np.float64)
    elif what == "shape_mismatch":
        records["test:cand"] = records["test:cand"][:-1]
    elif what == "missing_record":
        del records["train:label"]
    elif what == "extra_record":
        records["train:weight"] = np.ones_like(records["train:label"])
    elif what == "no_seq_fields":
        for f in ("item", "attr_1"):
            del records[f"seq:{f}"]
    elif what == "max_len_zero":
        records["max_len"] = np.int64(0)
    elif what == "empty_split":
        for a in D.SAMPLE_ARRAYS:
            records[f"test:{a}"] = records[f"test:{a}"][:0]


SNAPSHOT_STRUCTURE_DEFECTS = {
    "float_record": "record 'valid:seq_len' is float64, not int64",
    "shape_mismatch": "record 'test:cand' has shape",
    "missing_record": "missing record 'train:label'",
    "extra_record": "unexpected record 'train:weight'",
    "no_seq_fields": "needs at least one cat: and one seq: field",
    "max_len_zero": "max_len is 0, must be >= 1",
    "empty_split": "test split has no samples",
}


@pytest.mark.parametrize("what", sorted(SNAPSHOT_STRUCTURE_DEFECTS))
def test_snapshot_structure_validated_at_load(tmp_path, what):
    path = str(tmp_path / "splits.txt")
    D.save_splits(make_synth_splits(), path)
    records = load_arrays(path)
    _restructure(records, what)
    save_arrays(path, records)
    with pytest.raises(FormatError, match=re.escape(SNAPSHOT_STRUCTURE_DEFECTS[what])) as info:
        D.load_splits(path)
    assert path in str(info.value) and "\n" not in str(info.value)


def per_row_layout(splits):
    """A snapshot's records in the layout before the shared event table:
    every split row stored its own front-padded (J, max_len) window as
    `<split>:seq`."""
    records = {"max_len": np.int64(splits.max_len)}
    for kind, fields in (("cat", splits.cat_fields), ("seq", splits.seq_fields)):
        records |= {f"{kind}:{f}": np.int64(splits.vocab_sizes[f]) for f in fields}
    for name in D.SPLIT_NAMES:
        part = getattr(splits, name)
        records |= {f"{name}:{a}": np.ascontiguousarray(getattr(part, a))
                    for a in ("cat", "seq", "seq_len", "cand", "label")}
    return records


def test_snapshot_with_per_row_windows_asks_for_a_new_ingest(tmp_path):
    path = str(tmp_path / "splits.txt")
    save_arrays(path, per_row_layout(make_synth_splits()))
    with pytest.raises(FormatError, match="record 'train:seq' holds per-row windows") as info:
        D.load_splits(path)
    assert path in str(info.value) and "\n" not in str(info.value)
    assert "rerun `missctr ingest`" in str(info.value)


def test_snapshot_stores_each_event_once(tmp_path):
    interactions = D.synth_generate(30, 20, 4, (6, 10), seed=1)
    splits = D.build_splits(interactions, max_len=7, seed=0)
    assert splits.train.events is splits.valid.events is splits.test.events
    path = str(tmp_path / "splits.txt")
    D.save_splits(splits, path)
    records = load_arrays(path)
    want = {"max_len": (), "cat:user": (), "seq:item": (), "seq:attr_1": (),
            "events": (interactions.n_records + 1, 2)}  # every user has >= 4 events
    for name in D.SPLIT_NAMES:
        n = getattr(splits, name).n
        want |= {f"{name}:cat": (n, 1), f"{name}:seq_len": (n,), f"{name}:cand": (n, 2),
                 f"{name}:label": (n,), f"{name}:end": (n,)}
    assert {k: a.shape for k, a in records.items()} == want
    assert not records["events"][0].any()


def test_snapshot_records_are_int64_and_max_len_is_0d(tmp_path):
    path = str(tmp_path / "splits.txt")
    splits = make_synth_splits()
    D.save_splits(splits, path)
    records = load_arrays(path)
    assert list(records)[:4] == ["max_len", "cat:user", "seq:item", "seq:attr_1"]
    assert all(a.dtype == np.int64 for a in records.values())
    assert records["max_len"].shape == () and int(records["max_len"]) == splits.max_len
