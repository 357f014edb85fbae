"""The array container: round trips by dtype and rank, one-line
FormatErrors on malformed files, and a fuzz of both readers over
arbitrary bytes and damaged real checkpoints and snapshots."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missctr import data as D
from missctr.errors import FormatError, MissError
from missctr.serialize import MAGIC, load_arrays, save_arrays
from missctr.trainer import ExperimentConfig, build_model, save_checkpoint


def test_round_trip_keeps_dtype_and_rank(tmp_path):
    path = str(tmp_path / "c.bin")
    arrays = {
        "w": np.linspace(-1.0, 1.0, 12).reshape(3, 4),
        "ids": np.arange(6, dtype=np.int32).reshape(2, 3),
        "scalar": np.float64(2.5),
        "count": np.int64(7),
        "empty": np.zeros((0, 5), dtype=np.int64),
    }
    save_arrays(path, arrays)
    out = load_arrays(path)
    assert list(out) == list(arrays)
    for k, a in arrays.items():
        want = np.int64 if np.issubdtype(np.asarray(a).dtype, np.integer) else np.float64
        assert out[k].dtype == want and out[k].shape == np.shape(a), k
        np.testing.assert_array_equal(out[k], a)
        assert out[k].flags.writeable
    save_arrays(str(tmp_path / "again.bin"), out)
    assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "again.bin").read_bytes()


def _patched(tmp_path, arrays, old: bytes, new: bytes) -> str:
    """A valid container with one header byte string replaced."""
    path = tmp_path / "c.bin"
    save_arrays(str(path), arrays)
    blob = path.read_bytes()
    assert blob.count(old) == 1 and len(old) == len(new)
    path.write_bytes(blob.replace(old, new))
    return str(path)


def _assert_one_line_format_error(path, match):
    with pytest.raises(FormatError, match=match) as info:
        load_arrays(path)
    assert path in str(info.value) and "\n" not in str(info.value)


def test_non_utf8_record_name_is_format_error(tmp_path):
    path = _patched(tmp_path, {"wq": np.ones(3)}, b"wq", b"\xff\xfe")
    _assert_one_line_format_error(path, "not UTF-8")


def test_dims_whose_product_overflows_are_format_error(tmp_path):
    # 2^32 x 2^32 elements wrap to 0 in 64-bit arithmetic
    path = _patched(tmp_path, {"w": np.ones((2, 2))},
                    struct.pack("<2Q", 2, 2), struct.pack("<2Q", 2**32, 2**32))
    _assert_one_line_format_error(path, "truncated payload for 'w'")


def test_empty_record_with_a_dim_past_numpy_limits_is_format_error(tmp_path):
    path = _patched(tmp_path, {"w": np.ones((0, 2))},
                    struct.pack("<2Q", 0, 2), struct.pack("<2Q", 0, 2**63))
    _assert_one_line_format_error(path, "out of range")


def test_duplicate_record_name_is_format_error(tmp_path):
    path = _patched(tmp_path, {"wa": np.ones(2), "wb": np.zeros(2)}, b"wb", b"wa")
    _assert_one_line_format_error(path, "duplicate record 'wa'")


def test_unknown_dtype_code_is_format_error(tmp_path):
    path = tmp_path / "c.bin"
    save_arrays(str(path), {"w": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) + 4 + 2 + 1] = 9  # the byte after the one-letter name
    path.write_bytes(bytes(blob))
    _assert_one_line_format_error(str(path), "unknown dtype code 9")


def test_trailing_bytes_are_format_error(tmp_path):
    path = tmp_path / "c.bin"
    save_arrays(str(path), {"w": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\0")
    _assert_one_line_format_error(str(path), "1 trailing bytes")


# ---------------------------------------------------------------------------
# fuzz: any byte input parses or raises a MissError, within a deadline


@pytest.fixture(scope="module")
def real_files(tmp_path_factory):
    """The bytes of a small real checkpoint and a small real snapshot."""
    d = tmp_path_factory.mktemp("real")
    splits = D.build_splits(D.synth_generate(8, 8, 2, (4, 6), seed=0), max_len=4, seed=0)
    cfg = ExperimentConfig(emb_dim=2, mlp=(3, 1), enc_interest=(2,), enc_feature=(2,),
                           max_len=4, n_branches=1, n_depths=1, max_offset=1).validate()
    save_checkpoint(str(d / "checkpoint.bin"), build_model(cfg, splits))
    D.save_splits(splits, str(d / "splits.bin"))
    return d, [(d / name).read_bytes() for name in ("checkpoint.bin", "splits.bin")]


def _read_both(path: str) -> None:
    for reader in (load_arrays, D.load_splits):
        try:
            reader(path)
        except MissError:
            pass


FUZZ = settings(max_examples=150, deadline=2000)


@FUZZ
@given(body=st.binary(max_size=400), magic=st.booleans())
def test_fuzz_arbitrary_bytes(real_files, body, magic):
    d, _ = real_files
    path = d / "fuzz.bin"
    path.write_bytes((MAGIC if magic else b"") + body)
    _read_both(str(path))


@FUZZ
@given(which=st.integers(0, 1), cut=st.floats(0.0, 1.0))
def test_fuzz_truncated_real_files(real_files, which, cut):
    d, blobs = real_files
    blob = blobs[which]
    path = d / "fuzz.bin"
    path.write_bytes(blob[: int(cut * len(blob))])
    _read_both(str(path))


@FUZZ
@given(which=st.integers(0, 1), data=st.data())
def test_fuzz_byte_flips_of_real_files(real_files, which, data):
    d, blobs = real_files
    blob = bytearray(blobs[which])
    # half the flips land in the first records' headers, the rest anywhere
    pos = st.one_of(st.integers(0, 127), st.integers(0, len(blob) - 1))
    flips = data.draw(st.lists(st.tuples(pos, st.integers(0, 255)), min_size=1, max_size=4))
    for pos, value in flips:
        blob[pos] = value
    path = d / "fuzz.bin"
    path.write_bytes(bytes(blob))
    _read_both(str(path))
