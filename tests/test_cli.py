"""End-to-end command-line runs in temp directories: artifact
determinism, exit codes, config precedence, and the summary counts."""

import os
import threading

import numpy as np
import pytest

from missctr.cli import (
    CONFIG_KEYS,
    model_summary,
    parse_config_file,
    resolve_config,
    run,
)
from missctr.errors import ConfigError
from missctr.serialize import load_arrays, save_arrays
from missctr.trainer import ExperimentConfig, build_model

TINY = [
    "--emb-dim", "4", "--batch-size", "16", "--mlp", "8,1",
    "--enc-interest", "6", "--enc-feature", "5", "--epochs", "2",
    "--lr", "1e-2", "--max-len", "8",
]


def synth_corpus(tmp_path, seed=3):
    out = str(tmp_path / f"corpus{seed}")
    code = run([
        "synth", "--n-users", "40", "--n-items", "20", "--n-interests", "4",
        "--seq-len-min", "6", "--seq-len-max", "10",
        "--seed", str(seed), "--out-dir", out,
    ])
    assert code == 0
    return os.path.join(out, "synth.tsv")


def test_config_keys_cover_experiment_config():
    from dataclasses import fields

    assert set(CONFIG_KEYS) == {f.name for f in fields(ExperimentConfig)}


def test_synth_rerun_byte_identical(tmp_path):
    a = synth_corpus(tmp_path / "a", seed=7)
    b = synth_corpus(tmp_path / "b", seed=7)
    assert open(a, "rb").read() == open(b, "rb").read()
    c = synth_corpus(tmp_path / "c", seed=8)
    assert open(a, "rb").read() != open(c, "rb").read()


def test_missing_config_exits_1_naming_path(tmp_path, capsys):
    code = run(["train", "--config", "missing.cfg", "--dataset", "x.tsv"])
    assert code == 1
    assert "missing.cfg" in capsys.readouterr().err


def test_missing_dataset_exits_2(tmp_path):
    assert run(["train", "--dataset", str(tmp_path / "nope.tsv")]) == 2


def test_unknown_flag_exits_1(tmp_path):
    assert run(["gradcheck", "--frobnicate"]) == 1


def test_bad_flag_value_exits_1(tmp_path):
    corpus = synth_corpus(tmp_path)
    assert run(["train", "--dataset", corpus, "--lr", "abc"]) == 1


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("# comment line\n\nlr = 0.01\nbatch-size = 32\nmlp = 8,1\n")
    parsed = parse_config_file(cfg_path)
    assert parsed == {"lr": 0.01, "batch_size": 32, "mlp": (8, 1)}

    class Args:
        config = cfg_path
        lr = "0.1"  # flag wins over file

    for key in CONFIG_KEYS:
        if not hasattr(Args, key):
            setattr(Args, key, None)
    cfg = resolve_config(Args)
    assert cfg.lr == 0.1
    assert cfg.batch_size == 32
    assert cfg.mlp == (8, 1)


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("dropout = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg_path)


def test_train_artifacts_deterministic(tmp_path):
    corpus = synth_corpus(tmp_path)
    outs = []
    for name in ("t1", "t2"):
        out = str(tmp_path / name)
        code = run(["train", "--dataset", corpus, "--out-dir", out, *TINY])
        assert code == 0
        outs.append(out)
    for f in ("history.tsv", "telemetry.tsv", "checkpoint.bin", "config.txt"):
        a = open(os.path.join(outs[0], f), "rb").read()
        b = open(os.path.join(outs[1], f), "rb").read()
        assert a == b, f


def test_resolved_config_round_trips(tmp_path):
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", corpus, "--out-dir", out, *TINY]) == 0
    # provenance lives in comments, so the file feeds straight back in
    parsed = parse_config_file(os.path.join(out, "config.txt"))
    cfg = ExperimentConfig(**parsed).validate()
    assert cfg.emb_dim == 4
    assert cfg.mlp == (8, 1)
    assert cfg.lr == 0.01


def test_ingest_then_train_from_snapshot(tmp_path):
    corpus = synth_corpus(tmp_path)
    ing = str(tmp_path / "ing")
    assert run(["ingest", "--dataset", corpus, "--out-dir", ing,
                "--max-len", "8", "--seed", "1"]) == 0
    splits_path = os.path.join(ing, "splits.txt")
    assert os.path.isfile(splits_path)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", splits_path, "--out-dir", out, *TINY]) == 0
    assert os.path.isfile(os.path.join(out, "checkpoint.bin"))


def ingest_snapshot(tmp_path, max_len):
    ing = str(tmp_path / "ing")
    assert run(["ingest", "--dataset", synth_corpus(tmp_path), "--out-dir", ing,
                "--max-len", str(max_len)]) == 0
    return os.path.join(ing, "splits.txt")


TINY_ANY_LEN = TINY[:-2]  # TINY without its --max-len


def test_train_on_snapshot_records_the_snapshot_max_len(tmp_path):
    snapshot = ingest_snapshot(tmp_path, 4)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", snapshot, "--out-dir", out, *TINY_ANY_LEN]) == 0
    assert parse_config_file(os.path.join(out, "config.txt"))["max_len"] == 4


def test_branches_wider_than_the_snapshot_max_len_exit_1(tmp_path, capsys):
    snapshot = ingest_snapshot(tmp_path, 2)
    capsys.readouterr()
    code = run(["train", "--dataset", snapshot, "--out-dir", str(tmp_path / "t"),
                *TINY_ANY_LEN, "--n-branches", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "max_len (2) must cover the widest branch (3)" in err


def test_max_len_disagreeing_with_the_snapshot_exits_1(tmp_path, capsys):
    snapshot = ingest_snapshot(tmp_path, 4)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("max_len = 8\n")
    for extra in (["--max-len", "8"], ["--config", str(cfg_path)]):
        capsys.readouterr()
        code = run(["train", "--dataset", snapshot, "--out-dir", str(tmp_path / "t"),
                    *TINY_ANY_LEN, *extra])
        assert code == 1, extra
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_len 8 disagrees with the snapshot's max_len 4" in err


def test_eval_matches_train_test_metrics(tmp_path, capsys):
    corpus = synth_corpus(tmp_path)
    ing = str(tmp_path / "ing")
    assert run(["ingest", "--dataset", corpus, "--out-dir", ing,
                "--max-len", "8", "--seed", "1"]) == 0
    splits_path = os.path.join(ing, "splits.txt")
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", splits_path, "--out-dir", out, *TINY]) == 0
    train_out = capsys.readouterr().out
    ev = str(tmp_path / "ev")
    assert run(["eval", "--dataset", splits_path, "--out-dir", ev,
                "--checkpoint", os.path.join(out, "checkpoint.bin"), *TINY]) == 0
    eval_out = capsys.readouterr().out
    train_line = [l for l in train_out.splitlines() if l.startswith("test:")][0]
    auc_str = train_line.split("auc=")[1].split(" ")[0]
    assert f"auc={auc_str}" in eval_out
    metrics = open(os.path.join(ev, "metrics.txt")).read()
    assert f"auc = {auc_str}" in metrics


def test_eval_requires_checkpoint(tmp_path):
    corpus = synth_corpus(tmp_path)
    assert run(["eval", "--dataset", corpus, "--out-dir", str(tmp_path / "e"),
                *TINY]) == 1


def run_within(argv, seconds):
    """run(argv) in a daemon thread; None when it has not returned in time."""
    codes = []
    worker = threading.Thread(target=lambda: codes.append(run(argv)), daemon=True)
    worker.start()
    worker.join(seconds)
    return codes[0] if codes else None


def test_eval_on_diverged_checkpoint_exits_3(tmp_path, capsys):
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", corpus, "--out-dir", out, *TINY]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    arrays = load_arrays(ckpt)
    arrays["base:mlp1_b"][:] = np.nan  # every score becomes NaN
    save_arrays(ckpt, arrays)
    capsys.readouterr()
    code = run_within(["eval", "--dataset", corpus, "--out-dir", str(tmp_path / "e"),
                       "--checkpoint", ckpt, *TINY], 30.0)
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "scores are not finite" in err


def test_eval_on_checkpoint_with_non_utf8_record_name_exits_2(tmp_path, capsys):
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", corpus, "--out-dir", out, *TINY]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    with open(ckpt, "rb") as fh:
        blob = fh.read()
    with open(ckpt, "wb") as fh:
        fh.write(blob.replace(b"base:mlp1_b", b"base:mlp1\xff\xfe", 1))
    capsys.readouterr()
    code = run(["eval", "--dataset", corpus, "--out-dir", str(tmp_path / "e"),
                "--checkpoint", ckpt, *TINY])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ckpt in err and "not UTF-8" in err


def test_train_with_fewer_rows_than_a_batch_exits_2(tmp_path, capsys):
    corpus = synth_corpus(tmp_path)  # 40 users: 80 training rows
    code = run(["train", "--dataset", corpus, "--out-dir", str(tmp_path / "t"),
                "--max-len", "8", "--epochs", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "80 training rows" in err and "batch_size 128" in err


@pytest.mark.parametrize("verb", ["ingest", "train", "sweep", "robustness"])
@pytest.mark.parametrize("min_count", ["0", "-3"])
def test_min_count_below_one_exits_1(tmp_path, capsys, verb, min_count):
    corpus = synth_corpus(tmp_path)
    out = tmp_path / "out"
    extra = {"sweep": ["--axis", "temperature", "--grid", "0.1"],
             "robustness": ["--kind", "noise", "--rates", "0.1"]}.get(verb, [])
    code = run([verb, "--dataset", corpus, "--out-dir", str(out), "--min-count", min_count,
                *TINY, *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--min-count must be >= 1, got {min_count}" in err
    assert not (out / "config.txt").exists()


BAD_VALUES = [
    ("--alpha-interest", "nan", "must be finite"),
    ("--alpha-feature", "inf", "must be finite"),
    ("--lr", "nan", "must be finite"),
    ("--lr", "inf", "must be finite"),
    ("--tau", "nan", "must be finite"),
    ("--tau", "inf", "must be finite"),
    ("--mlp", "8,0,1", "widths must be >= 1"),
    ("--enc-feature", "5,0", "widths must be >= 1"),
]


@pytest.mark.parametrize("flag, value, reason", BAD_VALUES, ids=[f"{f}={v}" for f, v, _ in BAD_VALUES])
def test_non_finite_rate_or_zero_width_exits_1(tmp_path, capsys, flag, value, reason):
    corpus = synth_corpus(tmp_path)
    out = tmp_path / "out"
    code = run(["train", "--dataset", corpus, "--out-dir", str(out), *TINY, flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag[2:].replace('-', '_')} {reason}, got {value}" in err
    assert not (out / "config.txt").exists()


def test_non_text_dataset_exits_2_naming_path(tmp_path, capsys):
    container = str(tmp_path / "checkpoint.bin")  # an array container, not a snapshot
    save_arrays(container, {"w": np.linspace(-1.0, 1.0, 64)})
    raw = tmp_path / "raw.bin"  # not even the first line decodes
    raw.write_bytes(bytes(range(128, 256)) + b"\n")
    for path in (container, str(raw)):
        code = run(["eval", "--dataset", path, "--checkpoint", container,
                    "--out-dir", str(tmp_path / "e"), *TINY])
        assert code == 2, path
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and path in err


def test_train_on_snapshot_with_out_of_vocab_id_exits_2(tmp_path, capsys):
    from missctr.data import load_splits, save_splits

    corpus = synth_corpus(tmp_path)
    ing = str(tmp_path / "ing")
    assert run(["ingest", "--dataset", corpus, "--out-dir", ing,
                "--max-len", "8", "--seed", "1"]) == 0
    splits_path = os.path.join(ing, "splits.txt")
    splits = load_splits(splits_path)
    splits.train.cand[5, 0] = 10**6
    save_splits(splits, splits_path)
    capsys.readouterr()
    code = run(["train", "--dataset", splits_path, "--out-dir", str(tmp_path / "t"), *TINY])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and splits_path in err and "item id outside" in err


def test_sweep_writes_sorted_report(tmp_path):
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "sw")
    code = run([
        "sweep", "--dataset", corpus, "--out-dir", out,
        "--axis", "temperature", "--grid", "1.0,0.1", "--seeds", "0",
        "--emb-dim", "3", "--batch-size", "16", "--mlp", "4,1",
        "--enc-interest", "4", "--enc-feature", "3", "--epochs", "1",
        "--max-len", "8",
    ])
    assert code == 0
    path = os.path.join(out, "sweep_temperature_synth.tsv")
    lines = open(path).read().splitlines()
    assert lines[0].split("\t")[0] == "value"
    values = [float(l.split("\t")[0]) for l in lines[1:]]
    assert values == sorted(values) == [0.1, 1.0]


def test_robustness_report_and_identity_row(tmp_path):
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "rb")
    code = run([
        "robustness", "--dataset", corpus, "--out-dir", out,
        "--kind", "sparsity", "--rates", "1.0", "--seeds", "0",
        "--emb-dim", "3", "--batch-size", "16", "--mlp", "4,1",
        "--enc-interest", "4", "--enc-feature", "3", "--epochs", "1",
        "--max-len", "8",
    ])
    assert code == 0
    lines = open(os.path.join(out, "robustness_sparsity_synth.tsv")).read().splitlines()
    assert lines[0] == "rate\tauc_base\tauc_miss\trelative_improvement"
    rate, ab, am, ri = (float(x) for x in lines[1].split("\t"))
    assert rate == 1.0
    assert abs(ri - (am - ab) / ab) <= 1e-15


def test_gradcheck_passes(capsys):
    assert run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max-rel-error" in out
    assert "pass" in out


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("MISS_OUT_DIR", str(tmp_path / "envout"))
    a = synth_corpus(tmp_path)  # explicit --out-dir, env ignored
    code = run(["ingest", "--dataset", a, "--max-len", "8"])
    assert code == 0
    assert os.path.isfile(str(tmp_path / "envout" / "splits.txt"))


# ---------------------------------------------------------------------------
# summary counts


def summary_splits():
    from missctr.data import SampleSet, Splits

    rng = np.random.default_rng(0)
    n, J, L = 8, 2, 6
    seq = np.zeros((n, J, L), dtype=np.int64)
    seq[:, :, 2:] = rng.integers(2, 9, size=(n, J, 4))
    part = SampleSet(
        cat=rng.integers(2, 9, size=(n, 1)),
        seq=seq,
        seq_len=np.full(n, 4, dtype=np.int64),
        cand=rng.integers(2, 9, size=(n, J)),
        label=np.tile([1, 0], n // 2).astype(np.int64),
    )
    return Splits(
        train=part, valid=part, test=part,
        cat_fields=["user"], seq_fields=["item", "attr_1"],
        vocab_sizes={"user": 9, "item": 9, "attr_1": 9}, max_len=L,
    )


def test_summary_conv_examples():
    for n_branches, n_depths, want in ((4, 2, "22"), (1, 1, "2")):
        model = build_model(ExperimentConfig(n_branches=n_branches, n_depths=n_depths),
                            summary_splits())
        text = model_summary(model)
        conv_line = [l for l in text.splitlines() if l.startswith("conv bank")][0]
        assert conv_line.split()[-1] == want


def test_summary_matches_built_model():
    cfg = ExperimentConfig(
        emb_dim=4, mlp=(8, 1), enc_interest=(6,), enc_feature=(5,),
        n_branches=2, n_depths=2, max_len=6,
    )
    model = build_model(cfg, summary_splits())
    text = model_summary(model)
    assert [l[:18].rstrip() for l in text.splitlines()] == [
        "embedding tables", "attention unit", "prediction mlp", "conv bank",
        "interest encoder", "feature encoder", "total",
    ]
    total_line = [l for l in text.splitlines() if l.startswith("total")][0]
    want = sum(p.data.size for p in model.parameters().values())
    assert int(total_line.split()[-1]) == want

    # the summary's per-component split also matches the component sums
    by_component = {
        "embedding tables": sum(t.data.size for t in model.tables.values()),
        "attention unit": sum(
            t.data.size for k, t in model.base.named().items() if k.startswith("lau")
        ),
        "prediction mlp": sum(
            t.data.size for k, t in model.base.named().items() if k.startswith("mlp")
        ),
        "conv bank": model.conv.param_count(),
        "interest encoder": sum(w.data.size for w in model.enc_interest.weights),
        "feature encoder": sum(w.data.size for w in model.enc_feature.weights),
    }
    for line in text.splitlines():
        for name, want_n in by_component.items():
            if line.startswith(name):
                assert int(line.split()[-1]) == want_n, name
