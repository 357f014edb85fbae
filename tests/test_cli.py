"""End-to-end command-line runs in temp directories: artifact
determinism, exit codes, config precedence, and the summary counts."""

import os
import re
import resource
import shlex
import subprocess
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import pack_splits
from test_data import FUZZ, per_row_layout

import missctr
import missctr.harness
from missctr.cli import (
    CONFIG_KEYS,
    build_parser,
    model_summary,
    parse_config_file,
    resolve_config,
    run,
    write_resolved_config,
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


def test_resolved_config_file_round_trips_every_field(tmp_path):
    cfg = ExperimentConfig(
        emb_dim=6, batch_size=32, mlp=(12, 6, 1), enc_interest=(7, 3), enc_feature=(5,),
        lr=1e-2, alpha_interest=0.1, alpha_feature=0.1, tau=0.05, n_branches=3, n_depths=1,
        max_offset=4, max_len=12, n_pairs_interest=5, n_pairs_feature=None, epochs=4,
        patience=2, seed=9, strategy="pretrain", model="din", grid_mode=True,
    ).validate()
    for f in fields(ExperimentConfig):
        if f.name != "n_pairs_feature":  # left unset: "none" must round-trip too
            assert getattr(cfg, f.name) != f.default, f.name
    path = write_resolved_config(str(tmp_path), cfg, {"verb": "train"})
    assert ExperimentConfig(**parse_config_file(path)) == cfg


def test_synth_rerun_byte_identical(tmp_path):
    a = synth_corpus(tmp_path / "a", seed=7)
    b = synth_corpus(tmp_path / "b", seed=7)
    assert open(a, "rb").read() == open(b, "rb").read()
    c = synth_corpus(tmp_path / "c", seed=8)
    assert open(a, "rb").read() != open(c, "rb").read()


def readme_text():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def readme_commands():
    """Every `missctr ...` line inside a code block of the README."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme_text(), flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("missctr ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    for line in commands:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_config_keys_are_the_config_fields():
    # the backticked keys after the paragraph's colon, value lists in
    # parentheses left out, are CONFIG_KEYS in kebab-case and in order
    para = re.search(r"^The config keys are exactly.*?(?=\n\n)", readme_text(),
                     flags=re.M | re.S).group(0)
    listed = re.sub(r"\([^)]*\)", "", para).split(":", 1)[1]
    assert re.findall(r"`([^`]+)`", listed) == [k.replace("_", "-") for k in CONFIG_KEYS]


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


def test_snapshot_max_len_admits_branches_wider_than_the_default(tmp_path):
    # 31 branches need max_len >= 31: the snapshot's 40 covers them, and
    # the default 30 must not be checked first
    snapshot = ingest_snapshot(tmp_path, 40)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", snapshot, "--out-dir", out,
                *TINY_ANY_LEN, "--n-branches", "31"]) == 0
    assert parse_config_file(os.path.join(out, "config.txt"))["max_len"] == 40


def test_config_error_comes_before_a_missing_dataset(tmp_path, capsys):
    code = run(["train", "--dataset", str(tmp_path / "nope.tsv"), "--n-branches", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_branches must be >= 1" in err


# a verb's own flags, each with the message its error names
BAD_VERB_FLAGS = {
    "eval without --checkpoint": (["eval"], "--checkpoint is required for eval"),
    "eval --checkpoint missing": (["eval", "--checkpoint", "nope.bin"], "checkpoint not found: "),
    "sweep --grid abc": (["sweep", "--axis", "temperature", "--grid", "abc"], "bad --grid list"),
    "sweep --seeds x": (["sweep", "--axis", "temperature", "--grid", "0.1", "--seeds", "x"],
                        "bad --seeds list"),
    "robustness --rates 0.1,0.1": (["robustness", "--kind", "noise", "--rates", "0.1,0.1"],
                                   "--rates repeats 0.1"),
    "robustness --seeds ''": (["robustness", "--kind", "noise", "--rates", "0.1", "--seeds", ""],
                              "--seeds list is empty"),
    "sweep --grid 7 in grid mode": (["sweep", "--grid-mode", "--lr", "0.01", "--axis", "temperature",
                                     "--grid", "7"],
                                    "temperature=7.0 seed=0: grid mode: tau=7.0 not in "),
    "robustness --rates 1.5": (["robustness", "--kind", "sparsity", "--rates", "1.5"],
                               "sparsity rate must lie in (0, 1], got 1.5"),
    # studies that could vary nothing they train
    "sweep of din": (["sweep", "--model", "din", "--axis", "temperature", "--grid", "0.1,5"],
                     "a temperature sweep of din is a no-op"),
    "temperature sweep without loss weights": (
        ["sweep", "--alpha-interest", "0", "--alpha-feature", "0", "--axis", "temperature",
         "--grid", "0.1,5"],
        "din-miss with both loss weights 0 is din: a temperature study is a no-op"),
    "robustness without loss weights": (
        ["robustness", "--alpha-interest", "0", "--alpha-feature", "0", "--kind", "noise",
         "--rates", "0.0,0.2"],
        "din-miss with both loss weights 0 is din: a noise study is a no-op"),
    "robustness --model din": (
        ["robustness", "--model", "din", "--kind", "noise", "--rates", "0.0", "--seeds", "0"],
        "robustness compares din with din-miss: got model = din"),
}


@pytest.mark.parametrize("case", BAD_VERB_FLAGS)
@pytest.mark.parametrize("dataset", ["missing", "corpus"])
def test_bad_verb_flag_exits_1_before_the_dataset_or_out_dir(tmp_path, capsys, case, dataset):
    # exit 1 naming the flag, even when the dataset is missing (exit 2),
    # and the out dir is never made
    argv, message = BAD_VERB_FLAGS[case]
    path = synth_corpus(tmp_path) if dataset == "corpus" else str(tmp_path / "missing.tsv")
    capsys.readouterr()
    out = tmp_path / "out"
    code = run([argv[0], "--dataset", path, "--out-dir", str(out), *TINY, *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1 and message in err, err
    assert not out.exists()


def _mismatched_checkpoint(tmp_path):
    path = str(tmp_path / "other.bin")
    save_arrays(path, {"w": np.zeros(3)})
    return ["--checkpoint", path]


# a verb that fails after its flags are read, its exit code, and the
# message it names
FAILED_RUNS = {
    "ingest of a missing dataset": ("ingest", "missing", lambda tmp_path: [], 2,
                                    "dataset not found: "),
    "eval of a mismatched checkpoint": ("eval", "corpus", _mismatched_checkpoint, 1,
                                        "checkpoint/model mismatch: "),
}


@pytest.mark.parametrize("case", FAILED_RUNS)
def test_a_failed_verb_leaves_no_out_dir(tmp_path, capsys, case):
    verb, dataset, extra, want_code, message = FAILED_RUNS[case]
    path = synth_corpus(tmp_path) if dataset == "corpus" else str(tmp_path / "missing.tsv")
    capsys.readouterr()
    out = tmp_path / "out"
    code = run([verb, "--dataset", path, "--out-dir", str(out), *TINY, *extra(tmp_path)])
    err = capsys.readouterr().err
    assert code == want_code and err.count("\n") == 1 and message in err, err
    assert not out.exists()


# per verb, the flags that get it past its own checks
VERB_FLAGS = {
    "synth": [],
    "ingest": [],
    "train": [],
    "eval": ["--checkpoint", os.path.abspath(__file__)],
    "sweep": ["--axis", "temperature", "--grid", "0.1"],
    "robustness": ["--kind", "sparsity", "--rates", "1.0"],
}


@pytest.mark.parametrize("verb", VERB_FLAGS)
def test_unwritable_out_dir_exits_1_before_any_work(tmp_path, capsys, verb):
    # a file where the out dir's parent should be is refused before synth
    # generates its corpus or a dataset verb looks for its (missing) dataset
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    argv = [verb, "--out-dir", out, *VERB_FLAGS[verb]]
    if verb != "synth":
        argv += ["--dataset", str(tmp_path / "missing.tsv")]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1 and f"--out-dir {out}: " in err, err
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_unwritable_out_dir_env_default_exits_1(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("MISS_OUT_DIR", str(blocker / "sub"))
    assert run(["ingest", "--dataset", str(tmp_path / "missing.tsv")]) == 1
    assert f"--out-dir {blocker / 'sub'}: " in capsys.readouterr().err


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
    arrays["base:mlp1_b"][:] = np.nan  # every score would be NaN
    save_arrays(ckpt, arrays)
    capsys.readouterr()
    code = run_within(["eval", "--dataset", corpus, "--out-dir", str(tmp_path / "e"),
                       "--checkpoint", ckpt, *TINY], 30.0)
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "checkpoint record 'base:mlp1_b' is not finite" in err


def test_eval_on_checkpoint_with_width_one_kernels_exits_1(tmp_path, capsys):
    # a checkpoint written while the width-1 kernels were parameters
    # holds a record for each; the model no longer has one to load it into
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", corpus, "--out-dir", out, *TINY]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    old = ["ssl:conv_g1", "ssl:conv_g1v1", "ssl:conv_g2v1"]
    save_arrays(ckpt, load_arrays(ckpt) | {name: np.full(1, 0.25) for name in old})
    capsys.readouterr()
    code = run(["eval", "--dataset", corpus, "--out-dir", str(tmp_path / "e"),
                "--checkpoint", ckpt, *TINY])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1, err
    assert f"checkpoint/model mismatch: missing [], unexpected {old}" in err
    assert not (tmp_path / "e").exists()


def test_eval_din_on_checkpoint_with_ssl_records_exits_1(tmp_path, capsys):
    # a din model holds no ssl: parameter, so a checkpoint with ssl:
    # records, here a din-miss run's, does not load into it
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", corpus, "--out-dir", out, *TINY]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    ssl = sorted(k for k in load_arrays(ckpt) if k.startswith("ssl:"))
    assert ssl
    capsys.readouterr()
    code = run(["eval", "--dataset", corpus, "--out-dir", str(tmp_path / "e"),
                "--checkpoint", ckpt, "--model", "din", *TINY])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1, err
    assert f"checkpoint/model mismatch: missing [], unexpected {ssl}" in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("record, index, value", [
    ("ssl:enc_int_w0", (0, 0), np.nan),  # feeds no score, so scoring cannot catch it
    ("emb:user", (1, 0), np.inf),  # a row no sample looks up
])
def test_eval_on_non_finite_checkpoint_record_exits_3(tmp_path, capsys, record, index, value):
    corpus = synth_corpus(tmp_path)
    out = str(tmp_path / "t")
    assert run(["train", "--dataset", corpus, "--out-dir", out, *TINY]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    arrays = load_arrays(ckpt)
    arrays[record][index] = value
    save_arrays(ckpt, arrays)
    capsys.readouterr()
    code = run(["eval", "--dataset", corpus, "--out-dir", str(tmp_path / "e"),
                "--checkpoint", ckpt, *TINY])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"checkpoint record {record!r} is not finite" in err


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
    assert not out.exists()


@pytest.mark.parametrize("min_count", ["50", "0"])
def test_snapshot_with_a_min_count_exits_1_before_its_body_is_read(
        tmp_path, capsys, monkeypatch, min_count):
    # the snapshot was filtered when it was ingested; a min_count here
    # would be recorded in config.txt and never applied
    snapshot = ingest_snapshot(tmp_path, 8)
    capsys.readouterr()

    def no_load(path):
        raise AssertionError("the snapshot was read before --min-count was checked")

    monkeypatch.setattr(missctr.cli.dt, "load_splits", no_load)
    out = tmp_path / "out"
    code = run(["train", "--dataset", snapshot, "--out-dir", str(out), "--min-count", min_count,
                *TINY])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1, err
    assert f"--min-count {min_count} is for a raw log, not a snapshot" in err, err
    assert not out.exists()


NEGATIVE_SEEDS = {
    "train": ["--seed", "-1"],
    "ingest": ["--seed", "-2"],
    "sweep": ["--axis", "temperature", "--grid", "0.1", "--seeds", "0,-1"],
    "robustness": ["--kind", "noise", "--rates", "0.1", "--seeds", "-1"],
}


@pytest.mark.parametrize("verb", NEGATIVE_SEEDS)
def test_negative_seed_exits_1_before_any_run(tmp_path, capsys, monkeypatch, verb):
    corpus = synth_corpus(tmp_path)
    capsys.readouterr()

    def no_run(*args):
        raise AssertionError("a run trained before the seeds were checked")

    monkeypatch.setattr(missctr.harness, "run_experiment", no_run)
    code = run([verb, "--dataset", corpus, "--out-dir", str(tmp_path / "out"), *TINY,
                *NEGATIVE_SEEDS[verb]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: seed must be >= 0, got -")


def _count_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(missctr.harness, "run_experiment", lambda *args: calls.append(args))
    return calls


def test_sweep_validates_every_grid_value_before_any_run(tmp_path, capsys, monkeypatch):
    corpus = synth_corpus(tmp_path)
    capsys.readouterr()
    calls = _count_runs(monkeypatch)
    code = run(["sweep", "--dataset", corpus, "--out-dir", str(tmp_path / "out"), *TINY,
                "--grid-mode", "--lr", "0.01", "--axis", "temperature", "--grid", "0.1,0.5,7",
                "--seeds", "0,1"])
    assert code == 1 and calls == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: temperature=7.0 seed=0: grid mode: tau=7.0 not in ")


REPEATS = {
    "sweep --seeds": (["sweep", "--axis", "temperature", "--grid", "0.1", "--seeds", "0,3,3"],
                      "--seeds repeats 3"),
    "sweep --grid": (["sweep", "--axis", "loss_weight", "--grid", "0.5,0.1,0.50"],
                     "--grid repeats 0.5"),
    "robustness --rates": (["robustness", "--kind", "noise", "--rates", "0.2 0.2"],
                           "--rates repeats 0.2"),
    "robustness --seeds": (["robustness", "--kind", "noise", "--rates", "0.2", "--seeds", "1,1"],
                           "--seeds repeats 1"),
}


@pytest.mark.parametrize("case", REPEATS)
def test_repeated_list_entry_exits_1_before_any_run(tmp_path, capsys, monkeypatch, case):
    corpus = synth_corpus(tmp_path)
    capsys.readouterr()
    calls = _count_runs(monkeypatch)
    argv, message = REPEATS[case]
    code = run([argv[0], "--dataset", corpus, "--out-dir", str(tmp_path / "out"), *TINY,
                *argv[1:]])
    assert code == 1 and calls == []
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-3"), ("--n-users", "0"), ("--n-users", "-5"), ("--n-items", "0"),
    ("--n-interests", "0"),
])
def test_synth_out_of_range_count_or_seed_exits_1(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = run(["synth", "--out-dir", str(out), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be >= ")
    assert not out.exists()


def test_non_utf8_config_exits_1_naming_path(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(b"lr = 0.01\n# caf\xe9\n")
    code = run(["train", "--config", str(cfg_path), "--dataset", str(tmp_path / "x.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(cfg_path) in err


CONFIG_LINE = st.tuples(
    st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=6)),
    st.sampled_from(["=", " = ", " ", ""]),
    st.one_of(st.text(alphabet="0123456789.,- eEnoifatrus", max_size=10), st.text(max_size=10)),
).map("".join)
CONFIG_TEXT = st.lists(CONFIG_LINE, max_size=6).map("\n".join).map(str.encode)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@FUZZ
@given(body=st.one_of(st.binary(max_size=400), CONFIG_TEXT))
def test_fuzz_parse_config_file(fuzz_dir, body):
    path = fuzz_dir / "fuzz.cfg"
    path.write_bytes(body)
    try:
        assert isinstance(parse_config_file(str(path)), dict)
    except ConfigError:
        pass


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


def test_train_on_a_per_row_window_snapshot_exits_2(tmp_path, capsys):
    from missctr.data import load_splits

    snapshot = ingest_snapshot(tmp_path, 8)
    save_arrays(snapshot, per_row_layout(load_splits(snapshot)))
    capsys.readouterr()
    code = run(["train", "--dataset", snapshot, "--out-dir", str(tmp_path / "t"), *TINY])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and snapshot in err and "rerun `missctr ingest`" in err


MEMORY_CAP = 1536 << 20  # bytes of address space for the child: numpy starts, no huge array fits


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize("flag, value", [("--emb-dim", "100000000"), ("--max-len", "1000000000")])
def test_size_key_past_memory_exits_1_in_one_line(tmp_path, flag, value):
    # in a child process under an address-space cap, so the array the key
    # sizes fails to allocate instead of taking the host's memory
    corpus = synth_corpus(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(missctr.__file__)),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "missctr.cli", "train", "--dataset", corpus,
         "--out-dir", str(tmp_path / "t"), *TINY, flag, value],
        env=env, preexec_fn=_cap_memory, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: out of memory: "), proc.stderr


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


def test_robustness_writes_each_runs_pair_reproducibly(tmp_path, capsys):
    corpus = synth_corpus(tmp_path)
    argv = ["robustness", "--dataset", corpus, *TINY, "--kind", "noise", "--rates", "0.3,0.0",
            "--seeds", "1,0"]
    files = ["robustness_noise_synth.tsv", "robustness_runs_noise_synth.tsv"]
    outs = [str(tmp_path / f"rb{i}") for i in (1, 2)]
    for out in outs:
        assert run([*argv, "--out-dir", out]) == 0
    for f in files:
        first, second = (open(os.path.join(out, f), "rb").read() for out in outs)
        assert first == second, f
    summary, runs = (open(os.path.join(outs[0], f)).read().splitlines() for f in files)
    assert runs[0].split("\t") == ["rate", "seed", "auc_base", "auc_miss", "auc_gap",
                                   "logloss_base", "logloss_miss"]
    cells = [line.split("\t") for line in runs[1:]]
    assert [(c[0], c[1]) for c in cells] == [("0.3", "1"), ("0.3", "0"), ("0.0", "1"), ("0.0", "0")]
    for c in cells:
        assert float(c[4]) == float(c[3]) - float(c[2])
    for line, rate in zip(summary[1:], ("0.3", "0.0")):
        per_seed = [c for c in cells if c[0] == rate]
        rate_cell, auc_base, auc_miss, _ = line.split("\t")
        assert rate_cell == rate
        assert float(auc_base) == float(np.mean([float(c[2]) for c in per_seed]))
        assert float(auc_miss) == float(np.mean([float(c[3]) for c in per_seed]))
    out = capsys.readouterr().out
    assert re.search(r"^  mean gap=\S+ wins [0-2]/2$", out, re.M), out


def test_gradcheck_passes(capsys):
    assert run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "max-rel-error" in out
    assert "pass" in out
    # the width-1 kernels, whose exact gradient is 0, are constants, so
    # every parameter left has a gradient to check
    assert re.search(r" in 18 parameters, 0 unchecked$", out, re.M), out


def test_gradcheck_fails_when_vertical_kernels_get_no_gradient(capsys, monkeypatch):
    # a mutant conv1d that treats every field-axis (axis 1) kernel as a
    # constant: the width-2 vertical kernels, reachable with three
    # sequence fields, must then fail the check
    conv1d = missctr.autodiff.conv1d

    def mutant(x, kernel, axis):
        if axis == 1:
            kernel = missctr.autodiff.Tensor(kernel.data)
        return conv1d(x, kernel, axis)

    monkeypatch.setattr(missctr.autodiff, "conv1d", mutant)
    assert run(["gradcheck"]) == 3
    bad = [line.split(":")[1] for line in capsys.readouterr().out.splitlines() if "BAD" in line]
    assert bad == ["conv_g1v2", "conv_g2v2"]


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("MISS_OUT_DIR", str(tmp_path / "envout"))
    a = synth_corpus(tmp_path)  # explicit --out-dir, env ignored
    code = run(["ingest", "--dataset", a, "--max-len", "8"])
    assert code == 0
    assert os.path.isfile(str(tmp_path / "envout" / "splits.txt"))


# ---------------------------------------------------------------------------
# summary counts


def summary_splits():
    rng = np.random.default_rng(0)
    n, J, L = 8, 2, 6
    seq = np.zeros((n, J, L), dtype=np.int64)
    seq[:, :, 2:] = rng.integers(2, 9, size=(n, J, 4))
    part = dict(
        cat=rng.integers(2, 9, size=(n, 1)),
        seq=seq,
        seq_len=np.full(n, 4, dtype=np.int64),
        cand=rng.integers(2, 9, size=(n, J)),
        label=np.tile([1, 0], n // 2).astype(np.int64),
    )
    return pack_splits(
        [part] * 3, cat_fields=["user"], seq_fields=["item", "attr_1"],
        vocab_sizes={"user": 9, "item": 9, "attr_1": 9}, max_len=L,
    )


def test_summary_conv_examples():
    # only the kernels wider than 1 are parameters: 4x2 counts widths
    # 2-4 horizontal and one width 2 vertical per branch, 1x1 none
    for n_branches, n_depths, want in ((4, 2, "17"), (1, 1, "0")):
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
            t.data.size for k, t in model.base.named().items() if k.startswith("base:lau")
        ),
        "prediction mlp": sum(
            t.data.size for k, t in model.base.named().items() if k.startswith("base:mlp")
        ),
        "conv bank": sum(g.data.size for g in model.conv.named().values() if g.requires_grad),
        "interest encoder": sum(w.data.size for w in model.enc_interest.weights),
        "feature encoder": sum(w.data.size for w in model.enc_feature.weights),
    }
    for line in text.splitlines():
        for name, want_n in by_component.items():
            if line.startswith(name):
                assert int(line.split()[-1]) == want_n, name
