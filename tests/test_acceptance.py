"""Acceptance gate: one test per shipping criterion, ordered.

Each test prints a single summary line with its measured numbers; the
pytest verdict per test is the pass/fail record.  The synthetic-corpus
runs share one module-scoped dataset so the gate stays inside its time
budget.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from missctr import autodiff as ad
from missctr import interests as it
from missctr.cli import run
from missctr.data import build_splits, synth_generate
from missctr.gradcheck import tiny_instance_check
from missctr.harness import robustness_study, run_experiment
from missctr.metrics import auc
from missctr.trainer import ExperimentConfig, train
from oracles import brute_force_auc, naive_field_conv, naive_infonce, naive_time_conv

# shared configuration for the synthetic-corpus experiments; every value
# sits on the published search grids
SYNTH_CFG = ExperimentConfig(
    emb_dim=10, batch_size=128, mlp=(40, 40, 40, 1),
    enc_interest=(20, 20), enc_feature=(10, 10),
    lr=1e-2, alpha_interest=0.5, alpha_feature=0.5, tau=0.1,
    n_branches=2, n_depths=2, max_offset=2, max_len=16,
    epochs=10, patience=3,
)


@pytest.fixture(scope="module")
def synth_splits():
    log = synth_generate(2000, 500, 5, (8, 16), seed=0)
    return build_splits(log, max_len=16, seed=0)


# ---------------------------------------------------------------------------
# 1: analytic gradients match finite differences on the tiny instance


def test_01_gradient_check_tiny_instance():
    t0 = time.time()
    report = tiny_instance_check(rel_tol=1e-4, abs_tol=1e-6)
    dt = time.time() - t0
    assert report.ok, "\n".join(report.lines())
    assert dt < 60.0, f"gradient check took {dt:.1f}s"
    n = sum(c.n for c in report.checks)
    print(f"PASS gradient check: {n} components, max_rel={report.worst_rel:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2 + 3: extractor outputs bitwise-equal a nested-loop oracle; counts obey
# the window laws


def _fuzz_instances(n_trials):
    rng = np.random.default_rng(202)
    for _ in range(n_trials):
        n_j = int(rng.integers(1, 5))
        n_l = int(rng.integers(2, 13))
        n_k = int(rng.integers(1, 7))
        n_m = int(rng.integers(1, min(4, n_l) + 1))
        n_n = int(rng.integers(1, min(2, n_j) + 1))
        yield rng, n_j, n_l, n_k, n_m, n_n


def test_02_extractor_bitwise_oracle():
    checked = 0
    for rng, n_j, n_l, n_k, n_m, n_n in _fuzz_instances(100):
        conv = it.init_conv_bank(n_m, n_n, rng)
        C = rng.normal(size=(2, n_j, n_l, n_k))
        ad.fresh_graph()
        bank = it.mie_forward(ad.constant(C), np.ones((2, n_l)), conv)
        fine = it.mimfe_forward(bank, conv)
        for bi, g in enumerate(conv.horizontal):
            for b in range(2):
                ref = naive_time_conv(C[b], g.data)
                assert np.array_equal(bank.branches[bi].data[b], ref)
                for di, gv in enumerate(conv.vertical[bi]):
                    refined = fine.maps[(bi, di)].data[b]
                    assert np.array_equal(refined, naive_field_conv(ref, gv.data))
                    checked += 1
    print(f"PASS extractor oracle: 100 instances bitwise equal ({checked} refined maps)")


def test_03_shape_and_count_laws():
    for rng, n_j, n_l, n_k, n_m, n_n in _fuzz_instances(100):
        conv = it.init_conv_bank(n_m, n_n, rng)
        C = rng.normal(size=(1, n_j, n_l, n_k))
        ad.fresh_graph()
        bank = it.mie_forward(ad.constant(C), np.ones((1, n_l)), conv)
        fine = it.mimfe_forward(bank, conv)
        assert bank.n_vectors == sum(n_l - m + 1 for m in range(1, n_m + 1))
        for bi in range(n_m):
            width = bi + 1
            assert bank.branches[bi].shape == (1, n_j, n_l - width + 1, n_k)
            for di in range(n_n):
                depth = di + 1
                assert fine.maps[(bi, di)].shape[1] == n_j - depth + 1
        rows = sum(t.shape[1] for (bi, _), t in fine.maps.items() if bi == 0)
        assert rows == sum(n_j - n + 1 for n in range(1, n_n + 1))
        n_kernel = sum(g.data.size for g in conv.named().values())
        assert n_kernel == n_m * (n_m + 1) // 2 + n_m * (n_n * (n_n + 1) // 2)
    print("PASS shape laws: window counts, refined-row counts, kernel counts on 100 instances")


# ---------------------------------------------------------------------------
# 4: the contrastive loss equals explicit softmax cross-entropy


def test_04_infonce_matches_explicit_softmax():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(50):
        n = int(rng.choice([2, 4, 8]))
        tau = float(rng.choice([0.05, 0.1, 1.0]))
        d = int(rng.integers(1, 7))
        z1 = rng.normal(size=(n, d))
        z2 = rng.normal(size=(n, d))
        ad.fresh_graph()
        got = float(it.infonce(ad.constant(z1), ad.constant(z2), tau).data)
        want = naive_infonce(z1, z2, tau)
        err = abs(got - want)
        worst = max(worst, err)
        assert err < 1e-10, f"trial {trial}: |{got} - {want}| = {err}"
    print(f"PASS contrastive-loss oracle: 50 batches, worst |diff| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5: rank-based AUC equals brute-force pair counting exactly


def test_05_auc_equals_pair_counting():
    rng = np.random.default_rng(55)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # alternate tie-heavy and continuous scores
        scores = (rng.integers(0, 8, size=n) / 8.0) if trial % 2 else rng.random(n)
        got = auc(scores, labels)
        want = brute_force_auc(scores.tolist(), labels.tolist())
        assert got == want, f"trial {trial}: {got!r} != {want!r}"
    print("PASS ranking-metric oracle: 100 instances, exact equality")


# ---------------------------------------------------------------------------
# 6: the auxiliary losses buy a real accuracy gap on planted interests


def test_06_directional_synthetic_gap(synth_splits):
    t0 = time.time()
    gaps = []
    for seed in range(5):
        aucs = {}
        for model in ("din", "din-miss"):
            cfg = replace(SYNTH_CFG, model=model, seed=seed)
            _, report = run_experiment(cfg, synth_splits)
            aucs[model] = report.auc
        gaps.append(aucs["din-miss"] - aucs["din"])
    dt = time.time() - t0
    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 0.01, f"mean gap {mean_gap:+.4f}, per-seed {gaps}"
    assert dt < 900.0, f"directional run took {dt:.0f}s"
    per_seed = " ".join(f"{g:+.3f}" for g in gaps)
    print(f"PASS directional gap: mean {mean_gap:+.4f} over 5 seeds ({per_seed}), {dt:.0f}s")


# ---------------------------------------------------------------------------
# 7: zero-weight auxiliaries leave the base trajectory untouched


def test_07_zero_weight_bitwise_equivalence(synth_splits):
    cfg_off = replace(SYNTH_CFG, alpha_interest=0.0, alpha_feature=0.0, epochs=3, seed=1)
    cfg_din = replace(SYNTH_CFG, model="din", epochs=3, seed=1)
    a = train(cfg_off, synth_splits)
    b = train(cfg_din, synth_splits)
    assert [r.total for r in a.telemetry] == [r.total for r in b.telemetry]
    assert [r.val_auc for r in a.history] == [r.val_auc for r in b.history]
    pa, pb = a.model.parameters(), b.model.parameters()
    n_arrays = 0
    for k in a.model.base_parameters():
        assert np.array_equal(pa[k].data, pb[k].data), k
        n_arrays += 1
    print(f"PASS zero-weight equivalence: {len(a.telemetry)} steps and "
          f"{n_arrays} parameter arrays bit-identical")


# ---------------------------------------------------------------------------
# 8: every CLI verb is rerun-deterministic, artifact for artifact


def _run_twice(tmp_path, name, argv_fn, files):
    """Run a verb into two directories; compare the named artifacts."""
    dirs = [str(tmp_path / f"{name}{i}") for i in (1, 2)]
    for d in dirs:
        assert run(argv_fn(d)) == 0, name
    for f in files:
        a = open(os.path.join(dirs[0], f), "rb").read()
        b = open(os.path.join(dirs[1], f), "rb").read()
        assert a == b, f"{name}/{f} differs between reruns"
    return dirs[0]


def test_08_cli_rerun_byte_identical(tmp_path, capsys):
    tiny = [
        "--emb-dim", "4", "--batch-size", "16", "--mlp", "8,1",
        "--enc-interest", "6", "--enc-feature", "5", "--epochs", "1",
        "--lr", "1e-2", "--max-len", "8",
    ]
    synth_dir = _run_twice(
        tmp_path, "synth",
        lambda d: ["synth", "--n-users", "40", "--n-items", "20",
                   "--n-interests", "4", "--seq-len-min", "6", "--seq-len-max", "10",
                   "--seed", "7", "--out-dir", d],
        ["synth.tsv", "config.txt"],
    )
    corpus = os.path.join(synth_dir, "synth.tsv")
    ingest_dir = _run_twice(
        tmp_path, "ingest",
        lambda d: ["ingest", "--dataset", corpus, "--out-dir", d,
                   "--max-len", "8", "--seed", "1"],
        ["splits.txt", "config.txt"],
    )
    snapshot = os.path.join(ingest_dir, "splits.txt")
    train_dir = _run_twice(
        tmp_path, "train",
        lambda d: ["train", "--dataset", snapshot, "--out-dir", d, *tiny],
        ["history.tsv", "telemetry.tsv", "checkpoint.bin", "config.txt"],
    )
    ckpt = os.path.join(train_dir, "checkpoint.bin")
    _run_twice(
        tmp_path, "eval",
        lambda d: ["eval", "--dataset", snapshot, "--checkpoint", ckpt,
                   "--out-dir", d, *tiny],
        ["metrics.txt", "config.txt"],
    )
    _run_twice(
        tmp_path, "sweep",
        lambda d: ["sweep", "--dataset", snapshot, "--out-dir", d,
                   "--axis", "loss_weight", "--grid", "0.1,1.0", "--seeds", "0", *tiny],
        ["sweep_loss_weight_splits.tsv", "config.txt"],
    )
    _run_twice(
        tmp_path, "robustness",
        lambda d: ["robustness", "--dataset", snapshot, "--out-dir", d,
                   "--kind", "noise", "--rates", "0.1", "--seeds", "0", *tiny],
        ["robustness_noise_splits.tsv", "config.txt"],
    )
    capsys.readouterr()
    assert run(["gradcheck"]) == 0
    first = capsys.readouterr().out
    assert run(["gradcheck"]) == 0
    assert capsys.readouterr().out == first
    print("PASS rerun determinism: 7 verbs, every artifact byte-identical")


# ---------------------------------------------------------------------------
# 9: the robustness harness completes its published grids; identity rows
# match clean runs and the improvement column is pure arithmetic


def test_09_robustness_grids(synth_splits):
    cfg_miss = replace(SYNTH_CFG, epochs=4)
    cfg_base = replace(cfg_miss, model="din")
    _, clean_base = run_experiment(replace(cfg_base, seed=0), synth_splits)
    _, clean_miss = run_experiment(replace(cfg_miss, seed=0), synth_splits)

    spars = robustness_study(
        "sparsity", [1.0, 0.9, 0.8], cfg_base, cfg_miss, synth_splits, seeds=[0],
    )
    noise = robustness_study(
        "noise", [0.0, 0.1, 0.2], cfg_base, cfg_miss, synth_splits, seeds=[0],
    )
    assert abs(spars.rows[0].auc_base - clean_base.auc) <= 1e-12
    assert abs(spars.rows[0].auc_miss - clean_miss.auc) <= 1e-12
    assert abs(noise.rows[0].auc_base - clean_base.auc) <= 1e-12
    assert abs(noise.rows[0].auc_miss - clean_miss.auc) <= 1e-12
    for report in (spars, noise):
        for row in report.rows:
            assert row.ri == (row.auc_miss - row.auc_base) / row.auc_base
    print(f"PASS robustness grids: sparsity {[r.rate for r in spars.rows]} and "
          f"noise {[r.rate for r in noise.rows]} complete, identity rows exact")


# ---------------------------------------------------------------------------
# 10: pair-similarity telemetry is sane at every step


def test_10_similarity_telemetry(synth_splits):
    cfg = replace(SYNTH_CFG, epochs=3, patience=10)
    result = train(cfg, synth_splits)
    assert len(result.history) == 3
    assert result.telemetry
    for row in result.telemetry:
        for s in (row.sim_mean, row.sim_min, row.sim_max):
            assert np.isfinite(s), f"step {row.step}: non-finite similarity"
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12, f"step {row.step}: {s}"
        assert row.sim_min <= row.sim_mean <= row.sim_max
    print(f"PASS similarity telemetry: {len(result.telemetry)} steps, "
          f"all pair cosines finite and bounded")
