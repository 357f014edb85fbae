"""Trainer: config validation, Adam oracle, determinism, and the
equivalences that tie the auxiliary losses to the base trajectory."""

import math

import numpy as np
import pytest
from oracles import dense_scatter_add, textbook_adam

from missctr import autodiff as ad
from missctr.autodiff import Tensor
from missctr.data import SampleSet, Splits
from missctr.errors import ConfigError, DegenerateDatasetError, FormatError, NumericalError
from missctr.serialize import save_arrays
from missctr.trainer import (
    AdamState,
    ExperimentConfig,
    MissModel,
    adam_step,
    build_model,
    load_checkpoint,
    predict_scores,
    save_checkpoint,
    train,
    train_joint,
    train_pretrain,
    train_step,
)


def make_sample_set(n, n_items, rng, J=2, L=6):
    seq = np.zeros((n, J, L), dtype=np.int64)
    seq_len = rng.integers(3, L + 1, size=n)
    for i, s in enumerate(seq_len):
        seq[i, :, L - s:] = rng.integers(2, n_items, size=(J, s))
    labels = np.zeros(n, dtype=np.int64)
    labels[0::2] = 1
    return SampleSet(
        cat=rng.integers(2, 10, size=(n, 1)),
        seq=seq,
        seq_len=seq_len.astype(np.int64),
        cand=rng.integers(2, n_items, size=(n, J)),
        label=labels,
    )


def make_toy_splits(n_train=64, n_valid=16, n_test=16, n_items=30, L=6, seed=0):
    rng = np.random.default_rng(seed)
    return Splits(
        train=make_sample_set(n_train, n_items, rng, L=L),
        valid=make_sample_set(n_valid, n_items, rng, L=L),
        test=make_sample_set(n_test, n_items, rng, L=L),
        cat_fields=["user"],
        seq_fields=["item", "attr_1"],
        vocab_sizes={"user": 10, "item": n_items, "attr_1": n_items},
        max_len=L,
    )


def tiny_cfg(**over):
    base = dict(
        emb_dim=4, batch_size=16, mlp=(8, 1), enc_interest=(6,),
        enc_feature=(5,), lr=1e-2, alpha_interest=0.3, alpha_feature=0.3,
        tau=0.5, n_branches=2, n_depths=2, max_offset=2, max_len=6,
        epochs=2, patience=2, seed=0,
    )
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_defaults_validate():
    ExperimentConfig().validate()


@pytest.mark.parametrize(
    "over",
    [
        dict(batch_size=1),
        dict(mlp=(40, 40)),
        dict(mlp=()),
        dict(lr=0.0),
        dict(alpha_interest=-0.1),
        dict(tau=0.0),
        dict(tau=-1.0),
        dict(n_branches=0),
        dict(max_offset=0),
        dict(epochs=0),
        dict(patience=0),
        dict(strategy="warmup"),
        dict(model="deepfm"),
        dict(n_pairs_interest=0),
        dict(max_len=2, n_branches=3),
    ],
)
def test_validate_rejects(over):
    with pytest.raises(ConfigError):
        ExperimentConfig(**over).validate()


def test_grid_mode_accepts_grid_points():
    ExperimentConfig(
        lr=1e-2, alpha_interest=0.5, alpha_feature=0.5, tau=0.1,
        n_branches=4, n_depths=2, max_offset=3, grid_mode=True,
    ).validate()


def test_grid_mode_rejects_off_grid_lr():
    with pytest.raises(ConfigError):
        ExperimentConfig(lr=3e-3, grid_mode=True).validate()


def test_grid_mode_ties_loss_weights():
    cfg = ExperimentConfig(alpha_interest=0.5, alpha_feature=1.0, grid_mode=True)
    with pytest.raises(ConfigError):
        cfg.validate()
    # explicit mode allows split weights
    ExperimentConfig(alpha_interest=0.5, alpha_feature=1.0).validate()


def test_pair_count_defaults_follow_bank_shape():
    cfg = ExperimentConfig(n_branches=3, n_depths=2)
    assert cfg.pairs_interest == 3
    assert cfg.pairs_feature == 6
    cfg = ExperimentConfig(n_pairs_interest=7, n_pairs_feature=9)
    assert cfg.pairs_interest == 7
    assert cfg.pairs_feature == 9


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    p.grad = np.zeros(3)
    state = AdamState()
    adam_step({"p": p}, state, lr=0.1)
    assert np.array_equal(p.data, np.array([1.0, -2.0, 3.0]))
    assert state.t == 1


def test_adam_skips_untouched_params():
    p = Tensor(np.array([5.0]), requires_grad=True)
    q = Tensor(np.array([1.0]), requires_grad=True)
    q.grad = np.array([1.0])
    state = AdamState()
    adam_step({"p": p, "q": q}, state, lr=0.1)
    assert p.data[0] == 5.0
    assert "p" not in state.m
    assert q.data[0] != 1.0


def test_adam_first_step_is_signed_lr():
    g = np.array([0.1, -0.2, 0.3, -4.0])
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = g.copy()
    adam_step({"p": p}, AdamState(), lr=0.01)
    # bias correction makes the first update ~ -lr * sign(g)
    assert np.allclose(p.data, -0.01 * np.sign(g), atol=1e-8)


def test_adam_two_step_trace():
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    p0 = [1.0, -2.0, 0.5]
    grads = [[0.1, -0.2, 0.3], [-0.1, 0.1, 0.0]]
    want = list(p0)
    m = [0.0, 0.0, 0.0]
    v = [0.0, 0.0, 0.0]
    for t in (1, 2):
        g = grads[t - 1]
        for i in range(3):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            want[i] = want[i] - lr * mhat / (math.sqrt(vhat) + eps)

    p = Tensor(np.array(p0), requires_grad=True)
    state = AdamState()
    for t in (1, 2):
        p.grad = np.array(grads[t - 1])
        adam_step({"p": p}, state, lr=lr)
    assert np.allclose(p.data, np.array(want), rtol=1e-14, atol=0)
    assert state.t == 2


def test_row_sparse_adam_is_the_textbook_dense_step():
    # a different touched row set each step, an empty one included;
    # rows 0, 4, 6 and 9-11 are never touched after init
    rng = np.random.default_rng(0)
    n, k, lr = 12, 3, 0.05
    init = rng.uniform(-1.0, 1.0, (n, k))
    sparse = Tensor(init.copy(), requires_grad=True)
    dense = Tensor(init.copy(), requires_grad=True)
    s_sparse, s_dense = AdamState(), AdamState()
    want, m, v = init.copy(), np.zeros((n, k)), np.zeros((n, k))
    for t, ids in enumerate([[3, 1, 3], [5], [1, 7, 8, 7], [], [2, 5], [3]], start=1):
        idx = np.array(ids, dtype=np.int64)
        up = rng.standard_normal((idx.size, k))
        sparse.zero_grad()
        graph = ad.fresh_graph()
        graph.backward(ad.tsum(ad.mul(ad.gather_rows(sparse, idx), ad.constant(up))))
        np.testing.assert_array_equal(sparse.grad_rows()[0], np.unique(idx))
        g = dense_scatter_add(n, idx, up)
        dense.grad = g.copy()
        adam_step({"p": sparse}, s_sparse, lr)
        adam_step({"p": dense}, s_dense, lr)
        want, m, v = textbook_adam(want, m, v, g, t, lr)
        assert sparse.data.tobytes() == want.tobytes(), t
        assert dense.data.tobytes() == want.tobytes(), t
        for state in (s_sparse, s_dense):
            np.testing.assert_array_equal(state.m["p"], m)
            np.testing.assert_array_equal(state.v["p"], v)
    np.testing.assert_array_equal(sparse.data[[0, 4, 6, 9, 10, 11]], init[[0, 4, 6, 9, 10, 11]])


def test_din_step_holds_user_table_gradient_as_batch_rows():
    splits = make_toy_splits(n_train=256)
    rng = np.random.default_rng(1)
    splits.train.cat[:, 0] = rng.integers(2, 5000, size=splits.train.n)
    splits.vocab_sizes["user"] = 5000
    cfg = tiny_cfg(model="din", batch_size=32)
    model = build_model(cfg, splits)
    idx = np.arange(cfg.batch_size)
    train_step(model, splits.train, idx, None, AdamState(), model.base_parameters(), step=0)
    # grad_rows, not .grad: reading .grad densifies
    rows, held = model.tables["user"].grad_rows()
    assert isinstance(rows, np.ndarray) and rows.size <= cfg.batch_size
    np.testing.assert_array_equal(rows, np.unique(splits.train.cat[idx, 0]))
    assert held.shape == (rows.size, cfg.emb_dim)


# ---------------------------------------------------------------------------
# model assembly


def test_build_model_parameter_names():
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    names = set(model.parameters())
    assert "emb:user" in names and "emb:item" in names
    assert "base:lau_w1" in names and "base:mlp0_w" in names
    assert "ssl:conv_g1" in names and "ssl:conv_g2v2" in names
    assert any(n.startswith("ssl:enc_int") for n in names)
    assert any(n.startswith("ssl:enc_feat") for n in names)


def test_base_init_independent_of_ssl_tower():
    splits = make_toy_splits()
    a = build_model(tiny_cfg(model="din-miss"), splits)
    b = build_model(tiny_cfg(model="din"), splits)
    for k in a.base_parameters():
        assert np.array_equal(a.parameters()[k].data, b.parameters()[k].data), k


def test_checkpoint_round_trip(tmp_path):
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, model)
    saved = {k: v.data.copy() for k, v in model.parameters().items()}
    for p in model.parameters().values():
        p.data = p.data + 1.0
    load_checkpoint(path, model)
    for k, p in model.parameters().items():
        assert np.array_equal(p.data, saved[k]), k


def test_checkpoint_mismatch_rejected(tmp_path):
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, model)
    other = build_model(tiny_cfg(emb_dim=5), splits)
    with pytest.raises(ConfigError):
        load_checkpoint(path, other)


def test_checkpoint_with_int64_record_rejected(tmp_path):
    model = build_model(tiny_cfg(), make_toy_splits())
    path = str(tmp_path / "ckpt.bin")
    arrays = {k: v.data for k, v in model.parameters().items()}
    arrays["base:mlp1_b"] = arrays["base:mlp1_b"].astype(np.int64)
    save_arrays(path, arrays)
    with pytest.raises(FormatError, match="'base:mlp1_b' is int64, not float64"):
        load_checkpoint(path, model)


# ---------------------------------------------------------------------------
# training behavior


def test_one_epoch_step_count():
    splits = make_toy_splits(n_train=256)
    cfg = tiny_cfg(batch_size=128, epochs=1, model="din")
    result = train_joint(cfg, splits)
    assert len(result.telemetry) == 2


def test_partial_batches_dropped_in_training():
    splits = make_toy_splits(n_train=70)
    cfg = tiny_cfg(batch_size=32, epochs=1, model="din")
    result = train_joint(cfg, splits)
    assert len(result.telemetry) == 2  # 70 // 32


@pytest.mark.parametrize("strategy", ["joint", "pretrain"])
def test_fewer_rows_than_one_batch_rejected(strategy):
    splits = make_toy_splits(n_train=64)
    with pytest.raises(DegenerateDatasetError, match="64 training rows .* batch_size 128"):
        train(tiny_cfg(batch_size=128, strategy=strategy), splits)


def test_same_seed_bit_identical():
    splits = make_toy_splits()
    cfg = tiny_cfg(epochs=2)
    a = train_joint(cfg, splits)
    b = train_joint(tiny_cfg(epochs=2), splits)
    pa, pb = a.model.parameters(), b.model.parameters()
    for k in pa:
        assert np.array_equal(pa[k].data, pb[k].data), k
    assert [r.total for r in a.telemetry] == [r.total for r in b.telemetry]


def test_different_seed_differs():
    splits = make_toy_splits()
    a = train_joint(tiny_cfg(epochs=1), splits)
    b = train_joint(tiny_cfg(epochs=1, seed=1), splits)
    assert not np.array_equal(
        a.model.parameters()["base:mlp0_w"].data,
        b.model.parameters()["base:mlp0_w"].data,
    )


def test_zero_weights_match_base_only_trajectory():
    splits = make_toy_splits()
    miss = train_joint(tiny_cfg(alpha_interest=0.0, alpha_feature=0.0, epochs=2), splits)
    base = train_joint(tiny_cfg(model="din", epochs=2), splits)
    pm, pb = miss.model.parameters(), base.model.parameters()
    for k in miss.model.base_parameters():
        assert np.array_equal(pm[k].data, pb[k].data), k
    assert [r.loss_ll for r in miss.telemetry] == [r.loss_ll for r in base.telemetry]


def test_loss_decomposition_every_step():
    splits = make_toy_splits()
    cfg = tiny_cfg(epochs=2, alpha_interest=0.3, alpha_feature=0.7)
    result = train_joint(cfg, splits)
    assert result.telemetry
    for row in result.telemetry:
        want = row.loss_ll + cfg.alpha_interest * row.loss_interest \
            + cfg.alpha_feature * row.loss_feature
        assert abs(row.total - want) <= 1e-12


def test_ssl_terms_positive_when_enabled():
    splits = make_toy_splits()
    result = train_joint(tiny_cfg(epochs=1), splits)
    assert any(r.loss_interest > 0 for r in result.telemetry)
    assert any(r.loss_feature > 0 for r in result.telemetry)


def test_similarity_telemetry_bounded():
    splits = make_toy_splits()
    result = train_joint(tiny_cfg(epochs=1), splits)
    for r in result.telemetry:
        for s in (r.sim_mean, r.sim_min, r.sim_max):
            assert np.isfinite(s)
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        assert r.sim_min <= r.sim_mean <= r.sim_max


def test_gradient_reaches_ssl_tower():
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    params = model.parameters()
    ad.zero_grads(params.values())
    idx = np.arange(16)
    ssl_rng = np.random.default_rng(3)
    train_step(model, splits.train, idx, ssl_rng, AdamState(), params, step=0)
    conv_grads = [params[k].grad for k in params if k.startswith("ssl:conv_")]
    enc_grads = [params[k].grad for k in params if k.startswith("ssl:enc_")]
    assert any(g is not None and np.any(g != 0) for g in conv_grads)
    assert any(g is not None and np.any(g != 0) for g in enc_grads)


def test_one_sequence_lookup_per_step(monkeypatch):
    # user, the two candidate fields and the two sequence fields: the
    # contrastive tower reads the base tower's sequence lookup
    from missctr import embeddings

    calls = []
    real_embed = embeddings.embed

    def counting_embed(tables, field, ids):
        calls.append((field, np.ndim(ids)))
        return real_embed(tables, field, ids)

    monkeypatch.setattr(embeddings, "embed", counting_embed)
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    train_step(model, splits.train, np.arange(16), np.random.default_rng(3),
               AdamState(), model.parameters(), step=0)
    assert len(calls) == 5
    assert sorted(calls) == [("attr_1", 1), ("attr_1", 2), ("item", 1), ("item", 2), ("user", 1)]


def test_phase_one_leaves_base_mlp_untouched():
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    ssl_params = model.ssl_parameters()
    ad.zero_grads(model.parameters().values())
    train_step(
        model, splits.train, np.arange(16), np.random.default_rng(3),
        AdamState(), ssl_params, step=0, include_ll=False, include_ssl=True,
    )
    for k, p in model.base_parameters().items():
        if k.startswith("base:"):
            assert p.grad is None, k


def test_pretrain_runs_two_phases():
    splits = make_toy_splits()
    cfg = tiny_cfg(epochs=2, strategy="pretrain")
    result = train_pretrain(cfg, splits)
    epochs = [r.epoch for r in result.history]
    assert epochs == [0, 1, 2, 3]
    # phase 1 has no click loss; phase 2 has no auxiliary loss
    assert all(r.loss_ll == 0.0 for r in result.history[:2])
    assert all(r.loss_ll > 0.0 for r in result.history[2:])
    assert all(r.loss_interest == 0.0 for r in result.history[2:])
    # step numbers run on across the phase boundary
    assert [r.step for r in result.telemetry] == list(range(len(result.telemetry)))


def test_joint_vs_pretrain_histories_differ():
    splits = make_toy_splits()
    a = train(tiny_cfg(epochs=2, strategy="joint"), splits)
    b = train(tiny_cfg(epochs=2, strategy="pretrain"), splits)
    assert [r.val_auc for r in a.history] != [r.val_auc for r in b.history]


def test_pretrain_without_ssl_falls_back_to_joint():
    splits = make_toy_splits()
    a = train(tiny_cfg(epochs=1, strategy="pretrain", model="din"), splits)
    b = train(tiny_cfg(epochs=1, strategy="joint", model="din"), splits)
    pa, pb = a.model.parameters(), b.model.parameters()
    for k in pa:
        assert np.array_equal(pa[k].data, pb[k].data), k
    with pytest.raises(ConfigError):
        train_pretrain(tiny_cfg(model="din"), splits)


def test_early_stop_restores_best_checkpoint():
    splits = make_toy_splits(n_train=96, seed=4)
    cfg = tiny_cfg(epochs=8, patience=2, lr=5e-2, model="din")
    result = train_joint(cfg, splits)
    assert result.best_val_auc == max(r.val_auc for r in result.history)
    assert result.history[result.best_epoch].val_auc == result.best_val_auc
    # restored parameters reproduce the best validation score
    scores = predict_scores(result.model, splits.valid, cfg.batch_size)
    from missctr.metrics import auc

    assert auc(scores, splits.valid.label) == result.best_val_auc


def test_early_stop_halts_before_epoch_cap():
    splits = make_toy_splits(n_train=96, seed=4)
    cfg = tiny_cfg(epochs=50, patience=1, lr=5e-2, model="din")
    result = train_joint(cfg, splits)
    assert len(result.history) < 50


def test_non_finite_loss_aborts_with_diagnostic():
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    model.tables["item"].data[2, 0] = np.nan
    with pytest.raises(NumericalError) as exc:
        train_step(
            model, splits.train, np.arange(16), np.random.default_rng(0),
            AdamState(), model.parameters(), step=7,
        )
    assert "step 7" in str(exc.value)
    assert "loss" in str(exc.value)


def test_degenerate_extractor_is_reported_once(caplog):
    # one field (no attribute column): the width-2 vertical kernels never fit
    from missctr.data import InteractionLog, Record, build_splits, synth_generate

    users = {u: [Record(u, r.item, (), r.ts) for r in recs]
             for u, recs in synth_generate(40, 20, 4, (6, 10), seed=0).users.items()}
    splits = build_splits(InteractionLog(users, ["item"]), max_len=6, seed=0)
    with caplog.at_level("WARNING", logger="missctr"):
        result = train_joint(tiny_cfg(epochs=1), splits)
    assert len(result.telemetry) > 1
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "vertical width 2 exceeds field count 1: the extractor skips the kernels wider than 1"
    ]


def test_pad_row_stays_zero_through_training():
    splits = make_toy_splits()
    result = train_joint(tiny_cfg(epochs=1), splits)
    for name, t in result.model.tables.items():
        assert np.array_equal(t.data[0], np.zeros(t.data.shape[1])), name


def test_predict_scores_covers_tail_batch():
    splits = make_toy_splits(n_valid=10)
    model = build_model(tiny_cfg(batch_size=4), splits)
    got = predict_scores(model, splits.valid, 4)
    want = predict_scores(model, splits.valid, 16)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    assert np.all(got > 0) and np.all(got < 1)
