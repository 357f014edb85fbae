"""Trainer: config validation, Adam oracle, determinism, and the
equivalences that tie the auxiliary losses to the base trajectory."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    dense_adam_step,
    dense_scatter_add,
    pack_splits,
    random_windows,
    textbook_adam,
)

from missctr import autodiff as ad
from missctr import interests as it
from missctr import trainer
from missctr.autodiff import Tensor
from missctr.errors import ConfigError, DegenerateDatasetError, FormatError, NumericalError
from missctr.serialize import load_arrays, save_arrays
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
    train_step,
)


def make_toy_splits(n_train=64, n_valid=16, n_test=16, n_items=30, L=6, seed=0):
    rng = np.random.default_rng(seed)
    return pack_splits(
        [random_windows(n, n_items, rng, L=L) for n in (n_train, n_valid, n_test)],
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
        dict(max_len=0),
        dict(n_depths=-1),
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
    p.accumulate(np.zeros(3))
    state = AdamState()
    adam_step({"p": p}, state, lr=0.1)
    assert np.array_equal(p.data, np.array([1.0, -2.0, 3.0]))
    assert state.t == 1


def test_adam_skips_untouched_params():
    p = Tensor(np.array([5.0]), requires_grad=True)
    q = Tensor(np.array([1.0]), requires_grad=True)
    q.accumulate(np.array([1.0]))
    state = AdamState()
    adam_step({"p": p, "q": q}, state, lr=0.1)
    assert p.data[0] == 5.0
    assert "p" not in state.m
    assert q.data[0] != 1.0


def test_adam_first_step_is_signed_lr():
    g = np.array([0.1, -0.2, 0.3, -4.0])
    p = Tensor(np.zeros(4), requires_grad=True)
    p.accumulate(g.copy())
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
        p.zero_grad()
        p.accumulate(np.array(grads[t - 1]))
        adam_step({"p": p}, state, lr=lr)
    assert np.allclose(p.data, np.array(want), rtol=1e-14, atol=0)
    assert state.t == 2


def row_moments(state, name):
    """A parameter's (m, v) in row order, read through the state's row
    map while it is in slot order: zeros for rows that have no slot."""
    if name not in state.slot:
        return state.m[name], state.v[name]
    slot = state.slot[name]
    has = slot >= 0
    out = []
    for moments in (state.m, state.v):
        by_row = np.zeros_like(moments[name])
        by_row[has] = moments[name][slot[has]]
        out.append(by_row)
    return tuple(out)


def test_row_sparse_adam_is_the_textbook_dense_step(monkeypatch):
    # a different touched row set each step, an empty one included;
    # rows 0, 4, 6 and 9-11 are never touched after init.  Blocks of 5
    # rows run the update over rows 0-4, 5-9 and a ragged 10-11
    for block in (trainer.ADAM_BLOCK, 5):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
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
            dense.zero_grad()
            dense.accumulate(g.copy())
            adam_step({"p": sparse}, s_sparse, lr)
            adam_step({"p": dense}, s_dense, lr)
            want, m, v = textbook_adam(want, m, v, g, t, lr)
            assert sparse.data.tobytes() == want.tobytes(), t
            assert dense.data.tobytes() == want.tobytes(), t
            for state in (s_sparse, s_dense):
                got_m, got_v = row_moments(state, "p")
                np.testing.assert_array_equal(got_m, m)
                np.testing.assert_array_equal(got_v, v)
        np.testing.assert_array_equal(sparse.data[[0, 4, 6, 9, 10, 11]], init[[0, 4, 6, 9, 10, 11]])


# a step's gradient: dense, every row gathered once, or a list of rows
# (empty, or with repeats that gather_rows sums)
ROW_SETS = st.one_of(st.just("dense"), st.just("all"), st.lists(st.integers(0, 39), max_size=12))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 3), steps=st.lists(ROW_SETS, min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(n=10, k=2, steps=[[1, 1, 2], "dense", [3]], seed=0)  # a dense gradient in slot order
@example(n=20, k=1, steps=[[0], [1, 2, 2, 3], [4, 5, 6, 7, 8], [9]], seed=1)  # switches at step 3
@example(n=10, k=1, steps=[[3] * 10], seed=0)  # one row, but as many indices as rows: dense
def test_live_row_adam_is_textbook_adam_after_every_step(n, k, steps, seed):
    rng = np.random.default_rng(seed)
    init = rng.uniform(-1.0, 1.0, (n, k))
    init[rng.random((n, k)) < 0.3] = -0.0
    p = Tensor(init.copy(), requires_grad=True)
    state = AdamState()
    want, m, v = init.copy(), np.zeros((n, k)), np.zeros((n, k))
    seen: set[int] = set()
    in_slots = steps[0] != "dense"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "ADAM_BLOCK", 5)
        for t, rows in enumerate(steps, start=1):
            p.zero_grad()
            if rows == "dense":
                g = rng.standard_normal((n, k))
                p.accumulate(g.copy())
                idx = np.arange(n)
            else:
                idx = np.arange(n) if rows == "all" else np.array(rows, dtype=np.int64) % n
                up = rng.standard_normal((idx.size, k))
                graph = ad.fresh_graph()
                graph.backward(ad.tsum(ad.mul(ad.gather_rows(p, idx), ad.constant(up))))
                g = dense_scatter_add(n, idx, up)
            seen.update(idx.tolist())
            adam_step({"p": p}, state, lr=0.05)
            want, m, v = textbook_adam(want, m, v, g, t, 0.05)
            assert p.data.tobytes() == want.tobytes(), t
            got_m, got_v = row_moments(state, "p")
            np.testing.assert_array_equal(got_m, m)
            np.testing.assert_array_equal(got_v, v)
            cold = np.setdiff1d(np.arange(n), sorted(seen))
            assert p.data[cold].tobytes() == init[cold].tobytes(), t
            # a gather with no fewer indices than rows gives a dense gradient
            in_slots = (in_slots and rows != "dense" and idx.size < n
                        and len(seen) < trainer.LIVE_SHARE * n)
            if in_slots:
                live = state.order["p"][: state.n_live["p"]]
                assert state.n_live["p"] == len(seen) and set(live.tolist()) == seen
                assert set(np.flatnonzero(state.slot["p"] >= 0).tolist()) == seen
                np.testing.assert_array_equal(state.slot["p"][live], np.arange(len(seen)))
            else:
                assert "p" not in state.order and "p" not in state.slot and "p" not in state.n_live


# a small parameter: (rows, columns), 0 columns for a 1-d one
SMALL_SHAPES = st.lists(st.tuples(st.integers(1, 7), st.integers(0, 3)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(shapes=SMALL_SHAPES, block=st.sampled_from([3, 5, trainer.ADAM_BLOCK]),
       steps=st.lists(st.tuples(st.lists(st.booleans(), min_size=6, max_size=6),
                                st.lists(st.integers(0, 19), max_size=6)),
                      min_size=1, max_size=6),
       table=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(shapes=[(2, 3), (4, 0)], block=trainer.ADAM_BLOCK,
         steps=[([True] * 6, []), ([False, True] + [True] * 4, [1]), ([True] * 6, [])], table=True,
         seed=0)  # one flat step, one with a member lacking its gradient, one flat again
def test_flat_group_adam_is_textbook_adam_after_every_step(shapes, block, steps, table, seed):
    # small dense parameters (some wider than a monkeypatched ADAM_BLOCK,
    # so outside the group) beside an optional slot-order table; each
    # step gives a gradient to some of them.  Every parameter and moment
    # must be the textbook value after every step, and one without a
    # gradient keeps its bytes and moments (no decay)
    rng = np.random.default_rng(seed)
    lr = 0.05
    inits = {}
    for i, (rows, cols) in enumerate(shapes):
        init = rng.uniform(-1.0, 1.0, (rows, cols) if cols else rows)
        init[rng.random(init.shape) < 0.3] = -0.0
        inits[f"p{i}"] = init
    if table:
        inits["table"] = rng.uniform(-1.0, 1.0, (20, 2))
    params = {name: Tensor(init.copy(), requires_grad=True) for name, init in inits.items()}
    want = {name: (init.copy(), np.zeros_like(init), np.zeros_like(init)) for name, init in inits.items()}
    state = AdamState()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "ADAM_BLOCK", block)
        for t, (has_grad, rows) in enumerate(steps, start=1):
            grads = {}
            for i, name in enumerate(n for n in params if n != "table"):
                params[name].zero_grad()
                if has_grad[i]:
                    g = rng.standard_normal(inits[name].shape)
                    g[rng.random(g.shape) < 0.2] = -0.0
                    params[name].accumulate(g.copy())
                    grads[name] = g
            if table:
                params["table"].zero_grad()
                if rows:
                    idx = np.array(rows, dtype=np.int64)
                    up = rng.standard_normal((idx.size, 2))
                    ad.fresh_graph().backward(
                        ad.tsum(ad.mul(ad.gather_rows(params["table"], idx), ad.constant(up))))
                    grads["table"] = dense_scatter_add(20, idx, up)
            adam_step(params, state, lr)
            if t == 1:
                assert state.group == [n for n in grads if n != "table" and len(inits[n]) <= block]
            for name, g in grads.items():
                want[name] = textbook_adam(*want[name], g, t, lr)
            for name, p in params.items():
                assert p.data.tobytes() == want[name][0].tobytes(), (t, name)
                if name in state.m:
                    got_m, got_v = row_moments(state, name)
                    assert got_m.tobytes() == want[name][1].tobytes(), (t, name)
                    assert got_v.tobytes() == want[name][2].tobytes(), (t, name)
    # a member's moments and work buffers are views of the group's spans
    m, v, update, denom = state.flat
    at = 0
    for name in state.group:
        size = inits[name].size
        for whole, view in zip((m, v, update, denom), (state.m[name], state.v[name], *state.work[name])):
            assert view.base is whole and view.shape == inits[name].shape
            assert np.shares_memory(view, whole[at : at + size])
        at += size
    assert at == m.size


@pytest.mark.parametrize("over", [dict(model="din"), {}, dict(strategy="pretrain")],
                         ids=["din", "din-miss", "pretrain"])
def test_train_matches_a_dense_textbook_adam_run(monkeypatch, over):
    # 200 user rows, 16 looked up a step: once the click loss trains it,
    # the user table starts in slot order and passes LIVE_SHARE within
    # an epoch
    splits = make_toy_splits(n_train=256, n_items=60)
    splits.train.cat[:, 0] = np.random.default_rng(1).integers(2, 200, size=splits.train.n)
    splits.vocab_sizes["user"] = 200
    cfg = tiny_cfg(epochs=3, patience=3, **over)
    live_row_step, in_slots = trainer.adam_step, []

    def watched(params, state, lr):
        live_row_step(params, state, lr)
        in_slots.append("emb:user" in state.slot)

    monkeypatch.setattr(trainer, "adam_step", watched)
    real = train(cfg, splits)
    monkeypatch.setattr(trainer, "adam_step", dense_adam_step)
    dense = train(cfg, splits)
    assert any(in_slots) and not in_slots[-1]
    for key, p in real.model.parameters().items():
        assert p.data.tobytes() == dense.model.parameters()[key].data.tobytes(), key
    assert repr(real.history) == repr(dense.history)
    assert repr(real.telemetry) == repr(dense.telemetry)
    assert (real.best_epoch, real.best_val_auc) == (dense.best_epoch, dense.best_val_auc)


def test_adam_work_buffers_hold_at_most_one_block():
    n = 2 * trainer.ADAM_BLOCK + 3
    params = {"table": Tensor(np.ones((n, 2)), requires_grad=True),
              "bias": Tensor(np.ones(3), requires_grad=True)}
    state = AdamState()
    for step in range(2):
        params["table"].zero_grad()
        params["table"].accumulate(np.full((n, 2), 0.5))
        params["bias"].zero_grad()
        params["bias"].accumulate(np.full(3, 0.5))
        adam_step(params, state, lr=0.1)
    assert {k: [b.shape for b in bufs] for k, bufs in state.work.items()} == {
        "table": [(trainer.ADAM_BLOCK, 2)] * 2, "bias": [(3,)] * 2}
    assert state.m["table"].shape == state.v["table"].shape == (n, 2)


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


def test_din_step_tapes_no_concatenated_attention_input():
    # the gate config: B=128, L=16, J=2 sequence fields of K=10
    n_b, n_l, jk = 128, 16, 20
    splits = make_toy_splits(n_train=n_b, L=n_l)
    cfg = tiny_cfg(model="din", batch_size=n_b, emb_dim=10, max_len=n_l)
    model = build_model(cfg, splits)
    train_step(model, splits.train, np.arange(n_b), None, AdamState(),
               model.base_parameters(), step=0)
    nodes = ad.active_graph().nodes
    assert nodes and all(t.shape[-1:] != (4 * jk,) for t in nodes)
    # the candidate enters the attention unit once per row: no node
    # repeats one (J*K)-vector over the L steps
    per_step = [t.data for t in nodes if t.shape == (n_b, n_l, jk)]
    assert per_step and not any(np.all(d == d[:, :1]) for d in per_step)


# ---------------------------------------------------------------------------
# one gate-config din-miss step: gradient ownership and memory


@pytest.fixture(scope="module")
def gate_splits():
    from missctr.data import build_splits, synth_generate

    return build_splits(synth_generate(2000, 500, 5, (8, 16), seed=0), max_len=16, seed=0)


def gate_step(splits, n_steps=1, measure=None):
    """Build the gate-config din-miss model and run n_steps train steps;
    measure, if given, wraps the last one.  Returns the parameters."""
    cfg = ExperimentConfig(
        emb_dim=10, batch_size=128, lr=1e-2, tau=0.1, n_branches=2, n_depths=2,
        max_offset=2, max_len=16, seed=0, model="din-miss",
    )
    model = build_model(cfg, splits)
    params, opt, rng = model.parameters(), AdamState(), np.random.default_rng(1)
    for step in range(n_steps):
        idx = np.arange(step * 128, (step + 1) * 128)
        with measure() if measure and step == n_steps - 1 else contextlib.nullcontext():
            train_step(model, splits.train, idx, rng, opt, params, step)
    return params


def test_gradients_are_never_written_in_place(gate_splits, monkeypatch):
    # gradients are owned and shared, not copied: with every array that
    # reaches accumulate made read-only, a write into one would raise
    # (a numpy scalar is immutable already)
    plain = gate_step(gate_splits)
    guarded = []

    def read_only(method):
        def guard(self, *arrays):
            for a in arrays:
                if isinstance(a, np.ndarray) and a.flags.owndata:
                    a.flags.writeable = False
                    guarded.append(a.size)
            return method(self, *arrays)

        return guard

    for name in ("accumulate", "accumulate_rows"):
        monkeypatch.setattr(Tensor, name, read_only(getattr(Tensor, name)))
    checked = gate_step(gate_splits)
    # the floor is what the 101-node gate-config tape allocates for sure:
    # one new array per operand that needs a gradient at each live node
    # of matmul (30), conv1d (8), mul (9), relu (6), normalize_rows (4),
    # tlog (2), logsumexp (2), sigmoid (1) and clip (1), and the row
    # indices of the 5 embedding gathers; the other ops may pass g or a
    # view of it
    assert len(guarded) >= 68
    for name, p in plain.items():
        assert p.data.tobytes() == checked[name].data.tobytes(), name


def test_gate_step_peaks_below_20_mb(gate_splits):
    # the sweep frees each op gradient and closure once used; holding
    # them all (and a copy of every gradient) peaks at about 31 MB
    peak = []

    @contextlib.contextmanager
    def traced():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            yield
            peak.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()

    gate_step(gate_splits, n_steps=2, measure=traced)
    assert peak[0] <= 20e6, f"{peak[0] / 1e6:.1f} MB"


@pytest.mark.parametrize("model_name", ["din-miss", "din"])
def test_step_gives_the_padding_row_a_zero_gradient(gate_splits, model_name):
    # attention weighs a padded step by a zero mask and no view window
    # covers padding, so every term row 0 gathers is +-0 and their sum is
    # +0.0; Adam then leaves the row at its init zeros
    cfg = ExperimentConfig(
        emb_dim=10, batch_size=128, lr=1e-2, tau=0.1, n_branches=2, n_depths=2,
        max_offset=2, max_len=16, seed=0, model=model_name,
    )
    model = build_model(cfg, gate_splits)
    train_step(model, gate_splits.train, np.arange(128), np.random.default_rng(1),
               AdamState(), model.parameters(), step=0)
    gathered = []
    for name, table in model.tables.items():
        held = table.grad_rows()  # not .grad, which densifies
        if held is None:
            continue
        rows, g = held
        if rows is ...:  # a dense gradient holds every row, 0 included
            row0 = g[:1]
        elif 0 in rows:
            row0 = g[rows == 0]
        else:
            continue
        gathered.append(name)
        assert row0.tobytes() == np.zeros_like(row0).tobytes(), name
    assert sorted(gathered) == sorted(gate_splits.seq_fields)


@pytest.mark.parametrize("model_name", ["din-miss", "din"])
def test_gate_step_sorts_only_the_gathers_smaller_than_their_table(gate_splits, model_name,
                                                                    monkeypatch):
    # the 502-row item and 7-row attr_1 tables are no larger than their
    # 2,048-index history gathers, so they take dense gradients and join
    # Adam's flat group; np.unique runs only in a gather with fewer
    # indices than its leaf table has rows: the 128 users of 2,002, and
    # the 128 candidate items of 502, which the history's dense gradient
    # then absorbs without a sort
    cfg = ExperimentConfig(
        emb_dim=10, batch_size=128, lr=1e-2, tau=0.1, n_branches=2, n_depths=2,
        max_offset=2, max_len=16, seed=0, model=model_name,
    )
    model = build_model(cfg, gate_splits)
    real_gather, real_unique, unique_calls, sorts = ad.gather_rows, np.unique, [], []

    def counted_unique(*args, **kwargs):
        unique_calls.append(1)
        return real_unique(*args, **kwargs)

    def gather(table, indices):
        out = real_gather(table, indices)
        backward, n = out._backward, np.asarray(indices).size

        def counted(g):
            before = len(unique_calls)
            backward(g)
            sorts.append((table.name, n, table.shape[0], len(unique_calls) - before))

        out._backward = counted
        return out

    monkeypatch.setattr(ad, "gather_rows", gather)
    monkeypatch.setattr(np, "unique", counted_unique)
    state = AdamState()
    train_step(model, gate_splits.train, np.arange(128), np.random.default_rng(1), state,
               model.parameters(), step=0)
    monkeypatch.undo()
    assert len(unique_calls) == sum(s[3] for s in sorts)
    for name, n, n_rows, calls in sorts:
        assert calls == (name.startswith("emb:") and n < n_rows), (name, n, n_rows)
    assert sorted((name, n) for name, n, _, calls in sorts if calls) == [("emb:item", 128),
                                                                        ("emb:user", 128)]
    for field, sparse in (("user", True), ("item", False), ("attr_1", False)):
        assert (model.tables[field].grad_rows()[0] is not ...) == sparse, field
    assert {"emb:item", "emb:attr_1"} <= set(state.group) and "emb:user" not in state.group
    assert list(state.slot) == ["emb:user"]


# ---------------------------------------------------------------------------
# model assembly


def test_build_model_parameter_names():
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    names = set(model.parameters())
    assert "emb:user" in names and "emb:item" in names
    assert "base:lau_w1" in names and "base:mlp0_w" in names
    assert "ssl:conv_g2" in names
    assert "ssl:conv_g1" not in names and "ssl:conv_g2v1" not in names
    assert "ssl:conv_g1v2" not in names and "ssl:conv_g2v2" not in names
    assert any(n.startswith("ssl:enc_int") for n in names)
    assert any(n.startswith("ssl:enc_feat") for n in names)


def test_every_parameter_is_named_by_its_key():
    # the name a parameter is made with is its checkpoint key, and the
    # keys keep the checkpoint's record order
    model = build_model(tiny_cfg(), make_toy_splits())
    params = model.parameters()
    assert all(t.name == key for key, t in params.items())
    assert list(params) == [
        "emb:user", "emb:item", "emb:attr_1",
        "base:lau_w1", "base:lau_b1", "base:lau_w2", "base:lau_b2",
        "base:mlp0_w", "base:mlp0_b", "base:mlp1_w", "base:mlp1_b",
        "ssl:conv_g2", "ssl:enc_int_w0", "ssl:enc_feat_w0",
    ]


def test_base_init_independent_of_ssl_tower():
    splits = make_toy_splits()
    a = build_model(tiny_cfg(model="din-miss"), splits)
    b = build_model(tiny_cfg(model="din"), splits)
    for k in a.base_parameters():
        assert np.array_equal(a.parameters()[k].data, b.parameters()[k].data), k


@pytest.mark.parametrize("over", [dict(model="din"), dict(alpha_interest=0.0, alpha_feature=0.0)])
def test_a_model_without_ssl_holds_and_saves_only_the_base_model(tmp_path, over):
    model = build_model(tiny_cfg(**over), make_toy_splits())
    params = model.parameters()
    assert {k.split(":")[0] for k in params} == {"emb", "base"}
    assert params == model.base_parameters()
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, model)
    assert not [k for k in load_arrays(path) if k.startswith("ssl:")]


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
    result = train(cfg, splits)
    assert len(result.telemetry) == 2


def test_partial_batches_dropped_in_training():
    splits = make_toy_splits(n_train=70)
    cfg = tiny_cfg(batch_size=32, epochs=1, model="din")
    result = train(cfg, splits)
    assert len(result.telemetry) == 2  # 70 // 32


@pytest.mark.parametrize("strategy", ["joint", "pretrain"])
def test_fewer_rows_than_one_batch_rejected(strategy):
    splits = make_toy_splits(n_train=64)
    with pytest.raises(DegenerateDatasetError, match="64 training rows .* batch_size 128"):
        train(tiny_cfg(batch_size=128, strategy=strategy), splits)


def test_same_seed_bit_identical():
    splits = make_toy_splits()
    cfg = tiny_cfg(epochs=2)
    a = train(cfg, splits)
    b = train(tiny_cfg(epochs=2), splits)
    pa, pb = a.model.parameters(), b.model.parameters()
    for k in pa:
        assert np.array_equal(pa[k].data, pb[k].data), k
    assert [r.total for r in a.telemetry] == [r.total for r in b.telemetry]


def test_different_seed_differs():
    splits = make_toy_splits()
    a = train(tiny_cfg(epochs=1), splits)
    b = train(tiny_cfg(epochs=1, seed=1), splits)
    assert not np.array_equal(
        a.model.parameters()["base:mlp0_w"].data,
        b.model.parameters()["base:mlp0_w"].data,
    )


def test_zero_weights_match_base_only_trajectory():
    splits = make_toy_splits()
    miss = train(tiny_cfg(alpha_interest=0.0, alpha_feature=0.0, epochs=2), splits)
    base = train(tiny_cfg(model="din", epochs=2), splits)
    pm, pb = miss.model.parameters(), base.model.parameters()
    for k in miss.model.base_parameters():
        assert np.array_equal(pm[k].data, pb[k].data), k
    assert [r.loss_ll for r in miss.telemetry] == [r.loss_ll for r in base.telemetry]


def test_loss_decomposition_every_step():
    splits = make_toy_splits()
    cfg = tiny_cfg(epochs=2, alpha_interest=0.3, alpha_feature=0.7)
    result = train(cfg, splits)
    assert result.telemetry
    for row in result.telemetry:
        want = row.loss_ll + cfg.alpha_interest * row.loss_interest \
            + cfg.alpha_feature * row.loss_feature
        assert abs(row.total - want) <= 1e-12


def test_ssl_terms_positive_when_enabled():
    splits = make_toy_splits()
    result = train(tiny_cfg(epochs=1), splits)
    assert any(r.loss_interest > 0 for r in result.telemetry)
    assert any(r.loss_feature > 0 for r in result.telemetry)


def test_similarity_telemetry_bounded():
    splits = make_toy_splits()
    result = train(tiny_cfg(epochs=1), splits)
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


@settings(max_examples=150, deadline=None)
@given(n_j=st.integers(2, 3), n_branches=st.integers(1, 3), n_depths=st.integers(0, 2),
       n_l=st.integers(3, 6), seq_len=st.lists(st.integers(1, 6), min_size=2, max_size=5),
       alphas=st.sampled_from([(0.3, 0.0), (0.0, 0.3), (0.3, 0.3)]),
       seed=st.integers(0, 2**32 - 1))
def test_contrastive_gradient_is_orthogonal_to_every_ssl_parameter(
    n_j, n_branches, n_depths, n_l, seq_len, alphas, seed
):
    # the contrastive losses read every map through bias-free ReLU
    # encoders and normalize_rows, so they are invariant to scaling any
    # one ssl: parameter, and <grad w, w> = d/ds L(e^s w) is 0.  That
    # derivative is in the loss's own units whatever the scale of w, so
    # its bound is absolute: relative to the step's gradient norms it
    # fails where every true gradient is 0 and the computed ones are
    # roundoff (a width-1 kernel always; every parameter when the loss is
    # flat, as with two rows and one dead view)
    model, splits = contrastive_instance(n_j, n_branches, n_depths, n_l, seq_len, alphas, seed)
    n = len(seq_len)
    graph = ad.fresh_graph()
    total, _, _ = trainer.step_loss(model, splits.train, np.arange(n), False,
                                    np.random.default_rng(seed))
    if total is not None:
        graph.backward(total)
    for name, p in model.parameters().items():
        if name.startswith("ssl:") and p.grad_rows() is not None:
            assert abs(np.vdot(p.grad, p.data)) <= 1e-12, name


def contrastive_instance(n_j, n_branches, n_depths, n_l, seq_len, alphas, seed,
                         model="din-miss"):
    """The model and splits of the orthogonality law test's instances:
    one user field, n_j sequence fields, and one row per seq_len."""
    rng = np.random.default_rng(seed)
    n = len(seq_len)
    lens = np.minimum(seq_len, n_l)
    seq = np.zeros((n, n_j, n_l), dtype=np.int64)
    for i, s in enumerate(lens):
        seq[i, :, n_l - s:] = rng.integers(2, 30, size=(n_j, s))
    part = dict(cat=rng.integers(2, 10, size=(n, 1)), seq=seq, seq_len=lens,
                cand=rng.integers(2, 30, size=(n, n_j)), label=np.arange(n) % 2)
    fields = ["item"] + [f"attr_{j}" for j in range(1, n_j)]
    splits = pack_splits([part] * 3, cat_fields=["user"], seq_fields=fields,
                         vocab_sizes={"user": 10, **{f: 30 for f in fields}}, max_len=n_l)
    cfg = tiny_cfg(batch_size=n, n_branches=n_branches, n_depths=n_depths, max_len=n_l,
                   alpha_interest=alphas[0], alpha_feature=alphas[1], seed=seed, model=model)
    return build_model(cfg, splits), splits


def held_ssl_names(model, alphas, n_j, n_branches, n_depths, max_len):
    """The ssl: parameters a model holds, from the pairs each weighted
    loss can form: branch m (width m) leaves max_len - m + 1 time
    columns, two for an interest pair; its vertical kernel n (width n)
    leaves n_j - n + 1 field rows, two for a feature pair.  A branch is
    held for either loss; a width-1 kernel is a constant, not a
    parameter; tiny_cfg's encoders have one layer."""
    miss = model == "din-miss"
    interest = [m for m in range(1, n_branches + 1)
                if miss and alphas[0] > 0 and max_len - m + 1 >= 2]
    feature = [(m, n) for m in range(1, n_branches + 1) for n in range(1, n_depths + 1)
               if miss and alphas[1] > 0 and n_j - n + 1 >= 2]
    branches = sorted(set(interest) | {m for m, _ in feature})
    return ([f"ssl:conv_g{m}" for m in branches if m > 1]
            + [f"ssl:conv_g{m}v{n}" for m, n in feature if n > 1]
            + ["ssl:enc_int_w0"] * bool(interest) + ["ssl:enc_feat_w0"] * bool(feature))


@settings(max_examples=120, deadline=None)
@given(model=st.sampled_from(["din", "din-miss"]),
       alphas=st.tuples(st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.5])),
       n_j=st.integers(1, 3), n_depths=st.integers(0, 2), n_branches=st.integers(1, 3),
       extra_len=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
@example(model="din-miss", alphas=(0.0, 0.5), n_j=2, n_depths=2, n_branches=2, extra_len=1,
         seed=0)
@example(model="din-miss", alphas=(0.5, 0.5), n_j=1, n_depths=2, n_branches=2, extra_len=1,
         seed=0)
def test_a_step_gives_every_held_parameter_a_gradient(model, alphas, n_j, n_depths, n_branches,
                                                      extra_len, seed):
    # histories fill max_len, so every pair the rule expects can form: a
    # model holds exactly the ssl: parameters some weighted loss reaches,
    # and one step gives every parameter it holds a gradient
    max_len = n_branches + extra_len
    inst, splits = contrastive_instance(n_j, n_branches, n_depths, max_len, [max_len] * 4,
                                        alphas, seed, model=model)
    params = inst.parameters()
    train_step(inst, splits.train, np.arange(4), np.random.default_rng(seed), AdamState(),
               params, 0)
    assert [k for k, p in params.items() if p.grad_rows() is None] == []
    assert [k for k in params if k.startswith("ssl:")] == held_ssl_names(
        model, alphas, n_j, n_branches, n_depths, max_len)


@settings(max_examples=150, deadline=None)
@given(n_j=st.integers(2, 3), n_branches=st.integers(1, 3), n_depths=st.integers(0, 2),
       n_l=st.integers(3, 6), seq_len=st.lists(st.integers(1, 6), min_size=2, max_size=5),
       alphas=st.sampled_from([(0.3, 0.0), (0.0, 0.3), (0.3, 0.3)]),
       seed=st.integers(0, 2**32 - 1), c=st.floats(0.5, 2.0))
def test_contrastive_loss_ignores_the_scale_of_every_width_one_kernel(
    n_j, n_branches, n_depths, n_l, seq_len, alphas, seed, c
):
    # a width-1 kernel scales a ReLU'd map that reaches the losses only
    # through bias-free ReLU encoders and normalize_rows, so only its
    # sign can matter: scaling it moves the loss by roundoff alone
    model, splits = contrastive_instance(n_j, n_branches, n_depths, n_l, seq_len, alphas, seed)
    rows = np.arange(len(seq_len))

    def loss():
        ad.fresh_graph()
        total = trainer.step_loss(model, splits.train, rows, False, np.random.default_rng(seed))[0]
        return None if total is None else float(total.data)

    before = loss()
    for g in model.conv.named().values():
        if g.shape == (1,):
            g.data = g.data * c
    after = loss()
    assert (before is None) == (after is None)
    if before is not None:
        assert abs(after - before) <= 1e-12, (before, after)


@settings(max_examples=100, deadline=None)
@given(n_branches=st.integers(1, 3), n_depths=st.integers(0, 2), n_j=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_only_the_kernels_wider_than_one_are_parameters(n_branches, n_depths, n_j, seed):
    # replay init_conv_bank's draw order from a second generator: the
    # horizontal kernels by width, then each branch's vertical ones; the
    # model over n_j fields keeps the vertical ones of width <= n_j - 1
    bank = it.init_conv_bank(n_branches, n_depths, np.random.default_rng(seed))
    replay = np.random.default_rng(seed)
    branches = range(1, n_branches + 1)
    horizontal = {f"ssl:conv_g{m}": m for m in branches}
    vertical = {f"ssl:conv_g{m}v{n}": n for m in branches for n in range(1, n_depths + 1)}
    widths = horizontal | vertical
    named = bank.named()
    assert list(named) == list(widths)
    for name, width in widths.items():
        draw = replay.uniform(-it.KERNEL_INIT, it.KERNEL_INIT, size=width)
        g = named[name]
        if width == 1:
            assert not g.requires_grad and g.data.tobytes() == np.sign(draw).tobytes(), name
        else:
            assert g.requires_grad and g.data.tobytes() == draw.tobytes(), name
    model, _ = contrastive_instance(n_j, n_branches, n_depths, 6, [6, 4], (0.3, 0.3), seed)
    params = model.parameters()
    assert [k for k in params if k.startswith("ssl:conv_")] == (
        [k for k, w in horizontal.items() if w > 1] + [k for k, w in vertical.items() if 1 < w < n_j])
    assert all(t.requires_grad for t in params.values())
    assert all(params[k] is t for k, t in model.conv.named().items() if k in params)


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


def test_step_without_plan_stream_tapes_only_the_base_tower():
    # the plan stream is the switch: a din-miss step given none tapes
    # what a din step tapes, and a din step given one builds no tower
    splits = make_toy_splits()
    idx = np.arange(16)
    taped = []
    for cfg, ssl_rng in ((tiny_cfg(), None), (tiny_cfg(model="din"), None),
                         (tiny_cfg(model="din"), np.random.default_rng(3))):
        model = build_model(cfg, splits)
        graph = ad.fresh_graph()
        total, ll, ssl = trainer.step_loss(model, splits.train, idx, True, ssl_rng)
        assert ssl is None and total is ll
        taped.append(len(graph.nodes))
    assert taped[0] == taped[1] == taped[2] > 0


def test_phase_one_leaves_base_mlp_untouched():
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    ssl_params = model.ssl_parameters()
    ad.zero_grads(model.parameters().values())
    train_step(
        model, splits.train, np.arange(16), np.random.default_rng(3),
        AdamState(), ssl_params, step=0, click=False,
    )
    for k, p in model.base_parameters().items():
        if k.startswith("base:"):
            assert p.grad is None, k


def test_pretrain_runs_two_phases():
    splits = make_toy_splits()
    cfg = tiny_cfg(epochs=2, strategy="pretrain")
    result = train(cfg, splits)
    epochs = [r.epoch for r in result.history]
    assert epochs == [0, 1, 2, 3]
    # phase 1 has no click loss; phase 2 has no auxiliary loss
    assert all(r.loss_ll == 0.0 for r in result.history[:2])
    assert all(r.loss_ll > 0.0 for r in result.history[2:])
    assert all(r.loss_interest == 0.0 for r in result.history[2:])
    # step numbers run on across the phase boundary
    assert [r.step for r in result.telemetry] == list(range(len(result.telemetry)))
    # phase 2 gets no plan stream, so its steps build no contrastive tower
    half = len(result.telemetry) // 2
    assert not any(math.isnan(r.sim_mean) for r in result.telemetry[:half])
    for r in result.telemetry[half:]:
        assert all(math.isnan(s) for s in (r.sim_mean, r.sim_min, r.sim_max))
        assert r.loss_interest == r.loss_feature == 0.0
        assert r.n_infeasible_interest == r.n_infeasible_feature == 0


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


def test_early_stop_restores_best_checkpoint():
    splits = make_toy_splits(n_train=96, seed=4)
    cfg = tiny_cfg(epochs=8, patience=2, lr=5e-2, model="din")
    result = train(cfg, splits)
    assert result.best_val_auc == max(r.val_auc for r in result.history)
    assert result.history[result.best_epoch].val_auc == result.best_val_auc
    # restored parameters reproduce the best validation score
    scores = predict_scores(result.model, splits.valid, cfg.batch_size)
    from missctr.metrics import auc

    assert auc(scores, splits.valid.label) == result.best_val_auc


def test_early_stop_halts_before_epoch_cap():
    splits = make_toy_splits(n_train=96, seed=4)
    cfg = tiny_cfg(epochs=50, patience=1, lr=5e-2, model="din")
    result = train(cfg, splits)
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


@pytest.mark.parametrize("fields, over, dead, want", [
    # one field (no attribute column): every vertical kernel would leave
    # at most one field row, so the model holds none and no feature pair forms
    (["item"], dict(), "ssl:enc_feat",
     "field count 1 and n_depths 2 keep no vertical kernel: the feature loss never forms a pair, "
     "so it trains nothing"),
    # one time column: no branch leaves the two an interest pair reads
    (["item", "attr_1"], dict(n_branches=1, max_len=1, alpha_feature=0.0), "ssl:enc_int",
     "max_len 1 gives no branch two windows: the interest loss never forms a pair, "
     "so it trains nothing"),
], ids=["feature", "interest"])
def test_a_weighted_loss_that_never_forms_a_pair_is_reported_once(caplog, fields, over, dead,
                                                                  want):
    from dataclasses import replace

    from missctr.data import build_splits, synth_generate

    log = synth_generate(40, 20, 4, (6, 10), seed=0)
    log = replace(log, seq_fields=fields, tokens=log.tokens[:len(fields)],
                  codes=log.codes[:len(fields)])
    cfg = tiny_cfg(epochs=1, **over)
    splits = build_splits(log, max_len=cfg.max_len, seed=0)
    with caplog.at_level("WARNING", logger="missctr"):
        result = train(cfg, splits)
    assert len(result.telemetry) > 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [want]
    assert not [k for k in result.model.parameters() if k.startswith(dead)]
    assert not any(result.model.conv.vertical)


def test_pad_row_stays_zero_through_training():
    splits = make_toy_splits()
    result = train(tiny_cfg(epochs=1), splits)
    for name, t in result.model.tables.items():
        assert np.array_equal(t.data[0], np.zeros(t.data.shape[1])), name


def test_predict_scores_covers_tail_batch():
    splits = make_toy_splits(n_valid=10)
    model = build_model(tiny_cfg(batch_size=4), splits)
    got = predict_scores(model, splits.valid, 4)
    want = predict_scores(model, splits.valid, 16)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    assert np.all(got > 0) and np.all(got < 1)


def test_predict_scores_between_forward_and_backward_leaves_the_tape_alone():
    # scoring runs off the tape: mid-step it appends no node and writes
    # no gradient, and the step's backward is the one it has without it
    splits = make_toy_splits()
    model = build_model(tiny_cfg(), splits)
    params = model.parameters()
    alone = predict_scores(model, splits.valid, 4)

    def step_grads(score_mid_step):
        ad.zero_grads(params.values())
        graph = ad.fresh_graph()
        loss, _, _ = trainer.step_loss(model, splits.train, np.arange(16), True,
                                       np.random.default_rng(0))
        n_nodes = len(graph.nodes)
        if score_mid_step:
            scores = predict_scores(model, splits.valid, 4)
            assert scores.tobytes() == alone.tobytes()
            assert ad.active_graph() is graph and len(graph.nodes) == n_nodes
            assert all(p.grad is None for p in params.values())
        graph.backward(loss)
        return {k: None if p.grad is None else p.grad.tobytes() for k, p in params.items()}

    assert step_grads(True) == step_grads(False)
