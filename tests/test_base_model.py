"""Attention pooling, prediction MLP, and logloss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import concat_laup_pool, front_mask

from missctr import autodiff as ad
from missctr import base_model as bm
from missctr import embeddings as E
from missctr.gradcheck import check_gradients


def make_params(x_dim=14, step_dim=6, mlp=(8, 1), seed=0):
    return bm.init_base_params(x_dim, step_dim, mlp, np.random.default_rng(seed))


def manual_lau_score(v_t, c, params):
    z = np.concatenate([v_t, c, v_t * c, v_t - c])
    h = np.maximum(z @ params.lau_w1.data + params.lau_b1.data, 0.0)
    return (h @ params.lau_w2.data + params.lau_b2.data).item()


def test_single_event_pooling_matches_manual():
    rng = np.random.default_rng(1)
    params = make_params()
    v = rng.normal(size=(1, 4, 6))
    cand = rng.normal(size=(1, 6))
    mask = front_mask([1], 4)
    out = bm.laup_pool(ad.constant(v), mask, ad.constant(cand), params)
    w = manual_lau_score(v[0, 3], cand[0], params)
    np.testing.assert_allclose(out.data, (w * v[0, 3])[None], rtol=1e-12)


def test_pooling_permutation_invariant_over_real_events():
    # each step's weight depends only on that step and the candidate,
    # so permuting real events permutes the summands
    rng = np.random.default_rng(3)
    params = make_params()
    v = rng.normal(size=(1, 6, 6))
    cand = ad.constant(rng.normal(size=(1, 6)))
    mask = np.ones((1, 6))
    base = bm.laup_pool(ad.constant(v), mask, cand, params).data
    perm = rng.permutation(6)
    permuted = bm.laup_pool(ad.constant(v[:, perm]), mask, cand, params).data
    np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-12)


def test_padded_positions_cannot_leak():
    rng = np.random.default_rng(4)
    params = make_params()
    v = rng.normal(size=(2, 5, 6))
    mask = front_mask([2, 4], 5)
    cand = ad.constant(rng.normal(size=(2, 6)))
    base = bm.laup_pool(ad.constant(v), mask, cand, params).data
    junk = v.copy()
    junk[mask == 0] = rng.normal(size=6) * 100.0
    out = bm.laup_pool(ad.constant(junk), mask, cand, params).data
    np.testing.assert_array_equal(out, base)


def pool_and_grads(pool, v, mask, cand, params, upstream):
    """The pooled output and the gradients of v, cand and the four
    attention-unit parameters under the loss sum(pooled * upstream)."""
    lau = [params.lau_w1, params.lau_b1, params.lau_w2, params.lau_b2]
    ad.zero_grads([v, cand, *lau])
    g = ad.fresh_graph()
    out = pool(v, mask, cand, params)
    g.backward(ad.tsum(ad.mul(out, ad.constant(upstream))))
    return [out.data] + [t.grad for t in (v, cand, *lau)]


@pytest.mark.parametrize("seq_len, n_l, dim", [
    ([3, 1, 5, 2], 5, 6),  # front padding, a single-event row
    ([1], 4, 12),  # B=1, one event
    ([16, 7, 1], 16, 20),  # the gate's step width and length
])
def test_folded_pool_matches_the_concatenated_first_layer(seq_len, n_l, dim):
    rng = np.random.default_rng(dim)
    params = make_params(step_dim=dim, seed=dim)
    # nonzero biases, so each bias gradient is checked on its own path
    params.lau_b1.data[:] = rng.normal(size=params.lau_b1.shape) * 0.1
    params.lau_b2.data[:] = 0.3
    nb = len(seq_len)
    v = ad.parameter(rng.normal(size=(nb, n_l, dim)))
    cand = ad.parameter(rng.normal(size=(nb, dim)))
    mask = front_mask(seq_len, n_l)
    upstream = rng.normal(size=(nb, dim))
    got = pool_and_grads(bm.laup_pool, v, mask, cand, params, upstream)
    want = pool_and_grads(concat_laup_pool, v, mask, cand, params, upstream)
    names = ["pooled", "v", "cand", "lau_w1", "lau_b1", "lau_w2", "lau_b2"]
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
        assert np.max(np.abs(b)) > 0.0, name  # nothing compared is trivially zero


def test_zero_parameters_predict_half():
    params = make_params()
    for t in params.named().values():
        t.data[:] = 0.0
    x = ad.constant(np.random.default_rng(5).normal(size=(4, 14)))
    np.testing.assert_array_equal(bm.mlp_predict(x, params).data, 0.5 * np.ones(4))


def test_predictions_bounded_and_deterministic():
    rng = np.random.default_rng(6)
    params = make_params()
    x = ad.constant(rng.normal(size=(8, 14)) * 5.0)
    p1 = bm.mlp_predict(x, params).data
    p2 = bm.mlp_predict(x, params).data
    assert np.all((p1 > 0.0) & (p1 < 1.0))
    np.testing.assert_array_equal(p1, p2)


# ---------------------------------------------------------------------------
# logloss


def test_logloss_at_half_is_ln2():
    preds = ad.constant([0.5, 0.5])
    assert abs(bm.logloss(preds, np.array([1, 0])).data - np.log(2.0)) < 1e-15


def test_logloss_perfect_prediction_tiny_after_clip():
    preds = ad.constant([1.0, 0.0])
    loss = float(bm.logloss(preds, np.array([1, 0])).data)
    assert 0.0 < loss < 3e-11


def test_logloss_reference_value():
    preds = ad.constant([0.9, 0.1])
    loss = float(bm.logloss(preds, np.array([1, 0])).data)
    assert abs(loss - 0.10536051565782628) < 1e-12


def test_logloss_gradient_pushes_toward_labels():
    p = ad.parameter([0.3, 0.7])
    g = ad.fresh_graph()
    g.backward(bm.logloss(p, np.array([1, 0])))
    assert p.grad[0] < 0.0 and p.grad[1] > 0.0


# ---------------------------------------------------------------------------
# full chain gradient check on a tiny instance


def test_full_chain_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    n_b, n_l, dim = 3, 6, 4
    cat_fields = ["user", "ctx"]
    seq_fields = ["item", "attr_1"]
    sizes = {"user": 5, "ctx": 4, "item": 8, "attr_1": 3}
    tables = E.init_tables(sizes, dim, rng)
    x_dim = len(cat_fields) * dim + 2 * len(seq_fields) * dim
    base = bm.init_base_params(x_dim, len(seq_fields) * dim, (5, 1), rng)

    cat = np.stack([rng.integers(2, 5, size=n_b), rng.integers(2, 4, size=n_b)], axis=1)
    seq = np.zeros((n_b, 2, n_l), dtype=np.int64)
    seq_len = np.array([4, 6, 2])
    for i in range(n_b):
        s = seq_len[i]
        seq[i, 0, n_l - s :] = rng.integers(2, 8, size=s)
        seq[i, 1, n_l - s :] = rng.integers(2, 3, size=s)
    cand = np.stack([rng.integers(2, 8, size=n_b), rng.integers(2, 3, size=n_b)], axis=1)
    labels = np.array([1, 0, 1])
    mask = front_mask(seq_len, n_l)

    def build():
        v = bm.field_concat(tables, seq_fields, seq)
        preds = bm.predict_batch(tables, cat_fields, seq_fields, base, cat, v, mask, cand)
        return bm.logloss(preds, labels)

    params = {**{f"emb_{k}": v for k, v in tables.items()}, **base.named()}
    report = check_gradients(build, params)
    assert report.ok, "\n".join(report.lines())


# ---------------------------------------------------------------------------
# the untaped scorer


@settings(max_examples=200, deadline=None)
@given(
    n_seq=st.integers(1, 3), n_cat=st.integers(1, 2), dim=st.integers(1, 6),
    n_hidden=st.integers(0, 2), n_l=st.integers(1, 8), n_b=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_score_batch_is_bitwise_predict_batch(n_seq, n_cat, dim, n_hidden, n_l, n_b, seed):
    rng = np.random.default_rng(seed)
    cat_fields = [f"cat{j}" for j in range(n_cat)]
    seq_fields = [f"seq{j}" for j in range(n_seq)]
    sizes = {f: int(rng.integers(3, 12)) for f in cat_fields + seq_fields}
    tables = E.init_tables(sizes, dim, rng)
    mlp = (*rng.integers(1, 9, size=n_hidden).tolist(), 1)
    base = bm.init_base_params((n_cat + 2 * n_seq) * dim, n_seq * dim, mlp, rng)
    for t in [*tables.values(), *base.named().values()]:  # off init: biases and pad rows too
        t.data += rng.normal(size=t.shape) * rng.uniform(0.1, 3.0)

    def ids(fields, *shape):  # real ids start at 2 (0 pads, 1 is reserved)
        return np.stack([rng.integers(2, sizes[f], size=shape) for f in fields], axis=1)

    seq_len = rng.integers(0, n_l + 1, size=n_b)
    mask = np.arange(n_l) >= (n_l - seq_len)[:, None]  # front-padded, as SampleSet.batch
    seq = np.where(mask[:, None, :], ids(seq_fields, n_b, n_l), 0)
    cat, cand = ids(cat_fields, n_b), ids(seq_fields, n_b)

    v = bm.field_concat(tables, seq_fields, seq)
    want = bm.predict_batch(tables, cat_fields, seq_fields, base, cat, v, mask, cand).data
    got = bm.score_batch(tables, cat_fields, seq_fields, base, bm.fold_unit(base),
                         cat, seq, mask, cand)
    assert got.shape == want.shape == (n_b,) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
