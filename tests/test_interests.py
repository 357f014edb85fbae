"""Extractors against naive loop oracles (bitwise), augmentation
sampling laws, encoders, and the contrastive loss against an explicit
softmax cross-entropy reference."""

import numpy as np
import pytest

from missctr import autodiff as ad
from missctr import interests as I
from missctr.errors import ConfigError, ShapeError
from missctr.gradcheck import check_gradients
from oracles import naive_field_conv, naive_infonce, naive_time_conv


def make_bank(n_branches, n_depths, seed=0):
    return I.init_conv_bank(n_branches, n_depths, np.random.default_rng(seed))


def test_channel_stack_is_the_field_table_rows():
    from missctr import base_model as bm
    from missctr import embeddings as E

    rng = np.random.default_rng(40)
    fields = ["item", "attr_1", "attr_2"]
    tables = E.init_tables({f: 9 for f in fields}, 4, rng)
    seq = rng.integers(0, 9, size=(3, len(fields), 5))
    C = I.channel_stack(bm.behavior_matrix(tables, fields, seq), len(fields))
    assert C.shape == (3, 3, 5, 4)
    for j, f in enumerate(fields):
        assert np.array_equal(C.data[:, j], tables[f].data[seq[:, j]])


def test_width_one_kernel_is_scaled_relu():
    rng = np.random.default_rng(0)
    bank = make_bank(1, 0)
    C = rng.normal(size=(2, 3, 5, 4))
    out = I.mie_forward(ad.constant(C), np.ones((2, 5)), bank)
    g0 = bank.horizontal[0].data[0]
    assert np.array_equal(out.branches[0].data, np.maximum(C * g0, 0.0))


def test_mie_matches_naive_oracle_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n_j = int(rng.integers(1, 5))
        n_l = int(rng.integers(2, 13))
        n_k = int(rng.integers(1, 7))
        n_m = int(rng.integers(1, min(4, n_l) + 1))
        bank = make_bank(n_m, 0, seed=int(rng.integers(1000)))
        C = rng.normal(size=(2, n_j, n_l, n_k))
        out = I.mie_forward(ad.constant(C), np.ones((2, n_l)), bank)
        assert out.n_vectors == sum(n_l - m + 1 for m in out.widths)
        for bi, g in enumerate(bank.horizontal):
            for b in range(2):
                ref = naive_time_conv(C[b], g.data)
                assert np.array_equal(out.branches[bi].data[b], ref)


def test_mimfe_matches_naive_oracle_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_j = int(rng.integers(1, 5))
        n_l = int(rng.integers(2, 13))
        n_k = int(rng.integers(1, 7))
        n_m = int(rng.integers(1, min(4, n_l) + 1))
        n_n = int(rng.integers(1, min(2, n_j) + 1))
        bank = make_bank(n_m, n_n, seed=int(rng.integers(1000)))
        C = rng.normal(size=(2, n_j, n_l, n_k))
        mid = I.mie_forward(ad.constant(C), np.ones((2, n_l)), bank)
        fine = I.mimfe_forward(mid, bank)
        assert fine.row_count(n_j) == sum(n_j - n + 1 for n in fine.depths)
        for (bi, di), t in fine.maps.items():
            for b in range(2):
                ref = naive_field_conv(mid.branches[bi].data[b], bank.vertical[bi][di].data)
                assert np.array_equal(t.data[b], ref)


def test_vector_count_example():
    # J=2, L=5, K=3, M=2 -> (5) + (4) = 9 interest vectors
    bank = make_bank(2, 0)
    C = ad.constant(np.random.default_rng(3).normal(size=(1, 2, 5, 3)))
    out = I.mie_forward(C, np.ones((1, 5)), bank)
    assert out.n_vectors == 9


def test_row_count_example():
    # J=3, N=2 -> (3) + (2) = 5 refined rows
    bank = make_bank(1, 2)
    C = ad.constant(np.random.default_rng(3).normal(size=(1, 3, 4, 2)))
    fine = I.mimfe_forward(I.mie_forward(C, np.ones((1, 4)), bank), bank)
    assert fine.depths == [1, 2]
    assert fine.row_count(3) == 5


def test_branch_wider_than_sequence_skipped():
    bank = make_bank(4, 0)
    C = ad.constant(np.random.default_rng(4).normal(size=(1, 2, 3, 2)))
    out = I.mie_forward(C, np.ones((1, 3)), bank)
    assert out.widths == [1, 2, 3]


def test_param_count_law():
    for n_m, n_n in [(1, 1), (2, 2), (4, 2), (3, 0)]:
        bank = make_bank(n_m, n_n)
        expected = n_m * (n_m + 1) // 2 + n_m * (n_n * (n_n + 1) // 2)
        assert bank.param_count() == expected
        assert sum(t.data.size for t in bank.named().values()) == expected


def test_mie_rejects_wrong_rank():
    bank = make_bank(1, 0)
    with pytest.raises(ShapeError):
        I.mie_forward(ad.constant(np.zeros((2, 3, 4))), np.ones((2, 3)), bank)


def test_window_validity_front_padding():
    mask = np.array([[0, 0, 1, 1, 1], [1, 1, 1, 1, 1]], dtype=float)
    np.testing.assert_array_equal(
        I.window_validity(mask, 2), [[False, False, True, True], [True, True, True, True]]
    )


# ---------------------------------------------------------------------------
# augmentation plans


def bank_for_lengths(seq_lens, max_len, n_branches, seed=0):
    n_b = len(seq_lens)
    mask = np.zeros((n_b, max_len))
    for i, s in enumerate(seq_lens):
        mask[i, max_len - s :] = 1.0
    bank = make_bank(n_branches, 1, seed=seed)
    C = ad.constant(np.random.default_rng(seed + 1).normal(size=(n_b, 3, max_len, 2)))
    return I.mie_forward(C, mask, bank), bank


def test_interest_plan_offset_clamped_by_windows():
    # seq_len 2 with width-1 branch: 2 valid windows, offset forced to 1
    mid, _ = bank_for_lengths([2], 6, 1)
    plan = I.sample_interest_plan(mid, 8, max_offset=4, rng=np.random.default_rng(0))
    assert plan.rows.tolist() == [0]
    assert set(plan.offset.reshape(-1).tolist()) == {1}
    assert plan.n_infeasible == 0


def test_interest_plan_adjacent_when_offset_one():
    mid, _ = bank_for_lengths([6, 5], 6, 2)
    plan = I.sample_interest_plan(mid, 10, max_offset=1, rng=np.random.default_rng(1))
    assert np.all(plan.offset == 1)


def test_interest_plan_excludes_short_sequences():
    mid, _ = bank_for_lengths([1, 6], 6, 1)
    plan = I.sample_interest_plan(mid, 2, max_offset=2, rng=np.random.default_rng(2))
    assert plan.rows.tolist() == [1]
    assert plan.n_infeasible == 1


def test_interest_plan_pairs_stay_valid():
    mid, _ = bank_for_lengths([3, 5, 6], 8, 3)
    plan = I.sample_interest_plan(mid, 50, max_offset=4, rng=np.random.default_rng(3))
    for p in range(plan.n_pairs):
        for ci, b in enumerate(plan.rows):
            m = plan.branch[p, ci]
            v = mid.valid[m][b]
            assert v[plan.anchor[p, ci]]
            assert v[plan.anchor[p, ci] + plan.offset[p, ci]]


def test_interest_plan_offset_uniform_chi_square():
    # 10 valid windows, max_offset 4 -> h uniform on {1..4}; df=3,
    # critical value 16.27 at p=0.001
    mid, _ = bank_for_lengths([10], 10, 1)
    plan = I.sample_interest_plan(mid, 10_000, max_offset=4, rng=np.random.default_rng(4))
    counts = np.bincount(plan.offset.reshape(-1), minlength=5)[1:]
    expected = 10_000 / 4
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 16.27, counts


def test_interest_plan_branch_uniform_chi_square():
    mid, _ = bank_for_lengths([10], 10, 2)
    plan = I.sample_interest_plan(mid, 10_000, max_offset=1, rng=np.random.default_rng(5))
    counts = np.bincount(plan.branch.reshape(-1), minlength=2)
    chi2 = ((counts - 5000.0) ** 2 / 5000.0).sum()
    assert chi2 < 10.83, counts  # df=1, p=0.001


def chi_square(counts):
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


# chi-square critical values at p = 0.001, by degrees of freedom
CHI2_CRIT = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52}


def test_interest_plan_branch_uniform_over_own_feasible_branches():
    # widths 1, 2, 3: a 2-event row can pair only width-1 windows, a
    # 3-event row widths 1-2, a 6-event row all three
    mid, _ = bank_for_lengths([2, 3, 6], 6, 3)
    plan = I.sample_interest_plan(mid, 6000, max_offset=1, rng=np.random.default_rng(31))
    assert plan.rows.tolist() == [0, 1, 2]
    for ci, n_feasible in enumerate([1, 2, 3]):
        counts = np.bincount(plan.branch[:, ci], minlength=3)
        assert counts[n_feasible:].sum() == 0, counts
        if n_feasible > 1:
            assert chi_square(counts[:n_feasible]) < CHI2_CRIT[n_feasible - 1], (ci, counts)


def test_feature_plan_slice_uniform_over_own_feasible_slices():
    # widths 1 and 2, one depth each: a 1-event row has a valid column
    # only in the width-1 branch, a 4-event row in both
    mid, bank = bank_for_lengths([1, 4], 6, 2, seed=32)
    fine = I.mimfe_forward(mid, bank)
    plan = I.sample_feature_plan(mid, fine, 6000, np.random.default_rng(32))
    assert np.all(plan.branch[:, 0] == 0)
    counts = np.bincount(plan.branch[:, 1], minlength=2)
    assert chi_square(counts) < CHI2_CRIT[1], counts


def test_interest_plan_anchor_uniform_over_valid_columns():
    # 6 events in 8 slots, width 1: columns 2..7 are valid, so given the
    # offset h the anchor is uniform on 2..7-h
    mid, _ = bank_for_lengths([6], 8, 1)
    plan = I.sample_interest_plan(mid, 12_000, max_offset=3, rng=np.random.default_rng(33))
    for h in (1, 2, 3):
        anchors = plan.anchor[plan.offset == h]
        assert anchors.min() >= 2 and anchors.max() <= 7 - h
        counts = np.bincount(anchors - 2, minlength=6 - h)
        assert chi_square(counts) < CHI2_CRIT[5 - h], (h, counts)


def test_feature_plan_row_pair_uniform_over_ordered_distinct_pairs():
    # 3 fields, depth 1: 3 rows, so 6 ordered pairs of distinct rows
    mid, bank = bank_for_lengths([5], 6, 1, seed=34)
    fine = I.mimfe_forward(mid, bank)
    plan = I.sample_feature_plan(mid, fine, 6000, np.random.default_rng(34))
    pair = plan.row_a.reshape(-1) * 3 + plan.row_b.reshape(-1)
    counts = np.bincount(pair, minlength=9)
    assert counts[[0, 4, 8]].sum() == 0, counts
    assert chi_square(counts[[1, 2, 3, 5, 6, 7]]) < CHI2_CRIT[5], counts


def test_plan_determinism():
    mid, bank = bank_for_lengths([4, 6, 3], 7, 2)
    fine = I.mimfe_forward(mid, bank)
    a = I.sample_interest_plan(mid, 4, 3, np.random.default_rng(9))
    b = I.sample_interest_plan(mid, 4, 3, np.random.default_rng(9))
    assert np.array_equal(a.branch, b.branch) and np.array_equal(a.anchor, b.anchor)
    fa = I.sample_feature_plan(mid, fine, 4, np.random.default_rng(9))
    fb = I.sample_feature_plan(mid, fine, 4, np.random.default_rng(9))
    assert np.array_equal(fa.row_a, fb.row_a) and np.array_equal(fa.anchor, fb.anchor)


def test_feature_plan_rows_distinct_and_slice_shared():
    mid, bank = bank_for_lengths([5, 7], 8, 2, seed=6)
    fine = I.mimfe_forward(mid, bank)
    plan = I.sample_feature_plan(mid, fine, 200, np.random.default_rng(6))
    assert np.all(plan.row_a != plan.row_b)
    for p in range(plan.n_pairs):
        for ci, b in enumerate(plan.rows):
            assert mid.valid[plan.branch[p, ci]][b, plan.anchor[p, ci]]
            n_rows = fine.maps[(int(plan.branch[p, ci]), int(plan.depth[p, ci]))].shape[1]
            assert plan.row_a[p, ci] < n_rows and plan.row_b[p, ci] < n_rows


def test_feature_plan_short_sequence_still_feasible():
    # a single event gives no interest pair but width-1 windows allow
    # a feature pair as long as the slice keeps two rows
    mid, bank = bank_for_lengths([1, 6], 6, 1, seed=7)
    fine = I.mimfe_forward(mid, bank)
    iplan = I.sample_interest_plan(mid, 2, 2, np.random.default_rng(7))
    fplan = I.sample_feature_plan(mid, fine, 2, np.random.default_rng(7))
    assert iplan.n_infeasible == 1
    assert fplan.n_infeasible == 0
    assert fplan.rows.tolist() == [0, 1]


def test_two_field_depth_two_slice_excluded():
    # J=2 with a width-2 vertical kernel leaves one row; that slice can
    # never serve a two-row pair
    mask = np.ones((2, 6))
    bank = make_bank(1, 2, seed=8)
    C = ad.constant(np.random.default_rng(8).normal(size=(2, 2, 6, 3)))
    mid = I.mie_forward(C, mask, bank)
    fine = I.mimfe_forward(mid, bank)
    plan = I.sample_feature_plan(mid, fine, 100, np.random.default_rng(8))
    assert set(plan.depth.reshape(-1).tolist()) == {0}


def test_max_offset_validation():
    mid, _ = bank_for_lengths([5], 6, 1)
    with pytest.raises(ConfigError):
        I.sample_interest_plan(mid, 1, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# view gathering


def test_gathered_interest_views_match_direct_indexing():
    mid, _ = bank_for_lengths([6, 4, 5], 6, 2, seed=10)
    plan = I.sample_interest_plan(mid, 3, 3, np.random.default_rng(10))
    z1, z2 = I.gather_interest_views(mid, plan)
    n = plan.rows.size
    for p in range(plan.n_pairs):
        for ci, b in enumerate(plan.rows):
            m = plan.branch[p, ci]
            l = plan.anchor[p, ci]
            h = plan.offset[p, ci]
            expect1 = mid.branches[m].data[b, :, l, :].reshape(-1)
            expect2 = mid.branches[m].data[b, :, l + h, :].reshape(-1)
            assert np.array_equal(z1.data[p * n + ci], expect1)
            assert np.array_equal(z2.data[p * n + ci], expect2)


def test_gathered_feature_views_match_direct_indexing():
    mid, bank = bank_for_lengths([6, 5], 6, 2, seed=11)
    fine = I.mimfe_forward(mid, bank)
    plan = I.sample_feature_plan(mid, fine, 3, np.random.default_rng(11))
    z1, z2 = I.gather_feature_views(fine, plan)
    n = plan.rows.size
    for p in range(plan.n_pairs):
        for ci, b in enumerate(plan.rows):
            key = (int(plan.branch[p, ci]), int(plan.depth[p, ci]))
            l = plan.anchor[p, ci]
            assert np.array_equal(z1.data[p * n + ci], fine.maps[key].data[b, plan.row_a[p, ci], l, :])
            assert np.array_equal(z2.data[p * n + ci], fine.maps[key].data[b, plan.row_b[p, ci], l, :])


# ---------------------------------------------------------------------------
# encoders


def test_encoder_shapes_and_relu_placement():
    rng = np.random.default_rng(12)
    enc = I.init_encoder(6, (20, 20), rng, "enc")
    assert [w.shape for w in enc.weights] == [(6, 20), (20, 20)]
    x = ad.constant(rng.normal(size=(4, 6)))
    out = I.encode(x, enc)
    # final layer is affine: outputs may be negative
    assert out.shape == (4, 20)
    assert (out.data < 0).any()


def test_zero_encoder_maps_to_zero():
    enc = I.init_encoder(6, (5, 5), np.random.default_rng(13), "enc")
    for w in enc.weights:
        w.data[:] = 0.0
    out = I.encode(ad.constant(np.ones((3, 6))), enc)
    np.testing.assert_array_equal(out.data, np.zeros((3, 5)))


def test_encoder_shared_between_views():
    rng = np.random.default_rng(14)
    enc = I.init_encoder(4, (3, 3), rng, "enc")
    a = ad.parameter(rng.normal(size=(2, 4)))
    g = ad.fresh_graph()
    za = I.encode(a, enc)
    zb = I.encode(a, enc)  # same params twice
    g.backward(ad.add(ad.tsum(za), ad.tsum(zb)))
    one = enc.weights[0].grad.copy()
    ad.zero_grads([enc.weights[0]])
    g2 = ad.fresh_graph()
    g2.backward(ad.tsum(I.encode(a, enc)))
    np.testing.assert_allclose(one, 2.0 * enc.weights[0].grad, rtol=1e-12)


# ---------------------------------------------------------------------------
# InfoNCE


def test_infonce_two_sample_reference_value():
    z1 = ad.constant(np.eye(2))
    z2 = ad.constant(np.eye(2))
    loss = I.infonce(z1, z2, tau=1.0)
    assert abs(float(loss.data) - np.log(1.0 + np.exp(-1.0))) < 1e-12
    assert abs(float(loss.data) - 0.3132616875182228) < 1e-12


def test_infonce_matches_naive_oracle():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.choice([2, 4, 8]))
        d = int(rng.integers(2, 6))
        tau = float(rng.choice([0.05, 0.1, 1.0]))
        z1 = rng.normal(size=(n, d))
        z2 = rng.normal(size=(n, d))
        mine = float(I.infonce(ad.constant(z1), ad.constant(z2), tau).data)
        ref = naive_infonce(z1, z2, tau)
        assert abs(mine - ref) < 1e-10


def test_infonce_sharper_temperature_separates():
    # well-aligned positives, orthogonal negatives: smaller tau shrinks the loss
    z1 = ad.constant(np.eye(3))
    z2 = ad.constant(np.eye(3))
    l1 = float(I.infonce(z1, z2, 1.0).data)
    l05 = float(I.infonce(z1, z2, 0.5).data)
    assert l05 < l1


def test_infonce_zero_rows_finite():
    z1 = ad.constant(np.zeros((2, 3)))
    z2 = ad.constant(np.ones((2, 3)))
    assert np.isfinite(float(I.infonce(z1, z2, 0.1).data))


def test_infonce_needs_two_rows():
    with pytest.raises(ShapeError):
        I.infonce(ad.constant(np.ones((1, 3))), ad.constant(np.ones((1, 3))), 1.0)


def test_infonce_rejects_bad_temperature():
    z = ad.constant(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        I.infonce(z, z, 0.0)


def test_infonce_gradient_fd():
    rng = np.random.default_rng(16)
    z1 = ad.parameter(rng.normal(size=(4, 5)))
    z2 = ad.parameter(rng.normal(size=(4, 5)))
    report = check_gradients(lambda: I.infonce(z1, z2, 0.1), {"z1": z1, "z2": z2})
    assert report.ok, "\n".join(report.lines())


def test_stacked_infonce_is_the_mean_of_its_slots():
    # (P, n, d) scores each slot with its own softmax over its n rows;
    # every slot has the same n, so the mean over slots and rows is the
    # mean of the per-slot 2-d losses
    rng = np.random.default_rng(18)
    z1 = ad.parameter(rng.normal(size=(3, 4, 5)))
    z2 = ad.parameter(rng.normal(size=(3, 4, 5)))
    stacked = float(I.infonce(z1, z2, 0.1).data)
    per_slot = [
        float(I.infonce(ad.constant(z1.data[p]), ad.constant(z2.data[p]), 0.1).data)
        for p in range(3)
    ]
    assert abs(stacked - np.mean(per_slot)) < 1e-12
    report = check_gradients(lambda: I.infonce(z1, z2, 0.1), {"z1": z1, "z2": z2})
    assert report.ok, "\n".join(report.lines())


def test_similarity_stats_bounds():
    rng = np.random.default_rng(17)
    pairs = [(ad.constant(rng.normal(size=(4, 3))), ad.constant(rng.normal(size=(4, 3))))]
    mean_s, min_s, max_s = I.view_similarity_stats(pairs)
    assert -1.0 <= min_s <= mean_s <= max_s <= 1.0
    nan_stats = I.view_similarity_stats([])
    assert all(np.isnan(v) for v in nan_stats)


# ---------------------------------------------------------------------------
# end-to-end ssl forward, plans re-drawn from a re-seeded stream


def test_ssl_forward_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    n_b, n_j, n_l, n_k = 3, 2, 6, 3
    bank = make_bank(2, 2, seed=19)
    enc_i = I.init_encoder(n_j * n_k, (5, 5), np.random.default_rng(20), "enc_i")
    enc_f = I.init_encoder(n_k, (4, 4), np.random.default_rng(21), "enc_f")
    C0 = ad.parameter(rng.normal(size=(n_b, n_j, n_l, n_k)))
    mask = np.zeros((n_b, n_l))
    for i, s in enumerate([6, 4, 5]):
        mask[i, n_l - s :] = 1.0

    def build():
        out = I.ssl_forward(
            C0, mask, bank, enc_i, enc_f,
            n_pairs_interest=2, n_pairs_feature=2, max_offset=3, tau=0.1,
            rng=np.random.default_rng(22),
        )
        return ad.add(out.loss_interest, out.loss_feature)

    params = {"C": C0, **bank.named(), **enc_i.named("enc_i"), **enc_f.named("enc_f")}
    report = check_gradients(build, params)
    assert report.ok, "\n".join(report.lines())


def test_ssl_forward_replay_is_deterministic():
    rng = np.random.default_rng(23)
    bank = make_bank(2, 1, seed=24)
    enc_i = I.init_encoder(4, (3,), np.random.default_rng(25), "enc_i")
    enc_f = I.init_encoder(2, (3,), np.random.default_rng(26), "enc_f")
    C0 = ad.constant(rng.normal(size=(4, 2, 5, 2)))
    mask = np.ones((4, 5))
    out1 = I.ssl_forward(C0, mask, bank, enc_i, enc_f, 2, 2, 2, 0.1, rng=np.random.default_rng(27))
    out2 = I.ssl_forward(C0, mask, bank, enc_i, enc_f, 2, 2, 2, 0.1, rng=np.random.default_rng(27))
    assert float(out1.loss_interest.data) == float(out2.loss_interest.data)
    assert float(out1.loss_feature.data) == float(out2.loss_feature.data)


def test_ssl_tape_does_not_grow_with_pair_slots():
    # each loss tapes 2 gathers, 2 encoder passes and 1 InfoNCE, however
    # many pair slots it scores
    rng = np.random.default_rng(31)
    bank = make_bank(2, 2, seed=32)
    enc_i = I.init_encoder(6, (4, 4), np.random.default_rng(33), "enc_i")
    enc_f = I.init_encoder(3, (4, 4), np.random.default_rng(34), "enc_f")
    C0 = ad.parameter(rng.normal(size=(4, 2, 6, 3)))
    sizes = []
    for n_pairs in (1, 2, 7):
        g = ad.fresh_graph()
        out = I.ssl_forward(C0, np.ones((4, 6)), bank, enc_i, enc_f, n_pairs, n_pairs, 2, 0.1,
                            rng=np.random.default_rng(35))
        assert out.loss_interest is not None and out.loss_feature is not None
        sizes.append(len(g.nodes))
    assert sizes[0] == sizes[1] == sizes[2]


def test_ssl_forward_counts_infeasible_and_skips():
    # every sequence too short for an interest pair: loss_interest None
    bank = make_bank(1, 1, seed=28)
    C0 = ad.constant(np.random.default_rng(29).normal(size=(3, 2, 4, 2)))
    mask = np.zeros((3, 4))
    mask[:, -1] = 1.0  # seq_len 1 everywhere
    out = I.ssl_forward(C0, mask, bank, I.init_encoder(4, (3,), np.random.default_rng(0), "a"),
                        I.init_encoder(2, (3,), np.random.default_rng(1), "b"),
                        2, 2, 2, 0.1, rng=np.random.default_rng(30))
    assert out.loss_interest is None
    assert out.n_infeasible_interest == 3
    assert out.loss_feature is not None  # two fields still give row pairs
