"""Unit tests for the reverse-mode tape: op-level examples plus a
finite-difference sweep over every registered operator."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dense_scatter_add, logsumexp_grad, masked_tap_sum_conv, relu_width_one_conv_grad

from missctr import autodiff as ad
from missctr.errors import ShapeError
from missctr.gradcheck import check_gradients


def setup_function(_):
    ad.fresh_graph()


def fd_check(build_loss, params, rel_tol=1e-4, abs_tol=1e-6):
    report = check_gradients(build_loss, params, rel_tol=rel_tol, abs_tol=abs_tol)
    assert report.ok, "\n".join(report.lines())


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = ad.parameter(rng.normal(size=(3, 3)))
    eye = ad.constant(np.eye(3))
    out = ad.matmul(a, eye)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_selector_column():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    e1 = ad.constant([[1.0], [0.0]])
    out = ad.matmul(a, e1)
    np.testing.assert_array_equal(out.data, [[1.0], [3.0]])


def test_matmul_grad_ones_seed():
    # d(sum(AB))/dA = 1 B^T
    rng = np.random.default_rng(1)
    a = ad.parameter(rng.normal(size=(2, 3)))
    b = ad.constant(rng.normal(size=(3, 4)))
    g = ad.fresh_graph()
    loss = ad.tsum(ad.matmul(a, b))
    g.backward(loss)
    np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T, rtol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(a, b)


# ---------------------------------------------------------------------------
# pointwise ops


def test_relu_values():
    x = ad.constant([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad.relu(x).data, [0.0, 0.0, 2.0])


def test_relu_grad_strict_at_zero():
    x = ad.parameter([-1.0, 0.0, 2.0])
    g = ad.fresh_graph()
    g.backward(ad.tsum(ad.relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_sigmoid_midpoint_and_symmetry():
    assert ad.sigmoid(ad.constant(0.0)).data == 0.5
    for v in (-5.0, 1.3, 40.0):
        s = ad.sigmoid(ad.constant(v)).data + ad.sigmoid(ad.constant(-v)).data
        assert abs(s - 1.0) < 1e-12


def test_sigmoid_grad_at_zero():
    x = ad.parameter(0.0)
    g = ad.fresh_graph()
    g.backward(ad.sigmoid(x))
    assert abs(x.grad - 0.25) < 1e-12


def test_sigmoid_extreme_inputs_finite():
    out = ad.sigmoid(ad.constant([-700.0, 700.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] >= 0.0 and out.data[1] <= 1.0


# ---------------------------------------------------------------------------
# convolution


def naive_conv1d(x, k, axis):
    """Per-element replay of the valid cross-correlation: taps summed
    left to right, one output element at a time."""
    xm = np.moveaxis(x, axis, 0)
    out_len = xm.shape[0] - len(k) + 1
    out = np.zeros((out_len,) + xm.shape[1:])
    for l in range(out_len):
        for pos in np.ndindex(*xm.shape[1:]):
            s = xm[(l,) + pos] * k[0]
            for i in range(1, len(k)):
                s = s + xm[(l + i,) + pos] * k[i]
            out[(l,) + pos] = s
    return np.moveaxis(out, 0, axis)


def test_conv1d_forward_is_left_to_right_tap_sum():
    rng = np.random.default_rng(4)
    for axis in (1, 2):
        for w in (1, 2, 3, 4):
            x = rng.normal(size=(2, 5, 6, 3))
            k = rng.normal(size=w)
            out = ad.conv1d(ad.constant(x), ad.constant(k), axis)
            assert np.array_equal(out.data, np.maximum(naive_conv1d(x, k, axis), 0.0)), (axis, w)


def test_conv1d_grad_counts_window_coverage():
    # an all-ones width-3 kernel over 6 positions: each input counts once
    # per window that covers it
    x = ad.parameter(np.arange(6.0))
    k = ad.parameter(np.ones(3))
    g = ad.fresh_graph()
    g.backward(ad.tsum(ad.conv1d(x, k, 0)))
    np.testing.assert_array_equal(x.grad, [1, 2, 3, 3, 2, 1])
    np.testing.assert_array_equal(k.grad, [0 + 1 + 2 + 3, 1 + 2 + 3 + 4, 2 + 3 + 4 + 5])


def test_conv1d_is_one_tape_node():
    g = ad.fresh_graph()
    ad.conv1d(ad.constant(np.ones((2, 5))), ad.parameter(np.ones(3)), 1)
    assert len(g.nodes) == 1


def test_concat_of_one_part_is_that_part_untaped():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    g = ad.fresh_graph()
    t = ad.relu(x)
    assert ad.concat([t], axis=1) is t
    assert len(g.nodes) == 1
    g.backward(ad.tsum(ad.concat([t])))
    np.testing.assert_array_equal(x.grad, [[0, 1, 1], [1, 1, 1]])


def test_conv1d_relu_is_relu_of_conv1d_bitwise():
    # the ReLU inside the op must give the values and gradients of a
    # masked tap sum, zero signs included
    rng = np.random.default_rng(5)
    for axis in (0, 1):
        for w in (1, 2, 3):
            x0, k0 = _with_signed_zeros(rng, (4, 5)), rng.normal(size=w)
            x, k = ad.parameter(x0), ad.parameter(k0)
            g = ad.fresh_graph()
            out = ad.conv1d(x, k, axis)
            up = _with_signed_zeros(rng, out.shape)
            g.backward(ad.tsum(ad.mul(out, ad.constant(up))))
            want = masked_tap_sum_conv(x0, k0, axis, up)
            for got, ref in zip((out.data, x.grad, k.grad), want):
                assert got.tobytes() == ref.tobytes(), (axis, w)


def test_width_one_relu_conv1d_backward_is_the_expression_it_replaces_bitwise():
    # the masked gradient is the op's own array, so it is scaled by the
    # tap in place; zero signs and a negative tap included
    rng = np.random.default_rng(6)
    for axis in (0, 1, 2):
        for tap in (-0.7, 1.3):
            x0, up = _with_signed_zeros(rng, (3, 4, 5)), _with_signed_zeros(rng, (3, 4, 5))
            x, k = ad.parameter(x0), ad.parameter([tap])
            g = ad.fresh_graph()
            g.backward(ad.tsum(ad.mul(ad.conv1d(x, k, axis), ad.constant(up))))
            assert x.grad.tobytes() == relu_width_one_conv_grad(x0, k.data[0], up).tobytes()


def test_width_one_conv1d_masks_a_read_only_upstream_gradient():
    # tsum passes on a read-only broadcast; conv1d masks it into an array
    # of its own before scaling that in place
    x0 = np.random.default_rng(7).normal(size=(2, 3))
    x, k = ad.parameter(x0), ad.parameter([-1.5])
    g = ad.fresh_graph()
    g.backward(ad.tsum(ad.conv1d(x, k, 1)))
    ones = np.ones((2, 3))
    assert x.grad.tobytes() == relu_width_one_conv_grad(x0, -1.5, ones).tobytes()
    np.testing.assert_array_equal(k.grad, [np.einsum("ab,ab->", ones * (x0 * -1.5 > 0.0), x0)])


def test_logsumexp_backward_is_the_expression_it_replaces_bitwise():
    rng = np.random.default_rng(8)
    for shape, c in (((3, 5), 10.0), ((2, 4, 6), -1.7), ((1, 1), 0.5)):
        x0, up = rng.normal(size=shape), _with_signed_zeros(rng, shape[:-1])
        x = ad.parameter(x0)
        g = ad.fresh_graph()
        g.backward(ad.tsum(ad.mul(ad.logsumexp(x, c), ad.constant(up))))
        assert x.grad.tobytes() == logsumexp_grad(x0, c, up).tobytes(), shape


def test_conv1d_kernel_wider_than_axis():
    x = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="width 4"):
        ad.conv1d(x, ad.constant(np.ones(4)), 1)


# ---------------------------------------------------------------------------
# structure: fan-out accumulation, tape order, determinism


def test_fanout_gradient_sums():
    x = ad.parameter([1.5, -0.5])
    g = ad.fresh_graph()
    y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
    g.backward(ad.tsum(y))
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0, rtol=1e-12)


def test_gradient_accumulates_until_reset():
    x = ad.parameter([2.0])
    g = ad.fresh_graph()
    g.backward(ad.tsum(ad.scale(x, 5.0)))
    first = x.grad.copy()
    g2 = ad.fresh_graph()
    g2.backward(ad.tsum(ad.scale(x, 5.0)))
    np.testing.assert_array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 2))
    r1 = ad.matmul(ad.constant(x), ad.constant(w)).data
    r2 = ad.matmul(ad.constant(x), ad.constant(w)).data
    assert np.array_equal(r1, r2)


def test_gather_rows_scatter_add():
    table = ad.parameter(np.arange(10.0).reshape(5, 2))
    g = ad.fresh_graph()
    out = ad.gather_rows(table, np.array([1, 1, 3]))
    g.backward(ad.tsum(out))
    expected = np.zeros((5, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def _with_signed_zeros(rng, shape):
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.2] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    return x


@settings(max_examples=300, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    k=st.integers(1, 3),
    index_shapes=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=3),
                          min_size=1, max_size=3),
    dense=st.sampled_from(["none", "first", "last"]),
    dense_op=st.sampled_from(["matmul", "mul"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_rows_backward_matches_dense_scatter_add(
    n_rows, k, index_shapes, dense, dense_op, seed
):
    # one or more gathers into one table (repeated, multi-dimensional or
    # empty indices), optionally beside a dense op that reads the whole
    # table; the gradient must be the dense sum of the same parts, byte
    # for byte, signed zeros included
    rng = np.random.default_rng(seed)
    table = ad.parameter(rng.standard_normal((n_rows, k)))
    w = ad.constant(rng.standard_normal((k, 2)))
    graph = ad.fresh_graph()
    terms, parts, looked_up = [], [], []

    def dense_term():
        if dense_op == "matmul":
            up = _with_signed_zeros(rng, (n_rows, 2))
            terms.append(ad.tsum(ad.mul(ad.matmul(table, w), ad.constant(up))))
            parts.append(up @ w.data.T)
        else:  # its gradient keeps the signed zeros of up
            up = _with_signed_zeros(rng, (n_rows, k))
            terms.append(ad.tsum(ad.mul(table, ad.constant(up))))
            parts.append(up)

    if dense == "first":
        dense_term()
    for shape in index_shapes:
        idx = rng.integers(0, n_rows, size=shape)
        looked_up.append(idx.reshape(-1))
        up = _with_signed_zeros(rng, (*shape, k))
        terms.append(ad.tsum(ad.mul(ad.gather_rows(table, idx), ad.constant(up))))
        parts.append(dense_scatter_add(n_rows, idx, up))
    if dense == "last":
        dense_term()
    graph.backward(reduce(ad.add, terms))

    if dense == "none":  # read before .grad densifies
        rows, held = table.grad_rows()
        if all(i.size < n_rows for i in looked_up):  # held as the rows looked up
            np.testing.assert_array_equal(rows, np.unique(np.concatenate(looked_up)))
            assert held.shape == (rows.size, k)
        else:  # a gather with no fewer indices than rows scatters densely
            assert rows is ... and held.shape == (n_rows, k)
    # the sweep runs the tape backwards: the last part arrives first
    want = parts[-1].copy()
    for part in reversed(parts[:-1]):
        want = want + part
    assert table.grad.tobytes() == want.tobytes()


def test_gather_rows_gradient_holds_only_the_rows_looked_up():
    table = ad.parameter(np.zeros((1000, 3)))
    graph = ad.fresh_graph()
    a = ad.gather_rows(table, np.array([[7, 2], [7, 999]]))
    b = ad.gather_rows(table, np.array([2, 40]))
    graph.backward(ad.add(ad.tsum(a), ad.tsum(b)))
    rows, held = table.grad_rows()
    np.testing.assert_array_equal(rows, [2, 7, 40, 999])
    np.testing.assert_array_equal(held, [[2.0] * 3, [2.0] * 3, [1.0] * 3, [1.0] * 3])
    assert table.grad.shape == (1000, 3)  # read dense, and kept dense
    assert table.grad_rows()[0] is ...


def test_gather_rows_scatters_densely_into_an_op_output_table():
    # an op output's own backward reads its gradient dense, so a gather
    # from it leaves the dense scatter-add, byte for byte np.add.at into
    # zeros; a leaf table gathered beside it, with more rows than the 6
    # indices, stays row-sparse
    rng = np.random.default_rng(7)
    leaf, other = ad.parameter(rng.standard_normal((7, 3))), ad.parameter(rng.standard_normal((6, 3)))
    idx = np.array([[4, 1], [4, 0], [1, 4]])
    up = _with_signed_zeros(rng, (3, 2, 3))
    table = ad.scale(other, 2.0)
    ad.gather_rows(table, idx)._backward(up)
    rows, held = table.grad_rows()
    assert rows is ... and held.tobytes() == dense_scatter_add(6, idx, up).tobytes()

    def loss():
        return ad.add(ad.tsum(ad.mul(ad.gather_rows(ad.scale(other, 2.0), idx), ad.constant(up))),
                      ad.tsum(ad.gather_rows(leaf, idx)))

    graph = ad.fresh_graph()
    graph.backward(loss())
    np.testing.assert_array_equal(leaf.grad_rows()[0], [0, 1, 4])
    fd_check(loss, {"leaf": leaf, "other": other})


@settings(max_examples=300, deadline=None)
@given(
    n_rows=st.integers(1, 40),
    k=st.integers(1, 3),
    gathers=st.lists(st.tuples(st.integers(-4, 4), st.booleans()), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_rows=5, k=2, gathers=[(-1, False), (0, False), (-5, False)], seed=0)  # sparse, dense, empty
@example(n_rows=5, k=2, gathers=[(-2, False), (-1, True)], seed=1)  # sparse beside an op output
def test_gather_rows_is_row_sparse_exactly_while_the_table_outnumbers_its_gathers(
    n_rows, k, gathers, seed
):
    # each gather takes n_rows + offset indices (at least 0), from the
    # leaf table or from an op output of it; the gradient must be the
    # dense scatter-adds summed in the order the sweep delivers them,
    # byte for byte, and held row-sparse exactly when every gather read
    # the leaf itself with fewer indices than it has rows
    rng = np.random.default_rng(seed)
    leaf = ad.parameter(rng.standard_normal((n_rows, k)))
    graph = ad.fresh_graph()
    op_table = ad.reshape(leaf, leaf.shape)
    terms, leaf_parts, op_parts, looked_up = [], [], [], []
    for offset, via_op in gathers:
        idx = rng.integers(0, n_rows, size=max(n_rows + offset, 0))
        up = _with_signed_zeros(rng, (idx.size, k))
        terms.append(ad.tsum(ad.mul(ad.gather_rows(op_table if via_op else leaf, idx), ad.constant(up))))
        (op_parts if via_op else leaf_parts).append(dense_scatter_add(n_rows, idx, up))
        looked_up.append(idx)
    graph.backward(reduce(ad.add, terms))

    # the sweep runs the tape backwards: a table takes the last gather's
    # part first, and the reshape, which precedes every gather, hands the
    # op output's sum to the leaf last
    op_sum = [reduce(np.add, op_parts[::-1])] if op_parts else []
    want = reduce(np.add, leaf_parts[::-1] + op_sum)
    rows, held = leaf.grad_rows()  # before .grad densifies
    if all(not via_op and i.size < n_rows for (_, via_op), i in zip(gathers, looked_up)):
        np.testing.assert_array_equal(rows, np.unique(np.concatenate(looked_up)))
        assert held.shape == (rows.size, k)
    else:
        assert rows is ... and held.shape == (n_rows, k)
    assert leaf.grad.tobytes() == want.tobytes()


def test_take_is_a_view_and_two_takes_fill_their_slots():
    x = ad.parameter(np.arange(12.0).reshape(2, 2, 3))
    g = ad.fresh_graph()
    a, b = ad.take(x, 0), ad.take(x, 1)
    assert np.shares_memory(a.data, x.data) and np.shares_memory(b.data, x.data)
    g.backward(ad.add(ad.tsum(a), ad.tsum(ad.scale(b, 3.0))))
    np.testing.assert_array_equal(x.grad, np.stack([np.ones((2, 3)), np.full((2, 3), 3.0)]))


def test_gather_rows_out_of_range():
    table = ad.parameter(np.zeros((4, 2)))
    with pytest.raises(IndexError, match="4 rows"):
        ad.gather_rows(table, np.array([0, 7]))


# ---------------------------------------------------------------------------
# finite-difference sweep over the op registry

_RNG = np.random.default_rng(12345)


def _vec(n):
    return _RNG.normal(size=n)


def _away_from_zero(x, margin=0.2):
    return np.where(np.abs(x) < margin, np.sign(x) * margin + (x == 0) * margin, x)


OP_CASES = {
    "add_broadcast": lambda p: ad.tsum(ad.add(p["a23"], p["b3"])),
    "sub_broadcast": lambda p: ad.tsum(ad.sub(p["a23"], p["b3"])),
    "mul_broadcast": lambda p: ad.tmean(ad.mul(p["a23"], p["b3"])),
    "scale": lambda p: ad.tsum(ad.scale(p["a23"], -1.7)),
    "matmul": lambda p: ad.tsum(ad.matmul(p["a23"], p["w34"])),
    "matmul_batched": lambda p: ad.tsum(
        ad.mul(ad.matmul(ad.reshape(p["a43"], (2, 2, 3)), ad.reshape(p["w34"], (2, 3, 2))), p["b2"])
    ),
    "relu": lambda p: ad.tsum(ad.relu(p["offzero"])),
    "sigmoid": lambda p: ad.tsum(ad.sigmoid(p["a23"])),
    "logsumexp": lambda p: ad.tsum(ad.mul(ad.logsumexp(p["a23"], -1.7), p["b2"])),
    "log": lambda p: ad.tsum(ad.tlog(p["pos"])),
    "sum_axis": lambda p: ad.tsum(ad.mul(ad.tsum(p["a23"], axis=0), p["b3"])),
    "mean_axis": lambda p: ad.tsum(ad.mul(ad.tmean(p["a23"], axis=1), p["b2"])),
    "reshape": lambda p: ad.tsum(ad.mul(ad.reshape(p["a23"], (3, 2)), p["a32"])),
    "transpose": lambda p: ad.tsum(ad.mul(ad.transpose(p["a23"], (1, 0)), p["a32"])),
    "concat": lambda p: ad.tmean(ad.concat([p["a23"], p["a23b"]], axis=1)),
    "conv1d": lambda p: ad.tsum(
        ad.mul(ad.conv1d(p["a23"], p["b2"], 1), ad.transpose(ad.conv1d(p["a32"], p["b2"], 0), (1, 0)))
    ),
    "gather_rows": lambda p: ad.tsum(ad.gather_rows(p["a43"], np.array([0, 2, 2, 1]))),
    "take": lambda p: ad.tsum(ad.mul(ad.add(ad.take(ad.reshape(p["a43"], (2, 2, 3)), 0),
                                            ad.scale(ad.take(ad.reshape(p["a43"], (2, 2, 3)), 1), 2.0)),
                                     p["a23"])),
    "clip_interior": lambda p: ad.tsum(ad.clip(p["unit"], 1e-12, 1.0 - 1e-12)),
    "normalize_rows": lambda p: ad.tsum(ad.mul(ad.normalize_rows(p["a23"]), p["a23b"])),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    params = {
        "a23": ad.parameter(_vec((2, 3))),
        "a23b": ad.parameter(_vec((2, 3))),
        "a32": ad.parameter(_vec((3, 2))),
        "a43": ad.parameter(_vec((4, 3))),
        "w34": ad.parameter(_vec((3, 4))),
        "b3": ad.parameter(_vec(3)),
        "b2": ad.parameter(_vec(2)),
        "pos": ad.parameter(np.abs(_vec((2, 3))) + 0.5),
        "offzero": ad.parameter(_away_from_zero(_vec((2, 3)))),
        "unit": ad.parameter(_RNG.uniform(0.1, 0.9, size=(2, 3))),
    }
    build = OP_CASES[name]
    fd_check(lambda: build(params), params)


def test_composite_chain_fd():
    # a small MLP-shaped composite touching most ops at once
    rng = np.random.default_rng(77)
    params = {
        "x": ad.parameter(rng.normal(size=(4, 3))),
        "w1": ad.parameter(rng.normal(size=(3, 5)) * 0.5),
        "b1": ad.parameter(rng.normal(size=5) * 0.1),
        "w2": ad.parameter(rng.normal(size=(5, 1)) * 0.5),
    }

    def build():
        h = ad.relu(ad.add(ad.matmul(params["x"], params["w1"]), params["b1"]))
        out = ad.sigmoid(ad.matmul(h, params["w2"]))
        return ad.tmean(ad.tlog(ad.clip(out, 1e-12, 1.0 - 1e-12)))

    fd_check(build, params)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    g = ad.fresh_graph()
    y = ad.scale(x, 2.0)
    with pytest.raises(ShapeError):
        g.backward(y)


# ---------------------------------------------------------------------------
# the sweep releases what it has used


def _swept_composite():
    rng = np.random.default_rng(9)
    leaves = [ad.parameter(rng.normal(size=(3, 4))), ad.parameter(rng.normal(size=4)),
              ad.parameter(rng.normal(size=(5, 3)))]
    a, b, table = leaves
    g = ad.fresh_graph()
    h = ad.relu(ad.add(ad.matmul(ad.gather_rows(table, np.array([0, 2, 2])), a), b))
    loss = ad.tmean(ad.concat([ad.conv1d(h, b, 1), ad.reshape(h, (3, 4))], axis=1))
    return g, loss, leaves


def test_backward_releases_op_gradients_and_keeps_leaf_ones():
    g, loss, leaves = _swept_composite()
    n_nodes = len(g.nodes)
    g.backward(loss)
    assert len(g.nodes) == n_nodes
    for node in g.nodes:
        assert node.grad_rows() is None and node._backward is None, node
    assert all(p.grad_rows() is not None for p in leaves)


def test_second_backward_on_a_swept_tape_raises():
    g, loss, leaves = _swept_composite()
    g.backward(loss)
    grads = [p.grad.copy() for p in leaves]
    with pytest.raises(ShapeError, match="already swept") as err:
        g.backward(loss)
    assert "\n" not in str(err.value)
    for p, before in zip(leaves, grads):
        assert np.array_equal(p.grad, before)


def test_gradcheck_reports_a_parameter_outside_the_loss_unchecked():
    # its gradient is 0 on both sides, which passes but proves nothing
    rng = np.random.default_rng(10)
    used, unused = ad.parameter(rng.normal(size=(2, 3))), ad.parameter(rng.normal(size=3))
    report = check_gradients(lambda: ad.tsum(ad.mul(used, used)), {"used": used, "unused": unused})
    assert report.ok
    assert [c.checked for c in report.checks] == [True, False]
    assert [line.rsplit(" ", 1)[1] for line in report.lines()] == ["ok", "unchecked"]
