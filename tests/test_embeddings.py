"""Embedding tables: id protocol and gradients."""

import numpy as np
import pytest

from missctr import autodiff as ad
from missctr import embeddings as E


SIZES = {"user": 6, "item": 9, "attr_1": 4}


def fresh_tables(seed=0):
    return E.init_tables(SIZES, dim=5, rng=np.random.default_rng(seed))


def test_init_shapes_and_pad_row():
    tables = fresh_tables()
    for field, size in SIZES.items():
        assert tables[field].shape == (size, 5)
        np.testing.assert_array_equal(tables[field].data[0], np.zeros(5))
        assert np.abs(tables[field].data[1:]).max() <= E.INIT_SCALE


def test_init_deterministic():
    a, b = fresh_tables(3), fresh_tables(3)
    for field in SIZES:
        np.testing.assert_array_equal(a[field].data, b[field].data)
    c = fresh_tables(4)
    assert not np.array_equal(a["item"].data, c["item"].data)


def test_pad_lookup_is_zero():
    tables = fresh_tables()
    out = E.embed(tables, "item", np.array([0, 0]))
    np.testing.assert_array_equal(out.data, np.zeros((2, 5)))


def test_same_id_same_vector():
    tables = fresh_tables()
    out = E.embed(tables, "item", np.array([3, 7, 3]))
    np.testing.assert_array_equal(out.data[0], out.data[2])


def test_lookup_gradient_scatters():
    tables = fresh_tables()
    g = ad.fresh_graph()
    out = E.embed(tables, "item", np.array([7, 7, 2]))
    g.backward(ad.tsum(out))
    grad = tables["item"].grad
    np.testing.assert_array_equal(grad[7], 2 * np.ones(5))
    np.testing.assert_array_equal(grad[2], np.ones(5))
    assert np.all(grad[[0, 1, 3, 4, 5, 6, 8]] == 0.0)


def test_out_of_range_names_field_and_id():
    tables = fresh_tables()
    with pytest.raises(IndexError, match=r"field 'item': id 9"):
        E.embed(tables, "item", np.array([2, 9]))


def test_nd_lookup_shape():
    tables = fresh_tables()
    ids = np.array([[1, 2, 3], [3, 2, 1]])
    assert E.embed(tables, "attr_1", ids).shape == (2, 3, 5)

