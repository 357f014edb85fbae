"""Per-field embedding tables over the shared autodiff core.

Table rows follow the id protocol from the data module: row 0 is the
padding vector and is pinned to zero (re-zeroed after every optimizer
step), and row 1 is reserved: no split emits id 1, so that row gets
no gradient and keeps its initial value.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SCALE = 0.05


def init_tables(
    vocab_sizes: dict[str, int], dim: int, rng: np.random.Generator
) -> dict[str, Tensor]:
    """One (vocab, dim) table per field, uniform(-0.05, 0.05), pad row
    zeroed.  Field order follows the vocab_sizes dict, so callers must
    pass it in a deterministic order."""
    tables: dict[str, Tensor] = {}
    for field, size in vocab_sizes.items():
        w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(size, dim))
        w[0] = 0.0
        tables[field] = ad.parameter(w, name=f"emb:{field}")
    return tables


def embed(tables: dict[str, Tensor], field: str, ids: np.ndarray) -> Tensor:
    """Look up rows for one field; shape out = ids.shape + (dim,)."""
    table = tables[field]
    idx = np.asarray(ids)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
        raise IndexError(
            f"field {field!r}: id {bad} out of range [0, {table.shape[0]})"
        )
    return ad.gather_rows(table, idx)


def zero_pad_rows(tables: dict[str, Tensor]) -> None:
    """Pin the padding row back to zero (call after each optimizer step)."""
    for t in tables.values():
        t.data[0] = 0.0

