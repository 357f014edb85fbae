"""Per-field embedding tables over the shared autodiff core.

Table rows follow the id protocol from the data module: row 0 is the
padding vector, zero at init, and its gradient is +0.0: attention
weighs a padded step by a zero mask and no view window covers padding,
so every term its lookups add is +-0 and sums to +0.0.  Row 1 is
reserved: no split emits id 1, so no lookup reaches it.  A table no
larger than a gather into it takes a dense gradient (see autodiff),
which holds +0.0 at both rows; Adam's update there is +0.0, so row 0
stays zero and row 1 keeps its initial value.
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
    """Look up rows for one field; shape out = ids.shape + (dim,).  The
    gather's range check raises an IndexError naming the field and id."""
    table = tables[field]
    idx = np.asarray(ids)
    try:
        return ad.gather_rows(table, idx)
    except IndexError:
        bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
        raise IndexError(f"field {field!r}: id {bad} out of range [0, {table.shape[0]})") from None

