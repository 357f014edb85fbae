"""Central finite-difference verification of analytic gradients.

The checker treats the model as a black box: build_loss() must rebuild
a fresh graph from the current parameter values and return the scalar
loss.  Analytic gradients come from one tape sweep; the numerical
reference perturbs every parameter component by +/-delta in place.
Any randomness (batch choice, augmentation sampling) must be frozen
inside build_loss, otherwise the two sides see different functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class ParamCheck:
    name: str
    n: int
    max_abs_err: float
    max_rel_err: float
    n_bad: int
    checked: bool  # some analytic component is above abs_tol; 0 against 0 is no evidence


@dataclass
class GradReport:
    checks: list[ParamCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.n_bad == 0 for c in self.checks)

    @property
    def worst_rel(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = f"BAD ({c.n_bad}/{c.n})" if c.n_bad else "ok" if c.checked else "unchecked"
            out.append(
                f"{c.name}: max_rel={c.max_rel_err:.3e} max_abs={c.max_abs_err:.3e} {status}"
            )
        return out


def numerical_gradient(
    loss_fn: Callable[[], float], param: Tensor, delta: float = 1e-5
) -> np.ndarray:
    """Central differences, one forward pair per component."""
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + delta
        up = loss_fn()
        flat[i] = keep - delta
        down = loss_fn()
        flat[i] = keep
        grad[i] = (up - down) / (2.0 * delta)
    return grad.reshape(param.shape)


def check_gradients(
    build_loss: Callable[[], Tensor],
    params: dict[str, Tensor],
    delta: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_tol: float = 1e-6,
) -> GradReport:
    """Compare tape gradients of build_loss() against central differences.

    A component passes when its relative error is below rel_tol or,
    near zero, its absolute error is below abs_tol.  A parameter with no
    analytic component above abs_tol is reported unchecked: it passes,
    but only as zero against zero.
    """
    ad.fresh_graph()
    loss = build_loss()
    graph = ad.active_graph()  # build_loss may have opened its own graph
    ad.zero_grads(params.values())
    graph.backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    def loss_value() -> float:
        ad.fresh_graph()
        return float(build_loss().data)

    report = GradReport()
    for name, p in params.items():
        num = numerical_gradient(loss_value, p, delta)
        a = analytic[name].reshape(-1)
        n = num.reshape(-1)
        abs_err = np.abs(a - n)
        denom = np.maximum(np.abs(a), np.abs(n))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_err = np.where(denom > 0.0, abs_err / denom, 0.0)
        bad = (rel_err > rel_tol) & (abs_err > abs_tol)
        # rel error is only diagnostic where the absolute error matters;
        # tiny components otherwise dominate it with difference noise
        meaningful = rel_err[abs_err > abs_tol]
        report.checks.append(
            ParamCheck(
                name=name,
                n=a.size,
                max_abs_err=float(abs_err.max()) if a.size else 0.0,
                max_rel_err=float(meaningful.max()) if meaningful.size else 0.0,
                n_bad=int(bad.sum()),
                checked=bool((np.abs(a) > abs_tol).any()),
            )
        )
    ad.fresh_graph()
    return report


def tiny_instance_check(rel_tol: float = 1e-4, abs_tol: float = 1e-6) -> GradReport:
    """Full-model gradient check on a small fixed problem: two profile
    fields, three sequence channels (so a width-2 field-axis kernel can
    be sampled), short histories, both contrastive branches live.  The
    loss is the trainer's own step objective; every evaluation re-seeds
    the plan stream, and plans never depend on parameter values, so
    analytic and numerical sides evaluate the same function."""
    from .data import SampleSet, Splits
    from .trainer import ExperimentConfig, build_model, step_loss

    rng = np.random.default_rng(0)
    L, J, batch, vocab = 6, 3, 4, 7
    seq_len = np.array([6, 5, 4, 3], dtype=np.int64)
    histories = [rng.integers(2, vocab, size=(J, s)).T for s in seq_len]  # row i's events
    sample = SampleSet(
        cat=rng.integers(2, vocab, size=(batch, 2)),
        seq_len=seq_len,
        cand=rng.integers(2, vocab, size=(batch, J)),
        label=np.array([1, 0, 1, 0], dtype=np.int64),
        end=np.cumsum(seq_len),
        events=np.concatenate([np.zeros((1, J), dtype=np.int64), *histories]),
        max_len=L,
    )
    splits = Splits(
        train=sample, valid=sample, test=sample,
        cat_fields=["user", "context"],
        seq_fields=["item", "attr_1", "attr_2"],
        vocab_sizes={f: vocab for f in ("user", "context", "item", "attr_1", "attr_2")},
    )
    cfg = ExperimentConfig(
        emb_dim=4, batch_size=batch, mlp=(5, 1), enc_interest=(6,), enc_feature=(5,),
        alpha_interest=0.7, alpha_feature=0.4, tau=0.5,
        n_branches=2, n_depths=2, max_offset=2, max_len=L, seed=0,
    )
    model = build_model(cfg, splits)
    rows = np.arange(batch)

    def build_loss() -> Tensor:
        return step_loss(model, sample, rows, True, np.random.default_rng([0, 9]))[0]

    return check_gradients(build_loss, model.parameters(), rel_tol=rel_tol, abs_tol=abs_tol)
