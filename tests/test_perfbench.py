"""Smoke runs of the benchmark's three workloads at a tiny size: the
workloads and the tracer are imported from perfbench/ as they are, and
no timing is checked."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tiny_miss_gate_traced_equals_untraced(tmp_path):
    w = workloads.MissGate()
    w.n_users = 200
    w.epochs = 1
    tally = workloads.Tally()
    tally.probe_every_s = float("inf")  # no host probe: nothing here is timed
    inp = w.inputs(0, str(tmp_path))

    plain = w.repeat(w.setup(inp, tally), tally)
    with tracer.Tracer() as tr:
        traced = w.repeat(w.setup(inp, tally), tally)

    assert tally.failed == 0
    assert traced.test_auc == plain.test_auc
    assert traced.state.keys() == plain.state.keys()
    for k, a in plain.state.items():
        assert a.shape == traced.state[k].shape and a.tobytes() == traced.state[k].tobytes(), k
    layer = tr.layer_metrics()
    # one conv1d node per built map, its ReLU included: 4 at 2 branches
    # x 2 depths, since the width-2 vertical maps have one field row at
    # J = 2 and are not built; per contrastive loss 1 view gather, 1
    # encoder pass, 1 reshape and 2 takes of the encoded sides, and 1
    # InfoNCE whatever its pair-slot count; the feature table holds only
    # the 2 slices with 2 rows
    assert layer["autodiff.tape_nodes_per_step"] == 101


def test_tiny_din_vocab_traced_equals_untraced(tmp_path):
    w = workloads.DinVocab()
    w.n_users = 300
    w.n_steps = 5
    tally = workloads.Tally()
    tally.probe_every_s = float("inf")
    ctx = w.setup(w.inputs(0, str(tmp_path)), tally)

    plain = w.repeat(ctx, tally)
    with tracer.Tracer() as tr:
        traced = w.repeat(ctx, tally)

    assert tally.failed == 0
    assert traced.test_auc == plain.test_auc
    assert traced.state.keys() == plain.state.keys()
    for k, a in plain.state.items():
        assert a.shape == traced.state[k].shape and a.tobytes() == traced.state[k].tobytes(), k
    assert tr.n_steps == w.n_steps
    assert tr.layer_metrics()["autodiff.tape_nodes_per_step"] == 50


def test_tiny_ingest_eval_snapshot_round_trip(tmp_path):
    w = workloads.IngestEval()
    w.n_users = 200
    w.ckpt_steps = 2
    tally = workloads.Tally()
    tally.probe_every_s = float("inf")
    # repeat raises CheckFailed unless splits_equal holds, dtypes included,
    # for the TSV rebuild and for the snapshot round trip
    out = w.repeat(w.setup(w.inputs(0, str(tmp_path)), tally), tally)
    assert tally.failed == 0 and 0.0 < out.test_auc < 1.0
