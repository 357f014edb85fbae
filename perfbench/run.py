"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload miss-gate --seed 0 --seconds 10 --trace 0

With --trace 0 it prints every end-to-end metric of BENCHMARK.json;
with --trace 1 it also makes a traced pass and prints every per-layer
metric instead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
0 only when every output check passed and no operation failed.  See
README.md.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
N_SETUP = 3  # set-ups per untraced run; setup_s is their median

# timing metrics, reported at the reference host speed (see hostspeed.py)
TIMES = ("setup_s", "run_s", "step_ms_p50")
RATES = ("train_rows_per_s", "score_rows_per_s")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def same_outcome(a, b) -> str | None:
    """None when two outcomes are bitwise equal, else the first difference."""
    if a.test_auc != b.test_auc:
        return f"test_auc {a.test_auc!r} vs {b.test_auc!r}"
    if a.state.keys() != b.state.keys():
        return "state keys"
    for k, x in a.state.items():
        y = b.state[k]
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            return k
    return None


def measure(w, seed: int, seconds: float, trace: bool, workdir: str, tally):
    """Untraced pass: N_SETUP set-ups, then repeats until `seconds` have
    passed, with the host probe sampled before, between and after them.
    With trace, one set-up instead, then a traced set-up and repeat whose
    outcome must equal the untraced one bit for bit.
    Returns (metrics, notes, tracer or None)."""
    import numpy as np

    from tracer import Tracer
    from workloads import CheckFailed, StepTimer

    inp = w.inputs(seed, workdir)
    tally.probe(force=True)
    setup_s, run_s, first = [], [], None
    with StepTimer(tally):
        ctx = None
        for _ in range(1 if trace else N_SETUP):
            ctx = None  # let the previous set-up go before building the next
            gc.collect()
            t0 = tally.clock()
            ctx = w.setup(inp, tally)
            setup_s.append(tally.clock() - t0)
            tally.probe(force=True)
        setup_steps = len(tally.step_s)
        if not trace:
            # the corpus is only read by set-up; holding its objects
            # through the timed part would make every full collection
            # scan them
            inp = None
        gc.collect()
        t_start = perf_counter()
        while not run_s or perf_counter() - t_start < seconds:
            t0 = tally.clock()
            out = w.repeat(ctx, tally)
            run_s.append(tally.clock() - t0)
            tally.probe(force=True)
            if first is None:
                first = out
            elif (diff := same_outcome(first, out)) is not None:
                raise CheckFailed(f"repeat {len(run_s)} differs from repeat 1: {diff}")
    if not tally.step_s:
        raise CheckFailed("no training step ran")
    step_ms = np.array(tally.step_s) * 1e3
    raw = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "train_rows_per_s": statistics.median(rows / s for rows, s in tally.train),
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "score_rows_per_s": sum(r for r, _ in tally.score) / sum(s for _, s in tally.score),
    }
    slowdown = tally.host.slowdown()
    metrics = {k: raw[k] / slowdown for k in TIMES}
    metrics.update({k: raw[k] * slowdown for k in RATES})
    metrics["test_auc"] = first.test_auc
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = {
        "setups": len(setup_s),
        "repeats": len(run_s),
        "steps": len(tally.step_s),
        "steps_in_setup": setup_steps,
        "host_slowdown": slowdown,
        "host_samples": len(tally.host.samples),
        "raw": raw,
        # printed, not gated: the tail is set by collector pauses and
        # co-tenant load (see README.md)
        "raw_step_ms_p95": float(np.percentile(step_ms, 95)),
    }
    if not trace:
        return metrics, notes, None

    ctx = None
    tally.probe_every_s = float("inf")  # keep probe time out of the spans
    gc.collect()
    with Tracer() as tracer, StepTimer(tally):
        ctx = w.setup(inp, tally)
        t0 = perf_counter()
        out = w.repeat(ctx, tally)
        traced_run_s = perf_counter() - t0
    if (diff := same_outcome(first, out)) is not None:
        raise CheckFailed(f"traced run differs from the untraced run: {diff}")
    layer = tracer.layer_metrics()
    layer["trace.overhead_s"] = traced_run_s - raw["run_s"]
    notes.update(traced_run_s=traced_run_s, spans=len(tracer.spans))
    return layer, notes, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "missctr" / "__init__.py").is_file():
        print(f"error: no missctr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, CheckFailed, OperationFailed, Tally

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    metrics, failure = {}, None
    try:
        metrics, notes, tracer = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, trace, str(workdir), tally
        )
        print("run " + json.dumps(notes, sort_keys=True))
        if tracer is not None:
            path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
            tracer.write(str(path), json.dumps({"workload": args.workload, "seed": args.seed, **env, **notes}))
            print(f"spans written to {path.relative_to(ROOT)}")
        if metrics.keys() != units.keys():
            raise CheckFailed(f"metrics {sorted(metrics.keys() ^ units.keys())} do not match BENCHMARK.json")
    except (CheckFailed, OperationFailed) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:40s} {value:18.6f} {units.get(name, '?')}")
    correct = failure is None and tally.failed == 0
    if not correct:
        print(f"FAILED {failure or f'{tally.failed} operations failed'}")
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
