"""SHA-256 digests of the artifacts of a short run of every verb.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 python tests/golden.py --write

rewrites tests/golden.txt from the source tree this file sits in.
Without --write the digests go to stdout; with --gate only the `din`
and `din-miss` runs at the gate shapes (B = 128, L = 16, K = 10) are
made and printed, which tests/test_golden.py runs at two BLAS threads.

The runs share one 120-user synthetic corpus and test 8's tiny widths,
and are made with relative paths inside a temp dir, so that
`# dataset = ...` in each config.txt does not depend on where they ran.
A digest holds for one numpy build, BLAS and CPU: the file's first
lines record them, and the test skips when the running machine's
differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().with_name("golden.txt")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TINY = [
    "--emb-dim", "4", "--batch-size", "16", "--mlp", "8,1",
    "--enc-interest", "6", "--enc-feature", "5", "--epochs", "2",
    "--lr", "1e-2", "--max-len", "8",
]
TRAIN_FILES = ["history.tsv", "telemetry.tsv", "checkpoint.bin", "config.txt"]
SYNTH = ("synth", ["synth", "--n-users", "120", "--n-items", "40", "--n-interests", "4",
                   "--seq-len-min", "6", "--seq-len-max", "10", "--seed", "5",
                   "--out-dir", "synth"],
         ["synth.tsv", "config.txt"])
# gate shapes, from the raw log, so that the snapshot's max_len of 8 does not bind
GATE_ARGS = ["train", "--dataset", "synth/synth.tsv", "--min-count", "2", "--max-len", "16",
             "--emb-dim", "10", "--batch-size", "128", "--mlp", "40,40,40,1", "--epochs", "2",
             "--lr", "1e-2"]
GATE = [("din-gate", [*GATE_ARGS, "--model", "din", "--out-dir", "din-gate"], TRAIN_FILES),
        ("miss-gate", [*GATE_ARGS, "--out-dir", "miss-gate"], TRAIN_FILES)]
SNAPSHOT = ["--dataset", "ingest/splits.txt"]
# (out dir, argv, files digested), in run order; "stdout" is the verb's stdout
RUNS = [
    SYNTH,
    ("ingest", ["ingest", "--dataset", "synth/synth.tsv", "--min-count", "2",
                "--max-len", "8", "--seed", "0", "--out-dir", "ingest"],
     ["splits.txt", "config.txt"]),
    ("joint", ["train", *SNAPSHOT, *TINY, "--out-dir", "joint"], TRAIN_FILES),
    ("din", ["train", *SNAPSHOT, *TINY, "--model", "din", "--out-dir", "din"], TRAIN_FILES),
    ("pretrain", ["train", *SNAPSHOT, *TINY, "--strategy", "pretrain", "--out-dir", "pretrain"],
     TRAIN_FILES),
    ("eval", ["eval", *SNAPSHOT, *TINY, "--checkpoint", "joint/checkpoint.bin",
              "--out-dir", "eval"],
     ["metrics.txt", "config.txt"]),
    ("sweep", ["sweep", *SNAPSHOT, *TINY, "--axis", "temperature", "--grid", "0.5",
               "--seeds", "0", "--out-dir", "sweep"],
     ["sweep_temperature_splits.tsv", "config.txt"]),
    ("robustness", ["robustness", *SNAPSHOT, *TINY, "--kind", "noise", "--rates", "0.2",
                    "--seeds", "1", "--out-dir", "robustness"],
     ["robustness_noise_splits.tsv", "robustness_runs_noise_splits.tsv", "config.txt"]),
    ("gradcheck", ["gradcheck"], ["stdout"]),
    *GATE,
]


def environment() -> dict[str, str]:
    """What the digests depend on besides the source: numpy's version,
    its BLAS, the SIMD baseline it was built for and the dispatch
    targets it can use on this CPU."""
    from numpy._core import _multiarray_umath as umath

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})",
        "cpu_baseline": " ".join(umath.__cpu_baseline__),
        "cpu_dispatch": " ".join(f for f in umath.__cpu_dispatch__
                                 if umath.__cpu_features__.get(f)),
    }


def digest_lines(runs) -> list[str]:
    """Make each run in a temp dir and return one `<sha256>  <dir>/<file>`
    line per artifact."""
    sys.path.insert(0, str(ROOT / "src"))
    from missctr.cli import run

    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for out_dir, argv, files in runs:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = run(argv)
                if code != 0:
                    raise SystemExit(f"{out_dir}: exit {code}")
                for f in files:
                    data = (stdout.getvalue().encode() if f == "stdout"
                            else Path(out_dir, f).read_bytes())
                    lines.append(f"{hashlib.sha256(data).hexdigest()}  {out_dir}/{f}")
        finally:
            os.chdir(here)
    return lines


def read(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """The environment and the digests (by artifact name) of a digest
    file's text, or of the script's stdout."""
    env, digests = {}, {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if " = " in line:
            key, _, value = line.partition(" = ")
            env[key] = value
        else:
            sha, _, name = line.partition("  ")
            digests[name] = sha
    return env, digests


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"], ["--gate"]):
        print(__doc__, file=sys.stderr)
        return 1
    if argv == ["--gate"]:
        print("\n".join(digest_lines([SYNTH, *GATE])))
        return 0
    if argv == ["--write"] and any(os.environ.get(v) != "1" for v in THREAD_VARS):
        print(f"--write needs one BLAS thread: set {', '.join(THREAD_VARS)} to 1",
              file=sys.stderr)
        return 1
    text = "\n".join([
        "# SHA-256 of each artifact of tests/golden.py's runs, at one BLAS thread;",
        "# rewritten by tests/golden.py --write (see its docstring)",
        *(f"{k} = {v}" for k, v in environment().items()),
        *digest_lines(RUNS),
    ]) + "\n"
    if argv == ["--write"]:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
