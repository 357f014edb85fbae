"""Every verb's artifacts match the digests committed in tests/golden.txt,
at one BLAS thread, and a `din` and a `din-miss` run at the gate shapes
write the same bytes at two threads, where OpenBLAS splits the step's
products.

A change that moves numerics on purpose rewrites the file with
tests/golden.py --write and names each moved digest."""

import os
import subprocess
import sys

import golden
import pytest


def _digests(threads: int, *flags: str) -> dict[str, str]:
    env = dict(os.environ, **{var: str(threads) for var in golden.THREAD_VARS})
    proc = subprocess.run([sys.executable, str(golden.__file__), *flags], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return golden.read(proc.stdout)[1]


def test_artifacts_match_the_committed_digests_at_one_and_two_blas_threads():
    env, want = golden.read(golden.GOLDEN.read_text())
    here = golden.environment()
    if env != here:
        pytest.skip(f"the digests are for {env}, this machine has {here}")
    got = _digests(1)
    assert {k for k in want.keys() | got.keys() if got.get(k) != want.get(k)} == set()
    gate = _digests(2, "--gate")
    assert {k for k, v in gate.items() if want.get(k) != v} == set()
