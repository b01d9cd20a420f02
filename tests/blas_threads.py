"""Run one script in fresh interpreters whose BLAS uses different thread
counts, for tests that a result does not depend on that count.

The count must be set before numpy is first imported, so each count gets
its own interpreter. They run side by side: a hash a script prints depends
only on how BLAS splits its work, not on timing. Nothing here is imported
by the package.
"""

import os
import subprocess
import sys

import pytest

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def last_words_by_thread_count(script: str, skip_reason: str) -> dict[int, str]:
    """{n: the last word script prints} for n = 1 and 2, from one
    interpreter each, run with every variable of THREAD_VARIABLES set to n.
    Skips the calling test with skip_reason when this process may run on
    one CPU only; fails it when a run exits with an error or takes over
    120 s. Every interpreter is ended before this returns."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip(skip_reason)
    procs = {}
    try:
        for n in (1, 2):
            env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, str(n))}
            procs[n] = subprocess.Popen([sys.executable, "-c", script], env=env,
                                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                        text=True)
        words = {}
        for n, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            words[n] = out.split()[-1]
        return words
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
