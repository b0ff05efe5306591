"""Runs a Python script in a fresh interpreter at 1 and at 2 BLAS threads.

The thread count of OpenBLAS, OpenMP and MKL is fixed when NumPy loads, so
a test that compares results across thread counts runs each in its own
process. The script sees `src` and `tests` on its import path.
"""

import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def outputs_at_one_and_two_threads(script, argv=lambda threads: ()):
    """The stripped stdout of script at 1 and at 2 BLAS threads, in that
    order. argv(threads) gives the script's arguments for the thread count
    "1" or "2"; the script must exit 0."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, TESTS, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, *argv(threads)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(proc.stdout.strip())
    return outputs
