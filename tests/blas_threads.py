"""Runs a Python script in a fresh interpreter at 1 and at 2 BLAS threads,
and runs a block in this process on one OpenBLAS thread.

The thread count of OpenBLAS, OpenMP and MKL is fixed when NumPy loads, so
a test that compares results across thread counts runs each in its own
process. The script sees `src` and `tests` on its import path.
"""

import contextlib
import ctypes
import glob
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


def _openblas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS that NumPy and
    SciPy each bundle; a library whose functions are not found is left
    out."""
    import numpy
    import scipy

    controls = []
    for module in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(module.__file__))
        for path in sorted(glob.glob(os.path.join(site, module.__name__ + ".libs",
                                                  "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                                   ("openblas", "64_"), ("openblas", "")):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, set_.argtypes = ctypes.c_int, (ctypes.c_int,)
                    controls.append((get, set_))
                    break
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with each bundled OpenBLAS on one thread, then restore
    its thread count. An OpenBLAS worker spins between calls, so at two
    threads the process's CPU time counts that spinning too, and on a
    shared host it grows with the host's load."""
    saved = [(set_, get()) for get, set_ in _openblas_thread_controls()]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, threads in saved:
            set_(threads)
