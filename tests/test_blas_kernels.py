"""The prefilter's superset and the frozen digests do not rest on this
CPU's BLAS kernel.

The subspace basis comes from ``eigh`` and both prefilter stages from
float32 products, all of which OpenBLAS computes with the kernel it picks
for the CPU when it loads. ``OPENBLAS_CORETYPE`` forces another, so the
prefilter, basis and frozen-digest tests run again in fresh interpreters
under the Haswell and the Prescott kernels, where this CPU can run them.
"""

import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_prefilter.py", "tests/test_subspace_basis.py",
         "tests/test_frozen_digests.py"]
# The CPU flags each kernel needs.
KERNELS = {"Haswell": {"avx2", "fma"}, "Prescott": {"sse3"}}
# Prints the kernel OpenBLAS picked, then runs the tests.
CHILD = """
import ctypes, glob, os, sys
import numpy, pytest
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas*"))[0])
corename = lib.scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print("kernel:", corename().decode())
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def _openblas() -> bool:
    """Whether numpy's BLAS is the scipy-openblas build CHILD reads."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas*"))
    return bool(found) and hasattr(ctypes.CDLL(found[0]),
                                   "scipy_openblas_get_corename64_")


def test_prefilter_tests_pass_under_other_blas_kernels():
    if not _openblas():
        pytest.skip("numpy's BLAS is not scipy-openblas")
    flags = _cpu_flags()
    kernels = [k for k, needs in KERNELS.items() if needs <= flags]
    if not kernels:
        pytest.skip("this CPU can run none of the forced kernels")
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    picked = []
    for kernel in kernels:
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
               "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", CHILD, *TESTS],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=900)
        assert done.returncode == 0, \
            f"{kernel}:\n{done.stdout[-4000:]}{done.stderr[-4000:]}"
        picked.append(done.stdout.split("kernel:", 1)[1].split()[0])
    # Each forced kernel is its own, so no run fell back to the kernel
    # this CPU would pick.
    assert len(set(picked)) == len(kernels)
