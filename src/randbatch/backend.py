"""The BLAS thread cap.

``set_blas_threads`` caps the thread pool of the OpenBLAS that numpy wheels
bundle, through its exported ``scipy_openblas_set_num_threads64_``.
"""

import ctypes
import glob
import os


def _openblas():
    """numpy's bundled OpenBLAS library, or None when numpy bundles none."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)  # already loaded by numpy; this reuses its handle
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def set_blas_threads(n: int) -> bool:
    """Cap numpy's BLAS at ``n`` threads; False when it exposes no thread-count call."""
    if n < 1:
        raise ValueError("thread count must be >= 1")
    lib = _openblas()
    if lib is None:
        return False
    lib.scipy_openblas_set_num_threads64_(ctypes.c_int(n))
    return True
