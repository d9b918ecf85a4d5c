"""The BLAS thread cap, and scipy.special on first need.

``set_blas_threads`` caps the thread pool of the OpenBLAS that numpy wheels
bundle, through its exported ``scipy_openblas_set_num_threads64_``.
``special`` imports scipy.special, about 18 MB and 0.3 s, only when an object
that needs one of its functions is built.
"""

import ctypes
import functools
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


@functools.cache
def special(name: str):
    """The scipy.special function ``name``, imported on the first call.

    The objects whose methods use one call this when they are built, so
    set-up pays the import, not a step or an analysis.
    """
    import scipy.special

    return getattr(scipy.special, name)
