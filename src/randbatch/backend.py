"""Optional numba dispatch for the scalar-loop kernels, and the BLAS thread cap.

The one inner loop that is not vectorised, the RBMC log-gas chain
(``samplers._log_gas_chunk`` and its helpers), is written as plain Python
functions over numpy arrays decorated with :func:`njit`.  When numba is
importable (and not disabled), the decorator compiles them; the original
interpreted versions stay reachable through ``fn.py_func``.  Setting the
environment variable ``RANDBATCH_DISABLE_NUMBA=1`` before import selects the
interpreted path, which runs the identical source.  Numba is the optional
``jit`` extra; without it every kernel runs interpreted.

``set_blas_threads`` caps the thread pool of the OpenBLAS that numpy wheels
bundle, through its exported ``scipy_openblas_set_num_threads64_``.
"""

import ctypes
import glob
import os

try:
    import numba as _numba

    HAVE_NUMBA = True
except ImportError:  # numba is the optional ``jit`` extra
    _numba = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("RANDBATCH_DISABLE_NUMBA", "0") != "1"

_NJIT_OPTS = {"cache": True, "fastmath": False, "nogil": True}


def njit(func=None, **opts):
    """``numba.njit`` when enabled, identity decorator otherwise.

    Usable both bare (``@njit``) and with options (``@njit(inline="always")``).
    """
    if func is not None:
        return njit(**opts)(func)
    if not USE_NUMBA:
        return lambda f: f
    merged = dict(_NJIT_OPTS)
    merged.update(opts)
    return _numba.njit(**merged)


def py_func(fn):
    """Return the uncompiled version of an :func:`njit`-decorated function."""
    return getattr(fn, "py_func", fn)


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
