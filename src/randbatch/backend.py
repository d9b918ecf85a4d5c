"""Optional numba dispatch for the scalar-loop kernels.

The inner loops that are not vectorised (the Markov chains) are written as
plain Python functions over numpy arrays and decorated with :func:`njit`.
When numba is importable (and not disabled), the decorator compiles the
function; the original interpreted version stays reachable through
``fn.py_func``.  Setting the environment variable
``RANDBATCH_DISABLE_NUMBA=1`` before import selects the interpreted path,
which runs the identical source.  Numba is the optional ``jit`` extra; without
it every kernel runs interpreted.
"""

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
