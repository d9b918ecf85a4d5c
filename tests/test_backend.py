"""The compiled kernels and their interpreted fallbacks must agree exactly."""

import numpy as np
import pytest

from randbatch.backend import USE_NUMBA, njit, py_func
from randbatch.rng import RngStream

pytestmark = pytest.mark.skipif(not USE_NUMBA, reason="numba disabled; fallback already in use")


def test_njit_decorator_passthrough_forms():
    @njit
    def f(x):
        return x + 1

    @njit(inline="always")
    def g(x):
        return x * 2

    assert f(1) == 2
    assert g(3) == 6
    assert py_func(f)(1) == 2


def test_mh_chain_kernel_backends_match():
    from randbatch.ewald import _mh_chain_kernel

    gen = RngStream(4).generator()
    n = 2000
    sigma, c = 2.25, 0.0987
    proposals = sigma * gen.standard_normal((n, 3))
    uniforms = gen.random(n)
    start = np.array([1, 0, 0], dtype=np.int64)
    out_a = np.empty((n, 3), dtype=np.int64)
    out_b = np.empty((n, 3), dtype=np.int64)
    _mh_chain_kernel(proposals, uniforms, sigma, c, start, out_a)
    py_func(_mh_chain_kernel)(proposals, uniforms, sigma, c, start, out_b)
    np.testing.assert_array_equal(out_a, out_b)


def test_env_flag_selects_pure_python(tmp_path):
    import subprocess
    import sys

    code = (
        "import randbatch.backend as b; "
        "from randbatch.ewald import _mh_chain_kernel; "
        "print(b.USE_NUMBA, hasattr(_mh_chain_kernel, 'py_func'))"
    )
    env_on = {"RANDBATCH_DISABLE_NUMBA": "0"}
    env_off = {"RANDBATCH_DISABLE_NUMBA": "1"}
    import os

    base = dict(os.environ)
    on = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env={**base, **env_on})
    off = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**base, **env_off})
    assert on.stdout.strip() == "True True"
    assert off.stdout.strip() == "False False"
