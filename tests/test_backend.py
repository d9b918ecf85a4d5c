"""The compiled kernels and their interpreted fallbacks must agree exactly."""

import pytest

from randbatch.backend import USE_NUMBA, njit, py_func

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


def test_env_flag_selects_pure_python(tmp_path):
    import subprocess
    import sys

    code = (
        "import randbatch.backend as b; "
        "from randbatch.samplers import _log_gas_chunk; "
        "print(b.USE_NUMBA, hasattr(_log_gas_chunk, 'py_func'))"
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
