"""The one-BLAS-thread default set on import, and the user's override of it."""

import os
import pathlib
import subprocess
import sys

import pytest

import clocklab

SRC = str(pathlib.Path(clocklab.__file__).resolve().parent.parent)


def openblas_var_after_import(extra_env):
    """OPENBLAS_NUM_THREADS seen by a fresh interpreter after ``import clocklab``."""
    env = {k: v for k, v in os.environ.items() if k not in clocklab.BLAS_THREAD_VARS}
    env.update(extra_env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, clocklab; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


@pytest.mark.parametrize("extra_env, expected", [
    ({}, "1"),
    ({"OMP_NUM_THREADS": "3"}, "None"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
])
def test_thread_default_respects_any_user_setting(extra_env, expected):
    assert openblas_var_after_import(extra_env) == expected
