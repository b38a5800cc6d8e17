"""Regenerate the golden artifacts of the runs named in ``RUNS``.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

It runs each command of ``RUNS`` with ``--out golden`` on one BLAS thread,
each in its own temporary directory (the relative ``--out`` is echoed into
config.echo and hashed into summary.json, so it is fixed), prints the
changed lines of every golden file whose bytes change as a unified diff
(``-`` old, ``+`` new), copies each subcommand's three files to
``tests/golden/<run>/<subcommand>/`` and records the numpy, scipy and
OpenBLAS versions they were made with in ``tests/golden/environment.json``.
``tests/test_golden.py`` compares fresh runs with these files.
"""
from __future__ import annotations

import contextlib
import ctypes
import difflib
import io
import json
import os
import pathlib
import shutil
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ENVIRONMENT = HERE / "environment.json"
# run name -> clocklab arguments; ``--out golden`` is appended to each
RUNS = {
    "all-seed1": ("all", "--seed", "1"),
    "symbol-su11": ("symbol", "--algebra", "su11"),
    "stationary-sweep-h4": ("stationary-sweep", "--family", "h4"),
    "constraint-random": ("constraint", "--profile", "random"),
    "classical-limit-sizes": ("classical-limit", "--sizes", "5,10,20,30"),
    "schrodinger-j400": ("schrodinger", "--j", "400"),
    "classical-limit-j20-j40": ("classical-limit", "--sizes", "20,40"),
    "identity-resolution-j2.5": ("identity-resolution", "--j", "2.5"),
    "classical-limit-j80-j160": ("classical-limit", "--sizes", "80,160"),
    "identity-resolution-j400": ("identity-resolution", "--j", "400"),
}
ARTIFACTS = ("data.csv", "summary.json", "config.echo")


def _openblas(module) -> str | None:
    """Run-time configuration string of the OpenBLAS bundled with a module.

    It names the version, the CPU kernel set in use and the thread limit;
    None when the module carries no OpenBLAS of a known build.
    """
    libs = pathlib.Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment() -> dict:
    """What decides the last bits of the artifacts besides the source."""
    import numpy
    import scipy
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(numpy),
        "scipy_openblas": _openblas(scipy),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_all(workdir: pathlib.Path) -> dict[str, bytes]:
    """Every run of ``RUNS`` under ``workdir``: ``{"<run>/<subcommand>/<file>": bytes}``.

    Raises ``RuntimeError`` naming the first run that clocklab refuses (exit status 2).
    """
    from clocklab import cli
    saved_out = os.environ.pop(cli.ENV_OUT, None)  # it would replace --out
    cwd = os.getcwd()
    files = {}
    try:
        for name, args in RUNS.items():
            run_root = workdir / name
            run_root.mkdir()
            os.chdir(run_root)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*args, "--out", "golden"])
            # a refused run writes nothing, and main() would delete its golden files
            if code == 2:
                raise RuntimeError(f"clocklab refused golden run {name!r} "
                                   f"({' '.join(args)}): {err.getvalue().strip()}")
            for run_dir in sorted((run_root / "golden").glob("*/*")):
                for artifact in ARTIFACTS:
                    key = f"{name}/{run_dir.parent.name}/{artifact}"
                    files[key] = (run_dir / artifact).read_bytes()
    finally:
        os.chdir(cwd)
        if saved_out is not None:
            os.environ[cli.ENV_OUT] = saved_out
    return files


def read_golden() -> dict[str, bytes]:
    return {path.relative_to(HERE).as_posix(): path.read_bytes()
            for name in RUNS for path in sorted((HERE / name).glob("*/*"))}


def print_changes(old: dict[str, bytes], new: dict[str, bytes]) -> None:
    """The changed lines, old -> new, of every file whose bytes differ."""
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, b""), new.get(key, b"")
        if before != after:
            print("\n".join(difflib.unified_diff(
                before.decode().splitlines(), after.decode().splitlines(),
                f"golden/{key}", f"fresh/{key}", n=0, lineterm="")))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = run_all(pathlib.Path(tmp))
    print_changes(read_golden(), files)
    for name in RUNS:
        shutil.rmtree(HERE / name, ignore_errors=True)
    for key, data in files.items():
        path = HERE / key
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    ENVIRONMENT.write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} files under {HERE}")


if __name__ == "__main__":
    # numpy is imported only below, so OpenBLAS starts with one thread
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    main()
