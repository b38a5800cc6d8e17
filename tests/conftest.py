"""Import clocklab before any test module imports numpy.

The package sets its one-BLAS-thread default on import, and OpenBLAS reads
the variable only when numpy loads it; importing the package here first
makes the suite run under the same default as the library.

The hypothesis profile draws the same examples on every run and keeps no
example database.  Hypothesis still caches the constants it reads from
local source files, so its home directory goes to the temp directory,
not into the tree.
"""

import pathlib
import tempfile

import clocklab  # noqa: F401
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(pathlib.Path(tempfile.gettempdir()) / "clocklab-hypothesis")
settings.register_profile("clocklab", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("clocklab")
