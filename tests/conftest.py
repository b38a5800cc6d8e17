"""Import clocklab before any test module imports numpy.

The package sets its one-BLAS-thread default on import, and OpenBLAS reads
the variable only when numpy loads it; importing the package here first
makes the suite run under the same default as the library.
"""

import clocklab  # noqa: F401
