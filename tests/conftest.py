"""Import prism before any test module imports numpy, so that the suite runs
BLAS on the one thread prism sets, the same bits as the CLI."""

import prism  # noqa: F401
