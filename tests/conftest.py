"""Import prism before any test module imports numpy, so that the suite runs
with the BLAS thread count prism pins (one thread unless the environment
sets one), the same bits as the CLI."""

import prism  # noqa: F401
