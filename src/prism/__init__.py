"""Risk-gated supervised fine-tuning on fact-annotated corpora.

Sentence-level risk scores propagate through dependency edges into
per-token support weights; a gated complement loss then penalizes
overconfident predictions on weakly supported fact tokens, on top of the
usual masked cross-entropy.  A tiny fixed-window model, a synthetic corpus
generator, and a CLI harness exercise the objective end to end.

Importing the package pins BLAS to one thread (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS default to 1; a value set in the
environment wins), so a run's bits do not depend on the machine's core
count.  A process that imported numpy before prism keeps the thread count
numpy started with; `model.numeric_environment()` records which happened.
"""

import os
import sys

# Before any submodule imports numpy: BLAS reads these once, when it loads.
NUMPY_IMPORTED_BEFORE_PRISM = "numpy" in sys.modules
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = {var: os.environ.setdefault(var, "1") for var in BLAS_THREAD_VARS}

__version__ = "0.1.0"
