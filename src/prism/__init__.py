"""Risk-gated supervised fine-tuning on fact-annotated corpora.

Sentence-level risk scores propagate through dependency edges into
per-token support weights; a gated complement loss then penalizes
overconfident predictions on weakly supported fact tokens, on top of the
usual masked cross-entropy.  A tiny fixed-window model, a synthetic corpus
generator, and a CLI harness exercise the objective end to end.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1, whatever the environment held, so BLAS runs one thread
and a run's bits do not depend on the CPUs it may use.  A process that
imported numpy before prism keeps the thread count numpy started with;
`model.numeric_environment()` records which happened.
"""

import os
import sys

# Before any submodule imports numpy: BLAS reads these once, when it loads.
NUMPY_IMPORTED_BEFORE_PRISM = "numpy" in sys.modules
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

__version__ = "0.1.0"
