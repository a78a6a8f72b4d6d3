"""Risk-gated supervised fine-tuning on fact-annotated corpora.

Sentence-level risk scores propagate through dependency edges into
per-token support weights; a gated complement loss then penalizes
overconfident predictions on weakly supported fact tokens, on top of the
usual masked cross-entropy.  A tiny fixed-window model, a synthetic corpus
generator, and a CLI harness exercise the objective end to end.
"""

from .errors import (
    AnnotationError,
    CheckpointError,
    ConfigError,
    CorpusFormatError,
    DivergenceError,
    EmptyBatchError,
    RunFileError,
)
from .fact_graph import (
    DependencyEdge,
    FactSpan,
    RiskGraph,
    SentenceSpan,
    TokenSignals,
    derive_token_signals,
    propagate_risk,
)
from .objective import (
    GateTrace,
    LossBreakdown,
    comp_loss,
    sft_loss,
    softmax_probs,
    total_loss,
)

__version__ = "0.1.0"
