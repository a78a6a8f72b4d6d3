"""Tiny fixed-window neural next-token model, trained with teacher forcing.

The model embeds the previous `window` ground-truth tokens, concatenates the
embeddings, and maps them through one tanh hidden layer to vocabulary
logits.  It is deliberately the smallest thing that exposes a full [T, V]
logit surface: every gradient stays checkable against finite differences,
and training is float64 with reductions in a fixed order, so a run is
reproducible bit for bit from its seed.  BLAS runs one thread, because
importing prism sets its thread variables to 1.  Checkpoints record the
numeric environment (`numeric_environment`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import platform
from array import array
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import BLAS_THREADS, NUMPY_IMPORTED_BEFORE_PRISM
from .corpus import MAX_VOCAB_SIZE, TOKEN_BOS, AnnotatedExample, atomic_write
from .errors import AnnotationError, CheckpointError, ConfigError, DivergenceError, NonFiniteLogits
from .fact_graph import (
    RISK_MODES,
    RISK_ONEHOP,
    TokenSignals,
    derive_token_signals,
    propagate_risk,
    span_positions,
)
from .objective import (
    DEFAULT_EPSILON,
    GateTrace,
    LossBreakdown,
    check_epsilon,
    gate_trace,
    knowledge_mask_valid,
    sft_loss,  # noqa: F401  not called here, but profilers patch prism.model.sft_loss
    softmax_probs,
    total_loss,
)

PARAM_FIELDS = ("embedding", "w1", "b1", "w2", "b2")


class Method(NamedTuple):
    """One training method as switches on the objective sft + lam * comp."""

    has_comp: bool          # False: lam is forced to 0
    use_gates: bool
    use_fact_mask: bool
    drop_unsupported: bool  # knowledge mask: unsupported fact tokens leave the valid mask


METHOD_SFT = "sft"
METHOD_PRISM = "prism"
# Key order is the order shown by --help and in error messages.
METHODS = {
    METHOD_SFT: Method(False, True, True, False),
    METHOD_PRISM: Method(True, True, True, False),
    "knowledge_mask": Method(False, True, True, True),
    "prism_no_gate": Method(True, False, True, False),
    "prism_no_mask": Method(True, True, False, False),
}


@dataclass
class ModelParams:
    """One model's parameters; train stacks a lockstep group's K models, each
    array with a leading run axis [K, ...]."""

    embedding: np.ndarray  # [V, d]
    w1: np.ndarray         # [window * d, h]
    b1: np.ndarray         # [h]
    w2: np.ndarray         # [h, V]
    b2: np.ndarray         # [V]
    window: int

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[-2]

    @property
    def embed_dim(self) -> int:
        return self.embedding.shape[-1]


def init_params(
    vocab_size: int,
    embed_dim: int,
    hidden_dim: int,
    window: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Seeded small-scale initialization; biases start at zero."""
    if vocab_size < 2 or embed_dim < 1 or hidden_dim < 1 or window < 1:
        raise ConfigError("model dimensions must be positive (vocab_size >= 2)")
    fan_in = window * embed_dim
    return ModelParams(
        embedding=0.1 * rng.standard_normal((vocab_size, embed_dim)),
        w1=rng.standard_normal((fan_in, hidden_dim)) / np.sqrt(fan_in),
        b1=np.zeros(hidden_dim),
        w2=rng.standard_normal((hidden_dim, vocab_size)) / np.sqrt(hidden_dim),
        b2=np.zeros(vocab_size),
        window=window,
    )


def _check_tokens(tokens: np.ndarray, vocab_size: int) -> None:
    if tokens.size:
        low, high = int(tokens.min()), int(tokens.max())
        if low < 0 or high >= vocab_size:
            bad = low if low < 0 else high
            raise ConfigError(f"token id {bad} outside [0, {vocab_size}) of the model vocabulary")


class StepViews(NamedTuple):
    """A training step's per-row float64 arrays for a row block of `rows`,
    each C-contiguous: train allocates them for
    max(1, block_rows(params, STEP_BLOCK_BYTES)) rows and a block takes
    their leading rows.  The parameter gradients are not per row and live
    apart."""

    logits: np.ndarray      # [rows, V], then total_loss's pass and gradient
    fact_probs: np.ndarray  # [rows, V], its leading rows the step log's softmax of the fact positions' rows
    x: np.ndarray           # [rows, window * d], forward_batch's activations, then backward_batch's d_x
    hidden: np.ndarray      # [rows, h], then backward_batch's d_hidden
    d_pre: np.ndarray       # [rows, h]


# No arrays given: forward_batch and backward_batch allocate each one.
_FRESH = StepViews(*[None] * len(StepViews._fields))


def forward_batch(
    params: ModelParams, windows: np.ndarray, out: StepViews | None = None, splits: Sequence[int] | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Logits [B, V] for a batch of token windows [B, window], B >= 0, plus the
    activations needed by backward_batch; with `out`, all three are written
    into its logits, x and hidden.  `splits`, row offsets 0 = s_0 <= s_1 <=
    ... <= s_k = B, split the two matmuls: each block s_j:s_j+1 gets its own
    pair, so its rows have the bits of a forward_batch over that block alone.
    None is one block.  Stacked parameters [K, ...] give each of the K models
    its logits and activations [K, B, ...] for the same windows, with the
    bits of its own call (a stacked matmul runs one product per model)."""
    w = np.asarray(windows, dtype=np.int64)
    if w.ndim != 2 or w.shape[1] != params.window:
        raise ValueError(f"windows must be [B, {params.window}], got shape {w.shape}")
    _check_tokens(w, params.vocab_size)
    blocks = [slice(None)]
    if splits is not None:
        bounds = [int(s) for s in splits]
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != len(w) or bounds != sorted(bounds):
            raise ValueError(f"splits must rise from 0 to {len(w)}, got {bounds}")
        blocks = list(map(slice, bounds[:-1], bounds[1:]))
    o = out or _FRESH
    lead, (fan_in, h) = params.embedding.shape[:-2], params.w1.shape[-2:]
    # The ids are checked, so mode="clip" changes none; it lets take write
    # into `out` without an intermediate copy.
    x = np.take(params.embedding, w, axis=-2, mode="clip",
                out=None if o.x is None else o.x.reshape(*lead, *w.shape, params.embed_dim)
                ).reshape(*lead, len(w), fan_in)
    hidden = np.empty((*lead, len(w), h)) if o.hidden is None else o.hidden
    for b in blocks:
        np.matmul(x[..., b, :], params.w1, out=hidden[..., b, :])
    hidden += params.b1[..., None, :]
    np.tanh(hidden, out=hidden)
    logits = np.empty((*lead, len(w), params.vocab_size)) if o.logits is None else o.logits
    for b in blocks:
        np.matmul(hidden[..., b, :], params.w2, out=logits[..., b, :])
    logits += params.b2[..., None, :]
    return logits, (x, hidden)


def backward_batch(
    params: ModelParams,
    windows: np.ndarray,
    dlogits: np.ndarray,
    cache: tuple[np.ndarray, np.ndarray],
    out: StepViews | None = None,
    grads: dict[str, np.ndarray] | None = None,
    add: bool = False,
) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the loss w.r.t. every parameter, given
    the per-logit loss gradient [B, V] and forward_batch's activations; with
    `out`, the [B, ...] intermediates are written into its arrays, d_hidden
    over its hidden and d_x over its x, each after the last read of the
    activation there, so `cache` may be (as in train) those two arrays.  With
    `grads`, one array per PARAM_FIELDS name shaped as its parameter (as in
    train), the gradients are written into those arrays; with `add` too, they
    are added into them (train's later row blocks), the embedding's column by
    column and each other one from a new array.  Stacked parameters [K, ...]
    take dlogits and activations [K, B, ...] and give each model its
    gradients [K, ...], with the bits of its own call."""
    w = np.asarray(windows, dtype=np.int64)
    dz = np.asarray(dlogits, dtype=np.float64)
    x, hidden = cache
    lead, vocab = params.embedding.shape[:-2], params.vocab_size
    if dz.shape != (*lead, w.shape[0], vocab):
        raise ValueError(f"loss gradient has shape {dz.shape}, expected {(*lead, w.shape[0], vocab)}")
    o = out or _FRESH
    g = grads or {}
    into = {} if add else g

    d_w2 = np.matmul(hidden.swapaxes(-1, -2), dz, out=into.get("w2"))
    d_b2 = np.sum(dz, axis=-2, out=into.get("b2"))
    # d_pre = d_hidden * (1 - hidden**2)
    d_pre = np.multiply(hidden, hidden, out=o.d_pre)
    np.subtract(1.0, d_pre, out=d_pre)
    d_pre *= np.matmul(dz, params.w2.swapaxes(-1, -2), out=o.hidden)
    d_w1 = np.matmul(x.swapaxes(-1, -2), d_pre, out=into.get("w1"))
    d_b1 = np.sum(d_pre, axis=-2, out=into.get("b1"))
    # Embedding scatter: one bincount over the window token ids per column,
    # model k's ids offset by k * V.  Each (model, token id, column) bin sums
    # its rows in batch order from 0.0, exactly as np.add.at would.
    d_x = np.matmul(d_pre, params.w1.swapaxes(-1, -2), out=o.x).reshape(*lead, -1, params.embed_dim)
    ids = w.ravel() if not lead else (np.arange(lead[0])[:, None] * vocab + w.ravel()).ravel()
    d_emb = g["embedding"] if g else np.empty_like(params.embedding)
    for column in range(params.embed_dim):
        scattered = np.bincount(ids, weights=d_x[..., column].ravel(),
                                minlength=d_emb[..., 0].size).reshape(d_emb.shape[:-1])
        if add:
            d_emb[..., column] += scattered
        else:
            d_emb[..., column] = scattered
    computed = {"embedding": d_emb, "w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}
    if not add:
        return computed
    for name in ("w1", "b1", "w2", "b2"):
        g[name] += computed[name]
    return g


@dataclass
class OptimizerState:
    """Decoupled-weight-decay adaptive-moment optimizer state; the
    hyperparameters are read from the run's TrainSettings."""

    step_count: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_optimizer(params: ModelParams) -> OptimizerState:
    """Zero moments at step 0."""
    zeros = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS}
    return OptimizerState(step_count=0, m=zeros, v={name: z.copy() for name, z in zeros.items()})


def optimizer_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    settings: TrainSettings,
) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected moment update with decoupled weight decay, in place,
    with the hyperparameters of `settings`.  Each intermediate is written
    into one work array per parameter or into the gradient, which the update
    consumes, in the order of p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so
    the update has that expression's bits."""
    lr, beta1, beta2 = settings.learning_rate, settings.beta1, settings.beta2
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in PARAM_FIELDS:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r} at optimizer step {t}")
        m = state.m[name]
        v = state.v[name]
        work = np.empty_like(m)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=work)
        v *= beta2
        g *= g
        g *= 1.0 - beta2
        v += g
        p = getattr(params, name)
        if settings.weight_decay != 0.0:
            p -= np.multiply(p, lr * settings.weight_decay, out=work)
        np.divide(m, bc1, out=work)
        work *= lr
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += settings.adam_eps
        work /= g
        p -= work
    return params, state


@dataclass(frozen=True)
class PreparedCorpus:
    """Examples flattened into teacher-forcing windows and token signals, one
    array per field for the whole corpus: example i holds the positions
    offsets[i]:offsets[i + 1].  A position's window is its row of `distinct`,
    the corpus's distinct windows in distinct_windows' order; so ids follow
    the windows' order, and equal windows share an id.  Token ids are stored
    as uint16, which holds every id below MAX_VOCAB_SIZE, and window and
    sentence ids as int32.  corpus[i] is example i and corpus[a:b] the
    examples a..b-1, each a PreparedCorpus of views into these arrays."""

    distinct: np.ndarray     # uint16 [D, window]
    window_id: np.ndarray    # int32 [T], each position's row of `distinct`
    labels: np.ndarray       # uint16 [T]
    signals: TokenSignals    # [T] each
    sentence_id: np.ndarray  # int32 [T], -1 outside any sentence
    offsets: np.ndarray      # int64 [n + 1], offsets[0] == 0

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, key: int | slice) -> PreparedCorpus:
        picked = range(len(self))[key]  # IndexError for an example outside the corpus
        if isinstance(picked, int):
            picked = range(picked, picked + 1)
        if picked.step != 1:
            raise ValueError("a corpus slice must have step 1")
        start, stop = picked.start, max(picked.start, picked.stop)
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        return PreparedCorpus(
            distinct=self.distinct,
            window_id=self.window_id[lo:hi],
            labels=self.labels[lo:hi],
            signals=self.signals[lo:hi],
            sentence_id=self.sentence_id[lo:hi],
            offsets=self.offsets[start:stop + 1] - lo,
        )

    def positions(self, idx: np.ndarray) -> np.ndarray:
        """The positions of examples `idx`, example after example."""
        return span_positions(self.offsets[idx], self.offsets[idx + 1])

    def distinct_rows(self, at: slice | np.ndarray = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The distinct windows of positions `at`, and each position's row of them."""
        ids, rows = np.unique(self.window_id[at], return_inverse=True)
        return self.distinct[ids], rows


def prepare_examples(
    examples: Iterable[AnnotatedExample],
    window: int,
    vocab_size: int,
    risk_mode: str = RISK_ONEHOP,
    sized: Callable[[int, int], None] | None = None,
) -> PreparedCorpus:
    """Expand annotated examples into per-position windows, labels, and signals.

    For target position t the window is the `window` tokens preceding it in
    input + target, left-padded with the begin token at the sequence start.
    One pass over `examples` checks each one's annotations (propagate_risk)
    and copies its tokens, span bounds, effective risks and valid mask into
    flat buffers before it draws the next, so no example outlives its turn.
    Then sized(n, vocab), when given, gets the example count and vocab_size
    (with 0, the smallest vocabulary covering every token id); only then is
    the first broken example's error raised.  Token ids must be below
    vocab_size and MAX_VOCAB_SIZE; an example's are checked before its
    nonempty target and annotations, and an annotation error names its
    1-based position.  One distinct_windows over the windows at the target
    positions finds the distinct ones, and only they are gathered as rows.
    """
    pad = [TOKEN_BOS] * window
    # Record after record: tokens (begin, input, target), valid mask, sentence and fact bounds in corpus
    # positions, sentence risks; per record, its sentence count and where its tokens and positions end.
    tokens, valid, risks = array("q"), bytearray(), array("d")
    s_start, s_end, f_start, f_end, counts = (array("q") for _ in range(5))
    ends, offsets = array("q", [0]), array("q", [0])
    held: tuple[int, ValueError] | None = None  # the first example whose annotations fail, and its error
    for ex in examples:
        tokens.fromlist(pad + ex.input_tokens + ex.target_tokens)
        ends.append(len(tokens))
        counts.append(len(ex.sentences))
        if held is None:
            try:
                if not ex.target_tokens:
                    raise ValueError("example has an empty target")
                risks.extend(propagate_risk(ex.sentences, ex.edges, risk_mode, ex.facts, len(ex.target_tokens),
                                            ex.valid_mask))
            except AnnotationError as exc:
                held = len(counts), AnnotationError(f"record {len(counts)}: {exc}")
            except ValueError as exc:  # an empty target, or an unknown risk_mode
                held = len(counts), exc
            else:  # spans that passed propagate_risk lie inside the target, so their bounds fit int64
                base = offsets[-1]
                s_start.fromlist([s.token_start + base for s in ex.sentences])
                s_end.fromlist([s.token_end + base for s in ex.sentences])
                f_start.fromlist([f.token_start + base for f in ex.facts])
                f_end.fromlist([f.token_end + base for f in ex.facts])
                valid.extend(ex.valid_mask)
                offsets.append(len(valid))
        del ex  # neither this name nor an enumerate tuple holds an example while the next one is drawn

    ids = np.frombuffer(tokens, dtype=np.int64)
    limit = min(vocab_size or MAX_VOCAB_SIZE, MAX_VOCAB_SIZE)
    if sized is not None:
        sized(len(counts), vocab_size or int(ids.max(initial=0)) + 1)
    bad = (ids < 0) | (ids >= limit)
    if bad.any():
        first_bad = int(np.searchsorted(ends, bad.argmax(), side="right"))
        if held is None or first_bad <= held[0]:
            _check_tokens(ids[ends[first_bad - 1]:ends[first_bad]], limit)
    if held is not None:
        raise held[1]

    ends, offsets, s_start, s_end, f_start, f_end, counts = (
        np.frombuffer(table, dtype=np.int64) for table in (ends, offsets, s_start, s_end, f_start, f_end, counts))
    signals, sentence_id = derive_token_signals(np.stack([s_start, s_end], axis=1), np.frombuffer(risks),
                                                np.stack([f_start, f_end], axis=1), counts,
                                                np.frombuffer(valid, dtype=np.uint8) != 0)
    ids = ids.astype(np.uint16)
    del tokens, valid, risks, s_start, s_end, f_start, f_end, bad  # the pass's buffers go before distinct_windows
    # Target position t of an example sits at its tokens' end - len(target)
    # + t; its window is the `window` tokens before it.
    at = span_positions(ends[1:] - np.diff(offsets) - window, ends[1:] - window)
    windows = np.lib.stride_tricks.sliding_window_view(ids, window) if len(ids) else ids.reshape(0, window)
    first, rows = distinct_windows(windows, at)
    prepared = PreparedCorpus(windows[at[first]], rows.astype(np.int32), ids[window:][at], signals, sentence_id,
                              offsets)
    for arr in (prepared.distinct, prepared.window_id, prepared.labels, offsets):
        arr.setflags(write=False)
    return prepared


def distinct_windows(windows: np.ndarray, at: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of token windows [N, window] with nonnegative ids,
    or of their rows `at`: `first` holds one index into those rows per
    distinct window and `rows` each row's index into `first`, so
    windows[at][first][rows] equals windows[at].  The columns are packed into
    as few int64 keys as hold them, each column gathered at `at` on its own,
    and one lexsort over the keys orders the windows."""
    at = np.arange(len(windows)) if at is None else at
    bits = max(int(windows.max(initial=0)).bit_length(), 1)
    per_key = 63 // bits
    keys = []
    for start in range(0, windows.shape[1], per_key):
        key = np.zeros(len(at), dtype=np.int64)
        for column in windows.T[start:start + per_key]:
            key <<= bits
            key |= column[at]
        keys.append(key)
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    while keys:
        ordered = keys.pop()[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    ids = np.cumsum(new, out=ordered)
    ids -= 1
    rows = np.empty(len(order), dtype=np.int64)
    rows[order] = ids
    return order[new], rows


@dataclass
class TrainSettings:
    method: str = METHOD_PRISM
    lam: float = 0.1
    epsilon: float = DEFAULT_EPSILON
    steps: int = 500
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    embed_dim: int = 16
    hidden_dim: int = 32
    window: int = 4
    vocab_size: int = 0  # 0: derive from the data
    risk_propagation: str = RISK_ONEHOP
    seed: int = 0

    def validate(self) -> None:
        """Reject any trainer setting that is out of range or non-finite."""
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {tuple(METHODS)}")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError("lambda must be finite and nonnegative")
        check_epsilon(self.epsilon)
        if min(self.steps, self.batch_size, self.embed_dim, self.hidden_dim, self.window) < 1:
            raise ConfigError("steps, batch_size, embed_dim, hidden_dim and window must be >= 1")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ConfigError(f"batch_size {self.batch_size} exceeds the limit of {MAX_BATCH_SIZE}")
        if self.window > MAX_WINDOW:
            raise ConfigError(f"window {self.window} exceeds the limit of {MAX_WINDOW}")
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.adam_eps < math.inf):
            raise ConfigError("learning_rate and adam_eps must be finite and > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must be in [0, 1)")
        if not math.isfinite(self.weight_decay):
            raise ConfigError("weight_decay must be finite")
        if self.risk_propagation not in RISK_MODES:
            raise ConfigError(f"risk_propagation must be one of {RISK_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.vocab_size < 0 or self.vocab_size == 1:
            raise ConfigError("vocab_size must be 0 (derive it from the corpus) or >= 2")


@dataclass
class StepRecord:
    """Loss log entry for one training step."""

    step: int
    sft: float
    comp: float
    total: float
    n_sft: int
    n_fact: int
    alpha_active: int
    off_target: int
    p_risky: float | None
    p_safe: float | None


@dataclass
class TrainCounters:
    """Cumulative gate diagnostics over a whole run."""

    alpha_active_total: int = 0
    off_target_total: int = 0
    alpha_nonfact_total: int = 0


@dataclass
class TrainResult:
    params: ModelParams
    step_log: list[StepRecord]
    counters: TrainCounters


def _group_mean(values: np.ndarray, mask: np.ndarray) -> float | None:
    return float(values[mask].mean()) if mask.any() else None


# Upper bounds on a run's size, so that a huge setting or token id is refused
# before anything is allocated: the vocabulary a run resolves to
# (MAX_VOCAB_SIZE, shared with the generator); the numbers in the five
# parameter arrays together (training also holds their gradients, two
# moments, and the checkpoint's text of them); examples per batch; and the
# window, since the windows of a corpus or a batch are [rows, window] token ids.
MAX_PARAMETERS = 2**22
MAX_BATCH_SIZE = 2**12
MAX_WINDOW = 64


def check_model_size(settings: TrainSettings, vocab_size: int) -> None:
    """Refuse a vocabulary above MAX_VOCAB_SIZE, or parameter arrays for it
    that hold more than MAX_PARAMETERS numbers."""
    if vocab_size > MAX_VOCAB_SIZE:
        raise ConfigError(f"vocabulary of {vocab_size} tokens exceeds the limit of {MAX_VOCAB_SIZE}")
    d, h = settings.embed_dim, settings.hidden_dim
    count = vocab_size * d + settings.window * d * h + h + h * vocab_size + vocab_size
    if count > MAX_PARAMETERS:
        raise ConfigError(f"a model of {count} parameters exceeds the limit of {MAX_PARAMETERS}")


def infer_vocab_size(examples: Sequence[AnnotatedExample]) -> int:
    """Smallest vocabulary covering every token id in the corpus."""
    top = 0
    for ex in examples:
        top = max(top, max(ex.input_tokens, default=0), max(ex.target_tokens, default=0))
    return top + 1


def step_views(params: ModelParams, rows: int) -> StepViews:
    """Uninitialised float64 StepViews arrays of `rows` rows each, for a model of `params`."""
    (fan_in, hidden), vocab = params.w1.shape[-2:], params.vocab_size
    shapes = ((rows, vocab), (rows, vocab), (rows, fan_in), (rows, hidden), (rows, hidden))
    return StepViews(*map(np.empty, shapes))


def train(
    prepared: PreparedCorpus, settings: TrainSettings | Sequence[TrainSettings]
) -> TrainResult | list[TrainResult]:
    """Teacher-forced training loop over a prepared corpus, fully seeded.

    Each step runs on the batch's distinct windows, found from the corpus's
    window ids: the forward and backward passes and the loss's [rows, V]
    arrays have one row per distinct window, in distinct_windows' order, and
    total_loss sums each row's positions.  The rows run in blocks of at most
    block_rows(params, STEP_BLOCK_BYTES), in order.  A block is one
    forward_batch, the step log's softmax of its fact rows, one total_loss
    over the positions whose row it holds, with the method's METHODS
    switches and the step's position counts, and one backward_batch, which
    writes the run's five gradient arrays (first block) or adds into them;
    loss terms and gate counts are summed over the blocks.  So a step within
    one block is one pass over the batch, and a longer one differs from that
    pass in the last bits.  Methods without a complement term run at lam = 0,
    where total_loss skips that term, so any method at lam = 0 is
    bit-identical to method="sft" on the same valid mask.  Aborts with the
    step index on non-finite logits (which total_loss checks) or a
    non-finite loss, before the step's update.  The run allocates the
    per-row arrays once (step_views), for one block's rows; each block
    writes their first rows, so a step's memory is the rows it writes.
    total_loss runs its softmax pass over the logits in place and returns
    the gradient there, so a step holds one [block, V] array and the fact
    rows'.
    optimizer_step consumes the gradients in place.

    A sequence of K settings that differ only in lam is a group trained in
    lockstep, and gives a list of K results.  All share the seed, so they
    share the initial parameters and every batch: the batch is gathered
    once, and each block's calls above run once over the stacked parameters
    [K, ...], AdamW moments and gradients, holding K blocks of rows.  Every
    per-run value is reduced over that run's own positions, in the order
    above, so each result is bit-identical to train over its settings alone.
    A run that diverges ends the whole group.

    `prepared` is prepare_examples(examples, settings.window,
    settings.vocab_size, risk_mode=settings.risk_propagation); a sweep
    passes one preparation to every run.  It is only read, never modified.
    """
    group = [settings] if isinstance(settings, TrainSettings) else list(settings)
    if not group:
        raise ConfigError("no runs to train")
    for run in group:
        run.validate()
    first, shared = group[0], [f.name for f in fields(TrainSettings) if f.name != "lam"]
    if any(getattr(run, name) != getattr(first, name) for run in group for name in shared):
        raise ConfigError("runs trained in lockstep must differ in lam alone")
    check_model_size(first, first.vocab_size)
    if not prepared:
        raise ConfigError("training corpus is empty")
    method = METHODS[first.method]
    runs, vocab = len(group), first.vocab_size
    lead = (runs,) if runs > 1 else ()  # the run axis of a group's arrays
    lams = np.array([run.lam if method.has_comp else 0.0 for run in group])
    comp_on = (lams > 0.0).reshape(*lead, 1)  # a run at lam = 0 counts no gate

    rng = np.random.default_rng(first.seed)
    params = init_params(first.vocab_size, first.embed_dim, first.hidden_dim, first.window, rng)
    if lead:
        params = replace(params, **{name: np.stack([getattr(params, name)] * runs) for name in PARAM_FIELDS})
    state = init_optimizer(params)

    logs: list[list[StepRecord]] = [[] for _ in group]
    counters = [TrainCounters() for _ in group]
    cap = max(1, block_rows(params, STEP_BLOCK_BYTES))
    scratch = step_views(params, runs * cap)
    grads = {name: np.empty_like(getattr(params, name)) for name in PARAM_FIELDS}
    for step in range(1, first.steps + 1):
        idx = rng.integers(0, len(prepared), size=first.batch_size)
        at = prepared.positions(idx)
        windows, rows = prepared.distinct_rows(at)
        labels = prepared.labels[at]
        signals = prepared.signals[at]
        n_sft = int(signals.valid_mask.sum())
        n_fact = int(signals.fact_mask.sum())
        if method.drop_unsupported:
            signals = replace(signals, valid_mask=knowledge_mask_valid(signals))
        n_valid = int(signals.valid_mask.sum())
        p_label = np.empty((*lead, len(at)))  # the step log's label probabilities, read at the fact positions
        loss, counts = None, np.zeros((3, *lead), dtype=np.int64)  # alpha_active, off_target, alpha_nonfact
        for lo in range(0, len(windows), cap):
            part = np.flatnonzero((rows >= lo) & (rows < lo + cap))  # the block's positions, in order
            part_rows, part_labels, part_signals = rows[part] - lo, labels[part], signals[part]
            block = min(cap, len(windows) - lo)
            views = StepViews(*(a[:runs * block].reshape(*lead, block, -1) for a in scratch))
            logits, cache = forward_batch(params, windows[lo:lo + cap], out=views)
            # p_risky and p_safe read the fact positions' rows only (a row's
            # softmax does not depend on the others), before total_loss writes
            # over the logits, from a softmax in place over those rows gathered
            # into the leading rows of fact_probs; they are rows of the
            # logits, so mode="clip" changes none and lets take write into `out`.
            fact = part_signals.fact_mask
            fact_rows, fact_row_of = np.unique(part_rows[fact], return_inverse=True)
            try:
                head = np.take(logits, fact_rows, axis=-2, mode="clip",
                               out=scratch.fact_probs[:runs * len(fact_rows)].reshape(*lead, len(fact_rows), vocab))
                flat = head.reshape(-1, head.shape[-1])
                softmax_probs(flat, out=flat)
                p_label[..., part[fact]] = head[..., fact_row_of, part_labels[fact]]
                part_loss, grad, trace = total_loss(
                    logits, part_labels, part_signals, lams.reshape(lead), first.epsilon,
                    use_gates=method.use_gates, use_fact_mask=method.use_fact_mask, out=logits, rows=part_rows,
                    n_valid=n_valid, n_base=n_fact if method.use_fact_mask else n_valid,
                )
            except NonFiniteLogits as exc:
                raise DivergenceError(f"non-finite logits at step {step}") from exc
            if trace is not None:
                active = (trace.alpha > 0.0).reshape(*lead, -1) & comp_on
                off = ~(trace.pref_gate & trace.keep_gate).reshape(*lead, -1)
                counts += [active.sum(axis=-1), (active & off).sum(axis=-1), (active & ~fact).sum(axis=-1)]
            loss = part_loss if loss is None else LossBreakdown(
                loss.sft + part_loss.sft, loss.comp + part_loss.comp, loss.total + part_loss.total)
            if not np.all(np.isfinite(loss.total)):
                raise DivergenceError(f"non-finite loss at step {step}")
            backward_batch(params, windows[lo:lo + cap], grad, cache, out=views, grads=grads, add=lo > 0)

        support = signals.support_weight[signals.fact_mask]
        p_fact = p_label[..., signals.fact_mask].reshape(runs, -1)
        values = zip(*(np.reshape(v, runs) for v in (loss.sft, loss.comp, loss.total, *counts)))
        for log, counter, p, (sft, comp, total, alpha_active, off_target, nonfact) in zip(
                logs, counters, p_fact, values):
            log.append(StepRecord(step, float(sft), float(comp), float(total), n_sft, n_fact, int(alpha_active),
                                  int(off_target), _group_mean(p, support < 1.0), _group_mean(p, support >= 1.0)))
            counter.alpha_active_total += int(alpha_active)
            counter.off_target_total += int(off_target)
            counter.alpha_nonfact_total += int(nonfact)
        params, state = optimizer_step(params, grads, state, first)
    models = [replace(params, **{name: getattr(params, name)[k] for name in PARAM_FIELDS})
              for k in range(runs)] if lead else [params]  # each run's, views of the group's arrays
    results = [TrainResult(*result) for result in zip(models, logs, counters)]
    return results[0] if isinstance(settings, TrainSettings) else results


# A training step's row block keeps its float64 rows of x, hidden and logits
# within this many bytes: 215 rows at V = 1024 and about 1,000 at V = 70
# (d = 32, h = 64, window 4).  Values depend on it: a block's rows get their
# own matmuls, and a step sums its loss terms and gradients block by block.
STEP_BLOCK_BYTES = 2 * 2**20

# A record group keeps its float64 rows of x, hidden and logits within this
# many bytes: about 2,000 positions at V = 70 and 430 at V = 1024.  It bounds
# memory only: each record has its own matmuls and every value read from a
# group is per position, so no value depends on it; train does not read it.
BLOCK_BYTES = 4 * 2**20


def block_rows(params: ModelParams, budget: int) -> int:
    """The rows of x, hidden and logits, 8 bytes per column, that fit in
    `budget` bytes."""
    return budget // (8 * (sum(params.w1.shape[-2:]) + params.vocab_size))


def record_groups(params: ModelParams, prepared: PreparedCorpus) -> Iterator[tuple[int, int]]:
    """(start, stop) of each group of consecutive records start..stop-1 whose
    positions fit in block_rows(params, BLOCK_BYTES), in order; a larger
    record is a group of its own."""
    offsets, rows, start = prepared.offsets, block_rows(params, BLOCK_BYTES), 0
    while start < len(prepared):
        stop = max(start + 1, int(np.searchsorted(offsets, offsets[start] + rows, side="right")) - 1)
        yield start, stop
        start = stop


def gate_pass(params: ModelParams, prepared: PreparedCorpus) -> GateTrace:
    """Both gates, alpha and top-1 at every position of `prepared`, with
    comp_loss's default flags, from one forward pass and the probabilities
    written over its logits (NonFiniteLogits if not finite).  One np.unique
    over (record, window id) keys gives each record's distinct windows, in
    window-id order, and each record gets its own matmuls (forward_batch's
    `splits`), so a record's values are those of a gate_pass over it alone.
    The caller bounds the memory (record_groups)."""
    n_ids, n_records = len(prepared.distinct), len(prepared)
    record = np.repeat(np.arange(n_records), np.diff(prepared.offsets))
    keys, rows = np.unique(record * n_ids + prepared.window_id, return_inverse=True)
    splits = np.searchsorted(keys, np.arange(n_records + 1) * n_ids).tolist()
    # Only the logits are kept, so the activations are freed before the softmax.
    logits = forward_batch(params, prepared.distinct[keys % n_ids], splits=splits)[0]
    return gate_trace(softmax_probs(logits, out=logits), prepared.labels, prepared.signals, rows=rows)


def evaluate(params: ModelParams, prepared: PreparedCorpus) -> dict[str, float | None]:
    """The metrics.json entries: label probabilities, top-1 and gate rates by
    token group, all read from one gate_pass per record group (record_groups),
    so a position's values are those trace writes for it and memory holds one
    group's rows at a time; each mean runs over its [T] arrays in position
    order."""
    if not prepared:
        raise ConfigError("nothing to evaluate")
    try:
        parts = [gate_pass(params, prepared[a:b]) for a, b in record_groups(params, prepared)]
    except NonFiniteLogits as exc:
        raise DivergenceError("non-finite logits in evaluation") from exc
    trace = GateTrace(*(np.concatenate(column) for column in zip(*(vars(p).values() for p in parts))))
    signals = prepared.signals
    fact = signals.fact_mask
    risky = fact & (signals.support_weight < 1.0)
    safe = fact & (signals.support_weight >= 1.0)
    nonfact = signals.valid_mask & ~fact

    return {
        "mean_p_risky_fact": _group_mean(trace.p_label, risky),
        "mean_p_safe_fact": _group_mean(trace.p_label, safe),
        "mean_p_nonfact": _group_mean(trace.p_label, nonfact),
        "nonfact_top1_acc": _group_mean(trace.top1.astype(np.float64), nonfact),
        "risky_top1_rate": _group_mean(trace.top1.astype(np.float64), risky),
        "gate_pref_rate": _group_mean(trace.pref_gate.astype(np.float64), fact),
        "gate_keep_rate": _group_mean(trace.keep_gate.astype(np.float64), fact),
        "gate_active_rate": _group_mean((trace.alpha > 0.0).astype(np.float64), fact),
    }


def config_digest(config: dict) -> str:
    """Stable hash of a resolved configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def blas_id() -> str:
    """The BLAS numpy was built against, as "name version", or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        return "unknown"


def numeric_environment() -> dict:
    """What a run's bits depend on besides its config and seed: the python,
    numpy and BLAS versions, the BLAS thread variables as prism set them at
    import (always 1), and whether numpy (and so BLAS) was loaded before
    that.  Nothing in it varies between runs on one machine."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id(),
        "blas_threads": dict(BLAS_THREADS),
        "numpy_imported_before_prism": NUMPY_IMPORTED_BEFORE_PRISM,
    }


CHECKPOINT_VERSION = 3


def _encode_array(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def _decode_array(node: object, where: str) -> np.ndarray:
    """An array from its checkpoint entry; the data length is checked against
    the shape before any array is built, so a huge shape allocates nothing."""
    if not isinstance(node, dict):
        raise TypeError(f"{where} must be an object with shape and data")
    shape, data = node["shape"], node["data"]
    if not (isinstance(shape, list) and len(shape) <= 2 and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{where}.shape must be a list of at most two nonnegative integers")
    if not isinstance(data, str):
        raise TypeError(f"{where}.data must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a str that is not ASCII
        raise ValueError(f"{where}.data is not base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{where}.data holds {len(raw)} bytes, shape {shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


@dataclass
class Checkpoint:
    params: ModelParams
    config: dict


def save_checkpoint(path: str, params: ModelParams, config: dict) -> None:
    """Write a versioned JSON checkpoint of the parameters and resolved
    config, with the numeric environment that produced it.  Each array is its
    shape and the base64 of its little-endian float64 bytes, so it round-trips
    exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": config,
        "config_hash": config_digest(config),
        "model": {
            "window": params.window,
            **{name: _encode_array(getattr(params, name)) for name in PARAM_FIELDS},
        },
        "environment": numeric_environment(),
    }
    # json.dumps encodes in one C call; json.dump would stream through the
    # pure-Python encoder.  The bytes are the same.
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload))
        fh.write("\n")


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint, verify its config hash, and check its schema and
    that every parameter array is finite and has the shape the others imply.
    A version 2 checkpoint is read the same way, and its seed, bos_token and
    optimizer state are ignored; any other version, or none, is refused."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad or too deep JSON, or bytes that are not UTF-8
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if type(version) is not int or version not in (2, CHECKPOINT_VERSION):  # 3.0 and true are not versions
        raise CheckpointError(f"checkpoint {path} has format version {version!r}, which is not read; "
                              f"retrain to write a version {CHECKPOINT_VERSION} checkpoint")
    config = payload.get("config")
    if config_digest(config) != payload.get("config_hash"):
        raise CheckpointError(f"checkpoint {path}: config hash mismatch")
    try:
        m = payload["model"]
        arrays = {name: _decode_array(m[name], f"model.{name}") for name in PARAM_FIELDS}
        if type(m["window"]) is not int:  # a bool is not a JSON integer
            raise TypeError("model.window must be an integer")
        params = ModelParams(**arrays, window=m["window"])
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise CheckpointError(f"malformed checkpoint {path}: {detail}") from exc

    emb, w1 = params.embedding, params.w1
    if emb.ndim != 2 or len(emb) < 2 or w1.ndim != 2 or params.window < 1:
        raise CheckpointError(f"malformed checkpoint {path}: need embedding [V >= 2, d], w1 2-D, window >= 1")
    (vocab, dim), hidden = emb.shape, w1.shape[1]
    expected = {"embedding": (vocab, dim), "w1": (params.window * dim, hidden), "b1": (hidden,),
                "w2": (hidden, vocab), "b2": (vocab,)}
    for name, shape in expected.items():
        arr = getattr(params, name)
        if arr.shape != shape or not np.all(np.isfinite(arr)):
            raise CheckpointError(f"malformed checkpoint {path}: model.{name} must be finite "
                                  f"with shape {shape}, got shape {arr.shape}")
    return Checkpoint(params=params, config=config)
