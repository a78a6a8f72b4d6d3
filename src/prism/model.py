"""Tiny fixed-window neural next-token model, trained with teacher forcing.

The model embeds the previous `window` ground-truth tokens, concatenates the
embeddings, and maps them through one tanh hidden layer to vocabulary
logits.  It is deliberately the smallest thing that exposes a full [T, V]
logit surface: every gradient stays checkable against finite differences,
and training is float64 with position-major reductions, so a run is
reproducible bit for bit from its seed.  BLAS runs one thread, because
importing prism pins it to 1 unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
or MKL_NUM_THREADS is set; a thread count set there is honoured, and its
bits can differ from one thread's.  Checkpoints record the numeric
environment (`numeric_environment`).
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import BLAS_THREADS, NUMPY_IMPORTED_BEFORE_PRISM
from .corpus import TOKEN_BOS, AnnotatedExample, atomic_write
from .errors import AnnotationError, CheckpointError, ConfigError, DivergenceError
from .fact_graph import (
    RISK_MODES,
    RISK_ONEHOP,
    TokenSignals,
    derive_token_signals,
    propagate_risk,
    sentence_ids,
)
from .objective import (
    DEFAULT_EPSILON,
    MAX_EPSILON,
    comp_loss,
    knowledge_mask_valid,
    sft_loss,  # noqa: F401  not called here, but profilers patch prism.model.sft_loss
    softmax_probs,
    total_loss,
)

PARAM_FIELDS = ("embedding", "w1", "b1", "w2", "b2")
# OptimizerState's float hyperparameters, in checkpoint order.
OPTIMIZER_FIELDS = ("learning_rate", "beta1", "beta2", "eps", "weight_decay")


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
    embedding: np.ndarray  # [V, d]
    w1: np.ndarray         # [window * d, h]
    b1: np.ndarray         # [h]
    w2: np.ndarray         # [h, V]
    b2: np.ndarray         # [V]
    window: int

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embedding.shape[1]


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


def forward_batch(
    params: ModelParams, windows: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Logits [B, V] for a batch of token windows [B, window], plus the
    activations needed by backward_batch."""
    w = np.asarray(windows, dtype=np.int64)
    if w.ndim != 2 or w.shape[1] != params.window:
        raise ValueError(f"windows must be [B, {params.window}], got shape {w.shape}")
    _check_tokens(w, params.vocab_size)
    x = params.embedding[w].reshape(w.shape[0], -1)
    hidden = np.tanh(x @ params.w1 + params.b1)
    logits = hidden @ params.w2 + params.b2
    return logits, (x, hidden)


def backward_batch(
    params: ModelParams,
    windows: np.ndarray,
    dlogits: np.ndarray,
    cache: tuple[np.ndarray, np.ndarray],
) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the loss w.r.t. every parameter, given
    the per-logit loss gradient [B, V] and forward_batch's activations."""
    w = np.asarray(windows, dtype=np.int64)
    dz = np.asarray(dlogits, dtype=np.float64)
    x, hidden = cache
    if dz.shape != (w.shape[0], params.vocab_size):
        raise ValueError(f"loss gradient has shape {dz.shape}, expected {(w.shape[0], params.vocab_size)}")

    d_w2 = hidden.T @ dz
    d_b2 = dz.sum(axis=0)
    d_hidden = dz @ params.w2.T
    d_pre = d_hidden * (1.0 - hidden * hidden)
    d_w1 = x.T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    # Embedding scatter: one bincount over (token id, column) bins.  Each bin
    # sums its rows in batch order, exactly as np.add.at would.
    dim = params.embed_dim
    bins = (w.reshape(-1, 1) * dim + np.arange(dim)).ravel()
    d_x = d_pre @ params.w1.T
    d_emb = np.bincount(bins, weights=d_x.ravel(), minlength=params.vocab_size * dim)
    d_emb = d_emb.reshape(params.vocab_size, dim)
    return {"embedding": d_emb, "w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


@dataclass
class OptimizerState:
    """Decoupled-weight-decay adaptive-moment optimizer state."""

    learning_rate: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float
    step_count: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_optimizer(params: ModelParams, settings: TrainSettings) -> OptimizerState:
    """Zero moments and the optimizer hyperparameters of `settings`."""
    zeros = {name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS}
    return OptimizerState(
        learning_rate=settings.learning_rate,
        beta1=settings.beta1,
        beta2=settings.beta2,
        eps=settings.adam_eps,
        weight_decay=settings.weight_decay,
        step_count=0,
        m=zeros,
        v={name: z.copy() for name, z in zeros.items()},
    )


def optimizer_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected moment update with decoupled weight decay, in place."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name in PARAM_FIELDS:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r} at optimizer step {t}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p = getattr(params, name)
        if state.weight_decay != 0.0:
            p -= state.learning_rate * state.weight_decay * p
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state


@dataclass
class PreparedExample:
    """One example flattened into teacher-forcing windows and token signals."""

    windows: np.ndarray       # int64 [T, window]
    labels: np.ndarray        # int64 [T]
    signals: TokenSignals
    sentence_id: np.ndarray   # int64 [T], -1 outside any sentence


def prepare_examples(
    examples: Sequence[AnnotatedExample],
    window: int,
    vocab_size: int,
    risk_mode: str = RISK_ONEHOP,
) -> list[PreparedExample]:
    """Expand annotated examples into per-position windows, labels, and signals.

    For target position t the window is the `window` tokens preceding it in
    input + target, left-padded with the begin token at the sequence start.
    An annotation error names the example's 1-based position in `examples`.
    """
    prepared = []
    for pos, ex in enumerate(examples, 1):
        full = np.asarray(list(ex.input_tokens) + list(ex.target_tokens), dtype=np.int64)
        _check_tokens(full, vocab_size)
        t_len = len(ex.target_tokens)
        if t_len == 0:
            raise ValueError("example has an empty target")
        padded = np.concatenate([np.full(window, TOKEN_BOS, dtype=np.int64), full])
        all_windows = np.lib.stride_tricks.sliding_window_view(padded, window)
        windows = all_windows[len(ex.input_tokens) : len(ex.input_tokens) + t_len].copy()
        try:
            graph = propagate_risk(ex.sentences, ex.edges, mode=risk_mode)
            signals = derive_token_signals(graph, ex.facts, ex.valid_mask, t_len)
        except AnnotationError as exc:
            raise AnnotationError(f"record {pos}: {exc}") from exc
        prepared.append(
            PreparedExample(
                windows=windows,
                labels=np.asarray(ex.target_tokens, dtype=np.int64),
                signals=signals,
                sentence_id=sentence_ids(ex.sentences, t_len),
            )
        )
    return prepared


def _gather_batch(
    prepared: Sequence[PreparedExample], idx: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, TokenSignals]:
    chosen = [prepared[i] for i in idx]
    windows = np.concatenate([p.windows for p in chosen])
    labels = np.concatenate([p.labels for p in chosen])
    signals = TokenSignals(
        fact_mask=np.concatenate([p.signals.fact_mask for p in chosen]),
        support_weight=np.concatenate([p.signals.support_weight for p in chosen]),
        valid_mask=np.concatenate([p.signals.valid_mask for p in chosen]),
    )
    return windows, labels, signals


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
        if not 0.0 < self.epsilon <= MAX_EPSILON:
            raise ConfigError(f"epsilon must be in (0, {MAX_EPSILON}]")
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
    opt_state: OptimizerState
    step_log: list[StepRecord]
    counters: TrainCounters


def _group_mean(values: np.ndarray, mask: np.ndarray) -> float | None:
    return float(values[mask].mean()) if mask.any() else None


# Upper bounds on a run's size, so that a huge setting or token id is refused
# before anything is allocated: the vocabulary a run resolves to; the numbers
# in the five parameter arrays together (training also holds their gradients,
# two moments, and the checkpoint's text of three copies); examples per batch;
# and the window, since every prepared example holds [T, window] token ids.
MAX_VOCAB_SIZE = 2**16
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
        for tok in ex.input_tokens:
            top = max(top, tok)
        for tok in ex.target_tokens:
            top = max(top, tok)
    return top + 1


def train(prepared: Sequence[PreparedExample], settings: TrainSettings) -> TrainResult:
    """Teacher-forced training loop over a prepared corpus, fully seeded.

    Each step is one total_loss call with the method's METHODS switches.
    Methods without a complement term run at lam = 0, where total_loss skips
    that term, so any method at lam = 0 is bit-identical to method="sft" on
    the same valid mask.  Aborts with the step index on a non-finite loss.

    `prepared` is prepare_examples(examples, settings.window,
    settings.vocab_size, risk_mode=settings.risk_propagation); a sweep
    passes one preparation to every run.  It is only read, never modified.
    """
    settings.validate()
    check_model_size(settings, settings.vocab_size)
    if not prepared:
        raise ConfigError("training corpus is empty")
    method = METHODS[settings.method]
    lam = settings.lam if method.has_comp else 0.0

    rng = np.random.default_rng(settings.seed)
    params = init_params(settings.vocab_size, settings.embed_dim, settings.hidden_dim, settings.window, rng)
    state = init_optimizer(params, settings)

    log: list[StepRecord] = []
    counters = TrainCounters()
    for step in range(1, settings.steps + 1):
        idx = rng.integers(0, len(prepared), size=settings.batch_size)
        windows, labels, signals = _gather_batch(prepared, idx)
        logits, cache = forward_batch(params, windows)
        if not np.all(np.isfinite(logits)):
            raise DivergenceError(f"non-finite logits at step {step}")

        n_sft = int(signals.valid_mask.sum())
        n_fact = int(signals.fact_mask.sum())
        if method.drop_unsupported:
            signals = replace(signals, valid_mask=knowledge_mask_valid(signals))
        loss, grad, trace = total_loss(
            logits, labels, signals, lam, settings.epsilon,
            use_gates=method.use_gates, use_fact_mask=method.use_fact_mask,
        )
        alpha_active = off_target = 0
        if trace is not None:
            active = trace.alpha > 0.0
            alpha_active = int(active.sum())
            off_target = int((active & ~(trace.pref_gate & trace.keep_gate)).sum())
            counters.alpha_active_total += alpha_active
            counters.off_target_total += off_target
            counters.alpha_nonfact_total += int((active & ~signals.fact_mask).sum())

        if not np.isfinite(loss.total):
            raise DivergenceError(f"non-finite loss at step {step}")

        # p_risky and p_safe read fact rows only, and a row's softmax does
        # not depend on the other rows.
        fact = signals.fact_mask
        fact_labels = labels[fact]
        probs_label = softmax_probs(logits[fact])[np.arange(len(fact_labels)), fact_labels]
        fact_support = signals.support_weight[fact]
        risky = fact_support < 1.0
        safe = fact_support >= 1.0
        log.append(
            StepRecord(
                step=step,
                sft=loss.sft,
                comp=loss.comp,
                total=loss.total,
                n_sft=n_sft,
                n_fact=n_fact,
                alpha_active=alpha_active,
                off_target=off_target,
                p_risky=_group_mean(probs_label, risky),
                p_safe=_group_mean(probs_label, safe),
            )
        )
        grads = backward_batch(params, windows, grad, cache)
        params, state = optimizer_step(params, grads, state)
    return TrainResult(params=params, opt_state=state, step_log=log, counters=counters)


def evaluate(
    params: ModelParams,
    prepared: Sequence[PreparedExample],
    epsilon: float = DEFAULT_EPSILON,
) -> dict[str, float | None]:
    """The metrics.json entries: label probabilities, top-1 and gate rates by token group."""
    if not prepared:
        raise ConfigError("nothing to evaluate")
    windows, labels, signals = _gather_batch(prepared, range(len(prepared)))
    logits, _ = forward_batch(params, windows)
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite logits in evaluation")
    probs = softmax_probs(logits)
    rows = np.arange(len(labels))
    p_label = probs[rows, labels]
    top1 = probs.argmax(axis=1) == labels

    fact = signals.fact_mask
    risky = fact & (signals.support_weight < 1.0)
    safe = fact & (signals.support_weight >= 1.0)
    nonfact = signals.valid_mask & ~fact
    _, _, trace = comp_loss(logits, labels, signals, epsilon)

    return {
        "mean_p_risky_fact": _group_mean(p_label, risky),
        "mean_p_safe_fact": _group_mean(p_label, safe),
        "mean_p_nonfact": _group_mean(p_label, nonfact),
        "nonfact_top1_acc": _group_mean(top1.astype(np.float64), nonfact),
        "risky_top1_rate": _group_mean(top1.astype(np.float64), risky),
        "gate_pref_rate": _group_mean(trace.pref_gate.astype(np.float64), fact),
        "gate_keep_rate": _group_mean(trace.keep_gate.astype(np.float64), fact),
        "gate_active_rate": _group_mean((trace.alpha > 0.0).astype(np.float64), fact),
    }


def config_digest(config: dict) -> str:
    """Stable hash of a resolved configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def numeric_environment() -> dict:
    """What a run's bits depend on besides its config and seed: the python,
    numpy and BLAS versions, the BLAS thread variables as prism left them at
    import, and whether numpy (and so BLAS) was loaded before that.  Nothing
    in it varies between runs on one machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": dict(BLAS_THREADS),
        "numpy_imported_before_prism": NUMPY_IMPORTED_BEFORE_PRISM,
    }


CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    params: ModelParams
    opt_state: OptimizerState
    config: dict
    seed: int


def save_checkpoint(
    path: str,
    params: ModelParams,
    opt_state: OptimizerState,
    config: dict,
    seed: int,
) -> None:
    """Write a versioned JSON checkpoint with the numeric environment that
    produced it; floats round-trip exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "seed": seed,
        "config": config,
        "config_hash": config_digest(config),
        "model": {
            "window": params.window,
            "bos_token": TOKEN_BOS,
            **{name: getattr(params, name).tolist() for name in PARAM_FIELDS},
        },
        "optimizer": {
            **{key: getattr(opt_state, key) for key in OPTIMIZER_FIELDS},
            "step_count": opt_state.step_count,
            "m": {name: arr.tolist() for name, arr in opt_state.m.items()},
            "v": {name: arr.tolist() for name, arr in opt_state.v.items()},
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
    that every parameter and moment array has the shape the others imply."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    config = payload.get("config")
    if config_digest(config) != payload.get("config_hash"):
        raise CheckpointError("checkpoint config hash mismatch")
    try:
        m, o = payload["model"], payload["optimizer"]
        params = ModelParams(
            **{name: np.asarray(m[name], dtype=np.float64) for name in PARAM_FIELDS},
            window=int(m["window"]),
        )
        if int(m["bos_token"]) != TOKEN_BOS:
            raise ValueError(f"model.bos_token must be {TOKEN_BOS}")
        opt_state = OptimizerState(
            **{key: float(o[key]) for key in OPTIMIZER_FIELDS},
            step_count=int(o["step_count"]),
            m={name: np.asarray(o["m"][name], dtype=np.float64) for name in PARAM_FIELDS},
            v={name: np.asarray(o["v"][name], dtype=np.float64) for name in PARAM_FIELDS},
        )
        seed = int(payload["seed"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise CheckpointError(f"malformed checkpoint {path}: {detail}") from exc

    emb, w1 = params.embedding, params.w1
    if emb.ndim != 2 or len(emb) < 2 or w1.ndim != 2 or params.window < 1:
        raise CheckpointError(f"malformed checkpoint {path}: need embedding [V >= 2, d], w1 2-D, window >= 1")
    (vocab, dim), hidden = emb.shape, w1.shape[1]
    expected = {"embedding": (vocab, dim), "w1": (params.window * dim, hidden), "b1": (hidden,),
                "w2": (hidden, vocab), "b2": (vocab,)}
    for name, shape in expected.items():
        arrays = {"model": getattr(params, name), "m": opt_state.m[name], "v": opt_state.v[name]}
        for where, arr in arrays.items():
            if arr.shape != shape or not np.all(np.isfinite(arr)):
                raise CheckpointError(f"malformed checkpoint {path}: {where}.{name} must be finite "
                                      f"with shape {shape}, got shape {arr.shape}")
    return Checkpoint(params=params, opt_state=opt_state, config=config, seed=seed)
