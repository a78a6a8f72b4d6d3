"""Scalar reference implementations that the tests check the package against.

The package runs the vectorized gates and the analytic gradients in
prism.objective.  The oracles here spell out the same definitions one
position (or one logit) at a time.  The corpus references are the
generator and the chunker in their quadratic form, which the linear ones
must match field for field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from prism.corpus import (
    _FACT_TOKENS,
    TOKEN_BOS,
    TOKEN_PERIOD,
    TOKEN_QMARK,
    TOKEN_QUERY,
    TOKEN_REL,
    AnnotatedExample,
    GeneratorConfig,
    _plant_defect,
    filler_token,
    key_token,
    n_filler,
    value_token,
)
from prism.errors import AnnotationError, ConfigError, DivergenceError, NonFiniteLogits
from prism.fact_graph import (
    RISK_ONEHOP,
    DependencyEdge,
    FactSpan,
    SentenceSpan,
    TokenSignals,
    propagate_risk,
    violations,
)
from prism.harness import TRACE_ROW
from prism.model import (
    PARAM_FIELDS,
    ModelParams,
    OptimizerState,
    PreparedCorpus,
    TrainSettings,
    _check_tokens,
    _group_mean,
    forward_batch,
    gate_pass,
)
from prism.objective import (
    DEFAULT_EPSILON,
    GateTrace,
    comp_loss,
    knowledge_mask_valid,
    sft_loss,
    softmax_pass,
    softmax_probs,
)


@dataclass
class PreparedExample:
    """One example flattened into teacher-forcing windows and token signals."""

    windows: np.ndarray       # uint16 [T, window]
    labels: np.ndarray        # uint16 [T]
    signals: TokenSignals
    sentence_id: np.ndarray   # int32 [T], -1 outside any sentence


def prepare_reference(
    examples: Sequence[AnnotatedExample],
    window: int,
    vocab_size: int,
    risk_mode: str = RISK_ONEHOP,
) -> list[PreparedExample]:
    """model.prepare_examples one example at a time, as its per-example
    version did: a padded copy and a sliding window per example, the
    sentence and edge rules (propagate_risk without a length), then the span
    rules in a second pass, and the signals and sentence ids filled in span
    by span."""
    prepared = []
    for pos, ex in enumerate(examples, 1):
        full = np.asarray(list(ex.input_tokens) + list(ex.target_tokens), dtype=np.int64)
        _check_tokens(full, vocab_size)
        t_len = len(ex.target_tokens)
        if t_len == 0:
            raise ValueError("example has an empty target")
        padded = np.concatenate([np.full(window, TOKEN_BOS, dtype=np.int64), full])
        all_windows = np.lib.stride_tricks.sliding_window_view(padded, window)
        windows = all_windows[len(ex.input_tokens) : len(ex.input_tokens) + t_len].astype(np.uint16)
        valid_mask = np.asarray(ex.valid_mask, dtype=bool)
        try:
            risks = propagate_risk(ex.sentences, ex.edges, mode=risk_mode)
            # no edges: propagate_risk has checked them
            for _, message in violations(ex.sentences, (), ex.facts, t_len, valid_mask):
                raise AnnotationError(message)
        except AnnotationError as exc:
            raise AnnotationError(f"record {pos}: {exc}") from exc
        support = np.ones(t_len, dtype=np.float64)
        sentence_id = np.full(t_len, -1, dtype=np.int32)
        for j, (s, eff) in enumerate(zip(ex.sentences, risks), 1):
            support[s.token_start:s.token_end] = 1.0 - eff
            sentence_id[s.token_start:s.token_end] = j
        in_fact = np.zeros(t_len, dtype=bool)
        for f in ex.facts:
            in_fact[f.token_start:f.token_end] = True
        prepared.append(
            PreparedExample(
                windows=windows,
                labels=np.asarray(ex.target_tokens, dtype=np.uint16),
                signals=TokenSignals(fact_mask=in_fact & valid_mask, support_weight=support, valid_mask=valid_mask),
                sentence_id=sentence_id,
            )
        )
    return prepared


@dataclass(frozen=True)
class GatePoint:
    """Gate decision record for a single position."""

    p_label: float
    q_max: float
    pref_gate: int
    keep_gate: int
    alpha: float


def keep_gate(p_label: float, q_max: float, w: float) -> int:
    """1 iff the label would still be the top token after scaling its
    probability by w and renormalizing the rest:

        p_label * w * (1 - p_label) >= q_max * (1 - p_label * w)

    Boundary equality passes the gate.
    """
    return int(p_label * w * (1.0 - p_label) >= q_max * (1.0 - p_label * w))


def redistribute(
    probs: np.ndarray,
    label: int,
    w: float,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Scale the label probability by w and rescale every competitor by
    (1 - p_label*w) / (1 - p_label), preserving normalization.

    Training realizes this reallocation implicitly through the complement-loss
    gradient.  The scale factor clamps p_label at 1 - epsilon to avoid the
    p_label -> 1 pole.
    """
    p = np.array(probs, dtype=np.float64)
    p_label = float(p[label])
    clamped = min(p_label, 1.0 - epsilon)
    out = p * ((1.0 - clamped * w) / (1.0 - clamped))
    out[label] = p_label * w
    return out


def compute_alpha(
    probs: np.ndarray,
    label: int,
    fact_bit: int,
    support_weight: float,
) -> tuple[float, GatePoint]:
    """Auxiliary weight for one position: fact bit x both gates x (1 - support).

    The preference gate requires the label to be the strict argmax; ties fail.
    """
    p = np.asarray(probs, dtype=np.float64)
    p_label = float(p[label])
    q_max = float(np.delete(p, label).max())
    pref = int(p_label > q_max)
    keep = keep_gate(p_label, q_max, support_weight)
    alpha = float(fact_bit) * pref * keep * (1.0 - support_weight)
    return alpha, GatePoint(p_label, q_max, pref, keep, alpha)


def standalone_sft(logits: np.ndarray, labels: np.ndarray, valid_mask: np.ndarray) -> tuple[float, np.ndarray]:
    """sft_loss on its own: the softmax pass of the logits with these labels, then the term."""
    return sft_loss(softmax_pass(logits, labels=labels), valid_mask)


def standalone_comp(
    logits: np.ndarray, labels: np.ndarray, signals: TokenSignals, epsilon: float = DEFAULT_EPSILON, **flags
) -> tuple[float, np.ndarray, GateTrace]:
    """comp_loss on its own: the softmax pass of the logits, then the term,
    its gradient added into zeros."""
    soft = softmax_pass(logits, labels=labels)
    grad = np.zeros_like(soft.probs)
    value, trace, hit, block = comp_loss(soft, signals, epsilon, **flags)
    grad[hit] += block
    return value, grad, trace


def knowledge_mask_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    signals: TokenSignals,
) -> tuple[float, np.ndarray]:
    """Baseline: plain SFT over knowledge_mask_valid(signals), N recomputed."""
    return standalone_sft(logits, labels, knowledge_mask_valid(signals))


def finite_difference_gradient(
    loss_fn: Callable[[np.ndarray], float],
    logits: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of a scalar loss over logits."""
    if not 1e-6 <= step <= 1e-3:
        raise ValueError(f"step must be in [1e-6, 1e-3], got {step}")
    z = np.array(logits, dtype=np.float64)
    grad = np.zeros_like(z)
    it = np.nditer(z, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        orig = z[ij]
        z[ij] = orig + step
        up = loss_fn(z)
        z[ij] = orig - step
        down = loss_fn(z)
        z[ij] = orig
        grad[ij] = (up - down) / (2.0 * step)
    return grad


def optimizer_step_reference(
    params: ModelParams, grads: dict[str, np.ndarray], state: OptimizerState, settings: TrainSettings
) -> None:
    """model.optimizer_step as whole-array expressions, each making its own temporaries."""
    lr, beta1, beta2 = settings.learning_rate, settings.beta1, settings.beta2
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in PARAM_FIELDS:
        g, m, v, p = grads[name], state.m[name], state.v[name], getattr(params, name)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        if settings.weight_decay != 0.0:
            p -= lr * settings.weight_decay * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + settings.adam_eps)


def evaluate_reference(
    params: ModelParams,
    prepared: PreparedCorpus,
    epsilon: float = DEFAULT_EPSILON,
) -> dict[str, float | None]:
    """model.evaluate spelled out through comp_loss: a fresh softmax gives
    p_label and top-1, and comp_loss's own pass over the logits gives the
    gate trace, whose loss and gradient are discarded."""
    labels, signals = prepared.labels, prepared.signals
    logits, _ = forward_batch(params, prepared.distinct[prepared.window_id])
    try:
        probs = softmax_probs(logits)
    except NonFiniteLogits as exc:
        raise DivergenceError("non-finite logits in evaluation") from exc
    p_label = probs[np.arange(len(labels)), labels]
    top1 = (probs.argmax(axis=1) == labels).astype(np.float64)
    _, _, trace = standalone_comp(logits, labels, signals, epsilon)
    fact = signals.fact_mask
    risky = fact & (signals.support_weight < 1.0)
    nonfact = signals.valid_mask & ~fact
    return {
        "mean_p_risky_fact": _group_mean(p_label, risky),
        "mean_p_safe_fact": _group_mean(p_label, fact & (signals.support_weight >= 1.0)),
        "mean_p_nonfact": _group_mean(p_label, nonfact),
        "nonfact_top1_acc": _group_mean(top1, nonfact),
        "risky_top1_rate": _group_mean(top1, risky),
        "gate_pref_rate": _group_mean(trace.pref_gate.astype(np.float64), fact),
        "gate_keep_rate": _group_mean(trace.keep_gate.astype(np.float64), fact),
        "gate_active_rate": _group_mean((trace.alpha > 0.0).astype(np.float64), fact),
    }


def record_groups_reference(prepared: PreparedCorpus, rows: int) -> list[tuple[int, int]]:
    """model.record_groups spelled out one record at a time: a record joins
    the open group while the group's positions fit in `rows`, and otherwise
    opens the next group, alone if it does not fit by itself."""
    groups, start = [], 0
    for i in range(1, len(prepared)):
        if prepared.offsets[i + 1] - prepared.offsets[start] > rows:
            groups.append((start, i))
            start = i
    return groups + [(start, len(prepared))]


def trace_rows_reference(
    params: ModelParams,
    prepared: PreparedCorpus,
    epsilon: float = DEFAULT_EPSILON,
) -> list[dict]:
    """harness.cmd_trace's rows spelled out through comp_loss, one call per
    example, its loss and gradient discarded."""
    rows = []
    for i, prep in enumerate(prepared):
        logits, _ = forward_batch(params, prep.distinct[prep.window_id])
        try:
            _, _, trace = standalone_comp(logits, prep.labels, prep.signals, epsilon)
        except NonFiniteLogits as exc:
            raise DivergenceError(f"non-finite logits for record {i + 1}") from exc
        for t in range(len(prep.labels)):
            sid = int(prep.sentence_id[t])
            rows.append({
                "example": i,
                "position": t,
                "sentence": sid if sid >= 0 else None,
                "p_label": float(trace.p_label[t]),
                "q_max": float(trace.q_max[t]),
                "w": float(prep.signals.support_weight[t]),
                "pref_gate": int(trace.pref_gate[t]),
                "keep_gate": int(trace.keep_gate[t]),
                "alpha": float(trace.alpha[t]),
            })
    return rows


def trace_text_per_record(params: ModelParams, prepared: PreparedCorpus) -> str:
    """harness.cmd_trace's output as it was made before records went through
    gate_pass in groups: one gate_pass and one row format per record."""
    lines = []
    for i, prep in enumerate(prepared):
        try:
            trace = gate_pass(params, prep)
        except NonFiniteLogits as exc:
            raise DivergenceError(f"non-finite logits for record {i + 1}") from exc
        sentences = ["null" if sid < 0 else sid for sid in prep.sentence_id.tolist()]
        columns = zip(sentences, trace.p_label.tolist(), trace.q_max.tolist(),
                      prep.signals.support_weight.tolist(), trace.pref_gate.tolist(),
                      trace.keep_gate.tolist(), trace.alpha.tolist())
        lines.extend(TRACE_ROW % (i, t, *row) for t, row in enumerate(columns))
    return "".join(lines)


def generate_reference(config: GeneratorConfig) -> list[AnnotatedExample]:
    """corpus.generate as it was before it kept its earlier mentions as it
    went: `prior` is rebuilt for every fact slot, in time quadratic in the
    mentions of an example.

    Deterministically generate an annotated corpus from the config seed.

    Corrupted keys always state one fixed wrong value, so a plain
    likelihood-trained model becomes confidently wrong exactly where the
    risk labels say it should not.

    Non-fact tokens are all predictable from their context window: the first
    stated key is named in the input, every later fresh statement uses the
    successor key ((previous + 1) mod n_keys), and when sentences are longer
    than their fact statements the first padding slot echoes the most recent
    key as a filler token (remaining padding is random filler).  Capability
    metrics therefore have a real ceiling instead of a noise floor.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)

    true_value = rng.integers(0, config.n_values, size=config.n_keys)
    n_corrupt = int(round(config.corruption_fraction * config.n_keys))
    corrupt_keys = set(rng.permutation(config.n_keys)[:n_corrupt].tolist())
    stated_value = true_value.copy()
    for k in sorted(corrupt_keys):
        wrong = int(rng.integers(0, config.n_values - 1))
        if wrong >= true_value[k]:
            wrong += 1
        stated_value[k] = wrong

    fillers = n_filler(config)
    pad = config.sentence_length - (_FACT_TOKENS * config.facts_per_sentence + 1)
    examples = []
    for _ in range(config.n_examples):
        n_sent = int(rng.integers(config.sentences_min, config.sentences_max + 1))
        target: list[int] = []
        sentences: list[SentenceSpan] = []
        facts: list[FactSpan] = []
        edges: list[DependencyEdge] = []
        mentions: list[tuple[int, int]] = []  # (sentence id, key)
        first_key = int(rng.integers(0, config.n_keys))
        prev_key: int | None = None
        for j in range(1, n_sent + 1):
            start = len(target)
            for i in range(pad):
                if i == 0:
                    echo = prev_key if prev_key is not None else first_key
                    target.append(filler_token(config, echo % fillers))
                else:
                    target.append(filler_token(config, int(rng.integers(0, fillers))))
            risk = 0.0
            incoming: set[int] = set()
            for _slot in range(config.facts_per_sentence):
                prior = [(jj, kk) for jj, kk in mentions if jj < j]
                if prior and rng.random() < config.dependency_p:
                    _, key = prior[int(rng.integers(0, len(prior)))]
                    incoming.update(jj for jj, kk in prior if kk == key)
                else:
                    key = first_key if prev_key is None else (prev_key + 1) % config.n_keys
                    if key in corrupt_keys:
                        risk = max(risk, float(rng.uniform(config.risk_min, config.risk_max)))
                target.append(key_token(config, key))
                target.append(TOKEN_REL)
                facts.append(
                    FactSpan(fact_id=len(facts), token_start=len(target), token_end=len(target) + 1, sentence=j)
                )
                target.append(value_token(config, int(stated_value[key])))
                mentions.append((j, key))
                prev_key = key
            target.append(TOKEN_PERIOD)
            sentences.append(SentenceSpan(token_start=start, token_end=len(target), risk=risk))
            edges.extend(DependencyEdge(src, j) for src in sorted(incoming))

        input_tokens = [TOKEN_QUERY, key_token(config, first_key), TOKEN_QMARK]
        examples.append(
            AnnotatedExample(
                input_tokens=input_tokens,
                target_tokens=target,
                valid_mask=[1] * len(target),
                sentences=sentences,
                facts=facts,
                edges=edges,
            )
        )

    for i in range(config.plant_defects):
        examples.append(_plant_defect(examples[i % config.n_examples], kind=i % 4))
    return examples


def chunk_reference(example: AnnotatedExample, limit: int) -> list[AnnotatedExample]:
    """corpus.chunk as it was before its one pass over facts and edges: every
    edge is scanned for every sentence, and every fact and edge for every
    chunk.

    Split an example on sentence boundaries into chunks of at most `limit`
    target tokens (greedy packing); one sentence region, or a target without
    sentences, that exceeds the limit alone becomes one longer chunk.

    Tokens between or after sentences travel with the preceding sentence;
    concatenating the chunk targets reproduces the original target exactly.
    Dependency edges whose source lands in an earlier chunk are folded into
    the dependent sentence's raw risk (max with the source's raw risk), which
    preserves one-hop effective risks.  Each chunk repeats the input tokens.
    """
    if limit < 1:
        raise ConfigError("chunk limit must be >= 1")
    t_len = len(example.target_tokens)
    if not example.sentences:
        return [example]

    # Region i: sentence i plus any following gap tokens (leading gap joins region 0).
    starts = [0] + [s.token_start for s in example.sentences[1:]]
    ends = starts[1:] + [t_len]

    groups: list[list[int]] = []
    current: list[int] = []
    used = 0
    for i, (a, b) in enumerate(zip(starts, ends)):
        size = b - a
        if current and used + size > limit:
            groups.append(current)
            current, used = [], 0
        current.append(i)
        used += size
    if current:
        groups.append(current)

    # Sentence i of the list has id i + 1.
    raw_risk = {i + 1: s.risk for i, s in enumerate(example.sentences)}
    chunks = []
    for group in groups:
        lo, hi = starts[group[0]], ends[group[-1]]
        inside = {i + 1 for i in group}
        renumber = {i + 1: new + 1 for new, i in enumerate(group)}
        sentences = []
        for i in group:
            s = example.sentences[i]
            risk = s.risk
            for e in example.edges:
                if e.dst == i + 1 and e.src not in inside:
                    risk = max(risk, raw_risk[e.src])
            sentences.append(
                SentenceSpan(
                    token_start=s.token_start - lo,
                    token_end=s.token_end - lo,
                    risk=risk,
                )
            )
        facts = [
            replace(f, token_start=f.token_start - lo, token_end=f.token_end - lo, sentence=renumber[f.sentence])
            for f in example.facts
            if f.sentence in inside
        ]
        edges = [
            DependencyEdge(renumber[e.src], renumber[e.dst])
            for e in example.edges
            if e.src in inside and e.dst in inside
        ]
        chunks.append(
            AnnotatedExample(
                input_tokens=list(example.input_tokens),
                target_tokens=example.target_tokens[lo:hi],
                valid_mask=example.valid_mask[lo:hi],
                sentences=sentences,
                facts=facts,
                edges=edges,
                extra=dict(example.extra),
            )
        )
    return chunks
