"""Risk-gated training losses and their analytic per-logit gradients.

The combined objective couples masked cross-entropy over valid target
positions with a complement penalty, -log(1 - p_label), applied at
fact-active positions where the model overcommits to a weakly supported
label token.  The penalty is gated twice: the label must currently be the
model's strict top choice, and it must stay on top after hypothetically
shrinking its probability by the position's support weight.  Its strength
scales with (1 - support_weight), and the two loss terms are normalized by
separate position counts (valid vs fact-active).

Minimizing the complement term pushes probability mass off the risky label
and onto competitors in proportion to their current probabilities, which is
why no replacement target is ever needed.  Gate bits are treated as
constants under differentiation.

Everything is float64 and deterministic; reductions run in position order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatchError
from .fact_graph import TokenSignals

# Label probabilities are clamped to 1 - DEFAULT_EPSILON inside the
# complement term so the loss stays finite as p_label -> 1.
DEFAULT_EPSILON = 1e-6
MAX_EPSILON = 1e-3


@dataclass
class GateTrace:
    """Per-position gate decisions for a batch, in position order."""

    p_label: np.ndarray    # float64 [T]
    q_max: np.ndarray      # float64 [T]
    pref_gate: np.ndarray  # bool [T]
    keep_gate: np.ndarray  # bool [T]
    alpha: np.ndarray      # float64 [T]


@dataclass(frozen=True)
class LossBreakdown:
    """The two loss terms and their weighted sum."""

    sft: float
    comp: float
    total: float


def _as_logits(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"logits must be [T, V] with V >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain non-finite entries")
    return z


def _as_labels(labels: np.ndarray, length: int, vocab: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (length,):
        raise ValueError(f"labels have shape {y.shape}, expected ({length},)")
    if y.min(initial=0) < 0 or y.max(initial=0) >= vocab:
        raise ValueError("label id outside [0, vocab)")
    return y


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max-subtracted), float64."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input contains non-finite entries")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sft_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    valid_mask: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Masked mean negative log-likelihood and its per-logit gradient.

    The gradient at a valid position is (softmax - onehot(label)) / N over
    its logit row and exactly zero at masked positions.
    """
    z = _as_logits(logits)
    length, vocab = z.shape
    y = _as_labels(labels, length, vocab)
    valid = np.asarray(valid_mask, dtype=bool)
    if valid.shape != (length,):
        raise ValueError(f"valid mask has shape {valid.shape}, expected ({length},)")
    n = int(valid.sum())
    if n == 0:
        raise EmptyBatchError("no valid target positions in batch")

    logp = _log_softmax(z)
    rows = np.arange(length)
    value = float(-(logp[rows, y][valid]).sum() / n)

    grad = np.exp(logp)
    grad /= n
    grad[~valid] = 0.0
    vi = np.nonzero(valid)[0]
    grad[vi, y[vi]] -= 1.0 / n
    return value, grad


def _gate_arrays(
    probs: np.ndarray,
    labels: np.ndarray,
    support: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rows = np.arange(len(labels))
    p_label = probs[rows, labels]
    others = probs.copy()
    others[rows, labels] = -1.0
    q_max = others.max(axis=1)
    pref = p_label > q_max
    keep = p_label * support * (1.0 - p_label) >= q_max * (1.0 - p_label * support)
    return p_label, q_max, pref, keep


def comp_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    signals: TokenSignals,
    epsilon: float = DEFAULT_EPSILON,
    *,
    use_gates: bool = True,
    use_fact_mask: bool = True,
) -> tuple[float, np.ndarray, GateTrace]:
    """Gated complement loss, its per-logit gradient, and the full gate trace.

    value = (1/N) * sum_t alpha_t * (-log(1 - min(p_label, 1 - epsilon)))
    where N counts the base-mask positions (fact-active by default).  At an
    active, unclamped position the gradient is +c*p_y on the label logit and
    -c*p_y*p_k/(1-p_y) on every other logit k, with c = alpha/N; where the
    clamp is active the loss is locally constant, so the gradient is zero.

    The keyword flags back the two ablation variants: use_gates=False keeps
    the risk weighting but drops both gate bits; use_fact_mask=False applies
    the penalty at all valid positions (then N counts valid positions).

    A batch with an empty base mask yields value 0 and a zero gradient.
    """
    if not 0.0 < epsilon <= MAX_EPSILON:
        raise ValueError(f"epsilon must be in (0, {MAX_EPSILON}], got {epsilon}")
    z = _as_logits(logits)
    length, vocab = z.shape
    y = _as_labels(labels, length, vocab)
    support = np.asarray(signals.support_weight, dtype=np.float64)
    base = np.asarray(signals.fact_mask if use_fact_mask else signals.valid_mask, dtype=bool)
    if support.shape != (length,) or base.shape != (length,):
        raise ValueError("token signals do not match the batch length")

    probs = softmax_probs(z)
    p_label, q_max, pref, keep = _gate_arrays(probs, y, support)
    gates = (pref & keep) if use_gates else np.ones(length, dtype=bool)
    alpha = np.where(base & gates, 1.0 - support, 0.0)
    trace = GateTrace(p_label=p_label, q_max=q_max, pref_gate=pref, keep_gate=keep, alpha=alpha)

    grad = np.zeros_like(z)
    n_base = int(base.sum())
    if n_base == 0:
        return 0.0, grad, trace

    p_clamped = np.minimum(p_label, 1.0 - epsilon)
    value = float((alpha * -np.log1p(-p_clamped)).sum() / n_base)

    # Where the clamp saturates, the implemented loss is constant in p_label.
    coeff = np.where(p_label >= 1.0 - epsilon, 0.0, alpha / n_base)
    active = np.nonzero(coeff > 0.0)[0]
    if active.size:
        c_label = coeff[active] * p_label[active]
        grad[active] = (-c_label / (1.0 - p_label[active]))[:, None] * probs[active]
        grad[active, y[active]] = c_label
    return value, grad, trace


def total_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    signals: TokenSignals,
    lam: float,
    epsilon: float = DEFAULT_EPSILON,
    *,
    use_gates: bool = True,
    use_fact_mask: bool = True,
) -> tuple[LossBreakdown, np.ndarray, GateTrace | None]:
    """Combined objective sft + lam * comp with its per-logit gradient.

    lam = 0 must reproduce sft_loss bit for bit, so that case skips the
    complement term entirely (adding 0.0 could still flip signed zeros): comp
    is reported as 0.0 and the gate trace is None.
    """
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    sft_value, grad = sft_loss(logits, labels, signals.valid_mask)
    comp_value, total, trace = 0.0, sft_value, None
    if lam != 0.0:
        comp_value, comp_grad, trace = comp_loss(
            logits, labels, signals, epsilon, use_gates=use_gates, use_fact_mask=use_fact_mask
        )
        total = sft_value + lam * comp_value
        grad = grad + lam * comp_grad
    return LossBreakdown(sft=sft_value, comp=comp_value, total=total), grad, trace


def knowledge_mask_valid(signals: TokenSignals) -> np.ndarray:
    """The knowledge-mask baseline's valid mask: every fact token of an
    imperfectly supported span (support weight < 1) is removed."""
    return np.asarray(signals.valid_mask, dtype=bool) & ~(
        np.asarray(signals.fact_mask, dtype=bool) & (signals.support_weight < 1.0)
    )
