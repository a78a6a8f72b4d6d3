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

The logits are per row, and every other input is per position: `rows`
maps each of the N positions to its row of the [U, V] logits, so positions
that share a context window share one row, and a row's gradient is the sum
of its positions' gradients.  Without `rows` each position is its own row.
A group of K runs trained in lockstep on one batch stacks its logits, K
blocks of U rows: each run's positions are the batch's, its rows offset by
its block, and each loss term is reduced over that run's positions alone,
in position order, so a run has the values of a call over its block alone.
A total_loss call holds one [U, V] array: the softmax pass writes the
probabilities over it, and the gradient is written over the probabilities.
Everything is float64 and deterministic; reductions over positions run in
position order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyBatchError, NonFiniteLogits
from .fact_graph import TokenSignals

# Label probabilities are clamped to 1 - DEFAULT_EPSILON inside the
# complement term so the loss stays finite as p_label -> 1.
DEFAULT_EPSILON = 1e-6
MAX_EPSILON = 1e-3


def check_epsilon(epsilon: float) -> None:
    """ConfigError unless epsilon is in (0, MAX_EPSILON] and 1 - epsilon < 1:
    at or below 2**-54 the clamp is 1.0 and does nothing."""
    if not (0.0 < epsilon <= MAX_EPSILON and 1.0 - epsilon < 1.0):
        raise ConfigError(f"epsilon must be in (0, {MAX_EPSILON}] and above 2**-54, got {epsilon}")


@dataclass
class GateTrace:
    """Per-position gate decisions for a batch, in position order."""

    p_label: np.ndarray    # float64 [T]
    q_max: np.ndarray      # float64 [T]
    pref_gate: np.ndarray  # bool [T]
    keep_gate: np.ndarray  # bool [T]
    alpha: np.ndarray      # float64 [T]
    top1: np.ndarray       # bool [T], the label is its row's argmax


@dataclass(frozen=True)
class LossBreakdown:
    """The two loss terms and their weighted sum."""

    sft: float
    comp: float
    total: float


class Softmax(NamedTuple):
    """One max/subtract/exp/sum/divide pass over checked logits [U, V], with
    each position's row and label.  The two loss terms of a total_loss call
    share it: comp_loss reads `probs`, then sft_loss reads `shifted` and
    writes its gradient over `probs`.  With `runs` > 1 the positions are the
    runs' copies of one batch's, run after run."""

    shifted: np.ndarray | None  # [N] each label's logit minus its row max (None: no labels)
    probs: np.ndarray           # [U, V] exp(logits - row max) / sums
    sums: np.ndarray            # [U, 1] row sums of the exponentials
    rows: np.ndarray            # int64 [N], each position's row
    labels: np.ndarray | None   # int64 [N], each position's label id in [0, V) (None: no labels)
    runs: int = 1               # the runs whose blocks of U / runs rows the logits stack


def _as_rows(rows: np.ndarray | None, n_rows: int) -> np.ndarray:
    """Each position's row of an [n_rows, V] array; None means one row per position."""
    if rows is None:
        return np.arange(n_rows)
    r = np.asarray(rows)
    if r.ndim != 1 or r.dtype.kind not in "iu" or (r.size and (r.min() < 0 or r.max() >= n_rows)):
        raise ValueError(f"rows must be a vector of row indices in [0, {n_rows})")
    return r.astype(np.int64, copy=False)


def softmax_pass(
    logits: np.ndarray, out: np.ndarray | None = None, rows: np.ndarray | None = None,
    labels: np.ndarray | None = None, runs: int = 1,
) -> Softmax:
    """Check that logits are [U, V >= 2], that `rows` and `labels` hold row
    indices and label ids (ValueError), and that the logits are finite
    (NonFiniteLogits: a NaN reaches the row maxima and the minimum, an
    infinity one of them), then run the max/subtract/exp/sum/divide both
    loss terms start from, into `out` (it may be the logits) or one new
    array.  With `labels`, they are kept as int64 ids, and each label's
    logit minus its row max is gathered before the exponentials overwrite
    it; the loss terms read both from the result.  With `runs` > 1 the
    logits are that many blocks of U / runs rows, `rows` index a block, and
    the result's positions are each run's, its rows offset by its block."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"logits must be [U, V] with V >= 2, got shape {z.shape}")
    if len(z) % runs:
        raise ValueError(f"{len(z)} logit rows do not split into {runs} runs")
    block = len(z) // runs
    rows = _as_rows(rows, block)
    y = None if labels is None else np.asarray(labels, dtype=np.int64)
    if y is not None and y.shape != rows.shape:
        raise ValueError(f"labels have shape {y.shape}, expected ({len(rows)},)")
    if y is not None and (y.min(initial=0) < 0 or y.max(initial=0) >= z.shape[1]):
        raise ValueError("label id outside [0, vocab)")
    if runs > 1:
        rows = (np.arange(runs)[:, None] * block + rows).ravel()
        y = None if y is None else np.tile(y, runs)
    top = z.max(axis=-1, keepdims=True)
    if not (np.all(np.isfinite(top)) and np.isfinite(z.min(initial=0.0))):
        raise NonFiniteLogits("logits contain non-finite entries")
    shifted = None if y is None else z[rows, y] - top[rows, 0]
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    sums = e.sum(axis=-1, keepdims=True)
    e /= sums
    return Softmax(shifted, e, sums, rows, y, runs)


def _per_run(values: np.ndarray, runs: int) -> float | np.ndarray:
    """Per-run values [runs], or a lone run's as a float."""
    return values if runs > 1 else float(values[0])


def softmax_probs(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The probabilities of softmax_pass over logits [rows, V >= 2]; with
    `out` (it may be the logits), each step's result is written into it."""
    return softmax_pass(logits, out).probs


def sft_loss(soft: Softmax, valid_mask: np.ndarray, n_valid: int | None = None) -> tuple[float, np.ndarray]:
    """Masked mean negative log-likelihood and its per-logit gradient, from
    the softmax_pass of the logits with their labels; the valid mask is per
    position of one run, and with soft.runs > 1 the value is per run [runs].

    N is `n_valid`, by default the valid positions here (a call over part of
    a batch, as train's row blocks, passes the batch's); N = 0 raises
    EmptyBatchError.  Each valid position adds (softmax - onehot(label)) / N
    to its row's gradient, taken as probs * count / N, count being the row's
    valid positions, then -1/N at each valid position's (row, label); a row
    with no valid position has a gradient of exactly zero.  The gradient is
    written over soft.probs.
    """
    rows, y, runs = soft.rows, soft.labels, soft.runs
    valid = np.asarray(valid_mask, dtype=bool)
    if valid.shape != (len(rows) // runs,):
        raise ValueError(f"valid mask has shape {valid.shape}, expected ({len(rows) // runs},)")
    n = int(valid.sum()) if n_valid is None else n_valid
    if n == 0:
        raise EmptyBatchError("no valid target positions in batch")

    # A label's log-softmax is its shifted logit minus log(sums).
    log_sums = np.log(soft.sums[:, 0])
    valid = np.tile(valid, runs)
    value = _per_run(-((soft.shifted - log_sums[rows])[valid]).reshape(runs, -1).sum(axis=1) / n, runs)

    valid_rows = rows[valid]
    weight = np.bincount(valid_rows, minlength=len(soft.probs)) / n
    grad = soft.probs
    grad *= weight[:, None]
    np.add.at(grad, (valid_rows, y[valid]), -1.0 / n)
    return value, grad


def gate_trace(
    probs: np.ndarray,
    labels: np.ndarray,
    signals: TokenSignals,
    *,
    rows: np.ndarray | None = None,
    use_gates: bool = True,
    use_fact_mask: bool = True,
) -> GateTrace:
    """Both gates, alpha and top-1 at every position, with comp_loss's flags,
    from probabilities [U, V] and each position's row; labels are int64 ids in
    [0, V).  Each row's top entry is overwritten and put back, so `probs`
    must be writable."""
    length = len(labels)
    rows = _as_rows(rows, len(probs))
    support = np.asarray(signals.support_weight, dtype=np.float64)
    base = np.asarray(signals.fact_mask if use_fact_mask else signals.valid_mask, dtype=bool)
    if rows.shape != (length,):
        raise ValueError(f"{len(rows)} rows for {length} labels")
    if support.shape != (length,) or base.shape != (length,):
        raise ValueError("token signals do not match the batch length")
    p_label = probs[rows, labels]
    # q_max is the largest competitor: the row's top probability, or where
    # the label is the top entry, the row max with that entry set below
    # every probability (then put back).
    every = np.arange(len(probs))
    top = probs.argmax(axis=1)
    first = probs[every, top]
    probs[every, top] = -1.0
    second = probs.max(axis=1)
    probs[every, top] = first
    top1 = labels == top[rows]
    q_max = np.where(top1, second[rows], first[rows])
    pref = p_label > q_max
    keep = p_label * support * (1.0 - p_label) >= q_max * (1.0 - p_label * support)
    gates = (pref & keep) if use_gates else np.ones(length, dtype=bool)
    alpha = np.where(base & gates, 1.0 - support, 0.0)
    return GateTrace(p_label=p_label, q_max=q_max, pref_gate=pref, keep_gate=keep, alpha=alpha, top1=top1)


def comp_loss(
    soft: Softmax,
    signals: TokenSignals,
    epsilon: float = DEFAULT_EPSILON,
    *,
    use_gates: bool = True,
    use_fact_mask: bool = True,
    n_base: int | None = None,
) -> tuple[float, GateTrace, np.ndarray, np.ndarray]:
    """Gated complement loss from the softmax_pass of the logits with their
    labels, the full gate trace, and its per-logit gradient on the rows it
    touches: `hit`, the active rows in order, and `block` [len(hit), V],
    their gradient rows.  Every other row's gradient is zero.

    value = (1/N) * sum_t alpha_t * (-log(1 - min(p_label, 1 - epsilon)))
    where N is `n_base`, by default the base-mask positions (fact-active by
    default) here, as sft_loss's n_valid.  At an active, unclamped position
    the gradient is +c*p_y on the label logit and -c*p_y*p_k/(1-p_y) on every
    other logit k, with c = alpha/N; where the clamp is active the loss is
    locally constant, so the gradient is zero.  A row's gradient is the sum
    over its positions.

    The keyword flags back the two ablation variants: use_gates=False keeps
    the risk weighting but drops both gate bits; use_fact_mask=False applies
    the penalty at all valid positions (then N counts valid positions).

    N = 0 yields value 0 and no rows; check_epsilon vets epsilon.  The
    signals are per position of one run; with soft.runs > 1 the value is per
    run [runs], and the trace and `hit` cover every run's positions and rows.
    """
    check_epsilon(epsilon)
    probs, rows, y, runs = soft.probs, soft.rows, soft.labels, soft.runs
    vocab = probs.shape[1]
    if n_base is None:
        n_base = np.count_nonzero(signals.fact_mask if use_fact_mask else signals.valid_mask)
    if runs > 1:
        signals = signals[np.tile(np.arange(len(rows) // runs), runs)]
    trace = gate_trace(probs, y, signals, rows=rows, use_gates=use_gates, use_fact_mask=use_fact_mask)
    p_label, alpha = trace.p_label, trace.alpha

    if n_base == 0:
        return _per_run(np.zeros(runs), runs), trace, np.zeros(0, dtype=np.int64), np.zeros((0, vocab))

    p_clamped = np.minimum(p_label, 1.0 - epsilon)
    value = _per_run((alpha * -np.log1p(-p_clamped)).reshape(runs, -1).sum(axis=1) / n_base, runs)

    # Where the clamp saturates, the implemented loss is constant in p_label.
    coeff = np.where(p_label >= 1.0 - epsilon, 0.0, alpha / n_base)
    active = np.nonzero(coeff > 0.0)[0]
    c_label = coeff[active] * p_label[active]
    m = -c_label / (1.0 - p_label[active])
    # An active position adds m * p_k at every logit k of its row, except c_label
    # at its label.  Summed per (row, label) pair and then per row, a label
    # entry is its pair's c_label plus the row's other pairs' m times p, so a
    # large m * p_label is never added and then cancelled.  With the gates on,
    # a row has at most one active label, so the other pairs' m is exactly 0.
    pairs, pair_of = np.unique(rows[active] * vocab + y[active], return_inverse=True)
    pair_row, pair_label = np.divmod(pairs, vocab)
    hit, row_of = np.unique(pair_row, return_inverse=True)
    m_pair = np.bincount(pair_of, weights=m, minlength=len(pairs))
    m_row = np.bincount(row_of, weights=m_pair, minlength=len(hit))
    block = probs[hit]
    block *= m_row[:, None]
    block[row_of, pair_label] = (np.bincount(pair_of, weights=c_label, minlength=len(pairs))
                                 + (m_row[row_of] - m_pair) * probs[pair_row, pair_label])
    return value, trace, hit, block


def total_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    signals: TokenSignals,
    lam: float | np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    *,
    use_gates: bool = True,
    use_fact_mask: bool = True,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    n_valid: int | None = None,
    n_base: int | None = None,
) -> tuple[LossBreakdown, np.ndarray, GateTrace | None]:
    """Combined objective sft + lam * comp with its per-logit gradient.

    The logits [U, V] are checked once and go through one softmax_pass, which
    both terms share; non-finite logits raise NonFiniteLogits.  `rows` maps
    each position to its row (None: one row per position), and the returned
    gradient [U, V] sums each row's positions.  The pass writes into `out`
    (it may be the logits), else into one new array: it holds the
    probabilities, then comp_loss reads them and sft_loss writes the
    gradient over them, which is returned.  So the call holds no other
    [U, V] array.  `n_valid` and `n_base` are the counts the two terms
    normalise by (sft_loss, comp_loss); train passes each row block its
    step's, so the blocks' values and gradients add up to the step's.

    lam = 0 must reproduce sft_loss bit for bit, so that case skips the
    complement term entirely (adding 0.0 could still flip signed zeros): comp
    is reported as 0.0 and the gate trace is None.  Otherwise lam * the
    complement gradient is added into the SFT gradient on the complement's
    active rows; elsewhere it is zero.

    A group of K runs that share the batch passes K lambdas and its logits
    stacked, [K, U, V] (`out` likewise; `rows` index a run's U rows): the
    loss terms come back per run as [K] arrays, the gradient as [K, U, V],
    and the trace covers every run's positions, run after run.  A run at
    lambda 0 gets none of the complement's gradient, comp 0.0 and total
    sft, so each run has the bits of a call over its own logits alone.
    """
    lams = np.asarray(lam, dtype=np.float64)
    if lams.ndim > 1 or (lams < 0.0).any():
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    runs, flat, flat_out = 1, logits, out
    if lams.ndim:  # a group: one lambda per run
        runs, flat = len(lams), np.asarray(logits, dtype=np.float64)
        if flat.shape[:1] != (runs,) or flat.ndim != 3:
            raise ValueError(f"{runs} lambdas need logits [{runs}, U, V], got shape {flat.shape}")
        flat = flat.reshape(-1, flat.shape[-1])
        flat_out = None if out is None else out.reshape(flat.shape)
    soft = softmax_pass(flat, flat_out, rows, labels, runs)
    on = lams != 0.0  # the runs with a complement term
    trace = None
    if on.any():
        comp_value, trace, hit, block = comp_loss(
            soft, signals, epsilon, use_gates=use_gates, use_fact_mask=use_fact_mask, n_base=n_base,
        )
    sft_value, grad = sft_loss(soft, signals.valid_mask, n_valid)
    if trace is None:
        comp_value, total = _per_run(np.zeros(runs), runs), sft_value
    else:
        scale = np.atleast_1d(lams)[hit // (len(grad) // runs)]  # each hit row's run's lambda
        block *= scale[:, None]
        if not on.all():  # a group's runs at lambda 0 take none of the complement's gradient
            hit, block = hit[scale != 0.0], block[scale != 0.0]
        grad[hit] += block
        comp_value = np.where(on, comp_value, 0.0)
        total = np.where(on, sft_value + lams * comp_value, sft_value)
        if runs == 1:
            comp_value, total = float(comp_value), float(total)
    if runs > 1:
        grad = grad.reshape(np.shape(logits))
    return LossBreakdown(sft=sft_value, comp=comp_value, total=total), grad, trace


def knowledge_mask_valid(signals: TokenSignals) -> np.ndarray:
    """The knowledge-mask baseline's valid mask: every fact token of an
    imperfectly supported span (support weight < 1) is removed."""
    return np.asarray(signals.valid_mask, dtype=bool) & ~(
        np.asarray(signals.fact_mask, dtype=bool) & (signals.support_weight < 1.0)
    )
