"""Scalar reference implementations that the tests check the objective against.

The package runs the vectorized gates and the analytic gradients in
prism.objective.  The oracles here spell out the same definitions one
position (or one logit) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from prism.fact_graph import TokenSignals
from prism.objective import DEFAULT_EPSILON, knowledge_mask_valid, sft_loss


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


def knowledge_mask_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    signals: TokenSignals,
) -> tuple[float, np.ndarray]:
    """Baseline: plain SFT over knowledge_mask_valid(signals), N recomputed."""
    return sft_loss(logits, labels, knowledge_mask_valid(signals))


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
