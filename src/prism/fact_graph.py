"""Sentence-level risk annotations and the per-token signals derived from them.

A target response is segmented into sentences, each carrying a factuality-risk
score in [0, 1] and optional dependency edges pointing back at earlier
sentences whose content it relies on.  A sentence's effective risk is the max
of its own raw risk and the raw risks of its immediate predecessors; the
per-token support weight is one minus the effective risk of the enclosing
sentence.  Token positions covered by fact-aligned spans additionally get a
binary fact-active mask.

All operations here are pure functions; returned containers are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AnnotationError

RISK_ONEHOP = "onehop"
RISK_FIXPOINT = "fixpoint"
RISK_MODES = (RISK_ONEHOP, RISK_FIXPOINT)


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence of the target, as a half-open token range with a risk score."""

    index: int        # 1-based sentence id
    token_start: int  # inclusive
    token_end: int    # exclusive
    risk: float = 0.0


@dataclass(frozen=True)
class FactSpan:
    """A token span marking one atomic factual commitment inside a sentence."""

    fact_id: int
    token_start: int
    token_end: int
    sentence: int  # owning sentence id


@dataclass(frozen=True)
class DependencyEdge:
    """Sentence `dst` relies on factual content introduced in sentence `src`.

    Serialized as {"from": src, "to": dst}; `src < dst` always.
    """

    src: int
    dst: int


@dataclass(frozen=True)
class RiskGraph:
    """Sentences with their effective risks, after propagation along the edges."""

    sentences: tuple[SentenceSpan, ...]
    effective_risk: tuple[float, ...]


@dataclass(frozen=True)
class TokenSignals:
    """Per-token training signals: fact-active mask, support weight, valid mask.

    fact_mask is a subset of valid_mask by construction; support_weight is
    1 - effective_risk of the enclosing sentence, and exactly 1.0 for tokens
    outside every sentence.
    """

    fact_mask: np.ndarray       # bool [T]
    support_weight: np.ndarray  # float64 [T]
    valid_mask: np.ndarray      # bool [T]


def propagate_risk(
    sentences: Sequence[SentenceSpan],
    edges: Sequence[DependencyEdge],
    mode: str = RISK_ONEHOP,
) -> RiskGraph:
    """Compute effective risks: each sentence takes the max of its own raw risk
    and the raw risks of its immediate predecessors.

    mode="fixpoint" propagates transitively instead (predecessors contribute
    their effective risk); since edges always point forward, a single pass in
    sentence-id order reaches the fixpoint.
    """
    if mode not in RISK_MODES:
        raise ValueError(f"unknown risk propagation mode: {mode!r}")
    _raise_first(_violations(sentences, edges=edges))

    # Sentence ids run 1..n (checked above): sentence `dst` sits at dst - 1.
    sources: dict[int, list[int]] = {}
    for e in edges:
        sources.setdefault(e.dst, []).append(e.src)
    raw = [s.risk for s in sentences]
    eff = list(raw)
    source = eff if mode == RISK_FIXPOINT else raw
    for dst in sorted(sources):
        eff[dst - 1] = max(eff[dst - 1], max([source[src - 1] for src in sources[dst]]))
    return RiskGraph(tuple(sentences), tuple(eff))


def derive_token_signals(
    graph: RiskGraph,
    facts: Sequence[FactSpan],
    valid: Sequence[int] | np.ndarray,
    length: int,
) -> TokenSignals:
    """Turn a risk graph plus fact spans into per-token signals of the given length.

    The fact mask is the union of all fact spans intersected with the valid
    mask; overlapping fact spans collapse into one.  Tokens outside every
    sentence get support weight 1 and no fact mask.
    """
    valid_mask = np.asarray(valid, dtype=bool)
    _raise_first(_violations(graph.sentences, facts=facts, length=length, valid=valid_mask))

    support = np.ones(length, dtype=np.float64)
    for s, eff in zip(graph.sentences, graph.effective_risk):
        support[s.token_start:s.token_end] = 1.0 - eff
    in_fact = np.zeros(length, dtype=bool)
    for f in facts:
        in_fact[f.token_start:f.token_end] = True

    fact_mask = in_fact & valid_mask
    for arr in (fact_mask, support, valid_mask):
        arr.setflags(write=False)
    return TokenSignals(fact_mask=fact_mask, support_weight=support, valid_mask=valid_mask)


def sentence_ids(sentences: Iterable[SentenceSpan], length: int) -> np.ndarray:
    """Sentence id per token position; -1 for tokens outside every sentence."""
    sid = np.full(length, -1, dtype=np.int64)
    for s in sentences:
        sid[s.token_start:s.token_end] = s.index
    return sid


def _violations(
    sentences: Sequence[SentenceSpan],
    edges: Sequence[DependencyEdge] | None = None,
    facts: Sequence[FactSpan] = (),
    length: int | None = None,
    valid: Sequence[int] | np.ndarray | None = None,
) -> Iterator[tuple[str, str]]:
    """Every data-contract violation as (reason tag, message), in sentence,
    edge, fact order.  This is the one place the annotation rules live.

    The sentence/edge rules (ids, risks, edges) run when `edges` is given;
    the span rules (sentence and fact spans, valid mask) when `length` is.
    """
    structure, spans = edges is not None, length is not None
    prev_end = 0
    for pos, s in enumerate(sentences, 1):
        if structure and s.index != pos:
            yield "sentence-index", f"sentence {s.index} at position {pos}: ids must run 1, 2, ... in order"
        if spans:
            if not (0 <= s.token_start < s.token_end <= length):
                yield "sentence-span-range", (
                    f"sentence {s.index} span [{s.token_start}, {s.token_end}) outside [0, {length})"
                )
            elif s.token_start < prev_end:
                yield "sentence-span-order", (
                    f"sentence {s.index} starts at {s.token_start}, before an earlier sentence ends at {prev_end}"
                )
            prev_end = max(prev_end, s.token_end)
        if structure and not 0.0 <= s.risk <= 1.0:
            yield "risk-range", f"sentence {s.index} risk {s.risk} outside [0, 1]"

    if structure:
        ids = {s.index for s in sentences}
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if e.src >= e.dst:
                yield ("self-edge" if e.src == e.dst else "edge-not-forward"), (
                    f"edge {e.src}->{e.dst} must point from an earlier to a later sentence"
                )
            if e.src not in ids or e.dst not in ids:
                yield "edge-unknown-sentence", f"edge {e.src}->{e.dst} references an unknown sentence id"
            if (e.src, e.dst) in seen:
                yield "duplicate-edge", f"edge {e.src}->{e.dst} appears more than once"
            seen.add((e.src, e.dst))

    if spans:
        span_by_id = {s.index: s for s in sentences}
        for f in facts:
            if not (0 <= f.token_start < f.token_end <= length):
                yield "fact-span-range", (
                    f"fact {f.fact_id} span [{f.token_start}, {f.token_end}) outside [0, {length})"
                )
                continue
            owner = span_by_id.get(f.sentence)
            if owner is None:
                yield "fact-unknown-sentence", f"fact {f.fact_id} references unknown sentence {f.sentence}"
            elif f.token_start < owner.token_start or f.token_end > owner.token_end:
                yield "fact-outside-sentence", f"fact {f.fact_id} extends outside sentence {f.sentence}"
        if valid is not None and (getattr(valid, "ndim", 1) != 1 or len(valid) != length):
            yield "valid-mask-length", f"valid mask has shape {np.shape(valid)}, expected ({length},)"


def _raise_first(violations: Iterator[tuple[str, str]]) -> None:
    for _, message in violations:
        raise AnnotationError(message)


def annotation_violations(
    sentences: Sequence[SentenceSpan],
    facts: Sequence[FactSpan],
    edges: Sequence[DependencyEdge],
    length: int,
    valid: Sequence[int] | None = None,
) -> list[str]:
    """All data-contract violations in one annotation set, as stable reason tags.

    Used by corpus filtering; an empty list means the example is clean, and
    then propagate_risk and derive_token_signals accept it too.
    """
    reasons: list[str] = []
    for reason, _ in _violations(sentences, edges, facts, length, valid):
        if reason not in reasons:
            reasons.append(reason)
    return reasons
