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
from itertools import chain
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import AnnotationError

RISK_ONEHOP = "onehop"
RISK_FIXPOINT = "fixpoint"
RISK_MODES = (RISK_ONEHOP, RISK_FIXPOINT)


@dataclass(frozen=True, slots=True)
class SentenceSpan:
    """One sentence of the target, as a half-open token range with a risk score."""

    index: int        # 1-based sentence id
    token_start: int  # inclusive
    token_end: int    # exclusive
    risk: float = 0.0


@dataclass(frozen=True, slots=True)
class FactSpan:
    """A token span marking one atomic factual commitment inside a sentence."""

    fact_id: int
    token_start: int
    token_end: int
    sentence: int  # owning sentence id


@dataclass(frozen=True, slots=True)
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

    def __getitem__(self, index: slice | np.ndarray) -> TokenSignals:
        """The signals at `index`: a slice, or an array of positions."""
        return TokenSignals(self.fact_mask[index], self.support_weight[index], self.valid_mask[index])


def propagate_risk(
    sentences: Sequence[SentenceSpan],
    edges: Sequence[DependencyEdge],
    mode: str = RISK_ONEHOP,
    facts: Sequence[FactSpan] = (),
    length: int | None = None,
    valid: Sequence[int] | np.ndarray | None = None,
) -> RiskGraph:
    """Compute effective risks: each sentence takes the max of its own raw risk
    and the raw risks of its immediate predecessors.

    mode="fixpoint" propagates transitively instead (predecessors contribute
    their effective risk); since edges always point forward, a single pass in
    sentence-id order reaches the fixpoint.

    The annotation rules are checked first, in one _violations pass: the
    sentence and edge rules always, and with `length` also the span rules
    for the sentences, `facts` and `valid` over a target of that length,
    which derive_token_signals relies on.  The first sentence or edge
    violation is raised, or else the first span violation.
    """
    if mode not in RISK_MODES:
        raise ValueError(f"unknown risk propagation mode: {mode!r}")
    for _, message in _violations(sentences, edges, facts, length, valid):
        raise AnnotationError(message)

    # Sentence ids run 1..n (checked above): sentence `dst` sits at dst - 1.
    # Edges go in sentence-id order of dst, so with fixpoint every source's
    # risk is final before it is read.
    raw = [s.risk for s in sentences]
    eff = list(raw)
    source = eff if mode == RISK_FIXPOINT else raw
    for e in sorted(edges, key=attrgetter("dst")):
        if source[e.src - 1] > eff[e.dst - 1]:
            eff[e.dst - 1] = source[e.src - 1]
    return RiskGraph(tuple(sentences), tuple(eff))


def span_positions(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every position of the half-open spans [starts[i], ends[i]), span after
    span, each in increasing order."""
    sizes = ends - starts
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return np.arange(len(shift), dtype=np.int64) + shift


def _span_table(spans: Sequence[Sequence[object]], fields: tuple[str, ...], bases: np.ndarray) -> np.ndarray:
    """int64 [spans, fields] of every example's spans in order, the first two
    fields (start, end) moved by the example's base position."""
    counts = [len(example) for example in spans]
    values = chain.from_iterable(map(attrgetter(*fields), chain.from_iterable(spans)))
    table = np.fromiter(values, dtype=np.int64, count=len(fields) * sum(counts)).reshape(-1, len(fields))
    table[:, :2] += np.repeat(bases, counts)[:, None]
    return table


def _fill_runs(runs: np.ndarray, in_sentence: np.ndarray, in_gap: float) -> np.ndarray:
    """Positions in runs of the given lengths, alternately a gap and a
    sentence, each filled with `in_gap` or that sentence's value."""
    values = np.full(len(runs), in_gap, dtype=in_sentence.dtype)
    values[1::2] = in_sentence
    return np.repeat(values, runs)


def derive_token_signals(
    graphs: Sequence[RiskGraph],
    facts: Sequence[Sequence[FactSpan]],
    valid: Sequence[Sequence[int] | np.ndarray],
) -> tuple[TokenSignals, np.ndarray]:
    """Per-token signals of a corpus, example after example, from each
    example's risk graph, fact spans and valid mask (whose length is the
    example's); also each position's sentence id, -1 outside every sentence.
    Each graph must come from propagate_risk given that example's facts,
    valid mask and length, which checked the spans.

    The fact mask is the union of an example's fact spans intersected with
    its valid mask; overlapping fact spans collapse into one.  Tokens outside
    every sentence get support weight 1 and no fact mask.
    """
    lengths = np.array([len(v) for v in valid], dtype=np.int64)
    length = int(lengths.sum())
    valid_mask = np.fromiter(chain.from_iterable(valid), dtype=bool, count=length)
    bases = np.cumsum(lengths) - lengths
    sentences = _span_table([g.sentences for g in graphs], ("token_start", "token_end", "index"), bases)
    risks = np.fromiter(chain.from_iterable(g.effective_risk for g in graphs), dtype=np.float64, count=len(sentences))
    fact_spans = _span_table(facts, ("token_start", "token_end"), bases)

    # The sentences are in order and do not overlap (checked), so they and
    # the gaps around them split the positions into runs: gap, sentence,
    # gap, ..., sentence, gap.
    runs = np.diff(np.concatenate([[0], sentences[:, :2].ravel(), [length]]))
    support = _fill_runs(runs, 1.0 - risks, 1.0)
    sentence_id = _fill_runs(runs, sentences[:, 2], -1)
    fact_mask = np.zeros(length, dtype=bool)
    fact_mask[span_positions(fact_spans[:, 0], fact_spans[:, 1])] = True
    fact_mask &= valid_mask
    for arr in (fact_mask, support, valid_mask, sentence_id):
        arr.setflags(write=False)
    return TokenSignals(fact_mask=fact_mask, support_weight=support, valid_mask=valid_mask), sentence_id


def _violations(
    sentences: Sequence[SentenceSpan],
    edges: Sequence[DependencyEdge],
    facts: Sequence[FactSpan] = (),
    length: int | None = None,
    valid: Sequence[int] | np.ndarray | None = None,
) -> Iterator[tuple[str, str]]:
    """Every data-contract violation as (reason tag, message), in the order
    they are reported: the sentence and edge rules first (each sentence's id
    and then its risk, then the edges), and with `length` the span rules
    after them (the sentence spans, then the facts, then the valid mask's
    length).  This is the one place the annotation rules live.
    """
    for pos, s in enumerate(sentences, 1):
        if s.index != pos:
            yield "sentence-index", f"sentence {s.index} at position {pos}: ids must run 1, 2, ... in order"
        if not 0.0 <= s.risk <= 1.0:
            yield "risk-range", f"sentence {s.index} risk {s.risk} outside [0, 1]"

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

    if length is None:
        return
    prev_end = 0
    for s in sentences:
        if not (0 <= s.token_start < s.token_end <= length):
            yield "sentence-span-range", (
                f"sentence {s.index} span [{s.token_start}, {s.token_end}) outside [0, {length})"
            )
        elif s.token_start < prev_end:
            yield "sentence-span-order", (
                f"sentence {s.index} starts at {s.token_start}, before an earlier sentence ends at {prev_end}"
            )
        prev_end = max(prev_end, s.token_end)
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
