"""Sentence-level risk annotations and the per-token signals derived from them.

A target response is segmented into sentences, each carrying a factuality-risk
score in [0, 1] and optional dependency edges pointing back at earlier
sentences whose content it relies on.  A sentence's id is its 1-based
position in its example's sentence list, and facts and edges name sentences
by it.  A sentence's effective risk is the max of its own raw risk and the
raw risks of its immediate predecessors; the per-token support weight is one
minus the effective risk of the enclosing sentence.  Token positions covered
by fact-aligned spans additionally get a binary fact-active mask.

All operations here are pure functions; returned containers are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import AnnotationError

RISK_ONEHOP = "onehop"
RISK_FIXPOINT = "fixpoint"
RISK_MODES = (RISK_ONEHOP, RISK_FIXPOINT)


@dataclass(frozen=True, slots=True)
class SentenceSpan:
    """One sentence of the target, as a half-open token range with a risk
    score; its id is its 1-based position in the sentence list."""

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
) -> tuple[float, ...]:
    """Each sentence's effective risk, in sentence order: the max of its own
    raw risk and the raw risks of its immediate predecessors.

    mode="fixpoint" propagates transitively instead (predecessors contribute
    their effective risk); since edges always point forward, a single pass in
    sentence order reaches the fixpoint.

    The annotation rules are checked first, in one violations pass: the
    sentence and edge rules always, and with `length` also the span rules
    for the sentences, `facts` and `valid` over a target of that length,
    which derive_token_signals relies on.  The first sentence or edge
    violation is raised, or else the first span violation.
    """
    if mode not in RISK_MODES:
        raise ValueError(f"unknown risk propagation mode: {mode!r}")
    for _, message in violations(sentences, edges, facts, length, valid):
        raise AnnotationError(message)

    # Edge ends are sentence ids 1..n (checked above): sentence `dst` sits at
    # dst - 1.  Edges go in order of dst, so with fixpoint every source's risk
    # is final before it is read.
    raw = [s.risk for s in sentences]
    eff = list(raw)
    source = eff if mode == RISK_FIXPOINT else raw
    for e in sorted(edges, key=attrgetter("dst")):
        if source[e.src - 1] > eff[e.dst - 1]:
            eff[e.dst - 1] = source[e.src - 1]
    return tuple(eff)


def span_positions(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every position of the half-open spans [starts[i], ends[i]), span after
    span, each in increasing order."""
    sizes = ends - starts
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return np.arange(len(shift), dtype=np.int64) + shift


def _fill_runs(runs: np.ndarray, in_sentence: np.ndarray, in_gap: float) -> np.ndarray:
    """Positions in runs of the given lengths, alternately a gap and a
    sentence, each filled with `in_gap` or that sentence's value."""
    values = np.full(len(runs), in_gap, dtype=in_sentence.dtype)
    values[1::2] = in_sentence
    return np.repeat(values, runs)


def derive_token_signals(
    sentences: np.ndarray,
    risks: np.ndarray,
    facts: np.ndarray,
    counts: np.ndarray,
    valid: np.ndarray,
) -> tuple[TokenSignals, np.ndarray]:
    """Per-token signals of a corpus, from its flat tables: the int64 [S, 2]
    (start, end) of every sentence, in corpus positions, example after
    example, each one's effective risk in `risks`, the [F, 2] spans of every
    fact, each example's sentence count in `counts`, and the bool valid mask
    of every position.  Also each position's sentence id (int32), -1 outside
    every sentence.  Each example's risks must come from propagate_risk
    given its facts, valid mask and length, which checked the spans.

    The fact mask is the union of the fact spans intersected with the valid
    mask; overlapping fact spans collapse into one.  Tokens outside every
    sentence get support weight 1 and no fact mask.
    """
    ids = span_positions(np.ones_like(counts), counts + 1).astype(np.int32)  # 1..n per example

    # The sentences are in order and do not overlap (checked), so they and
    # the gaps around them split the positions into runs: gap, sentence,
    # gap, ..., sentence, gap.
    runs = np.diff(np.concatenate([[0], sentences.ravel(), [len(valid)]]))
    support = _fill_runs(runs, 1.0 - risks, 1.0)
    sentence_id = _fill_runs(runs, ids, -1)
    fact_mask = np.zeros(len(valid), dtype=bool)
    fact_mask[span_positions(facts[:, 0], facts[:, 1])] = True
    fact_mask &= valid
    for arr in (fact_mask, support, valid, sentence_id):
        arr.setflags(write=False)
    return TokenSignals(fact_mask=fact_mask, support_weight=support, valid_mask=valid), sentence_id


def violations(
    sentences: Sequence[SentenceSpan],
    edges: Sequence[DependencyEdge],
    facts: Sequence[FactSpan] = (),
    length: int | None = None,
    valid: Sequence[int] | np.ndarray | None = None,
) -> Iterator[tuple[str, str]]:
    """Every data-contract violation as (reason tag, message), in the order
    they are reported: the sentence and edge rules first (each sentence's
    risk, then the edges), and with `length` the span rules after them (the
    sentence spans, then the facts, then the valid mask's length).  A
    sentence is named by its id, its 1-based position.  This is the one
    place the annotation rules live.
    """
    n = len(sentences)
    for pos, s in enumerate(sentences, 1):
        if not 0.0 <= s.risk <= 1.0:
            yield "risk-range", f"sentence {pos} risk {s.risk} outside [0, 1]"

    seen: set[tuple[int, int]] = set()
    for e in edges:
        if e.src >= e.dst:
            yield ("self-edge" if e.src == e.dst else "edge-not-forward"), (
                f"edge {e.src}->{e.dst} must point from an earlier to a later sentence"
            )
        if not (1 <= e.src <= n and 1 <= e.dst <= n):
            yield "edge-unknown-sentence", f"edge {e.src}->{e.dst} references an unknown sentence id"
        if (e.src, e.dst) in seen:
            yield "duplicate-edge", f"edge {e.src}->{e.dst} appears more than once"
        seen.add((e.src, e.dst))

    if length is None:
        return
    prev_end = 0
    for pos, s in enumerate(sentences, 1):
        if not (0 <= s.token_start < s.token_end <= length):
            yield "sentence-span-range", (
                f"sentence {pos} span [{s.token_start}, {s.token_end}) outside [0, {length})"
            )
        elif s.token_start < prev_end:
            yield "sentence-span-order", (
                f"sentence {pos} starts at {s.token_start}, before an earlier sentence ends at {prev_end}"
            )
        prev_end = max(prev_end, s.token_end)
    for f in facts:
        if not (0 <= f.token_start < f.token_end <= length):
            yield "fact-span-range", (
                f"fact {f.fact_id} span [{f.token_start}, {f.token_end}) outside [0, {length})"
            )
            continue
        owner = sentences[f.sentence - 1] if 1 <= f.sentence <= n else None
        if owner is None:
            yield "fact-unknown-sentence", f"fact {f.fact_id} references unknown sentence {f.sentence}"
        elif f.token_start < owner.token_start or f.token_end > owner.token_end:
            yield "fact-outside-sentence", f"fact {f.fact_id} extends outside sentence {f.sentence}"
    if valid is not None and (getattr(valid, "ndim", 1) != 1 or len(valid) != length):
        yield "valid-mask-length", f"valid mask has shape {np.shape(valid)}, expected ({length},)"
