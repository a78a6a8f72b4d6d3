"""Risk propagation, token signals, and the annotation contract."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prism.errors import AnnotationError
from prism.fact_graph import (
    DependencyEdge,
    FactSpan,
    SentenceSpan,
    derive_token_signals,
    propagate_risk,
    violations,
)


def spans_for(risks):
    return [SentenceSpan(token_start=3 * j, token_end=3 * j + 3, risk=r) for j, r in enumerate(risks)]


def reasons_of(sentences, facts, edges, length, valid=None):
    """The distinct reason tags of violations, in first-seen order."""
    return list(dict.fromkeys(reason for reason, _ in violations(sentences, edges, facts, length, valid)))


def onehop_oracle(risks, edges):
    """Literal per-sentence evaluation: max of own raw risk and raw risks of
    immediate predecessors."""
    eff = []
    for j in range(1, len(risks) + 1):
        incoming = [risks[e.src - 1] for e in edges if e.dst == j]
        eff.append(max([risks[j - 1]] + incoming))
    return eff


class TestPropagateRisk:
    def test_inherited_risk_below_own_changes_nothing(self):
        got = propagate_risk(spans_for([0.2, 0.7]), [DependencyEdge(1, 2)])
        assert got == (0.2, 0.7)

    def test_inherited_risk_above_own_propagates(self):
        got = propagate_risk(spans_for([0.7, 0.2]), [DependencyEdge(1, 2)])
        assert got == (0.7, 0.7)

    def test_one_hop_only(self):
        # sentence 3 is untouched: propagation uses immediate predecessors only
        got = propagate_risk(spans_for([0.9, 0.0, 0.0]), [DependencyEdge(1, 2)])
        assert got == (0.9, 0.9, 0.0)

    def test_fixpoint_mode_chains(self):
        edges = [DependencyEdge(1, 2), DependencyEdge(2, 3)]
        one = propagate_risk(spans_for([0.9, 0.0, 0.0]), edges)
        fix = propagate_risk(spans_for([0.9, 0.0, 0.0]), edges, mode="fixpoint")
        assert one == (0.9, 0.9, 0.0)
        assert fix == (0.9, 0.9, 0.9)

    def test_unknown_sentence_id_rejected(self):
        with pytest.raises(AnnotationError):
            propagate_risk(spans_for([0.1, 0.2]), [DependencyEdge(1, 5)])

    def test_backward_edge_rejected(self):
        with pytest.raises(AnnotationError):
            propagate_risk(spans_for([0.1, 0.2]), [DependencyEdge(2, 1)])
        with pytest.raises(AnnotationError):
            propagate_risk(spans_for([0.1, 0.2]), [DependencyEdge(2, 2)])

    def test_risk_out_of_range_rejected(self):
        with pytest.raises(AnnotationError):
            propagate_risk(spans_for([1.5]), [])

    def test_raw_risks_unmodified(self):
        sentences = spans_for([0.7, 0.2])
        assert propagate_risk(sentences, [DependencyEdge(1, 2)]) == (0.7, 0.7)
        assert [s.risk for s in sentences] == [0.7, 0.2]


@st.composite
def random_dags(draw, max_sentences=10):
    n = draw(st.integers(min_value=1, max_value=max_sentences))
    risks = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=n, max_size=n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [DependencyEdge(i, j) for i, j in pairs if draw(st.booleans())]
    return risks, edges


class TestPropagationProperties:
    @given(random_dags())
    @settings(max_examples=200)
    def test_matches_literal_oracle(self, dag):
        risks, edges = dag
        got = propagate_risk(spans_for(risks), edges)
        assert list(got) == onehop_oracle(risks, edges)

    @given(random_dags())
    @settings(max_examples=200)
    def test_never_decreases_risk(self, dag):
        risks, edges = dag
        got = propagate_risk(spans_for(risks), edges)
        for eff, raw in zip(got, risks):
            assert eff >= raw

    @given(random_dags(), st.data())
    @settings(max_examples=200)
    def test_monotone_in_raw_risk(self, dag, data):
        risks, edges = dag
        before = propagate_risk(spans_for(risks), edges)
        j = data.draw(st.integers(min_value=0, max_value=len(risks) - 1))
        bumped = list(risks)
        bumped[j] = min(1.0, bumped[j] + data.draw(st.floats(min_value=0.0, max_value=1.0)))
        after = propagate_risk(spans_for(bumped), edges)
        assert all(a >= b for a, b in zip(after, before))

    @given(random_dags())
    @settings(max_examples=100)
    def test_zero_risk_edges_have_no_impact(self, dag):
        risks, edges = dag
        zero = [j + 1 for j, r in enumerate(risks) if r == 0.0]
        extra = [DependencyEdge(a, b) for a in zero for b in zero if a < b]
        base = propagate_risk(spans_for(risks), edges)
        seen = {(e.src, e.dst) for e in edges}
        more = edges + [e for e in extra if (e.src, e.dst) not in seen]
        assert propagate_risk(spans_for(risks), more) == base


def derive_one(sentences, risks, facts, valid):
    """derive_token_signals over a corpus of one example, from its flat tables."""
    def bounds(spans):
        return np.array([(s.token_start, s.token_end) for s in spans], dtype=np.int64).reshape(-1, 2)

    return derive_token_signals(bounds(sentences), np.array(risks, dtype=np.float64), bounds(facts),
                                np.array([len(sentences)]), np.array(valid, dtype=bool))


def signals_of(sentences, facts, valid):
    """derive_token_signals over a corpus of one example."""
    return derive_one(sentences, propagate_risk(sentences, []), facts, valid)[0]


class TestDeriveTokenSignals:
    def test_zero_risk_means_full_support(self):
        sig = signals_of(spans_for([0.0, 0.0]), [], np.ones(6, dtype=bool))
        assert np.all(sig.support_weight == 1.0)
        assert not sig.fact_mask.any()

    def test_risky_sentence_example(self):
        # sentence covering [3, 6) with effective risk 0.7, one fact span [4, 5)
        sentences = [SentenceSpan(0, 3, 0.0), SentenceSpan(3, 6, 0.7)]
        sig = signals_of(sentences, [FactSpan(0, 4, 5, 2)], np.ones(6, dtype=bool))
        assert sig.fact_mask.tolist() == [False, False, False, False, True, False]
        assert np.all(sig.support_weight[3:6] == 1.0 - 0.7)
        assert np.all(sig.support_weight[0:3] == 1.0)

    def test_overlapping_fact_spans_union(self):
        facts = [FactSpan(0, 3, 6, 1), FactSpan(1, 5, 7, 1)]
        sig = signals_of([SentenceSpan(0, 8, 0.5)], facts, np.ones(8, dtype=bool))
        assert sig.fact_mask.tolist() == [False, False, False, True, True, True, True, False]

    def test_tokens_outside_sentences(self):
        sig = signals_of([SentenceSpan(2, 4, 0.9)], [], np.ones(6, dtype=bool))
        assert sig.support_weight.tolist() == [1.0, 1.0, 1.0 - 0.9, 1.0 - 0.9, 1.0, 1.0]

    def test_fact_mask_subset_of_valid(self):
        valid = np.array([1, 1, 0, 0], dtype=bool)
        sig = signals_of([SentenceSpan(0, 4, 0.5)], [FactSpan(0, 1, 3, 1)], valid)
        assert sig.fact_mask.tolist() == [False, True, False, False]
        assert not (sig.fact_mask & ~sig.valid_mask).any()

    # derive_token_signals takes risks from a propagate_risk that checked the spans.
    def test_span_out_of_range_rejected(self):
        with pytest.raises(AnnotationError):
            propagate_risk([SentenceSpan(0, 4, 0.5)], [], facts=[FactSpan(0, 3, 9, 1)], length=4,
                           valid=np.ones(4, dtype=bool))

    def test_fact_outside_sentence_rejected(self):
        with pytest.raises(AnnotationError):
            propagate_risk([SentenceSpan(0, 2, 0.5), SentenceSpan(2, 4, 0.0)], [],
                           facts=[FactSpan(0, 2, 3, 1)], length=4, valid=np.ones(4, dtype=bool))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_support_plus_risk_is_exactly_one(self, risks):
        sentences = spans_for(risks)
        eff = propagate_risk(sentences, [])
        length = 3 * len(risks)
        sig, sid = derive_one(sentences, eff, [], np.ones(length, dtype=bool))
        for t in range(length):
            assert sig.support_weight[t] + eff[sid[t] - 1] == 1.0


class TestAnnotationViolations:
    def test_clean_example(self):
        sentences = spans_for([0.1, 0.2])
        facts = [FactSpan(0, 1, 2, 1)]
        edges = [DependencyEdge(1, 2)]
        assert list(violations(sentences, edges, facts, 6)) == []

    def test_each_reason_detected(self):
        sentences = spans_for([0.1, 0.2])
        assert "self-edge" in reasons_of(sentences, [], [DependencyEdge(1, 1)], 6)
        assert "edge-not-forward" in reasons_of(sentences, [], [DependencyEdge(2, 1)], 6)
        assert "edge-unknown-sentence" in reasons_of(sentences, [], [DependencyEdge(1, 9)], 6)
        dup = [DependencyEdge(1, 2), DependencyEdge(1, 2)]
        assert "duplicate-edge" in reasons_of(sentences, [], dup, 6)
        assert "risk-range" in reasons_of(spans_for([1.7]), [], [], 3)
        assert "fact-span-range" in reasons_of(sentences, [FactSpan(0, 5, 9, 2)], [], 6)
        assert "fact-outside-sentence" in reasons_of(sentences, [FactSpan(0, 0, 4, 1)], [], 6)
        assert "fact-unknown-sentence" in reasons_of(sentences, [FactSpan(0, 1, 2, 7)], [], 6)
        bad_order = [SentenceSpan(0, 4, 0.0), SentenceSpan(2, 6, 0.0)]
        assert "sentence-span-order" in reasons_of(bad_order, [], [], 6)


def corrupt(kind, sentences, facts, edges, valid, n, k):
    """Break one rule of the data contract in place; n is the sentence count
    before any corruption and k a sentence position in [0, n)."""
    if kind == "edge-not-forward":
        edges.append(DependencyEdge(n, 1))
    elif kind == "self-edge":
        edges.append(DependencyEdge(k + 1, k + 1))
    elif kind == "duplicate-edge":
        edges.append(edges[0] if edges else DependencyEdge(1, 1))
    elif kind == "edge-unknown-sentence":
        edges.append(DependencyEdge(1, n + 10))
    elif kind == "risk-range":
        sentences[k] = replace(sentences[k], risk=1.5)
    elif kind == "sentence-span-range":
        sentences[k] = replace(sentences[k], token_end=sentences[k].token_start)
    elif kind == "sentence-span-order":
        sentences.append(SentenceSpan(0, 3, 0.0))
    elif kind == "fact-span-range":
        facts.append(FactSpan(99, 3 * n, 3 * n + 1, 1))
    elif kind == "fact-unknown-sentence":
        facts.append(FactSpan(99, 0, 1, n + 10))
    elif kind == "fact-outside-sentence":
        facts.append(FactSpan(99, 0, 4, 1))
    else:
        valid.append(1)


CORRUPTIONS = ("edge-not-forward", "self-edge", "duplicate-edge", "edge-unknown-sentence",
               "risk-range", "sentence-span-range", "sentence-span-order",
               "fact-span-range", "fact-unknown-sentence", "fact-outside-sentence",
               "valid-mask-length")


class TestValidatorsAgree:
    @given(random_dags(), st.lists(st.sampled_from(CORRUPTIONS), max_size=3), st.data())
    @settings(max_examples=300)
    def test_training_path_raises_iff_filter_rejects(self, dag, kinds, data):
        risks, edges = dag
        n = len(risks)
        sentences = spans_for(risks)
        facts = [FactSpan(j, 3 * j + 1, 3 * j + 2, j + 1) for j in range(n)]
        valid = [1] * (3 * n)
        for kind in kinds:
            k = data.draw(st.integers(min_value=0, max_value=n - 1))
            corrupt(kind, sentences, facts, edges, valid, n, k)

        reasons = reasons_of(sentences, facts, edges, 3 * n, valid)
        try:
            eff = propagate_risk(sentences, edges, facts=facts, length=3 * n, valid=valid)
            derive_one(sentences, eff, facts, valid)
        except AnnotationError:
            raised = True
        else:
            raised = False
        assert raised == bool(reasons)
        assert bool(reasons) == bool(kinds)
