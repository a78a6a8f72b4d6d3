"""Loss values, gates, redistribution, and analytic-vs-numeric gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prism.errors import ConfigError, EmptyBatchError, NonFiniteLogits
from prism.fact_graph import TokenSignals
from prism.objective import GateTrace, gate_trace, softmax_pass, softmax_probs, total_loss

from oracles import (
    compute_alpha,
    finite_difference_gradient,
    keep_gate,
    knowledge_mask_loss,
    redistribute,
    standalone_comp,
    standalone_sft,
)

TOL = 1e-12


def make_signals(fact, support, valid=None):
    fact = np.asarray(fact, dtype=bool)
    support = np.asarray(support, dtype=np.float64)
    valid = np.ones_like(fact) if valid is None else np.asarray(valid, dtype=bool)
    return TokenSignals(fact_mask=fact, support_weight=support, valid_mask=valid)


def random_simplex(rng, size):
    return rng.dirichlet(np.ones(size))


def rel_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return np.abs(analytic - numeric).max() / scale


class TestSoftmax:
    def test_symmetry(self):
        assert softmax_probs(np.array([[0.0, 0.0]]))[0] == pytest.approx([0.5, 0.5], abs=TOL)

    def test_uniform(self):
        assert softmax_probs(np.array([[1.0, 1.0, 1.0, 1.0]]))[0] == pytest.approx([0.25] * 4, abs=TOL)

    def test_closed_form(self):
        assert softmax_probs(np.array([[math.log(2.0), 0.0]]))[0] == pytest.approx([2 / 3, 1 / 3], abs=TOL)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax_probs(rng.normal(size=(50, 17)) * 30)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < TOL
        assert (probs >= 0).all()

    def test_extreme_logits_stable(self):
        probs = softmax_probs(np.array([[1e4, 0.0, -1e4]]))
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=TOL)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_probs(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan], ids=["-inf", "+inf", "nan"])
    def test_one_non_finite_entry_is_refused_before_anything_is_written(self, bad):
        """A lone -inf reaches only the minimum, a lone +inf only its row's
        max, and a NaN both."""
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(30, 11))
        logits[17, 6] = bad
        labels = rng.integers(0, 11, size=30)
        signals = make_signals(rng.random(30) < 0.5, rng.choice([0.3, 1.0], size=30))
        before = logits.tobytes()
        for lam in (0.0, 0.2):
            with pytest.raises(NonFiniteLogits):
                total_loss(logits, labels, signals, lam, out=logits)
        with pytest.raises(NonFiniteLogits):
            softmax_pass(logits, out=logits, labels=labels)
        with pytest.raises(NonFiniteLogits):
            softmax_probs(logits, out=logits)
        assert logits.tobytes() == before

    def test_no_rows_pass(self):
        for out in (None, np.empty((0, 7))):
            soft = softmax_pass(np.zeros((0, 7)), out=out, labels=np.zeros(0, dtype=np.int64))
            assert soft.probs.shape == (0, 7) and soft.shifted.shape == (0,) and soft.sums.shape == (0, 1)
            assert out is None or soft.probs is out
        assert softmax_probs(np.zeros((0, 7))).shape == (0, 7)

    @pytest.mark.parametrize("shape", [(4,), (2,), (3, 1), (1, 0), (2, 3, 4)])
    def test_rows_of_at_least_two_logits_required(self, shape):
        for softmax in (softmax_probs, softmax_pass):
            with pytest.raises(ValueError, match=r"must be \[U, V\] with V >= 2"):
                softmax(np.zeros(shape))

    def test_in_place_gives_the_allocating_bits(self):
        logits = np.random.default_rng(1).normal(size=(40, 23)) * 20
        fresh = softmax_probs(logits)
        z = logits.copy()
        assert softmax_probs(z, out=z) is z
        assert z.tobytes() == fresh.tobytes()

    def test_the_pass_checks_its_labels_and_keeps_them_for_both_terms(self):
        logits = np.random.default_rng(2).normal(size=(6, 5))
        labels = np.array([4, 0, 1, 2, 3, 4], dtype=np.uint16)
        soft = softmax_pass(logits, labels=labels)
        assert soft.labels.dtype == np.int64 and soft.labels.tolist() == labels.tolist()
        assert softmax_pass(logits).labels is None
        signals = make_signals([1] * 6, [0.5] * 6)
        for bad, shown in ((labels[:5], r"labels have shape \(5,\), expected \(6,\)"),
                           (labels + 1, r"label id outside \[0, vocab\)"),
                           (labels.astype(np.int64) - 1, r"label id outside \[0, vocab\)")):
            with pytest.raises(ValueError, match=shown):
                softmax_pass(logits, labels=bad)
            for lam in (0.0, 0.5):
                with pytest.raises(ValueError, match=shown):
                    total_loss(logits, bad, signals, lam)


class TestGateTrace:
    @pytest.mark.parametrize("use_gates", [True, False])
    @pytest.mark.parametrize("use_fact_mask", [True, False])
    def test_equals_the_comp_loss_trace(self, use_gates, use_fact_mask):
        rng = np.random.default_rng(12)
        length, vocab = 300, 31
        logits = rng.normal(size=(length, vocab)) * 4
        labels = rng.integers(0, vocab, size=length)
        logits[:40, :] = rng.normal(size=(40, vocab))
        logits[np.arange(40), labels[:40]] = 40.0  # p_label >= 1 - epsilon: the clamp saturates
        signals = make_signals(rng.random(length) < 0.6, rng.choice([0.2, 0.7, 1.0], size=length),
                               rng.random(length) < 0.9)
        flags = dict(use_gates=use_gates, use_fact_mask=use_fact_mask)
        probs = softmax_probs(logits)
        before = probs.tobytes()
        trace = gate_trace(probs, labels, signals, **flags)
        assert probs.tobytes() == before  # the label entries are put back
        _, _, reference = standalone_comp(logits, labels, signals, **flags)
        for field in ("p_label", "q_max", "pref_gate", "keep_gate", "alpha"):
            assert getattr(trace, field).tobytes() == getattr(reference, field).tobytes(), field
        assert (trace.p_label[:40] >= 1.0 - 1e-6).all() and (trace.alpha[:40] > 0).any()
        assert (trace.alpha > 0).any() and (trace.alpha == 0).any()

    def test_top1_is_the_label_being_its_rows_argmax(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(40, 9)) * 3
        rows = rng.integers(0, 40, size=300)
        labels = np.where(rng.random(300) < 0.5, logits.argmax(axis=1)[rows], rng.integers(0, 9, size=300))
        probs = softmax_probs(logits)
        trace = gate_trace(probs, labels, make_signals(rng.random(300) < 0.6, np.full(300, 0.5)), rows=rows)
        expected = probs.argmax(axis=1)[rows] == labels
        assert trace.top1.dtype == expected.dtype and trace.top1.tobytes() == expected.tobytes()
        assert trace.top1.any() and not trace.top1.all()

    def test_signals_of_another_length_rejected(self):
        probs = softmax_probs(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="do not match the batch length"):
            gate_trace(probs, np.zeros(4, dtype=np.int64), make_signals([1, 0, 1], [0.5, 1.0, 0.5]))


class TestGroupedRows:
    """total_loss on the distinct rows of a batch, with each position's row,
    against the per-position call whose gradient rows are summed by row."""

    @staticmethod
    def batch(rng):
        n_rows, vocab, length = 50, 23, 400
        logits = rng.normal(size=(n_rows, vocab)) * 3
        logits[:6, 4] = 40.0  # p >= 1 - epsilon: the clamp saturates
        logits[6:12, 2] = 9.0  # peaked, but below the clamp
        rows = rng.integers(0, n_rows - 3, size=length)  # the last three rows have no position
        labels = np.where(rng.random(length) < 0.7, logits.argmax(axis=1)[rows], rng.integers(0, vocab, length))
        signals = make_signals(rng.random(length) < 0.6, rng.choice([0.2, 0.7, 1.0], size=length),
                               rng.random(length) < 0.9)
        return logits, rows, labels, signals

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("use_gates", [True, False])
    @pytest.mark.parametrize("use_fact_mask", [True, False])
    def test_equals_the_per_position_call_summed_by_row(self, lam, use_gates, use_fact_mask):
        logits, rows, labels, signals = self.batch(np.random.default_rng(31))
        flags = dict(use_gates=use_gates, use_fact_mask=use_fact_mask)
        loss, grad, trace = total_loss(logits, labels, signals, lam, rows=rows, **flags)
        ref_loss, ref_grad, ref_trace = total_loss(logits[rows], labels, signals, lam, **flags)
        for field in ("sft", "comp", "total"):
            assert getattr(loss, field) == pytest.approx(getattr(ref_loss, field), rel=1e-12, abs=0.0)
        summed = np.zeros_like(logits)
        np.add.at(summed, rows, ref_grad)
        assert grad.shape == logits.shape
        assert np.abs(grad - summed).max() <= 1e-15
        assert not grad[-3:].any()
        assert (trace is None) == (ref_trace is None) == (lam == 0.0)
        if lam:
            for field in ("p_label", "q_max", "pref_gate", "keep_gate", "alpha"):
                assert getattr(trace, field).tobytes() == getattr(ref_trace, field).tobytes(), field
            active = trace.alpha > 0
            assert active.any() and np.unique(rows[active]).size < active.sum()  # rows shared by active positions

    def test_rows_outside_the_logits_rejected(self):
        logits, rows, labels, signals = self.batch(np.random.default_rng(32))
        for bad in (rows + 50, rows - 50, rows.astype(np.float64), rows[:, None]):
            with pytest.raises(ValueError, match="rows must be"):
                total_loss(logits, labels, signals, 0.1, rows=bad)
        with pytest.raises(ValueError, match="399 rows for 400 labels"):
            gate_trace(softmax_probs(logits), labels, signals, rows=rows[1:])


class TestSftLoss:
    def test_perfect_prediction_zero_loss(self):
        logits = np.array([[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]])
        value, grad = standalone_sft(logits, np.array([0, 1]), np.array([1, 1]))
        assert value == 0.0

    def test_single_uniform_binary_position(self):
        value, _ = standalone_sft(np.zeros((1, 2)), np.array([0]), np.array([1]))
        assert value == pytest.approx(math.log(2.0), abs=TOL)

    def test_masked_position_contributes_nothing(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 1, 2])
        v1, g1 = standalone_sft(logits, labels, np.array([1, 0, 1]))
        wild = logits.copy()
        wild[1] = 1e3  # masked row may hold anything
        v2, g2 = standalone_sft(wild, labels, np.array([1, 0, 1]))
        assert v1 == v2
        assert np.array_equal(g1, g2)
        assert np.all(g1[1] == 0.0)

    def test_gradient_is_probs_minus_onehot_over_n(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 5))
        labels = np.array([3, 0, 1, 2])
        valid = np.array([1, 1, 0, 1])
        _, grad = standalone_sft(logits, labels, valid)
        probs = softmax_probs(logits)
        n = 3
        for t in range(4):
            if not valid[t]:
                continue
            expect = probs[t] / n
            expect[labels[t]] -= 1.0 / n
            assert grad[t] == pytest.approx(expect, abs=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            standalone_sft(np.zeros((2, 3)), np.array([0, 1]), np.array([0, 0]))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            standalone_sft(np.zeros((1, 3)), np.array([3]), np.array([1]))


class TestKeepGate:
    def test_hand_example_fails(self):
        # lhs 0.6*0.5*0.4 = 0.12 < rhs 0.3*(1 - 0.3) = 0.21
        assert keep_gate(0.6, 0.3, 0.5) == 0

    def test_hand_example_passes(self):
        # lhs 0.9*0.5*0.1 = 0.045 >= rhs 0.05*(1 - 0.45) = 0.0275
        assert keep_gate(0.9, 0.05, 0.5) == 1

    def test_w_one_reduces_to_preference(self):
        assert keep_gate(0.6, 0.3, 1.0) == 1
        assert keep_gate(0.3, 0.6, 1.0) == 0

    def test_boundary_equality_passes(self):
        # p=0.5, w=0.5 -> lhs = 0.125; choose q so rhs == lhs exactly
        p, w = 0.5, 0.5
        q = p * w * (1 - p) / (1 - p * w)
        assert keep_gate(p, q, w) == 1


class TestRedistribute:
    def test_w_one_is_identity(self):
        probs = np.array([0.2, 0.5, 0.3])
        assert redistribute(probs, 1, 1.0) == pytest.approx(probs, abs=TOL)

    def test_hand_example(self):
        out = redistribute(np.array([0.6, 0.3, 0.1]), 0, 0.5)
        assert out == pytest.approx([0.3, 0.525, 0.175], abs=TOL)

    def test_w_zero_moves_all_mass(self):
        out = redistribute(np.array([0.5, 0.5]), 0, 0.0)
        assert out == pytest.approx([0.0, 1.0], abs=TOL)

    def test_simplex_preserved_on_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            size = int(rng.integers(2, 65))
            probs = random_simplex(rng, size)
            label = int(rng.integers(0, size))
            out = redistribute(probs, label, float(rng.uniform()))
            assert (out >= 0.0).all()
            assert abs(out.sum() - 1.0) < TOL

    @given(st.integers(min_value=2, max_value=16), st.data())
    @settings(max_examples=200)
    def test_simplex_preserved_property(self, size, data):
        # p_label stays below the clamp threshold; at the p_label -> 1 pole the
        # map is deliberately clamped and exactness no longer applies
        raw = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=size, max_size=size))
        probs = np.array(raw) / np.sum(raw)
        label = data.draw(st.integers(min_value=0, max_value=size - 1))
        w = data.draw(st.floats(min_value=0.0, max_value=1.0))
        out = redistribute(probs, label, w)
        assert (out >= 0.0).all()
        assert abs(out.sum() - 1.0) < TOL


class TestGateOracleEquivalence:
    def test_keep_gate_matches_redistribute_argmax(self):
        # label kept strictly on top before redistribution; the gate must
        # predict whether it stays on top afterwards, every single time
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 10_000:
            size = int(rng.integers(2, 65))
            probs = random_simplex(rng, size)
            label = int(np.argmax(probs))
            others = np.delete(probs, label)
            if probs[label] <= others.max():
                continue
            w = float(rng.uniform())
            out = redistribute(probs, label, w)
            stays_on_top = out[label] >= np.delete(out, label).max()
            assert keep_gate(float(probs[label]), float(others.max()), w) == int(stays_on_top)
            checked += 1


class TestComputeAlpha:
    def test_fact_bit_zero_blocks(self):
        alpha, point = compute_alpha(np.array([0.9, 0.05, 0.05]), 0, 0, 0.5)
        assert alpha == 0.0
        assert point.pref_gate == 1

    def test_label_not_argmax_blocks(self):
        alpha, point = compute_alpha(np.array([0.2, 0.7, 0.1]), 0, 1, 0.5)
        assert alpha == 0.0
        assert point.pref_gate == 0

    def test_hand_example(self):
        alpha, point = compute_alpha(np.array([0.9, 0.05, 0.05]), 0, 1, 0.5)
        assert alpha == 0.5
        assert (point.pref_gate, point.keep_gate) == (1, 1)
        assert point.q_max == 0.05

    def test_tie_fails_preference_gate(self):
        alpha, point = compute_alpha(np.array([0.5, 0.5]), 0, 1, 0.9)
        assert point.pref_gate == 0
        assert alpha == 0.0

    def test_w_one_gives_zero_alpha(self):
        alpha, _ = compute_alpha(np.array([0.9, 0.1]), 0, 1, 1.0)
        assert alpha == 0.0

    def test_alpha_shrinks_once_active(self):
        # raising support weight on an active position only weakens the penalty
        rng = np.random.default_rng(5)
        seen = 0
        while seen < 2_000:
            size = int(rng.integers(2, 17))
            probs = random_simplex(rng, size)
            label = int(np.argmax(probs))
            w1, w2 = sorted(rng.uniform(size=2))
            a1, _ = compute_alpha(probs, label, 1, float(w1))
            if a1 <= 0.0:
                continue
            a2, _ = compute_alpha(probs, label, 1, float(w2))
            assert a2 < a1 or (a2 == a1 == 0.0) or w1 == w2
            seen += 1


def logits_for_probs(probs):
    return np.log(np.asarray(probs, dtype=np.float64))[None, :]


class TestCompLoss:
    def test_everything_gated_off(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(4, 5))
        signals = make_signals([1, 1, 0, 1], [1.0, 1.0, 1.0, 1.0])  # w=1 -> alpha=0
        value, grad, trace = standalone_comp(logits, np.array([0, 1, 2, 3]), signals)
        assert value == 0.0
        assert np.all(grad == 0.0)
        assert np.all(trace.alpha == 0.0)

    def test_single_active_position_value(self):
        # p_label = 0.5 with alpha pinned to 1 and N_fact = 1 -> -log(1 - 0.5).
        # alpha = 1 needs w = 0, where the keep gate by construction refuses
        # (scaling the label to zero always dethrones it), so the penalty
        # formula is exercised through the gate-free variant.
        logits = logits_for_probs([0.5, 0.25, 0.25])
        signals = make_signals([1], [0.0])
        value, _, trace = standalone_comp(logits, np.array([0]), signals, use_gates=False)
        assert trace.alpha[0] == 1.0
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_keep_gate_refuses_total_reallocation(self):
        # same position through the gates: w = 0 fails the keep gate
        logits = logits_for_probs([0.5, 0.25, 0.25])
        signals = make_signals([1], [0.0])
        value, grad, trace = standalone_comp(logits, np.array([0]), signals)
        assert trace.pref_gate[0] and not trace.keep_gate[0]
        assert trace.alpha[0] == 0.0
        assert value == 0.0

    def test_hand_gradient(self):
        # p = (0.7, 0.2, 0.1), label 0, alpha pinned to 1, N_fact 1
        logits = logits_for_probs([0.7, 0.2, 0.1])
        signals = make_signals([1], [0.0])
        value, grad, trace = standalone_comp(logits, np.array([0]), signals, use_gates=False)
        assert trace.alpha[0] == 1.0
        assert grad[0] == pytest.approx([0.7, -7 / 15, -7 / 30], abs=TOL)
        assert abs(grad[0].sum()) < TOL

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            length, vocab = int(rng.integers(1, 9)), int(rng.integers(2, 17))
            logits = rng.normal(size=(length, vocab)) * 2.0
            labels = logits.argmax(axis=1)  # guarantee the preference gate can open
            signals = make_signals(rng.integers(0, 2, size=length),
                                   rng.uniform(size=length))
            _, grad, _ = standalone_comp(logits, labels, signals)
            assert np.abs(grad.sum(axis=1)).max() < TOL

    def test_sign_structure_at_active_positions(self):
        rng = np.random.default_rng(8)
        found = 0
        for _ in range(200):
            logits = rng.normal(size=(4, 8)) * 2.0
            labels = logits.argmax(axis=1)
            signals = make_signals(np.ones(4), rng.uniform(size=4) * 0.8)
            _, grad, trace = standalone_comp(logits, labels, signals)
            probs = softmax_probs(logits)
            for t in np.nonzero(trace.alpha > 0)[0]:
                found += 1
                assert grad[t, labels[t]] > 0.0
                competitors = np.delete(grad[t], labels[t])
                masses = np.delete(probs[t], labels[t])
                assert np.all(competitors[masses > 0] < 0.0)
        assert found > 50

    def test_normalizes_by_fact_count_not_active_count(self):
        # one gated-active + one gated-off fact position: denominator is still 2
        logits = np.vstack([logits_for_probs([0.9, 0.05, 0.05]),
                            logits_for_probs([0.2, 0.4, 0.4])])
        signals = make_signals([1, 1], [0.5, 0.5])
        value, _, trace = standalone_comp(logits, np.array([0, 0]), signals)
        assert trace.alpha == pytest.approx([0.5, 0.0], abs=TOL)
        assert value == pytest.approx(0.5 * -math.log(1.0 - 0.9) / 2.0, rel=1e-12)

    def test_duplicating_positions_keeps_average(self):
        logits = logits_for_probs([0.5, 0.25, 0.25])
        signals = make_signals([1], [0.0])
        single, _, _ = standalone_comp(logits, np.array([0]), signals)
        tiled = np.tile(logits, (5, 1))
        signals5 = make_signals([1] * 5, [0.0] * 5)
        five, _, _ = standalone_comp(tiled, np.zeros(5, dtype=int), signals5)
        assert five == pytest.approx(single, abs=TOL)

    def test_no_fact_positions_returns_zero(self):
        value, grad, _ = standalone_comp(np.zeros((3, 4)), np.array([0, 1, 2]),
                                   make_signals([0, 0, 0], [0.5, 0.5, 0.5]))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_clamp_bounds_value_and_zeroes_gradient(self):
        logits = np.array([[60.0, 0.0, 0.0]])  # p_label ~ 1 - 2e-26, clamped
        signals = make_signals([1], [0.0])
        value, grad, _ = standalone_comp(logits, np.array([0]), signals, epsilon=1e-6,
                                   use_gates=False)
        assert value == pytest.approx(-math.log(1e-6), rel=1e-9)
        assert np.all(grad == 0.0)

    def test_epsilon_validated(self):
        signals = make_signals([1], [0.0])
        with pytest.raises(ValueError):
            standalone_comp(np.zeros((1, 2)), np.array([0]), signals, epsilon=0.0)
        with pytest.raises(ValueError):
            standalone_comp(np.zeros((1, 2)), np.array([0]), signals, epsilon=0.1)

    def test_epsilon_too_small_to_clamp_is_refused(self):
        # at or below 2**-54, 1 - epsilon rounds to 1.0: a saturated label's loss would be infinite
        logits = np.array([[60.0, 0.0, 0.0]])
        signals = make_signals([1], [0.0])
        for epsilon in (1e-20, 2.0**-54):
            assert 1.0 - epsilon == 1.0
            with pytest.raises(ConfigError, match=r"^epsilon must be in \(0, 0\.001\] and above 2\*\*-54"):
                standalone_comp(logits, np.array([0]), signals, epsilon=epsilon, use_gates=False)
        value, grad, _ = standalone_comp(logits, np.array([0]), signals, epsilon=2.0**-53, use_gates=False)
        assert value == pytest.approx(53 * math.log(2.0), rel=1e-12) and np.all(grad == 0.0)

    def test_variant_flags(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 8)) * 2.0
        labels = logits.argmax(axis=1)
        fact = np.array([1, 0, 1, 0, 1, 0], dtype=bool)
        support = np.full(6, 0.3)
        signals = make_signals(fact, support)
        # gates dropped: alpha = fact * (1 - w) everywhere on the mask
        _, _, no_gate = standalone_comp(logits, labels, signals, use_gates=False)
        assert np.allclose(no_gate.alpha[fact], 0.7)
        assert np.all(no_gate.alpha[~fact] == 0.0)
        # mask dropped: valid positions with both gates open get alpha > 0
        _, _, no_mask = standalone_comp(logits, labels, signals, use_fact_mask=False)
        open_gates = no_mask.pref_gate & no_mask.keep_gate
        assert np.array_equal(no_mask.alpha > 0, open_gates)

    def test_trace_matches_scalar_compute_alpha(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(12, 9)) * 1.5
        labels = rng.integers(0, 9, size=12)
        labels[::2] = logits[::2].argmax(axis=1)
        fact = rng.integers(0, 2, size=12)
        support = rng.uniform(size=12)
        signals = make_signals(fact, support)
        _, _, trace = standalone_comp(logits, labels, signals)
        probs = softmax_probs(logits)
        for t in range(12):
            alpha, point = compute_alpha(probs[t], int(labels[t]), int(fact[t]), float(support[t]))
            assert trace.alpha[t] == alpha
            assert trace.pref_gate[t] == point.pref_gate
            assert trace.keep_gate[t] == point.keep_gate
            assert trace.p_label[t] == pytest.approx(point.p_label, abs=TOL)
            assert trace.q_max[t] == pytest.approx(point.q_max, abs=TOL)


class TestTotalLoss:
    def test_lambda_zero_bitwise_identical_to_sft(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(5, 6))
        labels = logits.argmax(axis=1)
        signals = make_signals([1, 0, 1, 1, 0], rng.uniform(size=5))
        sft_value, sft_grad = standalone_sft(logits, labels, signals.valid_mask)
        breakdown, grad, _ = total_loss(logits, labels, signals, lam=0.0)
        assert breakdown.total == sft_value
        assert np.array_equal(grad, sft_grad)

    def test_weighted_sum(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(4, 5))
        labels = logits.argmax(axis=1)
        signals = make_signals([1, 1, 0, 0], [0.2, 0.4, 1.0, 1.0])
        breakdown, grad, _ = total_loss(logits, labels, signals, lam=0.1)
        assert breakdown.total == pytest.approx(breakdown.sft + 0.1 * breakdown.comp, abs=TOL)
        sft_value, sft_grad = standalone_sft(logits, labels, signals.valid_mask)
        comp_value, comp_grad, _ = standalone_comp(logits, labels, signals)
        assert breakdown.sft == sft_value
        assert breakdown.comp == comp_value
        assert np.allclose(grad, sft_grad + 0.1 * comp_grad, atol=TOL)

    def test_nonfact_positions_keep_pure_sft_gradient(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(6, 7))
        labels = logits.argmax(axis=1)
        signals = make_signals([1, 0, 1, 0, 0, 1], np.full(6, 0.3))
        _, sft_grad = standalone_sft(logits, labels, signals.valid_mask)
        for lam in (0.0, 0.1, 2.0):
            _, grad, _ = total_loss(logits, labels, signals, lam=lam)
            nonfact = ~signals.fact_mask
            assert np.array_equal(grad[nonfact], sft_grad[nonfact])

    def test_negative_lambda_rejected(self):
        signals = make_signals([1], [0.5])
        with pytest.raises(ValueError):
            total_loss(np.zeros((1, 2)), np.array([0]), signals, lam=-0.1)


class TestKnowledgeMaskLoss:
    def test_all_supported_identical_to_sft(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        signals = make_signals([1, 1, 0, 0], [1.0, 1.0, 1.0, 1.0])
        v1, g1 = knowledge_mask_loss(logits, labels, signals)
        v2, g2 = standalone_sft(logits, labels, signals.valid_mask)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_risky_fact_tokens_drop_out(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        signals = make_signals([0, 1, 0, 0], [1.0, 0.3, 1.0, 1.0])
        _, grad = knowledge_mask_loss(logits, labels, signals)
        assert np.all(grad[1] == 0.0)

    def test_renormalizes_over_survivors(self):
        # 4 tokens, position 1 is a risky fact: the remaining three positions
        # average with N = 3, recomputed by hand from log-softmax
        rng = np.random.default_rng(16)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 0])
        signals = make_signals([0, 1, 0, 0], [1.0, 0.3, 1.0, 1.0])
        value, _ = knowledge_mask_loss(logits, labels, signals)
        probs = softmax_probs(logits)
        expect = -(math.log(probs[0, 0]) + math.log(probs[2, 2]) + math.log(probs[3, 0])) / 3.0
        assert value == pytest.approx(expect, rel=1e-12)

    def test_everything_masked_rejected(self):
        signals = make_signals([1, 1], [0.2, 0.4])
        with pytest.raises(EmptyBatchError):
            knowledge_mask_loss(np.zeros((2, 3)), np.array([0, 1]), signals)


def frozen_comp_surface(labels, alpha, n_fact, epsilon):
    """The complement loss as a function of logits with the gate weights held
    at their evaluated values, matching the constant-alpha gradient semantics."""
    rows = np.arange(len(labels))

    def f(z):
        p_label = softmax_probs(z)[rows, labels]
        clamped = np.minimum(p_label, 1.0 - epsilon)
        return float((alpha * -np.log1p(-clamped)).sum() / n_fact)

    return f


class TestGradientsAgainstFiniteDifferences:
    def test_oracle_exact_on_quadratic(self):
        z0 = np.array([[0.3, -0.7], [1.1, 0.4]])
        grad = finite_difference_gradient(lambda z: float((z * z).sum()), z0, step=1e-4)
        assert grad == pytest.approx(2 * z0, abs=1e-7)

    def test_step_range_validated(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda z: 0.0, np.zeros((1, 2)), step=1e-8)

    def test_sft_gradient_matches(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            length, vocab = int(rng.integers(1, 9)), int(rng.integers(2, 17))
            logits = rng.normal(size=(length, vocab)) * 2.0
            labels = rng.integers(0, vocab, size=length)
            valid = rng.integers(0, 2, size=length)
            if valid.sum() == 0:
                valid[0] = 1
            _, analytic = standalone_sft(logits, labels, valid)
            numeric = finite_difference_gradient(
                lambda z: standalone_sft(z, labels, valid)[0], logits
            )
            assert rel_error(analytic, numeric) < 1e-5

    def test_comp_gradient_matches(self):
        rng = np.random.default_rng(18)
        active_seen = 0
        for _ in range(30):
            length, vocab = int(rng.integers(1, 9)), int(rng.integers(2, 17))
            logits = rng.normal(size=(length, vocab)) * 2.0
            labels = logits.argmax(axis=1)
            fact = rng.integers(0, 2, size=length)
            if fact.sum() == 0:
                fact[0] = 1
            signals = make_signals(fact, rng.uniform(size=length))
            value, analytic, trace = standalone_comp(logits, labels, signals)
            active_seen += int((trace.alpha > 0).sum())
            surface = frozen_comp_surface(labels, trace.alpha.copy(), int(fact.sum()), 1e-6)
            assert surface(logits) == pytest.approx(value, abs=1e-14)
            numeric = finite_difference_gradient(surface, logits)
            assert rel_error(analytic, numeric) < 1e-5
        assert active_seen > 20

    def test_total_gradient_matches(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            length, vocab = int(rng.integers(1, 9)), int(rng.integers(2, 17))
            logits = rng.normal(size=(length, vocab)) * 2.0
            labels = logits.argmax(axis=1)
            fact = rng.integers(0, 2, size=length)
            signals = make_signals(fact, rng.uniform(size=length))
            lam = float(rng.uniform(0.05, 1.5))
            breakdown, analytic, trace = total_loss(logits, labels, signals, lam=lam)
            comp_surface = frozen_comp_surface(labels, trace.alpha.copy(),
                                               max(int(fact.sum()), 1), 1e-6)
            valid = signals.valid_mask

            def surface(z):
                return standalone_sft(z, labels, valid)[0] + lam * comp_surface(z)

            assert surface(logits) == pytest.approx(breakdown.total, abs=1e-12)
            numeric = finite_difference_gradient(surface, logits)
            assert rel_error(analytic, numeric) < 1e-5
