"""Forward/backward correctness, optimizer arithmetic, training determinism,
and checkpoint round trips for the tiny window model."""

import json
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from prism.corpus import AnnotatedExample, GeneratorConfig, chunk, generate, verify_and_filter
from prism.errors import AnnotationError, CheckpointError, ConfigError, DivergenceError, EmptyBatchError
from prism.fact_graph import DependencyEdge, FactSpan, SentenceSpan
from prism.model import (
    MAX_VOCAB_SIZE,
    MAX_WINDOW,
    METHODS,
    ModelParams,
    PARAM_FIELDS,
    StepRecord,
    StepViews,
    TrainSettings,
    backward_batch,
    block_rows,
    distinct_windows,
    evaluate,
    forward_batch,
    gate_pass,
    infer_vocab_size,
    init_optimizer,
    init_params,
    load_checkpoint,
    optimizer_step,
    prepare_examples,
    record_groups,
    save_checkpoint,
    step_views,
    train,
)
from prism.objective import GateTrace, LossBreakdown, knowledge_mask_valid, softmax_probs, total_loss

from oracles import (
    evaluate_reference,
    finite_difference_gradient,
    optimizer_step_reference,
    prepare_reference,
    record_groups_reference,
    standalone_sft,
)
from test_corpus import small_configs

from prism.fact_graph import TokenSignals


def tiny_params():
    # V=3, d=2, h=2, window=1: small enough to check by hand
    return ModelParams(
        embedding=np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.05]]),
        w1=np.array([[1.0, -1.0], [0.5, 0.25]]),
        b1=np.array([0.1, -0.2]),
        w2=np.array([[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]]),
        b2=np.array([0.0, 0.1, -0.1]),
        window=1,
    )


class TestForward:
    def test_hand_computed_instance(self):
        params = tiny_params()
        logits = forward_batch(params, np.array([[1]]))[0][0]
        x = [0.3, -0.1]
        a1 = [x[0] * 1.0 + x[1] * 0.5 + 0.1, x[0] * -1.0 + x[1] * 0.25 + -0.2]
        h = [math.tanh(a1[0]), math.tanh(a1[1])]
        expect = [h[0] * 1.0 + h[1] * 2.0 + 0.0,
                  h[0] * 0.0 + h[1] * 1.0 + 0.1,
                  h[0] * -1.0 + h[1] * 0.0 + -0.1]
        assert logits == pytest.approx(expect, abs=1e-15)

    def test_zero_params_give_uniform_softmax(self):
        params = ModelParams(
            embedding=np.zeros((4, 3)), w1=np.zeros((6, 5)), b1=np.zeros(5),
            w2=np.zeros((5, 4)), b2=np.zeros(4), window=2,
        )
        logits = forward_batch(params, np.array([[1, 2]]))[0]
        assert np.all(logits == 0.0)
        assert softmax_probs(logits)[0] == pytest.approx([0.25] * 4, abs=1e-15)

    def test_deterministic_across_runs(self):
        a = init_params(10, 4, 6, 3, np.random.default_rng(42))
        b = init_params(10, 4, 6, 3, np.random.default_rng(42))
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
        windows = np.array([[1, 2, 3], [0, 0, 9]])
        la, _ = forward_batch(a, windows)
        lb, _ = forward_batch(b, windows)
        assert np.array_equal(la, lb)

    def test_token_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            forward_batch(tiny_params(), np.array([[7]]))

    def test_window_shape_checked(self):
        with pytest.raises(ValueError):
            forward_batch(tiny_params(), np.array([[1, 2]]))

    def test_split_blocks_have_the_bits_of_their_own_forward(self):
        params = init_params(30, 8, 16, 4, np.random.default_rng(8))
        windows = np.random.default_rng(9).integers(0, 30, size=(40, 4))
        splits = [0, 1, 2, 2, 19, 40]  # one-row blocks, an empty one and two wider ones
        logits, (x, hidden) = forward_batch(params, windows, splits=splits)
        for a, b in zip(splits[:-1], splits[1:]):
            alone, (alone_x, alone_hidden) = forward_batch(params, windows[a:b])
            assert bits(logits[a:b]) == bits(alone)
            assert bits(x[a:b]) == bits(alone_x) and bits(hidden[a:b]) == bits(alone_hidden)
        assert bits(forward_batch(params, windows, splits=[0, 40])[0]) == bits(forward_batch(params, windows)[0])

    @pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
    def test_empty_batch_gives_empty_arrays(self, with_out):
        params = init_params(30, 8, 16, 4, np.random.default_rng(8))
        windows = np.zeros((0, 4), dtype=np.int64)
        out = None
        if with_out:  # a run's step arrays sliced to no rows, after stale values
            scratch = step_views(params, 5)
            for arr in scratch:
                arr.fill(np.nan if arr.dtype == np.float64 else -(2**40))
            out = StepViews(*(a[:0] for a in scratch))
        logits, (x, hidden) = forward_batch(params, windows, out=out)
        assert (logits.shape, x.shape, hidden.shape) == ((0, 30), (0, 32), (0, 16))
        assert forward_batch(params, windows, splits=[0, 0])[0].shape == (0, 30)

    @pytest.mark.parametrize("splits", [[0], [0, 5], [1, 6], [0, 4, 3, 6], [0, 7], [-1, 0, 6]])
    def test_splits_must_rise_from_zero_to_the_batch(self, splits):
        with pytest.raises(ValueError, match="splits must rise from 0 to 6"):
            forward_batch(tiny_params(), np.zeros((6, 1), dtype=np.int64), splits=splits)


class TestBackward:
    def test_zero_loss_gradient_gives_zero_param_gradients(self):
        params = init_params(6, 3, 4, 2, np.random.default_rng(0))
        windows = np.array([[1, 2], [3, 4]])
        _, cache = forward_batch(params, windows)
        grads = backward_batch(params, windows, np.zeros((2, 6)), cache)
        assert all(np.all(grads[name] == 0.0) for name in PARAM_FIELDS)

    def test_matches_finite_differences_through_sft(self):
        rng = np.random.default_rng(1)
        params = init_params(5, 2, 3, 2, rng)
        windows = rng.integers(0, 5, size=(6, 2))
        labels = rng.integers(0, 5, size=6)
        valid = np.ones(6, dtype=bool)

        logits, cache = forward_batch(params, windows)
        _, dlogits = standalone_sft(logits, labels, valid)
        grads = backward_batch(params, windows, dlogits, cache)

        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ij = it.multi_index
                orig = arr[ij]
                arr[ij] = orig + 1e-5
                up = standalone_sft(forward_batch(params, windows)[0], labels, valid)[0]
                arr[ij] = orig - 1e-5
                down = standalone_sft(forward_batch(params, windows)[0], labels, valid)[0]
                arr[ij] = orig
                numeric[ij] = (up - down) / 2e-5
            scale = max(np.abs(grads[name]).max(), np.abs(numeric).max(), 1e-12)
            assert np.abs(grads[name] - numeric).max() / scale < 1e-5, name

    def test_matches_finite_differences_through_total(self):
        # gate weights frozen at their evaluated values, matching the
        # constant-alpha gradient semantics of the complement term
        rng = np.random.default_rng(2)
        params = init_params(5, 2, 3, 2, rng)
        params.embedding *= 10.0  # sharpen predictions so the gates can open
        params.w2 *= 8.0
        windows = rng.integers(0, 5, size=(8, 2))
        logits0, cache = forward_batch(params, windows)
        labels = logits0.argmax(axis=1)
        signals = TokenSignals(
            fact_mask=np.array([1, 1, 0, 1, 0, 1, 1, 0], dtype=bool),
            support_weight=rng.uniform(0.4, 0.9, size=8),
            valid_mask=np.ones(8, dtype=bool),
        )
        lam = 0.7
        breakdown, dlogits, trace = total_loss(logits0, labels, signals, lam=lam)
        assert (trace.alpha > 0).any()
        grads = backward_batch(params, windows, dlogits, cache)

        alpha = trace.alpha.copy()
        n_fact = int(signals.fact_mask.sum())
        rows = np.arange(len(labels))

        def loss_at(ps):
            z, _ = forward_batch(ps, windows)
            sft = standalone_sft(z, labels, signals.valid_mask)[0]
            p_label = np.minimum(softmax_probs(z)[rows, labels], 1.0 - 1e-6)
            comp = float((alpha * -np.log1p(-p_label)).sum() / n_fact)
            return sft + lam * comp

        assert loss_at(params) == pytest.approx(breakdown.total, abs=1e-12)
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ij = it.multi_index
                orig = arr[ij]
                arr[ij] = orig + 1e-5
                up = loss_at(params)
                arr[ij] = orig - 1e-5
                down = loss_at(params)
                arr[ij] = orig
                numeric[ij] = (up - down) / 2e-5
            scale = max(np.abs(grads[name]).max(), np.abs(numeric).max(), 1e-12)
            assert np.abs(grads[name] - numeric).max() / scale < 1e-5, name

    def test_distinct_window_step_matches_finite_differences(self):
        # the step as train runs it: forward and backward on the distinct
        # windows, against the per-position loss over every window
        rng = np.random.default_rng(3)
        params = init_params(5, 2, 3, 2, rng)
        params.embedding *= 10.0
        params.w2 *= 8.0
        windows = rng.integers(0, 3, size=(30, 2))  # 9 possible windows, so many repeat
        first, rows = distinct_windows(windows)
        assert len(first) < 20
        logits, cache = forward_batch(params, windows[first])
        labels = np.where(rng.random(30) < 0.8, logits.argmax(axis=1)[rows], rng.integers(0, 5, 30))
        signals = TokenSignals(fact_mask=rng.random(30) < 0.6, support_weight=rng.uniform(0.4, 0.9, size=30),
                               valid_mask=rng.random(30) < 0.9)
        lam = 0.7
        breakdown, dlogits, trace = total_loss(logits, labels, signals, lam=lam, rows=rows)
        assert (trace.alpha > 0).sum() > np.unique(rows[trace.alpha > 0]).size  # active positions share rows
        grads = backward_batch(params, windows[first], dlogits, cache)

        alpha = trace.alpha.copy()
        n_fact = int(signals.fact_mask.sum())

        def loss_at(ps):
            z, _ = forward_batch(ps, windows)
            sft = standalone_sft(z, labels, signals.valid_mask)[0]
            p_label = np.minimum(softmax_probs(z)[np.arange(30), labels], 1.0 - 1e-6)
            return sft + lam * float((alpha * -np.log1p(-p_label)).sum() / n_fact)

        assert loss_at(params) == pytest.approx(breakdown.total, rel=1e-12)
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ij = it.multi_index
                orig = arr[ij]
                arr[ij] = orig + 1e-5
                up = loss_at(params)
                arr[ij] = orig - 1e-5
                down = loss_at(params)
                arr[ij] = orig
                numeric[ij] = (up - down) / 2e-5
            scale = max(np.abs(grads[name]).max(), np.abs(numeric).max(), 1e-12)
            assert np.abs(grads[name] - numeric).max() / scale < 1e-5, name

    def test_shape_mismatch_rejected(self):
        params = tiny_params()
        _, cache = forward_batch(params, np.array([[1]]))
        with pytest.raises(ValueError):
            backward_batch(params, np.array([[1]]), np.zeros((1, 7)), cache)

    def test_writing_into_given_arrays_allocates_little(self):
        """backward_batch with a step's arrays and a run's gradient arrays, on a
        V = 1024 batch, peaks below a tenth of the parameters' bytes: no
        gradient and no index array is allocated."""
        rng = np.random.default_rng(5)
        params = init_params(1024, 16, 32, 4, rng)
        windows = rng.integers(0, 1024, size=(200, 4))
        views = step_views(params, len(windows))
        logits, cache = forward_batch(params, windows, out=views)
        logits[:] = rng.standard_normal(logits.shape)
        into = {name: np.empty_like(getattr(params, name)) for name in PARAM_FIELDS}
        tracemalloc.start()
        try:
            backward_batch(params, windows, logits, cache, out=views, grads=into)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * sum(getattr(params, name).nbytes for name in PARAM_FIELDS)

    def test_embedding_gradient_matches_add_at_bit_for_bit(self):
        # heavily repeated ids, begin-token padding, and rows 7..11 never occur
        rng = np.random.default_rng(4)
        params = init_params(12, 5, 6, 4, rng)
        windows = rng.integers(1, 4, size=(300, 4))
        windows[:40, :3] = 0
        windows[::7] = 6
        logits, cache = forward_batch(params, windows)
        dlogits = rng.standard_normal(logits.shape)
        grads = backward_batch(params, windows, dlogits, cache)

        x, hidden = cache
        d_pre = (dlogits @ params.w2.T) * (1.0 - hidden * hidden)
        d_x = (d_pre @ params.w1.T).reshape(300, 4, 5)
        expected = np.zeros_like(params.embedding)
        np.add.at(expected, windows, d_x)
        assert grads["embedding"].tobytes() == expected.tobytes()
        assert not expected[7:].any()


class TestDistinctWindows:
    def test_round_trip_at_the_size_limits(self):
        rng = np.random.default_rng(6)
        windows = rng.integers(MAX_VOCAB_SIZE - 3, MAX_VOCAB_SIZE, size=(400, MAX_WINDOW))
        windows[::4] = windows[1::4]
        windows[2::4, 1:] = windows[3::4, 1:]  # pairs that differ in the first column only
        windows[5, -1] = 0
        first, rows = distinct_windows(windows)
        assert np.array_equal(windows[first][rows], windows)
        assert len(first) == len(np.unique(windows, axis=0))
        assert rows.dtype == np.int64 and np.array_equal(np.unique(rows), np.arange(len(first)))

    @pytest.mark.parametrize("vocab", [2, 70, MAX_VOCAB_SIZE])
    def test_one_differing_column_gives_another_row(self, vocab):
        # every column of a window falls in some packed key; changing any one
        # column must still give a distinct window
        base = np.full((1, MAX_WINDOW), vocab - 1, dtype=np.int64)
        windows = np.repeat(base, MAX_WINDOW + 2, axis=0)
        windows[np.arange(MAX_WINDOW), np.arange(MAX_WINDOW)] = 0
        first, rows = distinct_windows(windows)
        assert len(first) == MAX_WINDOW + 1
        assert rows[-1] == rows[-2] and len(set(rows[:-1])) == MAX_WINDOW + 1
        assert np.array_equal(windows[first][rows], windows)

    @pytest.mark.parametrize("top", [2, MAX_VOCAB_SIZE - 1])
    def test_rows_at_give_the_gathered_rows_result(self, top):
        """Keys gathered one column at a time at `at` give what the gathered
        rows give, also where an id outside those rows packs fewer columns
        per key."""
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, 3, size=300)
        tokens[-1] = top  # only in the last window, which `at` leaves out
        windows = np.lib.stride_tricks.sliding_window_view(tokens, 5)
        at = rng.integers(0, len(windows) - 1, size=700)
        first, rows = distinct_windows(windows, at)
        expected_first, expected_rows = distinct_windows(windows[at])
        assert bits(first) == bits(expected_first) and bits(rows) == bits(expected_rows)
        assert len(first) < len(np.unique(at))  # some windows repeat at different positions


class TestOptimizer:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_equals_the_expression_with_one_work_array(self, weight_decay):
        """The update's bits are the whole-array expression's, and it holds one
        work array at a time (the expression holds three temporaries)."""
        rng = np.random.default_rng(11)
        settings = TrainSettings(learning_rate=0.02, weight_decay=weight_decay)
        params, reference = (init_params(300, 16, 24, 4, np.random.default_rng(5)) for _ in range(2))
        state, reference_state = init_optimizer(params), init_optimizer(reference)
        for step in range(6):
            grads = {n: rng.standard_normal(getattr(params, n).shape) * 10.0 ** (step - 3) for n in PARAM_FIELDS}
            optimizer_step_reference(reference, {n: g.copy() for n, g in grads.items()}, reference_state, settings)
            if step < 5:
                optimizer_step(params, grads, state, settings)
                continue
            tracemalloc.start()
            try:
                optimizer_step(params, grads, state, settings)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * max(g.nbytes for g in grads.values())
        for name in PARAM_FIELDS:
            for ours, theirs in ((getattr(params, name), getattr(reference, name)),
                                 (state.m[name], reference_state.m[name]), (state.v[name], reference_state.v[name])):
                assert ours.tobytes() == theirs.tobytes()

    def test_zero_gradients_leave_params_unchanged(self):
        params = init_params(4, 2, 3, 1, np.random.default_rng(3))
        before = {n: getattr(params, n).copy() for n in PARAM_FIELDS}
        state = init_optimizer(params)
        zeros = {n: np.zeros_like(getattr(params, n)) for n in PARAM_FIELDS}
        optimizer_step(params, zeros, state, TrainSettings(weight_decay=0.0))
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(params, name), before[name])

    def test_two_steps_match_hand_arithmetic(self):
        # single scalar parameter squeezed into a 1x1 embedding
        params = ModelParams(
            embedding=np.array([[1.0]]), w1=np.zeros((1, 1)), b1=np.zeros(1),
            w2=np.zeros((1, 1)), b2=np.zeros(1), window=1,
        )
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        settings = TrainSettings(learning_rate=lr, beta1=b1, beta2=b2, adam_eps=eps, weight_decay=0.0)
        state = init_optimizer(params)
        zero = {n: np.zeros_like(getattr(params, n)) for n in PARAM_FIELDS}

        p, m, v = 1.0, 0.0, 0.0
        for t, g in ((1, 0.5), (2, -0.25)):
            grads = dict(zero, embedding=np.array([[g]]))
            optimizer_step(params, grads, state, settings)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            p = p - lr * mhat / (math.sqrt(vhat) + eps)
            assert params.embedding[0, 0] == pytest.approx(p, abs=1e-16)
        assert state.step_count == 2

    def test_weight_decay_shrinks_multiplicatively(self):
        params = ModelParams(
            embedding=np.array([[2.0]]), w1=np.zeros((1, 1)), b1=np.zeros(1),
            w2=np.zeros((1, 1)), b2=np.zeros(1), window=1,
        )
        state = init_optimizer(params)
        zeros = {n: np.zeros_like(getattr(params, n)) for n in PARAM_FIELDS}
        optimizer_step(params, zeros, state, TrainSettings(learning_rate=0.1, weight_decay=0.5))
        assert params.embedding[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-15)

    def test_non_finite_gradient_rejected(self):
        params = init_params(4, 2, 3, 1, np.random.default_rng(4))
        state = init_optimizer(params)
        grads = {n: np.zeros_like(getattr(params, n)) for n in PARAM_FIELDS}
        grads["w1"][0, 0] = np.nan
        with pytest.raises(DivergenceError):
            optimizer_step(params, grads, state, TrainSettings())


def small_corpus(n=60, corruption=0.3, seed=5):
    cfg = GeneratorConfig(
        vocab_size=70, n_examples=n, n_keys=10, n_values=10, sentence_length=5,
        corruption_fraction=corruption, risk_min=0.5, risk_max=0.9,
        dependency_p=0.25, seed=seed,
    )
    return generate(cfg)


def train_on(examples, settings):
    """train() on the preparation a run of `settings` gives `examples`."""
    prepared = prepare_examples(examples, settings.window, settings.vocab_size,
                                risk_mode=settings.risk_propagation)
    return train(prepared, settings)


class TestPrepare:
    def test_windows_are_teacher_forced_prefixes(self):
        ex = AnnotatedExample(
            input_tokens=[5, 6], target_tokens=[7, 8, 9], valid_mask=[1, 1, 1],
            sentences=[SentenceSpan(0, 3, 0.0)], facts=[], edges=[],
        )
        prep = prepare_examples([ex], window=3, vocab_size=10)[0]
        assert prep.distinct[prep.window_id].tolist() == [[0, 5, 6], [5, 6, 7], [6, 7, 8]]
        assert prep.labels.tolist() == [7, 8, 9]
        assert prep.sentence_id.tolist() == [1, 1, 1]

    def test_bos_padding_at_start(self):
        ex = AnnotatedExample(
            input_tokens=[], target_tokens=[3, 4], valid_mask=[1, 1],
            sentences=[], facts=[], edges=[],
        )
        prep = prepare_examples([ex], window=4, vocab_size=5)[0]
        assert prep.distinct[prep.window_id].tolist() == [[0, 0, 0, 0], [0, 0, 0, 3]]
        assert prep.sentence_id.tolist() == [-1, -1]

    def test_signals_flow_through_propagation(self):
        ex = AnnotatedExample(
            input_tokens=[1], target_tokens=[2, 3, 4, 5], valid_mask=[1, 1, 1, 1],
            sentences=[SentenceSpan(0, 2, 0.8), SentenceSpan(2, 4, 0.0)],
            facts=[FactSpan(0, 2, 3, 2)], edges=[DependencyEdge(1, 2)],
        )
        prep = prepare_examples([ex], window=2, vocab_size=8)[0]
        assert np.all(prep.signals.support_weight == pytest.approx(1 - 0.8))
        assert prep.signals.fact_mask.tolist() == [False, False, True, False]


def readme_corpus(**overrides):
    """The README quick start's corpus, as preprocess writes it, or with
    `overrides` of its generator config."""
    cfg = GeneratorConfig(**{**dict(vocab_size=70, n_examples=2000, n_keys=20, n_values=20, sentence_length=5,
                                    corruption_fraction=0.3, risk_min=0.5, risk_max=0.9, dependency_p=0.25,
                                    seed=11), **overrides})
    return [c for ex in verify_and_filter(generate(cfg)).kept for c in chunk(ex, cfg.chunk_limit)]


def assert_equals_reference(prepared, reference):
    """Every per-example array of the flat corpus is the reference's, byte for byte."""
    assert len(prepared) == len(reference)
    assert prepared.offsets.tolist() == np.cumsum([0] + [len(r.labels) for r in reference]).tolist()
    for record, ref in zip(prepared, reference):
        pairs = [(record.distinct[record.window_id], ref.windows), (record.labels, ref.labels),
                 (record.sentence_id, ref.sentence_id),
                 (record.signals.fact_mask, ref.signals.fact_mask),
                 (record.signals.support_weight, ref.signals.support_weight),
                 (record.signals.valid_mask, ref.signals.valid_mask)]
        for got, want in pairs:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # one id per distinct window, numbered in distinct_windows' order
    rows = distinct_windows(prepared.distinct[prepared.window_id])[1]
    assert prepared.window_id.dtype == np.int32 and np.array_equal(prepared.window_id, rows)


@st.composite
def annotated_examples(draw, vocab=12):
    """A valid annotated example: sentences with gaps, facts inside them,
    forward edges and a random valid mask."""
    t_len = draw(st.integers(min_value=1, max_value=14))
    cuts = sorted(draw(st.sets(st.integers(min_value=0, max_value=t_len), max_size=8)))
    bounds = [(a, b) for a, b in zip(cuts[::2], cuts[1::2])]
    sentences = [SentenceSpan(a, b, draw(st.floats(min_value=0.0, max_value=1.0))) for a, b in bounds]
    facts = []
    for j, s in enumerate(sentences, 1):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            start = draw(st.integers(min_value=s.token_start, max_value=s.token_end - 1))
            end = draw(st.integers(min_value=start + 1, max_value=s.token_end))
            facts.append(FactSpan(len(facts), start, end, j))
    pairs = [(i, j) for i in range(1, len(sentences) + 1) for j in range(i + 1, len(sentences) + 1)]
    tokens = st.integers(min_value=0, max_value=vocab - 1)
    return AnnotatedExample(
        input_tokens=draw(st.lists(tokens, max_size=4)),
        target_tokens=draw(st.lists(tokens, min_size=t_len, max_size=t_len)),
        valid_mask=draw(st.lists(st.sampled_from([0, 1]), min_size=t_len, max_size=t_len)),
        sentences=sentences,
        facts=facts,
        edges=[DependencyEdge(i, j) for i, j in pairs if draw(st.booleans())],
    )


def break_example(ex, kind):
    """`ex` with one rule broken: a sentence/edge rule, a span rule, both, or a token id."""
    sentences, facts, edges = list(ex.sentences), list(ex.facts), list(ex.edges)
    target, valid = list(ex.target_tokens), list(ex.valid_mask)
    if kind in ("risk", "both") and sentences:
        sentences[-1] = SentenceSpan(sentences[-1].token_start, sentences[-1].token_end, 1.5)
    if kind == "edge":
        edges.append(DependencyEdge(1, 1))
    if kind in ("fact", "both"):
        facts.append(FactSpan(99, len(target), len(target) + 1, 1))
    if kind == "valid":
        valid.append(1)
    if kind == "token":
        target[-1] = 999
    return AnnotatedExample(list(ex.input_tokens), target, valid, sentences, facts, edges)


def outcome(prepare, *args, **kwargs):
    try:
        return prepare(*args, **kwargs)
    except (AnnotationError, ConfigError) as exc:
        return type(exc), str(exc)


class TestPreparedCorpus:
    @pytest.mark.parametrize("risk_mode", ["onehop", "fixpoint"])
    def test_equals_the_per_example_reference_on_the_readme_corpus(self, risk_mode):
        examples = readme_corpus()
        prepared = prepare_examples(examples, 4, 70, risk_mode=risk_mode)
        assert len(prepared) == len(examples) > 1000
        assert_equals_reference(prepared, prepare_reference(examples, 4, 70, risk_mode=risk_mode))

    @given(st.lists(annotated_examples(), min_size=1, max_size=6),
           st.lists(st.sampled_from(["risk", "edge", "fact", "valid", "both", "token", None]), max_size=6),
           st.integers(min_value=1, max_value=4), st.sampled_from(["onehop", "fixpoint"]))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_example_reference(self, examples, breaks, window, risk_mode):
        """The same arrays, or the same first error: its type, record number and message."""
        examples = [break_example(ex, kind) if kind else ex for ex, kind in zip(examples, breaks + [None] * 6)]
        got = outcome(prepare_examples, examples, window, 12, risk_mode=risk_mode)
        want = outcome(prepare_reference, examples, window, 12, risk_mode=risk_mode)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_equals_reference(got, want)

    def test_sentence_and_edge_rules_come_before_the_span_rules(self):
        examples = small_corpus(n=5)
        examples[2] = break_example(examples[2], "both")  # a fact outside the target, and risk 1.5
        last = len(examples[2].sentences)
        message = f"record 3: sentence {last} risk 1.5 outside [0, 1]"
        for prepare in (prepare_examples, prepare_reference):
            with pytest.raises(AnnotationError) as info:
                prepare(examples, 4, 70)
            assert str(info.value) == message

    def test_the_first_broken_record_decides_the_error(self):
        examples = small_corpus(n=6)
        tokens, annotation = break_example(examples[1], "token"), break_example(examples[3], "fact")
        for broken in ([examples[0], tokens, examples[2], annotation], [examples[0], annotation, tokens]):
            got = outcome(prepare_examples, broken, 4, 70)
            assert got == outcome(prepare_reference, broken, 4, 70)
            assert got[0] is (ConfigError if broken[1] is tokens else AnnotationError)

    def test_a_streamed_record_does_not_outlive_its_turn(self):
        examples = small_corpus(n=8)
        refs = []

        def stream():
            for ex in examples:
                record = replace(ex)  # a record only this stream and prepare_examples see
                assert not refs or refs[-1]() is None, f"record {len(refs)} outlived its turn"
                refs.append(weakref.ref(record))
                yield record

        prepared = prepare_examples(stream(), 4, 70)
        assert len(refs) == 8 and all(ref() is None for ref in refs)
        assert_equals_reference(prepared, prepare_reference(examples, 4, 70))

    def test_ids_are_stored_narrow(self):
        ex = small_corpus(n=1)[0]
        top = replace(ex, target_tokens=ex.target_tokens[:-1] + [MAX_VOCAB_SIZE - 1])
        prepared = prepare_examples([ex, top], 4, 0)
        assert [a.dtype for a in (prepared.distinct, prepared.labels, prepared.window_id, prepared.sentence_id,
                                  prepared.offsets)] == [np.uint16, np.uint16, np.int32, np.int32, np.int64]
        assert prepared[1].labels[-1] == MAX_VOCAB_SIZE - 1
        # an id that does not fit uint16 is refused, also with a larger vocabulary
        beyond = replace(ex, input_tokens=[MAX_VOCAB_SIZE])
        for vocab in (0, MAX_VOCAB_SIZE + 1):
            with pytest.raises(ConfigError, match=rf"^token id {MAX_VOCAB_SIZE} outside \[0, {MAX_VOCAB_SIZE}\) "):
                prepare_examples([ex, beyond], 4, vocab)

    def test_split_by_offsets(self):
        examples = small_corpus(n=30)
        prepared = prepare_examples(examples, 4, 70)
        cut = 27
        train_split, eval_split = prepared[:cut], prepared[cut:]
        assert (len(prepared), len(train_split), len(eval_split)) == (30, 27, 3)
        assert len(prepared[cut:cut]) == 0 and not prepared[30:]
        assert train_split.offsets.tolist() == prepared.offsets[:cut + 1].tolist()
        assert eval_split.offsets.tolist() == (prepared.offsets[cut:] - prepared.offsets[cut]).tolist()
        at = int(prepared.offsets[cut])
        for part, rows in ((train_split, slice(0, at)), (eval_split, slice(at, None))):
            assert part.distinct[part.window_id].tobytes() == prepared.distinct[prepared.window_id][rows].tobytes()
            assert part.signals.support_weight.tobytes() == prepared.signals.support_weight[rows].tobytes()
            assert part.window_id.tobytes() == prepared.window_id[rows].tobytes()
        # a split prepared alone has the same arrays, and its ids order its windows the same way
        alone = prepare_examples(examples[cut:], 4, 70)
        assert len(alone) == len(examples[cut:])
        assert alone.distinct[alone.window_id].tobytes() == eval_split.distinct[eval_split.window_id].tobytes()
        assert np.array_equal(np.unique(alone.window_id, return_inverse=True)[1],
                              np.unique(eval_split.window_id, return_inverse=True)[1])
        assert prepared[-1].labels.tolist() == examples[-1].target_tokens
        with pytest.raises(IndexError):
            prepared[30]

    def test_empty_corpus_is_refused_by_train_and_evaluate(self):
        prepared = prepare_examples([], 4, 70)
        assert len(prepared) == 0 and prepared.distinct[prepared.window_id].shape == (0, 4)
        with pytest.raises(ConfigError, match="training corpus is empty"):
            train(prepared, TrainSettings(vocab_size=70))
        with pytest.raises(ConfigError, match="nothing to evaluate"):
            evaluate(init_params(70, 4, 4, 4, np.random.default_rng(0)), prepared)

    def test_positions_follow_the_examples_in_order(self):
        prepared = prepare_examples(small_corpus(n=10), 4, 70)
        idx = np.array([3, 0, 3, 9])
        expected = np.concatenate([np.arange(prepared.offsets[i], prepared.offsets[i + 1]) for i in idx])
        assert prepared.positions(idx).tolist() == expected.tolist()


class TestTrain:
    def test_seeded_run_reproducible(self):
        examples = small_corpus()
        settings = TrainSettings(method="prism", lam=0.1, steps=25, batch_size=8,
                                 vocab_size=70, seed=9)
        r1 = train_on(examples, settings)
        r2 = train_on(examples, settings)
        assert r1.step_log == r2.step_log
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(r1.params, name), getattr(r2.params, name))

    def test_given_preparation_is_reused_and_left_unchanged(self):
        examples = small_corpus()
        settings = TrainSettings(method="prism", lam=0.5, steps=25, batch_size=8,
                                 vocab_size=70, seed=9)
        prepared = prepare_examples(examples, settings.window, 70)
        before = [(p.distinct[p.window_id], p.labels.copy(), p.signals.fact_mask.copy(),
                   p.signals.support_weight.copy(), p.signals.valid_mask.copy()) for p in prepared]
        first = train(prepared, settings)
        again = train(prepared, settings)
        assert first.step_log == again.step_log
        for name in PARAM_FIELDS:
            assert getattr(first.params, name).tobytes() == getattr(again.params, name).tobytes()
        for p, arrays in zip(prepared, before):
            now = (p.distinct[p.window_id], p.labels, p.signals.fact_mask, p.signals.support_weight,
                   p.signals.valid_mask)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(now, arrays))

    @pytest.mark.parametrize("method, lam", [("sft", 0.0), ("prism", 0.5)])
    def test_step_log_reads_the_logits_before_the_loss_pass(self, monkeypatch, method, lam):
        """p_risky and p_safe are the softmax of the logits total_loss is given
        (it then writes its pass over them), read on the fact rows alone with
        the bits of a softmax over every row."""
        import prism.model as model_mod
        seen, original_loss = [], model_mod.total_loss

        def loss(logits, labels, signals, *args, **kwargs):
            seen.append((logits.copy(), kwargs["rows"], labels, signals))
            return original_loss(logits, labels, signals, *args, **kwargs)

        monkeypatch.setattr(model_mod, "total_loss", loss)
        result = train_on(small_corpus(), TrainSettings(method=method, lam=lam, steps=6, batch_size=8,
                                                        vocab_size=70, seed=3))
        assert len(seen) == len(result.step_log) == 6
        for (logits, rows, labels, signals), record in zip(seen, result.step_log):
            fact = signals.fact_mask
            p_label = softmax_probs(logits)[rows[fact], labels[fact]]
            support = signals.support_weight[fact]
            assert repr(record.p_risky) == repr(float(p_label[support < 1.0].mean()))
            assert repr(record.p_safe) == repr(float(p_label[support >= 1.0].mean()))

    def test_lambda_zero_equals_stripped_annotations(self):
        examples = small_corpus()
        stripped = [
            AnnotatedExample(
                input_tokens=ex.input_tokens, target_tokens=ex.target_tokens,
                valid_mask=ex.valid_mask,
                sentences=[SentenceSpan(s.token_start, s.token_end, 0.0)
                           for s in ex.sentences],
                facts=[], edges=[],
            )
            for ex in examples
        ]
        settings = TrainSettings(method="prism", lam=0.0, steps=30, batch_size=8,
                                 vocab_size=70, seed=9)
        full = train_on(examples, settings)
        bare = train_on(stripped, settings)
        assert [(s.sft, s.comp, s.total) for s in full.step_log] == \
               [(s.sft, s.comp, s.total) for s in bare.step_log]
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(full.params, name), getattr(bare.params, name))

    def test_methods_dispatch(self):
        examples = small_corpus()

        def run(method, lam):
            return train_on(examples, TrainSettings(method=method, lam=lam, steps=5,
                                                    batch_size=8, vocab_size=70, seed=1))

        def assert_same_bits(a, b):
            assert a.step_log == b.step_log
            for name in PARAM_FIELDS:
                assert np.array_equal(getattr(a.params, name), getattr(b.params, name))

        for method in ("sft", "prism", "knowledge_mask", "prism_no_gate", "prism_no_mask"):
            assert len(run(method, 0.1).step_log) == 5
        sft = run("sft", 0.0)
        for method in ("prism_no_gate", "prism_no_mask"):
            assert_same_bits(run(method, 0.0), sft)
        assert_same_bits(run("knowledge_mask", 0.1), run("knowledge_mask", 0.0))
        with pytest.raises(ConfigError, match="unknown method"):
            train_on(examples, TrainSettings(method="nope", steps=1, vocab_size=70))
        with pytest.raises(ConfigError, match="empty"):
            train([], TrainSettings(vocab_size=70))

    def test_divergence_aborts_with_step_index(self):
        examples = small_corpus(n=20)
        settings = TrainSettings(method="sft", lam=0.0, steps=400, batch_size=8,
                                 vocab_size=70, seed=1, learning_rate=1.0,
                                 weight_decay=-2e5)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="step"):
            train_on(examples, settings)

    @pytest.mark.parametrize("method, lam", [("sft", 0.0), ("prism", 0.1), ("prism_no_gate", 0.5)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_stop_the_run_before_the_update(self, monkeypatch, method, lam, bad):
        import prism.model as model_mod
        calls = {"forward": 0, "update": 0}
        original_forward, original_step = model_mod.forward_batch, model_mod.optimizer_step

        def forward(params, windows, out=None):
            logits, cache = original_forward(params, windows, out=out)
            calls["forward"] += 1
            if calls["forward"] == 3:
                logits[-1, 5] = bad
            return logits, cache

        def step(params, grads, state, settings):
            calls["update"] += 1
            return original_step(params, grads, state, settings)

        monkeypatch.setattr(model_mod, "forward_batch", forward)
        monkeypatch.setattr(model_mod, "optimizer_step", step)
        settings = TrainSettings(method=method, lam=lam, steps=5, batch_size=4, vocab_size=70, seed=1)
        with pytest.raises(DivergenceError, match="^non-finite logits at step 3$"):
            train_on(small_corpus(n=20), settings)
        assert calls["update"] == 2

    def test_forward_batch_gets_the_distinct_windows_only(self, monkeypatch):
        import prism.model as model_mod
        batches, forwarded, loss_rows = [], [], []
        original_positions = model_mod.PreparedCorpus.positions
        original_forward, original_loss = model_mod.forward_batch, model_mod.total_loss

        def positions(self, idx):
            at = original_positions(self, idx)
            batches.append(self.distinct[self.window_id][at])
            return at

        def forward(params, windows, out=None):
            forwarded.append(np.array(windows))
            return original_forward(params, windows, out=out)

        def loss(*args, rows=None, **kwargs):
            loss_rows.append(np.array(rows))
            return original_loss(*args, rows=rows, **kwargs)

        monkeypatch.setattr(model_mod.PreparedCorpus, "positions", positions)
        monkeypatch.setattr(model_mod, "forward_batch", forward)
        monkeypatch.setattr(model_mod, "total_loss", loss)
        train_on(small_corpus(), TrainSettings(method="prism", lam=0.1, steps=6, batch_size=8,
                                               vocab_size=70, seed=3))
        assert len(batches) == len(forwarded) == len(loss_rows) == 6
        for batch, windows, rows in zip(batches, forwarded, loss_rows):
            assert len(windows) < len(batch)
            assert np.array_equal(np.unique(windows, axis=0), np.unique(batch, axis=0))
            assert len(np.unique(windows, axis=0)) == len(windows)
            # the window ids give distinct_windows' rows of the gathered batch, in its order
            first, expected_rows = distinct_windows(batch)
            assert windows.tobytes() == batch[first].tobytes()
            assert rows.tobytes() == expected_rows.tobytes()

    def test_prism_counters_stay_clean(self):
        examples = small_corpus()
        result = train_on(examples, TrainSettings(method="prism", lam=0.2, steps=40,
                                                  batch_size=8, vocab_size=70, seed=2))
        assert result.counters.off_target_total == 0
        assert result.counters.alpha_nonfact_total == 0


def bits(arr):
    return np.asarray(arr).tobytes()


GATE_FIELDS = tuple(f.name for f in fields(GateTrace))


def row_bytes(params):
    """The bytes of one distinct window's x, hidden and logits rows."""
    return 8 * (params.w1.shape[0] + params.w1.shape[1] + params.vocab_size)


def random_corpus(vocab, n, length=40, seed=9):
    """n examples of `length` random target tokens, one risky fact each:
    nearly every window is distinct."""
    rng = np.random.default_rng(seed)
    return [
        AnnotatedExample(
            input_tokens=[1], target_tokens=rng.integers(2, vocab, size=length).tolist(), valid_mask=[1] * length,
            sentences=[SentenceSpan(0, length, 0.5)], facts=[FactSpan(0, 5, 9, 1)], edges=[],
        )
        for _ in range(n)
    ]


# Corpora shaped like the benchmark's three workloads, smaller, and one whose
# single long record has 50 times the positions of each other record.
CAP_CORPORA = {
    "sweep": lambda: (readme_corpus(n_examples=300), 70),
    "long_docs": lambda: (readme_corpus(n_examples=40, facts_per_sentence=4, sentence_length=13, sentences_min=8,
                                        sentences_max=16, dependency_p=0.5, chunk_limit=180), 70),
    "wide_vocab": lambda: (readme_corpus(n_examples=100, vocab_size=1024, n_keys=200, n_values=200,
                                         sentence_length=6), 1024),
    "one_long_record": lambda: (random_corpus(70, 40, length=10) + random_corpus(70, 1, length=500, seed=10), 70),
}


class TestStepViews:
    @pytest.mark.parametrize("vocab", [70, 1024])
    def test_stale_rows_give_the_allocating_bits(self, vocab):
        """A run's step arrays, full of stale values and larger than the
        batch, sliced for batches that shrink and grow within them as train
        slices them: forward_batch, total_loss and backward_batch with out=
        equal the allocating calls bit for bit; so do the gradients that
        backward_batch writes into a run's five gradient arrays, NaN before
        the first call, and they are those arrays."""
        rng = np.random.default_rng(vocab)
        params = init_params(vocab, 8, 16, 3, rng)
        params.w2 *= 40.0  # peaked softmax rows, so the gates open
        scratch = step_views(params, 100)
        for arr in scratch:
            arr.fill(np.nan)
        into = {name: np.full_like(getattr(params, name), np.nan) for name in PARAM_FIELDS}
        active = 0
        for rows in (40, 9, 30, 60, 100, 25):
            windows = rng.integers(0, vocab, size=(rows, 3))
            logits, cache = forward_batch(params, windows)
            labels = np.where(rng.random(rows) < 0.7, logits.argmax(axis=1), rng.integers(0, vocab, rows))
            signals = TokenSignals(fact_mask=rng.random(rows) < 0.6,
                                   support_weight=rng.choice([0.2, 0.5, 0.8, 1.0], rows),
                                   valid_mask=rng.random(rows) < 0.9)
            views = StepViews(*(a[:rows] for a in scratch))
            for method in METHODS.values():
                for lam in (0.0, 0.3):
                    given = into if lam else None
                    # the last call's loss pass and backward_batch wrote over the logits and activations
                    reused, reused_cache = forward_batch(params, windows, out=views)
                    assert reused is views.logits and bits(reused) == bits(logits)
                    assert all(bits(a) == bits(b) for a, b in zip(reused_cache, cache))
                    lam = lam if method.has_comp else 0.0
                    sig = signals
                    if method.drop_unsupported:
                        sig = TokenSignals(signals.fact_mask, signals.support_weight,
                                           knowledge_mask_valid(signals))
                    flags = dict(use_gates=method.use_gates, use_fact_mask=method.use_fact_mask)
                    fresh = total_loss(logits, labels, sig, lam, **flags)
                    again = total_loss(reused, labels, sig, lam, **flags, out=reused)
                    assert again[1] is views.logits
                    assert repr(again[0]) == repr(fresh[0])
                    assert bits(again[1]) == bits(fresh[1])
                    assert (again[2] is None) == (fresh[2] is None) == (lam == 0.0)
                    if lam:
                        for field in ("p_label", "q_max", "pref_gate", "keep_gate", "alpha"):
                            assert bits(getattr(again[2], field)) == bits(getattr(fresh[2], field))
                        active += int((fresh[2].alpha > 0).sum())
                    grads = backward_batch(params, windows, fresh[1], cache)
                    grads_again = backward_batch(params, windows, again[1], reused_cache, out=views, grads=given)
                    assert all(bits(grads_again[name]) == bits(grads[name]) for name in PARAM_FIELDS)
                    assert given is None or all(grads_again[name] is into[name] for name in PARAM_FIELDS)
        assert active > 0

    @pytest.mark.parametrize("shape", ["sweep", "long_docs", "wide_vocab", "one_long_record"])
    def test_no_step_has_more_rows_than_the_run_allocates(self, monkeypatch, shape):
        """train allocates its step arrays once, fact_probs included, each at
        max(1, block_rows(params, STEP_BLOCK_BYTES)) rows; every step's
        forward_batch runs on a head of them, and its fact-row softmax on a
        head of fact_probs.  A step has no more distinct windows than the
        corpus or batch_size records hold, so here each step is one block."""
        import prism.model as model_mod
        examples, vocab = CAP_CORPORA[shape]()
        settings = TrainSettings(method="prism", lam=0.1, steps=20, batch_size=8, vocab_size=vocab, seed=4)
        prepared = prepare_examples(examples, settings.window, vocab)
        longest = int(np.diff(prepared.offsets).max())
        held = min(len(prepared.distinct), settings.batch_size * longest)
        allocated, forwarded, heads = [], [], []
        real_views, real_forward, real_probs = model_mod.step_views, model_mod.forward_batch, model_mod.softmax_probs

        def views(params, rows):
            allocated.append((max(1, model_mod.block_rows(params, model_mod.STEP_BLOCK_BYTES)),
                              real_views(params, rows)))
            return allocated[-1][1]

        def forward(params, windows, out=None):
            forwarded.append((len(windows), out))
            return real_forward(params, windows, out=out)

        def probs(logits, out=None):
            heads.append(out)
            return real_probs(logits, out=out)

        monkeypatch.setattr(model_mod, "step_views", views)
        monkeypatch.setattr(model_mod, "forward_batch", forward)
        monkeypatch.setattr(model_mod, "softmax_probs", probs)
        train(prepared, settings)
        ((cap, arrays),) = allocated
        assert [len(a) for a in arrays] == [cap] * 5 and held <= cap
        assert len(forwarded) == len(heads) == settings.steps
        for (rows, out), head in zip(forwarded, heads):
            assert 0 < rows <= held
            assert all(len(a) == rows and np.shares_memory(a, b) for a, b in zip(out, arrays))
            assert 0 < len(head) <= rows and np.shares_memory(head, arrays.fact_probs)
        if shape == "sweep":  # the batch bounds a step's rows
            assert held == settings.batch_size * longest < len(prepared.distinct)
        if shape == "one_long_record":  # the long record was drawn, and the distinct windows bound a step's rows
            assert max(rows for rows, _ in forwarded) > settings.batch_size * 10 and held == len(prepared.distinct)

    def test_step_views_are_float64_only(self):
        """The embedding scatter needs no index array, so a run's step arrays are float64 only."""
        params = init_params(70, 8, 16, 3, np.random.default_rng(2))
        assert [a.dtype for a in step_views(params, 10)] == [np.dtype(np.float64)] * 5

    def test_every_step_updates_from_the_same_gradient_arrays(self, monkeypatch):
        """train allocates the five gradient arrays once: every step hands
        optimizer_step the same arrays, each shaped as its parameter."""
        import prism.model as model_mod
        examples, vocab = CAP_CORPORA["sweep"]()
        settings = TrainSettings(method="prism", lam=0.1, steps=6, batch_size=8, vocab_size=vocab, seed=4)
        prepared = prepare_examples(examples, settings.window, vocab)
        handed = []
        real_step = model_mod.optimizer_step

        def step(params, grads, state, settings):
            handed.append([grads[name] for name in PARAM_FIELDS])
            assert all(g.shape == getattr(params, name).shape for name, g in zip(PARAM_FIELDS, handed[-1]))
            return real_step(params, grads, state, settings)

        monkeypatch.setattr(model_mod, "optimizer_step", step)
        train(prepared, settings)
        assert len(handed) == settings.steps and len({id(g) for g in handed[0]}) == len(PARAM_FIELDS)
        assert all(g is first for arrays in handed for g, first in zip(arrays, handed[0]))

    def test_one_vocab_wide_array_per_step(self, monkeypatch):
        """A run's step arrays filled with NaN: each step's total_loss returns
        its gradient in the step's logits, fact_probs' rows past the most a
        step has used stay NaN, and the run keeps the bits of one whose arrays
        were not filled."""
        import prism.model as model_mod
        examples, vocab = CAP_CORPORA["wide_vocab"]()
        settings = TrainSettings(method="prism", lam=0.1, steps=12, batch_size=8, vocab_size=vocab, seed=4)
        prepared = prepare_examples(examples, settings.window, vocab)
        expected = train(prepared, settings)
        allocated, forwarded, heads = [], [], []
        real_views, real_forward = model_mod.step_views, model_mod.forward_batch
        real_probs, real_loss = model_mod.softmax_probs, model_mod.total_loss

        def views(params, rows):
            allocated.append(real_views(params, rows))
            for arr in allocated[-1]:
                arr.fill(np.nan if arr.dtype == np.float64 else -(2**40))
            return allocated[-1]

        def forward(params, windows, out=None):
            forwarded.append(out)
            return real_forward(params, windows, out=out)

        def probs(logits, out=None):
            heads.append(len(logits))
            return real_probs(logits, out=out)

        def loss(logits, *args, **kwargs):
            result = real_loss(logits, *args, **kwargs)
            assert result[1] is logits is forwarded[-1].logits
            fact_probs = allocated[0].fact_probs
            assert np.isnan(fact_probs[max(heads):]).all() and not np.isnan(fact_probs[:heads[-1]]).any()
            return result

        for name, fn in (("step_views", views), ("forward_batch", forward), ("softmax_probs", probs),
                         ("total_loss", loss)):
            monkeypatch.setattr(model_mod, name, fn)
        result = train(prepared, settings)
        assert len(heads) == settings.steps and max(heads) < len(allocated[0].fact_probs)
        assert all(bits(getattr(result.params, name)) == bits(getattr(expected.params, name))
                   for name in PARAM_FIELDS)
        assert result.step_log == expected.step_log


@pytest.fixture(scope="module")
def warm_params():
    """Parameters after 150 sft steps on small_corpus(), so that the gates open on its facts."""
    return train_on(small_corpus(), TrainSettings(method="sft", lam=0.0, steps=150, batch_size=8, vocab_size=70,
                                                  seed=2, learning_rate=0.03)).params


def copy_params(params):
    return replace(params, **{name: getattr(params, name).copy() for name in PARAM_FIELDS})


def recorded_steps(monkeypatch, prepared, settings, block, start=None):
    """train(prepared, settings) with STEP_BLOCK_BYTES at `block` rows (None:
    the default) and init_params returning `start` (None: the seeded init).
    Returns the result and, per step, its positions, its forward_batch row
    counts, and copies of the parameters and gradients optimizer_step got."""
    import prism.model as model_mod
    steps = []
    real_positions, real_forward, real_step = (model_mod.PreparedCorpus.positions, model_mod.forward_batch,
                                               model_mod.optimizer_step)

    def positions(self, idx):
        at = real_positions(self, idx)
        steps.append({"at": at, "forwarded": []})
        return at

    def forward(params, windows, out=None):
        steps[-1]["forwarded"].append(len(windows))
        return real_forward(params, windows, out=out)

    def step(params, grads, state, settings):
        steps[-1]["params"] = copy_params(params)
        steps[-1]["grads"] = {name: grads[name].copy() for name in PARAM_FIELDS}
        return real_step(params, grads, state, settings)

    if block is not None:
        row = 8 * (settings.window * settings.embed_dim + settings.hidden_dim + settings.vocab_size)
        monkeypatch.setattr(model_mod, "STEP_BLOCK_BYTES", block * row)
    if start is not None:
        monkeypatch.setattr(model_mod, "init_params", lambda *args: copy_params(start))
    monkeypatch.setattr(model_mod.PreparedCorpus, "positions", positions)
    monkeypatch.setattr(model_mod, "forward_batch", forward)
    monkeypatch.setattr(model_mod, "optimizer_step", step)
    return train(prepared, settings), steps


def whole_batch_step(prepared, settings, at, params):
    """One forward_batch, total_loss and backward_batch over a step's whole
    batch: its log record (step 0), its gate counts and its gradients."""
    method = METHODS[settings.method]
    windows, rows = prepared.distinct_rows(at)
    labels, signals = prepared.labels[at], prepared.signals[at]
    n_sft, n_fact = int(signals.valid_mask.sum()), int(signals.fact_mask.sum())
    if method.drop_unsupported:
        signals = replace(signals, valid_mask=knowledge_mask_valid(signals))
    logits, cache = forward_batch(params, windows)
    fact = signals.fact_mask
    p_label = softmax_probs(logits)[rows[fact], labels[fact]]
    support = signals.support_weight[fact]
    loss, grad, trace = total_loss(logits, labels, signals, settings.lam if method.has_comp else 0.0,
                                   settings.epsilon, use_gates=method.use_gates,
                                   use_fact_mask=method.use_fact_mask, rows=rows)
    active = np.zeros(len(at), dtype=bool) if trace is None else trace.alpha > 0.0
    off = 0 if trace is None else int((active & ~(trace.pref_gate & trace.keep_gate)).sum())
    record = StepRecord(0, loss.sft, loss.comp, loss.total, n_sft, n_fact, int(active.sum()), off,
                        float(p_label[support < 1.0].mean()) if (support < 1.0).any() else None,
                        float(p_label[support >= 1.0].mean()) if (support >= 1.0).any() else None)
    return record, int((active & ~fact).sum()), backward_batch(params, windows, grad, cache)


class TestStepBlocks:
    """train runs a step's distinct windows in row blocks of at most
    block_rows(params, STEP_BLOCK_BYTES), with the step's position counts."""

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("method", list(METHODS))
    def test_a_split_step_is_the_whole_batch_step(self, monkeypatch, warm_params, method, lam):
        """With blocks of 16 rows every step of a V = 70 batch runs in at least
        3 blocks; against one whole-batch forward_batch, total_loss and
        backward_batch at the same parameters, its loss terms agree to 1e-12
        relative, each gradient optimizer_step gets agrees within 1e-12 of
        its largest magnitude, and the counts and counters are equal."""
        settings = TrainSettings(method=method, lam=lam, steps=4, batch_size=8, vocab_size=70, seed=3)
        prepared = prepare_examples(small_corpus(), settings.window, 70)
        result, steps = recorded_steps(monkeypatch, prepared, settings, 16, start=warm_params)
        assert len(steps) == len(result.step_log) == settings.steps
        nonfact = 0
        for seen, logged in zip(steps, result.step_log):
            assert len(seen["forwarded"]) >= 3 and max(seen["forwarded"]) <= 16
            assert sum(seen["forwarded"]) == len(prepared.distinct_rows(seen["at"])[0])
            record, alpha_nonfact, grads = whole_batch_step(prepared, settings, seen["at"], seen["params"])
            nonfact += alpha_nonfact
            for field in ("sft", "comp", "total", "p_risky", "p_safe"):
                assert getattr(logged, field) == pytest.approx(getattr(record, field), rel=1e-12, abs=0.0), field
            for field in ("n_sft", "n_fact", "alpha_active", "off_target"):
                assert getattr(logged, field) == getattr(record, field), field
            for name in PARAM_FIELDS:
                assert np.abs(seen["grads"][name] - grads[name]).max() <= 1e-12 * np.abs(grads[name]).max(), name
        counters = result.counters
        assert counters.alpha_active_total == sum(r.alpha_active for r in result.step_log)
        assert counters.off_target_total == sum(r.off_target for r in result.step_log)
        assert counters.alpha_nonfact_total == nonfact
        if lam and METHODS[method].has_comp:
            assert counters.alpha_active_total > 0  # the complement term is exercised

    @pytest.mark.parametrize("method, lam", [("sft", 0.0), ("prism", 0.1), ("prism_no_mask", 0.1)])
    def test_a_step_within_one_block_is_the_whole_batch_step_bit_for_bit(self, monkeypatch, warm_params,
                                                                         method, lam):
        settings = TrainSettings(method=method, lam=lam, steps=4, batch_size=8, vocab_size=70, seed=3)
        prepared = prepare_examples(small_corpus(), settings.window, 70)
        result, steps = recorded_steps(monkeypatch, prepared, settings, None, start=warm_params)
        for seen, logged in zip(steps, result.step_log):
            assert len(seen["forwarded"]) == 1
            record, _, grads = whole_batch_step(prepared, settings, seen["at"], seen["params"])
            assert repr(replace(logged, step=0)) == repr(record)
            assert all(bits(seen["grads"][name]) == bits(grads[name]) for name in PARAM_FIELDS)

    def test_a_split_step_matches_finite_differences(self, monkeypatch):
        """The gradients of a step run in blocks of 10 rows against central
        differences of the per-position loss over the batch, gates frozen."""
        settings = TrainSettings(method="prism_no_gate", lam=0.7, steps=1, batch_size=2, vocab_size=70,
                                 embed_dim=2, hidden_dim=3, window=2, seed=5)
        prepared = prepare_examples(small_corpus(), settings.window, 70)
        result, (seen,) = recorded_steps(monkeypatch, prepared, settings, 10)
        assert len(seen["forwarded"]) >= 3 and result.step_log[0].comp > 0.0
        params, at = seen["params"], seen["at"]
        windows = prepared.distinct[prepared.window_id[at]]
        labels, signals = prepared.labels[at].astype(np.int64), prepared.signals[at]
        trace = total_loss(forward_batch(params, windows)[0], labels, signals, settings.lam, use_gates=False)[2]
        alpha, n_fact = trace.alpha.copy(), int(signals.fact_mask.sum())
        every = np.arange(len(at))

        def loss_at(ps):
            z = forward_batch(ps, windows)[0]
            p_label = np.minimum(softmax_probs(z)[every, labels], 1.0 - settings.epsilon)
            comp = float((alpha * -np.log1p(-p_label)).sum() / n_fact)
            return standalone_sft(z, labels, signals.valid_mask)[0] + settings.lam * comp

        assert loss_at(params) == pytest.approx(result.step_log[0].total, rel=1e-12)
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            numeric = np.zeros_like(arr)
            for ij in np.ndindex(arr.shape):
                orig = arr[ij]
                arr[ij] = orig + 1e-5
                up = loss_at(params)
                arr[ij] = orig - 1e-5
                down = loss_at(params)
                arr[ij] = orig
                numeric[ij] = (up - down) / 2e-5
            analytic = seen["grads"][name]
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale < 1e-5, name

    @pytest.mark.parametrize("method, lam", [("sft", 0.0), ("prism", 0.1)])
    def test_a_split_step_with_no_valid_position_raises_once(self, monkeypatch, method, lam):
        """Every position masked: the first block's total_loss raises
        EmptyBatchError, and no later block runs."""
        import prism.model as model_mod
        examples = [replace(ex, valid_mask=[0] * len(ex.target_tokens), facts=[])
                    for ex in random_corpus(70, 4, length=30)]
        prepared = prepare_examples(examples, 4, 70)
        assert len(prepared.distinct_rows(prepared.positions(np.arange(4)))[0]) > 30
        calls = {"loss": 0}
        real_loss = model_mod.total_loss

        def loss(*args, **kwargs):
            calls["loss"] += 1
            return real_loss(*args, **kwargs)

        params = init_params(70, 16, 32, 4, np.random.default_rng(0))
        monkeypatch.setattr(model_mod, "STEP_BLOCK_BYTES", 10 * row_bytes(params))
        monkeypatch.setattr(model_mod, "total_loss", loss)
        with pytest.raises(EmptyBatchError, match="no valid target positions"):
            train(prepared, TrainSettings(method=method, lam=lam, steps=3, batch_size=4, vocab_size=70, seed=1))
        assert calls["loss"] == 1

    @pytest.mark.parametrize("method, lam", [("sft", 0.0), ("prism", 0.1), ("prism_no_gate", 0.5)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_in_a_later_block_name_the_step(self, monkeypatch, method, lam, bad):
        import prism.model as model_mod
        calls = {"forward": [], "update": 0}
        real_forward, real_step = model_mod.forward_batch, model_mod.optimizer_step

        def forward(params, windows, out=None):
            logits, cache = real_forward(params, windows, out=out)
            calls["forward"].append(calls["update"])
            if calls["update"] == 2 and calls["forward"].count(2) == 3:  # step 3's third block
                logits[-1, 5] = bad
            return logits, cache

        def step(params, grads, state, settings):
            calls["update"] += 1
            return real_step(params, grads, state, settings)

        params = init_params(70, 16, 32, 4, np.random.default_rng(0))
        monkeypatch.setattr(model_mod, "STEP_BLOCK_BYTES", 10 * row_bytes(params))
        monkeypatch.setattr(model_mod, "forward_batch", forward)
        monkeypatch.setattr(model_mod, "optimizer_step", step)
        settings = TrainSettings(method=method, lam=lam, steps=5, batch_size=4, vocab_size=70, seed=1)
        with pytest.raises(DivergenceError, match="^non-finite logits at step 3$"):
            train_on(small_corpus(n=20), settings)
        assert calls["update"] == 2 and calls["forward"].count(2) == 3

    def test_vocab_1024_steps_run_in_blocks_of_the_allocated_rows(self, monkeypatch):
        """At V = 1024 and batch 32, the run allocates its step arrays for one
        block at the default STEP_BLOCK_BYTES, no forward_batch gets more
        rows, and steps run in more than one block."""
        import prism.model as model_mod
        examples, vocab = CAP_CORPORA["wide_vocab"]()
        settings = TrainSettings(method="prism", lam=0.1, steps=4, batch_size=32, vocab_size=vocab, seed=4)
        prepared = prepare_examples(examples, settings.window, vocab)
        allocated, forwarded = [], []
        real_views, real_forward = model_mod.step_views, model_mod.forward_batch

        def views(params, rows):
            allocated.append((model_mod.block_rows(params, model_mod.STEP_BLOCK_BYTES), real_views(params, rows)))
            return allocated[-1][1]

        def forward(params, windows, out=None):
            forwarded.append(len(windows))
            return real_forward(params, windows, out=out)

        monkeypatch.setattr(model_mod, "step_views", views)
        monkeypatch.setattr(model_mod, "forward_batch", forward)
        train(prepared, settings)
        ((block, arrays),) = allocated
        assert block == 234 and all(len(a) == block for a in arrays)
        assert max(forwarded) <= block and len(forwarded) > settings.steps


class TestLockstep:
    """A sequence of settings that differ only in lam trains as one group, in
    lockstep over stacked parameters; each run keeps the bits of train over
    its settings alone."""

    # (corpus, method, batch_size): at V = 70 a step is one row block, at V = 1024 and batch 32 several
    CASES = [("sweep", "prism", 8), ("sweep", "prism_no_mask", 8), ("sweep", "prism_no_gate", 8),
             ("wide_vocab", "prism", 32)]

    @pytest.mark.parametrize("shape, method, batch_size", CASES)
    def test_each_run_of_a_group_is_its_standalone_run(self, monkeypatch, shape, method, batch_size):
        """Groups of K = 1..5 runs over lambda lists that hold 0, from
        parameters warm enough that the gates open: every run's parameters,
        step log and counters equal a standalone train's bit for bit, and the
        group makes one forward_batch call per row block, not one per run."""
        import prism.model as model_mod
        examples, vocab = CAP_CORPORA[shape]()
        prepared = prepare_examples(examples, 4, vocab)
        warm = train(prepared, TrainSettings(method="sft", lam=0.0, steps=150, batch_size=8, vocab_size=vocab,
                                             seed=2, learning_rate=0.03)).params
        monkeypatch.setattr(model_mod, "init_params", lambda *args: copy_params(warm))
        base = TrainSettings(method=method, steps=6, batch_size=batch_size, vocab_size=vocab, seed=4,
                             learning_rate=0.02)
        lams = [0.0, 0.5, 0.1, 0.01, 1.0]
        alone = {lam: train(prepared, replace(base, lam=lam)) for lam in lams}
        forwarded = []
        real_forward = model_mod.forward_batch

        def forward(params, windows, out=None):
            forwarded.append(params.embedding.shape)
            return real_forward(params, windows, out=out)

        monkeypatch.setattr(model_mod, "forward_batch", forward)
        for k in range(1, len(lams) + 1):
            forwarded.clear()
            group = train(prepared, [replace(base, lam=lam) for lam in lams[:k]])
            assert len(group) == k
            for lam, result in zip(lams, group):
                expected = alone[lam]
                assert repr(result.step_log) == repr(expected.step_log), (k, lam)
                assert result.counters == expected.counters, (k, lam)
                assert all(bits(getattr(result.params, name)) == bits(getattr(expected.params, name))
                           for name in PARAM_FIELDS), (k, lam)
            assert set(forwarded) == {(k, vocab, base.embed_dim) if k > 1 else (vocab, base.embed_dim)}
            blocks = len(forwarded) / base.steps
            assert blocks > 1 if shape == "wide_vocab" else blocks == 1
        assert alone[0.5].counters.alpha_active_total > 0  # the complement term is exercised
        if method == "prism_no_mask":
            assert alone[0.5].counters.alpha_nonfact_total > 0

    def test_the_objective_scores_one_run_at_a_time(self, monkeypatch):
        """In a group at lambdas 0, 0.1 and 0.5, each row block calls
        comp_loss once for each run with a complement term, over that run's
        own rows of the stacked logits; the run at lambda 0 makes no call."""
        import prism.model as model_mod
        import prism.objective as objective_mod
        prepared = prepare_examples(small_corpus(n=20), 4, 70)
        base = TrainSettings(method="prism", steps=3, batch_size=4, vocab_size=70, seed=1)
        blocks = []  # each block's stacked logits and the probabilities of its comp_loss calls
        real_forward, real_comp = model_mod.forward_batch, objective_mod.comp_loss

        def forward(params, windows, out=None):
            logits, cache = real_forward(params, windows, out=out)
            blocks.append((logits, []))
            return logits, cache

        def comp(soft, *args, **kwargs):
            blocks[-1][1].append(soft.probs)
            return real_comp(soft, *args, **kwargs)

        monkeypatch.setattr(model_mod, "forward_batch", forward)
        monkeypatch.setattr(objective_mod, "comp_loss", comp)
        train(prepared, [replace(base, lam=lam) for lam in (0.0, 0.1, 0.5)])
        assert len(blocks) == base.steps
        for logits, probs in blocks:
            assert logits.shape[0] == 3 and len(probs) == 2
            for run, p in zip((1, 2), probs):
                assert p.shape == logits.shape[1:]
                assert [k for k in range(3) if np.shares_memory(p, logits[k])] == [run]

    def test_a_one_block_step_logs_the_loss_terms_total_loss_gives(self, monkeypatch):
        """A saturated model's SFT term is -0.0 (every label's log-probability
        is 0.0): the first block's terms are taken as they are, alone and in
        a group, not added to 0.0, which would log 0.0."""
        import prism.model as model_mod
        prepared = prepare_examples(small_corpus(n=20), 4, 70)
        base = TrainSettings(method="prism", steps=2, batch_size=4, vocab_size=70, seed=1)
        real_loss = model_mod.total_loss

        def signed(*args, **kwargs):
            loss, grad, trace = real_loss(*args, **kwargs)
            return LossBreakdown(-0.0, -0.0, -0.0), grad, trace

        monkeypatch.setattr(model_mod, "total_loss", signed)
        results = [train(prepared, base), *train(prepared, [base, replace(base, lam=0.0)])]
        for record in (record for result in results for record in result.step_log):
            assert all(math.copysign(1.0, value) == -1.0 for value in (record.sft, record.comp, record.total))

    def test_a_group_differs_in_lam_alone(self):
        prepared = prepare_examples(small_corpus(n=20), 4, 70)
        base = TrainSettings(method="prism", lam=0.1, steps=2, batch_size=4, vocab_size=70, seed=1)
        with pytest.raises(ConfigError, match="differ in lam alone"):
            train(prepared, [base, replace(base, lam=0.5, seed=2)])
        with pytest.raises(ConfigError, match="no runs"):
            train(prepared, [])
        (one,) = train(prepared, [base])
        alone = train(prepared, base)
        assert one.step_log == alone.step_log and bits(one.params.w2) == bits(alone.params.w2)


class TestGatePass:
    def test_per_example_equals_a_pass_over_each_example(self):
        prep = prepare_examples(small_corpus(n=40), window=4, vocab_size=70)
        params = init_params(70, 8, 12, 4, np.random.default_rng(6))
        grouped = gate_pass(params, prep)
        for field in GATE_FIELDS:
            alone = np.concatenate([getattr(gate_pass(params, p), field) for p in prep])
            assert bits(getattr(grouped, field)) == bits(alone)

    def test_per_example_forwards_each_examples_distinct_windows(self, monkeypatch):
        import prism.model as model_mod
        prep = prepare_examples(small_corpus(n=12), window=4, vocab_size=70)[3:]
        forwarded, original_forward = [], model_mod.forward_batch

        def forward(params, windows, out=None, splits=None):
            forwarded.append((np.array(windows), splits))
            return original_forward(params, windows, out=out, splits=splits)

        monkeypatch.setattr(model_mod, "forward_batch", forward)
        gate_pass(init_params(70, 8, 12, 4, np.random.default_rng(6)), prep)
        [(windows, splits)] = forwarded
        assert len(splits) == len(prep) + 1
        for a, b, p in zip(splits[:-1], splits[1:], prep):
            assert bits(windows[a:b]) == bits(p.distinct_rows()[0])

    @pytest.mark.parametrize("budget_rows", [0, 1, 12, 40, 10**6])
    def test_record_groups_are_consecutive_and_within_the_bound(self, monkeypatch, budget_rows):
        import prism.model as model_mod
        prep = prepare_examples(small_corpus(n=40), window=4, vocab_size=70)
        params = init_params(70, 8, 12, 4, np.random.default_rng(6))
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", budget_rows * row_bytes(params))
        assert block_rows(params, model_mod.BLOCK_BYTES) == budget_rows
        groups = list(record_groups(params, prep))
        assert groups == record_groups_reference(prep, budget_rows)
        assert groups[0][0] == 0 and groups[-1][1] == len(prep)
        assert all(stop == start for (_, stop), (start, _) in zip(groups, groups[1:]))
        assert all(stop - start == 1 or prep.offsets[stop] - prep.offsets[start] <= budget_rows
                   for start, stop in groups)
        sizes = [stop - start for start, stop in groups]
        if budget_rows == 12:  # the records of 15 and 20 positions are groups of their own
            assert max(np.diff(prep.offsets)) > budget_rows and max(sizes) == 1
        assert (max(sizes) > 1) == (budget_rows >= 40) and (len(groups) == 1) == (budget_rows == 10**6)

    def test_blocks_at_vocab_1024_match_the_one_block_pass(self):
        """At the wide benchmark's V = 1024 and model, evaluate's values in
        record groups within BLOCK_BYTES are those of one group over the whole
        split, bit for bit."""
        import prism.model as model_mod
        prep = prepare_examples(random_corpus(1024, n=60), window=4, vocab_size=1024)
        params = init_params(1024, 32, 64, 4, np.random.default_rng(3))
        params.w2 *= 8.0
        assert len(prep.distinct_rows()[0]) > 3 * block_rows(params, model_mod.BLOCK_BYTES)
        grouped, n_grouped, _ = evaluated_trace(params, prep, model_mod.BLOCK_BYTES)
        whole, n_whole, _ = evaluated_trace(params, prep, 2**40)
        assert n_grouped > 3 and n_whole == 1
        assert (whole.alpha > 0).any()
        for field in GATE_FIELDS:
            assert bits(getattr(grouped, field)) == bits(getattr(whole, field))


def evaluated_trace(params, prep, budget):
    """The per-position GateTrace that evaluate(params, prep) reads its
    metrics from with BLOCK_BYTES at `budget`, the number of gate_pass calls
    it is joined from, and the metrics."""
    import prism.model as model_mod
    parts, real = [], model_mod.gate_pass

    def spy(params, prepared):
        parts.append(real(params, prepared))
        return parts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_mod, "gate_pass", spy)
        patch.setattr(model_mod, "BLOCK_BYTES", budget)
        metrics = evaluate(params, prep)
    joined = GateTrace(*(np.concatenate([getattr(p, field) for p in parts]) for field in GATE_FIELDS))
    assert len(joined.p_label) == len(prep.labels)
    return joined, len(parts), metrics


def check_bound_free(params, prep):
    """evaluate's per-position values and metrics are the same bits with
    BLOCK_BYTES at 1 byte, one record's rows, the default and 2**40, and
    equal one gate_pass per record; returns the group counts."""
    import prism.model as model_mod
    want = GateTrace(*(np.concatenate([getattr(gate_pass(params, p), field) for p in prep])
                       for field in GATE_FIELDS))
    longest = int(np.diff(prep.offsets).max())
    counts, shown = [], set()
    for budget in (1, longest * row_bytes(params), model_mod.BLOCK_BYTES, 2**40):
        got, n_groups, metrics = evaluated_trace(params, prep, budget)
        for field in GATE_FIELDS:
            assert bits(getattr(got, field)) == bits(getattr(want, field))
        counts.append(n_groups)
        shown.add(repr(metrics))
    assert len(shown) == 1
    assert counts[0] == len(prep) and counts[-1] == 1
    return counts


# readme_corpus overrides: the quick-start corpus and the sweep_acceptance
# benchmark corpus at seed 3.  After 20 training steps, a forward pass over
# either eval split's distinct windows in row blocks changed p_label values
# against one pass.
BOUND_FREE_CORPORA = {"readme": {}, "sweep_acceptance-3": dict(plant_defects=8, seed=3)}


class TestEvaluate:
    def test_groups_and_rates(self):
        examples = small_corpus(n=80)
        prep = prepare_examples(examples, window=4, vocab_size=70)
        params = init_params(70, 8, 12, 4, np.random.default_rng(6))
        metrics = evaluate(params, prep)
        assert metrics["mean_p_risky_fact"] is not None
        assert metrics["mean_p_safe_fact"] is not None
        for key in ("nonfact_top1_acc", "gate_active_rate", "risky_top1_rate"):
            assert 0.0 <= metrics[key] <= 1.0

    def test_no_facts_yields_none_groups(self):
        ex = AnnotatedExample(
            input_tokens=[1], target_tokens=[2, 3], valid_mask=[1, 1],
            sentences=[SentenceSpan(0, 2, 0.0)], facts=[], edges=[],
        )
        prep = prepare_examples([ex], window=2, vocab_size=5)
        metrics = evaluate(init_params(5, 3, 4, 2, np.random.default_rng(7)), prep)
        assert metrics["mean_p_risky_fact"] is None
        assert metrics["gate_active_rate"] is None
        assert metrics["mean_p_nonfact"] is not None

    def test_equals_the_comp_loss_reference(self):
        examples = small_corpus(n=120)
        settings = TrainSettings(method="prism", lam=0.1, steps=150, batch_size=16, learning_rate=0.01,
                                 vocab_size=70, seed=4)
        params = train_on(examples, settings).params
        params.w2 *= 3.0  # sharper: most fact rows saturate the clamp, p_label >= 1 - epsilon
        params.b2 *= 3.0
        prep = prepare_examples(examples, window=4, vocab_size=70)
        labels = np.concatenate([p.labels for p in prep])
        fact = np.concatenate([p.signals.fact_mask for p in prep])
        logits, _ = forward_batch(params, np.concatenate([p.distinct[p.window_id] for p in prep]))
        p_label = softmax_probs(logits)[np.arange(len(labels)), labels][fact]
        assert (p_label >= 1.0 - 1e-6).any() and (p_label < 1.0 - 1e-6).any()
        metrics = evaluate(params, prep)
        assert repr(metrics) == repr(evaluate_reference(params, prep))
        assert 0.0 < metrics["gate_active_rate"] < metrics["gate_keep_rate"] < 1.0

    def test_forward_batch_gets_the_distinct_windows_only(self, monkeypatch):
        import prism.model as model_mod
        split = prepare_examples(small_corpus(n=40), window=4, vocab_size=70)[30:]
        forwarded, original_forward = [], model_mod.forward_batch

        def forward(params, windows, out=None, splits=None):
            forwarded.append((np.array(windows), splits))
            return original_forward(params, windows, out=out, splits=splits)

        monkeypatch.setattr(model_mod, "forward_batch", forward)
        params = init_params(70, 8, 12, 4, np.random.default_rng(6))
        metrics = evaluate(params, split)
        [(windows, splits)] = forwarded  # the ten records make one group
        assert len(windows) < len(split.labels) and len(splits) == len(split) + 1
        for a, b, record in zip(splits[:-1], splits[1:], split):  # one matmul pair per record
            assert windows[a:b].tobytes() == record.distinct_rows()[0].tobytes()
        # a bound of a third of the split's positions: three groups or more, each forwarded by records
        forwarded.clear()
        monkeypatch.setattr(model_mod, "BLOCK_BYTES", row_bytes(params) * -(-len(split.labels) // 3))
        evaluate(params, split)
        assert len(forwarded) >= 3 and sum(len(splits) - 1 for _, splits in forwarded) == len(split)
        assert np.concatenate([w for w, _ in forwarded]).tobytes() == windows.tobytes()
        monkeypatch.undo()
        assert repr(metrics) == repr(evaluate_reference(params, split))

    @pytest.mark.parametrize("name", sorted(BOUND_FREE_CORPORA))
    def test_trained_values_do_not_depend_on_the_bound(self, name):
        examples = readme_corpus(**BOUND_FREE_CORPORA[name])
        vocab = infer_vocab_size(examples)
        prep = prepare_examples(examples, window=4, vocab_size=vocab)
        settings = TrainSettings(method="prism", lam=0.1, steps=20, batch_size=32, learning_rate=0.003,
                                 embed_dim=32, hidden_dim=64, vocab_size=vocab, seed=7)
        params = train(prep[:-200], settings).params
        counts = check_bound_free(params, prep[len(prep) - 200:])
        assert counts[2] > 1  # the default bound runs the eval split in several groups

    @given(small_configs())
    @settings(max_examples=30, deadline=None)
    def test_values_do_not_depend_on_the_bound_on_small_configs(self, cfg):
        chunks = [c for ex in verify_and_filter(generate(cfg)).kept for c in chunk(ex, cfg.chunk_limit)]
        prep = prepare_examples(chunks, window=3, vocab_size=cfg.vocab_size)
        params = init_params(cfg.vocab_size, 6, 8, 3, np.random.default_rng(cfg.seed))
        params.w2 *= 40.0  # peaked rows, so the gates open
        check_bound_free(params, prep)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_logits_give_the_reference_error(self, value):
        prep = prepare_examples(small_corpus(n=5), window=4, vocab_size=70)
        params = init_params(70, 8, 12, 4, np.random.default_rng(6))
        params.b2[7] = value
        errors = []
        for fn in (evaluate, evaluate_reference):
            with pytest.raises(DivergenceError) as info:
                fn(params, prep)
            errors.append(str(info.value))
        assert errors == ["non-finite logits in evaluation"] * 2

    def test_peak_memory_is_one_rows_by_vocab_array(self):
        """evaluate holds one [rows, V] float64 array of a row block at a time:
        the logits, then the probabilities written over them, here on a split
        whose [D, V] logits would take ten times BLOCK_BYTES."""
        import prism.model as model_mod
        vocab = 1024
        prep = prepare_examples(random_corpus(vocab, n=140), window=4, vocab_size=vocab)
        assert len(prep.distinct_rows()[0]) * vocab * 8 >= 10 * model_mod.BLOCK_BYTES
        params = init_params(vocab, 8, 16, 4, np.random.default_rng(9))
        evaluate(params, prep)
        tracemalloc.start()
        try:
            evaluate(params, prep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * model_mod.BLOCK_BYTES

    def test_overflowing_logits_are_divergence(self):
        prep = prepare_examples(small_corpus(n=5), window=4, vocab_size=70)
        params = init_params(70, 8, 12, 4, np.random.default_rng(6))
        params.b1[0] = 50.0  # hidden unit 0 saturates at 1 on every row
        params.w2[0, 0] = params.b2[0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="non-finite logits"):
            evaluate(params, prep)


class TestCheckpoint:
    def test_round_trip_is_lossless(self, tmp_path):
        examples = small_corpus(n=30)
        settings = TrainSettings(method="prism", lam=0.1, steps=10, batch_size=8,
                                 vocab_size=70, seed=3)
        result = train_on(examples, settings)
        path = str(tmp_path / "ck.json")
        config = {"method": "prism", "lambda": 0.1, "seed": 3}
        save_checkpoint(path, result.params, config)
        ck = load_checkpoint(path)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(ck.params, name), getattr(result.params, name))
        assert ck.config == config

    def test_tampered_config_rejected(self, tmp_path):
        params = init_params(5, 2, 3, 2, np.random.default_rng(8))
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, params, {"seed": 1})
        payload = json.loads(open(path).read())
        payload["config"]["seed"] = 2
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path)

    def test_unreadable_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestInferVocab:
    def test_covers_input_and_target(self):
        ex = AnnotatedExample(input_tokens=[9], target_tokens=[3], valid_mask=[1],
                              sentences=[], facts=[], edges=[])
        assert infer_vocab_size([ex]) == 10
