"""Acceptance suite.

Each test is one numbered criterion, checked at its stated tolerance, and
prints a single PASS line on success (run with -s or -rA to see them; a
failure shows up as the test's FAILED line).  The heavyweight fixtures (the
planted-risk corpus and the shared-seed lambda sweep) are built once per
module.
"""

import math
import time

import numpy as np
import pytest

from prism.corpus import (
    GeneratorConfig,
    generate,
    read_jsonl,
    verify_and_filter,
    write_jsonl,
)
from prism.fact_graph import DependencyEdge, SentenceSpan, TokenSignals, propagate_risk
from prism.harness import fork_map
from prism.model import (
    PARAM_FIELDS,
    TrainSettings,
    evaluate,
    prepare_examples,
    train,
)
from prism.objective import softmax_probs, total_loss

from oracles import (
    finite_difference_gradient,
    keep_gate,
    knowledge_mask_loss,
    redistribute,
    standalone_comp,
    standalone_sft,
)

# Frozen acceptance configuration: a planted-risk corpus of ~2000 examples
# (vocab 70 <= 128) and a shared-seed training setup.  Margins over the
# criteria were verified to be robust across neighbouring seeds.
GEN = GeneratorConfig(
    vocab_size=70,
    n_examples=2000,
    n_keys=20,
    n_values=20,
    sentence_length=5,
    corruption_fraction=0.3,
    risk_min=0.5,
    risk_max=0.9,
    dependency_p=0.25,
    seed=11,
)
N_EVAL = 200
LAMBDAS = (0.0, 0.01, 0.1, 0.5, 1.0)


def settings_for(lam, method="prism", steps=1300):
    return TrainSettings(
        method=method,
        lam=lam,
        steps=steps,
        batch_size=32,
        learning_rate=3e-3,
        embed_dim=32,
        hidden_dim=64,
        window=4,
        vocab_size=70,
        seed=7,
    )


def prepared(examples):
    return prepare_examples(examples, window=4, vocab_size=70)


def _passed(n, message):
    print(f"criterion {n:>2} PASS  {message}")


@pytest.fixture(scope="module")
def corpus():
    return generate(GEN)


@pytest.fixture(scope="module")
def sweep(corpus):
    """One full training run per lambda, shared seed, corpus and preparation,
    run on every core as `prism ablate` runs its sweep."""
    train_ex, eval_ex = corpus[:-N_EVAL], corpus[-N_EVAL:]
    prep_train, prep_eval = prepared(train_ex), prepared(eval_ex)

    def run(lam):
        start = time.monotonic()
        result = train(prep_train, settings_for(lam))
        metrics = evaluate(result.params, prep_eval)
        return {
            "metrics": metrics,
            "counters": result.counters,
            "seconds": time.monotonic() - start,
        }

    out = {}
    for lam, (outcome, error) in zip(LAMBDAS, fork_map(run, LAMBDAS)):
        if error is not None:
            raise error
        out[lam] = outcome
    return out


def test_criterion_01_gate_oracle_equivalence():
    # keep gate vs redistribute-then-argmax on >= 10,000 draws, V in 2..64,
    # strict label argmax; 100% agreement required, under 10 seconds
    rng = np.random.default_rng(101)
    start = time.monotonic()
    checked = 0
    while checked < 10_000:
        size = int(rng.integers(2, 65))
        probs = rng.dirichlet(np.ones(size))
        label = int(np.argmax(probs))
        q_max = float(np.delete(probs, label).max())
        if probs[label] <= q_max:
            continue
        w = float(rng.uniform())
        out = redistribute(probs, label, w)
        stays = out[label] >= np.delete(out, label).max()
        assert keep_gate(float(probs[label]), q_max, w) == int(stays)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(1, f"10000/10000 gate decisions match the redistribution oracle ({elapsed:.2f}s)")


def test_criterion_02_simplex_preservation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        size = int(rng.integers(2, 65))
        probs = rng.dirichlet(np.ones(size))
        out = redistribute(probs, int(rng.integers(0, size)), float(rng.uniform()))
        assert (out >= 0.0).all()
        worst = max(worst, abs(out.sum() - 1.0))
    assert worst < 1e-12
    _passed(2, f"10000 redistributions stay on the simplex (worst |sum-1| = {worst:.2e})")


def _frozen_comp_surface(labels, alpha, n_fact, epsilon=1e-6):
    rows = np.arange(len(labels))

    def f(z):
        p_label = np.minimum(softmax_probs(z)[rows, labels], 1.0 - epsilon)
        return float((alpha * -np.log1p(-p_label)).sum() / n_fact)

    return f


def test_criterion_03_gradient_correctness():
    # analytic vs central finite differences, 100 random batches, T<=8 V<=16,
    # relative error <= 1e-5; comp gradient rows sum to zero within 1e-12
    rng = np.random.default_rng(103)
    worst_rel = 0.0
    worst_rowsum = 0.0
    active_total = 0
    for _ in range(100):
        length, vocab = int(rng.integers(1, 9)), int(rng.integers(2, 17))
        logits = rng.normal(size=(length, vocab)) * 2.0
        labels = logits.argmax(axis=1)  # keeps the gates reachable
        fact = rng.integers(0, 2, size=length)
        if fact.sum() == 0:
            fact[0] = 1
        signals = TokenSignals(
            fact_mask=fact.astype(bool),
            support_weight=rng.uniform(size=length),
            valid_mask=np.ones(length, dtype=bool),
        )
        lam = float(rng.uniform(0.05, 1.5))

        sft_value, sft_grad = standalone_sft(logits, labels, signals.valid_mask)
        comp_value, comp_grad, trace = standalone_comp(logits, labels, signals)
        breakdown, total_grad, _ = total_loss(logits, labels, signals, lam=lam)
        active_total += int((trace.alpha > 0).sum())
        worst_rowsum = max(worst_rowsum, float(np.abs(comp_grad.sum(axis=1)).max()))

        comp_surface = _frozen_comp_surface(labels, trace.alpha.copy(), int(fact.sum()))
        assert comp_surface(logits) == pytest.approx(comp_value, abs=1e-14)
        surfaces = (
            (sft_grad, lambda z: standalone_sft(z, labels, signals.valid_mask)[0]),
            (comp_grad, comp_surface),
            (total_grad, lambda z: standalone_sft(z, labels, signals.valid_mask)[0] + lam * comp_surface(z)),
        )
        for analytic, surface in surfaces:
            numeric = finite_difference_gradient(surface, logits)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
            worst_rel = max(worst_rel, float(np.abs(analytic - numeric).max() / scale))
    assert worst_rel < 1e-5
    assert worst_rowsum < 1e-12
    assert active_total > 50
    _passed(3, f"100 batches: worst relative gradient error {worst_rel:.2e}, "
               f"worst comp row sum {worst_rowsum:.2e}")


def test_criterion_04_hand_examples():
    assert keep_gate(0.6, 0.3, 0.5) == 0
    assert keep_gate(0.9, 0.05, 0.5) == 1
    # Eq-style gradient at p = (0.7, 0.2, 0.1) with the gate weight pinned to 1
    # (reachable only with the gates off: w = 0 always fails the keep gate)
    logits = np.log(np.array([[0.7, 0.2, 0.1]]))
    signals = TokenSignals(
        fact_mask=np.array([True]),
        support_weight=np.array([0.0]),
        valid_mask=np.array([True]),
    )
    _, grad, trace = standalone_comp(logits, np.array([0]), signals, use_gates=False)
    assert trace.alpha[0] == 1.0
    expected = np.array([0.7, -7.0 / 15.0, -7.0 / 30.0])
    assert np.abs(grad[0] - expected).max() < 1e-12
    _passed(4, "keep-gate hand values and the [0.7, -7/15, -7/30] gradient hold to 1e-12")


def test_criterion_05_degeneracies(corpus):
    prep_train = prepared(corpus[:-N_EVAL])
    sft_run = train(prep_train, settings_for(0.0, method="sft", steps=200))
    prism_run = train(prep_train, settings_for(0.0, method="prism", steps=200))
    assert sft_run.step_log == prism_run.step_log
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(sft_run.params, name), getattr(prism_run.params, name))

    clean = generate(GeneratorConfig(**{**GEN.__dict__, "corruption_fraction": 0.0,
                                        "n_examples": 500}))
    prep_clean = prepared(clean)
    km_run = train(prep_clean, settings_for(0.0, method="knowledge_mask", steps=200))
    sft_clean = train(prep_clean, settings_for(0.0, method="sft", steps=200))
    assert km_run.step_log == sft_clean.step_log
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(km_run.params, name), getattr(sft_clean.params, name))
    _passed(5, "prism@lambda=0 == sft and knowledge_mask == sft (all-supported), "
               "bit-identical over 200 steps")


def test_criterion_06_mechanism_demonstration(sweep):
    base = sweep[0.0]["metrics"]
    treated = sweep[0.1]["metrics"]
    p_base, p_treated = base["mean_p_risky_fact"], treated["mean_p_risky_fact"]
    rel_drop = (p_base - p_treated) / p_base
    acc_delta = treated["nonfact_top1_acc"] - base["nonfact_top1_acc"]
    seconds = sweep[0.0]["seconds"] + sweep[0.1]["seconds"]
    assert rel_drop >= 0.10, f"risky-token confidence only dropped {rel_drop:.1%}"
    assert acc_delta >= -0.02, f"non-fact accuracy degraded {-acc_delta:.3f}"
    assert seconds < 300.0
    _passed(6, f"risky p_label {p_base:.4f} -> {p_treated:.4f} "
               f"(-{rel_drop:.1%}), non-fact acc delta {acc_delta:+.4f}, {seconds:.0f}s")


def test_criterion_07_lambda_tradeoff_trend(sweep):
    base = sweep[0.0]["metrics"]
    suppression = [base["mean_p_risky_fact"] - sweep[lam]["metrics"]["mean_p_risky_fact"]
                   for lam in LAMBDAS]
    for earlier, later in zip(suppression, suppression[1:]):
        assert later >= earlier, f"suppression not monotone: {suppression}"
    cap_01 = sweep[0.1]["metrics"]["nonfact_top1_acc"]
    cap_10 = sweep[1.0]["metrics"]["nonfact_top1_acc"]
    assert cap_10 <= cap_01, f"capability proxy improved at lambda=1.0: {cap_10} > {cap_01}"
    _passed(7, "suppression non-decreasing over lambdas "
               + "/".join(f"{s:.4f}" for s in suppression)
               + f"; capability {cap_10:.4f} (lam=1.0) <= {cap_01:.4f} (lam=0.1)")


def test_criterion_08_component_roles(corpus, sweep):
    assert sweep[0.1]["counters"].off_target_total == 0
    assert sweep[0.1]["counters"].alpha_nonfact_total == 0

    prep_slice = prepared(corpus[:300])
    no_gate = train(prep_slice, settings_for(0.1, method="prism_no_gate", steps=150))
    assert no_gate.counters.off_target_total > 0
    no_mask = train(prep_slice, settings_for(0.1, method="prism_no_mask", steps=150))
    assert no_mask.counters.alpha_nonfact_total > 0
    _passed(8, f"prism: 0 off-target / 0 non-fact activations; "
               f"no_gate: {no_gate.counters.off_target_total} off-target; "
               f"no_mask: {no_mask.counters.alpha_nonfact_total} non-fact activations")


def test_criterion_09_risk_propagation_oracle():
    rng = np.random.default_rng(109)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        risks = rng.uniform(size=n)
        sentences = [SentenceSpan(3 * j, 3 * j + 3, float(risks[j])) for j in range(n)]
        edges = [DependencyEdge(i + 1, j + 1)
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        got = propagate_risk(sentences, edges)
        for j in range(1, n + 1):
            incoming = [risks[e.src - 1] for e in edges if e.dst == j]
            literal = max([risks[j - 1]] + incoming)
            assert got[j - 1] == literal
    _passed(9, "1000 random DAGs (<= 10 sentences) match the literal one-hop evaluator exactly")


def test_criterion_10_corpus_round_trip_and_filter(corpus, tmp_path):
    path = str(tmp_path / "acceptance.jsonl")
    write_jsonl(corpus, path)
    assert read_jsonl(path) == corpus

    planted = generate(GeneratorConfig(**{**GEN.__dict__, "n_examples": 40,
                                          "plant_defects": 8}))
    report = verify_and_filter(planted)
    assert report.kept == planted[:40]
    assert len(report.rejected) == 8
    rejected_set = {id(ex) for ex, _ in report.rejected}
    assert rejected_set == {id(ex) for ex in planted[40:]}
    _passed(10, f"round trip identical on {len(corpus)} examples; "
                f"filter rejected exactly the 8 planted defects")
