"""Generator statistics, chunking, filtering, and JSONL round trips."""

import dataclasses
import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import chunk_reference, generate_reference

from prism import harness
from prism.corpus import (
    MAX_CORPUS_TOKENS,
    MAX_VOCAB_SIZE,
    AnnotatedExample,
    GeneratorConfig,
    N_SPECIAL,
    TOKEN_PERIOD,
    _check_object,
    _lines,
    atomic_write,
    chunk,
    example_from_record,
    example_to_record,
    generate,
    iter_jsonl,
    key_token,
    line_ranges,
    n_filler,
    read_jsonl,
    stats_table,
    verify_and_filter,
    write_jsonl,
)
from prism.errors import AnnotationError, ConfigError, CorpusFormatError
from prism.fact_graph import (
    DependencyEdge,
    FactSpan,
    SentenceSpan,
    propagate_risk,
)


def config(**overrides):
    base = dict(vocab_size=70, n_examples=50, n_keys=10, n_values=10,
                sentence_length=5, corruption_fraction=0.3, risk_min=0.5,
                risk_max=0.9, dependency_p=0.25, seed=13)
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGenerate:
    def test_deterministic_under_seed(self):
        a = generate(config())
        b = generate(config())
        assert a == b

    def test_different_seed_differs(self):
        assert generate(config()) != generate(config(seed=14))

    def test_no_corruption_means_no_risk(self):
        examples = generate(config(corruption_fraction=0.0))
        for ex in examples:
            assert all(s.risk == 0.0 for s in ex.sentences)

    def test_corruption_fraction_shows_up_in_fact_spans(self):
        # ~30% of fact spans should sit in sentences with effective risk >= 0.5
        examples = generate(config(n_examples=1000, n_keys=20, n_values=20,
                                   corruption_fraction=0.3))
        risky = total = 0
        for ex in examples:
            eff = propagate_risk(ex.sentences, ex.edges)
            for f in ex.facts:
                total += 1
                risky += eff[f.sentence - 1] >= 0.5
        assert total > 2000
        assert abs(risky / total - 0.3) < 0.05

    def test_annotations_all_pass_the_filter(self):
        report = verify_and_filter(generate(config(n_examples=200)))
        assert not report.rejected

    def test_token_texts_segment_back_to_sentence_spans(self):
        # cutting the target after every period token gives back the sentence spans
        for ex in generate(config())[:20]:
            assert ex.sentences[0].token_start == 0
            assert ex.sentences[-1].token_end == len(ex.target_tokens)
            for a, b in zip(ex.sentences, ex.sentences[1:]):
                assert a.token_end == b.token_start
            for s in ex.sentences:
                assert ex.target_tokens[s.token_end - 1] == TOKEN_PERIOD
                assert TOKEN_PERIOD not in ex.target_tokens[s.token_start:s.token_end - 1]

    def test_dependency_edges_point_at_prior_mentions(self):
        examples = generate(config(n_examples=300, dependency_p=0.6))
        n_edges = 0
        for ex in examples:
            key_of = {}
            for f in ex.facts:
                key_of.setdefault(f.sentence, ex.target_tokens[f.token_start - 2])
            for e in ex.edges:
                n_edges += 1
                assert e.src < e.dst
                assert key_of[e.src] == key_of[e.dst]
        assert n_edges > 100

    def test_restatement_risk_arrives_by_propagation(self):
        # some restatements of corrupted facts carry raw risk 0 but inherit
        # effective risk through their edge
        examples = generate(config(n_examples=500, dependency_p=0.5))
        inherited = 0
        for ex in examples:
            for s, eff in zip(ex.sentences, propagate_risk(ex.sentences, ex.edges)):
                if s.risk == 0.0 and eff >= 0.5:
                    inherited += 1
        assert inherited > 20

    def test_infeasible_density_rejected(self):
        with pytest.raises(ConfigError, match="density"):
            generate(config(facts_per_sentence=2, sentence_length=5))

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ConfigError, match="vocab"):
            generate(config(vocab_size=20, n_keys=10, n_values=10))

    def test_bounds_hold_at_their_limits(self):
        GeneratorConfig(vocab_size=MAX_VOCAB_SIZE).validate()
        with pytest.raises(ConfigError, match=f"vocab_size {MAX_VOCAB_SIZE + 1} exceeds the limit"):
            GeneratorConfig(vocab_size=MAX_VOCAB_SIZE + 1).validate()
        # (n_examples + plant_defects) * sentences_max * sentence_length target tokens at most
        at_limit = GeneratorConfig(n_examples=MAX_CORPUS_TOKENS // 32 - 3, plant_defects=3,
                                   sentences_max=8, sentence_length=4)
        at_limit.validate()
        with pytest.raises(ConfigError, match=f"{MAX_CORPUS_TOKENS + 32} target tokens exceeds the limit"):
            dataclasses.replace(at_limit, plant_defects=4).validate()
        # with dependency_p > 0, (n_examples + plant_defects) * sentences_max * (sentences_max - 1) / 2
        # dependency edges at most: 5793 * 5792 / 2 = 16,776,528 and 5794 * 5793 / 2 = 16,782,321
        edges_at_limit = GeneratorConfig(n_examples=1, sentences_max=5793)
        edges_at_limit.validate()
        with pytest.raises(ConfigError, match=f"16782321 dependency edges exceeds the limit of {MAX_CORPUS_TOKENS}"):
            dataclasses.replace(edges_at_limit, sentences_max=5794).validate()
        dataclasses.replace(edges_at_limit, sentences_max=5794, dependency_p=0.0).validate()

    def test_planted_defects_are_rejected_by_filter(self):
        examples = generate(config(n_examples=40, plant_defects=6))
        assert len(examples) == 46
        report = verify_and_filter(examples)
        assert len(report.kept) == 40
        assert len(report.rejected) == 6
        assert report.reason_counts.get("self-edge", 0) == 2
        assert report.reason_counts.get("edge-not-forward", 0) == 2
        assert report.reason_counts.get("risk-range", 0) == 1
        assert report.reason_counts.get("fact-span-range", 0) == 1


def sentence_lengths_example(lengths):
    """One example whose sentences have the given token lengths."""
    target, sentences = [], []
    for j, n in enumerate(lengths, start=1):
        start = len(target)
        target.extend([N_SPECIAL] * (n - 1) + [TOKEN_PERIOD])
        sentences.append(SentenceSpan(start, len(target), risk=0.1 * j))
    return AnnotatedExample(
        input_tokens=[4], target_tokens=target, valid_mask=[1] * len(target),
        sentences=sentences, facts=[FactSpan(0, 1, 2, 1)], edges=[],
    )


class TestChunk:
    def test_greedy_sentence_packing(self):
        chunks = chunk(sentence_lengths_example([50, 60, 120]), limit=200)
        assert [len(c.target_tokens) for c in chunks] == [110, 120]

    def test_single_oversize_sentence_flagged(self):
        chunks = chunk(sentence_lengths_example([250]), limit=200)
        assert [len(c.target_tokens) for c in chunks] == [250]

    def test_everything_fits_one_chunk(self):
        ex = sentence_lengths_example([30, 40])
        chunks = chunk(ex, limit=200)
        assert len(chunks) == 1
        assert chunks[0].target_tokens == ex.target_tokens

    def test_concatenation_reproduces_target(self):
        ex = sentence_lengths_example([7, 9, 4, 12, 3])
        chunks = chunk(ex, limit=10)
        joined = [t for c in chunks for t in c.target_tokens]
        assert joined == ex.target_tokens
        for c in chunks:
            for s in c.sentences:
                assert 0 <= s.token_start < s.token_end <= len(c.target_tokens)

    def test_never_splits_inside_sentence(self):
        ex = sentence_lengths_example([7, 9, 4, 12, 3])
        for c in chunk(ex, limit=10):
            spans = c.sentences
            assert spans[0].token_start == 0
            for a, b in zip(spans, spans[1:]):
                assert a.token_end == b.token_start

    def test_cross_chunk_edge_folds_into_raw_risk(self):
        # sentence 3 restates sentence 1's fact; when they land in different
        # chunks the dropped edge's source risk folds into sentence 3
        target = [5, 6, TOKEN_PERIOD] * 3
        sentences = [SentenceSpan(0, 3, 0.8), SentenceSpan(3, 6, 0.0), SentenceSpan(6, 9, 0.0)]
        ex = AnnotatedExample(
            input_tokens=[4], target_tokens=list(target), valid_mask=[1] * 9,
            sentences=sentences, facts=[], edges=[DependencyEdge(1, 3)],
        )
        whole = propagate_risk(ex.sentences, ex.edges)
        chunks = chunk(ex, limit=6)
        assert [len(c.target_tokens) for c in chunks] == [6, 3]
        rebuilt = []
        for c in chunks:
            rebuilt.extend(propagate_risk(c.sentences, c.edges))
        assert rebuilt == list(whole)

    def test_generated_corpus_chunks_cleanly(self):
        for ex in generate(config(n_examples=30, sentences_min=3, sentences_max=4)):
            chunks = chunk(ex, limit=8)
            assert len(chunks) >= 2
            joined = [t for c in chunks for t in c.target_tokens]
            assert joined == ex.target_tokens
            assert not verify_and_filter(chunks).rejected

    def test_limit_validated(self):
        with pytest.raises(ConfigError):
            chunk(sentence_lengths_example([3]), limit=0)

    def test_example_that_fits_is_returned_as_is(self):
        ex = sentence_lengths_example([30, 40])
        assert chunk(ex, limit=200)[0] is ex
        assert chunk(ex, limit=70)[0] is ex
        assert len(chunk(ex, limit=69)) == 2

    @pytest.mark.parametrize("edit, reason", [
        (lambda ex: ex.edges.append(DependencyEdge(2, 1)), "edge-not-forward"),
        (lambda ex: ex.edges.append(DependencyEdge(1, 3)), "duplicate-edge"),
        (lambda ex: ex.edges.append(DependencyEdge(1, 4)), "edge-unknown-sentence"),
        (lambda ex: ex.edges.append(DependencyEdge(0, 2)), "edge-unknown-sentence"),
        (lambda ex: ex.facts.append(FactSpan(1, 4, 5, 4)), "fact-unknown-sentence"),
        (lambda ex: ex.sentences.extend([ex.sentences.pop(2), ex.sentences.pop(1)]), "sentence-span-order"),
    ], ids=["backward-edge", "duplicate-edge", "edge-to-no-sentence", "edge-from-no-sentence", "fact-of-no-sentence",
            "sentences-2-and-3-swapped"])
    def test_annotation_no_chunk_can_hold_returns_the_example_whole(self, edit, reason, tmp_path, monkeypatch,
                                                                     capsys):
        # one sentence per chunk at limit 3: chunked, each of these would be
        # folded, dropped or renumbered out of sight; preprocess verifies the
        # whole example first, rejects it under its reason and writes none of it
        ex = AnnotatedExample(
            input_tokens=[4], target_tokens=[5, 6, TOKEN_PERIOD] * 3, valid_mask=[1] * 9,
            sentences=[SentenceSpan(3 * j - 3, 3 * j, 0.1 * j) for j in (1, 2, 3)],
            facts=[FactSpan(0, 1, 2, 1)], edges=[DependencyEdge(1, 3)],
        )
        monkeypatch.setattr(harness, "generate", lambda cfg: [ex])
        cfg = GeneratorConfig(chunk_limit=3, out=str(tmp_path / "corpus.jsonl"))
        assert harness.cmd_preprocess(cfg)["kept"] == 3
        edit(ex)
        meta = harness.cmd_preprocess(cfg)
        assert (meta["kept"], meta["rejected"]) == (0, 1)
        assert meta["reason_counts"][reason] == 1
        assert read_jsonl(cfg.out) == []

    def test_planted_backward_edge_is_rejected_across_chunks(self, tmp_path, capsys):
        # at limit 4 every sentence is its own chunk, so the planted edge 2->1
        # would cross chunks; preprocess verifies the whole clone first and
        # rejects it, and only the clean examples' chunks are written
        cfg = GeneratorConfig(n_examples=50, sentence_length=4, sentences_max=4, plant_defects=8)
        clean = generate(dataclasses.replace(cfg, plant_defects=0))
        for limit in (4, 200):
            out = str(tmp_path / f"corpus_{limit}.jsonl")
            meta = harness.cmd_preprocess(dataclasses.replace(cfg, chunk_limit=limit, out=out))
            assert meta["reason_counts"] == {"edge-not-forward": 2, "fact-span-range": 2,
                                             "risk-range": 2, "self-edge": 2}
            assert meta["rejected"] == 8
            assert read_jsonl(out) == [c for ex in clean for c in chunk(ex, limit)]

    def test_twenty_thousand_sentences_chunk_in_linear_time(self):
        # one sentence per chunk, a forward edge between neighbours: every
        # edge crosses chunks and folds into its dependent's risk
        n = 20_000
        ex = AnnotatedExample(
            input_tokens=[4], target_tokens=[5, TOKEN_PERIOD] * n, valid_mask=[1] * (2 * n),
            sentences=[SentenceSpan(2 * j - 2, 2 * j, (j % 10) / 10) for j in range(1, n + 1)],
            facts=[FactSpan(j - 1, 2 * j - 2, 2 * j - 1, j) for j in range(1, n + 1)],
            edges=[DependencyEdge(j, j + 1) for j in range(1, n)],
        )
        start = time.perf_counter()
        chunks = chunk(ex, limit=2)
        assert time.perf_counter() - start < 5.0
        assert len(chunks) == n
        assert all(c.sentences == [SentenceSpan(0, 2, c.sentences[0].risk)] for c in chunks)
        assert all(c.facts == [FactSpan(j, 0, 1, 1)] and not c.edges for j, c in enumerate(chunks))
        whole = propagate_risk(ex.sentences, ex.edges)
        assert [c.sentences[0].risk for c in chunks] == list(whole)


def fields(example):
    """Every field of an example, each sentence risk by repr."""
    return (example.input_tokens, example.target_tokens, example.valid_mask,
            [(s.token_start, s.token_end, repr(s.risk)) for s in example.sentences],
            example.facts, example.edges, example.extra)


# The README quick start, the three perfbench workload generators
# (perfbench/run.py) at two seeds, and a dense config: two facts per
# sentence, nearly every one a restatement, with padding and defects.
README_GEN = dict(vocab_size=70, n_examples=2000, n_keys=20, n_values=20, sentence_length=5,
                  corruption_fraction=0.3, risk_min=0.5, risk_max=0.9, dependency_p=0.25, seed=11)
BENCH_GEN = dict(README_GEN, plant_defects=8)
REFERENCE_CONFIGS = {
    "readme": README_GEN,
    **{f"sweep_acceptance-{seed}": dict(BENCH_GEN, seed=seed) for seed in (1, 3)},
    **{f"wide_vocab-{seed}": dict(BENCH_GEN, vocab_size=1024, n_keys=200, n_values=200, sentence_length=6,
                                  seed=seed) for seed in (1, 3)},
    **{f"long_docs-{seed}": dict(BENCH_GEN, n_examples=1000, facts_per_sentence=4, sentence_length=13,
                                 sentences_min=8, sentences_max=16, dependency_p=0.5, chunk_limit=180,
                                 seed=seed) for seed in (1, 3)},
    "dense": dict(facts_per_sentence=2, sentence_length=8, sentences_min=4, sentences_max=10,
                  dependency_p=0.9, chunk_limit=30, plant_defects=12, seed=2),
}


@st.composite
def small_configs(draw):
    facts = draw(st.integers(1, 3))
    n_keys, n_values = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    sentences_min = draw(st.integers(1, 5))
    return GeneratorConfig(
        vocab_size=N_SPECIAL + n_keys + n_values + draw(st.integers(1, 3)),
        n_examples=draw(st.integers(1, 6)),
        n_keys=n_keys,
        n_values=n_values,
        facts_per_sentence=facts,
        # key, relation and value per fact, the period, and 0-3 padding tokens
        sentence_length=3 * facts + 1 + draw(st.integers(0, 3)),
        sentences_min=sentences_min,
        sentences_max=draw(st.integers(sentences_min, 9)),
        corruption_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        dependency_p=draw(st.sampled_from([0.0, 0.25, 0.9, 1.0])),
        chunk_limit=draw(st.integers(1, 40)),
        plant_defects=draw(st.integers(0, 4)) if sentences_min >= 2 else 0,
        seed=draw(st.integers(0, 2**16)),
    )


def check_chunks_of_verified_examples(cfg):
    """generate gives the reference's examples; verify_and_filter keeps the
    first n_examples of them; chunk gives the reference's chunks of each, and
    every such chunk passes verify_and_filter."""
    examples = generate(cfg)
    assert list(map(fields, examples)) == list(map(fields, generate_reference(cfg)))
    kept = verify_and_filter(examples).kept
    assert kept == examples[:cfg.n_examples]
    for ex in kept:
        chunks = chunk(ex, cfg.chunk_limit)
        assert list(map(fields, chunks)) == list(map(fields, chunk_reference(ex, cfg.chunk_limit)))
        assert not verify_and_filter(chunks).rejected


class TestAgainstReference:
    """generate and chunk give the quadratic references' examples, field for
    field; chunk sees verified examples only, as in preprocess."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_configs_match_the_reference(self, name):
        check_chunks_of_verified_examples(GeneratorConfig(**REFERENCE_CONFIGS[name]))

    @given(small_configs())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_small_configs_match_the_reference(self, cfg):
        check_chunks_of_verified_examples(cfg)


def check_planted_defects_leave_no_record(cfg, directory):
    """preprocess with cfg.plant_defects writes the bytes it writes without
    them, and its meta counts each planted clone as one rejected example."""
    planted = dataclasses.replace(cfg, out=os.path.join(directory, "planted.jsonl"))
    clean = dataclasses.replace(cfg, plant_defects=0, out=os.path.join(directory, "clean.jsonl"))
    meta, clean_meta = harness.cmd_preprocess(planted), harness.cmd_preprocess(clean)
    with open(planted.out, "rb") as a, open(clean.out, "rb") as b:
        written = a.read()
        assert written == b.read()
    assert (meta["rejected"], clean_meta["rejected"]) == (cfg.plant_defects, 0)
    assert meta["kept"] == clean_meta["kept"] == written.count(b"\n")


class TestPlantedDefects:
    """preprocess verifies whole examples before it chunks, so no chunk of a
    planted clone reaches the corpus."""

    def test_long_docs_corpus_is_the_one_without_defects(self, tmp_path, capsys):
        # chunking before verifying wrote 4 clean chunks of the 8 clones: 1353 records, not 1349
        cfg = GeneratorConfig(**dict(REFERENCE_CONFIGS["long_docs-1"], seed=2))
        check_planted_defects_leave_no_record(cfg, str(tmp_path))

    @given(small_configs())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_small_configs_corpus_is_the_one_without_defects(self, cfg):
        assume(cfg.plant_defects > 0)
        with tempfile.TemporaryDirectory() as directory:
            check_planted_defects_leave_no_record(cfg, directory)


class TestVerifyAndFilter:
    def test_clean_input_all_kept(self):
        examples = generate(config(n_examples=20))
        report = verify_and_filter(examples)
        assert report.kept == examples
        assert not report.rejected
        assert report.reason_counts == {}

    def test_self_edge_reason(self):
        ex = generate(config(n_examples=1))[0]
        ex.edges.append(DependencyEdge(1, 1))
        report = verify_and_filter([ex])
        assert not report.kept
        assert report.rejected[0][1] == ["self-edge"]

    def test_idempotent(self):
        examples = generate(config(n_examples=30, plant_defects=4))
        first = verify_and_filter(examples)
        second = verify_and_filter(first.kept)
        assert second.kept == first.kept
        assert not second.rejected


class TestJsonl:
    def test_round_trip_identity(self, tmp_path):
        examples = generate(config(n_examples=40))
        path = str(tmp_path / "c.jsonl")
        write_jsonl(examples, path)
        assert read_jsonl(path) == examples

    def test_rewrite_is_byte_identical(self, tmp_path):
        examples = generate(config(n_examples=25))
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_jsonl(examples, p1)
        write_jsonl(read_jsonl(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_unknown_fields_preserved(self, tmp_path):
        record = example_to_record(generate(config(n_examples=1))[0])
        record["source"] = {"note": "kept"}
        path = tmp_path / "x.jsonl"
        path.write_text(json.dumps(record) + "\n")
        examples = read_jsonl(str(path))
        assert examples[0].extra == {"source": {"note": "kept"}}
        out = tmp_path / "y.jsonl"
        write_jsonl(examples, str(out))
        assert json.loads(out.read_text())["source"] == {"note": "kept"}

    def test_valid_mask_round_trips_when_partial(self, tmp_path):
        ex = generate(config(n_examples=1))[0]
        ex.valid_mask[0] = 0
        path = str(tmp_path / "v.jsonl")
        write_jsonl([ex], path)
        record = json.loads(open(path).read())
        assert record["valid"][0] == 0
        assert read_jsonl(path)[0].valid_mask == ex.valid_mask

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_jsonl(str(path)) == []

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        examples = generate(config(n_examples=3))
        path = tmp_path / "bom.jsonl"
        write_jsonl(examples, str(path))
        text = path.read_text(encoding="utf-8")
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert read_jsonl(str(path)) == examples
        lines = text.splitlines(keepends=True)
        path.write_text(lines[0] + "\ufeff" + "".join(lines[1:]), encoding="utf-8")  # elsewhere it is no JSON
        with pytest.raises(CorpusFormatError, match="^line 2: invalid JSON: Unexpected UTF-8 BOM"):
            read_jsonl(str(path))

    def test_undecodable_byte_is_an_error_of_its_own_line(self, tmp_path):
        good = json.dumps(example_to_record(generate(config(n_examples=1))[0]))
        bad = good[:9].encode() + b"\xff" + good[9:].encode()
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(f"{good}\n{{oops\n{good}\n".encode() + bad + b"\n")  # one read buffer holds all four
        with pytest.raises(CorpusFormatError, match="^line 2: invalid JSON"):
            read_jsonl(str(path))
        path.write_bytes(f"{good}\n\n{good}\n".encode() + bad + b"\n")
        with pytest.raises(CorpusFormatError) as err:
            read_jsonl(str(path))
        assert str(err.value) == f"line 4: {path} is not UTF-8 text (invalid start byte)"
        assert len(read_jsonl(str(path), limit=2)) == 2  # no later line is decoded

    def test_a_range_numbers_its_lines_over_the_file(self, tmp_path):
        good = json.dumps(example_to_record(generate(config(n_examples=1))[0]))
        path = tmp_path / "ranges.jsonl"
        path.write_bytes(f"\ufeff{good}\r\n\n{good}\r{good}\n{good}\n{{oops\n{good}\n".encode())
        ranges = line_ranges(str(path), 3)
        assert len(ranges) == 3
        assert [ex for bounds in ranges[:2] for ex in iter_jsonl(str(path), *bounds)] == read_jsonl(str(path), 4)
        with pytest.raises(CorpusFormatError, match="^line 6: invalid JSON") as err:
            list(iter_jsonl(str(path), *ranges[2]))
        assert err.value.line_number == 6

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from(["a", "b", "\n", "\r", " ", "\u00e9"]), max_size=40), st.integers(1, 5))
    def test_ranges_cut_the_lines_of_a_text_reader(self, text, n):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "lines.txt")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            ranges = line_ranges(path, n)
            bounds = [0] + [b for _, b in ranges]
            assert ranges == list(zip(bounds, bounds[1:])) and bounds[-1] == len(text.encode("utf-8"))
            assert len(ranges) <= n and all(a < b for a, b in ranges)
            got = []
            with open(path, "rb") as fh:
                for a, b in ranges:
                    assert sum(1 for _ in _lines(fh, 0, a)) == len(got)  # the lines before the range
                    got += [line.decode("utf-8") for line in _lines(fh, a, b)]
            with open(path, encoding="utf-8", newline=None) as fh:
                assert got == list(fh)

    def test_malformed_line_reports_line_number(self, tmp_path):
        good = json.dumps(example_to_record(generate(config(n_examples=1))[0]))
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n{oops\n")
        with pytest.raises(CorpusFormatError, match="line 2") as err:
            read_jsonl(str(path))
        assert err.value.line_number == 2

    def test_risk_out_of_range_names_the_field(self, tmp_path):
        # the reader checks the type; the range is an annotation rule
        record = example_to_record(generate(config(n_examples=1))[0])
        record["sentences"][0]["risk"] = 1.7
        path = tmp_path / "risk.jsonl"
        path.write_text(json.dumps(record) + "\n")
        ex = read_jsonl(str(path))[0]
        with pytest.raises(AnnotationError, match=r"sentence 1 risk 1.7 outside \[0, 1\]"):
            propagate_risk(ex.sentences, ex.edges)
        for bad in ("0.5", True, 10**400):
            record["sentences"][0]["risk"] = bad
            path.write_text(json.dumps(record) + "\n")
            with pytest.raises(CorpusFormatError, match="line 1: sentence field 'risk' must be a number"):
                read_jsonl(str(path))

    JSON_VALUES = st.one_of(st.integers(min_value=-3, max_value=2**70), st.booleans(), st.none(),
                            st.floats(allow_nan=False), st.text(max_size=2), st.lists(st.integers(), max_size=1))

    @given(st.sampled_from([("sentences", ("start", "end", "risk")),
                            ("facts", ("id", "start", "end", "sentence")),
                            ("edges", ("from", "to"))]),
           st.data())
    @settings(max_examples=300)
    def test_one_condition_agrees_with_the_per_key_checks(self, kind, data):
        """An object passes the decoder iff it passes the key table's per-key
        checks, and then decodes to its own values; otherwise both give one
        message."""
        field, keys = kind
        obj = data.draw(st.one_of(st.fixed_dictionaries({}, optional={k: self.JSON_VALUES for k in keys}),
                                  st.fixed_dictionaries({k: st.integers(0, 9) for k in keys}),
                                  self.JSON_VALUES))
        record = {"input": [1], "target": [2, 3], "sentences": [], "facts": [], "edges": [], field: [obj]}
        try:
            _check_object(obj, field, 7)
        except CorpusFormatError as exc:
            with pytest.raises(CorpusFormatError) as info:
                example_from_record(record, 7)
            assert str(info.value) == str(exc)
            return
        span = getattr(example_from_record(record, 7), field)[0]
        for key, value in zip(keys, dataclasses.astuple(span)[-len(keys):]):
            # an integer risk decodes to the nearest float, as float() rounds it
            expected = float(obj[key]) if key == "risk" else obj[key]
            assert value == expected and type(value) is type(expected)

    def test_limit_stops_decoding(self, tmp_path):
        good = json.dumps(example_to_record(generate(config(n_examples=1))[0]))
        path = tmp_path / "c.jsonl"
        path.write_text(f"{good}\n\n{good}\n{{oops\n")
        assert len(read_jsonl(str(path), limit=2)) == 2
        for limit in (0, 3):
            with pytest.raises(CorpusFormatError, match="line 4"):
                read_jsonl(str(path), limit=limit)

    def test_missing_field_named(self, tmp_path):
        record = example_to_record(generate(config(n_examples=1))[0])
        del record["target"]
        path = tmp_path / "miss.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match="'target'"):
            read_jsonl(str(path))

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "atomic.jsonl"
        write_jsonl(generate(config(n_examples=3)), str(path))
        assert path.exists()
        assert not (tmp_path / "atomic.jsonl.tmp").exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "atomic.jsonl"
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as fh:
                fh.write("partial")
                raise RuntimeError("body failed")
        assert not path.exists()
        assert not (tmp_path / "atomic.jsonl.tmp").exists()


class TestStatsTable:
    def test_row_values(self):
        examples = generate(config(n_examples=30))
        table = stats_table(examples)
        lines = table.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("records written")
        assert lines[0].rstrip().endswith("30")
        n_facts = sum(len(ex.facts) for ex in examples)
        assert lines[1].rstrip().endswith(str(n_facts))
