"""Synthetic annotated corpora with planted facts, risks, and dependencies.

The generator writes tiny question/answer pairs over a closed vocabulary:
each target sentence states one or more key/value facts ("k3 is v7 .").
A seeded fraction of the keys is corrupted - every occurrence states the
same wrong value and the sentence carries a high risk score - which is
exactly the kind of consistently unsupported target an overconfident model
learns to reproduce.  Sentences that restate an earlier sentence's key get
a dependency edge to each prior mention, so their risk arrives purely
through propagation.

Also holds the JSONL schema for annotated examples:

    {"input": [...], "target": [...],
     "sentences": [{"start", "end", "risk"}, ...],
     "facts": [{"id", "start", "end", "sentence"}, ...],
     "edges": [{"from", "to"}, ...]}

One record per line, UTF-8, LF.  An optional "valid" field (a list of the
integers 0 and 1 over target positions) is honoured when present; unknown
fields are preserved across a read/write round trip.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, BinaryIO, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConfigError, CorpusFormatError
from .fact_graph import (
    DependencyEdge,
    FactSpan,
    SentenceSpan,
    violations,
)

# Fixed special token ids; keys, values, and filler follow in that order.
TOKEN_BOS = 0
TOKEN_PERIOD = 1
TOKEN_REL = 2
TOKEN_QMARK = 3
TOKEN_QUERY = 4
N_SPECIAL = 5

# Tokens per fact statement: key, relation, value.
_FACT_TOKENS = 3

# Upper bounds on a config, checked before anything is generated: its vocabulary
# (a training run's too), and its corpus's target tokens and dependency edges.
MAX_VOCAB_SIZE = 2**16
MAX_CORPUS_TOKENS = 2**24


@dataclass
class AnnotatedExample:
    """A tokenized instruction/response pair with factual-risk annotations.

    Spans, masks, and edges index into target_tokens only; the input is
    context and never carries annotations.
    """

    input_tokens: list[int]
    target_tokens: list[int]
    valid_mask: list[int]
    sentences: list[SentenceSpan]
    facts: list[FactSpan]
    edges: list[DependencyEdge]
    extra: dict = field(default_factory=dict)


@dataclass
class GeneratorConfig:
    vocab_size: int = 64
    n_examples: int = 500
    n_keys: int = 12
    n_values: int = 12
    facts_per_sentence: int = 1
    sentence_length: int = 4      # tokens per sentence incl. terminal period
    sentences_min: int = 2
    sentences_max: int = 4
    corruption_fraction: float = 0.25
    risk_min: float = 0.6
    risk_max: float = 0.95
    dependency_p: float = 0.25
    chunk_limit: int = 200
    plant_defects: int = 0
    seed: int = 0
    out: str = "corpus.jsonl"

    def validate(self) -> None:
        if self.n_examples < 1:
            raise ConfigError("n_examples must be >= 1")
        if self.n_keys < 1 or self.n_values < 1:
            raise ConfigError("n_keys and n_values must be >= 1")
        if self.corruption_fraction > 0 and self.n_values < 2:
            raise ConfigError("corruption needs at least two distinct values")
        if self.facts_per_sentence < 1:
            raise ConfigError("facts_per_sentence must be >= 1")
        if _FACT_TOKENS * self.facts_per_sentence + 1 > self.sentence_length:
            raise ConfigError(
                f"fact density {self.facts_per_sentence} exceeds sentence length "
                f"{self.sentence_length} (needs {_FACT_TOKENS * self.facts_per_sentence + 1} tokens)"
            )
        if not 1 <= self.sentences_min <= self.sentences_max:
            raise ConfigError("need 1 <= sentences_min <= sentences_max")
        for name in ("corruption_fraction", "dependency_p", "risk_min", "risk_max"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if self.risk_min > self.risk_max:
            raise ConfigError("risk_min must not exceed risk_max")
        if self.chunk_limit < 1:
            raise ConfigError("chunk_limit must be >= 1")
        if self.plant_defects < 0:
            raise ConfigError("plant_defects must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.out:
            raise ConfigError("no output path configured")
        if self.plant_defects > 0 and self.sentences_min < 2:
            raise ConfigError("defect planting needs sentences_min >= 2")
        needed = N_SPECIAL + self.n_keys + self.n_values
        fillers = self.sentence_length - (_FACT_TOKENS * self.facts_per_sentence + 1)
        if fillers > 0:
            needed += 1
        if self.vocab_size < needed:
            raise ConfigError(
                f"vocab_size {self.vocab_size} too small for {self.n_keys} keys, "
                f"{self.n_values} values, and specials (need >= {needed})"
            )
        if self.vocab_size > MAX_VOCAB_SIZE:
            raise ConfigError(f"vocab_size {self.vocab_size} exceeds the limit of {MAX_VOCAB_SIZE}")
        tokens = (self.n_examples + self.plant_defects) * self.sentences_max * self.sentence_length
        if tokens > MAX_CORPUS_TOKENS:
            raise ConfigError(f"a corpus of up to {tokens} target tokens exceeds the limit of {MAX_CORPUS_TOKENS}")
        # a dependent sentence gets an edge to every earlier mention of its key
        edges = (self.n_examples + self.plant_defects) * self.sentences_max * (self.sentences_max - 1) // 2
        if self.dependency_p > 0 and edges > MAX_CORPUS_TOKENS:
            raise ConfigError(f"a corpus of up to {edges} dependency edges exceeds the limit of {MAX_CORPUS_TOKENS}")


def key_token(config: GeneratorConfig, k: int) -> int:
    return N_SPECIAL + k


def value_token(config: GeneratorConfig, v: int) -> int:
    return N_SPECIAL + config.n_keys + v


def filler_token(config: GeneratorConfig, i: int) -> int:
    return N_SPECIAL + config.n_keys + config.n_values + i


def n_filler(config: GeneratorConfig) -> int:
    return config.vocab_size - N_SPECIAL - config.n_keys - config.n_values


def generate(config: GeneratorConfig) -> list[AnnotatedExample]:
    """Deterministically generate an annotated corpus from the config seed.

    Corrupted keys always state one fixed wrong value, so a plain
    likelihood-trained model becomes confidently wrong exactly where the
    risk labels say it should not.

    Non-fact tokens are all predictable from their context window: the first
    stated key is named in the input, every later fresh statement uses the
    successor key ((previous + 1) mod n_keys), and when sentences are longer
    than their fact statements the first padding slot echoes the most recent
    key as a filler token (remaining padding is random filler).  Capability
    metrics therefore have a real ceiling instead of a noise floor.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)

    true_value = rng.integers(0, config.n_values, size=config.n_keys)
    n_corrupt = int(round(config.corruption_fraction * config.n_keys))
    corrupt_keys = set(rng.permutation(config.n_keys)[:n_corrupt].tolist())
    stated_value = true_value.copy()
    for k in sorted(corrupt_keys):
        wrong = int(rng.integers(0, config.n_values - 1))
        if wrong >= true_value[k]:
            wrong += 1
        stated_value[k] = wrong

    fillers = n_filler(config)
    pad = config.sentence_length - (_FACT_TOKENS * config.facts_per_sentence + 1)
    examples = []
    for _ in range(config.n_examples):
        n_sent = int(rng.integers(config.sentences_min, config.sentences_max + 1))
        target: list[int] = []
        sentences: list[SentenceSpan] = []
        facts: list[FactSpan] = []
        edges: list[DependencyEdge] = []
        mentioned: list[int] = []  # every key stated so far, in order
        said: dict[int, list[int]] = {}  # key -> the earlier sentences that state it
        first_key = int(rng.integers(0, config.n_keys))
        prev_key: int | None = None
        for j in range(1, n_sent + 1):
            start = len(target)
            for i in range(pad):
                if i == 0:
                    echo = prev_key if prev_key is not None else first_key
                    target.append(filler_token(config, echo % fillers))
                else:
                    target.append(filler_token(config, int(rng.integers(0, fillers))))
            risk = 0.0
            incoming: set[int] = set()
            before = len(mentioned)  # mentioned[:before] holds the keys of earlier sentences
            for _slot in range(config.facts_per_sentence):
                if before and rng.random() < config.dependency_p:
                    key = mentioned[int(rng.integers(0, before))]
                    incoming.update(said[key])
                else:
                    key = first_key if prev_key is None else (prev_key + 1) % config.n_keys
                    if key in corrupt_keys:
                        risk = max(risk, float(rng.uniform(config.risk_min, config.risk_max)))
                target.append(key_token(config, key))
                target.append(TOKEN_REL)
                facts.append(FactSpan(len(facts), len(target), len(target) + 1, j))
                target.append(value_token(config, int(stated_value[key])))
                mentioned.append(key)
                prev_key = key
            target.append(TOKEN_PERIOD)
            sentences.append(SentenceSpan(token_start=start, token_end=len(target), risk=risk))
            edges.extend(DependencyEdge(src, j) for src in sorted(incoming))
            for key in set(mentioned[before:]):
                said.setdefault(key, []).append(j)

        input_tokens = [TOKEN_QUERY, key_token(config, first_key), TOKEN_QMARK]
        examples.append(
            AnnotatedExample(
                input_tokens=input_tokens,
                target_tokens=target,
                valid_mask=[1] * len(target),
                sentences=sentences,
                facts=facts,
                edges=edges,
            )
        )

    for i in range(config.plant_defects):
        examples.append(_plant_defect(examples[i % config.n_examples], kind=i % 4))
    return examples


def _plant_defect(base: AnnotatedExample, kind: int) -> AnnotatedExample:
    """A structurally broken clone of `base`; verify_and_filter must drop it.
    Only the lists a defect changes are copied; the token lists are shared."""
    ex = replace(base, sentences=list(base.sentences), facts=list(base.facts), edges=list(base.edges))
    if kind == 0:
        ex.edges.append(DependencyEdge(1, 1))
    elif kind == 1:
        ex.edges.append(DependencyEdge(2, 1))
    elif kind == 2:
        ex.sentences[0] = replace(ex.sentences[0], risk=1.5)
    else:
        t = len(ex.target_tokens)
        ex.facts.append(FactSpan(fact_id=len(ex.facts), token_start=t, token_end=t + 1, sentence=1))
    return ex


def chunk(example: AnnotatedExample, limit: int) -> list[AnnotatedExample]:
    """Split an example that passes verify_and_filter on sentence boundaries
    into chunks of at most `limit` target tokens (greedy packing); one
    sentence region, or a target without sentences, that exceeds the limit
    alone becomes one longer chunk.  An example that packs into one chunk is
    returned as is.

    Tokens between or after sentences travel with the preceding sentence;
    concatenating the chunk targets reproduces the original target exactly.
    A dependency edge whose source lands in an earlier chunk is dropped, and
    the dependent sentence's raw risk becomes the max of its own and the
    source's raw risk.  This does not keep effective risks: the folded risk
    counts as the dependent's own, so one-hop propagation passes it on to the
    dependent's dependents in its chunk, one hop further than in the whole
    example; and only the source's raw risk crosses, so under fixpoint
    propagation the risk the source inherits from its own sources can be
    lost.  Each chunk repeats the input tokens.  Time is linear in the
    sentences, facts and edges.
    """
    if limit < 1:
        raise ConfigError("chunk limit must be >= 1")
    sentences = example.sentences
    n = len(sentences)
    # Region i: sentence i plus any following gap tokens (leading gap joins region 0).
    starts = [0] + [s.token_start for s in sentences[1:]]
    ends = starts[1:] + [len(example.target_tokens)]

    first: list[int] = []  # each chunk's first region
    group: list[int] = []  # region -> its chunk
    used = 0
    for i, (a, b) in enumerate(zip(starts, ends)):
        if not first or used + b - a > limit:
            first.append(i)
            used = 0
        group.append(len(first) - 1)
        used += b - a
    if len(first) == 1:
        return [example]

    # Sentence id j is region j - 1; in chunk g it becomes j - first[g], and
    # chunk 0, which starts at token 0, keeps its spans as they are.
    facts: list[list[FactSpan]] = [[] for _ in first]
    for f in example.facts:
        g = group[f.sentence - 1]
        lo = starts[first[g]]
        facts[g].append(FactSpan(f.fact_id, f.token_start - lo, f.token_end - lo, f.sentence - first[g]) if g else f)
    risk = [s.risk for s in sentences]
    edges: list[list[DependencyEdge]] = [[] for _ in first]
    for e in example.edges:
        g = group[e.dst - 1]
        if group[e.src - 1] == g:
            edges[g].append(DependencyEdge(e.src - first[g], e.dst - first[g]) if g else e)
        else:  # edges point forward, so the source is in an earlier chunk
            risk[e.dst - 1] = max(risk[e.dst - 1], sentences[e.src - 1].risk)

    chunks = []
    for g, (a, b) in enumerate(zip(first, first[1:] + [n])):
        lo, hi = starts[a], ends[b - 1]
        chunks.append(
            AnnotatedExample(
                input_tokens=list(example.input_tokens),
                target_tokens=example.target_tokens[lo:hi],
                valid_mask=example.valid_mask[lo:hi],
                sentences=[
                    SentenceSpan(s.token_start - lo, s.token_end - lo, risk[i])
                    for i, s in enumerate(sentences[a:b], a)
                ],
                facts=facts[g],
                edges=edges[g],
                extra=dict(example.extra),
            )
        )
    return chunks


@dataclass
class FilterReport:
    kept: list[AnnotatedExample]
    rejected: list[tuple[AnnotatedExample, list[str]]]
    reason_counts: dict[str, int]


def verify_and_filter(examples: Sequence[AnnotatedExample]) -> FilterReport:
    """Drop examples violating any annotation invariant; keep the rest.

    Filtering never raises; each rejected example carries its reason tags,
    the distinct tags of fact_graph.violations in first-seen order.
    """
    kept: list[AnnotatedExample] = []
    rejected: list[tuple[AnnotatedExample, list[str]]] = []
    counts: dict[str, int] = {}
    for ex in examples:
        found = violations(ex.sentences, ex.edges, ex.facts, len(ex.target_tokens), ex.valid_mask)
        reasons = list(dict.fromkeys(reason for reason, _ in found))
        if reasons:
            rejected.append((ex, reasons))
            for r in reasons:
                counts[r] = counts.get(r, 0) + 1
        else:
            kept.append(ex)
    return FilterReport(kept=kept, rejected=rejected, reason_counts=counts)


def _require(condition: bool, message: str, lineno: int | None, *args: object) -> None:
    """Raise CorpusFormatError(message.format(*args)) unless condition holds;
    the message is built only then."""
    if not condition:
        raise CorpusFormatError(message.format(*args), lineno)


def _token_list(obj: object, name: str, lineno: int | None) -> list[int]:
    _require(isinstance(obj, list), "field {!r} must be a list", lineno, name)
    for tok in obj:  # type: ignore[union-attr]
        if type(tok) is not int or not 0 <= tok < 2**63:  # the two checks below, at once
            _require(isinstance(tok, int) and not isinstance(tok, bool) and tok >= 0,
                     "field {!r} must contain nonnegative token ids", lineno, name)
            _require(tok < 2**63, "field {!r} holds a token id of 2**63 or more", lineno, name)
    return list(obj)  # type: ignore[call-overload]


# Each list field's objects: the name its messages use, and each key with the
# JSON type its value must have.  An integer is never a boolean; a number is a
# float, or an integer finite as a float (a risk's range is an annotation rule).
_INTEGER = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a number", lambda v: isinstance(v, float) or type(v) is int and abs(v) <= sys.float_info.max)
_OBJECT_KEYS = {
    "sentences": ("sentence", {"start": _INTEGER, "end": _INTEGER, "risk": _NUMBER}),
    "facts": ("fact", {"id": _INTEGER, "start": _INTEGER, "end": _INTEGER, "sentence": _INTEGER}),
    "edges": ("edge", {"from": _INTEGER, "to": _INTEGER}),
}


def _check_object(obj: Any, field: str, lineno: int | None) -> None:
    """The per-key checks of one object of list field `field`, from
    _OBJECT_KEYS: the first key, in its order, that is missing or of the
    wrong type is named."""
    _require(isinstance(obj, dict), "field {!r} must contain objects", lineno, field)
    name, keys = _OBJECT_KEYS[field]
    for key, (kind, fits) in keys.items():
        _require(key in obj, "{} missing field {!r}", lineno, name, key)
        _require(fits(obj[key]), "{} field {!r} must be {}", lineno, name, key, kind)


def _list_field(record: dict, name: str, lineno: int | None) -> list:
    _require(isinstance(record[name], list), "field {!r} must be a list", lineno, name)
    return record[name]


def _shared(shared: dict, cls: type, *fields: int) -> object:
    """cls(*fields), made once per `shared` map: a later call with equal
    fields returns the same object."""
    key = (cls, *fields)
    span = shared.get(key)
    if span is None:
        span = shared[key] = cls(*fields)
    return span


def example_from_record(record: dict, lineno: int | None = None, shared: dict | None = None) -> AnnotatedExample:
    """Decode one JSONL record, checking field presence and types.

    Span bounds, sentence ids, edge endpoints and fact ids must be JSON
    integers (not booleans).  Each sentence, fact and edge is checked in one
    condition; only an object that fails it takes _check_object's per-key
    checks, which name the first key it gets wrong, or accept it (a sentence
    risk that is an integer).  Facts and edges, whose fields are integers,
    are immutable: equal ones are one object per `shared` map, which
    iter_jsonl keeps for a whole file.
    """
    if shared is None:
        shared = {}
    _require(isinstance(record, dict), "record must be a JSON object", lineno)
    for name in ("input", "target", "sentences", "facts", "edges"):
        _require(name in record, "missing field {!r}", lineno, name)

    input_tokens = _token_list(record["input"], "input", lineno)
    target_tokens = _token_list(record["target"], "target", lineno)
    _require(len(target_tokens) > 0, "field 'target' must not be empty", lineno)

    sentences = []
    for s in _list_field(record, "sentences", lineno):
        if not (type(s) is dict and type(s.get("start")) is int and type(s.get("end")) is int
                and type(s.get("risk")) is float):
            _check_object(s, "sentences", lineno)
        sentences.append(SentenceSpan(s["start"], s["end"], float(s["risk"])))

    facts = []
    for f in _list_field(record, "facts", lineno):
        if not (type(f) is dict and type(f.get("id")) is int and type(f.get("start")) is int
                and type(f.get("end")) is int and type(f.get("sentence")) is int):
            _check_object(f, "facts", lineno)
        facts.append(_shared(shared, FactSpan, f["id"], f["start"], f["end"], f["sentence"]))

    edges = []
    for e in _list_field(record, "edges", lineno):
        if not (type(e) is dict and type(e.get("from")) is int and type(e.get("to")) is int):
            _check_object(e, "edges", lineno)
        edges.append(_shared(shared, DependencyEdge, e["from"], e["to"]))

    if "valid" in record:
        valid = record["valid"]
        _require(isinstance(valid, list) and all(type(v) is int and v in (0, 1) for v in valid),
                 "field 'valid' must be a list of 0/1", lineno)
        _require(len(valid) == len(target_tokens), "field 'valid' length must match 'target'", lineno)
        valid_mask = list(valid)
    else:
        valid_mask = [1] * len(target_tokens)

    known = {"input", "target", "sentences", "facts", "edges", "valid"}
    extra = {k: v for k, v in record.items() if k not in known}
    return AnnotatedExample(
        input_tokens=input_tokens,
        target_tokens=target_tokens,
        valid_mask=valid_mask,
        sentences=sentences,
        facts=facts,
        edges=edges,
        extra=extra,
    )


def example_to_record(example: AnnotatedExample) -> dict:
    record: dict = {
        "input": list(example.input_tokens),
        "target": list(example.target_tokens),
        "sentences": [
            {"start": s.token_start, "end": s.token_end, "risk": s.risk} for s in example.sentences
        ],
        "facts": [
            {"id": f.fact_id, "start": f.token_start, "end": f.token_end, "sentence": f.sentence}
            for f in example.facts
        ],
        "edges": [{"from": e.src, "to": e.dst} for e in example.edges],
    }
    if any(v == 0 for v in example.valid_mask):
        record["valid"] = list(example.valid_mask)
    record.update(example.extra)
    return record


def _lines(fh: BinaryIO, start: int, stop: int | None) -> Iterator[bytes]:
    """The lines of binary file `fh` from byte `start`, a line start, up to
    byte `stop`, a line start after an LF (None: the end), each ending in LF
    (the last maybe in nothing), as a text file with universal newlines
    gives them: a line ends at an LF, CR LF or CR.  A pipe, which cannot
    seek, is read from where it is."""
    if fh.seekable():
        fh.seek(start)
    for chunk in fh:  # each ends at an LF, or at the file's end
        if stop is not None and start >= stop:
            return
        start += len(chunk)
        if b"\r" in chunk:
            yield from chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(True)
        else:
            yield chunk


def line_ranges(path: str, n: int) -> list[tuple[int, int | None]]:
    """Cut the file at `path` into at most n nonempty byte ranges of about
    equal size, in file order, each after the first starting after an LF.
    A file that is not a regular one, such as a pipe, is one range, to its
    end, and is not opened here, so that nothing is read from it."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return [(0, None)]
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        cuts = [0]
        for i in range(1, n):
            fh.seek(max(size * i // n, cuts[-1] + 1) - 1)
            fh.readline()  # through the next LF
            cuts += [fh.tell()] if fh.tell() < size else []
    return list(zip(cuts, cuts[1:] + [size])) if size else []


def iter_jsonl(path: str, start: int = 0, stop: int | None = None) -> Iterator[AnnotatedExample]:
    """Yield the records of an annotated corpus one at a time, each as its
    line is decoded; an empty file yields none.  With `start` and `stop`, a
    range of line_ranges, only the lines of those bytes are read.  The file
    is UTF-8, with or without a byte order mark at byte 0; each line is
    decoded on its own.

    Malformed JSON or schema violations raise CorpusFormatError with the
    line number, counted over the whole file, and the offending field; so
    do bytes that are not UTF-8, which also name the file.
    """
    shared: dict = {}
    with open(path, "rb") as fh:
        try:
            for lineno, raw in enumerate(_lines(fh, start, stop), 1):
                try:
                    line = raw.decode("utf-8-sig" if lineno == 1 and not start else "utf-8")  # a BOM only at byte 0
                    if not line.strip():
                        continue
                    record = json.loads(line)
                except UnicodeDecodeError as exc:
                    raise CorpusFormatError(f"{path} is not UTF-8 text ({exc.reason})", lineno) from exc
                except (ValueError, RecursionError) as exc:  # also too long an integer, or too deep nesting
                    raise CorpusFormatError(f"invalid JSON: {getattr(exc, 'msg', exc)}", lineno) from exc
                yield example_from_record(record, lineno, shared)
        except CorpusFormatError as exc:
            if not start:
                raise
            before = sum(1 for _ in _lines(fh, 0, start))  # counted only now, as the lines of the range were
            raise CorpusFormatError(exc.detail, before + exc.line_number) from exc


def read_jsonl(path: str, limit: int = 0) -> list[AnnotatedExample]:
    """The records of iter_jsonl as one list, or only its first `limit`
    (at most sys.maxsize) when limit > 0: no later line is decoded."""
    return list(islice(iter_jsonl(path), min(limit, sys.maxsize) or None))


@contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Yield a temp file next to the file `path` resolves to and rename it
    over that file once the body finishes; if the body or the rename fails,
    the temp file is removed, and an OSError that names only the temp file
    names `path` instead.  A FIFO, socket or device there is refused first,
    and so is a temp path that exists and is not a regular file (a FIFO
    would block the open, a symlink would be followed), which is left as
    it is."""
    target = os.path.realpath(path)
    if os.path.lexists(target) and not (os.path.isfile(target) or os.path.isdir(target)):
        raise OSError(f"{path} is not a regular file; refusing to replace it")
    tmp = f"{target}.tmp"
    if os.path.lexists(tmp) and not stat.S_ISREG(os.lstat(tmp).st_mode):
        raise OSError(f"{tmp} is not a regular file; refusing to write through it")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp and exc.filename2 is None:
            exc.filename = path
        raise


def write_jsonl(examples: Sequence[AnnotatedExample], path: str) -> None:
    """Write a corpus atomically (temp file, then rename), one record per line."""
    with atomic_write(path) as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_record(ex)))
            fh.write("\n")


def stats_table(examples: Sequence[AnnotatedExample]) -> str:
    """Plain-text summary of corpus size and annotation density."""
    n_facts = sum(len(ex.facts) for ex in examples)
    n_edges = sum(len(ex.edges) for ex in examples)
    n_sentences = sum(len(ex.sentences) for ex in examples)
    rows = [
        ("records written", len(examples)),
        ("fact items", n_facts),
        ("fact relations (dependency edges)", n_edges),
        ("span annotations (sentence + fact spans)", n_sentences + n_facts),
        ("chunks with at least one fact item", sum(1 for ex in examples if ex.facts)),
    ]
    label_width = max(len(label) for label, _ in rows)
    count_width = max(len(str(count)) for _, count in rows)
    lines = [f"{label:<{label_width}}  {count:>{count_width}}" for label, count in rows]
    return "\n".join(lines)
