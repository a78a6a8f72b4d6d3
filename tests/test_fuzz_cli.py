"""Fuzz the CLI in-process: random config text, damaged corpora, corpora with
huge token ids, checkpoints and metrics files must each end in a documented
exit code (0-3) with a one-line message, never in an uncaught exception or a
leftover *.tmp file."""

import dataclasses
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prism.corpus import GeneratorConfig, generate, write_jsonl
from prism.harness import RunConfig, main
from prism.model import MAX_VOCAB_SIZE, config_digest

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Small enough that one train command takes milliseconds.
TINY = ("steps = 1\nbatch_size = 2\nembed_dim = 2\nhidden_dim = 2\nwindow = 2\n"
        "vocab_size = 30\neval_fraction = 0\n")
PREFIXES = {1: "config error: ", 2: "i/o error: ", 3: "numeric divergence: "}

# Values that hit the parsers' edges; numbers stay small so no run is large.
VALUES = ["", "0", "1", "2", "-1", "0.5", "1e-3", "nan", "inf", "-inf", "1e400", "3.0", "0x10",
          "x", "prism", "sft", "knowledge_mask", "prism_no_gate", "onehop", "fixpoint", "0,0.1"]
TRAIN_KEYS = ["lambda" if f.name == "lam" else f.name for f in dataclasses.fields(RunConfig)]
GEN_KEYS = [f.name for f in dataclasses.fields(GeneratorConfig)]

# Token ids for corpora whose vocabulary is inferred (vocab_size = 0): small
# ones keep the model small; the rest are refused before any allocation.
token_ids = st.integers(0, 99) | st.integers(MAX_VOCAB_SIZE, 2**63 - 1)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["start", "end", "risk", "id", "sentence", "from", "to"]),
                      inner, max_size=3),
    max_leaves=6,
)


def config_text(keys):
    line = st.one_of(
        st.builds("{} = {}".format, st.sampled_from(keys), st.sampled_from(VALUES)),
        st.text(max_size=12),
    )
    return st.one_of(
        st.lists(line, max_size=5).map(lambda lines: "\n".join(lines).encode("utf-8")),
        st.binary(max_size=24),
    )


def byte_damage(blob):
    """Truncate `blob` or overwrite a few of its bytes."""
    cut = st.integers(0, len(blob) - 1).map(lambda i: blob[:i])
    overwrite = st.tuples(st.integers(0, len(blob) - 1), st.binary(min_size=1, max_size=4)).map(
        lambda pb: blob[:pb[0]] + pb[1] + blob[pb[0] + len(pb[1]):])
    return cut | overwrite


def damage_json(data, draw):
    """Replace or delete one value somewhere inside decoded JSON `data`."""
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        return


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus = str(root / "corpus.jsonl")
    write_jsonl(generate(GeneratorConfig(vocab_size=30, n_examples=6, seed=4)), corpus)
    tiny = root / "tiny.cfg"
    tiny.write_text(TINY)
    for lam in ("0", "0.1"):
        assert cli(["train", "--config", str(tiny), "--corpus", corpus, "--lambda", lam,
                    "--out", str(root / f"lam_{lam}")], str(root)) == 0
    return root


def cli(argv, workdir):
    """Run main(argv); check the exit code, stderr and temp files; return the code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert all(line.startswith(("note: ", "warning: ")) for line in lines[:-1 if code else None])
    if code:
        assert lines and lines[-1].startswith(PREFIXES[code]), lines
    for dirpath, _, files in os.walk(workdir):
        assert not [f for f in files if f.endswith(".tmp")], dirpath
    return code


@FUZZ
@given(command=st.sampled_from(["train", "ablate", "preprocess"]), data=st.data())
def test_random_config_text(base, command, data):
    wd = tempfile.mkdtemp(dir=base)
    try:
        cfg = os.path.join(wd, "fuzz.cfg")
        if command == "preprocess":
            text = data.draw(config_text(GEN_KEYS))
            argv = ["preprocess", "--config", cfg, "--out", os.path.join(wd, "c.jsonl")]
            prefix = b"n_examples = 3\n"
        else:
            text = data.draw(config_text([*TRAIN_KEYS, "lambdas"]))
            argv = [command, "--config", cfg, "--corpus", str(base / "corpus.jsonl"),
                    "--out", os.path.join(wd, "run")]
            prefix = TINY.replace("vocab_size = 30\n", "").encode()
        with open(cfg, "wb") as fh:
            fh.write(prefix + text)
        cli(argv, wd)
    finally:
        shutil.rmtree(wd)


@FUZZ
@given(command=st.sampled_from(["train", "trace"]), data=st.data())
def test_damaged_corpus(base, command, data):
    wd = tempfile.mkdtemp(dir=base)
    try:
        blob = (base / "corpus.jsonl").read_bytes()
        if data.draw(st.booleans()):
            blob = data.draw(byte_damage(blob))
        else:
            records = [json.loads(line) for line in blob.splitlines()]
            damage_json(records, data.draw)
            blob = "".join(json.dumps(r) + "\n" for r in records).encode()
        bad = os.path.join(wd, "bad.jsonl")
        with open(bad, "wb") as fh:
            fh.write(blob)
        if command == "train":
            argv = ["train", "--config", str(base / "tiny.cfg"), "--corpus", bad]
        else:
            argv = ["trace", "--checkpoint", str(base / "lam_0.1" / "checkpoint.json"),
                    "--corpus", bad, "--limit", "0"]
        cli([*argv, "--out", os.path.join(wd, "out")], wd)
    finally:
        shutil.rmtree(wd)


@FUZZ
@given(data=st.data())
def test_inferred_vocabulary(base, data):
    wd = tempfile.mkdtemp(dir=base)
    try:
        records = [json.loads(line) for line in (base / "corpus.jsonl").read_text().splitlines()]
        for _ in range(data.draw(st.integers(1, 3))):
            tokens = data.draw(st.sampled_from(records))[data.draw(st.sampled_from(["input", "target"]))]
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(token_ids)
        top = max(max(r["input"] + r["target"]) for r in records)
        corpus = os.path.join(wd, "wide.jsonl")
        cfg = os.path.join(wd, "tiny.cfg")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in records))
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(TINY.replace("vocab_size = 30", "vocab_size = 0"))
        code = cli(["train", "--config", cfg, "--corpus", corpus, "--out", os.path.join(wd, "run")], wd)
        assert code == (1 if top >= MAX_VOCAB_SIZE else 0)
    finally:
        shutil.rmtree(wd)


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint(base, data):
    wd = tempfile.mkdtemp(dir=base)
    try:
        blob = (base / "lam_0.1" / "checkpoint.json").read_bytes()
        how = data.draw(st.sampled_from(["bytes", "anywhere", "config"]))
        if how == "bytes":
            blob = data.draw(byte_damage(blob))
        else:
            payload = json.loads(blob)
            if how == "anywhere":
                damage_json(payload, data.draw)
            else:  # damage the config but keep its hash matching
                box = [payload["config"]]
                damage_json(box, data.draw)
                payload["config"] = box[0]
                payload["config_hash"] = config_digest(payload["config"])
            blob = json.dumps(payload).encode()
        ck = os.path.join(wd, "checkpoint.json")
        with open(ck, "wb") as fh:
            fh.write(blob)
        cli(["trace", "--checkpoint", ck, "--corpus", str(base / "corpus.jsonl"), "--limit", "2",
             "--out", os.path.join(wd, "trace.jsonl")], wd)
    finally:
        shutil.rmtree(wd)


@FUZZ
@given(alone=st.booleans(), data=st.data())
def test_damaged_metrics(base, alone, data):
    wd = tempfile.mkdtemp(dir=base)
    try:
        blob = (base / "lam_0.1" / "metrics.json").read_bytes()
        if data.draw(st.booleans()):
            blob = data.draw(byte_damage(blob))
        else:
            payload = json.loads(blob)
            damage_json(payload, data.draw)
            blob = json.dumps(payload).encode()
        run = os.path.join(wd, "run")
        os.makedirs(run)
        with open(os.path.join(run, "metrics.json"), "wb") as fh:
            fh.write(blob)
        # with the run's settings, which report also reads, the damage reaches the metrics reader
        shutil.copyfile(base / "lam_0.1" / "resolved_config.json", os.path.join(run, "resolved_config.json"))
        runs = [run] if alone else [str(base / "lam_0"), run]
        cli(["report", *runs, "--out", os.path.join(wd, "report.csv")], wd)
    finally:
        shutil.rmtree(wd)
