"""CLI surface: config parsing, run artifacts, determinism, exit codes."""

import base64
import dataclasses
import json
import os
import shutil
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from prism.corpus import MAX_CORPUS_TOKENS, GeneratorConfig, generate, read_jsonl, write_jsonl
from prism.errors import ConfigError, DivergenceError
from prism.harness import (
    CSV_HEADER,
    MetricsReport,
    RunConfig,
    WorkerDied,
    cmd_ablate,
    cmd_preprocess,
    cmd_report,
    cmd_trace,
    cmd_train,
    config_from_dict,
    fork_map,
    main,
    parse_config_file,
    run_identifier,
    validate_run_config,
)
from prism.model import (
    BLOCK_BYTES,
    MAX_BATCH_SIZE,
    MAX_PARAMETERS,
    MAX_VOCAB_SIZE,
    MAX_WINDOW,
    config_digest,
    forward_batch,
    load_checkpoint,
    prepare_examples,
)
import prism
from prism.objective import softmax_probs

import oracles
from oracles import redistribute, trace_rows_reference, trace_text_per_record
from test_model import evaluated_trace
from test_same_bits import same_bits


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("corpus") / "corpus.jsonl")
    cfg = GeneratorConfig(vocab_size=70, n_examples=120, n_keys=10, n_values=10,
                          sentence_length=5, corruption_fraction=0.3,
                          risk_min=0.5, risk_max=0.9, dependency_p=0.25, seed=21)
    write_jsonl(generate(cfg), path)
    return path


@pytest.fixture(scope="module")
def checkpoint_path(corpus_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ck_run"))
    cmd_train(run_config(corpus_path, out, steps=5))
    return os.path.join(out, "checkpoint.json")


def decode_array(node):
    """The array of a checkpoint entry {"shape", "data"}."""
    return np.frombuffer(base64.b64decode(node["data"]), dtype="<f8").reshape(node["shape"]).copy()


def edit_array(node, edit):
    """The checkpoint entry of edit(array of `node`)."""
    arr = np.asarray(edit(decode_array(node)), dtype=np.float64)
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.astype("<f8").tobytes()).decode()}


def trace_row_bytes(params):
    """The bytes of one position's x, hidden and logits rows in trace's groups."""
    return 8 * (params.w1.shape[0] + params.w1.shape[1] + params.vocab_size)


def run_config(corpus, out, **overrides):
    base = dict(corpus=corpus, method="prism", lam=0.1, steps=25, batch_size=8,
                learning_rate=3e-3, embed_dim=12, hidden_dim=16,
                eval_fraction=0.1, seed=3, out=out)
    base.update(overrides)
    return RunConfig(**base)


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nmethod = prism\nlambda = 0.25\nsteps = 7 # inline\n\n")
        raw = parse_config_file(str(path))
        assert raw == {"method": "prism", "lambda": "0.25", "steps": "7"}
        cfg = config_from_dict(RunConfig, raw)
        assert (cfg.method, cfg.lam, cfg.steps) == ("prism", 0.25, 7)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            config_from_dict(RunConfig, {"mystery": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            config_from_dict(RunConfig, {"steps": "many"})

    def test_leading_byte_order_mark_is_skipped(self, corpus_path, tmp_path, capsys):
        # editors on Windows start a UTF-8 file with U+FEFF
        cfg = tmp_path / "bom.cfg"
        cfg.write_text(f"\ufeffsteps = 3\ncorpus = {corpus_path}\n", encoding="utf-8")
        assert parse_config_file(str(cfg)) == {"steps": "3", "corpus": corpus_path}
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert json.load(open(tmp_path / "r" / "resolved_config.json"))["config"]["steps"] == 3

    def test_nul_byte_is_1(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("steps = 3\ncorpus = a\0b\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}:2: NUL byte in 'corpus = a\\x00b'\n"

    def test_nul_byte_in_a_comment_is_1(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3 # \0\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}:2: NUL byte in 'steps = 3 # \\x00'\n"
        assert not os.path.exists(tmp_path / "r")

    def test_repeated_key_is_1(self, corpus_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.cfg").write_text(f"corpus = {corpus_path}\nsteps = 3\nsteps = 4\n")
        assert main(["train", "--config", "t.cfg", "--out", "run"]) == 1
        assert capsys.readouterr().err == "config error: t.cfg:3: key 'steps' repeated\n"
        assert not os.path.exists(tmp_path / "run")

    def test_field_name_lam_is_an_unknown_key(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nlambda = 0.5\nlam = 0.2\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "config error: unknown config key 'lam' for RunConfig\n"
        assert not os.path.exists(tmp_path / "run")

    def test_flag_replaces_a_file_value(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nbatch_size = 4\nlambda = 0.5\nseed = 1\n")
        assert main(["train", "--config", str(cfg), "--lambda", "0.2", "--seed", "2",
                     "--out", str(tmp_path / "run")]) == 0
        saved = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert (saved["lambda"], saved["seed"]) == (0.2, 2)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("steps 7\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_method_validated(self):
        cfg = RunConfig(corpus="x.jsonl", method="sgd")
        with pytest.raises(ConfigError, match="method"):
            validate_run_config(cfg)

    def test_minus_zero_lambda_is_lambda_zero(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nbatch_size = 4\nlambda = -0\n")
        run = tmp_path / "run"
        resolved = []
        for flags in (["--lambda", "-0"], [], ["--lambda", "0"]):  # -0 by flag, -0 in the file, then 0
            assert main(["train", "--config", str(cfg), *flags, "--out", str(run)]) == 0
            resolved.append((run / "resolved_config.json").read_bytes())
        assert resolved[0] == resolved[1] == resolved[2]
        saved = json.loads(resolved[0])
        assert saved["config"]["lambda"] == 0.0 and saved["run_id"].startswith("prism_lam0_seed")

    def test_sft_forces_lambda_zero(self, capsys):
        cfg = validate_run_config(RunConfig(corpus="x.jsonl", method="sft", lam=0.5))
        assert cfg.lam == 0.0

    def test_run_identifier_stable(self):
        a = RunConfig(corpus="c.jsonl", seed=5)
        b = RunConfig(corpus="c.jsonl", seed=5)
        assert run_identifier(a) == run_identifier(b)
        assert run_identifier(a) != run_identifier(RunConfig(corpus="c.jsonl", seed=6))


def readme_config_tables():
    """{key: default cell} of each table under README's "### Config keys", in order."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    section = readme.split("### Config keys\n", 1)[1].split("\n## ", 1)[0]
    tables = [{}]
    for line in section.splitlines():
        if line.startswith("| `"):
            key, default = [cell.strip() for cell in line.split("|")[1:3]]
            tables[-1][key.strip("`")] = default.strip("`")
        elif tables[-1] and not line.startswith("|"):
            tables.append({})
    return [table for table in tables if table]


@pytest.mark.parametrize("cls", [GeneratorConfig, RunConfig])
def test_the_readme_config_table_names_every_key_with_its_default(cls):
    table = readme_config_tables()[[GeneratorConfig, RunConfig].index(cls)]
    fields = {"lambda" if f.name == "lam" else f.name: f.default for f in dataclasses.fields(cls)}
    assert list(table) and sorted(table) == sorted(fields)
    for key, default in fields.items():
        shown = table[key]
        if isinstance(default, str):
            assert shown == (default or "(empty)"), key
        else:
            assert type(default)(shown) == default, key


class TestPreprocess:
    def test_writes_corpus_and_meta(self, tmp_path, capsys):
        out = str(tmp_path / "corpus.jsonl")
        cfg = GeneratorConfig(vocab_size=70, n_examples=30, n_keys=10, n_values=10,
                              sentence_length=5, seed=2, out=out)
        meta = cmd_preprocess(cfg)
        assert meta["kept"] == 30
        assert meta["rejected"] == 0
        assert len(read_jsonl(out)) == 30
        assert os.path.exists(out + ".meta.json")
        shown = capsys.readouterr().out
        assert "records written" in shown and "rejected examples: 0\n" in shown

    def test_planted_defects_counted(self, tmp_path, capsys):
        out = str(tmp_path / "corpus.jsonl")
        cfg = GeneratorConfig(vocab_size=70, n_examples=20, n_keys=10, n_values=10,
                              sentence_length=5, seed=2, plant_defects=5, out=out)
        meta = cmd_preprocess(cfg)
        assert meta["kept"] == 20
        assert meta["rejected"] == 5
        assert "rejected examples: 5\n" in capsys.readouterr().out

    def test_trainer_key_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"n_examples = 5\nmethod = sft\nout = {tmp_path / 'c.jsonl'}\n")
        assert main(["preprocess", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: unknown config key 'method' for GeneratorConfig\n"
        assert not os.path.exists(tmp_path / "c.jsonl")

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = GeneratorConfig(vocab_size=70, n_examples=25, n_keys=10, n_values=10,
                              sentence_length=5, seed=9, out=str(tmp_path / "a.jsonl"))
        cmd_preprocess(cfg)
        first = open(cfg.out, "rb").read()
        cmd_preprocess(cfg)
        assert open(cfg.out, "rb").read() == first


class TestTrainCommand:
    def test_artifacts_written(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        report = cmd_train(run_config(corpus_path, out))
        for name in ("resolved_config.json", "log.jsonl", "checkpoint.json", "metrics.json"):
            assert os.path.exists(os.path.join(out, name)), name
        log_lines = open(os.path.join(out, "log.jsonl")).read().splitlines()
        assert len(log_lines) == 25
        first = json.loads(log_lines[0])
        assert first["step"] == 1 and "total" in first and "n_fact" in first
        saved = json.loads(open(os.path.join(out, "metrics.json")).read())
        assert saved["run_id"] == report.run_id
        assert saved["metrics"]["final_total"] == report.metrics["final_total"]

    def test_rerun_byte_identical(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(run_config(corpus_path, out))
        kept = {}
        for name in ("log.jsonl", "checkpoint.json", "metrics.json"):
            kept[name] = open(os.path.join(out, name), "rb").read()
        shutil.rmtree(out)
        cmd_train(run_config(corpus_path, out))
        for name, blob in kept.items():
            assert open(os.path.join(out, name), "rb").read() == blob, name

    def test_checkpoint_loads_back(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(run_config(corpus_path, out, vocab_size=70))
        ck = load_checkpoint(os.path.join(out, "checkpoint.json"))
        assert ck.config["method"] == "prism"
        assert ck.params.vocab_size == 70

    def test_environment_recorded_outside_config(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        report = cmd_train(run_config(corpus_path, out))
        resolved = json.loads(open(os.path.join(out, "resolved_config.json")).read())
        checkpoint = json.loads(open(os.path.join(out, "checkpoint.json")).read())
        assert resolved["environment"] == checkpoint["environment"]
        env = resolved["environment"]
        assert env["python"] and env["numpy"] == np.__version__ and env["blas"]
        assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        assert env["numpy_imported_before_prism"] is False  # tests/conftest.py imports prism first
        assert "environment" not in resolved["config"]
        assert resolved["config_hash"] == config_digest(resolved["config"])
        assert resolved["run_id"] == report.run_id == run_identifier(run_config(corpus_path, out))
        assert load_checkpoint(os.path.join(out, "checkpoint.json")).config == resolved["config"]

    def test_numpy_imported_first_is_recorded(self):
        src = os.path.dirname(os.path.dirname(prism.__file__))
        code = "import numpy, prism.model; print(prism.model.numeric_environment()['numpy_imported_before_prism'])"
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == "True\n"

    def test_checkpoint_does_not_depend_on_the_thread_variables(self, tmp_path):
        # At V = 1024 two BLAS threads change a step's matmul sums, and so the
        # model's bits; prism runs one thread whatever the variables say.
        src = os.path.dirname(os.path.dirname(prism.__file__))
        corpus = str(tmp_path / "wide.jsonl")
        write_jsonl(generate(GeneratorConfig(vocab_size=1024, n_examples=100, n_keys=200, n_values=200,
                                             sentence_length=6, corruption_fraction=0.3, seed=1)), corpus)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("steps = 3\nbatch_size = 32\nembed_dim = 32\nhidden_dim = 64\nvocab_size = 1024\n"
                       "learning_rate = 0.02\n")
        bare = {k: v for k, v in os.environ.items() if k not in prism.BLAS_THREADS}
        settings = [{}, *({var: "2"} for var in prism.BLAS_THREADS), dict.fromkeys(prism.BLAS_THREADS, "2")]
        blobs = []
        for i, extra in enumerate(settings):
            workdir = tmp_path / str(i)
            workdir.mkdir()
            subprocess.run([sys.executable, "-m", "prism.harness", "train", "--config", str(cfg),
                            "--corpus", corpus, "--out", "run"], cwd=workdir, check=True,
                           capture_output=True, env=dict(bare, PYTHONPATH=src, **extra))
            blobs.append((workdir / "run" / "checkpoint.json").read_bytes())
        models = [json.loads(blob)["model"] for blob in blobs]
        assert [model == models[0] for model in models] == [True] * len(settings)
        assert [blob == blobs[0] for blob in blobs] == [True] * len(settings)

    def test_a_small_corpus_holds_out_one_record(self, corpus_path, tmp_path, capsys):
        # 10% of 4 records rounds to none; one is held out all the same
        small = tmp_path / "small.jsonl"
        small.write_text("".join(open(corpus_path).readlines()[:4]))
        cmd_train(run_config(str(small), str(tmp_path / "run"), steps=3))
        assert "3 steps on 3 examples (eval on 1)" in capsys.readouterr().out
        saved = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert (saved["n_train"], saved["n_eval"]) == (3, 1)

    def test_one_record_held_out_leaves_no_training_example(self, corpus_path, tmp_path, capsys):
        one = tmp_path / "one.jsonl"
        one.write_text(open(corpus_path).readline())
        assert main(["train", "--corpus", str(one), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "config error: eval_fraction leaves no training examples\n"
        assert not os.path.exists(tmp_path / "run")

    def test_empty_corpus_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            cmd_train(run_config(str(empty), str(tmp_path / "run")))


class TestRunData:
    @pytest.mark.parametrize("eval_fraction", [0.0, 0.1])
    def test_corpus_prepared_once_in_file_order(self, corpus_path, monkeypatch, eval_fraction):
        import prism.harness as harness_mod
        calls = []

        def counting(examples, *args, **kwargs):
            prepared = prepare_examples(examples, *args, **kwargs)
            calls.append((isinstance(examples, list), len(prepared)))
            return prepared

        monkeypatch.setattr(harness_mod, "prepare_examples", counting)
        cfg = validate_run_config(run_config(corpus_path, "unused", eval_fraction=eval_fraction))
        data = harness_mod.load_run_data(cfg)
        assert calls == [(False, 120)]  # the records as they are decoded, not a list of them
        n_train = 120 if eval_fraction == 0 else 108
        assert len(data.prep_train) == n_train
        assert len(data.prep_eval) == (120 - n_train or 120)
        alone = prepare_examples(read_jsonl(corpus_path), 4, data.vocab)
        held = alone[n_train:] if eval_fraction else alone
        for a, b in zip([*data.prep_train, *data.prep_eval], [*alone[:n_train], *held]):
            assert a.distinct[a.window_id].tobytes() == b.distinct[b.window_id].tobytes()
            assert a.signals.support_weight.tobytes() == b.signals.support_weight.tobytes()


EDGE_ERROR = "i/o error: record 2: edge 2->1 must point from an earlier to a later sentence"
# The error `train` gives for each of tools/same_bits.py's fault corpora.
FAULT_ERRORS = {
    "json_after_edge": "i/o error: line 4: invalid JSON: Expecting value",
    "one_record": "config error: eval_fraction leaves no training examples",
    "edge_before_token": EDGE_ERROR,
    "token_before_edge": "config error: token id 75 outside [0, 70) of the model vocabulary",
    "edge_then_wide_token": "config error: vocabulary of 70001 tokens exceeds the limit of 65536",
}


def faulty_corpus(corpus_path, path, name):
    """The test corpus with same_bits.FAULTS[name] applied."""
    records, faults, _ = same_bits.FAULTS[name]
    with open(corpus_path) as fh:
        same_bits.write_fault_corpus(fh.read().splitlines(), str(path), records, faults)
    return str(path)


class TestCorpusErrorOrder:
    """A corpus with two faults gets the error a read of the whole file before any check would give: a format
    error on any line first, then the corpus-wide checks (empty, eval_fraction, the model's size), then the
    first record's token-id or annotation error, its token ids before its annotations."""

    @pytest.mark.parametrize("name", list(same_bits.FAULTS))
    def test_train_reports_the_first_fault(self, corpus_path, tmp_path, capsys, name):
        corpus = faulty_corpus(corpus_path, tmp_path / "faulty.jsonl", name)
        (tmp_path / "t.cfg").write_text(f"vocab_size = {same_bits.FAULTS[name][2]}\nsteps = 3\n")
        argv = ["train", "--config", str(tmp_path / "t.cfg"), "--corpus", corpus, "--out", str(tmp_path / "run")]
        message = FAULT_ERRORS[name]
        assert main(argv) == (2 if message.startswith("i/o") else 1)
        assert capsys.readouterr().err == message + "\n"
        assert not os.path.exists(tmp_path / "run")

    def test_trace_reads_its_slice_before_it_checks_a_record(self, corpus_path, checkpoint_path, tmp_path, capsys):
        corpus = faulty_corpus(corpus_path, tmp_path / "faulty.jsonl", "json_after_edge")
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus, "--limit", "5"]) == 2
        assert capsys.readouterr().err == FAULT_ERRORS["json_after_edge"] + "\n"
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus, "--limit", "3"]) == 2
        assert capsys.readouterr().err == EDGE_ERROR + "\n"

    @pytest.mark.parametrize("field", ["sentences", "facts"])
    def test_a_span_bound_past_int64_is_the_records_error(self, corpus_path, checkpoint_path, tmp_path, capsys,
                                                           field):
        # the record's span check fails before any bound is copied into an int64 buffer
        lines = open(corpus_path).read().splitlines()
        record = json.loads(lines[1])
        record[field][0]["end"] = 2**63
        lines[1] = json.dumps(record)
        corpus = tmp_path / "huge.jsonl"
        corpus.write_text("".join(line + "\n" for line in lines))
        (tmp_path / "t.cfg").write_text("steps = 3\n")
        for argv in (["train", "--config", str(tmp_path / "t.cfg"), "--out", str(tmp_path / "run")],
                     ["trace", "--checkpoint", checkpoint_path]):
            assert main([*argv, "--corpus", str(corpus)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("i/o error: record 2: ") and f"{2**63})" in err and err.count("\n") == 1


class TestAblateCommand:
    def test_csv_contract(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        csv_path = cmd_ablate(run_config(corpus_path, out), [0.0, 0.1])
        lines = open(csv_path).read().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 7 for r in rows)
        lambdas = sorted({r[2] for r in rows})
        assert lambdas == ["0.0", "0.1"]
        base_rows = [r for r in rows if r[2] == "0.0"]
        assert all(float(r[6]) == 0.0 for r in base_rows)

    def test_lambda_run_is_byte_identical_to_standalone_train(self, corpus_path, tmp_path, capsys):
        # the sweep shares one preparation; no state may leak between its runs
        out = str(tmp_path / "sweep")
        cmd_ablate(run_config(corpus_path, out), [0.0, 0.1])
        run_dir = os.path.join(out, "lam_0.1")
        names = ("checkpoint.json", "log.jsonl", "metrics.json")
        swept = {name: open(os.path.join(run_dir, name), "rb").read() for name in names}
        cmd_train(run_config(corpus_path, run_dir, lam=0.1))
        for name in names:
            assert open(os.path.join(run_dir, name), "rb").read() == swept[name], name

    def test_bad_annotation_is_2(self, corpus_path, tmp_path, capsys):
        records = [json.loads(line) for line in open(corpus_path)]
        target = next(r for r in records if len(r["sentences"]) >= 3)
        target["edges"] = [{"from": 2, "to": 1}]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "sweep"
        assert main(["ablate", "--corpus", str(bad), "--lambdas", "0,0.1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "edge 2->1 must point from an earlier to a later sentence" in err
        assert err.count("\n") == 1
        assert not os.path.exists(out / "failures.json")

    def test_lambda_list_must_include_zero(self, corpus_path, tmp_path):
        with pytest.raises(ConfigError, match="include 0"):
            cmd_ablate(run_config(corpus_path, str(tmp_path / "s")), [0.1])
        with pytest.raises(ConfigError, match="empty"):
            cmd_ablate(run_config(corpus_path, str(tmp_path / "s")), [])

    @pytest.mark.parametrize("lambdas, pair", [("0,0.1,0.1", "0.1 and 0.1"),
                                               ("0,0.1,0.1000001", "0.1 and 0.1000001"),
                                               ("0,0", "0.0 and 0.0")])
    def test_colliding_run_directories_are_1(self, corpus_path, tmp_path, capsys, lambdas, pair):
        out = tmp_path / "sweep"
        assert main(["ablate", "--corpus", corpus_path, "--lambdas", lambdas, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: lambdas {pair} share the run directory")
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    def test_minus_zero_shares_the_run_directory_of_zero(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["ablate", "--corpus", corpus_path, "--lambdas", "0,-0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"config error: lambdas 0.0 and -0.0 share the run directory "
                                           f"{out / 'lam_0'}\n")
        assert not os.path.exists(out)

    def test_minus_zero_is_the_baseline_in_lam_0(self, corpus_path, tmp_path, capsys):
        cfg, out = tmp_path / "t.cfg", tmp_path / "sweep"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nbatch_size = 4\n")
        assert main(["ablate", "--config", str(cfg), "--lambdas=-0,0.1", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["ablation.csv", "lam_0", "lam_0.1"]
        assert "ablation over lambdas ['0', '0.1']" in capsys.readouterr().out
        baseline = json.loads((out / "lam_0" / "metrics.json").read_text())
        assert baseline["lambda"] == 0.0 and baseline["run_id"].startswith("prism_lam0_seed")

    def test_partial_failure_recorded_and_continues(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")

        # plant a divergent run: negative weight decay for any group that holds lambda = 0.5,
        # so the lambda = 0 run trains alone once that group is retrained one run at a time
        import prism.harness as harness_mod
        original = harness_mod.cmd_train

        def flaky(group, *rest):
            if any(sub_cfg.lam == 0.5 for sub_cfg in group):
                group = [dataclasses.replace(sub_cfg, weight_decay=-2e5) for sub_cfg in group]
            return original(group, *rest)

        harness_mod.cmd_train = flaky
        try:
            with np.errstate(over="ignore"):
                csv_path = cmd_ablate(run_config(corpus_path, out, steps=120,
                                                 learning_rate=1.0), [0.0, 0.5])
        finally:
            harness_mod.cmd_train = original
        failures = json.loads(open(os.path.join(out, "failures.json")).read())
        assert failures["failures"][0]["lambda"] == 0.5
        rows = open(csv_path).read().splitlines()[1:]
        assert all(r.split(",")[2] == "0.0" for r in rows)

    def test_clean_sweep_removes_an_earlier_sweeps_failures(self, corpus_path, tmp_path, capsys,
                                                             monkeypatch):
        import prism.harness as harness_mod
        original = harness_mod.cmd_train
        out = str(tmp_path / "sweep")

        def flaky(group, *rest):
            if any(sub_cfg.lam == 0.5 for sub_cfg in group):
                raise DivergenceError("non-finite loss at step 3")
            return original(group, *rest)

        monkeypatch.setattr(harness_mod, "cmd_train", flaky)
        cmd_ablate(run_config(corpus_path, out), [0.0, 0.5])
        assert sorted(os.listdir(out)) == ["ablation.csv", "failures.json", "lam_0"]
        monkeypatch.setattr(harness_mod, "cmd_train", original)
        csv_path = cmd_ablate(run_config(corpus_path, out), [0.0, 0.5])
        assert sorted(os.listdir(out)) == ["ablation.csv", "lam_0", "lam_0.5"]
        assert {r.split(",")[2] for r in open(csv_path).read().splitlines()[1:]} == {"0.0", "0.5"}

    def test_a_run_that_diverges_in_a_group_fails_as_it_does_alone(self, corpus_path, tmp_path, capsys,
                                                                     monkeypatch):
        """No finite lambda diverges on this corpus (even 1e300 only saturates
        AdamW's second moment), so the run at lambda 0.5 is made to: its
        loss turns infinite at the first step its complement term is active,
        in a group as alone.  A one-group sweep trains all four lambdas in
        lockstep, meets the divergence, and retrains each one alone: 0.5 lands
        in failures.json with the message of a standalone train at 0.5, and
        every other lam_* directory has the bytes of its standalone train."""
        import prism.harness as harness_mod
        import prism.model as model_mod
        real_loss, real_train = model_mod.total_loss, harness_mod.train
        trained = []

        def poisoned(logits, labels, signals, lam, *args, **kwargs):
            loss, grad, trace = real_loss(logits, labels, signals, lam, *args, **kwargs)
            total = np.where((np.atleast_1d(lam) == 0.5) & (np.atleast_1d(loss.comp) > 0.0), np.inf, loss.total)
            return dataclasses.replace(loss, total=total if np.ndim(lam) else float(total[0])), grad, trace

        def counted(prepared, group):
            trained.append(len(group))
            return real_train(prepared, group)

        monkeypatch.setattr(model_mod, "total_loss", poisoned)
        monkeypatch.setattr(harness_mod, "train", counted)
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 1)  # one group of every lambda
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 40\nbatch_size = 16\nlearning_rate = 0.03\n")
        out = tmp_path / "sweep"
        lambdas = ["0", "0.1", "0.5", "1"]
        alone = {}
        for lam in lambdas:
            run_dir = out / f"lam_{lam}"
            code = main(["train", "--config", str(cfg), "--lambda", lam, "--out", str(run_dir)])
            err = capsys.readouterr().err
            if lam == "0.5":
                assert code == 3 and err.startswith("numeric divergence: non-finite loss at step ")
                message = err[len("numeric divergence: "):-1]
            else:
                assert code == 0 and err == ""
                alone[lam] = {name: (run_dir / name).read_bytes() for name in os.listdir(run_dir)}
        assert int(message.rsplit(" ", 1)[1]) > 1 and sorted(os.listdir(out)) == ["lam_0", "lam_0.1", "lam_1"]
        shutil.rmtree(out)
        trained.clear()
        assert main(["ablate", "--config", str(cfg), "--lambdas", ",".join(lambdas), "--out", str(out)]) == 0
        assert trained == [4, 1, 1, 1, 1]
        assert capsys.readouterr().err == f"warning: lambda=0.5 failed: {message}\n"
        assert json.loads((out / "failures.json").read_text()) == {"failures": [{"lambda": 0.5, "error": message}]}
        assert sorted(os.listdir(out)) == ["ablation.csv", "failures.json", "lam_0", "lam_0.1", "lam_1"]
        for lam, files in alone.items():
            run_dir = out / f"lam_{lam}"
            assert {name: (run_dir / name).read_bytes() for name in os.listdir(run_dir)} == files, lam

    def test_outputs_do_not_depend_on_the_core_count(self, corpus_path, tmp_path, capsys,
                                                     monkeypatch):
        import prism.harness as harness_mod
        out = str(tmp_path / "sweep")
        seen = []
        for slots in (1, 3):  # every run in this process; one round of three
            monkeypatch.setattr(harness_mod, "process_slots", lambda slots=slots: slots)
            cmd_ablate(run_config(corpus_path, out), [0.0, 0.1, 0.5])
            files = {os.path.relpath(os.path.join(d, f), out): open(os.path.join(d, f), "rb").read()
                     for d, _, names in os.walk(out) for f in names}
            seen.append((files, capsys.readouterr()))
            shutil.rmtree(out)
        assert len(seen[0][0]) == 13 and seen[0] == seen[1]

    def test_process_slots_are_the_cpus_this_process_may_use(self):
        # the thread variables act at import, so each setting gets a fresh process
        src = os.path.dirname(os.path.dirname(prism.__file__))
        code = ("import os, prism.harness\n"
                "for cpus in (1, 2, 8):\n"
                "    os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))\n"
                "    print(prism.harness.process_slots())\n")
        bare = {k: v for k, v in os.environ.items() if k not in prism.BLAS_THREADS}
        for threads in ({}, dict.fromkeys(prism.BLAS_THREADS, "2"), {"OPENBLAS_NUM_THREADS": "8"}):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                                  env=dict(bare, PYTHONPATH=src, **threads))
            assert proc.stdout.split() == ["1", "2", "8"], threads

    def test_dead_worker_is_recorded_and_the_sweep_goes_on(self, corpus_path, tmp_path, capsys,
                                                            monkeypatch):
        import prism.harness as harness_mod
        import prism.model as model_mod
        parent, doomed = os.getpid(), []
        original_train, original_step = harness_mod.train, model_mod.optimizer_step

        def marking(prepared, group):
            doomed[:] = [any(settings.lam == 0.5 for settings in group) and os.getpid() != parent]
            return original_train(prepared, group)

        def step_or_die(params, grads, state, settings):
            if doomed[0] and state.step_count == 2:
                os._exit(7)  # the worker dies mid-run, writing nothing
            return original_step(params, grads, state, settings)

        monkeypatch.setattr(harness_mod, "train", marking)
        monkeypatch.setattr(model_mod, "optimizer_step", step_or_die)
        # three slots whatever the machine: groups (0, 0.1), (0.5, 1) and (2), workers training the first two
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 3)
        out = str(tmp_path / "sweep")
        csv_path = cmd_ablate(run_config(corpus_path, out), [0.0, 0.1, 0.5, 1.0, 2.0])
        captured = capsys.readouterr()
        died = "worker process exited with status 7"
        assert captured.err == f"warning: lambda=0.5 failed: {died}\nwarning: lambda=1 failed: {died}\n"
        failures = json.loads(open(os.path.join(out, "failures.json")).read())
        assert failures == {"failures": [{"lambda": 0.5, "error": died}, {"lambda": 1.0, "error": died}]}
        assert sorted(os.listdir(out)) == ["ablation.csv", "failures.json", "lam_0", "lam_0.1", "lam_2"]
        runs = [line.split(":")[0] for line in captured.out.splitlines() if line.startswith("run ")]
        assert [r.split("_")[1] for r in runs] == ["lam0", "lam0.1", "lam2"]
        rows = open(csv_path).read().splitlines()[1:]
        column = [r.split(",")[2] for r in rows]
        assert column == sorted(column, key=float) and set(column) == {"0.0", "0.1", "2.0"}

    def test_other_error_ends_the_sweep_as_at_the_first_failing_lambda(self, corpus_path, tmp_path,
                                                                      capsys, monkeypatch):
        import prism.harness as harness_mod
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 2)
        out = tmp_path / "sweep"
        out.mkdir()
        # groups (0, 0.1) in a worker and (0.5) here; run 0.1 fails after its group wrote run 0, and run 0.5 fails
        for blocked in ("lam_0.1", "lam_0.5"):
            (out / blocked).write_text("a file where the run directory goes")
        assert main(["ablate", "--corpus", corpus_path, "--lambdas", "0,0.1,0.5",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert [line.split("_")[1] for line in captured.out.splitlines() if line.startswith("run ")] == ["lam0"]
        assert captured.err == f"i/o error: [Errno 17] File exists: '{out / 'lam_0.1'}'\n"
        assert sorted(os.listdir(out)) == ["lam_0", "lam_0.1", "lam_0.5"]
        assert sorted(os.listdir(out / "lam_0")) == ["checkpoint.json", "log.jsonl", "metrics.json",
                                                     "resolved_config.json"]


class TestForkMap:
    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("exit_path", ["error", "interrupt", "close"])
    def test_no_worker_outlives_the_call(self, tmp_path, monkeypatch, exit_path):
        import prism.harness as harness_mod
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 3)

        def fn(item):  # workers mark their item and wait; the last item of a round runs here
            (tmp_path / str(item)).write_text("ran")
            if item != 2:
                time.sleep(60 if exit_path == "interrupt" else 0.2)
                return item
            while not all((tmp_path / name).exists() for name in "01"):
                time.sleep(0.01)
            if exit_path != "close":
                raise (ValueError if exit_path == "error" else KeyboardInterrupt)("own item")
            return item

        started = time.monotonic()
        if exit_path == "close":  # the caller stops after the first outcome
            outcomes = fork_map(fn, range(6))
            assert next(outcomes) == (0, None)
            outcomes.close()
        else:
            with pytest.raises(ValueError if exit_path == "error" else KeyboardInterrupt, match="own item"):
                for _, error in fork_map(fn, range(6)):
                    if error is not None:  # as cmd_ablate does with an error it does not record
                        raise error
        self.assert_no_child_left()
        assert time.monotonic() - started < 30  # an interrupt kills the round's workers
        assert sorted(os.listdir(tmp_path)) == ["0", "1", "2"]  # no further round started

    def test_an_outcome_that_cannot_be_pickled_is_a_dead_worker(self, monkeypatch):
        import prism.harness as harness_mod
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 2)
        (value, error), (own, none) = fork_map(lambda item: lambda: item, [1, 2])
        assert value is None and isinstance(error, WorkerDied)
        assert str(error) == "worker process exited with status 1"
        assert own() == 2 and none is None
        self.assert_no_child_left()

    def test_an_unpicklable_run_is_recorded_and_the_sweep_goes_on(self, corpus_path, tmp_path, capsys,
                                                                  monkeypatch):
        import prism.harness as harness_mod
        parent, original = os.getpid(), harness_mod.cmd_train

        def unpicklable_in_a_worker(group, *rest):
            if any(sub_cfg.lam == 0.5 for sub_cfg in group) and os.getpid() != parent:
                return [lambda: sub_cfg for sub_cfg in group]
            return original(group, *rest)

        monkeypatch.setattr(harness_mod, "cmd_train", unpicklable_in_a_worker)
        # groups (0, 0.1), (0.5, 1) and (2), workers training the first two
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 3)
        out = str(tmp_path / "sweep")
        cmd_ablate(run_config(corpus_path, out), [0.0, 0.1, 0.5, 1.0, 2.0])
        died = "worker process exited with status 1"
        assert capsys.readouterr().err == f"warning: lambda=0.5 failed: {died}\nwarning: lambda=1 failed: {died}\n"
        assert json.loads(open(os.path.join(out, "failures.json")).read()) == {
            "failures": [{"lambda": 0.5, "error": died}, {"lambda": 1.0, "error": died}]}
        assert sorted(os.listdir(out)) == ["ablation.csv", "failures.json", "lam_0", "lam_0.1", "lam_2"]
        self.assert_no_child_left()

    def test_piped_stdout_holds_each_run_once_in_lambda_order(self, corpus_path, tmp_path):
        # Piped, stdout is block-buffered: the second round forks while the first
        # round's runs are still in the buffer, which a worker must not write again.
        src = os.path.dirname(os.path.dirname(prism.__file__))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        code = "import sys, prism.harness as h\nh.process_slots = lambda: 2\nsys.exit(h.main())\n"
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nbatch_size = 4\n")
        proc = subprocess.run([sys.executable, "-c", code, "ablate", "--config", str(cfg),
                               "--lambdas", "0,0.1,0.5,1", "--out", str(tmp_path / "sweep")],
                              capture_output=True, text=True, env=dict(env, PYTHONPATH=src))
        assert proc.returncode == 0 and proc.stderr == ""
        runs = [line.split("_")[1] for line in proc.stdout.splitlines() if line.startswith("run ")]
        assert runs == ["lam0", "lam0.1", "lam0.5", "lam1"]
        assert proc.stdout.count("  final loss:") == 4 and proc.stdout.count("ablation over lambdas") == 1


class TestTraceCommand:
    def test_rows_and_gate_oracle_replay(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(run_config(corpus_path, out, steps=120))
        ck_path = os.path.join(out, "checkpoint.json")
        trace_path = str(tmp_path / "trace.jsonl")
        count = cmd_trace(ck_path, corpus_path, limit=6, out=trace_path)
        assert os.path.exists(trace_path)
        rows = [json.loads(line) for line in open(trace_path)]
        assert count == len(rows)

        examples = read_jsonl(corpus_path)[:6]
        ck = load_checkpoint(ck_path)
        prepared = prepare_examples(examples, ck.params.window, ck.params.vocab_size)
        fact_by_pos = {}
        probs_by_pos = {}
        for i, prep in enumerate(prepared):
            logits, _ = forward_batch(ck.params, prep.distinct[prep.window_id])
            probs = softmax_probs(logits)
            for t in range(len(prep.labels)):
                fact_by_pos[(i, t)] = bool(prep.signals.fact_mask[t])
                probs_by_pos[(i, t)] = (probs[t], int(prep.labels[t]))

        active = 0
        for row in rows:
            key = (row["example"], row["position"])
            if not fact_by_pos[key]:
                assert row["alpha"] == 0.0
            if row["alpha"] > 0:
                active += 1
                assert row["pref_gate"] == 1 and row["keep_gate"] == 1
            # keep bit must agree with redistribute-then-argmax, recomputed offline
            probs, label = probs_by_pos[key]
            if probs[label] > np.delete(probs, label).max():
                out_probs = redistribute(probs, label, row["w"])
                stays = out_probs[label] >= np.delete(out_probs, label).max()
                assert row["keep_gate"] == int(stays)
        assert active > 0

    def test_rows_equal_the_comp_loss_reference(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(run_config(corpus_path, out, steps=120))
        ck_path = os.path.join(out, "checkpoint.json")
        payload = json.loads(open(ck_path).read())
        for name in ("w2", "b2"):  # sharper: some fact rows saturate the clamp, p_label >= 1 - epsilon
            payload["model"][name] = edit_array(payload["model"][name], lambda a: 8.0 * a)
        open(ck_path, "w").write(json.dumps(payload))
        records = [json.loads(line) for line in open(corpus_path)][:40]
        for record in records[:3]:  # a last target token outside every sentence: "sentence": null
            record["target"].append(record["target"][-1])
            record.get("valid", []).append(1)
        traced = str(tmp_path / "traced.jsonl")
        open(traced, "w").write("".join(json.dumps(record) + "\n" for record in records))
        capsys.readouterr()
        count = cmd_trace(ck_path, traced, limit=40, out=None)
        ck = load_checkpoint(ck_path)
        prepared = prepare_examples(read_jsonl(traced), ck.params.window, ck.params.vocab_size)
        reference = trace_rows_reference(ck.params, prepared)
        printed = capsys.readouterr().out
        assert printed == "".join(json.dumps(row) + "\n" for row in reference)
        rows = [json.loads(line) for line in printed.splitlines()]
        assert count == len(rows) and rows == reference
        assert any(r["sentence"] is None for r in rows) and any(r["sentence"] is not None for r in rows)
        fact_p = [r["p_label"] for r in rows if r["w"] < 1.0]
        assert any(p >= 1.0 - 1e-6 for p in fact_p) and any(p < 1.0 - 1e-6 for p in fact_p)
        assert any(r["alpha"] > 0 for r in rows) and any(r["pref_gate"] == 0 for r in rows)

    @staticmethod
    def poison_record(monkeypatch, prepared, record, value):
        """Make one logit of `record` (1-based) non-finite, for cmd_trace and
        the oracles.  The record is told by its set of windows: cmd_trace
        forwards each record's distinct windows, sorted, as one block of
        forward_batch's `splits`, and the oracle forwards a record per
        position."""
        prep = prepared[record - 1]
        target = np.unique(prep.distinct[prep.window_id], axis=0)
        real = forward_batch

        def poisoned(params, windows, out=None, splits=None):
            logits, cache = real(params, windows, out, splits)
            bounds = [0, len(windows)] if splits is None else splits
            for a, b in zip(bounds[:-1], bounds[1:]):
                if np.array_equal(np.unique(windows[a:b], axis=0), target):
                    logits[a + 1, 3] = value
            return logits, cache

        monkeypatch.setattr(prism.model, "forward_batch", poisoned)
        monkeypatch.setattr(oracles, "forward_batch", poisoned)

    @staticmethod
    def trace_groups(monkeypatch, *args):
        """The records of each group that cmd_trace(*args) runs, after
        checking that model.record_groups cuts them consecutively, over every
        record, each within block_rows unless it is one record."""
        groups, real = [], prism.model.record_groups

        def spy(params, prepared):
            cut = list(real(params, prepared))
            assert cut[0][0] == 0 and cut[-1][1] == len(prepared)
            assert all(stop == start for (_, stop), (start, _) in zip(cut, cut[1:]))
            rows = prism.model.block_rows(params, prism.model.BLOCK_BYTES)
            assert all(b - a == 1 or prepared.offsets[b] - prepared.offsets[a] <= rows for a, b in cut)
            groups.extend(b - a for a, b in cut)
            return iter(cut)

        with monkeypatch.context() as patch:
            patch.setattr(prism.model, "record_groups", spy)
            cmd_trace(*args)
        return groups

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_logits_give_the_reference_error(self, checkpoint_path, corpus_path, capsys,
                                                        monkeypatch, value):
        ck = load_checkpoint(checkpoint_path)
        prepared = prepare_examples(read_jsonl(corpus_path, 5), ck.params.window, ck.params.vocab_size)
        earlier = "".join(json.dumps(row) + "\n" for row in trace_rows_reference(ck.params, prepared[:2]))
        assert self.trace_groups(monkeypatch, checkpoint_path, corpus_path, 5, None) == [5]
        capsys.readouterr()
        self.poison_record(monkeypatch, prepared, 3, value)
        errors = []
        for fn in (lambda: cmd_trace(checkpoint_path, corpus_path, limit=5, out=None),
                   lambda: trace_rows_reference(ck.params, prepared)):
            with pytest.raises(DivergenceError) as info:
                fn()
            errors.append(str(info.value))
        assert errors == ["non-finite logits for record 3"] * 2
        # record 3 sits in the middle of the one group: stdout holds exactly the rows of records 1 and 2
        assert capsys.readouterr().out == earlier and earlier

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_record_leaves_no_out_file(self, checkpoint_path, corpus_path, tmp_path, capsys,
                                                  monkeypatch, value):
        ck = load_checkpoint(checkpoint_path)
        prepared = prepare_examples(read_jsonl(corpus_path, 5), ck.params.window, ck.params.vocab_size)
        self.poison_record(monkeypatch, prepared, 3, value)
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus_path, "--limit", "5",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "numeric divergence: non-finite logits for record 3\n"
        assert os.listdir(tmp_path) == []  # no trace, no *.tmp file

    def test_non_finite_record_in_the_middle_of_a_later_group(self, checkpoint_path, corpus_path, tmp_path,
                                                             capsys, monkeypatch):
        ck = load_checkpoint(checkpoint_path)
        prepared = prepare_examples(read_jsonl(corpus_path, 12), ck.params.window, ck.params.vocab_size)
        # a budget of records 1-4's positions: they make the first group
        monkeypatch.setattr(prism.model, "BLOCK_BYTES", trace_row_bytes(ck.params) * int(prepared.offsets[4]))
        groups = self.trace_groups(monkeypatch, checkpoint_path, corpus_path, 12, None)
        assert groups[0] == 4 and groups[1] >= 3 and sum(groups) == 12
        record = 4 + groups[1] // 2 + 1  # 1-based, neither first nor last of the second group
        earlier = "".join(json.dumps(row) + "\n" for row in trace_rows_reference(ck.params, prepared[:record - 1]))
        capsys.readouterr()
        self.poison_record(monkeypatch, prepared, record, np.nan)
        with pytest.raises(DivergenceError, match=f"^non-finite logits for record {record}$"):
            cmd_trace(checkpoint_path, corpus_path, limit=12, out=None)
        assert capsys.readouterr().out == earlier  # the first group, then the second's records before it
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus_path, "--limit", "12",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numeric divergence: non-finite logits for record {record}\n"
        assert os.listdir(tmp_path) == []

    @staticmethod
    def forward_calls(monkeypatch, checkpoint_path, corpus_path, out):
        """The forward_batch calls of a 12-record cmd_trace, after checking
        that each record's matmul block holds exactly its sorted distinct
        windows."""
        ck = load_checkpoint(checkpoint_path)
        prepared = prepare_examples(read_jsonl(corpus_path, 12), ck.params.window, ck.params.vocab_size)
        forwarded, real = [], forward_batch

        def forward(params, windows, out=None, splits=None):
            forwarded.append((np.array(windows), splits))
            return real(params, windows, out, splits)

        monkeypatch.setattr(prism.model, "forward_batch", forward)
        assert cmd_trace(checkpoint_path, corpus_path, limit=12, out=out) == len(prepared.labels)
        blocks = [windows[a:b] for windows, splits in forwarded for a, b in zip(splits[:-1], splits[1:])]
        assert len(blocks) == len(prepared) == 12
        for windows, prep in zip(blocks, prepared):
            assert windows.tobytes() == prep.distinct_rows()[0].tobytes()
        assert sum(map(len, blocks)) < len(prepared.labels)  # some record repeats a window
        return forwarded

    def test_forward_batch_gets_each_records_distinct_windows(self, checkpoint_path, corpus_path, tmp_path,
                                                               monkeypatch):
        forwarded = self.forward_calls(monkeypatch, checkpoint_path, corpus_path, str(tmp_path / "trace.jsonl"))
        assert len(forwarded) == 1  # the twelve records make one group

    def test_forward_batch_gets_each_records_distinct_windows_in_groups(self, checkpoint_path, corpus_path,
                                                                         tmp_path, monkeypatch):
        ck = load_checkpoint(checkpoint_path)
        lengths = np.diff(prepare_examples(read_jsonl(corpus_path, 12), ck.params.window,
                                           ck.params.vocab_size).offsets)
        monkeypatch.setattr(prism.model, "BLOCK_BYTES", trace_row_bytes(ck.params) * 3 * int(lengths.max()))
        forwarded = self.forward_calls(monkeypatch, checkpoint_path, corpus_path, str(tmp_path / "trace.jsonl"))
        assert 1 < len(forwarded) <= 4  # any three records fit in one group, and not all twelve

    def test_config_hash_mismatch_fails(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(run_config(corpus_path, out, steps=5))
        ck_path = os.path.join(out, "checkpoint.json")
        payload = json.loads(open(ck_path).read())
        payload["config"]["seed"] = 999
        open(ck_path, "w").write(json.dumps(payload))
        rc = main(["trace", "--checkpoint", ck_path, "--corpus", corpus_path])
        assert rc == 2
        assert capsys.readouterr().err == f"i/o error: checkpoint {ck_path}: config hash mismatch\n"

    @pytest.mark.parametrize("damage", [
        lambda p: p["model"].pop("b2"),
        lambda p: p["model"].update(w1=edit_array(p["model"]["w1"], lambda a: a[:-1])),
        lambda p: p["model"].update(b1=edit_array(p["model"]["b1"], lambda a: a[:-1])),
        lambda p: p["model"].update(embedding=edit_array(p["model"]["embedding"], lambda a: [0.0, 1.0])),
        lambda p: p["model"]["b2"].update(data="not base64!"),
        lambda p: p["model"]["b2"].update(data=p["model"]["b2"]["data"][:-12]),
        lambda p: p["model"]["b1"].update(shape=[-1]),
        lambda p: p["model"]["w2"].update(shape=[2**40, 2**40]),
        lambda p: p["model"]["w2"].update(shape=[1] * 40),
        lambda p: p["model"].update(window=p["model"]["window"] + 0.9),
        lambda p: p["model"].update(window=str(p["model"]["window"])),
        lambda p: p["model"].update(window=True),
        # config-hash-matching checkpoints whose model is not the config's: a window above
        # MAX_WINDOW with embedding width 1, and window 5000 with width 0, so w1 is empty
        lambda p: p["model"].update(window=100, embedding=edit_array(p["model"]["embedding"], lambda a: a[:, :1]),
                                    w1=edit_array(p["model"]["w1"], lambda a: np.zeros((100, a.shape[1])))),
        lambda p: p["model"].update(window=5000, embedding=edit_array(p["model"]["embedding"], lambda a: a[:, :0]),
                                    w1=edit_array(p["model"]["w1"], lambda a: a[:0])),
    ], ids=["no_b2", "w1_rows", "b1_len", "embedding_1d", "bad_base64", "data_short_of_shape",
            "negative_shape", "huge_shape", "many_dimensions", "window_float", "window_string", "window_bool",
            "window_above_the_config", "window_of_an_empty_model"])
    def test_damaged_checkpoint_is_2(self, checkpoint_path, corpus_path, tmp_path, capsys, damage):
        payload = json.loads(open(checkpoint_path).read())
        damage(payload)
        ck_path = tmp_path / "damaged.json"
        ck_path.write_text(json.dumps(payload))
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", str(ck_path), "--corpus", corpus_path,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: malformed checkpoint") and err.count("\n") == 1
        if type(payload["model"].get("window")) is not int:  # 4.9 or "4" must not load as window 4
            assert err.endswith(": model.window must be an integer\n")
        if payload["model"].get("window") in (100, 5000):
            assert "(window, embed_dim, hidden_dim, vocab_size)" in err and "is not the config's" in err
        assert os.listdir(tmp_path) == ["damaged.json"]  # no trace, no *.tmp file

    def test_version_1_checkpoint_is_2(self, checkpoint_path, corpus_path, tmp_path, capsys):
        payload = json.loads(open(checkpoint_path).read())
        payload["format_version"] = 1
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            payload["model"][name] = decode_array(payload["model"][name]).tolist()
        ck_path = tmp_path / "v1.json"
        ck_path.write_text(json.dumps(payload))
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", str(ck_path), "--corpus", corpus_path,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"i/o error: checkpoint {ck_path} has format version 1, "
                                           "which is not read; retrain to write a version 3 "
                                           "checkpoint\n")
        assert os.listdir(tmp_path) == ["v1.json"]

    @pytest.mark.parametrize("version, shown", [(4, "4"), ("3", "'3'"), (3.0, "3.0"), (None, "None"), (..., "None")],
                             ids=["4", "str", "float", "null", "missing"])
    def test_every_unread_version_gets_the_same_refusal(self, checkpoint_path, corpus_path, tmp_path, capsys,
                                                        version, shown):
        payload = json.loads(open(checkpoint_path).read())
        payload["format_version"] = version
        if version is ...:
            del payload["format_version"]
        ck_path = tmp_path / "unread.json"
        ck_path.write_text(json.dumps(payload))
        assert main(["trace", "--checkpoint", str(ck_path), "--corpus", corpus_path,
                     "--out", str(tmp_path / "trace.jsonl")]) == 2
        assert capsys.readouterr().err == (f"i/o error: checkpoint {ck_path} has format version {shown}, "
                                           "which is not read; retrain to write a version 3 checkpoint\n")
        assert os.listdir(tmp_path) == ["unread.json"]

    def test_checkpoint_arrays_are_base64_of_little_endian_float64(self, checkpoint_path):
        payload = json.loads(open(checkpoint_path).read())
        assert payload["format_version"] == 3
        ck = load_checkpoint(checkpoint_path)
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            node, arr = payload["model"][name], getattr(ck.params, name)
            assert node["shape"] == list(arr.shape)
            assert base64.b64decode(node["data"]) == arr.astype("<f8").tobytes()

    def test_format_3_holds_only_what_trace_reads(self, checkpoint_path):
        payload = json.loads(open(checkpoint_path).read())
        assert list(payload) == ["format_version", "config", "config_hash", "model", "environment"]
        assert list(payload["model"]) == ["window", "embedding", "w1", "b1", "w2", "b2"]

    def test_format_2_checkpoint_traces_the_same_bytes(self, checkpoint_path, corpus_path, tmp_path, capsys):
        v3 = json.loads(open(checkpoint_path).read())
        model = v3["model"]
        moments = {name: edit_array(model[name], np.zeros_like) for name in ("embedding", "w1", "b1", "w2", "b2")}
        v2 = {
            "format_version": 2, "seed": v3["config"]["seed"], "config": v3["config"],
            "config_hash": v3["config_hash"], "model": {"window": model["window"], "bos_token": 0, **model},
            "optimizer": {"learning_rate": 3e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                          "weight_decay": 0.0, "step_count": 5, "m": moments, "v": moments},
            "environment": v3["environment"],
        }
        v2_path = tmp_path / "v2.json"
        v2_path.write_text(json.dumps(v2))
        traces = []
        for path in (checkpoint_path, str(v2_path)):
            out = tmp_path / "trace.jsonl"
            assert main(["trace", "--checkpoint", path, "--corpus", corpus_path, "--limit", "4",
                         "--out", str(out)]) == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1] and traces[0]

    @pytest.mark.parametrize("damage, shown", [
        (lambda c: [c], "RunConfig must be a JSON object, got list"),
        (lambda c: {**c, "epsilon": 0.5}, "epsilon must be in"),
        (lambda c: {**c, "risk_propagation": "sideways"}, "risk_propagation must be one of"),
        (lambda c: {**c, "epsilon": None}, "field 'epsilon' has the wrong type"),
        (lambda c: {**c, "color": "red"}, "unknown config key 'color'"),
        (lambda c: {**c, "embed_dim": 13}, ", 13, 16, "),
        (lambda c: {**c, "vocab_size": 2**16}, f", 16, {2**16})"),
        # a value of the wrong JSON type is refused, never converted to the field's type
        (lambda c: {**c, "window": 4.9}, "field 'window' has the wrong type"),
        (lambda c: {**c, "window": True}, "field 'window' has the wrong type"),
        (lambda c: {**c, "window": "4"}, "field 'window' has the wrong type"),
        (lambda c: {**c, "embed_dim": str(c["embed_dim"])}, "field 'embed_dim' has the wrong type"),
        (lambda c: {**c, "lambda": "0.1"}, "field 'lambda' has the wrong type"),
        (lambda c: {**c, "steps": 2.5}, "field 'steps' has the wrong type"),
        (lambda c: {**c, "corpus": 123}, "field 'corpus' has the wrong type"),
        # prism writes `lambda`; the field name is not a second spelling of it
        (lambda c: {**{k: v for k, v in c.items() if k != "lambda"}, "lam": c["lambda"]},
         "unknown config key 'lam' for RunConfig"),
        (lambda c: {**c, "vocab_size": 1}, "vocab_size must be 0 (derive it from the corpus) or >= 2"),
        (lambda c: {**c, "vocab_size": -1}, "vocab_size must be 0 (derive it from the corpus) or >= 2"),
        # 1 - epsilon == 1.0: the clamp would not keep a saturated label's loss finite
        (lambda c: {**c, "epsilon": 1e-20}, ": epsilon must be in (0, 0.001] and above 2**-54, got 1e-20\n"),
    ], ids=["not_object", "epsilon_range", "risk_mode", "epsilon_null", "unknown_key", "other_embed_dim",
            "other_vocab_size", "window_float", "window_bool", "window_str", "embed_dim_str", "lambda_str",
            "steps_float", "corpus_int", "lam_key", "vocab_size_1", "vocab_size_negative", "epsilon_unclamped"])
    def test_damaged_config_with_matching_hash_is_2(self, checkpoint_path, corpus_path, tmp_path,
                                                    capsys, damage, shown):
        payload = json.loads(open(checkpoint_path).read())
        payload["config"] = damage(payload["config"])
        payload["config_hash"] = config_digest(payload["config"])
        ck_path = tmp_path / "damaged.json"
        ck_path.write_text(json.dumps(payload))
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", str(ck_path), "--corpus", corpus_path,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: malformed checkpoint {ck_path}: ") and shown in err
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["damaged.json"]  # no trace, no *.tmp file

    def test_overflowing_logits_are_3(self, checkpoint_path, corpus_path, tmp_path, capsys):
        # finite weights, so the checkpoint loads; its config hash still matches
        payload = json.loads(open(checkpoint_path).read())
        def first_set_to(value):
            def edit(arr):
                arr.flat[0] = value
                return arr
            return edit

        model = payload["model"]
        model["b1"] = edit_array(model["b1"], first_set_to(50.0))  # hidden unit 0 saturates at 1
        model["w2"] = edit_array(model["w2"], first_set_to(1e308))
        model["b2"] = edit_array(model["b2"], first_set_to(1e308))
        ck_path = tmp_path / "overflow.json"
        ck_path.write_text(json.dumps(payload))
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", str(ck_path), "--corpus", corpus_path,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numeric divergence: non-finite logits for record 1\n"
        assert not os.path.exists(out)

    def test_records_past_the_limit_are_not_decoded(self, checkpoint_path, corpus_path, tmp_path,
                                                    capsys):
        lines = open(corpus_path).read().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:3]) + "{broken\n")
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", str(bad), "--limit", "3",
                     "--out", str(out)]) == 0
        assert {json.loads(row)["example"] for row in open(out)} == {0, 1, 2}
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", str(bad), "--limit", "4"]) == 2

    def test_out_is_a_directory_is_2_without_temp_file(self, checkpoint_path, corpus_path,
                                                        tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus_path,
                     "--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{taken}.tmp' -> '{taken}'\n"
        assert not os.path.exists(f"{taken}.tmp")

    @pytest.mark.parametrize("flag, value", [("--config", "missing.cfg"), ("--seed", "99")],
                             ids=["config", "seed"])
    def test_unread_flags_are_1(self, checkpoint_path, corpus_path, tmp_path, capsys, flag, value):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus_path,
                     "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unrecognized arguments:") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_limit_above_sys_maxsize_traces_every_record(self, checkpoint_path, corpus_path, tmp_path, capsys):
        traces = []
        for limit in (str(10**20), "0"):
            out = tmp_path / f"trace_{limit}.jsonl"
            assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus_path,
                         "--limit", limit, "--out", str(out)]) == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]
        assert traces[0].count(b"\n") == sum(len(r.target_tokens) for r in read_jsonl(corpus_path))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("limit", ["-3", "-1"])
    def test_negative_limit_is_1(self, checkpoint_path, corpus_path, tmp_path, capsys, limit):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--checkpoint", checkpoint_path, "--corpus", corpus_path,
                     "--limit", limit, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: --limit must be >= 0 (0 = all), got {limit}\n"
        assert captured.out == ""
        assert not os.path.exists(out)


# Corpora shaped like the benchmark's three workloads, smaller: each traces
# in several groups at the models' 8 * (4 * 32 + 64 + V) bytes per row.
GROUPED_CORPORA = {
    "sweep": (dict(n_examples=600), {}),
    "long_docs": (dict(n_examples=60, facts_per_sentence=4, sentence_length=13, sentences_min=8,
                       sentences_max=16, dependency_p=0.5, chunk_limit=180), dict(risk_propagation="fixpoint")),
    "wide_vocab": (dict(n_examples=200, vocab_size=1024, n_keys=200, n_values=200, sentence_length=6),
                   dict(vocab_size=1024)),
}


class TestTraceGroups:
    @pytest.fixture(scope="class", params=sorted(GROUPED_CORPORA))
    def grouped_run(self, request, tmp_path_factory):
        generator, training = GROUPED_CORPORA[request.param]
        base = tmp_path_factory.mktemp(request.param)
        corpus = str(base / "corpus.jsonl")
        cmd_preprocess(GeneratorConfig(**{**dict(vocab_size=70, n_keys=20, n_values=20, sentence_length=5,
                                                 corruption_fraction=0.3, risk_min=0.5, risk_max=0.9,
                                                 dependency_p=0.25, seed=5), **generator}, out=corpus))
        cmd_train(run_config(corpus, str(base / "run"), steps=40, batch_size=16, learning_rate=0.01,
                             embed_dim=32, hidden_dim=64, window=4, **training))
        return str(base / "run" / "checkpoint.json"), corpus

    def test_bytes_equal_the_per_record_oracle(self, grouped_run, tmp_path, capsys, monkeypatch):
        ck_path, corpus = grouped_run
        ck = load_checkpoint(ck_path)
        params = ck.params

        def oracle(limit):
            prepared = prepare_examples(read_jsonl(corpus, limit), params.window, params.vocab_size,
                                        risk_mode=ck.config["risk_propagation"])
            return trace_text_per_record(params, prepared).encode(), prepared.offsets

        forwarded, real = [], forward_batch

        def forward(params, windows, out=None, splits=None):
            forwarded.append((len(windows), len(splits) - 1))
            return real(params, windows, out, splits)

        whole = tmp_path / "whole.jsonl"
        with monkeypatch.context() as patch:
            patch.setattr(prism.model, "forward_batch", forward)
            cmd_trace(ck_path, corpus, 0, str(whole))
        expected, offsets = oracle(0)
        assert whole.read_bytes() == expected
        # several groups, none of whose x, hidden and logits hold more than the budget
        groups = [records for _, records in forwarded]
        assert len(groups) > 2 and groups[1] >= 2 and sum(groups) == len(offsets) - 1
        assert all(rows * trace_row_bytes(params) <= BLOCK_BYTES for rows, _ in forwarded)

        lines = whole.read_bytes().splitlines(keepends=True)
        mid = groups[0] + groups[1] // 2  # a limit that ends in the middle of the second group
        capsys.readouterr()
        assert cmd_trace(ck_path, corpus, mid, None) == offsets[mid]
        assert capsys.readouterr().out.encode() == oracle(mid)[0]
        # record i's rows, and those before it, are the same under --limit i + 1 and --limit 0
        for limit in (1, groups[0], groups[0] + 1, mid, len(offsets) - 1):
            cmd_trace(ck_path, corpus, limit, None)
            assert capsys.readouterr().out.encode() == b"".join(lines[:offsets[limit]])

    def test_evaluate_reads_the_values_trace_writes(self, grouped_run, tmp_path):
        ck_path, corpus = grouped_run
        ck = load_checkpoint(ck_path)
        params = ck.params
        out = tmp_path / "trace.jsonl"
        cmd_trace(ck_path, corpus, 0, str(out))
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        prepared = prepare_examples(read_jsonl(corpus), params.window, params.vocab_size,
                                    risk_mode=ck.config["risk_propagation"])
        trace_groups = len(list(prism.model.record_groups(params, prepared)))
        assert trace_groups > 2
        for budget, groups in ((1, len(prepared)), (BLOCK_BYTES, trace_groups)):  # one record each, trace's groups
            evaluated, n_groups, _ = evaluated_trace(params, prepared, budget)
            assert n_groups == groups
            for field in ("p_label", "q_max", "pref_gate", "keep_gate", "alpha"):
                values = getattr(evaluated, field)
                written = np.array([row[field] for row in rows], dtype=values.dtype)
                assert values.tobytes() == written.tobytes(), field


class TestReportCommand:
    def test_names_baseline_and_deltas(self, corpus_path, tmp_path, capsys):
        base_dir = str(tmp_path / "base")
        prism_dir = str(tmp_path / "prism")
        cmd_train(run_config(corpus_path, base_dir, method="sft", lam=0.0))
        cmd_train(run_config(corpus_path, prism_dir, method="prism", lam=0.1))
        capsys.readouterr()
        lines = cmd_report([base_dir, prism_dir], out=None)
        shown = capsys.readouterr().out
        assert "baseline:" in shown
        assert lines[0] == CSV_HEADER
        base_id = json.loads(open(os.path.join(base_dir, "metrics.json")).read())["run_id"]
        assert base_id in shown

    def test_older_metrics_keys_are_ignored(self, corpus_path, tmp_path, capsys):
        dirs = [tmp_path / "base", tmp_path / "prism"]
        cmd_train(run_config(corpus_path, str(dirs[0]), method="sft", lam=0.0, steps=5))
        cmd_train(run_config(corpus_path, str(dirs[1]), method="prism", lam=0.1, steps=5))

        def report(csv_name):
            capsys.readouterr()
            assert main(["report", *map(str, dirs), "--out", str(tmp_path / csv_name)]) == 0
            return capsys.readouterr().out, (tmp_path / csv_name).read_bytes()

        shown = report("new.csv")
        for d in dirs:  # as written before format 3: the two keys sat between counters and lambda
            saved = json.loads((d / "metrics.json").read_text())
            lam = saved.pop("lambda")
            (d / "metrics.json").write_text(json.dumps({**saved, "baseline_run_id": None, "deltas": {},
                                                        "lambda": lam}))
        assert report("old.csv") == shown

    def test_knowledge_mask_before_sft_picks_sft(self, corpus_path, tmp_path, capsys):
        dirs = [str(tmp_path / "mask"), str(tmp_path / "sft")]
        cmd_train(run_config(corpus_path, dirs[0], method="knowledge_mask", steps=5))
        cmd_train(run_config(corpus_path, dirs[1], method="sft", steps=5))
        sft_id = json.loads(open(os.path.join(dirs[1], "metrics.json")).read())["run_id"]
        capsys.readouterr()
        lines = cmd_report(dirs, out=None)
        assert capsys.readouterr().out.startswith(f"baseline: {sft_id} (method=sft, ")
        sft_rows = [line for line in lines if line.startswith(f"{sft_id},")]
        assert sft_rows and all(line.endswith(",0.0") for line in sft_rows)

    def test_knowledge_mask_with_a_prism_run_has_no_baseline(self, corpus_path, tmp_path, capsys):
        dirs = [str(tmp_path / "mask"), str(tmp_path / "prism")]
        cmd_train(run_config(corpus_path, dirs[0], method="knowledge_mask", steps=5))
        cmd_train(run_config(corpus_path, dirs[1], method="prism", lam=0.1, steps=5))
        assert json.loads(open(os.path.join(dirs[0], "metrics.json")).read())["lambda"] == 0.0
        capsys.readouterr()
        assert main(["report", *dirs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: no baseline run") and err.count("\n") == 1

    def test_no_baseline_rejected(self, corpus_path, tmp_path, capsys):
        d = str(tmp_path / "only")
        cmd_train(run_config(corpus_path, d, method="prism", lam=0.3))
        with pytest.raises(ConfigError, match="baseline"):
            cmd_report([d], out=None)

    @pytest.mark.parametrize("mismatch", ["seed", "corpus"])
    def test_seed_or_corpus_mismatch_rejected(self, corpus_path, tmp_path, capsys, mismatch):
        base_dir, other_dir = str(tmp_path / "base"), str(tmp_path / "other")
        cmd_train(run_config(corpus_path, base_dir, lam=0.0, seed=5, steps=5))
        if mismatch == "seed":
            cmd_train(run_config(corpus_path, other_dir, lam=0.1, seed=0, steps=5))
        else:
            other_corpus = str(tmp_path / "other.jsonl")
            shutil.copyfile(corpus_path, other_corpus)
            cmd_train(run_config(other_corpus, other_dir, lam=0.1, seed=5, steps=5))
        ids = [json.loads(open(os.path.join(d, "metrics.json")).read())["run_id"]
               for d in (base_dir, other_dir)]
        assert main(["report", base_dir, other_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert all(run_id in err for run_id in ids)

    @pytest.mark.parametrize("damage, shown", [
        (lambda m: m.pop("seed"), "missing 1 required positional argument"),
        (lambda m: m.update(color="red"), "unknown config key 'color' for MetricsReport"),
        (lambda m: m.update({"lambda": "0"}), "field 'lambda' has the wrong type"),
        (lambda m: m["metrics"].update(final_total=[1.0]), "field 'metrics' has the wrong type"),
        (lambda m: m.update(seed=True), "field 'seed' has the wrong type"),
        (lambda m: m.update(baseline_run_id=None, deltas={}, color="red"),
         "unknown config key 'color' for MetricsReport"),
        (lambda m: m.update(lam=m.pop("lambda")), "unknown config key 'lam' for MetricsReport"),
        (lambda m: m.update(method="dpo"), "unknown method 'dpo'"),
    ], ids=["missing_field", "unknown_field", "lambda_str", "metric_list", "seed_bool", "older_keys_and_unknown",
            "lam_key", "unknown_method"])
    def test_damaged_metrics_is_2(self, corpus_path, tmp_path, capsys, damage, shown):
        d = tmp_path / "sft"
        cmd_train(run_config(corpus_path, str(d), method="sft", lam=0.0, steps=5))
        saved = json.loads((d / "metrics.json").read_text())
        damage(saved)
        (d / "metrics.json").write_text(json.dumps(saved))
        capsys.readouterr()
        assert main(["report", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: malformed metrics file {d / 'metrics.json'}: ")
        assert shown in err and err.count("\n") == 1

    def test_out_is_a_directory_is_2_without_temp_file(self, corpus_path, tmp_path, capsys):
        d = str(tmp_path / "sft")
        cmd_train(run_config(corpus_path, d, method="sft", lam=0.0, steps=5))
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["report", d, "--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{taken}.tmp' -> '{taken}'\n"
        assert not os.path.exists(f"{taken}.tmp")


def out_argv(command, corpus_path, checkpoint_path):
    """The argv of `command` before its --out, run in the current directory;
    `preprocess` and `report` get their config or run there."""
    if command == "preprocess":
        with open("gen.cfg", "w") as fh:
            fh.write("n_examples = 5\n")
        return ["preprocess", "--config", "gen.cfg"]
    if command == "report":
        cmd_train(run_config(corpus_path, "sft", method="sft", lam=0.0, steps=5))
        return ["report", "sft"]
    return ["trace", "--checkpoint", checkpoint_path, "--corpus", corpus_path]


class TestOutPaths:
    """Where --out (or preprocess's out) is not a new or regular file."""

    @pytest.mark.parametrize("command", ["preprocess", "trace", "report"])
    def test_a_symlink_is_kept_and_its_target_written(self, command, corpus_path, checkpoint_path, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = out_argv(command, corpus_path, checkpoint_path)
        assert main(argv + ["--out", "plain.out"]) == 0
        os.mkdir("real")
        (tmp_path / "real" / "target.out").write_text("old\n")
        os.symlink(os.path.join("real", "target.out"), "link.out")
        assert main(argv + ["--out", "link.out"]) == 0
        assert os.readlink("link.out") == os.path.join("real", "target.out")
        assert (tmp_path / "real" / "target.out").read_bytes() == (tmp_path / "plain.out").read_bytes()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("node", ["fifo", "link_to_fifo"])
    @pytest.mark.parametrize("command", ["preprocess", "trace", "report"])
    def test_a_fifo_is_2_and_kept(self, command, node, corpus_path, checkpoint_path, tmp_path, capsys,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = out_argv(command, corpus_path, checkpoint_path)
        os.mkfifo("fifo.out")
        out = "fifo.out" if node == "fifo" else "link.out"
        if node == "link_to_fifo":
            os.symlink("fifo.out", "link.out")
        capsys.readouterr()
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"i/o error: {out} is not a regular file; refusing to replace it\n"
        assert stat.S_ISFIFO(os.stat("fifo.out").st_mode) and os.path.islink("link.out") == (node != "fifo")
        assert not list(tmp_path.rglob("*.tmp")) and not os.path.exists("fifo.out.meta.json")

    @pytest.mark.parametrize("node", ["fifo", "symlink"])
    @pytest.mark.parametrize("command", ["preprocess", "report"])
    def test_a_temp_path_that_is_not_a_regular_file_is_2_and_kept(self, command, node, corpus_path,
                                                                   checkpoint_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = out_argv(command, corpus_path, checkpoint_path)
        (tmp_path / "elsewhere.txt").write_text("keep\n")
        reader = None
        if node == "fifo":
            os.mkfifo("c.out.tmp")
            reader = os.open("c.out.tmp", os.O_RDONLY | os.O_NONBLOCK)  # an open for writing would not block
        else:
            os.symlink("elsewhere.txt", "c.out.tmp")
        try:
            capsys.readouterr()
            assert main(argv + ["--out", "c.out"]) == 2
        finally:
            if reader is not None:
                os.close(reader)
        tmp = os.path.realpath("c.out") + ".tmp"
        assert capsys.readouterr().err == f"i/o error: {tmp} is not a regular file; refusing to write through it\n"
        kept = os.lstat("c.out.tmp").st_mode
        assert stat.S_ISFIFO(kept) if node == "fifo" else stat.S_ISLNK(kept)
        assert (tmp_path / "elsewhere.txt").read_text() == "keep\n"
        assert not os.path.lexists("c.out") and not os.path.exists("c.out.meta.json")


class TestExitCodes:
    @pytest.mark.parametrize("command", ["preprocess", "trace", "report"])
    def test_out_in_a_missing_directory_names_the_given_path(self, command, corpus_path, checkpoint_path,
                                                             tmp_path, capsys, monkeypatch):
        # the error is about the temp file next to OUT, but names OUT
        monkeypatch.chdir(tmp_path)
        argv = out_argv(command, corpus_path, checkpoint_path)
        out = os.path.join("nodir", "c.out")
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["preprocess", "train", "ablate"])
    def test_empty_out_is_1(self, command, corpus_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("n_examples = 5\nout =\n" if command == "preprocess"
                                        else f"corpus = {corpus_path}\nsteps = 3\nout =\n")
        argv = [command, "--config", "c.cfg"] + (["--lambdas", "0,0.1"] if command == "ablate" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: no output path configured\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]

    def test_success(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nbatch_size = 4\n"
                       f"embed_dim = 8\nhidden_dim = 8\nout = {tmp_path / 'run'}\n")
        assert main(["train", "--config", str(cfg)]) == 0

    def test_config_error_is_1(self, corpus_path, tmp_path, capsys):
        assert main(["train", "--corpus", corpus_path, "--method", "prism",
                     "--lambda", "-3", "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("flags, line", [
        (["--lambda", "nan"], ""),
        (["--lambda", "inf"], ""),
        ([], "learning_rate = nan"),
        ([], "learning_rate = 0"),
        ([], "adam_eps = 0"),
        ([], "beta1 = 2"),
        ([], "beta2 = 1"),
        ([], "weight_decay = inf"),
        ([], "window = -1"),
    ], ids=["lambda_nan", "lambda_inf", "lr_nan", "lr_zero", "adam_eps_zero", "beta1_2",
            "beta2_1", "weight_decay_inf", "window_negative"])
    def test_out_of_range_setting_is_1(self, corpus_path, tmp_path, capsys, flags, line):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nbatch_size = 4\n{line}\n"
                       f"out = {tmp_path / 'run'}\n")
        assert main(["train", "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize("epsilon", ["1e-20", repr(2.0**-54)])
    def test_epsilon_too_small_to_clamp_is_1(self, corpus_path, tmp_path, capsys, epsilon):
        # 1 - epsilon == 1.0, so the clamp would not keep a saturated label's loss finite
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"corpus = {corpus_path}\nsteps = 3\nmethod = prism_no_gate\nepsilon = {epsilon}\n"
                       f"out = {tmp_path / 'run'}\n")
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: epsilon must be in (0, 0.001] and above 2**-54, got ")
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize("command, shown", [
        ("trace", "token id 500 outside [0, "),
        ("train", "outside [0, 10) of the model vocabulary"),
    ], ids=["trace", "train"])
    def test_token_outside_vocabulary_is_1(self, checkpoint_path, corpus_path, tmp_path, capsys,
                                           command, shown):
        if command == "trace":
            records = [json.loads(line) for line in open(corpus_path)]
            records[0]["input"][0] = 500
            wide = tmp_path / "wide.jsonl"
            wide.write_text("".join(json.dumps(r) + "\n" for r in records))
            argv = ["trace", "--checkpoint", checkpoint_path, "--corpus", str(wide)]
        else:
            cfg = tmp_path / "t.cfg"
            cfg.write_text(f"corpus = {corpus_path}\nvocab_size = 10\nsteps = 3\n"
                           f"out = {tmp_path / 'run'}\n")
            argv = ["train", "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: token id ") and shown in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case, shown", [
        ("backward_edge", "edge 2->1 must point from an earlier to a later sentence"),
        ("self_edge", "edge 2->2 must point from an earlier to a later sentence"),
        ("duplicate_edge", "edge 1->2 appears more than once"),
        ("overlapping_sentences", "sentence 2 starts at "),
        ("risk_out_of_range", "sentence 1 risk 1.5 outside [0, 1]"),
    ], ids=["backward_edge", "self_edge", "duplicate_edge", "overlapping_sentences",
            "risk_out_of_range"])
    @pytest.mark.parametrize("command", ["train", "ablate", "trace"])
    def test_bad_annotation_is_2(self, checkpoint_path, corpus_path, tmp_path, capsys,
                                 command, case, shown):
        records = [json.loads(line) for line in open(corpus_path)]
        position, target = next((i, r) for i, r in enumerate(records, 1) if len(r["sentences"]) >= 3)
        if case == "backward_edge":
            target["edges"] = [{"from": 2, "to": 1}]
        elif case == "self_edge":
            target["edges"] = [{"from": 2, "to": 2}]
        elif case == "duplicate_edge":
            target["edges"] = [{"from": 1, "to": 2}, {"from": 1, "to": 2}]
        elif case == "risk_out_of_range":
            target["sentences"][0]["risk"] = 1.5
        else:
            target["sentences"][1]["start"] -= 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--corpus", str(bad)],
            "ablate": ["ablate", "--corpus", str(bad), "--lambdas", "0,0.1"],
            "trace": ["trace", "--checkpoint", checkpoint_path, "--corpus", str(bad), "--limit", "0"],
        }[command]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: record {position}: ") and shown in err and err.count("\n") == 1
        assert not os.path.exists(out)
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["train", "trace"])
    def test_empty_target_is_2(self, checkpoint_path, corpus_path, tmp_path, capsys, command):
        records = [json.loads(line) for line in open(corpus_path)]
        records[2]["target"] = []
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--corpus", str(bad)],
            "trace": ["trace", "--checkpoint", checkpoint_path, "--corpus", str(bad)],
        }[command]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "i/o error: line 3: field 'target' must not be empty\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("what", ["config", "corpus", "checkpoint", "metrics"])
    def test_undecodable_bytes_end_in_one_line(self, checkpoint_path, corpus_path, tmp_path, capsys,
                                               what):
        blob = tmp_path / "blob"
        blob.write_bytes(b'{"\xff\xfe": 1}\n')
        if what == "metrics":
            os.makedirs(tmp_path / "run")
            blob = tmp_path / "run" / "metrics.json"
            blob.write_bytes(b"\x80")
        argv, code = {
            "config": (["train", "--config", str(blob)], 1),
            "corpus": (["train", "--corpus", str(blob), "--out", str(tmp_path / "r")], 2),
            "checkpoint": (["trace", "--checkpoint", str(blob), "--corpus", corpus_path], 2),
            "metrics": (["report", str(tmp_path / "run")], 2),
        }[what]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "i/o error: ")) and err.count("\n") == 1
        assert str(blob) in err

    @pytest.mark.parametrize("what", ["corpus", "checkpoint", "metrics"])
    def test_too_deeply_nested_json_ends_in_one_line(self, checkpoint_path, corpus_path, tmp_path,
                                                     capsys, what):
        deep = "[" * 100_000 + "]" * 100_000 + "\n"  # deeper than the recursion limit
        os.makedirs(tmp_path / "run")
        blob = tmp_path / "run" / ("metrics.json" if what == "metrics" else "deep.json")
        blob.write_text(deep)
        argv = {
            "corpus": ["trace", "--checkpoint", checkpoint_path, "--corpus", str(blob)],
            "checkpoint": ["trace", "--checkpoint", str(blob), "--corpus", corpus_path],
            "metrics": ["report", str(tmp_path / "run")],
        }[what]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "recursion" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "preprocess"])
    def test_negative_seed_is_1(self, corpus_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = ["train", "--corpus", corpus_path] if command == "train" else ["preprocess"]
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field, value, shown", [
        ("sentences", 5, "line 2: field 'sentences' must be a list"),
        ("edges", None, "line 2: field 'edges' must be a list"),
        ("target", [2**63], "line 2: field 'target' holds a token id of 2**63 or more"),
        ("input", [3, -1], "line 2: field 'input' must contain nonnegative token ids"),
        ("target", [3, True], "line 2: field 'target' must contain nonnegative token ids"),
        ("target", [3, 1.0], "line 2: field 'target' must contain nonnegative token ids"),
        ("input", "3", "line 2: field 'input' must be a list"),
        ("facts", ..., "line 2: missing field 'facts'"),
        ("sentences", [{"start": 0, "end": 1}], "line 2: sentence missing field 'risk'"),
        ("facts", [{"id": 0, "end": 1}], "line 2: fact missing field 'start'"),
        ("edges", [{"from": 1, "to": "2"}], "line 2: edge field 'to' must be an integer"),
        # span bounds, sentence ids, edge endpoints and fact ids are integers, never booleans
        ("sentences", [{"start": False, "end": 1, "risk": 0.0}], "line 2: sentence field 'start' must be an integer"),
        ("sentences", [{"start": 0, "end": True, "risk": 0.0}], "line 2: sentence field 'end' must be an integer"),
        ("facts", [{"id": 0, "start": False, "end": 1, "sentence": 1}],
         "line 2: fact field 'start' must be an integer"),
        ("facts", [{"id": 0, "start": 0, "end": True, "sentence": 1}],
         "line 2: fact field 'end' must be an integer"),
        ("facts", [{"id": 0, "start": 0, "end": 1, "sentence": True}],
         "line 2: fact field 'sentence' must be an integer"),
        ("facts", [{"id": [1], "start": 0, "end": 1, "sentence": 1}], "line 2: fact field 'id' must be an integer"),
        ("facts", [{"id": True, "start": 0, "end": 1, "sentence": 1}], "line 2: fact field 'id' must be an integer"),
        ("edges", [{"from": True, "to": 2}], "line 2: edge field 'from' must be an integer"),
        ("edges", [{"from": 1, "to": False}], "line 2: edge field 'to' must be an integer"),
        # the entries of 'valid' are the integers 0 and 1, never booleans or floats
        ("valid", [True], "line 2: field 'valid' must be a list of 0/1"),
        ("valid", [False], "line 2: field 'valid' must be a list of 0/1"),
        ("valid", [1.0], "line 2: field 'valid' must be a list of 0/1"),
        ("valid", [0.0], "line 2: field 'valid' must be a list of 0/1"),
    ], ids=["sentences_int", "edges_null", "token_beyond_int64", "negative_token", "bool_token",
            "float_token", "tokens_not_list", "no_facts", "sentence_key", "fact_key", "edge_key",
            "bool_sentence_start", "bool_sentence_end", "bool_fact_start", "bool_fact_end", "bool_fact_sentence",
            "list_fact_id", "bool_fact_id", "bool_edge_from", "bool_edge_to", "bool_valid_true",
            "bool_valid_false", "float_valid_one", "float_valid_zero"])
    def test_ill_typed_record_is_2(self, corpus_path, tmp_path, capsys, field, value, shown):
        records = [json.loads(line) for line in open(corpus_path)]
        if field == "valid":  # the bad entry last, after a 1 for each other target position
            value = [1] * (len(records[1]["target"]) - 1) + value
        records[1][field] = value
        if value is ...:
            del records[1][field]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["train", "--corpus", str(bad), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"i/o error: {shown}\n"

    def test_unknown_flag_is_1(self, capsys):
        assert main(["train", "--frobnicate"]) == 1

    def test_missing_corpus_is_2(self, tmp_path, capsys):
        assert main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "r")]) == 2

    def test_malformed_corpus_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["train", "--corpus", str(bad), "--out", str(tmp_path / "r")]) == 2

    def test_divergence_is_3(self, corpus_path, tmp_path, capsys, recwarn):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            f"corpus = {corpus_path}\nsteps = 400\nbatch_size = 4\nembed_dim = 8\n"
            f"hidden_dim = 8\nlearning_rate = 1.0\nweight_decay = -200000\n"
            f"out = {tmp_path / 'run'}\n"
        )
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric divergence: non-finite ") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_vocabulary_above_the_bound_is_1(self, corpus_path, tmp_path, capsys):
        records = [json.loads(line) for line in open(corpus_path)]
        records[5]["target"][0] = 10**12
        wide = tmp_path / "wide.jsonl"
        wide.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(wide), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"config error: vocabulary of {10**12 + 1} tokens "
                                           f"exceeds the limit of {MAX_VOCAB_SIZE}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("field, shown", [
        ("embed_dim", f"parameters exceeds the limit of {MAX_PARAMETERS}"),
        ("hidden_dim", f"parameters exceeds the limit of {MAX_PARAMETERS}"),
        ("window", f"window {10**12} exceeds the limit of {MAX_WINDOW}"),
        ("batch_size", f"batch_size {10**12} exceeds the limit of {MAX_BATCH_SIZE}"),
    ])
    def test_model_above_the_bound_is_1(self, corpus_path, tmp_path, capsys, command, field, shown):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"steps = 3\n{field} = {10**12}\n" + ("lambdas = 0,0.1\n" if command == "ablate" else ""))
        assert main([command, "--config", str(cfg), "--corpus", corpus_path,
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and shown in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("vocab_size", [-1, 1])
    def test_vocab_size_below_2_is_1(self, corpus_path, tmp_path, capsys, command, vocab_size):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"steps = 3\nvocab_size = {vocab_size}\n" + ("lambdas = 0,0.1\n" if command == "ablate" else ""))
        assert main([command, "--config", str(cfg), "--corpus", corpus_path, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "config error: vocab_size must be 0 (derive it from the corpus) or >= 2\n"
        assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize("fields, shown", [
        ({"n_keys": 10**13, "vocab_size": 2 * 10**13},
         f"vocab_size {2 * 10**13} exceeds the limit of {MAX_VOCAB_SIZE}"),
        ({"sentences_max": 10**14}, f"target tokens exceeds the limit of {MAX_CORPUS_TOKENS}"),
        ({"n_examples": 10**6, "plant_defects": 10**6}, f"target tokens exceeds the limit of {MAX_CORPUS_TOKENS}"),
        # 80,000 target tokens, but 199,990,000 edges: every sentence restates the one key
        ({"n_examples": 1, "n_keys": 1, "dependency_p": 1, "sentences_min": 20000, "sentences_max": 20000,
          "sentence_length": 4}, f"199990000 dependency edges exceeds the limit of {MAX_CORPUS_TOKENS}"),
    ], ids=["vocab_size", "sentences_max", "plant_defects", "dependency_edges"])
    def test_corpus_above_the_bound_is_1(self, tmp_path, capsys, fields, shown):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))
        assert main(["preprocess", "--config", str(cfg), "--out", str(tmp_path / "corpus.jsonl")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("config error: ") and shown in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["g.cfg"]  # nothing generated or written


class TestMetricsReportRoundTrip:
    def test_dict_round_trip(self, tmp_path):
        report = MetricsReport(
            run_id="r", method="prism", lam=0.1, seed=1, corpus="c.jsonl",
            n_train=10, n_eval=2, metrics={"final_total": 1.5},
            counters={"off_target_total": 0},
        )
        path = str(tmp_path / "metrics.json")
        report.write(path)
        assert MetricsReport.read(path) == report



def test_training_path_does_not_import_the_oracles():
    # The oracles are importable here, so an import of them from the CLI would show.
    src = os.path.dirname(os.path.dirname(prism.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = "import sys, prism.harness; print('oracles' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
