"""CLI surface: config parsing, run artifacts, determinism, exit codes."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from prism.corpus import GeneratorConfig, generate, read_jsonl, write_jsonl
from prism.errors import ConfigError
from prism.harness import (
    CSV_HEADER,
    MetricsReport,
    RunConfig,
    cmd_ablate,
    cmd_preprocess,
    cmd_report,
    cmd_trace,
    cmd_train,
    config_from_dict,
    main,
    parse_config_file,
    run_identifier,
    validate_run_config,
)
from prism.model import (
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

from oracles import redistribute


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

    def test_nul_byte_is_1(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("steps = 3\ncorpus = a\0b\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}:2: NUL byte in 'corpus = a\\x00b'\n"

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("steps 7\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_method_validated(self):
        cfg = RunConfig(corpus="x.jsonl", method="sgd")
        with pytest.raises(ConfigError, match="method"):
            validate_run_config(cfg)

    def test_sft_forces_lambda_zero(self, capsys):
        cfg = validate_run_config(RunConfig(corpus="x.jsonl", method="sft", lam=0.5))
        assert cfg.lam == 0.0

    def test_run_identifier_stable(self):
        a = RunConfig(corpus="c.jsonl", seed=5)
        b = RunConfig(corpus="c.jsonl", seed=5)
        assert run_identifier(a) == run_identifier(b)
        assert run_identifier(a) != run_identifier(RunConfig(corpus="c.jsonl", seed=6))


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
        assert "verified instances retained" in shown

    def test_planted_defects_counted(self, tmp_path, capsys):
        out = str(tmp_path / "corpus.jsonl")
        cfg = GeneratorConfig(vocab_size=70, n_examples=20, n_keys=10, n_values=10,
                              sentence_length=5, seed=2, plant_defects=5, out=out)
        meta = cmd_preprocess(cfg)
        assert meta["kept"] == 20
        assert meta["rejected"] == 5

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
        assert env["blas_threads"] == {var: os.environ[var] for var in prism.BLAS_THREAD_VARS}
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

    def test_checkpoint_does_not_depend_on_the_thread_variables(self, corpus_path, tmp_path):
        # Unset, BLAS would start one thread per core, whose reduction order
        # changes the bits of a batch this size; prism pins it to one.
        src = os.path.dirname(os.path.dirname(prism.__file__))
        cfg = tmp_path / "t.cfg"
        cfg.write_text("steps = 5\nbatch_size = 32\nembed_dim = 32\nhidden_dim = 64\n")
        bare = {k: v for k, v in os.environ.items() if k not in prism.BLAS_THREAD_VARS}
        blobs = []
        for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            workdir = tmp_path / name
            workdir.mkdir()
            subprocess.run([sys.executable, "-m", "prism.harness", "train", "--config", str(cfg),
                            "--corpus", corpus_path, "--out", "run"], cwd=workdir, check=True,
                           capture_output=True, env=dict(bare, PYTHONPATH=src, **extra))
            blobs.append((workdir / "run" / "checkpoint.json").read_bytes())
        assert blobs[0] == blobs[1]

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
            calls.append(len(examples))
            return prepare_examples(examples, *args, **kwargs)

        monkeypatch.setattr(harness_mod, "prepare_examples", counting)
        cfg = validate_run_config(run_config(corpus_path, "unused", eval_fraction=eval_fraction))
        data = harness_mod.load_run_data(cfg)
        assert calls == [120]
        n_train = 120 if eval_fraction == 0 else 108
        assert len(data.prep_train) == n_train
        assert len(data.prep_eval) == (120 - n_train or 120)
        alone = prepare_examples(read_jsonl(corpus_path), 4, data.vocab)
        held = alone[n_train:] if eval_fraction else alone
        for a, b in zip([*data.prep_train, *data.prep_eval], [*alone[:n_train], *held]):
            assert a.windows.tobytes() == b.windows.tobytes()
            assert a.signals.support_weight.tobytes() == b.signals.support_weight.tobytes()


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

    def test_partial_failure_recorded_and_continues(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")

        # plant a divergent run: negative weight decay only for lambda = 0.5
        import prism.harness as harness_mod
        original = harness_mod.cmd_train

        def flaky(sub_cfg, *rest):
            if sub_cfg.lam == 0.5:
                sub_cfg = type(sub_cfg)(**{**sub_cfg.__dict__, "weight_decay": -2e5})
            return original(sub_cfg, *rest)

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

    @pytest.mark.parametrize("cpus, threads, slots", [
        (2, {}, 2), (2, {"OPENBLAS_NUM_THREADS": "2"}, 1), (8, {"MKL_NUM_THREADS": "3"}, 2),
        (1, {}, 1), (4, {"OMP_NUM_THREADS": "4,2"}, 4),
    ])
    def test_process_slots_leave_no_cpu_oversubscribed(self, monkeypatch, cpus, threads, slots):
        import prism.harness as harness_mod
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(harness_mod, "BLAS_THREADS", {var: threads.get(var, "1")
                                                          for var in prism.BLAS_THREAD_VARS})
        assert harness_mod.process_slots() == slots

    def test_dead_worker_is_recorded_and_the_sweep_goes_on(self, corpus_path, tmp_path, capsys,
                                                            monkeypatch):
        import prism.harness as harness_mod
        import prism.model as model_mod
        parent, doomed = os.getpid(), []
        original_train, original_step = harness_mod.train, model_mod.optimizer_step

        def marking(prepared, settings):
            doomed[:] = [settings.lam == 0.5 and os.getpid() != parent]
            return original_train(prepared, settings)

        def step_or_die(params, grads, state):
            if doomed[0] and state.step_count == 2:
                os._exit(7)  # the worker dies mid-run, writing nothing
            return original_step(params, grads, state)

        monkeypatch.setattr(harness_mod, "train", marking)
        monkeypatch.setattr(model_mod, "optimizer_step", step_or_die)
        # two slots whatever the machine: rounds (0, 0.1) and (0.5, 1), a worker starting 0 and 0.5
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 2)
        out = str(tmp_path / "sweep")
        csv_path = cmd_ablate(run_config(corpus_path, out), [0.0, 0.1, 0.5, 1.0])
        captured = capsys.readouterr()
        died = "worker process exited with status 7"
        assert captured.err == f"warning: lambda=0.5 failed: {died}\n"
        failures = json.loads(open(os.path.join(out, "failures.json")).read())
        assert failures == {"failures": [{"lambda": 0.5, "error": died}]}
        assert sorted(os.listdir(out)) == ["ablation.csv", "failures.json", "lam_0", "lam_0.1", "lam_1"]
        runs = [line.split(":")[0] for line in captured.out.splitlines() if line.startswith("run ")]
        assert [r.split("_")[1] for r in runs] == ["lam0", "lam0.1", "lam1"]
        rows = open(csv_path).read().splitlines()[1:]
        column = [r.split(",")[2] for r in rows]
        assert column == sorted(column, key=float) and set(column) == {"0.0", "0.1", "1.0"}

    def test_other_error_ends_the_sweep_as_at_the_first_failing_lambda(self, corpus_path, tmp_path,
                                                                      capsys, monkeypatch):
        import prism.harness as harness_mod
        monkeypatch.setattr(harness_mod, "process_slots", lambda: 2)
        out = tmp_path / "sweep"
        out.mkdir()
        for blocked in ("lam_0", "lam_0.1"):  # run 0 in a worker, run 0.1 here; both fail
            (out / blocked).write_text("a file where the run directory goes")
        assert main(["ablate", "--corpus", corpus_path, "--lambdas", "0,0.1,0.5",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"i/o error: [Errno 17] File exists: '{out / 'lam_0'}'\n"
        assert sorted(os.listdir(out)) == ["lam_0", "lam_0.1"]  # no later round started


class TestTraceCommand:
    def test_rows_and_gate_oracle_replay(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(run_config(corpus_path, out, steps=120))
        ck_path = os.path.join(out, "checkpoint.json")
        trace_path = str(tmp_path / "trace.jsonl")
        rows = cmd_trace(ck_path, corpus_path, limit=6, out=trace_path)
        assert os.path.exists(trace_path)
        assert rows == [json.loads(line) for line in open(trace_path)]

        examples = read_jsonl(corpus_path)[:6]
        ck = load_checkpoint(ck_path)
        prepared = prepare_examples(examples, ck.params.window, ck.params.vocab_size)
        fact_by_pos = {}
        probs_by_pos = {}
        for i, prep in enumerate(prepared):
            logits, _ = forward_batch(ck.params, prep.windows)
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

    def test_config_hash_mismatch_fails(self, corpus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        cmd_train(run_config(corpus_path, out, steps=5))
        ck_path = os.path.join(out, "checkpoint.json")
        payload = json.loads(open(ck_path).read())
        payload["config"]["seed"] = 999
        open(ck_path, "w").write(json.dumps(payload))
        rc = main(["trace", "--checkpoint", ck_path, "--corpus", corpus_path])
        assert rc == 2

    @pytest.mark.parametrize("damage", [
        lambda p: p.pop("optimizer"),
        lambda p: p["model"].pop("b2"),
        lambda p: p["model"]["w1"].pop(),
        lambda p: p["model"].update(b1=p["model"]["b1"][:-1]),
        lambda p: p["model"].update(embedding=[0.0, 1.0]),
        lambda p: p["optimizer"]["m"]["w2"].pop(),
        lambda p: p["optimizer"]["v"].update(embedding=[[0.0]]),
        lambda p: p["model"].update(bos_token=3),
    ], ids=["no_optimizer", "no_b2", "w1_rows", "b1_len", "embedding_1d", "m_w2", "v_embedding",
            "bos_token"])
    def test_damaged_checkpoint_is_2(self, checkpoint_path, corpus_path, tmp_path, capsys, damage):
        payload = json.loads(open(checkpoint_path).read())
        damage(payload)
        ck_path = tmp_path / "damaged.json"
        ck_path.write_text(json.dumps(payload))
        assert main(["trace", "--checkpoint", str(ck_path), "--corpus", corpus_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: malformed checkpoint") and err.count("\n") == 1

    @pytest.mark.parametrize("damage, shown", [
        (lambda c: [c], "config is not a JSON object"),
        (lambda c: {**c, "epsilon": 0.5}, "epsilon must be in"),
        (lambda c: {**c, "risk_propagation": "sideways"}, "risk_propagation must be one of"),
        (lambda c: {**c, "epsilon": None}, "config key 'epsilon': cannot parse None"),
        (lambda c: {**c, "color": "red"}, "unknown config key 'color'"),
    ], ids=["not_object", "epsilon_range", "risk_mode", "epsilon_null", "unknown_key"])
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
        assert not os.path.exists(out)

    def test_overflowing_logits_are_3(self, checkpoint_path, corpus_path, tmp_path, capsys):
        # finite weights, so the checkpoint loads; its config hash still matches
        payload = json.loads(open(checkpoint_path).read())
        payload["model"]["b1"][0] = 50.0  # hidden unit 0 saturates at 1
        payload["model"]["w2"][0][0] = payload["model"]["b2"][0] = 1e308
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
        (lambda m: m.update(color="red"), "unexpected keyword argument 'color'"),
        (lambda m: m.update({"lambda": "0"}), "field 'lambda' has the wrong type"),
        (lambda m: m["metrics"].update(final_total=[1.0]), "field 'metrics' has the wrong type"),
        (lambda m: m.update(seed=True), "field 'seed' has the wrong type"),
    ], ids=["missing_field", "unknown_field", "lambda_str", "metric_list", "seed_bool"])
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
        assert not os.path.exists(f"{taken}.tmp")


class TestExitCodes:
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
    ], ids=["sentences_int", "edges_null", "token_beyond_int64"])
    def test_ill_typed_record_is_2(self, corpus_path, tmp_path, capsys, field, value, shown):
        records = [json.loads(line) for line in open(corpus_path)]
        records[1][field] = value
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
