"""The benchmark's hook points into prism exist: perfbench/tracer.py wraps
module attributes by name, and perfbench/probe_setup.py imports from
prism.model, so a rename that would break `perfbench/run.py --trace 1` or
its set-up probe fails here as well as under `pytest perfbench`."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prism.harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py as module perfbench_<name>, registered in
    sys.modules before it runs: run.py's dataclass looks its module up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = load("tracer")


@pytest.mark.parametrize("module, attr, span", TRACER.WRAPPED,
                         ids=[f"{module.__name__}.{attr}" for module, attr, _ in TRACER.WRAPPED])
def test_every_traced_lookup_site_is_a_callable(module, attr, span):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span}) is gone"


def test_the_setup_probe_imports_resolve():
    probe = load("probe_setup")
    assert callable(probe.main)
    for name in ("read_jsonl", "infer_vocab_size", "prepare_examples"):
        assert callable(getattr(probe, name))


def test_every_traced_hook_is_called_and_every_layer_metric_is_finite(tmp_path, monkeypatch):
    # perfbench's traced execution, in-process and tiny: a call that stops going
    # through a wrapped lookup site would leave its span out here, and
    # layer_metrics would raise or read 0.0 for its figure.
    tracer = TRACER.Tracer()
    for module, attr, name in TRACER.WRAPPED:
        monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    monkeypatch.setattr(prism.harness, "process_slots", lambda: 1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen.cfg").write_text("vocab_size = 40\nn_examples = 60\nn_keys = 8\nn_values = 8\n"
                                      "plant_defects = 2\nseed = 1\nout = corpus.jsonl\n")
    (tmp_path / "train.cfg").write_text("corpus = corpus.jsonl\nsteps = 3\nbatch_size = 8\nembed_dim = 8\n"
                                        "hidden_dim = 8\neval_fraction = 0.2\nseed = 1\nout = runs\n")
    checkpoint = os.path.join("runs", "lam_0.1", "checkpoint.json")
    for argv in (["preprocess", "--config", "gen.cfg"],
                 ["ablate", "--config", "train.cfg", "--lambdas", "0,0.1"],
                 ["trace", "--checkpoint", checkpoint, "--corpus", "corpus.jsonl", "--limit", "5",
                  "--out", "trace.jsonl"],
                 ["report", os.path.join("runs", "lam_0"), os.path.join("runs", "lam_0.1")]):
        assert prism.harness.main(argv) == 0, argv
    assert {span[0] for span in tracer.spans} == {name for _, _, name in TRACER.WRAPPED}

    meta = json.loads((tmp_path / "corpus.jsonl.meta.json").read_text())
    execution = {"spans": [tracer.spans], "rejected_ratio": meta["rejected"] / (meta["kept"] + meta["rejected"]),
                 "checkpoint_bytes": os.path.getsize(checkpoint), "comp_active_ratio": 0.5}
    metrics = load("run").layer_metrics(execution)
    assert metrics and all(math.isfinite(value) for value in metrics.values()), metrics


def test_the_last_item_of_each_round_runs_in_the_calling_process(monkeypatch):
    # perfbench's tracer records spans only in its own process, so every
    # per-layer training figure comes from the ablate run trained here.
    monkeypatch.setattr(prism.harness, "process_slots", lambda: 2)
    pids = [pid for pid, _ in prism.harness.fork_map(lambda _: os.getpid(), range(5))]
    assert [pid == os.getpid() for pid in pids] == [False, True, False, True, True]


def test_fork_map_loads_no_multiprocessing():
    code = ("import sys, prism.harness as h\n"
            "h.process_slots = lambda: 3\n"
            "assert [value for value, _ in h.fork_map(abs, [-1, -2, -3])] == [1, 2, 3]\n"
            "print(sorted(name for name in sys.modules if name.startswith('multiprocessing')))\n")
    src = Path(prism.harness.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout == "[]\n"
