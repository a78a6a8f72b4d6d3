"""The benchmark's hook points into prism exist: perfbench/tracer.py wraps
module attributes by name, and perfbench/probe_setup.py imports from
prism.model, so a rename that would break `perfbench/run.py --trace 1` or
its set-up probe fails here as well as under `pytest perfbench`."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
