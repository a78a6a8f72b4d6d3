"""Self-test of the benchmark at a tiny size: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

TINY = bench.Workload(
    generator=dict(bench.PAPER_GEN, n_examples=120, plant_defects=4),
    train=dict(bench.PAPER_TRAIN, steps=30, learning_rate=0.05),
    lambdas=(0.0, 0.1),
    trace_limit=5,
)


def printed_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items() if isinstance(m["value"], float)}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in bench.load_spec()["workloads"]] == list(bench.WORKLOADS)


def test_every_end_to_end_metric_prints_with_its_unit():
    result = bench.run(TINY, seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in bench.load_spec()["end_to_end"]}
    assert printed_units(result) == expected


def test_every_per_layer_metric_prints_with_its_unit():
    result = bench.run(TINY, seed=3, seconds=0, trace=True)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in bench.load_spec()["per_layer"]}
    assert printed_units(result) == expected


def test_failed_command_is_counted(capsys):
    no_baseline = dataclasses.replace(TINY, lambdas=(0.1, 0.5))  # ablate refuses: exit 1
    result = bench.run(no_baseline, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert "ablate exited 1" in capsys.readouterr().err


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", str(tmp_path))
    code = bench.main(["--workload", "sweep_acceptance", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

