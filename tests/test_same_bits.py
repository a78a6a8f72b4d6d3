"""tools/same_bits.py on a tiny matrix: two runs of one tree diff empty, and
a one-ulp change to the SFT loss shows up in the files it reaches."""

import importlib.util
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("same_bits", ROOT / "tools" / "same_bits.py")
same_bits = sys.modules["same_bits"] = importlib.util.module_from_spec(SPEC)  # dataclasses look it up there
SPEC.loader.exec_module(same_bits)

TINY = same_bits.Case(
    name="tiny",
    generator=dict(vocab_size=30, n_examples=40, n_keys=5, n_values=5, sentence_length=4, seed=1),
    train=dict(steps=5, batch_size=4, embed_dim=4, hidden_dim=8, seed=2),
    lambdas=(0.0, 0.1),
    trace_limit=3,
)
ONLY = ("preprocess", "train_prism")  # of the matrix's commands, and no --help


def plant_one_ulp(tree):
    """A copy of prism whose sft_loss returns the next float above its loss."""
    shutil.copytree(ROOT / "src" / "prism", tree / "prism", ignore=shutil.ignore_patterns("__pycache__"))
    objective = tree / "prism" / "objective.py"
    text = objective.read_text()
    assert text.count("    return value, grad\n") == 1
    objective.write_text(text.replace("    return value, grad\n",
                                      "    return float(np.nextafter(value, np.inf)), grad\n"))
    return tree


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    base = tmp_path_factory.mktemp("same_bits")
    src = str(ROOT / "src")
    planted = str(plant_one_ulp(base / "planted_src"))
    runs = [(src, base / "a"), (src, base / "b"), (planted, base / "planted")]
    every_command = same_bits.commands
    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(max_workers=len(runs)) as pool:
        patch.setattr(same_bits, "commands", lambda case: [c for c in every_command(case) if c[0] in ONLY])
        patch.setattr(same_bits, "help_commands", lambda: [])
        return list(pool.map(lambda job: same_bits.run(job[0], str(job[1]), [TINY]), runs))


def test_two_runs_of_one_tree_diff_empty(manifests):
    a, b, _ = manifests
    assert same_bits.diff(a, b) == (0, [])
    assert set(a["commands"]) == {"tiny/preprocess", "tiny/train_prism"}
    assert all(entry["exit"] == 0 for entry in a["commands"].values())
    assert {"tiny/corpus.jsonl", "tiny/runs/prism/log.jsonl", "tiny/runs/prism/checkpoint.json"} <= set(a["files"])


def test_a_one_ulp_loss_change_shows(manifests):
    a, _, planted = manifests
    code, lines = same_bits.diff(a, planted)
    assert code == 1
    # the loss is logged and reported, but the gradient does not read it
    assert lines == ["changed sha256: tiny/runs/prism/log.jsonl", "changed sha256: tiny/runs/prism/metrics.json"]
    code, lines = same_bits.diff(a, planted, expect=("tiny/runs/prism/*",))
    assert code == 0 and lines and all(line.endswith(" (expected)") for line in lines)


def test_manifests_of_different_environments_are_refused(manifests, tmp_path, capsys):
    a, b, _ = manifests
    b = json.loads(json.dumps(b))
    b["environment"]["numpy"] = "0.0"
    assert same_bits.diff(a, b) == (2, ["refused: the manifests come from different numeric environments (numpy)"])
    for name, manifest in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(manifest))
    assert same_bits.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert capsys.readouterr().err.startswith("refused:")


def test_a_missing_tree_or_manifest_exits_2(tmp_path, capsys):
    assert same_bits.main(["run", str(tmp_path / "nowhere"), str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: no prism package under {tmp_path / 'nowhere'}\n"
    assert same_bits.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read manifest {tmp_path / 'a.json'}")
