"""tools/same_bits.py on a tiny matrix: two runs of one tree diff empty, a
one-ulp change to the SFT loss shows up in the files it reaches, and a trace
whose rows depend on their record group fails the BLOCK_BYTES = 1 check."""

import contextlib
import dataclasses
import importlib.util
import io
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
ONLY = ("preprocess", "train_prism")
# the commands each copy of TINY runs, by its name, and no --help: "bound1" those the BLOCK_BYTES = 1
# checks read, "checked" every command a check reads
KEPT = {"tiny": ONLY, "bound1": ONLY + ("trace_0_out", "bound1_train", "bound1_trace")}
KEPT["checked"] = KEPT["bound1"] + ("train_sft", "ablate", "trace_3_out", "trace_3_stdout", "trace_0_stdout",
                                    "train_lam_0.5")


def plant(tree):
    """A copy of prism whose sft_loss returns the next float above its loss,
    and whose trace groups of one record end their rows with a space."""
    shutil.copytree(ROOT / "src" / "prism", tree / "prism", ignore=shutil.ignore_patterns("__pycache__"))
    for module, old, new in [
        ("objective.py", "    return value, grad\n", "    return float(np.nextafter(value, np.inf)), grad\n"),
        ("harness.py", '    return "".join(map(TRACE_ROW.__mod__, columns))\n',
         '    return "".join(map(TRACE_ROW.__mod__, columns)) + " " * (stop - start == 1)\n'),
    ]:
        text = (tree / "prism" / module).read_text()
        assert text.count(old) == 1
        (tree / "prism" / module).write_text(text.replace(old, new))
    return str(tree)


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    base = tmp_path_factory.mktemp("same_bits")
    src = str(ROOT / "src")
    planted = plant(base / "planted_src")
    bound1 = dataclasses.replace(TINY, name="bound1")
    checked = dataclasses.replace(TINY, name="checked", lambdas=(0.0, 0.1, 0.5), alone=(0.5,))
    jobs = {  # the longest first
        "checked": lambda: same_bits.run(src, str(base / "checked"), [checked]),
        "planted_exit": lambda: same_bits.main(["run", planted, str(base / "planted_exit")]),
        "a": lambda: same_bits.run(src, str(base / "a"), [TINY]),
        "b": lambda: same_bits.run(src, str(base / "b"), [TINY]),
        "planted": lambda: same_bits.run(planted, str(base / "planted"), [TINY]),
    }
    every_command = same_bits.commands
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(io.StringIO()) as err, \
            ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        patch.setattr(same_bits, "commands", lambda case: [c for c in every_command(case) if c[0] in KEPT[case.name]])
        patch.setattr(same_bits, "help_commands", lambda: [])
        patch.setattr(same_bits, "run_faults", lambda src, out: ({}, {}))
        patch.setattr(same_bits, "matrix", lambda: [bound1])
        results = dict(zip(jobs, pool.map(lambda job: job(), jobs.values())))
    return dict(results, planted_stderr=err.getvalue())


def test_two_runs_of_one_tree_diff_empty(manifests):
    a, b = manifests["a"], manifests["b"]
    assert same_bits.diff(a, b) == (0, [])
    assert set(a["commands"]) == {"tiny/preprocess", "tiny/train_prism"}
    assert all(entry["exit"] == 0 for entry in a["commands"].values())
    assert {"tiny/corpus.jsonl", "tiny/runs/prism/log.jsonl", "tiny/runs/prism/checkpoint.json"} <= set(a["files"])


def test_a_one_ulp_loss_change_shows(manifests):
    a, planted = manifests["a"], manifests["planted"]
    code, lines = same_bits.diff(a, planted)
    assert code == 1
    # the loss is logged and reported, but the gradient does not read it
    assert lines == ["changed sha256: tiny/runs/prism/log.jsonl", "changed sha256: tiny/runs/prism/metrics.json"]
    code, lines = same_bits.diff(a, planted, expect=("tiny/runs/prism/*",))
    assert code == 0 and lines and all(line.endswith(" (expected)") for line in lines)


def test_every_check_holds_where_its_commands_ran(manifests):
    assert manifests["a"]["checks"] == {}
    assert manifests["checked"]["checks"] == {f"checked/{name}": True for name in (
        "trace_3_stdout", "trace_0_stdout", "trace_limit_prefix", "bound1_trace", "bound1_run", "sweep_lam_0.1",
        "sweep_lam_0", "sweep_lam_0.5")}


def test_trace_rows_that_depend_on_their_group_fail_the_bound1_check(manifests):
    assert manifests["planted_exit"] == 1
    assert manifests["planted_stderr"] == "check failed: bound1/bound1_trace\n"


def test_manifests_of_different_environments_are_refused(manifests, tmp_path, capsys):
    a, b = manifests["a"], manifests["b"]
    b = json.loads(json.dumps(b))
    b["environment"]["numpy"] = "0.0"
    assert same_bits.diff(a, b) == (2, ["refused: the manifests come from different numeric environments (numpy)"])
    for name, manifest in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(manifest))
    assert same_bits.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert capsys.readouterr().err.startswith("refused:")


def test_a_missing_tree_or_manifest_exits_2(tmp_path, capsys, monkeypatch):
    assert same_bits.main(["run", str(tmp_path / "nowhere"), str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: no prism package under {tmp_path / 'nowhere'}\n"
    assert same_bits.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read manifest {tmp_path / 'a.json'}")
    path = tmp_path / "a.json"
    path.write_text("[" * 100_000)  # deeper than the recursion limit
    assert same_bits.main(["diff", str(path), str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read manifest {path}: maximum recursion depth")
    for key in same_bits.SECTIONS:  # valid JSON, but a manifest without that section, or with it not an object
        for value, problem in ((None, f"has no {key!r}"), ([], f"has a {key!r} that is not an object")):
            manifest = {section: {} for section in same_bits.SECTIONS if section != key}
            if value is not None:
                manifest[key] = value
            path.write_text(json.dumps(manifest))
            assert same_bits.main(["diff", str(path), str(path)]) == 2
            assert capsys.readouterr().err == f"error: manifest {path} {problem}\n"
    entry = {"argv": [], "exit": 0, "stdout": "", "stderr": ""}
    for field in same_bits.COMMAND_FIELDS:
        command = {key: value for key, value in entry.items() if key != field}
        path.write_text(json.dumps({section: {} for section in same_bits.SECTIONS} | {"commands": {"c/x": command}}))
        assert same_bits.main(["diff", str(path), str(path)]) == 2
        assert capsys.readouterr().err == f"error: manifest {path} has a command 'c/x' without {field!r}\n"
    # an OUT that holds a manifest, the help directory or a case's directory is refused before any command
    started = []
    monkeypatch.setattr(same_bits.subprocess, "run", lambda *args, **kwargs: started.append(args))
    for taken in ("manifest.json", "help", same_bits.FAULTS_CASE, same_bits.matrix()[-1].name):
        out = tmp_path / f"taken_{taken}"
        (out / taken).mkdir(parents=True)
        assert same_bits.main(["run", str(ROOT / "src"), str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out} already holds {taken}; give an OUT without it\n"
        assert [p.name for p in out.iterdir()] == [taken] and not started
