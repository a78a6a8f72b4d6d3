#!/usr/bin/env python3
"""Same-bits check: run prism's CLI over a fixed matrix, then compare two runs.

    python3 tools/same_bits.py run SRC OUT [--jobs N]
    python3 tools/same_bits.py diff A B [--expect ENTRY ...]

``run`` runs every command of the matrix in a child process
(``python -m prism.harness`` with only SRC, a directory holding the
``prism`` package, on PYTHONPATH), each case in its own directory under
OUT, and writes OUT/manifest.json.  The manifest holds each command's argv,
exit code, stdout and stderr (text up to 4 KiB, else its sha256 and
length), the sha256 of every file a case leaves, the numeric environment
that SRC's ``prism.model.numeric_environment()`` reports, and each check's
result.  ``--jobs`` runs that many cases at a time; it changes no entry.

The matrix is the README quick start, at its own seeds, and the three
benchmark workloads of ``perfbench/run.py`` (``WORKLOADS``) at seeds 1 and 3.
Each case runs ``preprocess``; ``train`` for every method at lambda 0.1,
and once with ``eval_fraction = 0``; ``ablate`` over the case's lambdas;
for the benchmark cases, ``train`` at every other lambda of the sweep;
``trace`` of the prism run to a file and to stdout, at the case's
``--limit`` and at 0; ``report`` of the method runs, with and without
``--out``; and ``train`` and ``trace --limit 0`` again in one process with
``prism.model.BLOCK_BYTES = 1``.  One more case runs every ``--help``, and
the ``faults`` case runs ``train``, ``ablate`` and ``trace --limit 5`` on
each of ``FAULTS``' corpora, copies of the benchmark's sweep_acceptance
corpus at seed 3 with two faults each: which one a command reports pins the
order of prism's corpus checks.  On the clean corpus, with that workload's
settings, it runs ``train --lambda 1e300`` and ``ablate --lambdas
0,0.1,1e300``, which pin where and how a run whose gradient overflows stops.

Each case then checks, where their commands ran, that a trace's stdout is
its ``--out`` file and opens the trace at 0, that the ``BLOCK_BYTES = 1``
trace and run equal the others, and that the sweep's ``lam_0.1`` and
``lam_0`` equal the prism and sft runs and each other ``lam_*`` its
standalone run, so every member of a lockstep group is checked.  ``run`` exits 1 naming each check
that fails.

``diff`` prints one line per entry (a command or check, by ``case/name``,
or a file, by ``case/path``) that differs or is in one manifest only, and
exits 1 if one of them matches no ``--expect`` pattern (fnmatch, so
``'*/log.jsonl'`` names every run's log), else 0.  It exits 2 on manifests
of different numeric environments (python, numpy, BLAS, threads), and on a
manifest it cannot read: one with a section missing or not an object, or
with a command entry that lacks one of its four fields.  ``run`` exits 2,
before it starts any command, when OUT already holds ``manifest.json``,
``help`` or a case's directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METHODS = ("sft", "prism", "knowledge_mask", "prism_no_gate", "prism_no_mask")
SUBCOMMANDS = ("preprocess", "train", "ablate", "trace", "report")
SECTIONS = ("environment", "commands", "files", "checks")
COMMAND_FIELDS = ("argv", "exit", "stdout", "stderr")
TEXT_LIMIT = 4096
BOUND1 = ("import sys, prism.harness, prism.model; prism.model.BLOCK_BYTES = 1; "
          "sys.exit(prism.harness.main(sys.argv[1:]))")
ENVIRONMENT = "import json, prism.model; print(json.dumps(prism.model.numeric_environment(), sort_keys=True))"

README_GEN = dict(vocab_size=70, n_examples=2000, n_keys=20, n_values=20, sentence_length=5,
                  corruption_fraction=0.3, risk_min=0.5, risk_max=0.9, dependency_p=0.25, seed=11)
README_TRAIN = {"method": "prism", "lambda": 0.1, "steps": 1300, "batch_size": 32, "learning_rate": 0.003,
                "embed_dim": 32, "hidden_dim": 64, "eval_fraction": 0.1, "seed": 7}


FAULTS_CASE = "faults"
# Each fault corpus: the records it keeps, {record: fault} ("edge" adds an edge 2->1, "json" makes the line
# invalid JSON, a number becomes the first target token id; a negative record counts from the end, so -1 is
# the last), and the vocab_size it is trained with.  The last three put a fault past the file's midpoint, where
# a run on two CPUs starts its second range: two with the other fault near the start, one with both there.
FAULTS = {
    "json_after_edge": (None, {2: "edge", 4: "json"}, 0),
    "one_record": (1, {1: "edge"}, 0),
    "edge_before_token": (None, {2: "edge", 4: 75}, 70),
    "token_before_edge": (None, {2: 75, 4: "edge"}, 70),
    "edge_then_wide_token": (None, {2: "edge", 5: 70000}, 0),
    "edge_then_last_json": (None, {2: "edge", -1: "json"}, 0),
    "edge_then_last_wide_token": (None, {2: "edge", -1: 70000}, 0),
    "late_edge_before_last_token": (None, {-2: "edge", -1: 75}, 70),
}


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    generator: dict   # GeneratorConfig keys, without out
    train: dict       # RunConfig keys, without corpus and out
    lambdas: tuple    # ablate's list; holds 0 and 0.1
    trace_limit: int  # trace's --limit besides 0
    alone: tuple = ()  # the sweep's other lambdas, each also trained alone and checked against its lam_*


def workloads() -> dict:
    """perfbench/run.py's WORKLOADS, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def matrix() -> list[Case]:
    cases = [Case("readme", README_GEN, README_TRAIN, (0.0, 0.01, 0.1, 0.5, 1.0), 8)]
    for name, wl in workloads().items():
        alone = tuple(lam for lam in wl.lambdas if lam not in (0.0, 0.1))
        cases += [Case(f"{name}-{seed}", dict(wl.generator, seed=seed), dict(wl.train, seed=seed),
                       wl.lambdas, wl.trace_limit, alone) for seed in (1, 3)]
    return cases


def commands(case: Case) -> list[tuple[str, list[str]]]:
    """(name, argv after the interpreter) of each command of a case, in order."""
    cli = ["-m", "prism.harness"]
    ckpt = ["--checkpoint", "runs/prism/checkpoint.json", "--corpus", "corpus.jsonl"]
    runs = [f"runs/{method}" for method in METHODS]
    cmds = [("preprocess", cli + ["preprocess", "--config", "gen.cfg"])]
    cmds += [(f"train_{method}", cli + ["train", "--config", "train.cfg", "--method", method, "--lambda", "0.1",
                                        "--out", f"runs/{method}"]) for method in METHODS]
    cmds += [
        ("train_eval0", cli + ["train", "--config", "train_eval0.cfg", "--out", "runs/eval0"]),
        ("ablate", cli + ["ablate", "--config", "train.cfg", "--out", "runs/sweep",
                          "--lambdas=" + ",".join(f"{lam:g}" for lam in case.lambdas)]),
    ]
    cmds += [(f"train_lam_{lam:g}", cli + ["train", "--config", "train.cfg", "--lambda", f"{lam:g}",
                                           "--out", f"runs/lam_{lam:g}"]) for lam in case.alone]
    for limit in dict.fromkeys((case.trace_limit, 0)):
        trace = cli + ["trace", *ckpt, "--limit", str(limit)]
        cmds += [(f"trace_{limit}_out", trace + ["--out", f"trace_{limit}.jsonl"]), (f"trace_{limit}_stdout", trace)]
    cmds += [
        ("report", cli + ["report", *runs]),
        ("report_out", cli + ["report", *runs, "--out", "report.csv"]),
        ("bound1_train", ["-c", BOUND1, "train", "--config", "train.cfg", "--out", "runs/bound1"]),
        ("bound1_trace", ["-c", BOUND1, "trace", "--checkpoint", "runs/bound1/checkpoint.json",
                          "--corpus", "corpus.jsonl", "--limit", "0", "--out", "trace_bound1.jsonl"]),
    ]
    return cmds


def help_commands() -> list[tuple[str, list[str]]]:
    cli = ["-m", "prism.harness"]
    return [("help", cli + ["--help"])] + [(f"help_{sub}", cli + [sub, "--help"]) for sub in SUBCOMMANDS]


def checks(case: Case, workdir: str, results: dict) -> dict:
    """Whether each within-run promise of a case whose commands all ran holds, by name."""
    def read(path: str) -> bytes:
        with open(os.path.join(workdir, path), "rb") as fh:
            return fh.read()

    def parts(run: str, *ignore: str) -> tuple:
        """What two equal runs share: log, checkpoint model, and metrics but run_id and `ignore`."""
        metrics = json.loads(read(f"{run}/metrics.json"))
        return (read(f"{run}/log.jsonl"), json.loads(read(f"{run}/checkpoint.json"))["model"],
                {key: value for key, value in metrics.items() if key not in ("run_id", *ignore)})

    def holds(promise) -> bool:
        try:
            return promise()
        except (OSError, ValueError, KeyError):  # a file its commands did not write, or not as prism writes it
            return False

    limit = case.trace_limit
    promises = [(f"trace_{k}_stdout", (f"trace_{k}_out", f"trace_{k}_stdout"),
                 lambda k=k: recorded(read(f"trace_{k}.jsonl")) == results[f"trace_{k}_stdout"]["stdout"])
                for k in dict.fromkeys((limit, 0))]
    if limit:
        promises.append(("trace_limit_prefix", (f"trace_{limit}_out", "trace_0_out"),
                         lambda: read("trace_0.jsonl").startswith(read(f"trace_{limit}.jsonl"))))
    promises += [
        ("bound1_trace", ("trace_0_out", "bound1_trace"), lambda: read("trace_bound1.jsonl") == read("trace_0.jsonl")),
        ("bound1_run", ("train_prism", "bound1_train"), lambda: parts("runs/bound1") == parts("runs/prism")),
        ("sweep_lam_0.1", ("train_prism", "ablate"), lambda: parts("runs/sweep/lam_0.1") == parts("runs/prism")),
        ("sweep_lam_0", ("train_sft", "ablate"),
         lambda: parts("runs/sweep/lam_0", "method") == parts("runs/sft", "method")),
    ]
    promises += [(f"sweep_lam_{lam:g}", (f"train_lam_{lam:g}", "ablate"),
                  lambda lam=lam: parts(f"runs/sweep/lam_{lam:g}") == parts(f"runs/lam_{lam:g}")) for lam in case.alone]
    return {f"{case.name}/{name}": holds(promise) for name, needs, promise in promises if set(needs) <= results.keys()}


def write_config(path: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in values.items())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded(data: bytes) -> str:
    """Output text up to TEXT_LIMIT bytes, else its digest and length."""
    if len(data) <= TEXT_LIMIT:
        return data.decode("utf-8", errors="backslashreplace")
    return f"sha256 {sha256_bytes(data)}, {len(data)} bytes"


def child_env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")


def run_commands(src: str, workdir: str, cmds: list[tuple[str, list[str]]]) -> dict:
    out = {}
    for name, argv in cmds:
        proc = subprocess.run([sys.executable, *argv], cwd=workdir, env=child_env(src), capture_output=True)
        out[name] = {"argv": argv, "exit": proc.returncode,
                     "stdout": recorded(proc.stdout), "stderr": recorded(proc.stderr)}
    return out


def case_files(out: str, workdir: str) -> dict:
    """The sha256 of every file under `workdir`, by its path in OUT."""
    files = {}
    for base, _, names in os.walk(workdir):
        for file in names:
            path = os.path.join(base, file)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out).replace(os.sep, "/")] = sha256_bytes(fh.read())
    return files


def run_case(src: str, out: str, case: Case) -> tuple[dict, dict, dict]:
    """Run one case in OUT/<case name>; returns its command, file and check entries."""
    workdir = os.path.join(out, case.name)
    os.makedirs(workdir)
    write_config(os.path.join(workdir, "gen.cfg"), dict(case.generator, out="corpus.jsonl"))
    train = dict(case.train, corpus="corpus.jsonl", out="runs/prism")
    write_config(os.path.join(workdir, "train.cfg"), train)
    write_config(os.path.join(workdir, "train_eval0.cfg"), dict(train, eval_fraction=0))
    results = run_commands(src, workdir, commands(case))
    entries = {f"{case.name}/{name}": entry for name, entry in results.items()}
    return entries, case_files(out, workdir), checks(case, workdir, results)


def write_fault_corpus(lines: list[str], path: str, records: int | None, faults: dict) -> None:
    """Write the first `records` of a corpus's `lines` (all with None) to `path`, with FAULTS' `faults`."""
    lines = lines[:records]
    for at, fault in faults.items():
        at = at - 1 if at > 0 else at
        record = json.loads(lines[at])
        if fault == "edge":
            record["edges"].append({"from": 2, "to": 1})
        else:
            record["target"][0] = fault
        lines[at] = "oops" if fault == "json" else json.dumps(record)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def run_faults(src: str, out: str) -> tuple[dict, dict]:
    """Run the faults case in OUT/faults; returns its command and file entries.  The trace commands read a
    checkpoint trained for two steps on the clean corpus."""
    workdir = os.path.join(out, FAULTS_CASE)
    os.makedirs(workdir)
    wl = workloads()["sweep_acceptance"]
    write_config(os.path.join(workdir, "gen.cfg"), dict(wl.generator, seed=3, out="corpus.jsonl"))
    for vocab in (0, 70):
        write_config(os.path.join(workdir, f"train{vocab}.cfg"), dict(wl.train, seed=3, steps=2, vocab_size=vocab))
    write_config(os.path.join(workdir, "train.cfg"), dict(wl.train, seed=3, corpus="corpus.jsonl"))
    cli = ["-m", "prism.harness"]
    results = run_commands(src, workdir, [("preprocess", cli + ["preprocess", "--config", "gen.cfg"])])
    with open(os.path.join(workdir, "corpus.jsonl"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cmds = [("train_clean", cli + ["train", "--config", "train70.cfg", "--corpus", "corpus.jsonl", "--out", "clean"]),
            ("train_huge_lambda", cli + ["train", "--config", "train.cfg", "--lambda", "1e300",
                                         "--out", "runs/huge_lambda"]),
            ("ablate_huge_lambda", cli + ["ablate", "--config", "train.cfg", "--lambdas=0,0.1,1e300",
                                          "--out", "runs/huge_lambda_sweep"])]
    for name, (records, faults, vocab) in FAULTS.items():
        corpus = f"{name}.jsonl"
        write_fault_corpus(lines, os.path.join(workdir, corpus), records, faults)
        flags = ["--config", f"train{vocab}.cfg", "--corpus", corpus]
        cmds += [(f"train_{name}", cli + ["train", *flags, "--out", f"runs/{name}"]),
                 (f"ablate_{name}", cli + ["ablate", *flags, "--out", f"runs/{name}_sweep", "--lambdas=0,0.1"]),
                 (f"trace_{name}", cli + ["trace", "--checkpoint", "clean/checkpoint.json", "--corpus", corpus,
                                          "--limit", "5"])]
    results.update(run_commands(src, workdir, cmds))
    return {f"{FAULTS_CASE}/{name}": entry for name, entry in results.items()}, case_files(out, workdir)


def numeric_environment(src: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", ENVIRONMENT], env=child_env(src), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import prism.model from {src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def run(src: str, out: str, cases: list[Case], jobs: int = 1) -> dict:
    """Run `cases`, the faults case and the help commands against SRC and write
    OUT/manifest.json; returns the manifest."""
    if not os.path.isfile(os.path.join(src, "prism", "harness.py")):
        raise FileNotFoundError(f"no prism package under {src}")
    taken = [name for name in ("manifest.json", "help", FAULTS_CASE, *(case.name for case in cases))
             if os.path.lexists(os.path.join(out, name))]
    if taken:
        raise FileExistsError(f"{out} already holds {taken[0]}; give an OUT without it")
    os.makedirs(out, exist_ok=True)
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        env = pool.submit(numeric_environment, src)
        faults = pool.submit(run_faults, src, out)
        parts = list(pool.map(lambda case: run_case(src, out, case), cases))
    manifest = {"environment": env.result(), "commands": {}, "files": {}, "checks": {}}
    os.makedirs(os.path.join(out, "help"))
    helps = run_commands(src, os.path.join(out, "help"), help_commands())
    manifest["commands"].update({f"help/{name}": entry for name, entry in helps.items()})
    for part in [*parts, faults.result()]:
        for section, entries in zip(SECTIONS[1:], part):
            manifest[section].update(entries)
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def diff(a: dict, b: dict, expect: tuple = ()) -> tuple[int, list[str]]:
    """(exit code, lines) of comparing manifests a and b."""
    if a["environment"] != b["environment"]:
        keys = sorted(k for k in a["environment"].keys() | b["environment"].keys()
                      if a["environment"].get(k) != b["environment"].get(k))
        return 2, [f"refused: the manifests come from different numeric environments ({', '.join(keys)})"]
    lines, unexpected = [], 0
    for kind in SECTIONS[1:]:
        x, y = a[kind], b[kind]
        for entry in sorted(x.keys() | y.keys()):
            if entry not in y:
                what = "only in A"
            elif entry not in x:
                what = "only in B"
            elif x[entry] != y[entry]:
                fields = [f for f in COMMAND_FIELDS if x[entry][f] != y[entry][f]] \
                    if kind == "commands" else [{"files": "sha256", "checks": "result"}[kind]]
                what = "changed " + ",".join(fields)
            else:
                continue
            known = any(fnmatch.fnmatchcase(entry, pattern) for pattern in expect)
            unexpected += not known
            lines.append(f"{what}: {entry}{' (expected)' if known else ''}")
    return (1 if unexpected else 0), lines


def manifest_problem(manifest: object) -> str | None:
    """What keeps a parsed manifest from being diffed, or None."""
    for key in SECTIONS:
        if not isinstance(manifest, dict) or key not in manifest:
            return f"has no {key!r}"
        if not isinstance(manifest[key], dict):
            return f"has a {key!r} that is not an object"
    for name, entry in manifest["commands"].items():
        missing = [field for field in COMMAND_FIELDS if not isinstance(entry, dict) or field not in entry]
        if missing:
            return f"has a command {name!r} without {missing[0]!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the matrix against a source tree")
    r.add_argument("src", help="directory holding the prism package")
    r.add_argument("out", help="output directory; OUT/manifest.json is written last")
    r.add_argument("--jobs", type=int, default=1, help="cases run at a time")
    d = sub.add_parser("diff", help="compare two manifests")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--expect", nargs="*", default=[], metavar="ENTRY", help="entries allowed to change")
    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            checks = run(args.src, args.out, matrix(), args.jobs)["checks"]
        except (OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for name in sorted(name for name, holds in checks.items() if not holds):
            print(f"check failed: {name}", file=sys.stderr)
        return 0 if all(checks.values()) else 1
    manifests = []
    for path in (args.a, args.b):
        path = os.path.join(path, "manifest.json") if os.path.isdir(path) else path
        try:
            with open(path, encoding="utf-8") as fh:
                manifests.append(json.load(fh))
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            print(f"error: cannot read manifest {path}: {exc}", file=sys.stderr)
            return 2
        problem = manifest_problem(manifests[-1])
        if problem:
            print(f"error: manifest {path} {problem}", file=sys.stderr)
            return 2
    code, lines = diff(*manifests, expect=tuple(args.expect))
    for line in lines:
        print(line, file=sys.stderr if code == 2 else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
