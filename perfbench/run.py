#!/usr/bin/env python3
"""prism's benchmark: run one workload end to end and print one JSON result line.

    python3 perfbench/run.py --workload sweep_acceptance --seed 1 --seconds 25 --trace 0

The workload's corpus and training configs are made from ``--seed``; the
program only ever sees the generated corpus.  One execution of a workload is
the CLI sequence ``preprocess``, ``ablate``, ``trace`` (on the lambda = 0.1
checkpoint) and ``report``, each an untraced child process
(``python -m prism.harness``), one at a time.  Executions repeat, each in a
fresh directory, until ``--seconds`` have passed and at least two have run;
end-to-end figures are medians over them.  ``setup_s`` is the median wall
time of cold processes, two after each execution, that import prism, read
the corpus and prepare the training split.

``--trace 1`` instead pairs an untraced execution with a traced one, whose
commands run in-process under ``perfbench/tracer.py``, and reports the
per-layer figures taken from the traced spans.

Every execution checks its outputs (exit codes, the ablation CSV header, the
baseline named by ``report``, trace row count, corpus bookkeeping, the
mechanism's direction, and identical checkpoint sha256 across executions of
one seed).  Each command, lambda run and check is one attempted operation;
the last line reports how many failed.  BLAS thread variables are passed
through untouched and recorded in the environment line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

CSV_HEADER = "run_id,method,lambda,seed,metric,value,delta_vs_sft"
TRACED_LAMBDA = 0.1
# Every run must end within 180 s; commands still running after this are killed.
RUN_DEADLINE_S = 170.0
# Cold set-up processes timed after each untraced execution, so that they
# sample the same stretch of the run as the executions do.
SETUP_PROBES_PER_EXECUTION = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    generator: dict   # GeneratorConfig keys, without seed and out
    train: dict       # RunConfig keys, without corpus, seed and out
    lambdas: tuple    # must hold 0 and TRACED_LAMBDA
    trace_limit: int  # examples traced; 0 traces the whole corpus


PAPER_GEN = dict(
    vocab_size=70, n_examples=2000, n_keys=20, n_values=20, sentence_length=5,
    corruption_fraction=0.3, risk_min=0.5, risk_max=0.9, dependency_p=0.25, plant_defects=8,
)
PAPER_TRAIN = dict(
    batch_size=32, learning_rate=0.003, embed_dim=32, hidden_dim=64,
    window=4, eval_fraction=0.1,
)

# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "sweep_acceptance": Workload(
        generator=PAPER_GEN,
        train=dict(PAPER_TRAIN, steps=200),
        lambdas=(0.0, 0.01, 0.1, 0.5, 1.0),
        trace_limit=0,
    ),
    "wide_vocab": Workload(
        generator=dict(PAPER_GEN, vocab_size=1024, n_keys=200, n_values=200, sentence_length=6),
        train=dict(PAPER_TRAIN, steps=60, learning_rate=0.02, vocab_size=1024),
        lambdas=(0.0, 0.1),
        trace_limit=200,
    ),
    "long_docs": Workload(
        generator=dict(
            PAPER_GEN, n_examples=1000, facts_per_sentence=4, sentence_length=13,
            sentences_min=8, sentences_max=16, dependency_p=0.5, chunk_limit=180,
        ),
        train=dict(PAPER_TRAIN, steps=60, learning_rate=0.01, risk_propagation="fixpoint"),
        lambdas=(0.0, 0.1),
        trace_limit=100,
    ),
}


class Ledger:
    """Counts attempted operations (commands, lambda runs, output checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def lam_dir(lam: float) -> str:
    return f"lam_{lam:g}"


def write_config(path: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in values.items())


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: str, deadline: float) -> tuple[int | None, float, str, str]:
    """Run one child to completion; returns (exit code or None on timeout, wall s, stdout, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", "timed out"
    return code, time.perf_counter() - start, out, err


def execute(wl: Workload, seed: int, workdir: str, ledger: Ledger, deadline: float, traced: bool) -> dict | None:
    """One execution of the workload's command sequence plus its output checks.

    Returns the execution's measurements, or None when a command failed.
    """
    os.makedirs(workdir)
    write_config(os.path.join(workdir, "gen.cfg"), dict(wl.generator, seed=seed, out="corpus.jsonl"))
    write_config(os.path.join(workdir, "train.cfg"), dict(wl.train, corpus="corpus.jsonl", seed=seed, out="runs"))
    lambdas = ",".join(f"{lam:g}" for lam in wl.lambdas)
    ckpt = os.path.join("runs", lam_dir(TRACED_LAMBDA), "checkpoint.json")
    commands = [
        ("preprocess", ["preprocess", "--config", "gen.cfg"]),
        ("ablate", ["ablate", "--config", "train.cfg", "--lambdas", lambdas]),
        ("trace", ["trace", "--checkpoint", ckpt, "--corpus", "corpus.jsonl",
                   "--limit", str(wl.trace_limit), "--out", "trace.jsonl"]),
        ("report", ["report", *(os.path.join("runs", lam_dir(lam)) for lam in wl.lambdas)]),
    ]
    walls: dict[str, float] = {}
    stdout: dict[str, str] = {}
    spans: list[list] = []
    start = time.perf_counter()
    for name, args in commands:
        if traced:
            spans_path = os.path.join(workdir, f"spans_{name}.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, *args]
        else:
            argv = [sys.executable, "-m", "prism.harness", *args]
        code, walls[name], stdout[name], err = run_child(argv, workdir, deadline)
        last_err = err.strip().splitlines()[-1:] or [""]
        if not ledger.check(code == 0, f"{name} exited {code}: {last_err[0]}"):
            return None
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                spans.append(json.load(fh))
    pipeline_s = time.perf_counter() - start

    def path(*parts: str) -> str:
        return os.path.join(workdir, *parts)

    with open(path("corpus.jsonl.meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    corpus = read_records(path("corpus.jsonl"))
    ledger.check(len(corpus) == meta["kept"] and meta["rejected"] >= 1,
                 f"corpus has {len(corpus)} records, meta says kept={meta['kept']} rejected={meta['rejected']}")

    shas: dict[float, str] = {}
    metrics: dict[float, dict] = {}
    train_tokens = 0
    for lam in wl.lambdas:
        run = path("runs", lam_dir(lam))
        try:
            log = read_records(os.path.join(run, "log.jsonl"))
            with open(os.path.join(run, "metrics.json"), encoding="utf-8") as fh:
                metrics[lam] = json.load(fh)
            shas[lam] = sha256_file(os.path.join(run, "checkpoint.json"))
        except OSError as exc:
            ledger.check(False, f"lambda={lam:g} run incomplete: {exc}")
            return None
        if ledger.check(len(log) == wl.train["steps"], f"lambda={lam:g} logged {len(log)} steps"):
            train_tokens += sum(rec["n_sft"] for rec in log)
        if lam == TRACED_LAMBDA:
            comp_active = sum(r["alpha_active"] for r in log) / max(1, sum(r["n_fact"] for r in log))

    with open(path("runs", "ablation.csv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    ledger.check(header == CSV_HEADER, f"ablation.csv header {header!r}")

    baseline = metrics[0.0]["run_id"]
    first = stdout["report"].splitlines()[:1]
    ledger.check(bool(first) and first[0].startswith(f"baseline: {baseline} ") and "lambda=0," in first[0],
                 f"report does not name the lambda=0 baseline {baseline}: {first}")

    sliced = corpus[: wl.trace_limit or None]
    expected_rows = sum(len(rec["target"]) for rec in sliced)
    trace_rows = len(read_records(path("trace.jsonl")))
    ledger.check(trace_rows == expected_rows, f"trace has {trace_rows} rows, slice has {expected_rows} target tokens")

    base, gated = metrics[0.0]["metrics"], metrics[TRACED_LAMBDA]["metrics"]
    quality = ("mean_p_risky_fact", "nonfact_top1_acc")
    if not ledger.check(all(isinstance(m.get(k), float) for m in (base, gated) for k in quality),
                        f"eval split lacks risky-fact or non-fact positions: {base}"):
        return None
    ledger.check(gated["mean_p_risky_fact"] < base["mean_p_risky_fact"],
                 f"risky-fact confidence did not drop: {base['mean_p_risky_fact']} -> {gated['mean_p_risky_fact']}")

    return {
        "walls": walls,
        "pipeline_s": pipeline_s,
        "trace_rows": trace_rows,
        "train_tokens": train_tokens,
        "shas": shas,
        "risky_conf_ratio": gated["mean_p_risky_fact"] / base["mean_p_risky_fact"],
        "nonfact_acc_ratio": gated["nonfact_top1_acc"] / base["nonfact_top1_acc"],
        "comp_active_ratio": comp_active,
        "rejected_ratio": meta["rejected"] / (meta["kept"] + meta["rejected"]),
        "checkpoint_bytes": os.path.getsize(path("runs", lam_dir(TRACED_LAMBDA), "checkpoint.json")),
        "spans": spans,
        "workdir": workdir,
    }


def check_reproducible(executions: list[dict], ledger: Ledger) -> None:
    """Every execution of one seed must write bit-identical checkpoints."""
    first = executions[0]["shas"]
    for ex in executions[1:]:
        for lam, sha in first.items():
            ledger.check(ex["shas"].get(lam) == sha,
                         f"lambda={lam:g} checkpoint sha256 differs between executions")


def measure_setup(wl: Workload, corpus: str, ledger: Ledger, deadline: float) -> list[float]:
    argv = [sys.executable, os.path.join(HERE, "probe_setup.py"), corpus,
            str(wl.train["eval_fraction"]), str(wl.train["window"]),
            str(wl.train.get("vocab_size", 0)), wl.train.get("risk_propagation", "onehop")]
    times = []
    for _ in range(SETUP_PROBES_PER_EXECUTION):
        code, wall, _, err = run_child(argv, ROOT, deadline)
        if ledger.check(code == 0, f"setup probe exited {code}: {err.strip()[-200:]}"):
            times.append(wall)
    return times


def end_to_end_metrics(executions: list[dict], setup_times: list[float]) -> dict[str, float]:
    med = statistics.median
    first = executions[0]
    values = {
        "ablate_s": med(ex["walls"]["ablate"] for ex in executions),
        "train_tokens_per_s": med(ex["train_tokens"] / ex["walls"]["ablate"] for ex in executions),
        "pipeline_s": med(ex["pipeline_s"] for ex in executions),
        # ru_maxrss of RUSAGE_CHILDREN is the largest waited-for child, in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "risky_conf_ratio": first["risky_conf_ratio"],
        "nonfact_acc_ratio": first["nonfact_acc_ratio"],
    }
    if setup_times:
        values["setup_s"] = med(setup_times)
    return values


def untraced_command_metrics(executions: list[dict]) -> dict[str, float]:
    """The sub-second commands, timed untraced.  They are per-layer figures
    because a single run of them drifts with the machine by more than any
    usable bound."""
    med = statistics.median
    return {
        "harness.preprocess_s": med(ex["walls"]["preprocess"] for ex in executions),
        "harness.trace_rows_per_s": med(ex["trace_rows"] / ex["walls"]["trace"] for ex in executions),
    }


class SpanTree:
    """Spans of one traced execution, all commands flattened into one list."""

    def __init__(self, spans_per_command: list[list[list]]) -> None:
        self.spans: list[list] = []
        for spans in spans_per_command:
            base = len(self.spans)
            for name, start, end, parent, rows in spans:
                self.spans.append([name, start, end, base + parent if parent >= 0 else -1, rows])
        self.children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            self.children.setdefault(span[3], []).append(i)

    def name(self, i: int) -> str | None:
        return self.spans[i][0] if i >= 0 else None

    def parent(self, i: int) -> str | None:
        return self.name(self.spans[i][3])

    def has_ancestor(self, i: int, name: str) -> bool:
        while i >= 0:
            i = self.spans[i][3]
            if self.name(i) == name:
                return True
        return False

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def calls(self, name: str, parent: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name and (parent is None or self.parent(i) == parent)]

    def total(self, name: str) -> float:
        return sum(self.dur(i) for i in self.calls(name))


# Direct children of model.train that make up one training step.
STEP_PHASES = frozenset({
    "model.forward_batch", "objective.total_loss", "objective.sft_loss",
    "objective.softmax_probs", "model.backward_batch", "model.optimizer_step",
})


def step_times(tree: SpanTree) -> tuple[list[float], list[float]]:
    """Per step: time between consecutive optimizer_step returns, and the part
    of it no wrapped phase covers (batch gather and step-log bookkeeping)."""
    steps, other = [], []
    for t in tree.calls("model.train"):
        kids = tree.children.get(t, [])
        ends = [tree.spans[k][2] for k in kids if tree.name(k) == "model.optimizer_step"]
        phases = [k for k in kids if tree.name(k) in STEP_PHASES]
        j = 0
        for a, b in zip(ends, ends[1:]):
            while j < len(phases) and tree.spans[phases[j]][2] <= a:
                j += 1
            busy = 0.0
            while j < len(phases) and tree.spans[phases[j]][2] <= b:
                busy += tree.dur(phases[j])
                j += 1
            steps.append(b - a)
            other.append(b - a - busy)
    return steps, other


def layer_metrics(ex: dict) -> dict[str, float]:
    tree = SpanTree(ex["spans"])
    med = statistics.median

    def ms(durations: list[float]) -> float:
        return med(durations) * 1e3

    def in_train(name: str) -> list[float]:
        return [tree.dur(i) for i in tree.calls(name, parent="model.train")]

    steps, other = step_times(tree)
    steps.sort()
    run_io = 0.0
    for i in tree.calls("harness.cmd_train"):
        inner = sum(tree.dur(k) for k in tree.children.get(i, [])
                    if tree.name(k) in ("model.train", "model.evaluate", "model.prepare_examples"))
        run_io += tree.dur(i) - inner
    rows = [tree.spans[i][4] for i in tree.calls("model.forward_batch", parent="model.train")]
    return {
        "model.forward_batch_ms": ms(in_train("model.forward_batch")),
        "model.backward_batch_ms": ms(in_train("model.backward_batch")),
        "model.optimizer_step_ms": ms(in_train("model.optimizer_step")),
        "objective.total_loss_ms": ms(in_train("objective.total_loss")),
        "objective.sft_loss_ms": ms([tree.dur(i) for i in tree.calls("objective.sft_loss")
                                     if tree.has_ancestor(i, "model.train")]),
        "objective.comp_loss_ms": ms([tree.dur(i) for i in tree.calls("objective.comp_loss", parent="objective.total_loss")]),
        "model.step_log_softmax_ms": ms(in_train("objective.softmax_probs")),
        "model.eval_softmax_ms": ms([tree.dur(i) for i in tree.calls("objective.softmax_probs", parent="model.evaluate")]),
        "model.step_ms_p50": med(steps) * 1e3,
        "model.step_ms_p99": steps[math.ceil(0.99 * len(steps)) - 1] * 1e3,
        "model.step_other_ms": ms(other),
        "model.logit_rows_per_step": statistics.fmean(rows),
        "model.prepare_examples_s": tree.total("model.prepare_examples"),
        "fact_graph.propagate_risk_s": tree.total("fact_graph.propagate_risk"),
        "fact_graph.propagate_risk_calls": float(len(tree.calls("fact_graph.propagate_risk"))),
        "fact_graph.derive_token_signals_s": tree.total("fact_graph.derive_token_signals"),
        "corpus.generate_s": tree.total("corpus.generate"),
        "corpus.chunk_s": tree.total("corpus.chunk"),
        "corpus.verify_and_filter_s": tree.total("corpus.verify_and_filter"),
        "corpus.write_jsonl_s": tree.total("corpus.write_jsonl"),
        "corpus.read_jsonl_s": tree.total("corpus.read_jsonl"),
        "corpus.rejected_ratio": ex["rejected_ratio"],
        "model.save_checkpoint_s": tree.total("model.save_checkpoint"),
        "model.load_checkpoint_s": tree.total("model.load_checkpoint"),
        "model.checkpoint_bytes": float(ex["checkpoint_bytes"]),
        "harness.ablate_run_s_p50": med(tree.dur(i) for i in tree.calls("harness.cmd_train", parent="harness.cmd_ablate")),
        "harness.run_io_s": run_io,
        "harness.trace_s": tree.total("harness.cmd_trace"),
        "objective.comp_active_ratio": ex["comp_active_ratio"],
    }


def environment() -> dict:
    """The numeric environment the figures were measured in."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return the result object (the last output line)."""
    spec = load_spec()
    section = spec["per_layer" if trace else "end_to_end"]
    ledger = Ledger()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    base = os.path.join(WORK, f"{seed}-{os.getpid()}")
    plain: list[dict] = []
    traced: list[dict] = []
    setup_times: list[float] = []
    values: dict[str, float] = {}
    try:
        while time.monotonic() < deadline:
            n = len(plain)
            ex = execute(wl, seed, os.path.join(base, f"plain{n}"), ledger, deadline, traced=False)
            if ex is None:
                break
            plain.append(ex)
            if not trace:
                setup_times += measure_setup(wl, os.path.join(ex["workdir"], "corpus.jsonl"), ledger, deadline)
            else:
                ex = execute(wl, seed, os.path.join(base, f"traced{n}"), ledger, deadline, traced=True)
                if ex is None:
                    break
                traced.append(ex)
            enough = len(plain) + len(traced) >= 2
            if enough and time.monotonic() - start >= seconds:
                break
        if not ledger.failures:
            ledger.check(len(plain) + len(traced) >= 2, "fewer than two executions before the deadline")
        if plain and not ledger.failures:
            check_reproducible(plain + traced, ledger)
            if trace:
                per_pair = [layer_metrics(ex) for ex in traced]
                values = {k: statistics.median(m[k] for m in per_pair) for k in per_pair[0]}
                values.update(untraced_command_metrics(plain))
                values["harness.trace_overhead_ratio"] = statistics.median(
                    t["pipeline_s"] / p["pipeline_s"] for p, t in zip(plain, traced))
            else:
                values = end_to_end_metrics(plain, setup_times)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if not ledger.failures:
        for metric in section:
            ledger.check(metric["name"] in values, f"metric {metric['name']} not measured")
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return {
        "correct": not ledger.failures,
        "attempted": max(1, ledger.attempted),
        "failed": len(ledger.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section if m["name"] in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prism", "harness.py")):
        print(f"error: no prism sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
