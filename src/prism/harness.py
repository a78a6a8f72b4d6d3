"""Command-line surface: preprocess corpora, train models, sweep the
auxiliary weight, dump gate traces, and summarize finished runs.

Subcommands: preprocess | train | ablate | trace | report.
Exit codes: 0 success, 1 config error, 2 I/O error, 3 numeric divergence.

Every command is deterministic: the same config and seed produce byte-level
identical corpora, logs, and CSV files, and 64-bit-exact checkpoints.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pickle
import signal
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import model as model_mod
from .corpus import (
    GeneratorConfig,
    atomic_write,
    chunk,
    generate,
    iter_jsonl,
    read_jsonl,
    stats_table,
    verify_and_filter,
    write_jsonl,
)
from .errors import (
    AnnotationError,
    CheckpointError,
    ConfigError,
    CorpusFormatError,
    DivergenceError,
    EmptyBatchError,
    NonFiniteLogits,
    RunFileError,
)
from .model import (
    METHOD_PRISM,
    METHOD_SFT,
    METHODS,
    ModelParams,
    PreparedCorpus,
    TrainResult,
    TrainSettings,
    check_model_size,
    config_digest,
    evaluate,
    load_checkpoint,
    numeric_environment,
    prepare_examples,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3

# Metric keys reported per run, in CSV row order.
METRIC_KEYS = (
    "mean_p_risky_fact",
    "mean_p_safe_fact",
    "mean_p_nonfact",
    "nonfact_top1_acc",
    "risky_top1_rate",
    "gate_active_rate",
    "final_sft",
    "final_comp",
    "final_total",
)

CSV_HEADER = "run_id,method,lambda,seed,metric,value,delta_vs_sft"


@dataclass
class RunConfig(TrainSettings):
    """Resolved configuration of one run: trainer settings plus corpus, held-out share and output."""

    corpus: str = ""
    eval_fraction: float = 0.1
    out: str = "runs/run"


@dataclass
class MetricsReport:
    """Per-run metrics, as metrics.json holds them."""

    run_id: str
    method: str
    lam: float
    seed: int
    corpus: str
    n_train: int
    n_eval: int
    metrics: dict[str, float | None]
    counters: dict[str, int]

    def write(self, path: str) -> None:
        _write_json(path, _file_keys(asdict(self)))

    @classmethod
    def read(cls, path: str) -> MetricsReport:
        """Load a metrics.json written by `write`, checking every field's name and
        type (config_from_dict), and that its method is one of METHODS.  Older
        files' baseline_run_id and deltas (always null and {}) are ignored."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict):
                data = {key: value for key, value in data.items() if key not in {"baseline_run_id", "deltas"}}
            report = config_from_dict(cls, data, decoded=True)
            if report.method not in METHODS:
                raise ValueError(f"unknown method {report.method!r}")
            return report
        except (TypeError, ValueError, RecursionError) as exc:  # missing field, bad or too deep JSON, not UTF-8
            raise RunFileError(f"malformed metrics file {path}: {exc}") from exc


def _fits(value: object, hint: object) -> bool:
    """Whether a decoded JSON value has a field's type; a float field takes
    any number that is finite as a float."""
    args = get_args(hint)
    if get_origin(hint) is dict:
        return isinstance(value, dict) and all(_fits(v, args[1]) for v in value.values())
    if args:  # a union such as `str | None`
        return any(_fits(value, arg) for arg in args)
    if isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# config parsing

# Config-file and run-file key -> dataclass field.
_CONFIG_ALIASES = {"lambda": "lam"}


def _file_keys(fields: dict) -> dict:
    """`fields` with each aliased field renamed to its file key, moved to the end."""
    for key, name in _CONFIG_ALIASES.items():
        fields[key] = fields.pop(name)
    return fields


def parse_config_file(path: str) -> dict[str, str]:
    """Plain-text `key = value` config in UTF-8, with or without a leading
    byte order mark; '#' starts a comment, and a key may appear once."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if "\0" in line:  # in a comment too
                    raise ConfigError(f"{path}:{lineno}: NUL byte in {line.strip()!r}")
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
                key, _, value = (part.strip() for part in text.partition("="))
                if key in raw:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} repeated")
                raw[key] = value
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return raw


def config_from_dict(cls, raw: object, decoded: bool = False):
    """Build a dataclass from key/value pairs: strings from a config file,
    each parsed as its field's type, or with `decoded` a decoded JSON object
    (a run file's), whose values must have their field's type (_fits) and
    are kept as they are.  Keys are file keys: an aliased field is known
    only by its alias (`lambda`, not `lam`)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {type(raw).__name__}")
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        name = _CONFIG_ALIASES.get(key, key)
        if name not in names or key in _CONFIG_ALIASES.values():
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        target = hints[name]
        if decoded and not _fits(value, target):
            raise ConfigError(f"field {key!r} has the wrong type")
        try:
            kwargs[name] = value if decoded else target(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {target.__name__}") from exc
    return cls(**kwargs)


def validate_run_config(cfg: RunConfig) -> RunConfig:
    """Check ranges and normalize method-specific fields (lambda is forced to
    0 for methods without a complement term, and -0 is 0)."""
    cfg.validate()
    if not cfg.corpus:
        raise ConfigError("no corpus path configured")
    if not cfg.out:
        raise ConfigError("no output path configured")
    if not 0.0 <= cfg.eval_fraction <= 0.9:
        raise ConfigError("eval_fraction must be in [0, 0.9]")
    if not METHODS[cfg.method].has_comp and cfg.lam != 0.0:
        print(f"note: lambda is ignored for method={cfg.method}; forcing 0", file=sys.stderr)
        cfg = replace(cfg, lam=0.0)
    elif cfg.lam == 0.0:  # -0 is the lambda 0: its run id, config hash and lam_0 directory
        cfg = replace(cfg, lam=0.0)
    return cfg


def run_identifier(cfg: RunConfig) -> str:
    digest = config_digest(_file_keys(asdict(cfg)))
    return f"{cfg.method}_lam{cfg.lam:g}_seed{cfg.seed}_{digest[:8]}"


# ---------------------------------------------------------------------------
# commands

def _write_json(path: str, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_preprocess(cfg: GeneratorConfig) -> dict:
    """generate -> verify_and_filter -> chunk each kept example -> write_jsonl,
    plus a stats table.  Whole examples are verified, so `rejected` and
    `reason_counts` count examples, none of which reaches the corpus; `kept`
    counts the records written."""
    report = verify_and_filter(generate(cfg))
    chunks = [c for ex in report.kept for c in chunk(ex, cfg.chunk_limit)]
    oversize = sum(1 for c in chunks if len(c.target_tokens) > cfg.chunk_limit)
    write_jsonl(chunks, cfg.out)
    meta = {
        "config": asdict(cfg),
        "kept": len(chunks),
        "rejected": len(report.rejected),
        "reason_counts": dict(sorted(report.reason_counts.items())),
        "oversize_chunks": oversize,
    }
    _write_json(f"{cfg.out}.meta.json", meta)
    print(stats_table(chunks))
    print(f"rejected examples: {len(report.rejected)}")
    for reason, count in sorted(report.reason_counts.items()):
        print(f"  {reason}: {count}")
    if oversize:
        print(f"oversize chunks (single sentence beyond limit): {oversize}")
    print(f"wrote {cfg.out}")
    return meta


class RunData(NamedTuple):
    """A run's corpus, split and prepared: everything before the first step."""

    vocab: int
    prep_train: PreparedCorpus
    prep_eval: PreparedCorpus


def load_run_data(cfg: RunConfig) -> RunData:
    """Read, size, prepare and split the corpus of a validated config, in one
    pass: prepare_examples takes the records as iter_jsonl decodes them, so
    no list of them is held.  The whole corpus is prepared, in file order;
    with eval_fraction > 0 the last max(1, round(eval_fraction x n)) records
    are held out, and with 0 the run evaluates on its training split.
    The vocabulary (vocab_size, or with 0 the smallest covering the corpus)
    and the model it sizes must pass check_model_size.  These corpus-wide
    checks run once the whole file is decoded, so a format error comes
    first, and they come before any record's token-id or annotation error.
    Only the corpus, eval_fraction, vocab_size, window, risk_propagation and
    model dimension settings matter, so a sweep shares one RunData."""
    sizes = []

    def check(n: int, vocab: int) -> None:
        if not n:
            raise ConfigError(f"corpus {cfg.corpus} is empty")
        n_eval = max(1, round(cfg.eval_fraction * n)) if cfg.eval_fraction > 0 else 0
        if n_eval >= n:
            raise ConfigError("eval_fraction leaves no training examples")
        check_model_size(cfg, vocab)
        sizes.extend((n - n_eval, vocab))

    prepared = prepare_examples(iter_jsonl(cfg.corpus), cfg.window, cfg.vocab_size, cfg.risk_propagation, check)
    cut, vocab = sizes
    return RunData(vocab, prepared[:cut], prepared[cut:] or prepared)


def cmd_train(cfg: RunConfig | Sequence[RunConfig], data: RunData | None = None) -> MetricsReport | list[MetricsReport]:
    """Train one run and write checkpoint, per-step log, and metrics.

    A sequence of configs that differ only in lambda and out is a group,
    trained in lockstep by one train call; each run is evaluated, then each
    is written in order, and their reports come back as a list.  `data` is
    load_run_data of an equivalent config; without it the corpus is read
    and prepared here."""
    group = [validate_run_config(run) for run in ([cfg] if isinstance(cfg, RunConfig) else cfg)]
    if data is None:
        data = load_run_data(group[0])
    # The resolved config keeps the user's vocab_size (0 = derive), so the
    # run id does not depend on the corpus contents.
    results = train(data.prep_train, [replace(run, vocab_size=data.vocab) for run in group])
    evaluated = [evaluate(result.params, data.prep_eval) for result in results]
    reports = [_write_run(run, result, metrics, data) for run, result, metrics in zip(group, results, evaluated)]
    return reports[0] if isinstance(cfg, RunConfig) else reports


def _write_run(cfg: RunConfig, result: TrainResult, evaluated: dict, data: RunData) -> MetricsReport:
    """Write a trained run's files into cfg.out and print its summary."""
    n_train, n_eval = len(data.prep_train), len(data.prep_eval)
    resolved = _file_keys(asdict(cfg))
    run_id = run_identifier(cfg)
    last = result.step_log[-1]
    metrics: dict[str, float | None] = {
        **evaluated,
        "final_sft": last.sft,
        "final_comp": last.comp,
        "final_total": last.total,
    }
    report = MetricsReport(
        run_id=run_id,
        method=cfg.method,
        lam=cfg.lam,
        seed=cfg.seed,
        corpus=cfg.corpus,
        n_train=n_train,
        n_eval=n_eval,
        metrics=metrics,
        counters=asdict(result.counters),
    )

    os.makedirs(cfg.out, exist_ok=True)
    _write_json(
        os.path.join(cfg.out, "resolved_config.json"),
        {"run_id": run_id, "config_hash": config_digest(resolved), "config": resolved,
         "environment": numeric_environment()},
    )
    with atomic_write(os.path.join(cfg.out, "log.jsonl")) as fh:
        for record in result.step_log:
            fh.write(json.dumps(asdict(record)))
            fh.write("\n")
    save_checkpoint(os.path.join(cfg.out, "checkpoint.json"), result.params, resolved)
    report.write(os.path.join(cfg.out, "metrics.json"))

    print(f"run {run_id}: {cfg.steps} steps on {n_train} examples "
          f"(eval on {n_eval})")
    print(f"  final loss: total={last.total:.6f} sft={last.sft:.6f} comp={last.comp:.6f}")
    for key in METRIC_KEYS:
        value = metrics.get(key)
        if value is not None:
            print(f"  {key}: {value:.6f}")
    return report


def write_csv(
    reports: Sequence[MetricsReport], baseline: MetricsReport, out: str | None, echo: bool = False
) -> list[str]:
    """The metrics table of `reports` with deltas against `baseline` where both
    have a value: printed when `echo`, then written to `out` when given."""
    lines = [CSV_HEADER]
    for r in reports:
        for key in METRIC_KEYS:
            value, base = r.metrics.get(key), baseline.metrics.get(key)
            if value is not None:
                delta = "" if base is None else repr(float(value) - float(base))
                lines.append(f"{r.run_id},{r.method},{float(r.lam)!r},{r.seed},{key},"
                             f"{float(value)!r},{delta}")
    if echo:
        print("\n".join(lines))
    if out:
        with atomic_write(out) as fh:
            fh.write("\n".join(lines) + "\n")
    return lines


class WorkerDied(Exception):
    """A forked worker ended before it sent back its call's outcome."""


def _call_captured(fn: Callable, item: object) -> tuple[object, Exception | None, str]:
    """fn(item) with its stdout captured: (value or None, exception or None, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return fn(item), None, out.getvalue()
    except Exception as exc:  # handed to fork_map's caller, which decides what a failure means
        return None, exc, out.getvalue()


def process_slots() -> int:
    """How many processes fit side by side: the CPUs this one may use, since
    each runs BLAS on one thread."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(fn: Callable, items: Sequence) -> Iterator[tuple[object, Exception | None]]:
    """Yield (fn(item), None), or (None, the exception it raised), for each item
    in order, computed on every core this process may use.

    Items go out in rounds of n = min(process_slots(), len(items)).  Each of the
    first n - 1 of a round runs in a worker forked for it (os.fork), which inherits
    everything in memory, sends back its pickled outcome through its own pipe
    and exits 0, or exits 1 if it cannot; this process runs the last one, then
    reads each pipe to its end and waits for the round.  Each call's stdout is
    captured and written out in item order as its outcome is yielded.  A worker
    that sends nothing or does not exit 0 yields WorkerDied naming its exit
    status (negative: killed by that signal).  A caller that stops iterating
    starts no further round.  With n == 1 every call runs in this process, on
    the same path.
    """
    n = max(1, min(process_slots(), len(items)))
    for start in range(0, len(items), n):
        batch = items[start : start + n]
        workers = []  # each worker's pid and the read end of its pipe
        try:
            for item in batch[:-1]:
                sys.stdout.flush()  # the worker inherits no buffered output, so none is written twice
                sys.stderr.flush()
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:  # the worker: os._exit runs no atexit handler and flushes no inherited buffer
                    try:
                        os.close(read)
                        with open(write, "wb") as fh:  # pickled first, so an unpicklable outcome sends nothing
                            fh.write(pickle.dumps(_call_captured(fn, item)))
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write)
                workers.append((pid, open(read, "rb")))
            own = _call_captured(fn, batch[-1])
            payloads = [fh.read() for _, fh in workers]
        except BaseException:  # an interrupt: no worker outlives this call
            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for _, fh in workers:
                fh.close()
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
        outcomes = [pickle.loads(payload) if payload and not status else
                    (None, WorkerDied(f"worker process exited with status {status}"), "")
                    for payload, status in zip(payloads, statuses)]
        for value, error, stdout in outcomes + [own]:
            sys.stdout.write(stdout)
            yield value, error


def cmd_ablate(cfg: RunConfig, lambdas: Sequence[float]) -> str:
    """Run the auxiliary-weight sweep and write one consolidated CSV.

    Every lambda shares the seed and corpus, which is read and prepared once.
    The lambda list is cut into min(process_slots(), len(lambdas)) groups of
    consecutive lambdas, whose sizes differ by at most one, and fork_map
    runs the groups in one round; each group trains in lockstep in one
    cmd_train call, which writes its runs in lambda order.  A group in which
    a run diverges is retrained one run at a time, so each lam_* directory,
    and each failure, is that of a standalone train run of the same config.
    An empty batch is the group's shared batch, so each of its runs is
    recorded with that error, as alone.  Stdout, stderr, failures.json and
    the CSV follow the lambda list's order.  Deltas are taken against the lambda = 0
    run.  A run that diverges or finds an empty batch is recorded, as is
    every run of a group whose worker dies, and the sweep continues; any
    other error ends it as at the first failing lambda in list order.  A
    sweep without failures removes any failures.json an earlier sweep left
    in its directory.  Two lambdas that map to one lam_* directory are a
    config error.
    """
    if not lambdas:
        raise ConfigError("lambda list is empty")
    if 0.0 not in lambdas:
        raise ConfigError("lambda list must include 0")
    subs = [validate_run_config(replace(cfg, method=METHOD_PRISM, lam=lam)) for lam in lambdas]
    subs = [replace(sub, out=os.path.join(cfg.out, f"lam_{sub.lam:g}")) for sub in subs]
    dirs = [sub.out for sub in subs]
    for i, run_dir in enumerate(dirs):
        if run_dir in dirs[:i]:
            raise ConfigError(f"lambdas {lambdas[dirs.index(run_dir)]!r} and {lambdas[i]!r} "
                              f"share the run directory {run_dir}")
    data = load_run_data(subs[0])
    os.makedirs(cfg.out, exist_ok=True)
    n = min(process_slots(), len(subs))
    bounds = [-(-len(subs) * i // n) for i in range(n + 1)]  # ceil(i * len / n): the larger groups first
    groups = [subs[a:b] for a, b in zip(bounds, bounds[1:])]

    def train_group(group: list[RunConfig]) -> list[tuple[MetricsReport | None, Exception | None]]:
        """Each run's (report, None), or (None, its error) up to the first
        error that ends the sweep."""
        if len(group) > 1:
            try:
                return [(report, None) for report in cmd_train(group, data)]
            except DivergenceError:
                pass  # the group wrote nothing; each run is retrained alone, for its own outcome
        outcomes: list[tuple[MetricsReport | None, Exception | None]] = []
        for sub in group:
            try:
                outcomes.append((cmd_train([sub], data)[0], None))
            except Exception as exc:  # kept at its lambda: cmd_ablate decides what it means
                outcomes.append((None, exc))
                if not isinstance(exc, (DivergenceError, EmptyBatchError)):
                    break
        return outcomes

    reports: list[MetricsReport] = []
    failures: list[dict] = []
    for group, (outcomes, exc) in zip(groups, fork_map(train_group, groups)):
        for sub, (report, error) in zip(group, outcomes or [(None, exc)] * len(group)):
            if isinstance(error, (DivergenceError, EmptyBatchError, WorkerDied)):
                failures.append({"lambda": sub.lam, "error": str(error)})
                print(f"warning: lambda={sub.lam:g} failed: {error}", file=sys.stderr)
            elif error is not None:
                raise error
            else:
                reports.append(report)
    failures_path = os.path.join(cfg.out, "failures.json")
    if failures:
        _write_json(failures_path, {"failures": failures})
    else:  # so a clean sweep keeps no earlier sweep's failures
        with contextlib.suppress(FileNotFoundError):
            os.remove(failures_path)
    baseline = next((r for r in reports if r.lam == 0.0), None)
    if baseline is None:
        raise DivergenceError("baseline run (lambda = 0) failed; no deltas possible")

    csv_path = os.path.join(cfg.out, "ablation.csv")
    write_csv(reports, baseline, csv_path)
    print(f"ablation over lambdas {[f'{sub.lam:g}' for sub in subs]} -> {csv_path}")
    print(f"deltas are against baseline run {baseline.run_id}")
    return csv_path


# One trace row, as json.dumps wrote it: repr gives the JSON text of a finite float.
TRACE_ROW = ('{"example": %d, "position": %d, "sentence": %s, "p_label": %r, "q_max": %r, '
             '"w": %r, "pref_gate": %d, "keep_gate": %d, "alpha": %r}\n')

def _trace_text(params: ModelParams, prepared: PreparedCorpus, start: int, stop: int) -> str:
    """The trace rows of records start..stop-1, from one gate_pass."""
    group = prepared[start:stop]
    trace = model_mod.gate_pass(params, group)
    lengths = np.diff(group.offsets)
    example = np.repeat(np.arange(start, stop), lengths)
    position = np.arange(len(group.labels)) - np.repeat(group.offsets[:-1], lengths)
    sentences = ["null" if sid < 0 else sid for sid in group.sentence_id.tolist()]
    columns = zip(example.tolist(), position.tolist(), sentences, trace.p_label.tolist(), trace.q_max.tolist(),
                  group.signals.support_weight.tolist(), trace.pref_gate.tolist(), trace.keep_gate.tolist(),
                  trace.alpha.tolist())
    return "".join(map(TRACE_ROW.__mod__, columns))


def cmd_trace(checkpoint_path: str, corpus_path: str, limit: int, out: str | None) -> int:
    """Dump per-token gate decisions of a checkpointed model over a corpus slice,
    with the risk propagation of the checkpoint's config, one JSON row per
    target position; returns the number of rows.  Records go through
    gate_pass in model.record_groups, the groups evaluate runs, each record
    with its own matmuls, so its rows do not depend on the group; a group's
    rows are written before the next group's.  A non-finite record leaves
    the earlier records' rows on stdout, and no `out`.  The model must have
    its config's dimensions."""
    if limit < 0:
        raise ConfigError(f"--limit must be >= 0 (0 = all), got {limit}")
    ck = load_checkpoint(checkpoint_path)
    params = ck.params
    try:
        settings = config_from_dict(RunConfig, ck.config, decoded=True)
        settings.validate()
        check_model_size(settings, params.vocab_size)
        shape = (params.window, params.embed_dim, params.w1.shape[1], params.vocab_size)
        wanted = (settings.window, settings.embed_dim, settings.hidden_dim, settings.vocab_size or params.vocab_size)
        if shape != wanted:  # vocab_size 0: derived from the training corpus
            raise ConfigError(f"model (window, embed_dim, hidden_dim, vocab_size) {shape} is not the config's {wanted}")
    except ConfigError as exc:
        raise CheckpointError(f"malformed checkpoint {checkpoint_path}: {exc}") from exc
    examples = read_jsonl(corpus_path, limit)
    if not examples:
        raise ConfigError("corpus slice is empty")
    prepared = prepare_examples(
        examples, params.window, params.vocab_size, risk_mode=settings.risk_propagation
    )

    with (atomic_write(out) if out else contextlib.nullcontext(sys.stdout)) as fh:
        for start, stop in model_mod.record_groups(params, prepared):
            try:
                fh.write(_trace_text(params, prepared, start, stop))
            except NonFiniteLogits:
                # Write the rows of the records before the non-finite one, one record at a time.
                for i in range(start, stop):
                    try:
                        fh.write(_trace_text(params, prepared, i, i + 1))
                    except NonFiniteLogits as exc:
                        raise DivergenceError(f"non-finite logits for record {i + 1}") from exc
    rows = len(prepared.labels)
    if out:
        print(f"wrote {rows} trace rows to {out}")
    return rows


def cmd_report(run_dirs: Sequence[str], out: str | None) -> list[str]:
    """Summarize finished runs against their shared baseline: the first run of
    method sft, or of a complement method at lambda = 0 (the bits of sft)."""
    reports = [MetricsReport.read(os.path.join(run_dir, "metrics.json")) for run_dir in run_dirs]
    baseline = next((r for r in reports if r.method == METHOD_SFT or (r.lam == 0.0 and METHODS[r.method].has_comp)),
                    None)
    if baseline is None:
        raise ConfigError("no baseline run (method = sft, or a complement method at lambda = 0) among the given runs")
    for report in reports:
        if (report.seed, report.corpus) != (baseline.seed, baseline.corpus):
            raise ConfigError(
                f"run {report.run_id} (seed {report.seed}, corpus {report.corpus}) does not share "
                f"seed and corpus with baseline run {baseline.run_id} "
                f"(seed {baseline.seed}, corpus {baseline.corpus})"
            )
    print(f"baseline: {baseline.run_id} (method={baseline.method}, lambda={baseline.lam:g}, "
          f"seed={baseline.seed})")
    return write_csv(reports, baseline, out, echo=True)


# ---------------------------------------------------------------------------
# CLI plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # bad flags are config errors, not exit 2
        raise ConfigError(message)


def _load_overlaid(args: argparse.Namespace) -> dict[str, str]:
    raw = parse_config_file(args.config) if args.config else {}
    for key in ("seed", "lambda", "method", "out", "corpus"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = str(value)
    return raw


def _parse_lambdas(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse lambda list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prism", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="plain-text key = value config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the output path")

    p = sub.add_parser("preprocess", parents=[common], help="generate, verify, chunk, and write a corpus")
    p.set_defaults(func=_main_preprocess)

    t = sub.add_parser("train", parents=[common], help="train one run")
    t.add_argument("--corpus", help="override the corpus path")
    t.add_argument("--lambda", type=float, metavar="LAM", help="override the auxiliary weight")
    t.add_argument("--method", choices=METHODS, help="override the training method")
    t.set_defaults(func=_main_train)

    a = sub.add_parser("ablate", parents=[common], help="sweep the auxiliary weight")
    a.add_argument("--corpus", help="override the corpus path")
    a.add_argument("--lambdas", help="comma-separated lambda list (must include 0)")
    a.set_defaults(func=_main_ablate)

    tr = sub.add_parser("trace", help="dump per-token gate decisions")
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--corpus", required=True)
    tr.add_argument("--limit", type=int, default=8, help="number of examples to trace (0 = all)")
    tr.add_argument("--out", help="write the trace here instead of stdout")
    tr.set_defaults(func=_main_trace)

    r = sub.add_parser("report", help="summarize finished runs with deltas vs the baseline")
    r.add_argument("run_dirs", nargs="+", help="run output directories containing metrics.json")
    r.add_argument("--out", help="also write the table as CSV")
    r.set_defaults(func=_main_report)
    return parser


def _main_preprocess(args: argparse.Namespace) -> None:
    cmd_preprocess(config_from_dict(GeneratorConfig, _load_overlaid(args)))


def _main_train(args: argparse.Namespace) -> None:
    cmd_train(config_from_dict(RunConfig, _load_overlaid(args)))


def _main_ablate(args: argparse.Namespace) -> None:
    raw = _load_overlaid(args)
    text = args.lambdas if args.lambdas is not None else raw.pop("lambdas", None)
    raw.pop("lambdas", None)
    if text is None:
        raise ConfigError("ablate needs --lambdas or a 'lambdas' config key")
    cfg = config_from_dict(RunConfig, raw)
    cmd_ablate(cfg, _parse_lambdas(text))


def _main_trace(args: argparse.Namespace) -> None:
    cmd_trace(args.checkpoint, args.corpus, args.limit, args.out)


def _main_report(args: argparse.Namespace) -> None:
    cmd_report(args.run_dirs, args.out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # every non-finite result is checked explicitly
            args.func(args)
    except (ConfigError, EmptyBatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusFormatError, AnnotationError, CheckpointError, RunFileError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
