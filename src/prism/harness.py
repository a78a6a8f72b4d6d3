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
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import BLAS_THREADS
from . import model as model_mod
from .corpus import (
    GeneratorConfig,
    atomic_write,
    chunk,
    generate,
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
    RunFileError,
)
from .model import (
    METHOD_PRISM,
    METHOD_SFT,
    METHODS,
    PreparedExample,
    TrainSettings,
    check_model_size,
    config_digest,
    evaluate,
    infer_vocab_size,
    load_checkpoint,
    numeric_environment,
    prepare_examples,
    save_checkpoint,
    train,
)
from .objective import comp_loss

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
    """Per-run metrics, with deltas against a named baseline when available."""

    run_id: str
    method: str
    lam: float
    seed: int
    corpus: str
    n_train: int
    n_eval: int
    metrics: dict[str, float | None]
    counters: dict[str, int]
    baseline_run_id: str | None = None
    deltas: dict[str, float] = field(default_factory=dict)

    def write(self, path: str) -> None:
        _write_json(path, _file_keys(asdict(self)))

    @classmethod
    def read(cls, path: str) -> MetricsReport:
        """Load a metrics.json written by `write`, checking every field's name and type."""
        hints = get_type_hints(cls)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise TypeError("not a JSON object")
            fields = {}
            for key, value in data.items():
                name = _CONFIG_ALIASES.get(key, key)
                if name in hints and not _fits(value, hints[name]):
                    raise TypeError(f"field {key!r} has the wrong type")
                fields[name] = value
            return cls(**fields)
        except (TypeError, ValueError) as exc:  # ValueError: bad JSON or bytes that are not UTF-8
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
    """Plain-text `key = value` config; '#' starts a comment."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "\0" in text:
                    raise ConfigError(f"{path}:{lineno}: NUL byte in {text!r}")
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
                key, _, value = text.partition("=")
                raw[key.strip()] = value.strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return raw


def config_from_dict(cls, raw: dict):
    """Build a config dataclass from key/value pairs: strings from a config
    file, or the JSON values of a resolved config."""
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        name = _CONFIG_ALIASES.get(key, key)
        if name not in names:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        target = hints[name]
        try:
            kwargs[name] = target(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {target.__name__}") from exc
    return cls(**kwargs)


def validate_run_config(cfg: RunConfig) -> RunConfig:
    """Check ranges and normalize method-specific fields (lambda is forced to
    0 for methods without a complement term)."""
    cfg.validate()
    if not cfg.corpus:
        raise ConfigError("no corpus path configured")
    if not 0.0 <= cfg.eval_fraction <= 0.9:
        raise ConfigError("eval_fraction must be in [0, 0.9]")
    if not METHODS[cfg.method].has_comp and cfg.lam != 0.0:
        print(f"note: lambda is ignored for method={cfg.method}; forcing 0", file=sys.stderr)
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
    """generate -> chunk -> verify_and_filter -> write_jsonl, plus a stats table."""
    examples = generate(cfg)
    chunks = [c for ex in examples for c in chunk(ex, cfg.chunk_limit)]
    oversize = sum(1 for c in chunks if len(c.target_tokens) > cfg.chunk_limit)
    report = verify_and_filter(chunks)
    write_jsonl(report.kept, cfg.out)
    meta = {
        "config": asdict(cfg),
        "kept": len(report.kept),
        "rejected": len(report.rejected),
        "reason_counts": dict(sorted(report.reason_counts.items())),
        "oversize_chunks": oversize,
    }
    _write_json(f"{cfg.out}.meta.json", meta)
    print(stats_table(report.kept))
    print(f"rejected instances: {len(report.rejected)}")
    for reason, count in sorted(report.reason_counts.items()):
        print(f"  {reason}: {count}")
    if oversize:
        print(f"oversize chunks (single sentence beyond limit): {oversize}")
    print(f"wrote {cfg.out}")
    return meta


class RunData(NamedTuple):
    """A run's corpus, split and prepared: everything before the first step."""

    vocab: int
    prep_train: list[PreparedExample]
    prep_eval: list[PreparedExample]


def load_run_data(cfg: RunConfig) -> RunData:
    """Read, size, prepare and split the corpus of a validated config.  The
    whole corpus is prepared once, in file order; the last eval_fraction is
    held out, or with none held out the run evaluates on its training split.
    The vocabulary (vocab_size, or with 0 the smallest covering the corpus)
    and the model it sizes must pass check_model_size.  Only the corpus,
    eval_fraction, vocab_size, window, risk_propagation and model dimension
    settings matter, so a sweep shares one RunData."""
    examples = read_jsonl(cfg.corpus)
    if not examples:
        raise ConfigError(f"corpus {cfg.corpus} is empty")
    n_eval = int(round(cfg.eval_fraction * len(examples))) if cfg.eval_fraction > 0 else 0
    if n_eval >= len(examples):
        raise ConfigError("eval_fraction leaves no training examples")
    vocab = cfg.vocab_size or infer_vocab_size(examples)
    check_model_size(cfg, vocab)
    prepared = prepare_examples(examples, cfg.window, vocab, risk_mode=cfg.risk_propagation)
    cut = len(prepared) - n_eval
    return RunData(vocab, prepared[:cut], prepared[cut:] or prepared)


def cmd_train(cfg: RunConfig, data: RunData | None = None) -> MetricsReport:
    """Train one run and write checkpoint, per-step log, and metrics.

    `data` is load_run_data of an equivalent config; without it the corpus
    is read and prepared here."""
    cfg = validate_run_config(cfg)
    if data is None:
        data = load_run_data(cfg)
    n_train, n_eval = len(data.prep_train), len(data.prep_eval)

    # The resolved config keeps the user's vocab_size (0 = derive), so the
    # run id does not depend on the corpus contents.
    result = train(data.prep_train, replace(cfg, vocab_size=data.vocab))

    resolved = _file_keys(asdict(cfg))
    run_id = run_identifier(cfg)
    last = result.step_log[-1]
    metrics: dict[str, float | None] = {
        **evaluate(result.params, data.prep_eval, cfg.epsilon),
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
    save_checkpoint(
        os.path.join(cfg.out, "checkpoint.json"), result.params, result.opt_state, resolved, cfg.seed
    )
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


def _worker(fn: Callable, item: object, sender) -> None:
    sender.send(_call_captured(fn, item))


def _receive(proc, receiver) -> tuple[object, Exception | None, str]:
    try:
        return receiver.recv()
    except EOFError:
        proc.join()
        return None, WorkerDied(f"worker process exited with status {proc.exitcode}"), ""


def process_slots() -> int:
    """How many processes fit side by side on the CPUs this one may use: the
    CPUs divided by the BLAS threads each process starts (the largest thread
    variable prism saw at import; one unless the environment set more)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    threads = max([int(value) for value in BLAS_THREADS.values() if value.isdigit()] + [1])
    return max(1, cpus // threads)


def fork_map(fn: Callable, items: Sequence) -> Iterator[tuple[object, Exception | None]]:
    """Yield (fn(item), None), or (None, the exception it raised), for each item
    in order, computed on every core this process may use.

    Items go out in rounds of n = min(process_slots(), len(items)).  Each of the
    first n - 1 of a round runs in a worker forked for it, which inherits
    everything in memory; this process runs the last one, then waits for the
    round.  Only outcomes travel back.  Each call's stdout is captured and
    written out in item order as its outcome is yielded.  A worker that dies
    yields WorkerDied naming its exit status (negative: killed by that signal).
    A caller that stops iterating starts no further round.  With n == 1 every
    call runs in this process, on the same path.
    """
    # fork, not spawn: a worker uses the caller's prepared data as it is in
    # memory, instead of reading and preparing the corpus again.
    ctx = multiprocessing.get_context("fork")
    n = max(1, min(process_slots(), len(items)))
    for start in range(0, len(items), n):
        batch = items[start : start + n]
        workers = []
        try:
            for item in batch[:-1]:
                receiver, sender = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker, args=(fn, item, sender))
                proc.start()
                sender.close()
                workers.append((proc, receiver))
            own = _call_captured(fn, batch[-1])
            outcomes = [_receive(proc, receiver) for proc, receiver in workers] + [own]
        except BaseException:  # an interrupt: no worker outlives this call
            for proc, _ in workers:
                proc.terminate()
            raise
        finally:
            for proc, receiver in workers:
                proc.join()
                receiver.close()
        for value, error, stdout in outcomes:
            sys.stdout.write(stdout)
            yield value, error


def cmd_ablate(cfg: RunConfig, lambdas: Sequence[float]) -> str:
    """Run the auxiliary-weight sweep and write one consolidated CSV.

    Every lambda shares the seed and corpus, which is read and prepared once;
    the runs are shared out over the CPUs by fork_map, and each
    lam_* directory is byte-identical to a standalone train run of the same
    config.  Stdout, stderr, failures.json and the CSV follow the lambda
    list's order.  Deltas are taken against the lambda = 0 run.  A run that
    diverges, finds an empty batch or whose worker dies is recorded and the
    sweep continues; any other error ends it as at that lambda in a
    one-by-one sweep.  Two lambdas that map to one lam_* directory are a
    config error.
    """
    if not lambdas:
        raise ConfigError("lambda list is empty")
    if 0.0 not in lambdas:
        raise ConfigError("lambda list must include 0")
    subs = [
        validate_run_config(
            replace(cfg, method=METHOD_PRISM, lam=lam, out=os.path.join(cfg.out, f"lam_{lam:g}"))
        )
        for lam in lambdas
    ]
    dirs = [sub.out for sub in subs]
    for i, run_dir in enumerate(dirs):
        if run_dir in dirs[:i]:
            raise ConfigError(f"lambdas {lambdas[dirs.index(run_dir)]!r} and {lambdas[i]!r} "
                              f"share the run directory {run_dir}")
    data = load_run_data(subs[0])
    os.makedirs(cfg.out, exist_ok=True)

    reports: list[MetricsReport] = []
    failures: list[dict] = []
    for sub, (report, exc) in zip(subs, fork_map(lambda run: cmd_train(run, data), subs)):
        if isinstance(exc, (DivergenceError, EmptyBatchError, WorkerDied)):
            failures.append({"lambda": sub.lam, "error": str(exc)})
            print(f"warning: lambda={sub.lam:g} failed: {exc}", file=sys.stderr)
        elif exc is not None:
            raise exc
        else:
            reports.append(report)
    if failures:
        _write_json(os.path.join(cfg.out, "failures.json"), {"failures": failures})
    baseline = next((r for r in reports if r.lam == 0.0), None)
    if baseline is None:
        raise DivergenceError("baseline run (lambda = 0) failed; no deltas possible")

    csv_path = os.path.join(cfg.out, "ablation.csv")
    write_csv(reports, baseline, csv_path)
    print(f"ablation over lambdas {[f'{l:g}' for l in lambdas]} -> {csv_path}")
    print(f"deltas are against baseline run {baseline.run_id}")
    return csv_path


def cmd_trace(checkpoint_path: str, corpus_path: str, limit: int, out: str | None) -> list[dict]:
    """Dump per-token gate decisions of a checkpointed model over a corpus slice,
    with the epsilon and risk propagation of the checkpoint's config."""
    ck = load_checkpoint(checkpoint_path)
    try:
        if not isinstance(ck.config, dict):
            raise ConfigError("config is not a JSON object")
        settings = config_from_dict(RunConfig, ck.config)
        settings.validate()
    except ConfigError as exc:
        raise CheckpointError(f"malformed checkpoint {checkpoint_path}: {exc}") from exc
    examples = read_jsonl(corpus_path, limit)
    if not examples:
        raise ConfigError("corpus slice is empty")
    prepared = prepare_examples(
        examples, ck.params.window, ck.params.vocab_size, risk_mode=settings.risk_propagation
    )

    rows = []
    for i, prep in enumerate(prepared):
        logits, _ = model_mod.forward_batch(ck.params, prep.windows)
        if not np.all(np.isfinite(logits)):
            raise DivergenceError(f"non-finite logits for record {i + 1}")
        _, _, trace = comp_loss(logits, prep.labels, prep.signals, settings.epsilon)
        for t in range(len(prep.labels)):
            sid = int(prep.sentence_id[t])
            rows.append(
                {
                    "example": i,
                    "position": t,
                    "sentence": sid if sid >= 0 else None,
                    "p_label": float(trace.p_label[t]),
                    "q_max": float(trace.q_max[t]),
                    "w": float(prep.signals.support_weight[t]),
                    "pref_gate": int(trace.pref_gate[t]),
                    "keep_gate": int(trace.keep_gate[t]),
                    "alpha": float(trace.alpha[t]),
                }
            )
    payload = "\n".join(json.dumps(row) for row in rows) + "\n"
    if out:
        with atomic_write(out) as fh:
            fh.write(payload)
        print(f"wrote {len(rows)} trace rows to {out}")
    else:
        sys.stdout.write(payload)
    return rows


def cmd_report(run_dirs: Sequence[str], out: str | None) -> list[str]:
    """Summarize finished runs against their shared baseline (lambda = 0 or sft)."""
    reports = [MetricsReport.read(os.path.join(run_dir, "metrics.json")) for run_dir in run_dirs]
    baseline = next(
        (r for r in reports if r.lam == 0.0 or r.method == METHOD_SFT),
        None,
    )
    if baseline is None:
        raise ConfigError("no baseline run (lambda = 0 or method = sft) among the given runs")
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

    p = sub.add_parser("preprocess", parents=[common], help="generate, chunk, verify, and write a corpus")
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
