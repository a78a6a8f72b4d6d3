"""Command-line surface: preprocess corpora, train models, sweep the
auxiliary weight, dump gate traces, and summarize finished runs.

Subcommands: preprocess | train | ablate | trace | report.
Exit codes: 0 success, 1 config error, 2 I/O error, 3 numeric divergence.

Every command is deterministic: the same config and seed produce byte-level
identical corpora, logs, and CSV files, and 64-bit-exact checkpoints.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence, get_type_hints

from . import model as model_mod
from .corpus import (
    AnnotatedExample,
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
)
from .fact_graph import RISK_ONEHOP
from .model import (
    METHOD_PRISM,
    METHOD_SFT,
    METHODS,
    PreparedExample,
    TrainSettings,
    config_digest,
    evaluate,
    infer_vocab_size,
    load_checkpoint,
    prepare_examples,
    save_checkpoint,
    train,
)
from .objective import DEFAULT_EPSILON, comp_loss

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

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "method": self.method,
            "lambda": self.lam,
            "seed": self.seed,
            "corpus": self.corpus,
            "n_train": self.n_train,
            "n_eval": self.n_eval,
            "metrics": self.metrics,
            "counters": self.counters,
            "baseline_run_id": self.baseline_run_id,
            "deltas": self.deltas,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(
            run_id=data["run_id"],
            method=data["method"],
            lam=data["lambda"],
            seed=data["seed"],
            corpus=data["corpus"],
            n_train=data["n_train"],
            n_eval=data["n_eval"],
            metrics=data["metrics"],
            counters=data["counters"],
            baseline_run_id=data.get("baseline_run_id"),
            deltas=data.get("deltas", {}),
        )


# ---------------------------------------------------------------------------
# config parsing

_CONFIG_ALIASES = {"lambda": "lam"}


def parse_config_file(path: str) -> dict[str, str]:
    """Plain-text `key = value` config; '#' starts a comment."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def config_from_dict(cls, raw: dict[str, str]):
    """Build a config dataclass from string key/value pairs."""
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
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {target.__name__}") from exc
    return cls(**kwargs)


def resolved_config_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["lambda"] = out.pop("lam")
    return out


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
    digest = config_digest(resolved_config_dict(cfg))
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
    oversize = sum(1 for c in chunks if c.oversize)
    report = verify_and_filter([c.example for c in chunks])
    write_jsonl(report.kept, cfg.out)
    meta = {
        "config": dataclasses.asdict(cfg),
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


def _split_corpus(
    examples: list[AnnotatedExample], eval_fraction: float
) -> tuple[list[AnnotatedExample], list[AnnotatedExample]]:
    n_eval = int(round(eval_fraction * len(examples))) if eval_fraction > 0 else 0
    if n_eval == 0:
        return examples, examples  # evaluate on the training split
    if n_eval >= len(examples):
        raise ConfigError("eval_fraction leaves no training examples")
    return examples[:-n_eval], examples[-n_eval:]


class RunData(NamedTuple):
    """A run's corpus, split and prepared: everything before the first step."""

    vocab: int
    train_examples: list[AnnotatedExample]
    eval_examples: list[AnnotatedExample]
    prep_train: list[PreparedExample]
    prep_eval: list[PreparedExample]


def load_run_data(cfg: RunConfig) -> RunData:
    """Read, split and prepare the corpus of a validated config.  Only the
    corpus, eval_fraction, vocab_size, window and risk_propagation settings
    matter, so every run of a lambda sweep can share one RunData."""
    examples = read_jsonl(cfg.corpus)
    if not examples:
        raise ConfigError(f"corpus {cfg.corpus} is empty")
    vocab = cfg.vocab_size or infer_vocab_size(examples)
    train_examples, eval_examples = _split_corpus(examples, cfg.eval_fraction)
    prep_train = prepare_examples(train_examples, cfg.window, vocab, risk_mode=cfg.risk_propagation)
    prep_eval = prepare_examples(eval_examples, cfg.window, vocab, risk_mode=cfg.risk_propagation)
    return RunData(vocab, train_examples, eval_examples, prep_train, prep_eval)


def cmd_train(cfg: RunConfig, data: RunData | None = None) -> MetricsReport:
    """Train one run and write checkpoint, per-step log, and metrics.

    `data` is load_run_data of an equivalent config; without it the corpus
    is read and prepared here."""
    cfg = validate_run_config(cfg)
    if data is None:
        data = load_run_data(cfg)
    train_examples, eval_examples = data.train_examples, data.eval_examples

    # The resolved config keeps the user's vocab_size (0 = derive), so the
    # run id does not depend on the corpus contents.
    result = train(train_examples, replace(cfg, vocab_size=data.vocab), data.prep_train)
    eval_metrics = evaluate(result.params, data.prep_eval, cfg.epsilon)

    resolved = resolved_config_dict(cfg)
    run_id = run_identifier(cfg)
    last = result.step_log[-1]
    metrics: dict[str, float | None] = {
        **{k: v for k, v in eval_metrics.to_dict().items() if k.startswith(("mean_", "nonfact_", "risky_", "gate_"))},
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
        n_train=len(train_examples),
        n_eval=len(eval_examples),
        metrics=metrics,
        counters=dataclasses.asdict(result.counters),
    )

    os.makedirs(cfg.out, exist_ok=True)
    _write_json(
        os.path.join(cfg.out, "resolved_config.json"),
        {"run_id": run_id, "config_hash": config_digest(resolved), "config": resolved},
    )
    with atomic_write(os.path.join(cfg.out, "log.jsonl")) as fh:
        for record in result.step_log:
            fh.write(json.dumps(record.to_dict()))
            fh.write("\n")
    save_checkpoint(
        os.path.join(cfg.out, "checkpoint.json"), result.params, result.opt_state, resolved, cfg.seed
    )
    _write_json(os.path.join(cfg.out, "metrics.json"), report.to_dict())

    print(f"run {run_id}: {cfg.steps} steps on {len(train_examples)} examples "
          f"(eval on {len(eval_examples)})")
    print(f"  final loss: total={last.total:.6f} sft={last.sft:.6f} comp={last.comp:.6f}")
    for key in METRIC_KEYS:
        value = metrics.get(key)
        if value is not None:
            print(f"  {key}: {value:.6f}")
    return report


def _format_value(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def metric_rows(
    report: MetricsReport, baseline: MetricsReport | None
) -> list[tuple[str, str, str, str, str, str, str]]:
    rows = []
    for key in METRIC_KEYS:
        value = report.metrics.get(key)
        if value is None:
            continue
        delta = ""
        if baseline is not None:
            base_value = baseline.metrics.get(key)
            if base_value is not None:
                delta = repr(float(value) - float(base_value))
        rows.append(
            (report.run_id, report.method, repr(float(report.lam)), str(report.seed), key,
             _format_value(value), delta)
        )
    return rows


def cmd_ablate(cfg: RunConfig, lambdas: Sequence[float]) -> str:
    """Run the auxiliary-weight sweep and write one consolidated CSV.

    Every lambda shares the seed and corpus, which is read and prepared once;
    each lam_* directory is byte-identical to a standalone train run of the
    same config.  Deltas are taken against the lambda = 0 run.  A failed run
    is recorded and the sweep continues.
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
    data = load_run_data(subs[0])
    os.makedirs(cfg.out, exist_ok=True)

    reports: dict[float, MetricsReport] = {}
    failures: list[dict] = []
    for lam, sub in zip(lambdas, subs):
        try:
            reports[lam] = cmd_train(sub, data)
        except (DivergenceError, EmptyBatchError) as exc:
            failures.append({"lambda": lam, "error": str(exc)})
            print(f"warning: lambda={lam:g} failed: {exc}", file=sys.stderr)
    if failures:
        _write_json(os.path.join(cfg.out, "failures.json"), {"failures": failures})
    baseline = reports.get(0.0)
    if baseline is None:
        raise DivergenceError("baseline run (lambda = 0) failed; no deltas possible")

    lines = [CSV_HEADER]
    for lam in lambdas:
        report = reports.get(lam)
        if report is None:
            continue
        report.baseline_run_id = baseline.run_id
        for row in metric_rows(report, baseline):
            lines.append(",".join(row))
    csv_path = os.path.join(cfg.out, "ablation.csv")
    with atomic_write(csv_path) as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    print(f"ablation over lambdas {[f'{l:g}' for l in lambdas]} -> {csv_path}")
    print(f"deltas are against baseline run {baseline.run_id}")
    return csv_path


def cmd_trace(checkpoint_path: str, corpus_path: str, limit: int, out: str | None) -> list[dict]:
    """Dump per-token gate decisions of a checkpointed model over a corpus slice."""
    ck = load_checkpoint(checkpoint_path)
    examples = read_jsonl(corpus_path)[: limit if limit > 0 else None]
    if not examples:
        raise ConfigError("corpus slice is empty")
    risk_mode = ck.config.get("risk_propagation", RISK_ONEHOP)
    epsilon = float(ck.config.get("epsilon", DEFAULT_EPSILON))
    prepared = prepare_examples(examples, ck.params.window, ck.params.vocab_size, risk_mode=risk_mode)

    rows = []
    for i, prep in enumerate(prepared):
        logits, _ = model_mod.forward_batch(ck.params, prep.windows)
        _, _, trace = comp_loss(logits, prep.labels, prep.signals, epsilon)
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
    reports = []
    for run_dir in run_dirs:
        path = os.path.join(run_dir, "metrics.json")
        with open(path, encoding="utf-8") as fh:
            reports.append(MetricsReport.from_dict(json.load(fh)))
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

    lines = [CSV_HEADER]
    for report in reports:
        report.baseline_run_id = baseline.run_id
        for row in metric_rows(report, baseline):
            lines.append(",".join(row))
    print(f"baseline: {baseline.run_id} (method={baseline.method}, lambda={baseline.lam:g}, "
          f"seed={baseline.seed})")
    for line in lines:
        print(line)
    if out:
        with atomic_write(out) as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    return lines


# ---------------------------------------------------------------------------
# CLI plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # bad flags are config errors, not exit 2
        raise ConfigError(message)


def _load_overlaid(args: argparse.Namespace, extra: dict[str, str] | None = None) -> dict[str, str]:
    raw = parse_config_file(args.config) if args.config else {}
    if extra:
        raw.update(extra)
    for key in ("seed", "lam", "method", "out", "corpus"):
        value = getattr(args, key, None)
        if value is not None:
            raw[{"lam": "lambda"}.get(key, key)] = str(value)
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
    t.add_argument("--lambda", dest="lam", type=float, help="override the auxiliary weight")
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
    cfg = config_from_dict(RunConfig, _load_overlaid(args))
    cmd_train(cfg)


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
        args.func(args)
    except (ConfigError, EmptyBatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusFormatError, AnnotationError, CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
