"""Run one prism CLI command in-process with a span recorded around each layer call.

    python3 perfbench/tracer.py SPANS_JSON <prism command and flags...>

Each traced function is replaced by a wrapper at the module attribute its
caller looks it up through (``train`` calls ``prism.model.total_loss``,
``total_loss`` calls ``prism.objective.comp_loss``, and so on), so the
program itself is untouched and computes the same bits.  A span is
``[name, start, end, parent_index, rows]`` with ``perf_counter`` times;
``rows`` is the batch length for ``forward_batch`` and ``None`` elsewhere.
Spans stay in memory and are written to SPANS_JSON when the command ends.
The exit code is the command's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import prism.harness
import prism.model
import prism.objective

# (module, attribute, span name): the lookup sites whose calls the per-layer metrics time.
WRAPPED = (
    (prism.harness, "cmd_ablate", "harness.cmd_ablate"),
    (prism.harness, "cmd_train", "harness.cmd_train"),
    (prism.harness, "cmd_trace", "harness.cmd_trace"),
    (prism.harness, "generate", "corpus.generate"),
    (prism.harness, "chunk", "corpus.chunk"),
    (prism.harness, "verify_and_filter", "corpus.verify_and_filter"),
    (prism.harness, "write_jsonl", "corpus.write_jsonl"),
    (prism.harness, "read_jsonl", "corpus.read_jsonl"),
    (prism.harness, "train", "model.train"),
    (prism.harness, "evaluate", "model.evaluate"),
    (prism.harness, "prepare_examples", "model.prepare_examples"),
    (prism.harness, "save_checkpoint", "model.save_checkpoint"),
    (prism.harness, "load_checkpoint", "model.load_checkpoint"),
    (prism.model, "prepare_examples", "model.prepare_examples"),
    (prism.model, "propagate_risk", "fact_graph.propagate_risk"),
    (prism.model, "derive_token_signals", "fact_graph.derive_token_signals"),
    (prism.model, "forward_batch", "model.forward_batch"),
    (prism.model, "backward_batch", "model.backward_batch"),
    (prism.model, "optimizer_step", "model.optimizer_step"),
    (prism.model, "total_loss", "objective.total_loss"),
    (prism.model, "sft_loss", "objective.sft_loss"),
    (prism.model, "softmax_probs", "objective.softmax_probs"),
    (prism.objective, "sft_loss", "objective.sft_loss"),
    (prism.objective, "comp_loss", "objective.comp_loss"),
)


class Tracer:
    """Collects spans; the open-span stack gives each new span its parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            rows = len(args[1]) if name == "model.forward_batch" else None
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent, rows])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()

        return traced


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    for module, attr, name in WRAPPED:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    code = prism.harness.main(command)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
