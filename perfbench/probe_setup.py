"""Pay prism's per-run set-up once, in a cold process, then exit.

    python3 perfbench/probe_setup.py CORPUS EVAL_FRACTION WINDOW VOCAB_SIZE RISK_MODE

Imports prism, reads the corpus and prepares the training split the way
``prism train`` does before its first step.  VOCAB_SIZE 0 infers it from the
corpus.  The caller times the whole process.
"""

from __future__ import annotations

import sys

from prism.corpus import read_jsonl
from prism.model import infer_vocab_size, prepare_examples


def main(argv: list[str]) -> int:
    corpus, eval_fraction, window, vocab, risk_mode = argv
    examples = read_jsonl(corpus)
    n_eval = int(round(float(eval_fraction) * len(examples)))
    train_split = examples[: len(examples) - n_eval]
    vocab_size = int(vocab) or infer_vocab_size(examples)
    prepared = prepare_examples(train_split, int(window), vocab_size, risk_mode=risk_mode)
    return 0 if len(prepared) == len(train_split) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
