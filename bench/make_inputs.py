"""Write a benchmark corpus in its own process, so building it is never measured.

Usage: ``python3 bench/make_inputs.py --goals N --seed S --contexts shared|unique
--out corpus.json`` with subtod importable (``PYTHONPATH=src``).

``shared`` is plain ``subtod.synthetic.build_world``: its templated dialogs
repeat contexts across goals, so many generation requests are exact
duplicates. ``unique`` is the same world with a per-dialog reference appended
to each dialog's first user utterance, so no two dialogs share a context and
almost every request is distinct.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys


def unique_contexts(corpus):
    def tagged(dialog):
        first = dialog.turns[0]
        first = dataclasses.replace(first, user=f"{first.user} my booking reference is {dialog.id}.")
        return dataclasses.replace(dialog, turns=(first,) + dialog.turns[1:])

    return dataclasses.replace(
        corpus,
        dialogs=tuple(tagged(d) for d in corpus.dialogs),
        dev_dialogs=tuple(tagged(d) for d in corpus.dev_dialogs),
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--goals", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--contexts", choices=("shared", "unique"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from subtod.corpus import save_corpus
    from subtod.synthetic import build_world

    corpus = build_world(args.goals, seed=args.seed)
    if args.contexts == "unique":
        corpus = unique_contexts(corpus)
    save_corpus(corpus, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
