"""Deterministic synthetic corpus for demos and end-to-end tests.

About two thousand template sentences built around one worked pun pair,
hare/hair:

* seed family: "the <noun> got a hair cut <tail> ." puts the alternative
  word late in a short sentence with a noun three slots ahead of it;
* distant family: greyhound and hare co-occur only at distances 5..10, the
  skip-gram band, so the embedding model learns the association;
* bridge family: "the greyhound got a hare <treat|snack> ..." teaches the
  n-gram model that a hare continuation is normal right after a greyhound
  context, which is what separates whole-sentence surprisal from the local
  window once a topic word lands three slots before the pun;
* filler: generic sentences that give every other word its statistics.

The sentence list is fixed: templates are expanded in a fixed order and
shuffled once with a fixed seed.  Pair it with the dictionary fixture under
``punforge/data/miniwn`` for tagging and type checks.

Run ``python -m punforge.demo_corpus OUT.txt`` to write the raw text.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from . import binio

DEMO_PAIR = ("hare", "hair")
DEMO_TOPIC = "greyhound"

_SEED_NOUNS = ["man", "woman", "boy", "girl", "dog", "person"]
_TAILS = ["today", "yesterday", "downtown", "again"]


def _seed_family() -> list[str]:
    return [
        f"the {noun} got a hair cut {tail} ."
        for noun in _SEED_NOUNS
        for tail in _TAILS
        for _ in range(12)
    ]


def _bridge_family() -> list[str]:
    return [
        f"the greyhound got a hare {gift} {tail} ."
        for gift in ("treat", "snack")
        for tail in _TAILS
        for _ in range(18)
    ]


def _distant_family() -> list[str]:
    # greyhound..hare distances here are 7, 7, 8 and 5: inside the band
    templates = [
        "the greyhound ran across the field after the hare .",
        "the greyhound raced over the hill chasing the hare .",
        "the greyhound sped along the track to catch the hare .",
        "the hare escaped and later the greyhound circled the wide field .",
    ]
    return [t for t in templates for _ in range(60)]


def _filler_family() -> list[str]:
    out: list[str] = []
    out += [f"the boy got a new book {tail} ." for tail in _TAILS for _ in range(25)]
    out += [
        f"the {noun} walked to the {place} {tail} ."
        for noun in ["man", "woman", "boy", "girl", "dog"]
        for place in ["shop", "market", "park"]
        for tail in _TAILS
        for _ in range(8)
    ]
    out += [
        f"she saw a {size} bird near the {place} ."
        for size in ["small", "green"]
        for place in ["field", "park", "market"]
        for _ in range(40)
    ]
    out += [f"we went home after the game {tail} ." for tail in _TAILS for _ in range(30)]
    for line in [
        "the barber trimmed the beard with care .",
        "a quiet person reads books at home .",
        "they played in the park all day .",
        "the dog slept near the door .",
        "i like to walk in the morning .",
        "everyone enjoyed the show last night .",
    ]:
        out += [line] * 60
    return out


def build_demo_corpus() -> list[str]:
    """The full sentence list, one sentence per entry, fixed order."""
    sentences = (
        _seed_family() + _bridge_family() + _distant_family() + _filler_family()
    )
    random.Random(7).shuffle(sentences)
    return sentences


def write_demo_corpus(path: str | Path) -> int:
    sentences = build_demo_corpus()
    with binio.replace_file(path, encoding="utf-8") as fh:
        fh.write("\n".join(sentences) + "\n")
    return len(sentences)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python -m punforge.demo_corpus OUT.txt")
    n = write_demo_corpus(sys.argv[1])
    print(f"wrote {n} sentences to {sys.argv[1]}")
