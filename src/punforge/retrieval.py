"""Inverted index and seed-sentence retrieval.

Postings are keyed by exact surface form so a rare word stays retrievable
even when the vocabulary has collapsed it to the unknown id.  Each posting
is (sentence id, positions ascending); postings lists are in corpus order.
``build_index`` makes them a ``corpus.PostingsView`` of the sentences'
arrays, the view a loaded corpus also has, which builds a term's list on
its first lookup.

A seed for an alternative word is a sentence that contains the word exactly
once and has an acceptable length.  Candidates are gathered in corpus order
up to ``pool``, ranked (latest slot first, shorter sentence first, then
sentence id), and the top ``keep`` are returned.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from .corpus import Postings, PostingsView, Sentence, as_sentences

DEFAULT_POOL = 500
DEFAULT_KEEP = 100
MIN_SEED_LEN = 4
MAX_SEED_LEN = 40


@dataclass
class SeedCandidate:
    sent_id: int
    position: int  # the single occurrence of the alternative word
    length: int
    rank: int


def check_pool_keep(pool: int, keep: int) -> None:
    """Raise ValueError unless both seed limits are in [1, sys.maxsize]."""
    if not (1 <= pool <= sys.maxsize and 1 <= keep <= sys.maxsize):
        raise ValueError(f"pool and keep must be in [1, {sys.maxsize}], "
                         f"got pool={pool}, keep={keep}")


class InvertedIndex:
    def __init__(self, postings: Postings, lengths: dict[int, int]):
        self.postings = postings
        self.lengths = lengths

    def lookup(self, term: str) -> list[tuple[int, tuple[int, ...]]]:
        return self.postings.get(term, [])


def build_index(sentences: Sequence[Sentence]) -> InvertedIndex:
    view = as_sentences(sentences)
    return InvertedIndex(PostingsView(view), view.lengths_by_id())


def retrieve_seeds(index: InvertedIndex, alt_word: str, pool: int = DEFAULT_POOL,
                   keep: int = DEFAULT_KEEP) -> list[SeedCandidate]:
    """Ranked seed sentences for one alternative word.

    Ranking key: slot position relative to length descending, then length
    ascending, then sentence id ascending.  Deterministic for a fixed index.
    """
    check_pool_keep(pool, keep)
    gathered: list[tuple[int, int, int]] = []  # (sent_id, position, length)
    for sent_id, positions in index.lookup(alt_word):
        if len(positions) != 1:
            continue
        length = index.lengths[sent_id]
        if not MIN_SEED_LEN <= length <= MAX_SEED_LEN:
            continue
        gathered.append((sent_id, positions[0], length))
        if len(gathered) >= pool:
            break

    gathered.sort(key=lambda e: (-e[1] / e[2], e[2], e[0]))
    return [
        SeedCandidate(sent_id=s, position=p, length=n, rank=rank)
        for rank, (s, p, n) in enumerate(gathered[:keep])
    ]
