"""Inverted index and seed-sentence retrieval.

Postings are keyed by exact surface form so a rare word stays retrievable
even when the vocabulary has collapsed it to the unknown id.  Each posting
is (sentence id, positions ascending); postings lists are in sentence-id
order because sentences are scanned in order.

A seed for an alternative word is a sentence that contains the word exactly
once and has an acceptable length.  Candidates are gathered in corpus order
up to ``pool``, ranked (latest slot first, shorter sentence first, then
sentence id), and the top ``keep`` are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import Postings, Sentence

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
    """Raise ValueError unless both seed limits are positive."""
    if pool < 1 or keep < 1:
        raise ValueError(f"pool and keep must be >= 1, got pool={pool}, keep={keep}")


class InvertedIndex:
    def __init__(self, postings: Postings, lengths: dict[int, int]):
        self.postings = postings
        self.lengths = lengths

    def lookup(self, term: str) -> list[tuple[int, tuple[int, ...]]]:
        return self.postings.get(term, [])

    def __contains__(self, term: str) -> bool:
        return term in self.postings


def build_index(sentences: Sequence[Sentence]) -> InvertedIndex:
    postings: Postings = {}
    lengths: dict[int, int] = {}
    for sentence in sentences:
        lengths[sentence.sent_id] = len(sentence.tokens)
        seen: dict[str, list[int]] = {}
        for position, token in enumerate(sentence.tokens):
            seen.setdefault(token.surface, []).append(position)
        for surface, positions in seen.items():
            postings.setdefault(surface, []).append(
                (sentence.sent_id, tuple(positions))
            )
    return InvertedIndex(postings, lengths)


def retrieve_seeds(index: InvertedIndex, alt_word: str,
                   pool: int = DEFAULT_POOL, keep: int = DEFAULT_KEEP,
                   min_len: int = MIN_SEED_LEN, max_len: int = MAX_SEED_LEN,
                   relative: bool = True) -> list[SeedCandidate]:
    """Ranked seed sentences for one alternative word.

    Ranking key: slot position descending (relative to length by default,
    absolute with ``relative=False``), then length ascending, then sentence
    id ascending.  Deterministic for a fixed index.
    """
    check_pool_keep(pool, keep)
    gathered: list[tuple[int, int, int]] = []  # (sent_id, position, length)
    for sent_id, positions in index.lookup(alt_word):
        if len(positions) != 1:
            continue
        length = index.lengths[sent_id]
        if not min_len <= length <= max_len:
            continue
        gathered.append((sent_id, positions[0], length))
        if len(gathered) >= pool:
            break

    def sort_key(entry: tuple[int, int, int]) -> tuple[float, int, int]:
        sent_id, position, length = entry
        slot = position / length if relative else float(position)
        return (-slot, length, sent_id)

    gathered.sort(key=sort_key)
    return [
        SeedCandidate(sent_id=s, position=p, length=n, rank=rank)
        for rank, (s, p, n) in enumerate(gathered[:keep])
    ]
