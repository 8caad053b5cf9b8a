"""Interpolated modified Kneser-Ney n-gram language model.

The model is count-based and fully deterministic.  Conventions:

* Training pads every sentence with ``order - 1`` begin markers and one end
  marker; begin markers are context only and are never predicted, the end
  marker is an ordinary prediction target.  The event space is therefore the
  vocabulary (unknown symbol included) plus the end marker.
* The highest order uses raw counts; every lower order uses continuation
  counts (number of distinct one-token left extensions), the standard
  interpolated construction.  Queries with a context shorter than
  ``order - 1`` are answered by the matching lower-order distribution.
* Three discounts per order (for counts of 1, 2, and 3+) are estimated from
  that order's count-of-counts.  When the count-of-counts are degenerate
  (any of n1..n4 is zero, or the estimate leaves its valid range) the order
  falls back to a single fixed discount of 0.75.
* The recursion grounds in a uniform distribution over the event space, so
  no token, unknown included, ever has zero probability, and for every
  context the probabilities over the event space sum to one.

``unigram_logprob`` is deliberately not the Kneser-Ney unigram: it is a plain
relative-frequency estimate with add-one smoothing, used as the independence
baseline when measuring how atypical a whole sentence is.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from . import binio
from .corpus import Sentence, Vocabulary, read_vocab, write_vocab
from .errors import FormatError, TrainingError

LM_MAGIC = b"PGL2"

MIN_ORDER = 2
MAX_ORDER = 6
DEFAULT_ORDER = 4
FALLBACK_DISCOUNT = 0.75


def check_order(order: int) -> None:
    """Raise ValueError unless ``order`` is a supported n-gram order."""
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {order}")


def estimate_discounts(counts: Iterable[int]) -> tuple[float, float, float]:
    """Discounts (D1, D2, D3+) for one order from its count-of-counts."""
    n1 = n2 = n3 = n4 = 0
    for c in counts:
        if c == 1:
            n1 += 1
        elif c == 2:
            n2 += 1
        elif c == 3:
            n3 += 1
        elif c == 4:
            n4 += 1
    fallback = (FALLBACK_DISCOUNT,) * 3
    if n1 == 0 or n2 == 0 or n3 == 0 or n4 == 0:
        return fallback
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    if not (0.0 < d1 <= 1.0 and 0.0 < d2 <= 2.0 and 0.0 < d3 <= 3.0):
        return fallback
    return d1, d2, d3


@dataclass
class _ContextEntry:
    words: dict[int, int]
    total: int
    gamma_num: float  # total discount mass removed, the backoff numerator


class NGramModel:
    """Kneser-Ney model over token ids; see the module docstring for rules."""

    def __init__(self, order: int, vocab: Vocabulary,
                 top_counts: dict[tuple[int, ...], dict[int, int]]):
        check_order(order)
        self.order = order
        self.vocab = vocab
        self.bos_id = len(vocab)
        self.eos_id = len(vocab) + 1
        self.n_events = len(vocab) + 1  # vocabulary plus the end marker
        self._top_counts = top_counts
        self._build_tables()
        n = vocab.total_count
        v = len(vocab)
        self._uni_denom = math.log(n + v)
        self._uni_counts = [vocab.count_of_id(i) for i in range(v)]

    def _build_tables(self) -> None:
        counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            self._top_counts
        ]
        # Continuation counts: distinct left extensions, derived level by level.
        for _ in range(self.order - 1):
            higher = counts[-1]
            lower: dict[tuple[int, ...], dict[int, int]] = defaultdict(dict)
            for ctx, words in higher.items():
                shortened = ctx[1:]
                row = lower[shortened]
                for w in words:
                    row[w] = row.get(w, 0) + 1
            counts.append(dict(lower))
        counts.reverse()  # counts[k - 1] is the order-k table

        self.discounts: list[tuple[float, float, float]] = []
        self._levels: list[dict[tuple[int, ...], _ContextEntry]] = []
        for table in counts:
            d1, d2, d3 = estimate_discounts(
                c for words in table.values() for c in words.values()
            )
            self.discounts.append((d1, d2, d3))
            level: dict[tuple[int, ...], _ContextEntry] = {}
            for ctx, words in table.items():
                total = sum(words.values())
                gamma = 0.0
                for c in words.values():
                    gamma += d1 if c == 1 else d2 if c == 2 else d3
                level[ctx] = _ContextEntry(words, total, gamma)
            self._levels.append(level)

    def _discount(self, level: int, count: int) -> float:
        d1, d2, d3 = self.discounts[level - 1]
        return d1 if count == 1 else d2 if count == 2 else d3

    def prob(self, word_id: int, context: Sequence[int]) -> float:
        """p(word | context); context may be any length and is right-trimmed."""
        if not (0 <= word_id < len(self.vocab) or word_id == self.eos_id):
            raise ValueError(f"word id {word_id} outside the event space")
        ctx = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
        return self._p(len(ctx) + 1, ctx, word_id)

    def _p(self, level: int, ctx: tuple[int, ...], w: int) -> float:
        if level == 0:
            return 1.0 / self.n_events
        entry = self._levels[level - 1].get(ctx)
        if entry is None:
            return self._p(level - 1, ctx[1:], w)
        c = entry.words.get(w, 0)
        kept = (c - self._discount(level, c)) / entry.total if c else 0.0
        return kept + entry.gamma_num / entry.total * self._p(level - 1, ctx[1:], w)

    def logprob_seq(self, token_ids: Sequence[int], use_boundary_markers: bool) -> float:
        """Sum of ln p(x_i | preceding context) over the sequence.

        With markers the sequence is padded so every position has a full
        context and the end marker is scored; without markers the context is
        clipped at the sequence start and nothing is added at either end.
        """
        for t in token_ids:
            if not 0 <= t < len(self.vocab):
                raise ValueError(f"token id {t} outside the vocabulary")
        total = 0.0
        if use_boundary_markers:
            seq = [self.bos_id] * (self.order - 1) + list(token_ids) + [self.eos_id]
            for i in range(self.order - 1, len(seq)):
                total += math.log(self._p(self.order, tuple(seq[i - self.order + 1:i]), seq[i]))
        else:
            seq = list(token_ids)
            for i in range(len(seq)):
                ctx = tuple(seq[max(0, i - self.order + 1):i])
                total += math.log(self._p(len(ctx) + 1, ctx, seq[i]))
        return total

    def unigram_logprob(self, word_id: int) -> float:
        """Add-one smoothed relative-frequency log probability."""
        if not 0 <= word_id < len(self.vocab):
            raise ValueError(f"word id {word_id} outside the vocabulary")
        return math.log(self._uni_counts[word_id] + 1) - self._uni_denom

    # --- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the counts as sorted n-gram rows and their counts, built as
        arrays (not a tuple per n-gram) to need little memory beyond the model."""
        top, contexts = self._top_counts, sorted(self._top_counts)
        sizes = [len(top[ctx]) for ctx in contexts]
        targets = np.fromiter(
            chain.from_iterable(sorted(top[ctx].items()) for ctx in contexts),
            dtype=[("w", "<u4"), ("c", "<u8")], count=sum(sizes))
        ctx_ids = np.array(contexts, dtype=np.uint32).reshape(-1, self.order - 1)
        grams = np.column_stack([np.repeat(ctx_ids, sizes, axis=0), targets["w"]])
        with open(path, "wb") as fh:
            fh.write(LM_MAGIC)
            binio.pack(fh, "<B", self.order)
            write_vocab(fh, self.vocab)
            binio.write_array(fh, grams, "<u4")
            binio.write_array(fh, targets["c"], "<u8")

    @classmethod
    def load(cls, path: str | Path,
             expected_vocab_hash: bytes | None = None) -> "NGramModel":
        with open(path, "rb") as fh:
            binio.check_magic(fh, LM_MAGIC, "language model")
            (order,) = binio.unpack(fh, "<B")
            vocab = read_vocab(fh, what="language model",
                               expected_hash=expected_vocab_hash)
            top = _read_top_counts(fh, order, bos=len(vocab))
        return cls(order, vocab, top)


def _read_top_counts(fh: BinaryIO, order: int, bos: int) -> dict[tuple, dict]:
    """Read and check the count blocks; a function of its own so that the
    arrays are freed before the model builds its tables (peak memory)."""
    grams, counts = binio.read_array(fh, "<u4"), binio.read_array(fh, "<u8")
    try:  # an order out of range, or not one row of ids per count
        check_order(order)
        grams = grams.reshape(len(counts), order)
    except ValueError as exc:
        raise FormatError(f"corrupt language model {fh.name}: {exc}") from None
    ctx, words = grams[:, :-1], grams[:, -1]
    if not ((ctx <= bos).all() and (words <= bos + 1).all()
            and (words != bos).all() and (counts >= 1).all()
            and (np.lexsort(grams.T[::-1]) == np.arange(len(grams))).all()
            and (grams[1:] != grams[:-1]).any(axis=1).all()):
        raise FormatError(f"corrupt language model {fh.name}: n-gram ids outside "
                          f"the event space, unsorted, repeated or zero counts")
    top: dict[tuple, dict] = {}
    for key, w, c in zip(zip(*ctx.T.tolist()), words.tolist(), counts.tolist()):
        top.setdefault(key, {})[w] = c
    return top


def train_lm(sentences: Sequence[Sentence] | Sequence[Sequence[int]],
             vocab: Vocabulary, order: int = DEFAULT_ORDER) -> NGramModel:
    """Count n-grams over marker-padded sentences and build the model."""
    check_order(order)
    encoded = vocab.encode_sentences(sentences)
    n_tokens = sum(len(s) for s in encoded)
    if n_tokens < order:
        raise TrainingError(
            f"corpus has {n_tokens} tokens, fewer than the model order {order}"
        )
    bos = len(vocab)
    eos = len(vocab) + 1
    top: dict[tuple[int, ...], dict[int, int]] = defaultdict(Counter)
    for ids in encoded:
        if not ids:
            continue
        padded = [bos] * (order - 1) + ids + [eos]
        for i in range(order - 1, len(padded)):
            top[tuple(padded[i - order + 1:i])][padded[i]] += 1
    plain = {ctx: dict(words) for ctx, words in top.items()}
    return NGramModel(order, vocab, plain)
