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

Training evaluates the recursion once, into one table per order (the
ARPA/KenLM layout of Heafield 2011): the final probability
``kept + γ/total · p_lower`` of every stored (context, word) pair and the
backoff weight ``γ/total`` of every stored context, whose numerator γ adds
its words' discounts left to right in sorted word order.

Every n-gram has one key, the context encoding of Pauls & Klein 2011: an
order-k n-gram's key is its context's row in order k - 1 times the radix
(the end marker's id plus one), plus its word.  Each order numbers its
rows in sorted order.  The run of k - 1 begin markers is never predicted,
so it is never a stored row: it takes the number one past order k - 1's
last row, which is where it sorts (row 0, the empty context, at order 0).
Rows and the radix are below 2 ** 32, so every key is one uint64 at every
width, and the keys sort as the n-grams' ids do.  Training counts bottom-up
with one sort per order: order k's key at a token is order k - 1's row at
the token before it times the radix plus the token, and a row's suffix row
(its n-gram without the oldest id) is order k - 1's row at the same token.

A file keeps each order's backoff weights, one per distinct context in key
order, its sorted keys and their probabilities.  Queries read, per order, a
dict from key to row and flat columns: each row's probability, each order
k - 1 row's backoff weight as a context (1.0 where it is none, and
multiplying by 1.0 is exact) and each row's suffix row, which one
``searchsorted`` per order derives.  Building them checks that order's
tables.  A trained model builds them at its first query and saves its
tables; a loaded one builds them as each order is read and is not saved
again.  A walk carries one state from one token to the next, as KenLM's
does: the row of the longest stored n-gram found, trimmed to ``order - 1``
ids, and its length.  Each shorter context is a suffix row away, so each
step starts at the longest context that can be stored, and the weights it
meets multiply in innermost first, so the floats equal the recursion's bit
for bit.

``logprob_pair`` scores two sequences that differ in one slot, as the
surprisal measures do, in one shared walk: the prefix before the slot is
walked once, the two sequences walk apart from the slot until their carried
states agree (at most ``order - 1`` tokens past it), and the rest is
walked once for both.  Each total adds its tokens' log-probabilities left
to right, so both equal their own ``logprob_seq`` bit for bit.

``unigram_logprob`` is deliberately not the Kneser-Ney unigram: it is a plain
relative-frequency estimate with add-one smoothing, used as the independence
baseline when measuring how atypical a whole sentence is.
"""

from __future__ import annotations

import logging
import math
from array import array
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import binio
from .corpus import Sentence, Vocabulary, encode_corpus, read_vocab, write_vocab
from .errors import TrainingError

log = logging.getLogger(__name__)

LM_MAGIC = b"PGL9"

MIN_ORDER = 2
MAX_ORDER = 6
DEFAULT_ORDER = 4
FALLBACK_DISCOUNT = 0.75

# One order's tables: the backoff weights of its contexts, then its sorted
# n-gram keys (see the module docstring) with their probabilities.  The
# contexts are the distinct keys' contexts, in key order.
Tables = tuple[np.ndarray, np.ndarray, np.ndarray]
_BLOCKS = ("<f8", "<u8", "<f8")  # how a file stores each of them


class _Index(NamedTuple):
    """The query columns, one per order, lowest first."""

    grams: list[dict[int, int]]  # an n-gram's key to its row
    probs: list[array]  # a row's probability
    backoff: list[array]  # an order k - 1 row's backoff weight as a context
    suffix: list[array]  # a row's suffix row; the begin-marker row's last


def check_order(order: int) -> None:
    """Raise ValueError unless ``order`` is a supported n-gram order."""
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {order}")


def estimate_discounts(counts: Sequence[int] | np.ndarray) -> tuple[float, float, float]:
    """Discounts (D1, D2, D3+) for one order from its count-of-counts."""
    clipped = np.minimum(np.asarray(counts, dtype=np.int64), 5)
    n1, n2, n3, n4 = np.bincount(clipped, minlength=6)[1:5].tolist()
    fallback = (FALLBACK_DISCOUNT,) * 3
    if n1 == 0 or n2 == 0 or n3 == 0 or n4 == 0:
        return fallback
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    in_range = 0.0 < d1 <= 1.0 and 0.0 < d2 <= 2.0 and 0.0 < d3 <= 3.0
    return (d1, d2, d3) if in_range else fallback


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal consecutive values starts, and the run each
    value is in."""
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    return np.flatnonzero(new), np.cumsum(new) - 1


class NGramModel:
    """Kneser-Ney model over token ids; see the module docstring for rules.

    ``tables`` holds one :data:`Tables` per order, lowest first, as
    :func:`train_lm` builds them and ``.pglm`` files store them, and
    :meth:`save` writes them; tables that break a rule raise ValueError
    where the query columns are built: at :meth:`load` or the first query.
    ``unigram_logprobs`` lists :meth:`unigram_logprob` by id; it is read,
    never written.
    """

    def __init__(self, order: int, vocab: Vocabulary, tables: Iterable[Tables]):
        check_order(order)
        self.order = order
        self.vocab = vocab
        self.bos_id = len(vocab)
        self.eos_id = len(vocab) + 1
        self.n_events = len(vocab) + 1  # vocabulary plus the end marker
        self._uniform = 1.0 / self.n_events
        self._radix = self.eos_id + 1  # every id is below it
        self._stored: Iterable[Tables] | None = tables

    @cached_property
    def unigram_logprobs(self) -> list[float]:
        """:meth:`unigram_logprob` of every id, built on first read."""
        denom = math.log(self.vocab.total_count + len(self.vocab))
        return [math.log(c + 1) - denom for c in self.vocab.counts]

    @cached_property
    def _index(self) -> _Index:
        """Every order's query columns, lowest first, each order checked as
        it is built; a load reads each order's arrays as it comes to them
        and keeps none of them past the next order."""
        index = _Index([], [], [], [])
        lower = np.zeros(0, dtype=np.uint64), None  # order 0 stores no row
        for k, table in enumerate(self._stored, start=1):
            _, keys, probs = table
            weights, suffix = self._checked_columns(k, table, *lower)
            index.grams.append(dict(zip(keys.tolist(), range(len(keys)))))
            for column, typecode, values in ((index.probs, "d", probs),
                                             (index.backoff, "d", weights),
                                             (index.suffix, "I", suffix)):
                column.append(array(typecode))
                column[-1].frombytes(np.ascontiguousarray(values, dtype=typecode).view(np.uint8))
            lower = keys, suffix  # what order k + 1 is checked against
        return index

    def _checked_columns(self, k: int, table: Tables, lower_keys: np.ndarray,
                         lower_suffix: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """The backoff weight of each order k - 1 row as a context, 1.0 where
        it is none, and each order-k row's suffix row, the begin-marker
        row's last; raise ValueError naming the first rule the tables of
        order ``k`` break, given order k - 1's keys and suffix rows."""
        backoff, keys, probs = table
        marker_row = len(lower_keys)  # of k - 1 begin markers, in order k - 1
        contexts, words = np.divmod(keys, np.uint64(self._radix))
        problem = (
            "block lengths disagree" if len(keys) != len(probs)
            else "a probability outside (0, 1]"
            if not ((probs > 0.0) & (probs <= 1.0)).all()
            else "a backoff weight outside (0, 1]"  # γ <= total, as D(c) <= c
            if not ((backoff > 0.0) & (backoff <= 1.0)).all()
            else "keys do not strictly increase" if not (keys[1:] > keys[:-1]).all()
            else f"a context row past order {k - 1}'s begin-marker row {marker_row}"
            if (contexts > marker_row).any()
            else "a word outside the event space"  # no other non-word is below the radix
            if (words == self.bos_id).any()
            else None
        )
        if problem:
            raise ValueError(f"order {k}: {problem}")
        # the begin-marker row's suffix; at order 1 every row's, the empty context
        suffix = np.full(len(keys) + 1, marker_row, dtype=np.uint64)
        if k > 1:  # the suffix of (context, word) is (the context's suffix, word)
            wanted = lower_suffix[contexts] * self._radix + words
            rows = suffix[:-1]
            rows[:] = np.searchsorted(lower_keys, wanted)
            if (rows >= marker_row).any() or (lower_keys[rows] != wanted).any():
                raise ValueError(f"order {k}: a row whose suffix is not stored")
        starts, _ = _runs(contexts)
        if len(starts) != len(backoff):
            raise ValueError(f"order {k}: {len(backoff)} backoff weights "
                             f"for {len(starts)} contexts")
        weights = np.ones(marker_row + 1)
        weights[contexts[starts]] = backoff
        return weights, suffix

    def _marker_row(self, length: int) -> int:
        """The row of a run of ``length`` begin markers in order ``length``."""
        return len(self._index.probs[length - 1]) if length else 0

    @cached_property
    def _step(self) -> Callable[[int, int, int], tuple[float, int, int]]:
        """The walk's one step, ``(row, length, w) -> (p, row', length')``: p,
        not ln p, of id ``w`` after the context in ``row`` of order
        ``length`` (at most ``order - 1``), and the context carried on."""
        # read once into the closure: attribute reads on every step cost more
        grams, probs, backoff, suffix = self._index
        radix, uniform, longest = self._radix, self._uniform, self.order - 1

        def step(row: int, length: int, w: int) -> tuple[float, int, int]:
            r = grams[length].get(row * radix + w)
            # A context is a stored n-gram one order down or a run of begin
            # markers, so the next step starts at the longest n-gram found.
            if r is not None:
                if length == longest:  # drop the oldest id
                    return probs[length][r], suffix[length][r], length
                return probs[length][r], r, length + 1
            weights = [backoff[length][row]]
            for j in range(length - 1, -1, -1):  # the shorter suffixes, longest first
                row = suffix[j][row]
                r = grams[j].get(row * radix + w)
                if r is not None:
                    p = probs[j][r]
                    break
                weights.append(backoff[j][row])
            else:
                p, r, j = uniform, 0, -1
            for weight in reversed(weights):  # innermost first, as the recursion nests
                p = weight * p
            return p, r, j + 1

        return step

    def prob(self, word_id: int, context: Sequence[int]) -> float:
        """p(word | context); context may be any length and is right-trimmed."""
        if not (0 <= word_id < len(self.vocab) or word_id == self.eos_id):
            raise ValueError(f"word id {word_id} outside the event space")
        ctx, bos = context[-(self.order - 1):], self.bos_id
        start = len(ctx)  # of the words after the last marker or other non-word
        while start and 0 <= ctx[start - 1] < bos:
            start -= 1
        run = start
        while run and ctx[run - 1] == bos:
            run -= 1
        # A stored context holds begin markers only as a leading run, so
        # the walk starts at the row of the last run and steps through the
        # words after it; no stored context holds any other non-word.
        step = self._step
        row, length = self._marker_row(start - run), start - run
        for t in ctx[start:]:
            _, row, length = step(row, length, int(t))
        return step(row, length, int(word_id))[0]

    def _check_ids(self, token_ids: Sequence[int]) -> None:
        """Raise ValueError unless every id is a vocabulary id; the markers
        are not."""
        size = len(self.vocab)
        for t in token_ids:
            if not 0 <= t < size:
                raise ValueError(f"token id {t} outside the vocabulary")

    def _start(self, use_boundary_markers: bool) -> tuple[int, int]:
        """The state, (row, length), a sequence's walk starts from."""
        length = self.order - 1 if use_boundary_markers else 0
        return self._marker_row(length), length

    def logprob_seq(self, token_ids: Sequence[int], use_boundary_markers: bool) -> float:
        """Sum of ln p(x_i | preceding context) over the sequence.

        With markers the sequence is padded so every position has a full
        context and the end marker is scored; without markers the context is
        clipped at the sequence start and nothing is added at either end.
        """
        self._check_ids(token_ids)
        seq = map(int, token_ids)
        if use_boundary_markers:
            seq = chain(seq, (self.eos_id,))
        step = self._step
        row, length = self._start(use_boundary_markers)
        total = 0.0
        for w in seq:
            p, row, length = step(row, length, w)
            total += math.log(p)
        return total

    def logprob_pair(self, token_ids: Sequence[int], position: int, alt_id: int,
                     use_boundary_markers: bool) -> tuple[float, float]:
        """``logprob_seq`` of the sequence with ``alt_id`` at ``position``
        and of the sequence itself, in that order, each bit for bit.

        The two sequences share one walk up to the slot, walk apart from it
        until their carried contexts agree, and share one walk again from
        there: each total still adds its tokens' log-probabilities left to
        right, as ``logprob_seq`` does.
        """
        ids = list(map(int, token_ids))
        if not 0 <= position < len(ids):
            raise ValueError(f"position {position} outside a sequence of length {len(ids)}")
        self._check_ids(ids + [alt_id])
        tail = ids[position + 1:]
        if use_boundary_markers:
            tail.append(self.eos_id)
        step, log = self._step, math.log
        row, length = self._start(use_boundary_markers)
        pun = 0.0
        for w in ids[:position]:
            p, row, length = step(row, length, w)
            pun += log(p)
        alt_p, alt_row, alt_length = step(row, length, int(alt_id))
        p, row, length = step(row, length, ids[position])
        alt, pun = pun + log(alt_p), pun + log(p)
        rest = iter(tail)
        # Equal states mean equal contexts, so every later token has one
        # probability.
        if (alt_row, alt_length) != (row, length):
            for w in rest:
                alt_p, alt_row, alt_length = step(alt_row, alt_length, w)
                p, row, length = step(row, length, w)
                alt += log(alt_p)
                pun += log(p)
                if (alt_row, alt_length) == (row, length):
                    break
        for w in rest:
            p, row, length = step(row, length, w)
            logp = log(p)
            alt += logp
            pun += logp
        return alt, pun

    def unigram_logprob(self, word_id: int) -> float:
        """Add-one smoothed relative-frequency log probability."""
        if not 0 <= word_id < len(self.vocab):
            raise ValueError(f"word id {word_id} outside the vocabulary")
        return self.unigram_logprobs[word_id]

    # --- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the order and the vocabulary, then each order's :data:`Tables`
        as three array blocks, lowest first; a loaded model has none."""
        if self._stored is None:
            raise ValueError("a loaded language model is not saved again")
        with binio.writing(path, LM_MAGIC) as fh:
            binio.pack(fh, "<B", self.order)
            write_vocab(fh, self.vocab)
            for table in self._stored:  # weights, keys, probabilities
                for values, dtype in zip(table, _BLOCKS):
                    binio.write_array(fh, values, dtype)

    @classmethod
    def load(cls, path: str | Path,
             expected_vocab_hash: bytes | None = None) -> "NGramModel":
        with binio.reading(path, LM_MAGIC, "language model") as fh:
            (order,) = binio.unpack(fh, "<B")
            check_order(order)
            vocab = read_vocab(fh, what="language model",
                               expected_hash=expected_vocab_hash)
            # each order's blocks are read as its columns are built
            model = cls(order, vocab, (tuple(binio.read_array(fh, dtype) for dtype in _BLOCKS)
                                       for _ in range(order)))
            model._index  # check the tables and build the query columns now
        model._stored = None
        model.unigram_logprobs  # scoring reads it, so a load builds it too
        return model


def _kneser_ney_tables(ids: np.ndarray, order: int, n_events: int,
                       ) -> tuple[list[tuple[float, float, float]], list[Tables]]:
    """Every order's discounts and :data:`Tables` from the training ids,
    each sentence padded with ``order - 1`` begin markers (``n_events - 1``)
    before it and an end marker (``n_events``) after it.

    Each order is computed from the stored probabilities of the order below.
    The backoff numerator γ of a context adds its words' discounts left to
    right in sorted word order, as a loop over the stored rows would.
    """
    # Bottom up: each order's sorted distinct keys and their suffix rows,
    # from each token's row one order down.
    radix, bos = n_events + 1, n_events - 1
    targets = np.flatnonzero(ids != bos)
    tokens = ids[targets].astype(np.uint64)
    opens = ids[targets - 1] == bos  # the tokens after a run of begin markers
    rows = np.zeros(len(tokens), dtype=np.uint64)  # order 0's: the empty context
    levels = []
    for _ in range(order):
        before = np.roll(rows, 1)  # the rows at the tokens before
        before[opens] = len(levels[-1][0]) if levels else 0  # the begin-marker row
        keys = before * radix + tokens
        sort = np.argsort(keys)
        starts, group = _runs(keys[sort])
        firsts = sort[starts]
        levels.append((keys[firsts], rows[firsts]))
        rows[sort] = group
    top_counts = np.bincount(group)

    discounts: list[tuple[float, float, float]] = []
    tables: list[Tables] = []
    probs = None  # of the order below
    for k, (keys, suffix) in enumerate(levels, start=1):
        # below the top, continuation counts: the distinct n-grams one order
        # up that end in the row
        counts = (top_counts if k == order
                  else np.bincount(levels[k][1].astype(np.int64), minlength=len(keys)))
        d = estimate_discounts(counts)
        discounts.append(d)
        discount = np.array(d)[np.minimum(counts, 3) - 1]
        starts, ctx_of = _runs(keys // radix)
        # bincount adds each bin's weights in index order, not pairwise
        gamma = np.bincount(ctx_of, weights=discount, minlength=len(starts))
        total = np.add.reduceat(counts, starts)
        backoff = gamma / total
        kept = (counts - discount) / total[ctx_of]
        p_lower = 1.0 / n_events if k == 1 else probs[suffix]
        probs = kept + backoff[ctx_of] * p_lower
        tables.append((backoff, keys, probs))
    return discounts, tables


def train_lm(sentences: Sequence[Sentence] | Sequence[Sequence[int]],
             vocab: Vocabulary, order: int = DEFAULT_ORDER) -> NGramModel:
    """Count n-grams over marker-padded sentences and build the model.

    ``sentences`` are encoded by :func:`corpus.encode_corpus`: a corpus's
    sentences by surface, sequences of ids as they are."""
    check_order(order)
    ids, lengths = encode_corpus(sentences, vocab)
    n_tokens = len(ids)
    if n_tokens < order:
        raise TrainingError(
            f"corpus has {n_tokens} tokens, fewer than the model order {order}"
        )
    bos = len(vocab)
    eos = len(vocab) + 1
    if ids.min() < 0 or ids.max() >= bos:
        raise ValueError("a token id outside the vocabulary")
    # Each nonempty sentence becomes order - 1 begin markers, its ids and an
    # end marker, so sentence s's ids move s * order + order - 1 places on.
    lengths = lengths[lengths > 0]
    shift = np.arange(len(lengths)) * order + order - 1
    flat = np.full(n_tokens + len(lengths) * order, bos, dtype=np.int64)
    flat[np.arange(n_tokens) + np.repeat(shift, lengths)] = ids
    flat[np.cumsum(lengths) + shift] = eos
    discounts, tables = _kneser_ney_tables(flat, order, len(vocab) + 1)
    for k, ((d1, d2, d3), (backoff, _, probs)) in enumerate(zip(discounts, tables),
                                                          start=1):
        log.info("order %d discounts: D1 %.6g, D2 %.6g, D3+ %.6g", k, d1, d2, d3)
        log.info("order %d stores %d n-grams and %d contexts", k, len(probs), len(backoff))
    fell_back = [k for k, d in enumerate(discounts, start=1)
                 if d == (FALLBACK_DISCOUNT,) * 3]
    if fell_back:
        log.info("order%s %s fell back to the fixed discount %g "
                 "(degenerate count-of-counts)", "s" if len(fell_back) > 1 else "",
                 ", ".join(map(str, fell_back)), FALLBACK_DISCOUNT)
    return NGramModel(order, vocab, tables)
