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
its words' discounts left to right in sorted word order.  It finds each
order's distinct rows by sorting packed uint64 keys once: a key holds as
many leading ids as fit in 64 bits, so a row takes one key while
``(V + 2) ** order <= 2 ** 64`` for V words (up to 65,534 at order 4), and
a wider row two or three keys, sorted least significant first.  A query walks
from its longest context down: a stored n-gram returns its value, a stored
context on the way multiplies in its weight, innermost first, so the floats
equal the recursion's bit for bit.  A file keeps each order as sorted,
distinct n-gram rows of token ids with their probabilities, and the backoff
weights of their distinct contexts in row order, so loading builds no table
from counts and reads no context.  Queries read one dict per order from
packed keys to values; building it checks that order's ids, values, key
order and one weight per context (the keys' runs without the last id).  A
trained model packs no key until its first query and saves its rows; a
loaded one builds the dicts at load, keeps only them and is not saved
again.  A walk carries one state from one token to the next, as KenLM's
does: the packed key of the longest stored n-gram found, trimmed to
``order - 1`` ids, and its length.  Each shorter context is a suffix of
it, and its key follows from the key by one modulo, so each step starts at
the longest context that can be stored.

``logprob_pair`` scores two sequences that differ in one slot, as the
surprisal measures do, in one shared walk: the prefix before the slot is
walked once, the two sequences walk apart from the slot until their carried
context keys agree (at most ``order - 1`` tokens past it), and the rest is
walked once for both.  Each total adds its tokens' log-probabilities left
to right, so both equal their own ``logprob_seq`` bit for bit.

``unigram_logprob`` is deliberately not the Kneser-Ney unigram: it is a plain
relative-frequency estimate with add-one smoothing, used as the independence
baseline when measuring how atypical a whole sentence is.
"""

from __future__ import annotations

import logging
import math
from functools import cached_property, reduce
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import binio
from .corpus import Sentence, Vocabulary, encode_corpus, read_vocab, write_vocab
from .errors import TrainingError

log = logging.getLogger(__name__)

LM_MAGIC = b"PGL8"

MIN_ORDER = 2
MAX_ORDER = 6
DEFAULT_ORDER = 4
FALLBACK_DISCOUNT = 0.75

# One order's tables: the backoff weights of its contexts, then its n-gram
# rows (context ids, word), sorted and distinct, with their probabilities.
# The contexts are the distinct context ids of the rows, in row order.
Tables = tuple[np.ndarray, np.ndarray, np.ndarray]


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


class NGramModel:
    """Kneser-Ney model over token ids; see the module docstring for rules.

    ``tables`` holds one :data:`Tables` per order, lowest first, as
    :func:`train_lm` builds them and ``.pglm`` files store them, and
    :meth:`save` writes them; tables that break a rule raise ValueError
    where the query dicts are built: at :meth:`load` or the first query.
    ``unigram_logprobs`` lists :meth:`unigram_logprob` by id; it is read,
    never written.
    """

    def __init__(self, order: int, vocab: Vocabulary, tables: Sequence[Tables]):
        check_order(order)
        self.order = order
        self.vocab = vocab
        self.bos_id = len(vocab)
        self.eos_id = len(vocab) + 1
        self.n_events = len(vocab) + 1  # vocabulary plus the end marker
        self._uniform = 1.0 / self.n_events
        # A run of ids packs as base-``radix`` digits after a leading 1, so
        # runs of different lengths never share a key and a query extends a
        # key by one id with one multiply-add.
        self._radix = self.eos_id + 1
        self._rows: Sequence[Tables] | None = tables
        self._bos_key = reduce(lambda key, t: key * self._radix + t,
                               [self.bos_id] * (order - 1), 1)  # the begin markers

    @cached_property
    def unigram_logprobs(self) -> list[float]:
        """:meth:`unigram_logprob` of every id, built on first read."""
        denom = math.log(self.vocab.total_count + len(self.vocab))
        return [math.log(c + 1) - denom for c in self.vocab.counts]

    @cached_property
    def _tables(self) -> list[dict[int, float]]:
        """Per order, a dict from context keys to backoff weights and n-gram
        keys to probabilities, each order checked as it is built."""
        return [dict(zip(self._checked_keys(k, table).tolist(),
                         chain(table[0].tolist(), table[2].tolist())))
                for k, table in enumerate(self._rows, start=1)]

    def _checked_keys(self, k: int, table: Tables) -> np.ndarray:
        """The context keys, then the n-gram keys, of order ``k``'s table;
        raise ValueError naming the first rule the table breaks."""
        backoff, gram_rows, probs = table
        bos, words = self.bos_id, gram_rows[:, -1]
        problem = (
            "ids outside the event space"
            if (gram_rows[:, :-1] > bos).any()
            or ((words >= bos) & (words != self.eos_id)).any()
            else "a probability outside (0, 1]"
            if not ((probs > 0.0) & (probs <= 1.0)).all()
            else "a backoff weight outside (0, 1]"  # γ <= total, as D(c) <= c
            if not ((backoff > 0.0) & (backoff <= 1.0)).all()
            else None
        )
        if problem:
            raise ValueError(f"order {k}: {problem}")
        # Every id is below the radix, so the rows are sorted and distinct
        # exactly when the keys increase; a context's key drops the word.
        grams = self._pack(gram_rows)
        if not (grams[1:] > grams[:-1]).all():
            raise ValueError(f"order {k}: rows unsorted or repeated")
        contexts = grams // self._radix
        new = np.ones(len(contexts), dtype=bool)
        new[1:] = contexts[1:] != contexts[:-1]
        starts = np.flatnonzero(new)
        if len(starts) != len(backoff):
            raise ValueError(f"order {k}: {len(backoff)} backoff weights "
                             f"for {len(starts)} contexts")
        return np.concatenate([contexts[starts], grams])

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        """The keys of rows of ids (see ``__init__``); while every id is below
        the radix, the keys are in the rows' lexicographic order.  They are
        uint64 while every key fits, else Python ints in object arrays."""
        dtype = np.uint64 if self._radix ** self.order < 2 ** 63 else object
        keys = np.ones(len(rows), dtype=dtype)
        for column in rows.T:
            keys = keys * self._radix + column.astype(dtype)
        return keys

    @cached_property
    def _step(self) -> Callable[[int, int, int], tuple[float, int, int]]:
        """The walk's one step, ``(key, length, w) -> (p, key', length')``: p,
        not ln p, of id ``w`` after the context packed in ``key`` (its last
        ``length`` ids, at most ``order - 1``), and the context carried on."""
        # read once into the closure: attribute reads on every step cost more
        tables, radix, uniform = self._tables, self._radix, self._uniform
        longest = self.order - 1
        powers = [radix ** j for j in range(self.order)]
        full = powers[longest]

        def step(key: int, length: int, w: int) -> tuple[float, int, int]:
            gram = key * radix + w
            table = tables[length]
            p = table.get(gram)
            # A context is stored only if it is a stored n-gram, so the next
            # step starts at the longest n-gram found here.
            if p is not None:
                if length == longest:  # drop the oldest id
                    return p, gram % full + full, length
                return p, gram, length + 1
            weight = table.get(key)
            weights = [] if weight is None else [weight]
            for j in range(length - 1, -1, -1):  # the shorter suffixes, longest first
                ctx = powers[j] + key % powers[j]
                gram = ctx * radix + w
                table = tables[j]
                p = table.get(gram)
                if p is not None:
                    break
                weight = table.get(ctx)
                if weight is not None:
                    weights.append(weight)
            else:
                p, gram, j = uniform, 1, -1
            for weight in reversed(weights):  # innermost first, as the recursion nests
                p = weight * p
            return p, gram, j + 1

        return step

    def prob(self, word_id: int, context: Sequence[int]) -> float:
        """p(word | context); context may be any length and is right-trimmed."""
        if not (0 <= word_id < len(self.vocab) or word_id == self.eos_id):
            raise ValueError(f"word id {word_id} outside the event space")
        ctx = list(context[-(self.order - 1):])
        for i in range(len(ctx) - 1, -1, -1):
            if not 0 <= ctx[i] <= self.bos_id:  # no stored context holds it
                del ctx[:i + 1]
                break
        key = reduce(lambda key, t: key * self._radix + int(t), ctx, 1)
        return self._step(key, len(ctx), int(word_id))[0]

    def _check_ids(self, token_ids: Sequence[int]) -> None:
        """Raise ValueError unless every id is a vocabulary id; the markers
        are not."""
        size = len(self.vocab)
        for t in token_ids:
            if not 0 <= t < size:
                raise ValueError(f"token id {t} outside the vocabulary")

    def _start(self, use_boundary_markers: bool) -> tuple[int, int]:
        """The state, (context key, length), a sequence's walk starts from."""
        return (self._bos_key, self.order - 1) if use_boundary_markers else (1, 0)

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
        key, length = self._start(use_boundary_markers)
        total = 0.0
        for w in seq:
            p, key, length = step(key, length, w)
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
        key, length = self._start(use_boundary_markers)
        pun = 0.0
        for w in ids[:position]:
            p, key, length = step(key, length, w)
            pun += log(p)
        alt_p, alt_key, alt_length = step(key, length, int(alt_id))
        p, key, length = step(key, length, ids[position])
        alt, pun = pun + log(alt_p), pun + log(p)
        rest = iter(tail)
        # A key packs a run and its length, so equal keys mean equal
        # contexts, and every later token has one probability.
        if alt_key != key:
            for w in rest:
                alt_p, alt_key, alt_length = step(alt_key, alt_length, w)
                p, key, length = step(key, length, w)
                alt += log(alt_p)
                pun += log(p)
                if alt_key == key:
                    break
        for w in rest:
            p, key, length = step(key, length, w)
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
        if self._rows is None:
            raise ValueError("a loaded language model is not saved again")
        with binio.writing(path, LM_MAGIC) as fh:
            binio.pack(fh, "<B", self.order)
            write_vocab(fh, self.vocab)
            for table in self._rows:  # weights, n-grams, probabilities
                for array, dtype in zip(table, ("<f8", "<u4", "<f8")):
                    binio.write_array(fh, array, dtype)

    @classmethod
    def load(cls, path: str | Path,
             expected_vocab_hash: bytes | None = None) -> "NGramModel":
        with binio.reading(path, LM_MAGIC, "language model") as fh:
            (order,) = binio.unpack(fh, "<B")
            check_order(order)
            vocab = read_vocab(fh, what="language model",
                               expected_hash=expected_vocab_hash)
            tables = []
            for k in range(1, order + 1):
                backoff, gram_rows, probs = (binio.read_array(fh, dtype)
                                             for dtype in ("<f8", "<u4", "<f8"))
                if len(gram_rows) != len(probs) * k:  # one row of ids per probability
                    raise ValueError(f"order {k}: block lengths disagree")
                tables.append((backoff, gram_rows.reshape(len(probs), k), probs))
            model = cls(order, vocab, tables)
            model._tables  # check the tables and build the query dicts now
        model._rows = None  # and keep no arrays beside them
        model.unigram_logprobs  # scoring reads it, so a load builds it too
        return model


def _column_keys(rows: np.ndarray, radix: int) -> list[np.ndarray]:
    """Rows of ids below ``radix`` as uint64 keys, most significant first,
    that compare as the rows do lexicographically: each key packs as many
    leading columns as fit in 64 bits as base-``radix`` digits.  Rows of
    order k take one key while ``radix ** k <= 2 ** 64``, and rows of no
    columns one key of zeros."""
    width = 1
    while radix ** (width + 1) <= 2 ** 64:
        width += 1
    base = np.uint64(radix)
    keys = []
    for start in range(0, max(rows.shape[1], 1), width):
        key = np.zeros(len(rows), dtype=np.uint64)
        for column in rows.T[start:start + width]:
            key *= base
            key += column.astype(np.uint64)
        keys.append(key)
    return keys


def _unique_rows(rows: np.ndarray, radix: int,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ids below ``radix`` in lexicographic order, the
    index of each input row among them, and how often each occurs."""
    keys = _column_keys(rows, radix)
    # Least significant key first and every later sort stable, as lexsort
    # does; equal rows form one group in any order, so the first sort, and
    # the only one while a row fits one key, need not be stable.
    order = np.argsort(keys[-1])
    for key in keys[-2::-1]:
        order = order[np.argsort(key[order], kind="stable")]
    starts, group = _runs([key[order] for key in keys])
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = group
    return rows[order[starts]], inverse, np.bincount(group)


def _runs(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal consecutive rows starts, and the run each row
    is in, from the rows' :func:`_column_keys`."""
    new = np.ones(len(keys[0]), dtype=bool)
    new[1:] = reduce(np.logical_or, [key[1:] != key[:-1] for key in keys])
    return np.flatnonzero(new), np.cumsum(new) - 1


def _kneser_ney_tables(grams: np.ndarray, n_events: int,
                       ) -> tuple[list[tuple[float, float, float]], list[Tables]]:
    """Every order's discounts and :data:`Tables` from the top-order n-gram
    of every training token (one row each, the token last).

    Each order is computed from the stored probabilities of the order below.
    The backoff numerator γ of a context adds its words' discounts left to
    right in sorted word order, as a loop over the stored rows would.
    """
    # Top down: each order's sorted distinct rows, their counts and each
    # row's projection (its row one order down).
    radix = n_events + 1  # every id, the markers included, is below it
    rows, _, counts = _unique_rows(grams, radix)
    levels = []
    while rows.shape[1] > 1:
        lower, proj, lower_counts = _unique_rows(rows[:, 1:], radix)
        levels.append((rows, counts, proj))
        rows, counts = lower, lower_counts
    levels.append((rows, counts, None))

    discounts: list[tuple[float, float, float]] = []
    tables: list[Tables] = []
    probs = None  # of the order below
    for rows, counts, proj in reversed(levels):
        d = estimate_discounts(counts)
        discounts.append(d)
        discount = np.array(d)[np.minimum(counts, 3) - 1]
        starts, ctx_of = _runs(_column_keys(rows[:, :-1], radix))
        # bincount adds each bin's weights in index order, not pairwise
        gamma = np.bincount(ctx_of, weights=discount, minlength=len(starts))
        total = np.add.reduceat(counts, starts)
        backoff = gamma / total
        kept = (counts - discount) / total[ctx_of]
        p_lower = 1.0 / n_events if proj is None else probs[proj]
        probs = kept + backoff[ctx_of] * p_lower
        tables.append((backoff, rows, probs))
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
    targets = np.flatnonzero(flat != bos)
    grams = flat[targets[:, None] + np.arange(1 - order, 1)]
    discounts, tables = _kneser_ney_tables(grams, len(vocab) + 1)
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
