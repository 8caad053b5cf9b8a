"""Skip-gram embeddings trained only on distant co-occurrences.

Ordinary skip-gram windows capture nearby words; here the window is a band:
a training pair (center, context) is formed exactly when the positional
distance between the two tokens inside one sentence lies in [d1, d2], in
both directions.  Nothing closer than d1 contributes.  The resulting model
answers "which words tend to appear far away from w" - long-range topical
association rather than collocation.

Training is plain SGD with negative sampling (noise ~ unigram^0.75) and a
linearly decaying step size.  All randomness comes from one seeded
generator, pairs are visited in a seeded shuffle, and updates are
sequential, so equal seeds give bitwise-equal embeddings.

Each epoch lays out its updates' targets (the context, then the negatives)
as one array and marks, with a row-wise sort, the rows whose targets are
distinct.  An update gathers its target rows once; a distinct row is written
back as gathered + (-lr * gradient), which is the sum ``np.add.at`` forms
when no row repeats, and only rows that repeat a target use ``np.add.at``.
The sigmoid is one division by 1 + e^-|s|, which gives the doubles of a
branch per sign.  So the embeddings are byte-equal to those of a plain
loop of one ``np.add.at`` per pair (``reference_train_skipgram`` in the
test oracles).  When INFO logging is on, each update's scores are kept and
the epoch's mean loss is computed from them once, at the epoch's end.

Queries use a softmax over the output embeddings.  ``predict_topics``
computes it in full, renormalizes it without the query word and the unknown
symbol, and sorts only the words at or above the k-th probability (found by
a partition), by probability and then word, as a full sort would.  Rows from
``relatedness_by_id`` compute only the entries read, from a kept max and sum.

A model file must hold finite embeddings: ``load`` refuses NaN and
infinite values, and ``train_skipgram`` raises TrainingError when SGD
diverges to them.
"""

from __future__ import annotations

import functools
import itertools
import logging
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from . import binio
from .corpus import Sentence, Vocabulary, read_vocab, write_vocab
from .errors import FormatError, TrainingError, UnknownWordError

log = logging.getLogger(__name__)

SKIPGRAM_MAGIC = b"PGS2"
# The fields of SkipGramConfig in order: five u32, then f64 step_size, u64 seed.
_HEADER = "<5IdQ"
# An epoch walks every band pair once, and training runs 15 by default.  A
# thousand take about 13 minutes on the walkthrough's 31,344 pairs at dim 40
# (2-vCPU VM), where the header's u32 limit would run for about a century.
MAX_EPOCHS = 1_000


@dataclass
class SkipGramConfig:
    dim: int = 300
    d1: int = 5
    d2: int = 10
    epochs: int = 15
    negatives: int = 5
    step_size: float = 0.025
    seed: int = 1

    def __post_init__(self) -> None:
        check_band(self.d1, self.d2)
        # what the file header holds: the counts as u32, the seed as u64
        for name, low, high in (("dim", 1, 2**32 - 1), ("d1", 1, 2**32 - 1),
                                ("d2", 1, 2**32 - 1), ("epochs", 0, MAX_EPOCHS),
                                ("negatives", 1, 2**32 - 1)):
            if not low <= (value := getattr(self, name)) <= high:
                raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


def check_band(d1: int, d2: int) -> None:
    """Raise ValueError unless [d1, d2] is a usable co-occurrence band."""
    if d1 < 1 or d2 < d1:
        raise ValueError(f"need 1 <= d1 <= d2, got d1={d1}, d2={d2}")


def check_topic_k(k: int) -> None:
    """Raise ValueError unless ``k`` topic predictions can be returned."""
    if not 1 <= k <= sys.maxsize:
        raise ValueError(f"topic_k must be in [1, {sys.maxsize}], got {k}")


def extract_pairs(sentences: Sequence[Sequence[int]], d1: int, d2: int) -> np.ndarray:
    """All (center, context) id pairs at band distance, both directions.

    For positions i < j with j - i in [d1, d2] the pair list gets
    (ids[i], ids[j]) and then (ids[j], ids[i]); sentences are walked in
    order, i ascending, j ascending, which fixes the pair order used by
    training.  Returns an (n, 2) int64 array.
    """
    check_band(d1, d2)
    lengths = [len(ids) for ids in sentences]
    flat = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64,
                       count=sum(lengths))
    sent = np.repeat(np.arange(len(lengths)), lengths)
    # valid[i, d - d1]: position i + d exists and lies in i's sentence
    top = min(d2, max(lengths, default=0) - 1)
    valid = np.zeros((len(flat), max(top - d1 + 1, 0)), dtype=bool)
    for d in range(d1, top + 1):
        valid[:-d, d - d1] = sent[:-d] == sent[d:]
    # nonzero walks C order: by i, then by distance, as the pair order wants
    i, col = np.nonzero(valid)
    j = i + d1 + col
    return np.stack([flat[i], flat[j], flat[j], flat[i]], axis=1).reshape(-1, 2)


def step_grads(center_vec: np.ndarray, out_vecs: np.ndarray,
               labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores and analytic negative-sampling gradients for one update.

    ``out_vecs`` holds the output embeddings of the true context (label 1)
    and the sampled negatives (label 0).  Repeated rows are legal and simply
    contribute their term twice.  Returns (scores, d/d center, d/d out rows).
    """
    # ndarray.dot makes the BLAS call of ``@``, with less dispatch
    scores = out_vecs.dot(center_vec)
    # sigma(s) is 1 / (1 + e^-s) for s >= 0 and e^s / (1 + e^s) below: with
    # e = e^-|s| both are one division that cannot overflow
    e = np.exp(-np.abs(scores))
    residual = np.where(scores >= 0.0, 1.0, e) / (1.0 + e) - labels
    return scores, residual.dot(out_vecs), residual[:, None] * center_vec


def step_loss_grads(center_vec: np.ndarray, out_vecs: np.ndarray,
                    labels: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative-sampling loss and the gradients of ``step_grads``.

    Returns (loss, d/d center, d/d out rows).
    """
    scores, grad_center, grad_out = step_grads(center_vec, out_vecs, labels)
    return sampling_loss(scores, labels), grad_center, grad_out


def sampling_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """The negative-sampling loss of the scores of one update, or of a stack
    of updates' scores (one row each): -Σ log σ(±s), + for the label-1 target."""
    # log sigma(s) = -log(1 + e^-s), computed stably for either sign
    return float(np.sum(np.logaddexp(0.0, np.where(labels == 1, -scores, scores))))


@dataclass(frozen=True, eq=False, slots=True)
class RelatednessRow:
    """One anchor word's relatedness softmax: ``row[ids]`` is
    exp(vec_out[ids] @ anchor - top) / total, ``top`` and ``total`` being the
    full softmax's maximum score and sum of exponentials."""

    vec_out: np.ndarray
    anchor: np.ndarray
    top: float
    total: float

    def __getitem__(self, ids) -> np.ndarray:
        return np.exp(self.vec_out[ids] @ self.anchor - self.top) / self.total


class SkipGramModel:
    """Trained embeddings and the queries on them.

    ``vec_in`` and ``vec_out`` must not change after construction: each
    anchor word's softmax maximum and sum are computed from them once.
    """

    def __init__(self, vocab: Vocabulary, config: SkipGramConfig,
                 vec_in: np.ndarray, vec_out: np.ndarray):
        self.vocab = vocab
        self.config = config
        self.vec_in = vec_in
        self.vec_out = vec_out
        self._normalizers: dict[int, tuple[float, float]] = {}  # never evicted
        self.relatedness_lookups = 0

    def _softmax_terms(self, word_id: int) -> tuple[float, np.ndarray]:
        """One anchor's maximum score and exp(score - maximum) of every word."""
        scores = self.vec_out @ self.vec_in[word_id]
        top = scores.max()
        scores -= top
        return top, np.exp(scores)

    def relatedness_by_id(self, word_id: int) -> RelatednessRow:
        """One anchor id's softmax over the vocabulary, as a row computed where read."""
        if not 0 <= word_id < len(self.vocab):
            raise UnknownWordError(f"word id {word_id} outside the vocabulary")
        self.relatedness_lookups += 1
        if word_id not in self._normalizers:
            top, exp = self._softmax_terms(word_id)
            self._normalizers[word_id] = (top, exp.sum())
        return RelatednessRow(self.vec_out, self.vec_in[word_id],
                              *self._normalizers[word_id])

    def log_relatedness_counts(self) -> None:
        """Log at INFO how many softmax normalizers were computed and reused."""
        computed = len(self._normalizers)
        log.info("relatedness normalizers: %d computed, %d reused",
                 computed, self.relatedness_lookups - computed)

    def relatedness_dist(self, word: str) -> np.ndarray:
        """The full softmax of a word, computed afresh; sums to 1."""
        if word not in self.vocab:
            raise UnknownWordError(f"{word!r} is not in the vocabulary")
        _, exp = self._softmax_terms(self.vocab.id_of(word))
        return exp / exp.sum()

    @functools.cached_property
    def _word_rank(self) -> np.ndarray:
        """Each id's position in Python's ``sorted`` order of the words."""
        order = sorted(range(len(self.vocab)), key=self.vocab.word_of)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank

    def predict_topics(self, word: str, k: int) -> list[tuple[str, float]]:
        """Top-k topically related words, query word and unknown excluded.

        Probabilities are renormalized over the eligible candidates.  Ties
        break by word, ascending, so output order is deterministic.  A
        partition finds the k-th largest probability first, and only the
        words that reach it are sorted, exactly, ties at the boundary
        included; so the list equals that of a sort of every candidate.
        """
        check_topic_k(k)
        dist = self.relatedness_dist(word)
        eligible = np.delete(np.arange(len(dist)),
                             [self.vocab.id_of(word), self.vocab.unk_id])
        p = dist[eligible]
        # cumsum adds in index order, as a Python sum would; np.sum adds
        # pairwise and can differ in the last bit
        total = float(np.cumsum(p)[-1]) if len(p) else 0.0
        if total <= 0.0:
            return []
        neg = -p
        if k < len(p):
            # A word past the k-th smallest sorts after k others.  The test
            # keeps every tie at kth, and everything when kth is NaN (NaN
            # sorts last in both routines: fewer than k values are finite).
            kth = np.partition(neg, k - 1)[k - 1]
            cand = np.flatnonzero(~(neg > kth))
            eligible, p, neg = eligible[cand], p[cand], neg[cand]
        top = np.lexsort((self._word_rank[eligible], neg))[:k]
        probs = (p[top] / total).tolist()
        return [(self.vocab.word_of(i), prob)
                for i, prob in zip(eligible[top].tolist(), probs)]

    # --- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with binio.replace_file(path) as fh:
            fh.write(SKIPGRAM_MAGIC)
            binio.pack(fh, _HEADER, *astuple(self.config))
            write_vocab(fh, self.vocab)
            for table in (self.vec_in, self.vec_out):
                binio.write_array(fh, table, "<f8")

    @classmethod
    def load(cls, path: str | Path,
             expected_vocab_hash: bytes | None = None) -> "SkipGramModel":
        with open(path, "rb") as fh:
            binio.check_magic(fh, SKIPGRAM_MAGIC, "skip-gram model")
            try:
                config = SkipGramConfig(*binio.unpack(fh, _HEADER))
            except ValueError as exc:
                raise FormatError(f"bad skip-gram header in {path}: {exc}") from None
            vocab = read_vocab(fh, what="skip-gram model",
                               expected_hash=expected_vocab_hash)
            tables = [binio.read_array(fh, "<f8") for _ in range(2)]
            binio.check_end(fh)
        if any(t.size != len(vocab) * config.dim for t in tables):
            raise FormatError(f"embedding table has wrong size in {path}")
        if not all(np.isfinite(t).all() for t in tables):
            raise FormatError(f"non-finite embedding value in {path}")
        return cls(vocab, config, *(t.reshape(len(vocab), config.dim) for t in tables))

    def export_text(self, fh: TextIO) -> None:
        """Write the input embeddings to ``fh`` as text: header 'V dim', then
        word + values."""
        fh.write(f"{len(self.vocab)} {self.config.dim}\n")
        for word, idx, _count in self.vocab.items():
            values = " ".join(repr(float(v)) for v in self.vec_in[idx])
            fh.write(f"{word} {values}\n")


def train_skipgram(sentences: Sequence[Sentence] | Sequence[Sequence[int]],
                   vocab: Vocabulary,
                   config: SkipGramConfig | None = None) -> SkipGramModel:
    """Train band skip-gram embeddings; equal seeds give equal models."""
    config = config or SkipGramConfig()
    pairs = extract_pairs(vocab.encode_sentences(sentences), config.d1, config.d2)
    if len(pairs) == 0:
        raise TrainingError(
            f"no training pairs: no two tokens at distance in "
            f"[{config.d1}, {config.d2}] in any sentence"
        )

    v_size = len(vocab)
    rng = np.random.default_rng(config.seed)
    vec_in = (rng.random((v_size, config.dim)) - 0.5) / config.dim
    vec_out = np.zeros((v_size, config.dim))

    noise = np.array([vocab.count_of_id(i) for i in range(v_size)], dtype=np.float64)
    noise **= 0.75
    if noise.sum() <= 0.0:
        noise[:] = 1.0
    noise_cdf = np.cumsum(noise / noise.sum())

    n, k, step_size = len(pairs), config.negatives, config.step_size
    total_steps = config.epochs * n
    labels = np.zeros(k + 1)
    labels[0] = 1.0
    track_loss = log.isEnabledFor(logging.INFO)
    step = 0
    # A step size that diverges overflows to inf and then NaN; that is
    # reported once, below, instead of as a warning per update.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            shuffled = pairs[rng.permutation(n)]
            # Row r's targets: its context, then its negatives.  The clip
            # guards against a draw landing past the last cumulative value,
            # which float rounding can leave a hair below one.
            targets = np.empty((n, k + 1), dtype=np.int64)
            targets[:, 0] = shuffled[:, 1]
            targets[:, 1:] = np.minimum(
                np.searchsorted(noise_cdf, rng.random((n, k))), v_size - 1)
            # a row's targets are distinct when its sorted ids all differ
            distinct = np.diff(np.sort(targets, axis=1)).all(axis=1).tolist()
            if track_loss:
                epoch_scores = np.empty((n, k + 1))
            for r, (center, rows, once) in enumerate(zip(shuffled[:, 0].tolist(),
                                                         targets, distinct)):
                lr = step_size * max(1.0 - step / total_steps, 1e-4)
                step += 1
                in_vec, out_vecs = vec_in[center], vec_out.take(rows, axis=0)
                scores, grad_center, grad_out = step_grads(in_vec, out_vecs, labels)
                if track_loss:
                    epoch_scores[r] = scores
                if once:
                    # each target row gets one term: a plain write adds it
                    # exactly as np.add.at would
                    vec_out[rows] = out_vecs + (-lr * grad_out)
                else:
                    np.add.at(vec_out, rows, -lr * grad_out)
                in_vec -= lr * grad_center
            if track_loss:
                log.info("skip-gram epoch %d/%d: mean loss %.6f over %d pairs",
                         epoch + 1, config.epochs,
                         sampling_loss(epoch_scores, labels) / n, n)
    if not (np.isfinite(vec_in).all() and np.isfinite(vec_out).all()):
        raise TrainingError(
            f"skip-gram training diverged to non-finite embeddings at step "
            f"size {config.step_size!r}; use a smaller one"
        )
    return SkipGramModel(vocab, config, vec_in, vec_out)
