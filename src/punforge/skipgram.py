"""Skip-gram embeddings trained only on distant co-occurrences.

Ordinary skip-gram windows capture nearby words; here the window is a band:
a training pair (center, context) is formed exactly when the positional
distance between the two tokens inside one sentence lies in [d1, d2], in
both directions.  Nothing closer than d1 contributes.  The resulting model
answers "which words tend to appear far away from w" - long-range topical
association rather than collocation.

Training is SGD with negative sampling (noise ~ unigram^0.75) and a
linearly decaying step size, a block of pairs at a time.  All randomness
comes from one seeded generator: pairs are visited in a seeded shuffle, and
the negatives and step sizes of ``MAX_BLOCK`` blocks at a time (a chunk)
are drawn and computed at once, one ``rng.random`` and one
``searchsorted`` a chunk, from the same stream in the same order as one
draw per epoch would; so a block of one pair pays no draw of its own, and
memory stays bounded by one chunk.  Every pair of a block reads the
embeddings as they were when the block began; its scores and gradients
come from stacked ``np.matmul`` (one BLAS call per pair, the call
``ndarray.dot`` makes), each pair keeps its own step size, and one flat
``np.add.at`` per matrix adds every term in pair order.  So equal seeds
give bitwise-equal embeddings, and a block of one pair is plain sequential
SGD, byte for byte (``reference_train_skipgram`` in the test oracles, at
either block).  ``block_size`` works the block out from the step size, the
negatives and the most frequent context and noise word, at most
``MAX_BLOCK`` pairs.  The sigmoid is one division by
1 + e^-|s|, which gives the doubles of a branch per sign.  When INFO
logging is on, the epoch's mean loss is summed block by block from the
scores the updates computed.

Queries use a softmax over the output embeddings.  ``predict_topics``
computes it in full, zeroes the query word and the unknown symbol in place,
renormalizes by one in-order sum, and sorts only the words at or above the
k-th probability (found by a partition), by probability and then word, as a
full sort would; ``rank_topics`` gives the same answer as word ids and
probabilities.  Rows from ``relatedness_by_id`` compute only the entries
read, from a kept max and sum.

A model file must hold finite embeddings: ``load`` refuses NaN and
infinite values, and ``train_skipgram`` raises TrainingError when SGD
diverges to them.
"""

from __future__ import annotations

import functools
import logging
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from . import binio
from .corpus import Sentence, Vocabulary, encode_corpus, flat_ids, read_vocab, write_vocab
from .errors import TrainingError, UnknownWordError

log = logging.getLogger(__name__)

SKIPGRAM_MAGIC = b"PGS4"
# The fields of SkipGramConfig in order: five u32, then f64 step_size, u64 seed.
_HEADER = "<5IdQ"
# An epoch walks every band pair once, and training runs 15 by default.  A
# thousand take about 2 minutes on the walkthrough's 31,344 pairs at dim 40
# (2-vCPU VM), where the header's u32 limit would run for over a decade.
MAX_EPOCHS = 1_000
# The most pairs trained from one snapshot of the embeddings (``block_size``).
MAX_BLOCK = 64


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
    return _band_pairs(*flat_ids(sentences), d1, d2)


def _band_pairs(flat: np.ndarray, lengths: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """:func:`extract_pairs` of sentences given as their ids end to end and
    their lengths."""
    check_band(d1, d2)
    sent = np.repeat(np.arange(len(lengths)), lengths)
    # valid[i, d - d1]: position i + d exists and lies in i's sentence
    top = min(d2, int(lengths.max(initial=0)) - 1)
    valid = np.zeros((len(flat), max(top - d1 + 1, 0)), dtype=bool)
    for d in range(d1, top + 1):
        valid[:-d, d - d1] = sent[:-d] == sent[d:]
    # nonzero walks C order: by i, then by distance, as the pair order wants
    i, col = np.nonzero(valid)
    j = i + d1 + col
    return np.stack([flat[i], flat[j], flat[j], flat[i]], axis=1).reshape(-1, 2)


def block_grads(center_vecs: np.ndarray, out_vecs: np.ndarray,
                labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores and analytic negative-sampling gradients for a block of updates.

    Update r has the input embedding ``center_vecs[r]`` (shape (b, dim)) and
    the output embeddings ``out_vecs[r]`` (shape (b, k + 1, dim)) of its true
    context (label 1) and its sampled negatives (label 0).  Repeated rows are
    legal and simply contribute their term twice.  Returns (scores, d/d
    centers, d/d out rows), shaped (b, k + 1), (b, dim) and (b, k + 1, dim).
    """
    # Stacked matmul makes one BLAS gemv per update, the call ndarray.dot
    # makes for one; einsum sums in another order.
    scores = np.matmul(out_vecs, center_vecs[:, :, None])[:, :, 0]
    residual = _sigmoid(scores) - labels
    return (scores, np.matmul(residual[:, None, :], out_vecs)[:, 0, :],
            residual[:, :, None] * center_vecs[:, None, :])


def step_grads(center_vec: np.ndarray, out_vecs: np.ndarray,
               labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``block_grads`` for one update: (scores, d/d center, d/d out rows)."""
    return tuple(a[0] for a in block_grads(center_vec[None], out_vecs[None], labels))


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    """sigma(s), elementwise: 1 / (1 + e^-s) for s >= 0, -0.0 included, and
    e^s / (1 + e^s) below.  With e = e^-|s| both are one division by 1 + e
    that cannot overflow; its numerator, 1 or e, is the larger of e and the
    step function of s."""
    e = np.exp(-np.abs(scores))
    return np.maximum(e, np.heaviside(scores, 1.0)) / (1.0 + e)


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
        order = sorted(range(len(self.vocab)), key=self.vocab.words.__getitem__)
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
        ids, probs = self.rank_topics(word, k)
        words = self.vocab.words
        return [(words[i], prob) for i, prob in zip(ids.tolist(), probs.tolist())]

    def rank_topics(self, word: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`predict_topics` as two arrays, the word ids in order and
        their probabilities, so a caller can filter by id before it reads a
        word; both are empty where that list is."""
        check_topic_k(k)
        dist = self.relatedness_dist(word)
        word_id, unk_id = self.vocab.id_of(word), self.vocab.unk_id
        # cumsum adds in index order, as a Python sum would (np.sum adds
        # pairwise and can differ in the last bit), and adding the +0.0 of
        # an excluded id leaves every partial sum as it was
        dist[word_id] = dist[unk_id] = 0.0
        total = float(np.cumsum(dist)[-1])
        if total <= 0.0:
            return np.empty(0, dtype=np.intp), np.empty(0)
        neg = -dist
        if k < len(neg):
            # A word past the k-th smallest sorts after k others.  The test
            # keeps every tie at kth, and everything when kth is NaN (NaN
            # sorts last in both routines: fewer than k values are finite).
            # The excluded ids' -0.0 is no less than any other -p, so it
            # moves kth only where kth is 0 or NaN, and there every word
            # passes the test either way.
            keep = ~(neg > np.partition(neg, k - 1)[k - 1])
        else:
            keep = np.ones(len(neg), dtype=bool)
        keep[word_id] = keep[unk_id] = False
        cand = np.flatnonzero(keep)
        top = cand[np.lexsort((self._word_rank[cand], neg[cand]))[:k]]
        return top, dist[top] / total

    # --- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with binio.writing(path, SKIPGRAM_MAGIC) as fh:
            binio.pack(fh, _HEADER, *astuple(self.config))
            write_vocab(fh, self.vocab)
            for table in (self.vec_in, self.vec_out):
                binio.write_array(fh, table, "<f8")

    @classmethod
    def load(cls, path: str | Path,
             expected_vocab_hash: bytes | None = None) -> "SkipGramModel":
        with binio.reading(path, SKIPGRAM_MAGIC, "skip-gram model") as fh:
            config = SkipGramConfig(*binio.unpack(fh, _HEADER))
            vocab = read_vocab(fh, what="skip-gram model",
                               expected_hash=expected_vocab_hash)
            tables = [binio.read_array(fh, "<f8") for _ in range(2)]
            if any(t.size != len(vocab) * config.dim for t in tables):
                raise ValueError("embedding table has the wrong size")
            if not all(np.isfinite(t).all() for t in tables):
                raise ValueError("non-finite embedding value")
        return cls(vocab, config, *(t.reshape(len(vocab), config.dim) for t in tables))

    def export_text(self, fh: TextIO) -> None:
        """Write the input embeddings to ``fh`` as text: header 'V dim', then
        word + values."""
        fh.write(f"{len(self.vocab)} {self.config.dim}\n")
        for word, idx, _count in self.vocab.items():
            values = " ".join(repr(float(v)) for v in self.vec_in[idx])
            fh.write(f"{word} {values}\n")


def block_size(step_size: float, negatives: int, p_ctx: float,
               p_noise: float) -> int:
    """Pairs per training block: ⌊1 / (step_size · (p_ctx + negatives · p_noise))⌋,
    at least 1 and at most ``MAX_BLOCK``.

    ``p_ctx`` is the largest share of one word among the pairs' contexts and
    ``p_noise`` the largest noise probability.  A block adds to its busiest
    output row about B · (p_ctx + negatives · p_noise) terms, all computed
    from the embeddings as the block began; the rule keeps their summed step
    at about one.  On a vocabulary of a few words it picks 1, where a block
    of 64 diverges.
    """
    # 1 / max(rate, 1 / MAX_BLOCK) is at most MAX_BLOCK and never divides by 0
    rate = step_size * (p_ctx + negatives * p_noise)
    return max(1, int(1.0 / max(rate, 1.0 / MAX_BLOCK)))


def train_skipgram(sentences: Sequence[Sentence] | Sequence[Sequence[int]],
                   vocab: Vocabulary,
                   config: SkipGramConfig | None = None) -> SkipGramModel:
    """Train band skip-gram embeddings; equal seeds give equal models.
    ``sentences`` are encoded as :func:`corpus.encode_corpus` encodes them."""
    config = config or SkipGramConfig()
    pairs = _band_pairs(*encode_corpus(sentences, vocab), config.d1, config.d2)
    if len(pairs) == 0:
        raise TrainingError(
            f"no training pairs: no two tokens at distance in "
            f"[{config.d1}, {config.d2}] in any sentence"
        )

    v_size = len(vocab)
    rng = np.random.default_rng(config.seed)
    vec_in = (rng.random((v_size, config.dim)) - 0.5) / config.dim
    vec_out = np.zeros((v_size, config.dim))

    noise = np.array(vocab.counts, dtype=np.float64)
    noise **= 0.75
    if noise.sum() <= 0.0:
        noise[:] = 1.0
    noise /= noise.sum()
    noise_cdf = np.cumsum(noise)

    n, k, dim, step_size = len(pairs), config.negatives, config.dim, config.step_size
    block = block_size(step_size, k, np.bincount(pairs[:, 1]).max() / n, noise.max())
    chunk = block * MAX_BLOCK  # pairs whose draws and step sizes are made at once
    total_steps = config.epochs * n
    labels = np.zeros(k + 1)
    labels[0] = 1.0
    cols = np.arange(dim)
    # views: np.add.at on them writes the embeddings
    flat_in, flat_out = vec_in.reshape(-1), vec_out.reshape(-1)
    track_loss = log.isEnabledFor(logging.INFO)
    log.debug("skip-gram blocks of %d pairs", block)
    # A step size that diverges overflows to inf and then NaN; that is
    # reported once, below, instead of as a warning per block.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for first in range(0, n, chunk):
                centers, contexts = pairs[order[first:first + chunk]].T
                c = len(centers)
                # Row r's targets: its context, then its negatives.  The clip
                # guards against a draw landing past the last cumulative
                # value, which float rounding can leave a hair below one.
                targets = np.empty((c, k + 1), dtype=np.int64)
                targets[:, 0] = contexts
                targets[:, 1:] = np.minimum(
                    np.searchsorted(noise_cdf, rng.random((c, k))), v_size - 1)
                step = epoch * n + first + np.arange(c)
                neg_lr = -(step_size * np.maximum(1.0 - step / total_steps, 1e-4))
                in_rows, out_rows = centers * dim, targets * dim
                for start in range(0, c, block):
                    end = start + block
                    # every pair reads the embeddings as the block began
                    scores, grad_center, grad_out = block_grads(
                        vec_in[centers[start:end]], vec_out[targets[start:end]], labels)
                    if track_loss:
                        epoch_loss += sampling_loss(scores, labels)
                    grad_out *= neg_lr[start:end, None, None]
                    grad_center *= neg_lr[start:end, None]
                    # one flat np.add.at per matrix adds every term in pair order
                    np.add.at(flat_out, (out_rows[start:end, :, None] + cols).reshape(-1),
                              grad_out.reshape(-1))
                    np.add.at(flat_in, (in_rows[start:end, None] + cols).reshape(-1),
                              grad_center.reshape(-1))
            if track_loss:
                log.info("skip-gram epoch %d/%d: mean loss %.6f over %d pairs",
                         epoch + 1, config.epochs, epoch_loss / n, n)
    if not (np.isfinite(vec_in).all() and np.isfinite(vec_out).all()):
        raise TrainingError(
            f"skip-gram training diverged to non-finite embeddings at step "
            f"size {config.step_size!r}; use a smaller one"
        )
    return SkipGramModel(vocab, config, vec_in, vec_out)
