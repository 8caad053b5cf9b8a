"""Surprisal measures for homophonic pun sentences.

A pun sentence carries a pun word ``w_p`` whose near-homophone alternative
``w_a`` fits the immediate context better while the pun word fits the whole
sentence.  For a context ``c`` the surprisal of the pun/alternative choice is

    S(c) = ln p(w_a, c) - ln p(w_p, c)

i.e. how much likelier the sequence would have been with the alternative
word in the slot.  ``s_local`` evaluates S on a +/-``window`` token window
around the slot, scored without boundary markers; ``s_global`` evaluates it
on the whole sentence, scored with boundary markers.  Their ratio is gated:
any degenerate case (negative surprisal, near-zero or non-finite global
surprisal) yields the sentinel -1, and the gate never returns NaN or an
infinity.

A model here is anything with ``vocab.encode`` and ``logprob_seq(ids,
use_boundary_markers)``, plus the per-id list ``unigram_logprobs`` for
unusualness.  Each S needs the log-probabilities of two sequences that
differ in the slot.  A model with ``logprob_pair(ids, position, alt_id,
use_boundary_markers)``, as :class:`~punforge.ngram_lm.NGramModel` has,
gives both from one walk that shares the tokens before and after the slot;
any other model takes two ``logprob_seq`` calls, with the same floats.

A report's ``unusualness`` is a per-token log ratio between the model
probability of the sentence and the product of add-one unigram
probabilities: zero when the model sees no structure beyond word frequency,
positive when the sentence is less typical than its words suggest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

DEFAULT_WINDOW = 2
RATIO_EPS = 1e-9


@dataclass(frozen=True)
class PunPair:
    pun_word: str
    alt_word: str

    def __post_init__(self) -> None:
        for word in (self.pun_word, self.alt_word):
            if word.split() != [word]:  # no vocabulary holds such a word
                raise ValueError(f"pair word {word!r} is empty or holds whitespace")
        if self.pun_word == self.alt_word:
            raise ValueError("pun and alternative words must differ")


@dataclass
class PunOccurrence:
    """A sentence (surface tokens) with the pun word at ``pun_position``."""

    tokens: list[str]
    pun_position: int

    def __post_init__(self) -> None:
        if not 0 <= self.pun_position < len(self.tokens):
            raise ValueError(
                f"pun_position {self.pun_position} outside sentence of "
                f"length {len(self.tokens)}"
            )


@dataclass
class SurprisalReport:
    s_local: float
    s_global: float
    s_ratio: float
    unusualness: float
    degenerate: bool


def check_window(window: int) -> None:
    """Raise ValueError unless ``window`` is a usable context half-width."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")


def surprisal(model, left: Sequence[str], right: Sequence[str], pair: PunPair) -> float:
    """S for the discontiguous context (left, right), no boundary markers.

    The candidate words are placed in the slot and each variant is scored as
    one contiguous sequence.
    """
    enc = model.vocab.encode
    ids = enc(list(left) + [pair.pun_word] + list(right))
    alt, pun = _pair_logprobs(model, ids, len(left), enc([pair.alt_word])[0], False)
    return alt - pun


def _pair_logprobs(model, ids: list[int], position: int, alt_id: int,
                   markers: bool) -> tuple[float, float]:
    """(ln p of ``ids`` with ``alt_id`` at ``position``, ln p of ``ids``):
    one shared walk through the model's ``logprob_pair`` when it has one,
    else two ``logprob_seq`` calls, which give the same floats."""
    logprob_pair = getattr(model, "logprob_pair", None)
    if logprob_pair is not None:
        return logprob_pair(ids, position, alt_id, markers)
    with_alt = ids[:position] + [alt_id] + ids[position + 1:]
    return (model.logprob_seq(with_alt, use_boundary_markers=markers),
            model.logprob_seq(ids, use_boundary_markers=markers))


def local_global(model, occ: PunOccurrence, pair: PunPair,
                 window: int = DEFAULT_WINDOW) -> tuple[float, float]:
    """(s_local, s_global) for one occurrence.

    The local window never crosses sentence bounds and gets no markers; the
    global score covers the whole sentence with markers, so sentence-typical
    openings and endings count toward it.
    """
    return _surprisals(model, occ, pair, window)[:2]


def _surprisals(model, occ: PunOccurrence, pair: PunPair,
                window: int) -> tuple[float, float, list[int], float]:
    """s_local, s_global, the pun sentence's ids and their marker-padded
    log-probability, which :func:`score_occurrence` reuses for unusualness.

    The sentence is encoded once; the local window is a slice of its ids.
    """
    check_window(window)
    if occ.tokens[occ.pun_position] != pair.pun_word:
        raise ValueError(
            f"token at pun_position is {occ.tokens[occ.pun_position]!r}, "
            f"expected {pair.pun_word!r}"
        )
    p = occ.pun_position
    enc = model.vocab.encode
    ids = enc(occ.tokens)
    alt_id = enc([pair.alt_word])[0]
    lo = max(0, p - window)
    alt, pun = _pair_logprobs(model, ids[lo:p + 1 + window], p - lo, alt_id, False)
    alt_joint, joint = _pair_logprobs(model, ids, p, alt_id, True)
    return alt - pun, alt_joint - joint, ids, joint


def s_ratio(s_local: float, s_global: float) -> float:
    """Gated ratio s_local / s_global; -1 for every degenerate input.

    Returns -1 when either surprisal is negative or NaN, or the denominator
    is below RATIO_EPS.  An overflowing ratio is clamped to the largest
    finite float, so the result is always -1 or a finite real.
    """
    if not (s_local >= 0.0 and s_global >= RATIO_EPS):  # NaN fails both
        return -1.0
    ratio = s_local / s_global
    if math.isnan(ratio):  # inf / inf
        return -1.0
    if math.isinf(ratio):
        return sys.float_info.max
    return ratio


def _unusualness(model, ids: list[int], joint: float) -> float:
    independent = 0.0
    for i in ids:  # left to right; sum() is compensated from Python 3.12
        independent += model.unigram_logprobs[i]
    return -(joint - independent) / len(ids)


def score_occurrence(model, occ: PunOccurrence, pair: PunPair,
                     window: int = DEFAULT_WINDOW) -> SurprisalReport:
    """All surprisal measures for one pun occurrence."""
    s_loc, s_glob, ids, joint = _surprisals(model, occ, pair, window)
    ratio = s_ratio(s_loc, s_glob)
    degenerate = (
        not (math.isfinite(s_loc) and math.isfinite(s_glob))
        or 0.0 <= s_glob < RATIO_EPS
    )
    return SurprisalReport(
        s_local=s_loc,
        s_global=s_glob,
        s_ratio=ratio,
        unusualness=_unusualness(model, ids, joint),
        degenerate=degenerate,
    )
