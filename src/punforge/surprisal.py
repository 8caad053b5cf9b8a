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

``unusualness`` is a per-token log ratio between the model probability of
the sentence and the product of add-one unigram probabilities: zero when the
model sees no structure beyond word frequency, positive when the sentence is
less typical than its words suggest.
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
        if not self.pun_word or not self.alt_word:
            raise ValueError("pun and alternative words must be non-empty")
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
    with_alt = enc(list(left) + [pair.alt_word] + list(right))
    with_pun = enc(list(left) + [pair.pun_word] + list(right))
    return (model.logprob_seq(with_alt, use_boundary_markers=False)
            - model.logprob_seq(with_pun, use_boundary_markers=False))


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
    log-probability, which :func:`score_occurrence` reuses for unusualness."""
    check_window(window)
    if occ.tokens[occ.pun_position] != pair.pun_word:
        raise ValueError(
            f"token at pun_position is {occ.tokens[occ.pun_position]!r}, "
            f"expected {pair.pun_word!r}"
        )
    p = occ.pun_position
    s_local = surprisal(
        model, occ.tokens[max(0, p - window):p], occ.tokens[p + 1:p + 1 + window], pair
    )
    enc = model.vocab.encode
    with_alt = enc(occ.tokens[:p] + [pair.alt_word] + occ.tokens[p + 1:])
    with_pun = enc(occ.tokens)
    joint = model.logprob_seq(with_pun, use_boundary_markers=True)
    s_global = model.logprob_seq(with_alt, use_boundary_markers=True) - joint
    return s_local, s_global, with_pun, joint


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


def unusualness(model, tokens: Sequence[str]) -> float:
    """Per-token atypicality of a sentence against its unigram baseline."""
    if not tokens:
        raise ValueError("cannot score an empty sentence")
    ids = model.vocab.encode(list(tokens))
    return _unusualness(model, ids, model.logprob_seq(ids, use_boundary_markers=True))


def _unusualness(model, ids: list[int], joint: float) -> float:
    independent = sum(model.unigram_logprob(i) for i in ids)
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
