"""Ambiguity and distinctiveness of a pun under a two-meaning mixture model.

A sentence with a pun slot is treated as generated by a latent meaning
z in {pun, alt} (uniform prior).  Each content word either relates to the
meaning or not, with a fair-coin assignment f_i: a related word is drawn
from the relatedness distribution of z, an unrelated one from the unigram
distribution.  Word likelihoods therefore mix half-and-half:

    m(x_i | z) = 0.5 * p_uni(x_i) + 0.5 * p_rel(x_i | z)

Because the assignments are independent given z, the meaning posterior is a
product over content words and every per-word assignment posterior is a
Bernoulli in closed form; no enumeration over assignments is needed.

Ambiguity is the entropy (nats) of the meaning posterior, in [0, ln 2].
Distinctiveness sums, over content words, the symmetrized KL divergence
between the two assignment posteriors, each parameter clamped away from 0
and 1 once; ``meaning_report`` adds them left to right as it computes them.

Content words are all tokens except punctuation, the pun slot itself, and a
fixed 50-word function-word list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .corpus import UNK, Vocabulary
from .errors import UnknownWordError
from .surprisal import PunPair

MIXTURE_WEIGHT = 0.5  # prior weight of the relatedness component per word
PRIOR_PUN = 0.5  # prior probability of the pun meaning
BERNOULLI_EPS = 1e-9

# Fixed function-word list (exactly 50 entries) excluded from content words.
STOPWORDS = frozenset(
    """
    the a an and or but if then that this these those is are was were be
    been being do does did have has had will would can could shall should
    may might must not no of in on at by for with from to as so very too
    there
    """.split()
)


def is_punctuation(surface: str) -> bool:
    # a whole-word isalnum() settles most words without the character scan
    return not (surface.isalnum() or any(ch.isalnum() for ch in surface))


def content_positions(tokens: Sequence[str], pun_position: int) -> list[int]:
    """Indices of content words: no punctuation, stopwords, or the pun slot."""
    return [
        i
        for i, tok in enumerate(tokens)
        if i != pun_position and not is_punctuation(tok) and tok not in STOPWORDS
    ]


@dataclass
class MeaningReport:
    posterior_pun: float  # P(z = pun | sentence)
    ambiguity: float
    distinctiveness: float
    content_positions: list[int]
    f_pun: list[float]  # P(f_i = 1 | z = pun, sentence) per content word
    f_alt: list[float]


def _symmetric_kl(a: float, b: float) -> float:
    """KL(a || b) + KL(b || a) of two Bernoulli parameters, each clamped once."""
    a = min(max(a, BERNOULLI_EPS), 1.0 - BERNOULLI_EPS)
    b = min(max(b, BERNOULLI_EPS), 1.0 - BERNOULLI_EPS)
    return (a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
            + (b * math.log(b / a) + (1.0 - b) * math.log((1.0 - b) / (1.0 - a))))


def ambiguity_of(posterior_pun: float) -> float:
    """Binary entropy of the meaning posterior, in nats."""
    total = 0.0
    for p in (posterior_pun, 1.0 - posterior_pun):
        if p > 0.0:
            total -= p * math.log(p)
    return total


def check_pair_words(pair: PunPair, vocab: Vocabulary) -> None:
    """Raise UnknownWordError unless both pair words are vocabulary words;
    the unknown-word symbol stands for no word of its own."""
    for word in (pair.pun_word, pair.alt_word):
        if word == UNK or word not in vocab:
            raise UnknownWordError(f"pair word {word!r} is not in the model vocabulary")


def meaning_report(tokens: Sequence[str], pun_position: int, pair: PunPair,
                   vocab: Vocabulary, unigram_probs: np.ndarray,
                   relatedness: Callable[[int], Any]) -> MeaningReport:
    """Posterior, ambiguity and distinctiveness for one pun occurrence.

    ``unigram_probs`` is a positive probability vector over the vocabulary;
    ``relatedness(word_id)`` returns anything that a list of word ids indexes
    to their relatedness probabilities given that anchor word (a vector, or a
    ``RelatednessRow``).  Both pair words must be in-vocabulary, since an
    unknown anchor has no relatedness distribution of its own.
    """
    if not 0 <= pun_position < len(tokens):
        raise ValueError(f"pun_position {pun_position} out of range")
    check_pair_words(pair, vocab)
    rel_pun = relatedness(vocab.id_of(pair.pun_word))
    rel_alt = relatedness(vocab.id_of(pair.alt_word))

    positions = content_positions(tokens, pun_position)
    ids = [vocab.id_of(tokens[i]) for i in positions]
    log_like_pun = math.log(PRIOR_PUN)
    log_like_alt = math.log(1.0 - PRIOR_PUN)
    distinctiveness = 0.0
    f_pun: list[float] = []
    f_alt: list[float] = []
    # one gather per table; Python floats round as numpy scalars do
    for uni, r_pun, r_alt in zip(unigram_probs[ids].tolist(),
                                 rel_pun[ids].tolist(), rel_alt[ids].tolist()):
        base = (1.0 - MIXTURE_WEIGHT) * uni
        m_pun = base + MIXTURE_WEIGHT * r_pun
        m_alt = base + MIXTURE_WEIGHT * r_alt
        log_like_pun += math.log(m_pun)
        log_like_alt += math.log(m_alt)
        f_pun.append(MIXTURE_WEIGHT * r_pun / m_pun)
        f_alt.append(MIXTURE_WEIGHT * r_alt / m_alt)
        # left to right; sum() is compensated from Python 3.12
        distinctiveness += _symmetric_kl(f_pun[-1], f_alt[-1])

    # normalize the two-point posterior in log space
    top = max(log_like_pun, log_like_alt)
    w_pun = math.exp(log_like_pun - top)
    w_alt = math.exp(log_like_alt - top)
    posterior_pun = w_pun / (w_pun + w_alt)

    return MeaningReport(
        posterior_pun=posterior_pun,
        ambiguity=ambiguity_of(posterior_pun),
        distinctiveness=distinctiveness,
        content_positions=positions,
        f_pun=f_pun,
        f_alt=f_alt,
    )
