"""Pun generation: retrieve a seed, swap in the pun word, insert a topic word.

Stages for a (pun word, alternative word) pair:

1. retrieve seed sentences containing the alternative word exactly once;
2. swap the alternative word for the pun word (stage SWAP);
3. tag the seed's tokens with the lexicon, then replace the leftmost noun or
   pronoun before the pun slot with a topic word predicted from the pun word
   by the distant skip-gram model, keeping only predictions the lexicon tags
   as nouns that are type-consistent with the replaced word (stage
   SWAP+TOPIC).  Seeds are plain surface lists; this is the only stage that
   tags one.  The type check is one set lookup per topic word, in the
   nouns of the replaced word's type row, which the synset graph builds
   once per (word, tag, threshold) and keeps.

A smoothing rewrite stage would slot in after topic insertion; here it is an
identity pass-through, so candidates leave stage 3 unchanged.

Candidates come out in (seed rank ascending, topic score descending) order,
and the seed and topic loops stop as soon as ``max_outputs`` candidates
exist, so later seeds are never tagged or type-checked; an optional re-rank
sorts the same capped set by surprisal ratio.  The topic filters that do
not depend on the seed (not a pair word, tagged a noun) run once per pair.
Every emitted candidate contains the pun word exactly once, the alternative
word not at all, and its topic word strictly before the pun slot.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from .corpus import UNK, Corpus, Pos, TagLexicon, tag
from .errors import UnknownWordError
from .ngram_lm import NGramModel
from .retrieval import (DEFAULT_KEEP, DEFAULT_POOL, InvertedIndex,
                        SeedCandidate, check_pool_keep, retrieve_seeds)
from .skipgram import SkipGramModel, check_topic_k
from .surprisal import (DEFAULT_WINDOW, PunOccurrence, PunPair,
                        SurprisalReport, check_window, score_occurrence)
from .wordnet import DEFAULT_THRESHOLD, SynsetGraph
# unused here; bound because perfbench/spans.py traces it under this module
from .wordnet import type_consistent  # noqa: F401

log = logging.getLogger(__name__)

STAGE_SWAP = "SWAP"
STAGE_TOPIC = "SWAP+TOPIC"

DEFAULT_TOPIC_K = 100
DEFAULT_MAX_OUTPUTS = 10

# machine-readable failure reasons
NO_SEEDS = "NO_SEEDS"
NO_TOPIC_WORDS = "NO_TOPIC_WORDS"
NO_CANDIDATES = "NO_CANDIDATES"


@dataclass
class GenerationConfig:
    pool: int = DEFAULT_POOL
    keep: int = DEFAULT_KEEP
    topic_k: int = DEFAULT_TOPIC_K
    threshold: float = DEFAULT_THRESHOLD
    max_outputs: int = DEFAULT_MAX_OUTPUTS
    window: int = DEFAULT_WINDOW
    stage: str = STAGE_TOPIC  # STAGE_SWAP stops after the swap
    rerank: bool = False

    def __post_init__(self) -> None:
        check_pool_keep(self.pool, self.keep)
        check_topic_k(self.topic_k)
        check_window(self.window)
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not 1 <= self.max_outputs <= sys.maxsize:  # islice's limit
            raise ValueError(f"max_outputs must be in [1, {sys.maxsize}], "
                             f"got {self.max_outputs}")
        if self.stage not in (STAGE_SWAP, STAGE_TOPIC):
            raise ValueError(f"unknown stage {self.stage!r}")


@dataclass
class GenerationResources:
    corpus: Corpus
    index: InvertedIndex
    skipgram: SkipGramModel | None = None
    graph: SynsetGraph | None = None
    lexicon: TagLexicon | None = None
    lm: NGramModel | None = None


@dataclass
class GenerationCandidate:
    seed_id: int
    seed_rank: int
    pun_position: int
    final_tokens: list[str]
    stage: str
    deleted_word: str | None = None
    topic_word: str | None = None
    topic_score: float | None = None
    report: SurprisalReport | None = None


@dataclass
class GenerationResult:
    pair: PunPair
    candidates: list[GenerationCandidate]
    failure: str | None = None
    warnings: list[str] = field(default_factory=list)


def swap(tokens: list[str], pair: PunPair) -> tuple[list[str], int]:
    """Replace the single occurrence of the alternative word with the pun.

    Raises ValueError unless the alternative word occurs exactly once, so
    running swap on its own output fails rather than silently no-opping.
    """
    slots = [i for i, t in enumerate(tokens) if t == pair.alt_word]
    if len(slots) != 1:
        raise ValueError(
            f"alternative word {pair.alt_word!r} occurs {len(slots)} times, need exactly 1"
        )
    out = list(tokens)
    out[slots[0]] = pair.pun_word
    return out, slots[0]


def select_deletion(tags: list[Pos], pun_position: int) -> int | None:
    """Index of the leftmost noun or pronoun strictly before the pun slot."""
    deletable = (Pos.NOUN, Pos.PRONOUN)  # once: reading a member off Pos is slow
    for i in range(pun_position):
        if tags[i] in deletable:
            return i
    return None


def insertable_topics(topics: list[tuple[str, float]], pair: PunPair,
                      lexicon: TagLexicon) -> list[tuple[str, float]]:
    """The topic predictions that may replace a word, in the same order.

    A topic word qualifies when it is neither word of the pair and the
    lexicon tags it as a noun; neither test depends on the seed.
    """
    nouns, pair_words = lexicon.tagged_nouns, (pair.pun_word, pair.alt_word)
    return [(word, score) for word, score in topics
            if word in nouns and word not in pair_words]


def topic_insert(swapped: list[str], deletion: int, deleted_tag: Pos,
                 topics: list[tuple[str, float]], graph: SynsetGraph,
                 threshold: float = DEFAULT_THRESHOLD
                 ) -> Iterator[tuple[list[str], str, float]]:
    """Topic-word insertions for one seed, lazily, in topic-score order.

    ``topics`` comes from :func:`insertable_topics`; of those, a topic word
    survives when it is type-consistent with ``swapped[deletion]``, the word
    it replaces, tagged ``deleted_tag``: when it is one of the nouns of that
    word's type row.
    """
    if not topics:
        return  # a row would answer nothing
    nouns = graph.type_row(swapped[deletion], deleted_tag, threshold).nouns
    for topic_word, score in topics:
        if topic_word in nouns:
            tokens = list(swapped)
            tokens[deletion] = topic_word
            yield tokens, topic_word, score


def _candidates(pair: PunPair, seeds: list[SeedCandidate],
                topics: list[tuple[str, float]], resources: GenerationResources,
                config: GenerationConfig) -> Iterator[GenerationCandidate]:
    """Candidates in (seed rank, topic score) order, produced lazily."""
    for seed in seeds:
        sentence = resources.corpus.by_id[seed.sent_id]
        if pair.pun_word in sentence.tokens:
            continue  # swapping would leave two pun words
        swapped, position = swap(sentence.tokens, pair)
        if config.stage == STAGE_SWAP:
            yield GenerationCandidate(
                seed_id=seed.sent_id, seed_rank=seed.rank,
                pun_position=position, final_tokens=swapped, stage=STAGE_SWAP,
            )
            continue
        tags = tag(sentence, resources.lexicon)
        deletion = select_deletion(tags, position)
        if deletion is None:
            continue
        for tokens, topic_word, score in topic_insert(
                swapped, deletion, tags[deletion], topics, resources.graph,
                config.threshold):
            yield GenerationCandidate(
                seed_id=seed.sent_id, seed_rank=seed.rank,
                pun_position=position, final_tokens=tokens, stage=STAGE_TOPIC,
                deleted_word=swapped[deletion],
                topic_word=topic_word, topic_score=score,
            )


def generate(pair: PunPair, resources: GenerationResources,
             config: GenerationConfig | None = None) -> GenerationResult:
    """Run the pipeline for one pair; see the module docstring for stages."""
    config = config or GenerationConfig()
    result = GenerationResult(pair=pair, candidates=[])

    lexicon = resources.lexicon
    if lexicon is not None:
        tag_pun = lexicon.tag_word(pair.pun_word)
        tag_alt = lexicon.tag_word(pair.alt_word)
        if tag_pun != tag_alt:
            message = (
                f"pair words disagree on part of speech: "
                f"{pair.pun_word}={tag_pun.name}, {pair.alt_word}={tag_alt.name}"
            )
            log.warning(message)
            result.warnings.append(message)

    seeds = retrieve_seeds(resources.index, pair.alt_word,
                           pool=config.pool, keep=config.keep)
    if not seeds:
        result.failure = NO_SEEDS
        return result

    topics: list[tuple[str, float]] = []
    if config.stage == STAGE_TOPIC:
        if resources.skipgram is None or resources.graph is None or lexicon is None:
            raise ValueError(
                "topic stage needs skip-gram, synset graph, and lexicon resources"
            )
        if pair.pun_word != UNK:  # the unknown-word symbol is no word of its own
            try:
                topics = resources.skipgram.predict_topics(pair.pun_word, config.topic_k)
            except UnknownWordError:
                pass
        if not topics:
            result.failure = NO_TOPIC_WORDS
            return result
        topics = insertable_topics(topics, pair, lexicon)

    result.candidates = list(islice(
        _candidates(pair, seeds, topics, resources, config), config.max_outputs))
    if not result.candidates:
        result.failure = NO_CANDIDATES
        return result

    if resources.lm is not None:
        for cand in result.candidates:
            cand.report = score_occurrence(
                resources.lm,
                PunOccurrence(cand.final_tokens, cand.pun_position),
                pair, config.window,
            )
        if config.rerank:
            result.candidates.sort(
                key=lambda c: c.report.s_ratio, reverse=True
            )
    elif config.rerank:
        raise ValueError("re-ranking needs a language model resource")
    return result
