"""Pun scoring and generation from a plain text corpus.

The package scores how pun-like a sentence is by comparing the local and
global surprisal of a phonetically confusable word pair under an n-gram
language model, and generates new puns by retrieving sentences that contain
the alternative word, swapping in the pun word, and planting a supporting
topic word predicted by long-range skip-gram embeddings.
"""

from .corpus import (Corpus, Pos, Sentence, TagLexicon, Vocabulary, ingest,
                     load_corpus, save_corpus, split_sentences, tag, tokenize)
from .errors import (FormatError, PunforgeError, ResourceError, TrainingError,
                     UnknownWordError)
from .generator import (GenerationCandidate, GenerationConfig,
                        GenerationResources, GenerationResult, generate,
                        insertable_topics, select_deletion, swap,
                        topic_insert)
from .kao import MeaningReport, ambiguity_of, meaning_report
from .ngram_lm import NGramModel, estimate_discounts, train_lm
from .retrieval import InvertedIndex, SeedCandidate, build_index, retrieve_seeds
from .skipgram import (SkipGramConfig, SkipGramModel, extract_pairs,
                       train_skipgram)
from .stats import (RatingsTable, clip_standardize, filter_raters, item_means,
                    permutation_pvalue, spearman, zscore_raters)
from .surprisal import (PunOccurrence, PunPair, SurprisalReport, local_global,
                        s_ratio, score_occurrence, surprisal)
from .wordnet import SynsetGraph, load_wordnet

__version__ = "0.1.0"

__all__ = [
    "Corpus", "Pos", "Sentence", "TagLexicon", "Vocabulary", "ingest",
    "load_corpus", "save_corpus", "split_sentences", "tag", "tokenize",
    "FormatError", "PunforgeError", "ResourceError", "TrainingError",
    "UnknownWordError",
    "GenerationCandidate", "GenerationConfig", "GenerationResources",
    "GenerationResult", "generate", "insertable_topics", "select_deletion",
    "swap", "topic_insert",
    "MeaningReport", "ambiguity_of", "meaning_report",
    "NGramModel", "estimate_discounts", "train_lm",
    "InvertedIndex", "SeedCandidate", "build_index", "retrieve_seeds",
    "SkipGramConfig", "SkipGramModel", "extract_pairs", "train_skipgram",
    "RatingsTable", "clip_standardize", "filter_raters", "item_means",
    "permutation_pvalue", "spearman", "zscore_raters",
    "PunOccurrence", "PunPair", "SurprisalReport", "local_global", "s_ratio",
    "score_occurrence", "surprisal",
    "SynsetGraph", "load_wordnet",
    "__version__",
]
