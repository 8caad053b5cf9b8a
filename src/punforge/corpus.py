"""Corpus ingestion: tokenization, sentence splitting, vocabulary, POS tags.

Conventions, fixed once and used everywhere downstream:

* text is lowercased unconditionally;
* punctuation characters become their own tokens;
* sentences end at ASCII terminal punctuation (``.`` ``!`` ``?``) followed by
  whitespace, and at every newline;
* the vocabulary assigns ids by descending frequency, ties broken
  lexicographically, with id 0 reserved for the unknown-word symbol;
* words rarer than ``min_count`` map to the unknown id, whose stored count is
  the number of out-of-vocabulary token instances;
* a sentence's tokens are its surface strings; no tag is kept with them.

Tagging is lexicon lookup, not context disambiguation: a closed pronoun list
wins, then noun-index membership, then verb-index membership, else OTHER.
:func:`tag` tags one sentence when generation rewrites it; the tags of
pre-tagged input are checked and then dropped.
"""

from __future__ import annotations

import functools
import hashlib
import io
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import binio
from .errors import FormatError, ResourceError, open_text

CORPUS_MAGIC = b"PGC8"

UNK = "<unk>"
DEFAULT_MIN_COUNT = 1

# Closed class used for the PRONOUN tag.  Indefinite pronouns are included
# because they behave like person-denoting noun phrases downstream.
PRONOUNS = frozenset(
    """
    i you he she it we they me him her us them
    myself yourself himself herself itself ourselves themselves
    someone anyone everyone nobody
    """.split()
)

# A word token is letters/digits with optional internal apostrophe groups;
# any other non-space character stands alone.
_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")
_SENT_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+")


class Pos(Enum):
    UNKNOWN = 0
    NOUN = 1
    PRONOUN = 2
    VERB = 3
    OTHER = 4

    # Members are singletons that compare by identity, so the identity hash
    # agrees with ``==``; it runs in C, where Enum's hashes the name in Python.
    __hash__ = object.__hash__


# Reading a member off Pos takes about 120 ns on Python 3.11, a module global
# under 10 ns; ``TagLexicon.tag_word`` runs once per seed token.
_NOUN, _PRONOUN, _VERB, _OTHER = Pos.NOUN, Pos.PRONOUN, Pos.VERB, Pos.OTHER


@dataclass
class Sentence:
    sent_id: int
    tokens: list[str]  # surface strings

    def surfaces(self) -> list[str]:
        """The token list itself, not a copy."""
        return self.tokens


def tokenize(text: str) -> list[str]:
    """Lowercase and split; punctuation marks come out as single tokens."""
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    """Split raw text into sentence strings.

    Newlines always end a sentence; within a line, terminal punctuation
    followed by whitespace ends one.  Empty pieces are dropped.
    """
    pieces: list[str] = []
    for line in text.splitlines():
        for piece in _SENT_BOUNDARY_RE.split(line):
            piece = piece.strip()
            if piece:
                pieces.append(piece)
    return pieces


def check_min_count(min_count: int) -> None:
    """Raise ValueError unless ``min_count`` is a usable frequency floor."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")


class Vocabulary:
    """Frequency-ordered word/id mapping with a reserved unknown id.

    Ids are assigned by descending corpus frequency, ties broken
    lexicographically, starting at 1; id 0 is always the unknown symbol.
    Lookups for unmapped words return the unknown id rather than raising.
    """

    def __init__(self, counts: dict[str, int], min_count: int = DEFAULT_MIN_COUNT):
        check_min_count(min_count)
        kept = {w: c for w, c in counts.items() if c >= min_count and w != UNK}
        dropped = sum(c for w, c in counts.items() if w not in kept)
        ranked = sorted(kept.items())
        ranked.sort(key=itemgetter(1), reverse=True)  # stable: ties stay by word
        self._words: list[str] = [UNK, *map(itemgetter(0), ranked)]
        self._counts: list[int] = [dropped, *map(itemgetter(1), ranked)]
        self._ids: dict[str, int] = {w: i for i, w in enumerate(self._words)}

    unk_id = 0

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def id_of(self, word: str) -> int:
        return self._ids.get(word, self.unk_id)

    def count_of_id(self, idx: int) -> int:
        return self._counts[idx]

    @property
    def words(self) -> list[str]:
        """The words in id order: the list itself, not a copy."""
        return self._words

    @property
    def counts(self) -> list[int]:
        """The counts in id order: the list itself, not a copy."""
        return self._counts

    @property
    def total_count(self) -> int:
        return sum(self._counts)

    def encode(self, surfaces: Iterable[str]) -> list[int]:
        return list(map(self._ids.get, surfaces, repeat(self.unk_id)))

    def encode_sentences(self, sentences: Iterable) -> list[list[int]]:
        """Id lists for Sentence objects; id sequences pass through as lists."""
        return [self.encode(s.tokens) if isinstance(s, Sentence) else list(s)
                for s in sentences]

    def items(self) -> Iterator[tuple[str, int, int]]:
        """Yield (word, id, count) in id order."""
        for i, (w, c) in enumerate(zip(self._words, self._counts)):
            yield w, i, c

    # the hash, kept once known
    _hash: bytes | None = None

    def hash_bytes(self) -> bytes:
        if self._hash is None:
            self._hash = _vocab_hash(self._words, self._counts)
        return self._hash


class TagLexicon:
    """Word-level tag lookup: pronoun list plus noun/verb index membership."""

    def __init__(self, nouns: Iterable[str] = (), verbs: Iterable[str] = (),
                 pronouns: Iterable[str] = PRONOUNS):
        self.nouns = frozenset(nouns)
        self.verbs = frozenset(verbs)
        self.pronouns = frozenset(pronouns)

    @functools.cached_property
    def tagged_nouns(self) -> frozenset[str]:
        """The words :meth:`tag_word` tags NOUN, built on first use."""
        return self.nouns - self.pronouns

    def tag_word(self, word: str) -> Pos:
        if word in self.pronouns:
            return _PRONOUN
        if word in self.nouns:
            return _NOUN
        if word in self.verbs:
            return _VERB
        return _OTHER


def tag(sentence: Sentence, lexicon: TagLexicon) -> list[Pos]:
    """The lexicon's tag for each token of the sentence."""
    return [lexicon.tag_word(t) for t in sentence.tokens]


def _parse_tagged_line(line: str, lineno: int, sent_id: int) -> Sentence:
    """A pre-tagged line's sentence; its tags are checked, then dropped."""
    tokens: list[str] = []
    for chunk in line.split():
        surface, sep, tag_name = chunk.rpartition("_")
        if not sep:
            raise FormatError(f"line {lineno}: token {chunk!r} lacks a _TAG suffix")
        if not surface:
            raise FormatError(f"line {lineno}: token {chunk!r} has an empty surface")
        if tag_name.upper() not in Pos.__members__:
            raise FormatError(f"line {lineno}: unknown tag {tag_name!r}")
        tokens.append(surface.lower())
    return Sentence(sent_id, tokens)


def ingest(source: str | Path | Iterable[str], min_count: int = DEFAULT_MIN_COUNT,
           tagged: bool = False) -> tuple[list[Sentence], Vocabulary]:
    """Read raw or pre-tagged text into sentences plus a vocabulary.

    ``source`` may be a path, a text blob, or an iterable of lines.  The
    pre-tagged format is one sentence per line with ``surface_TAG`` tokens.
    Sentence ids number the sentences in input order starting at 0.
    """
    if isinstance(source, Path):
        with open_text(source) as fh:
            text = fh.read()
    elif isinstance(source, str):
        text = source
    else:
        text = "\n".join(source)

    sentences: list[Sentence] = []
    if tagged:
        sent_id = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            sentences.append(_parse_tagged_line(line, lineno, sent_id))
            sent_id += 1
    else:
        for sent_id, piece in enumerate(split_sentences(text)):
            sentences.append(Sentence(sent_id, tokenize(piece)))

    counts = Counter(chain.from_iterable(s.tokens for s in sentences))
    return sentences, Vocabulary(counts, min_count=min_count)


# --- binary container ------------------------------------------------------
#
# Layout (binio blocks): magic PGC8, hashed vocabulary (see write_vocab),
# surface table (a string table), then one array each of sentence ids,
# lengths, and every token's surface-table index.  Sentences keep their full
# surfaces so that rare words survive a min_count-collapsed vocabulary.  POS
# tags are not stored: generation tags each seed with its dictionary.  The
# inverted index is not stored either: it is derived from these arrays, each
# term's postings when first looked up.

Postings = Mapping[str, list[tuple[int, tuple[int, ...]]]]


@dataclass
class Corpus:
    """``postings`` is ``None`` only for a corpus built in memory."""

    sentences: list[Sentence]
    vocab: Vocabulary
    postings: Postings | None = None

    @functools.cached_property
    def by_id(self) -> dict[int, Sentence]:
        """Sentences keyed by id, built on first use of an unchanging corpus."""
        return {s.sent_id: s for s in self.sentences}


class PostingsView(Postings):
    """Every surface's postings, derived from the flat sentence arrays.

    Terms come in surface-table order, entries in sentence order, positions
    ascending.  One sort of (surface index, token index) keys runs here; a
    term's entries are sliced out of it on its first lookup and kept, so a
    command pays only for the terms it looks up.  The view is read-only and
    equals the dict of the same entries.
    """

    def __init__(self, sent_ids: np.ndarray, lengths: np.ndarray,
                 surface_idx: np.ndarray, surfaces: list[str]):
        n = len(surface_idx)
        keys = np.sort(surface_idx.astype(np.int64) << 32 | np.arange(n))
        self._tokens = keys & 0xFFFFFFFF  # token indices, grouped by term
        counts = np.bincount(surface_idx, minlength=len(surfaces))
        self._starts = np.r_[0, np.cumsum(counts)].tolist()  # of each term's group
        self._ends = np.cumsum(lengths, dtype=np.int64)  # of each sentence's tokens
        self._firsts = self._ends - lengths
        self._sent_ids = sent_ids
        self._terms = {surfaces[t]: t for t in np.flatnonzero(counts).tolist()}
        self._built: dict[str, list[tuple[int, tuple[int, ...]]]] = {}

    def __getitem__(self, term: str) -> list[tuple[int, tuple[int, ...]]]:
        entries = self._built.get(term)
        if entries is None:
            t = self._terms[term]
            tokens = self._tokens[self._starts[t]:self._starts[t + 1]]
            rows = np.searchsorted(self._ends, tokens, side="right")
            first = np.flatnonzero(np.diff(rows, prepend=-1))  # each entry's first token
            positions = tuple((tokens - self._firsts[rows]).tolist())
            entries = list(zip(self._sent_ids[rows[first]].tolist(),
                               binio.split(positions, np.diff(first, append=len(rows)))))
            self._built[term] = entries
        return entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: object) -> bool:
        return term in self._terms


def _number_surfaces(sentences: Iterable[Sentence]) -> tuple[list[str], list[int]]:
    """The distinct surfaces in order of first appearance, and each token's
    index into that table."""
    table: dict[str, int] = {}
    idx = [table.setdefault(t, len(table)) for s in sentences for t in s.tokens]
    return list(table), idx


def postings_of(sentences: Sequence[Sentence]) -> PostingsView:
    """The postings of ``sentences``, keyed by surface in order of first
    appearance, as :func:`load_corpus` derives them from a saved corpus."""
    surfaces, surface_idx = _number_surfaces(sentences)
    return PostingsView(np.array([s.sent_id for s in sentences], dtype=np.int64),
                        np.array([len(s.tokens) for s in sentences], dtype=np.int64),
                        np.array(surface_idx, dtype=np.int64), surfaces)


def _write_words_and_counts(fh: BinaryIO, words: Sequence[str],
                            counts: Sequence[int]) -> None:
    """The embedded vocabulary's blocks: the words as a string table in id
    order, then the counts as a ``<u8`` array."""
    binio.write_strings(fh, words)
    binio.write_array(fh, counts, "<u8")


def _vocab_hash(words: Sequence[str], counts: Sequence[int]) -> bytes:
    """The first 16 bytes of the sha256 of the blocks a file embeds."""
    fh = io.BytesIO()
    _write_words_and_counts(fh, words, counts)
    return hashlib.sha256(fh.getvalue()).digest()[:16]


def write_vocab(fh: BinaryIO, vocab: Vocabulary) -> None:
    """Embed a vocabulary: its hash, then its words and counts."""
    binio.write_array(fh, list(vocab.hash_bytes()), "u1")
    _write_words_and_counts(fh, vocab._words, vocab._counts)


def read_vocab(fh: BinaryIO, what: str = "model",
               expected_hash: bytes | None = None) -> Vocabulary:
    """Read what :func:`write_vocab` wrote.  A stored hash other than
    ``expected_hash`` is a ResourceError, raised before the words are read;
    words and counts that fail the stored hash, differ in number, repeat a
    word or do not start with the unknown symbol are a ValueError."""
    stored = binio.read_array(fh, "u1").tobytes()
    if expected_hash is not None and stored != expected_hash:
        raise ResourceError(f"{what} was trained on a different vocabulary "
                            f"({fh.name}); retrain or pass matching resources")
    words = binio.read_strings(fh)
    counts = binio.read_array(fh, "<u8").tolist()
    if _vocab_hash(words, counts) != stored:
        raise ValueError("embedded vocabulary is corrupt")
    ids = {w: i for i, w in enumerate(words)}
    if len(counts) != len(words):
        raise ValueError(f"embedded vocabulary has {len(words)} words "
                         f"but {len(counts)} counts")
    if words[:1] != [UNK]:
        raise ValueError(f"embedded vocabulary must start with {UNK!r} at id 0")
    if len(ids) != len(words):
        word = next(w for i, w in enumerate(words) if ids[w] != i)
        raise ValueError(f"repeated vocabulary word {word!r} at id {ids[word]}")
    vocab = Vocabulary.__new__(Vocabulary)
    vocab._words, vocab._counts, vocab._ids, vocab._hash = words, counts, ids, stored
    return vocab


def save_corpus(path: str | Path, corpus: Corpus) -> None:
    """Write ``corpus``'s vocabulary and sentences; load derives its postings."""
    surfaces, surface_idx = _number_surfaces(corpus.sentences)
    with binio.writing(path, CORPUS_MAGIC) as fh:
        write_vocab(fh, corpus.vocab)
        binio.write_strings(fh, surfaces)
        binio.write_array(fh, [s.sent_id for s in corpus.sentences], "<u4")
        binio.write_array(fh, [len(s.tokens) for s in corpus.sentences], "<u4")
        binio.write_array(fh, surface_idx, "<u4")


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file and check that its arrays agree; its postings are
    derived as they are looked up."""
    with binio.reading(path, CORPUS_MAGIC, "corpus") as fh:
        vocab = read_vocab(fh, what="corpus")
        surfaces = binio.read_strings(fh)
        sent_ids, lengths, surface_idx = (binio.read_array(fh, "<u4")
                                          for _ in range(3))
        if not (len(sent_ids) == len(lengths) == len(np.unique(sent_ids))
                and lengths.sum(dtype=np.int64) == len(surface_idx)
                and len(set(surfaces)) == len(surfaces)
                and (surface_idx < len(surfaces)).all()):
            raise ValueError("sentence arrays disagree")
    tokens = np.array(surfaces, dtype=object)[surface_idx].tolist()
    sentences = list(map(Sentence, sent_ids.tolist(), binio.split(tokens, lengths)))
    return Corpus(sentences, vocab,
                  PostingsView(sent_ids, lengths, surface_idx, surfaces))
