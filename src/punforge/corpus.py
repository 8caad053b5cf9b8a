"""Corpus ingestion: tokenization, sentence splitting, vocabulary, POS tags.

Conventions, fixed once and used everywhere downstream:

* text is lowercased unconditionally;
* punctuation characters become their own tokens;
* sentences end at ASCII terminal punctuation (``.`` ``!`` ``?``) followed by
  whitespace, and at every newline;
* raw text is read in one pass (``_scan``), each line's lowercased
  whitespace chunks (``str.split``) in turn.  A chunk that ``isalnum()`` is
  one token, the one match ``_TOKEN_RE`` finds in it, since ``\\w`` is
  ``isalnum()`` plus ``_`` and ``\\s`` is ``isspace()``, what ``str.split``
  splits on; any other chunk goes through ``_TOKEN_RE``, which stays the one
  definition of a token.  No token spans whitespace, and whitespace bounds
  the context that lowercasing a final sigma reads, so these are the
  regex's tokens of each lowercased sentence.  A chunk ending in ``.``,
  ``!`` or ``?`` closes the sentence, and so does the end of the line: the
  sentences are those of :func:`split_sentences`;
* the vocabulary assigns ids by descending frequency, ties broken
  lexicographically, with id 0 reserved for the unknown-word symbol;
* words rarer than ``min_count`` map to the unknown id, whose stored count is
  the number of out-of-vocabulary token instances;
* a sentence's tokens are its surface strings; no tag is kept with them;
* a corpus in memory is four arrays, as its file stores them: the surface
  table in order of first appearance, each token's index into it, the
  sentence ids and the sentence lengths.  ``ingest`` numbers each token
  into the surface table as it is seen and returns them as
  :class:`Sentences`, a read-only sequence that builds a :class:`Sentence`
  only when one is read; ``load_corpus`` returns the same view.  Indexing,
  saving and training take that view and read its arrays.

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
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import eq
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
    """Lowercase and split; punctuation marks come out as single tokens.
    The tokens are ``_TOKEN_RE``'s, found chunk by chunk as :func:`ingest`
    finds them."""
    findall = _TOKEN_RE.findall
    return [token for chunk in text.lower().split()
            for token in ((chunk,) if chunk.isalnum() else findall(chunk))]


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
        ranked = sorted(kept)
        ranked.sort(key=kept.__getitem__, reverse=True)  # stable: ties stay by word
        self._words: list[str] = [UNK, *ranked]
        self._counts: list[int] = [dropped, *map(kept.__getitem__, ranked)]
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

    def items(self) -> Iterator[tuple[str, int, int]]:
        """Yield (word, id, count) in id order."""
        for i, (w, c) in enumerate(zip(self._words, self._counts)):
            yield w, i, c

    # the blocks a file embeds (see write_vocab) and their hash, kept once known
    _blocks: bytes | None = None
    _hash: bytes | None = None

    def blocks(self) -> bytes:
        """The bytes :func:`write_vocab` writes after the hash, which hashes
        them."""
        if self._blocks is None:
            self._blocks = _vocab_blocks(self._words, self._counts)
        return self._blocks

    def hash_bytes(self) -> bytes:
        """The first 16 bytes of the sha256 of :meth:`blocks`."""
        if self._hash is None:
            self._hash = hashlib.sha256(self.blocks()).digest()[:16]
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


def _parse_tagged_line(line: str, lineno: int) -> list[str]:
    """A pre-tagged line's tokens; its tags are checked, then dropped."""
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
    return tokens


class Sentences(Sequence[Sentence]):
    """Sentences as the four arrays of a corpus file, read-only.

    ``surfaces`` holds the distinct surfaces in order of first appearance,
    ``surface_idx`` each token's index into it in corpus order, and
    ``sent_ids`` and ``lengths`` one entry per sentence.  Reading an item
    builds its Sentence; a slice is another view, its surfaces numbered
    again in order of first appearance.  A view equals every sequence of
    equal sentences.
    """

    def __init__(self, surfaces: list[str], surface_idx: np.ndarray,
                 sent_ids: np.ndarray, lengths: np.ndarray):
        self.surfaces = surfaces
        self.surface_idx = surface_idx
        self.sent_ids = sent_ids
        self.lengths = lengths
        self._ends = np.cumsum(lengths, dtype=np.int64)  # of each sentence's tokens

    @classmethod
    def number(cls, sent_ids: Sequence[int],
               token_lists: Sequence[list[str]]) -> Sentences:
        """The view of sentences given as token lists: each surface is
        numbered once, at its first appearance."""
        table: dict[str, int] = {}
        idx = [table.setdefault(t, len(table)) for tokens in token_lists for t in tokens]
        return cls(list(table), np.fromiter(idx, dtype=np.int64, count=len(idx)),
                   np.array(sent_ids, dtype=np.int64),
                   np.fromiter(map(len, token_lists), dtype=np.int64,
                               count=len(token_lists)))

    def __len__(self) -> int:
        return len(self.sent_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._select(np.arange(len(self))[i])
        row = range(len(self))[i]
        end = int(self._ends[row])
        idx = self.surface_idx[end - int(self.lengths[row]):end].tolist()
        return Sentence(int(self.sent_ids[row]), [self.surfaces[t] for t in idx])

    def _select(self, rows: np.ndarray) -> Sentences:
        """The view of the sentences in ``rows``, in that order."""
        lengths = self.lengths[rows].astype(np.int64)
        offsets = self._ends[rows] - lengths - (np.cumsum(lengths) - lengths)
        idx = self.surface_idx[np.arange(lengths.sum()) + np.repeat(offsets, lengths)]
        used, first = np.unique(idx, return_index=True)
        table = used[np.argsort(first)]  # old numbers in the new order
        renumber = np.empty(len(self.surfaces), dtype=np.int64)
        renumber[table] = np.arange(len(table))
        return Sentences([self.surfaces[t] for t in table.tolist()], renumber[idx],
                         self.sent_ids[rows], lengths)

    def __iter__(self) -> Iterator[Sentence]:
        tokens = np.array(self.surfaces, dtype=object)[self.surface_idx].tolist()
        return map(Sentence, self.sent_ids.tolist(), binio.split(tokens, self.lengths))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Sentences({list(self)!r})"

    def lengths_by_id(self) -> dict[int, int]:
        """Each sentence's length, keyed by its id."""
        return dict(zip(self.sent_ids.tolist(), self.lengths.tolist()))


def encode_corpus(sentences: Sentences,
                  vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Every token's vocabulary id end to end, and each sentence's length, as
    int64 arrays: one lookup per distinct surface, then one ``np.take``."""
    surface_ids = np.array(vocab.encode(sentences.surfaces), dtype=np.int64)
    return np.take(surface_ids, sentences.surface_idx), sentences.lengths.astype(np.int64)


def _scan(text: str) -> Sentences:
    """Raw text's sentences in one pass over its lowercased whitespace
    chunks, each token numbered as it is seen (see the module docstring)."""
    findall = _TOKEN_RE.findall
    table: dict[str, int] = {}
    number = table.setdefault
    idx: list[int] = []
    lengths: list[int] = []
    start = 0  # the first token of the open sentence
    for line in text.lower().splitlines():
        for chunk in line.split():
            if chunk.isalnum():
                idx.append(number(chunk, len(table)))
                continue
            for token in findall(chunk):
                idx.append(number(token, len(table)))
            if chunk[-1] in ".!?":
                lengths.append(len(idx) - start)
                start = len(idx)
        if len(idx) > start:
            lengths.append(len(idx) - start)
            start = len(idx)
    return Sentences(list(table), np.array(idx, dtype=np.int64),
                     np.arange(len(lengths), dtype=np.int64),
                     np.array(lengths, dtype=np.int64))


def ingest(source: str | Path | Iterable[str], min_count: int = DEFAULT_MIN_COUNT,
           tagged: bool = False) -> tuple[Sentences, Vocabulary]:
    """Read raw or pre-tagged text into sentences plus a vocabulary.

    ``source`` may be a path, a text blob, or an iterable of lines.  The
    pre-tagged format is one sentence per line with ``surface_TAG`` tokens.
    Sentence ids number the sentences in input order starting at 0.  The
    sentences come as a :class:`Sentences` view, each surface numbered once.
    """
    if isinstance(source, Path):
        with open_text(source) as fh:
            text = fh.read()
    elif isinstance(source, str):
        text = source
    else:
        text = "\n".join(source)

    if tagged:
        token_lists = [_parse_tagged_line(line, lineno)
                       for lineno, line in enumerate(text.splitlines(), start=1)
                       if line.strip()]
        sentences = Sentences.number(range(len(token_lists)), token_lists)
    else:
        sentences = _scan(text)
    counts = np.bincount(sentences.surface_idx, minlength=len(sentences.surfaces))
    return sentences, Vocabulary(dict(zip(sentences.surfaces, counts.tolist())),
                                 min_count=min_count)


# --- binary container ------------------------------------------------------
#
# Layout (binio blocks): magic PGC8, hashed vocabulary (see write_vocab),
# surface table (a string table), then one array each of sentence ids,
# lengths, and every token's surface-table index: a Sentences view's four
# arrays.  Sentences keep their full surfaces so that rare words survive a
# min_count-collapsed vocabulary.  POS tags are not stored: generation tags
# each seed with its dictionary.  The inverted index is not stored either:
# it is derived from these arrays, each term's postings when first looked up.

Postings = Mapping[str, list[tuple[int, tuple[int, ...]]]]


@dataclass
class Corpus:
    """Sentences as a :class:`Sentences` view, their vocabulary and their
    postings, derived from the view's arrays unless given."""

    sentences: Sentences
    vocab: Vocabulary
    postings: Postings | None = None

    def __post_init__(self) -> None:
        if self.postings is None:
            self.postings = PostingsView(self.sentences)

    @functools.cached_property
    def by_id(self) -> Mapping[int, Sentence]:
        """Sentences keyed by id; each is built on its first lookup and kept."""
        return _SentencesById(self.sentences)


class _SentencesById(Mapping[int, Sentence]):
    """A view's sentences keyed by id, each built on its first lookup."""

    def __init__(self, sentences: Sentences):
        self._sentences = sentences
        self._rows = dict(zip(sentences.sent_ids.tolist(), range(len(sentences))))
        self._built: dict[int, Sentence] = {}

    def __getitem__(self, sent_id: int) -> Sentence:
        sentence = self._built.get(sent_id)
        if sentence is None:
            sentence = self._built[sent_id] = self._sentences[self._rows[sent_id]]
        return sentence

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class PostingsView(Postings):
    """Every surface's postings, derived from a :class:`Sentences` view.

    Terms come in surface-table order, entries in sentence order, positions
    ascending.  Making the view computes nothing; its first use sorts
    (surface index, token index) keys once.  A term's entries are sliced out
    of them on its first lookup and kept, so a command pays only for the
    terms it looks up.  The view is read-only and equals the dict of the
    same entries.
    """

    def __init__(self, sentences: Sentences):
        self._sentences = sentences
        self._built: dict[str, list[tuple[int, tuple[int, ...]]]] = {}

    @functools.cached_property
    def _index(self) -> tuple[dict[str, int], np.ndarray, list[int]]:
        """Each surface that occurs keyed to its surface-table index, the
        token indices grouped by surface, and where each group starts."""
        s = self._sentences
        idx = s.surface_idx
        counts = np.bincount(idx, minlength=len(s.surfaces))
        keys = np.sort(idx.astype(np.int64) << 32 | np.arange(len(idx)))
        return ({s.surfaces[t]: t for t in np.flatnonzero(counts).tolist()},
                keys & 0xFFFFFFFF, np.r_[0, np.cumsum(counts)].tolist())

    def __getitem__(self, term: str) -> list[tuple[int, tuple[int, ...]]]:
        entries = self._built.get(term)
        if entries is None:
            terms, grouped, starts = self._index
            t = terms[term]
            s = self._sentences
            tokens = grouped[starts[t]:starts[t + 1]]
            rows = np.searchsorted(s._ends, tokens, side="right")
            first = np.flatnonzero(np.diff(rows, prepend=-1))  # each entry's first token
            positions = tuple((tokens - s._ends[rows] + s.lengths[rows]).tolist())
            entries = list(zip(s.sent_ids[rows[first]].tolist(),
                               binio.split(positions, np.diff(first, append=len(rows)))))
            self._built[term] = entries
        return entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._index[0])

    def __len__(self) -> int:
        return len(self._index[0])

    def __contains__(self, term: object) -> bool:
        return term in self._index[0]


def _vocab_blocks(words: Sequence[str], counts: Sequence[int]) -> bytes:
    """The embedded vocabulary's blocks: the words as a string table in id
    order, then the counts as a ``<u8`` array."""
    fh = io.BytesIO()
    binio.write_strings(fh, words)
    binio.write_array(fh, counts, "<u8")
    return fh.getvalue()


def write_vocab(fh: BinaryIO, vocab: Vocabulary) -> None:
    """Embed a vocabulary: its hash, then its words and counts."""
    binio.write_array(fh, list(vocab.hash_bytes()), "u1")
    fh.write(vocab.blocks())


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
    vocab = Vocabulary.__new__(Vocabulary)
    vocab._words, vocab._counts = words, counts
    if vocab.hash_bytes() != stored:
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
    vocab._ids = ids
    return vocab


def save_corpus(path: str | Path, corpus: Corpus) -> None:
    """Write ``corpus``'s vocabulary and its sentences' arrays; load derives
    its postings."""
    s = corpus.sentences
    with binio.writing(path, CORPUS_MAGIC) as fh:
        write_vocab(fh, corpus.vocab)
        binio.write_strings(fh, s.surfaces)
        for array in (s.sent_ids, s.lengths, s.surface_idx):
            binio.write_array(fh, array, "<u4")


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file and check that its arrays agree; its sentences are
    a :class:`Sentences` view of them, and its postings are derived as they
    are looked up."""
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
    return Corpus(Sentences(surfaces, surface_idx, sent_ids, lengths), vocab)
