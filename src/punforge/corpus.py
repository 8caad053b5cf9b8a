"""Corpus ingestion: tokenization, sentence splitting, vocabulary, POS tags.

Conventions, fixed once and used everywhere downstream:

* text is lowercased unconditionally;
* punctuation characters become their own tokens;
* sentences end at ASCII terminal punctuation (``.`` ``!`` ``?``) followed by
  whitespace, and at every newline;
* the vocabulary assigns ids by descending frequency, ties broken
  lexicographically, with id 0 reserved for the unknown-word symbol;
* words rarer than ``min_count`` map to the unknown id, whose stored count is
  the number of out-of-vocabulary token instances.

Tagging is lexicon lookup, not context disambiguation: a closed pronoun list
wins, then noun-index membership, then verb-index membership, else OTHER.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

import numpy as np

from . import binio
from .errors import FormatError, ResourceError, open_text

if TYPE_CHECKING:
    from .retrieval import InvertedIndex

log = logging.getLogger(__name__)

CORPUS_MAGIC = b"PGC3"

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


@dataclass(frozen=True)
class Token:
    surface: str
    pos: Pos = Pos.UNKNOWN


@dataclass
class Sentence:
    sent_id: int
    tokens: list[Token]

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def __len__(self) -> int:
        return len(self.tokens)


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


def detokenize(sentence: Sentence) -> str:
    """Inverse of tokenization up to whitespace: join surfaces with spaces.

    For sentences produced by :func:`tokenize`, re-tokenizing the result
    yields the identical surface list.
    """
    return " ".join(t.surface for t in sentence.tokens)


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
        self._words: list[str] = [UNK]
        self._counts: list[int] = [dropped]
        for word, count in sorted(kept.items(), key=lambda kv: (-kv[1], kv[0])):
            self._words.append(word)
            self._counts.append(count)
        self._ids: dict[str, int] = {w: i for i, w in enumerate(self._words)}

    unk_id = 0

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word == UNK or (word in self._ids and self._ids[word] != self.unk_id)

    def id_of(self, word: str) -> int:
        return self._ids.get(word, self.unk_id)

    def word_of(self, idx: int) -> str:
        return self._words[idx]

    def count_of(self, word: str) -> int:
        return self._counts[self.id_of(word)]

    def count_of_id(self, idx: int) -> int:
        return self._counts[idx]

    @property
    def total_count(self) -> int:
        return sum(self._counts)

    def encode(self, surfaces: Iterable[str]) -> list[int]:
        return [self.id_of(s) for s in surfaces]

    def encode_sentences(self, sentences: Iterable) -> list[list[int]]:
        """Id lists for Sentence objects; id sequences pass through as lists."""
        return [self.encode(s.surfaces()) if isinstance(s, Sentence) else list(s)
                for s in sentences]

    def items(self) -> Iterator[tuple[str, int, int]]:
        """Yield (word, id, count) in id order."""
        for i, (w, c) in enumerate(zip(self._words, self._counts)):
            yield w, i, c

    def dump_lines(self) -> list[str]:
        return [f"{w}\t{i}\t{c}" for w, i, c in self.items()]

    def hash_bytes(self) -> bytes:
        text = "".join(line + "\n" for line in self.dump_lines())
        return hashlib.sha256(text.encode("utf-8")).digest()[:16]

    def save_text(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.dump_lines()) + "\n", encoding="utf-8")

    @classmethod
    def from_dump_lines(cls, lines: Iterable[str]) -> "Vocabulary":
        vocab = cls.__new__(cls)
        vocab._words, vocab._counts = [], []
        for lineno, line in enumerate(lines):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                word, idx_s, count_s = line.split("\t")
                idx, count = int(idx_s), int(count_s)
            except ValueError as exc:
                raise FormatError(f"bad vocabulary line {lineno + 1}: {line!r}") from exc
            if idx != len(vocab._words) or count < 0:
                raise FormatError(f"bad vocabulary id or count at line {lineno + 1}")
            vocab._words.append(word)
            vocab._counts.append(count)
        if not vocab._words or vocab._words[0] != UNK:
            raise FormatError(f"vocabulary must start with {UNK!r} at id 0")
        vocab._ids = {w: i for i, w in enumerate(vocab._words)}
        return vocab

    @classmethod
    def load_text(cls, path: str | Path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dump_lines(fh)


class TagLexicon:
    """Word-level tag lookup: pronoun list plus noun/verb index membership."""

    def __init__(self, nouns: Iterable[str] = (), verbs: Iterable[str] = (),
                 pronouns: Iterable[str] = PRONOUNS):
        self.nouns = frozenset(nouns)
        self.verbs = frozenset(verbs)
        self.pronouns = frozenset(pronouns)

    def tag_word(self, word: str) -> Pos:
        if word in self.pronouns:
            return Pos.PRONOUN
        if word in self.nouns:
            return Pos.NOUN
        if word in self.verbs:
            return Pos.VERB
        return Pos.OTHER


def tag(sentence: Sentence, lexicon: TagLexicon) -> Sentence:
    """Return a copy of the sentence with lexicon-assigned tags."""
    return Sentence(
        sentence.sent_id,
        [Token(t.surface, lexicon.tag_word(t.surface)) for t in sentence.tokens],
    )


def _parse_tagged_line(line: str, lineno: int, sent_id: int) -> Sentence:
    tokens: list[Token] = []
    for chunk in line.split():
        surface, sep, tag_name = chunk.rpartition("_")
        if not sep:
            raise FormatError(f"line {lineno}: token {chunk!r} lacks a _TAG suffix")
        try:
            pos = Pos[tag_name.upper()]
        except KeyError:
            raise FormatError(f"line {lineno}: unknown tag {tag_name!r}") from None
        tokens.append(Token(surface.lower(), pos))
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
            sentences.append(
                Sentence(sent_id, [Token(s) for s in tokenize(piece)])
            )

    counts: Counter[str] = Counter()
    for sentence in sentences:
        counts.update(t.surface for t in sentence.tokens)
    return sentences, Vocabulary(counts, min_count=min_count)


# --- binary container ------------------------------------------------------
#
# Layout (binio blocks): magic PGC3, flags byte (bit 0: postings present),
# hashed vocabulary (see write_vocab), surface table, then one array each of
# sentence ids, lengths, and every token's surface-table index and POS code.
# Postings are the terms' surface indexes, entries per term, each entry's
# sentence row and position count, and the positions.  Sentences keep their full surfaces so
# that rare words survive a min_count-collapsed vocabulary.

Postings = dict[str, list[tuple[int, tuple[int, ...]]]]


@dataclass
class Corpus:
    sentences: list[Sentence]
    vocab: Vocabulary
    postings: Postings | None = None

    @functools.cached_property
    def by_id(self) -> dict[int, Sentence]:
        """Sentences keyed by id, built on first use of an unchanging corpus."""
        return {s.sent_id: s for s in self.sentences}

    def inverted_index(self) -> "InvertedIndex":
        """The stored postings as an index, or one built from the sentences."""
        from .retrieval import InvertedIndex, build_index

        if self.postings is None:
            log.info("corpus has no index section; building one in memory")
            return build_index(self.sentences)
        return InvertedIndex(self.postings,
                             {i: len(s) for i, s in self.by_id.items()})


def write_vocab(fh: BinaryIO, vocab: Vocabulary) -> None:
    """Embed a vocabulary: its hash, then its dump lines."""
    binio.write_array(fh, list(vocab.hash_bytes()), "u1")
    binio.write_strings(fh, vocab.dump_lines())


def read_vocab(fh: BinaryIO, what: str = "model",
               expected_hash: bytes | None = None) -> Vocabulary:
    """Read what :func:`write_vocab` wrote; a stored hash other than
    ``expected_hash`` is a ResourceError, lines that fail it a FormatError."""
    stored = binio.read_array(fh, "u1").tobytes()
    if expected_hash is not None and stored != expected_hash:
        raise ResourceError(f"{what} was trained on a different vocabulary "
                            f"({fh.name}); retrain or pass matching resources")
    vocab = Vocabulary.from_dump_lines(binio.read_strings(fh))
    if vocab.hash_bytes() != stored:
        raise FormatError(f"embedded vocabulary is corrupt in {fh.name}")
    return vocab


def save_corpus(path: str | Path, corpus: Corpus) -> None:
    """Write ``corpus``; its postings must refer to its own sentences."""
    surfaces: dict[str, int] = {}
    tokens = [t for s in corpus.sentences for t in s.tokens]
    surface_idx = [surfaces.setdefault(t.surface, len(surfaces)) for t in tokens]
    with open(path, "wb") as fh:
        fh.write(CORPUS_MAGIC)
        binio.pack(fh, "<B", 0 if corpus.postings is None else 1)
        write_vocab(fh, corpus.vocab)
        binio.write_strings(fh, list(surfaces))  # insertion order == index order
        binio.write_array(fh, [s.sent_id for s in corpus.sentences], "<u4")
        binio.write_array(fh, [len(s.tokens) for s in corpus.sentences], "<u4")
        binio.write_array(fh, surface_idx, "<u4")
        binio.write_array(fh, [t.pos.value for t in tokens], "u1")
        if corpus.postings is not None:
            terms = sorted(corpus.postings)
            entries = [e for term in terms for e in corpus.postings[term]]
            row_of = {s.sent_id: row for row, s in enumerate(corpus.sentences)}
            binio.write_array(fh, [surfaces[t] for t in terms], "<u4")
            binio.write_array(fh, [len(corpus.postings[t]) for t in terms], "<u4")
            binio.write_array(fh, [row_of[sent_id] for sent_id, _ in entries], "<u4")
            binio.write_array(fh, [len(ps) for _, ps in entries], "<u4")
            binio.write_array(fh, [p for _, ps in entries for p in ps], "<u4")


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file, checking that its arrays agree with each other."""
    with open(path, "rb") as fh:
        binio.check_magic(fh, CORPUS_MAGIC, "corpus")
        (flags,) = binio.unpack(fh, "<B")
        vocab = read_vocab(fh, what="corpus")
        surfaces = binio.read_strings(fh)
        sent_ids, lengths, surface_idx = (binio.read_array(fh, "<u4")
                                          for _ in range(3))
        pos_codes = binio.read_array(fh, "u1")
        if flags & 1:
            terms, n_entries, rows, n_positions, positions = (
                binio.read_array(fh, "<u4") for _ in range(5))
    if not (len(sent_ids) == len(lengths) == len(np.unique(sent_ids))
            and lengths.sum(dtype=np.int64) == len(surface_idx) == len(pos_codes)
            and (surface_idx < len(surfaces)).all()
            and (pos_codes < len(Pos)).all()):  # Pos values are 0 .. len(Pos) - 1
        raise FormatError(f"corrupt corpus file {path}: sentence arrays disagree")
    # One Token per distinct (surface, POS) pair; the sentences share them.
    keys, inverse = np.unique(surface_idx.astype(np.int64) << 8 | pos_codes,
                              return_inverse=True)
    kinds = [Token(surfaces[k >> 8], Pos(k & 0xFF)) for k in keys.tolist()]
    tokens = list(map(kinds.__getitem__, inverse.tolist()))
    sentences = list(map(Sentence, sent_ids.tolist(), binio.split(tokens, lengths)))
    if not flags & 1:
        return Corpus(sentences, vocab)

    # Each position must lie inside its entry's sentence and hold the term.
    if not (len(n_entries) == len(terms) and (terms < len(surfaces)).all()
            and (rows < len(sentences)).all()
            and n_entries.sum(dtype=np.int64) == len(rows) == len(n_positions)
            and n_positions.sum(dtype=np.int64) == len(positions)):
        raise FormatError(f"corrupt corpus file {path}: postings arrays disagree")
    row = np.repeat(rows, n_positions)
    starts = np.cumsum(lengths, dtype=np.int64) - lengths
    if not ((positions < lengths[row]).all() and (surface_idx[starts[row] + positions]
            == np.repeat(np.repeat(terms, n_entries), n_positions)).all()):
        raise FormatError(f"corrupt corpus file {path}: postings do not match "
                          f"the sentences")
    entries = list(zip(sent_ids[rows].tolist(),
                       binio.split(tuple(positions.tolist()), n_positions)))
    return Corpus(sentences, vocab, dict(zip([surfaces[t] for t in terms.tolist()],
                                             binio.split(entries, n_entries))))
