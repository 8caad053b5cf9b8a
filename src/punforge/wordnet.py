"""WordNet 3.x database parsing and taxonomy similarity.

Reads the plain-text database pair files (``index.noun``/``data.noun`` and,
when present, the verb pair) straight from a dictionary directory; no
third-party reader is involved.  Only lemma membership, sense order, and
hypernym pointers (``@`` and instance ``@i``) are kept.

Similarity is over the undirected hypernym graph: every synset without a
hypernym is attached to a per-part-of-speech virtual root, and

    path_similarity(a, b) = 1 / (1 + shortest_path_length(a, b))

so identical synsets score 1 and unreachable pairs (different parts of
speech) score 0.  ``type_consistent`` asks whether any sense pair of two
words clears a similarity threshold strictly; pronouns stand in for the
first sense of "person".  Similarity clears a threshold exactly when the
distance is at most ``max_passing_distance``, so the graph answers every
question about one word from its type row: one breadth-first search from
all of its senses to that depth gives the ball of synsets in reach, and a
synset to noun-lemma index gives the nouns with a sense in the ball.  Rows
are kept on the graph by (word, tag, threshold), one row for all pronouns.

Index file grammar (one line per lemma, license header indented):

    lemma pos synset_cnt p_cnt [ptr_symbol...] sense_cnt tagsense_cnt
    synset_offset [synset_offset...]

Data file grammar (offsets are 8 digits, w_cnt is 2-digit hex, p_cnt is
3-digit decimal, pointer target pos and 4-hex source/target follow each
pointer symbol):

    synset_offset lex_filenum ss_type w_cnt word lex_id [word lex_id...]
    p_cnt [ptr_symbol synset_offset pos source/target...] | gloss
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Pos
from .errors import FormatError, ResourceError, open_text

NOUN = "n"
VERB = "v"
DEFAULT_THRESHOLD = 0.3

HYPERNYM_SYMBOLS = {"@", "@i"}

log = logging.getLogger(__name__)

# Entries a graph's type rows may hold before they are all cleared: each
# row is one entry, plus one per synset and noun lemma it holds.  On rows of
# a few dozen entries an entry takes about 80 bytes (set slots, and the row's
# own sets and key; the synsets and strings belong to the graph), so full
# rows hold about 5 MiB.  A row larger than the limit is kept alone until
# the next one is built.
TYPE_MEMO_LIMIT = 1 << 16
# Distance bounds above this search the whole graph instead; any graph that
# fits in memory has shorter paths, and the float arithmetic of the bound
# stays exact below it.
_BOUND_CUTOFF = 1 << 32

# (pos, offset) identifies a synset; offset -1 is the virtual root of a pos.
Synset = tuple[str, int]


def virtual_root(pos: str) -> Synset:
    return (pos, -1)


@dataclass(frozen=True, slots=True)
class TypeRow:
    """What passes the type check against one word at one threshold:
    ``ball`` holds every synset within the passing distance of one of the
    word's senses, and ``nouns`` every noun lemma with a sense in the ball."""

    ball: frozenset[Synset]
    nouns: frozenset[str]


@dataclass
class SynsetGraph:
    """Hypernym graph plus lemma index for one or more parts of speech."""

    hypernyms: dict[Synset, tuple[Synset, ...]]
    senses: dict[tuple[str, str], tuple[Synset, ...]]  # (lemma, pos) -> sense order
    version: str = "unversioned"
    _adjacency: dict[Synset, set[Synset]] = field(init=False, repr=False,
                                                  compare=False)
    # type rows keyed by (word, tag, threshold), and the entries they hold
    _type_rows: dict[tuple[str | None, Pos, float], TypeRow] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _type_row_entries: int = field(default=0, init=False, repr=False,
                                   compare=False)
    type_rows_built: int = field(default=0, init=False, repr=False,
                                 compare=False)
    type_row_lookups: int = field(default=0, init=False, repr=False,
                                  compare=False)
    # (synsets, noun lemmas) of the largest row built, by synsets first
    largest_type_row: tuple[int, int] = field(default=(0, 0), init=False,
                                              repr=False, compare=False)

    def __post_init__(self) -> None:
        adj: dict[Synset, set[Synset]] = {s: set() for s in self.hypernyms}
        for synset, parents in self.hypernyms.items():
            if parents:
                for parent in parents:
                    if parent not in self.hypernyms:
                        raise FormatError(
                            f"hypernym pointer to unknown synset {parent}"
                        )
                    adj[synset].add(parent)
                    adj[parent].add(synset)
            else:
                root = virtual_root(synset[0])
                adj.setdefault(root, set()).add(synset)
                adj[synset].add(root)
        self._adjacency = adj

    def noun_lemmas(self) -> frozenset[str]:
        return frozenset(lemma for lemma, pos in self.senses if pos == NOUN)

    def verb_lemmas(self) -> frozenset[str]:
        return frozenset(lemma for lemma, pos in self.senses if pos == VERB)

    def person_synset(self) -> Synset:
        senses = self.senses.get(("person", NOUN))
        if not senses:
            raise ResourceError(
                "noun database has no 'person' entry; pronoun mapping is impossible"
            )
        return senses[0]

    def synsets_of(self, word: str, tag: Pos) -> list[Synset]:
        """Senses of a word under a tag; pronouns map to person, sense 1."""
        if tag == Pos.PRONOUN:
            return [self.person_synset()]
        if tag == Pos.NOUN:
            return list(self.senses.get((word, NOUN), ()))
        if tag == Pos.VERB:
            return list(self.senses.get((word, VERB), ()))
        return []

    @functools.cached_property
    def _noun_lemmas_by_synset(self) -> dict[Synset, list[str]]:
        index: dict[Synset, list[str]] = {}
        for (lemma, pos), synsets in self.senses.items():
            if pos == NOUN:
                for synset in synsets:
                    index.setdefault(synset, []).append(lemma)
        return index

    def type_row(self, word: str, tag: Pos, threshold: float) -> TypeRow:
        """The type row of ``word`` under ``tag`` at ``threshold``.

        A row is built on first use and kept until the rows reach
        ``TYPE_MEMO_LIMIT`` entries, when they are all cleared.  Every
        pronoun has the senses of "person", so pronouns share one row.
        """
        self.type_row_lookups += 1
        key = (None if tag == Pos.PRONOUN else word, tag, threshold)
        row = self._type_rows.get(key)
        if row is None:
            row = self._build_type_row(word, tag, threshold)
            size = 1 + len(row.ball) + len(row.nouns)
            if self._type_row_entries + size > TYPE_MEMO_LIMIT:
                self._type_rows.clear()
                self._type_row_entries = 0
            self._type_rows[key] = row
            self._type_row_entries += size
            self.type_rows_built += 1
            self.largest_type_row = max(self.largest_type_row,
                                        (len(row.ball), len(row.nouns)))
        return row

    def _build_type_row(self, word: str, tag: Pos, threshold: float) -> TypeRow:
        """One breadth-first search from every sense of ``word`` at once."""
        sources = self.synsets_of(word, tag)
        depth = max_passing_distance(threshold)  # None: the whole component
        ball = set(sources) if depth != -1 else set()
        frontier, adj = ball, self._adjacency
        while frontier and depth != 0:
            frontier = {nxt for node in frontier for nxt in adj[node]
                        if nxt not in ball}
            ball |= frontier
            depth = None if depth is None else depth - 1
        lemmas = self._noun_lemmas_by_synset
        return TypeRow(frozenset(ball), frozenset(itertools.chain.from_iterable(
            lemmas.get(synset, ()) for synset in ball)))

    def log_type_row_counts(self) -> None:
        """Log at INFO how many type rows were built and reused, and the
        size of the largest."""
        synsets, nouns = self.largest_type_row
        log.info("type rows: %d built, %d reused; largest %d synsets, "
                 "%d noun lemmas", self.type_rows_built,
                 self.type_row_lookups - self.type_rows_built, synsets, nouns)

    def shortest_path(self, a: Synset, b: Synset) -> int | None:
        """Undirected BFS distance through hypernym edges and virtual roots."""
        for node in (a, b):
            if node not in self._adjacency:
                raise ValueError(f"unknown synset {node}")
        if a == b:
            return 0
        seen = {a}
        queue = deque([(a, 0)])
        while queue:
            node, dist = queue.popleft()
            for nxt in self._adjacency[node]:
                if nxt in seen:
                    continue
                if nxt == b:
                    return dist + 1
                seen.add(nxt)
                queue.append((nxt, dist + 1))
        return None


def path_similarity(graph: SynsetGraph, a: Synset, b: Synset) -> float:
    """1 / (1 + distance); 0 when no path connects the synsets."""
    dist = graph.shortest_path(a, b)
    if dist is None:
        return 0.0
    return 1.0 / (1.0 + dist)


def max_passing_distance(threshold: float) -> int | None:
    """Largest distance d with ``1 / (1 + d) > threshold``.

    -1 when no distance passes (threshold 1 or more, or NaN); None when the
    bound is too large to matter, so a search should not be cut short.
    A negative threshold raises ValueError.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if not threshold < 1.0:
        return -1
    bound = 1.0 / threshold - 1.0 if threshold > 0.0 else math.inf
    if bound > _BOUND_CUTOFF:
        return None
    # d < bound in exact arithmetic; the float quotient can be off by an
    # ulp, so step to the exact edge of the comparison the caller makes.
    d = math.ceil(bound) - 1
    while d >= 0 and not 1.0 / (1.0 + d) > threshold:
        d -= 1
    while 1.0 / (2.0 + d) > threshold:
        d += 1
    return d


def type_consistent(graph: SynsetGraph, word: str, word_tag: Pos, other: str,
                    other_tag: Pos, threshold: float = DEFAULT_THRESHOLD) -> bool:
    """True if any sense pair has path similarity strictly above threshold.

    Answered from the type row of ``other``: whether it holds a sense of
    ``word``.
    """
    ball = graph.type_row(other, other_tag, threshold).ball
    return any(synset in ball for synset in graph.synsets_of(word, word_tag))


# --- database file parsing --------------------------------------------------


def _parse_data_file(path: Path, pos: str,
                     hypernyms: dict[Synset, tuple[Synset, ...]]) -> None:
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(" ") or not line.strip():
                continue  # license header
            fields = line.split()
            try:
                offset = int(fields[0])
                p_idx = 4 + 2 * int(fields[3], 16)  # past w_cnt (hex) word/lex_id pairs
                p_cnt = int(fields[p_idx])
                parents = []
                for i in range(p_cnt):
                    sym, target, target_pos, _src = fields[p_idx + 1 + 4 * i:
                                                           p_idx + 5 + 4 * i]
                    if sym in HYPERNYM_SYMBOLS:
                        parents.append((target_pos, int(target)))
            except (IndexError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed data line") from exc
            hypernyms[(pos, offset)] = tuple(parents)


def _parse_index_file(path: Path, pos: str,
                      senses: dict[tuple[str, str], tuple[Synset, ...]]) -> None:
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(" ") or not line.strip():
                continue
            fields = line.split()
            try:
                lemma = fields[0].lower()
                synset_cnt = int(fields[2])
                p_cnt = int(fields[3])
                offsets = fields[4 + p_cnt + 2:]
                if len(offsets) != synset_cnt:
                    raise ValueError("offset count mismatch")
                senses[(lemma, pos)] = tuple((pos, int(o)) for o in offsets)
            except (IndexError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed index line") from exc


def load_wordnet(dict_dir: str | Path) -> SynsetGraph:
    """Load a dictionary directory; noun files required, verb files optional.

    Raises ResourceError when the directory or the noun database is missing
    and FormatError (with file and line) on malformed content.
    """
    dict_dir = Path(dict_dir)
    if not dict_dir.is_dir():
        raise ResourceError(f"dictionary directory not found: {dict_dir}")
    hypernyms: dict[Synset, tuple[Synset, ...]] = {}
    senses: dict[tuple[str, str], tuple[Synset, ...]] = {}
    for pos in (NOUN, VERB):
        name = "noun" if pos == NOUN else "verb"
        data, index = dict_dir / f"data.{name}", dict_dir / f"index.{name}"
        if not data.is_file() or not index.is_file():
            if pos == NOUN:
                raise ResourceError(f"noun database missing under {dict_dir}")
            continue
        _parse_data_file(data, pos, hypernyms)
        _parse_index_file(index, pos, senses)
    for (lemma, pos), targets in senses.items():
        for target in targets:
            if target not in hypernyms:
                raise FormatError(
                    f"index entry {lemma!r} points at unknown synset {target}"
                )
    n_nouns = sum(1 for s in hypernyms if s[0] == NOUN)
    n_verbs = sum(1 for s in hypernyms if s[0] == VERB)
    graph = SynsetGraph(
        hypernyms, senses,
        version=f"{dict_dir.name}:{n_nouns}n+{n_verbs}v",
    )
    graph.person_synset()  # required by the pronoun mapping; fail on load
    return graph
