"""Seeded scale inputs for the benchmark.

Everything here is a pure function of the workload seed.  The scale corpus
is the bundled demo corpus plus Zipf-like filler over a synthetic
vocabulary, with planted homophone pairs:

* seed sentences put the alternative word once, late, after a subject
  noun; their count per pair is Zipf-distributed, so the head pairs fill
  the retrieval pool and the tail pairs get a handful of seeds;
* topic sentences put the pun word at distance 5..10 from topic nouns, the
  skip-gram band, so the topic stage has predictions to check;
* subject and topic nouns of a pair are siblings in the generated
  dictionary, so some type checks pass and most fail, as with real text.

The generated dictionary is in WordNet database format (``index.noun``,
``data.noun``, ``index.verb``, ``data.verb``) and covers every filler noun
and verb.  Its noun taxonomy has fixed level sizes (mean depth about 7),
round-robin top levels and preferential attachment below them, which
gives a heavy-tailed fan-out.

``prepare`` writes the files a workload needs into a cache directory, once
per seed and source revision: the text inputs, then the corpus and
language model built through the library and a skip-gram file built from
band co-occurrence counts (see ``band_embeddings``).  Preparation is never
timed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from punforge.corpus import PRONOUNS, Corpus, Vocabulary, ingest, save_corpus
from punforge.demo_corpus import build_demo_corpus
from punforge.kao import STOPWORDS
from punforge.ngram_lm import train_lm
from punforge.retrieval import build_index
from punforge.skipgram import SkipGramConfig, SkipGramModel

N_PAIRS = 200
# About 22k sentences and an 8k-word vocabulary in all, the scale at which
# the layer costs in the benchmark's README were first measured.
N_NOUNS = 5400
N_VERBS = 1100
N_ADJECTIVES = 1400
N_ADVERBS = 300
N_FILLER = 16300
TOPIC_SENTENCES = 4  # per pair
TOPICS_PER_PAIR = 3
SUBJECTS_PER_PAIR = 3
SEED_HEAD = 600  # seed sentences of the most frequent alternative word
SEED_ZIPF = 1.1
MIN_LEN, MAX_LEN = 4, 40

LM_ORDER = 4
# The dimension the README's walkthrough trains with (``--dim 40``).  At the
# default 300, one memory-bound matrix-vector product is four fifths of a
# score operation, and its speed does not follow the drift the reference
# kernel corrects for (see perfbench/README.md).
SKIPGRAM_DIM = 40
SKIPGRAM_SHARPNESS = 12.0  # norm of each input vector; sets how peaked topics are

SCORE_BLOCK = 20  # records per block of the score schedule
SCORE_LENGTHS = 4000  # draws that fix the sentence-length distribution
RATED_ITEMS = 200
RATERS = 40
RATINGS_PER_ITEM = 8
METRIC_COLUMNS = ("ambiguity", "s_global", "s_local", "s_ratio")

DETERMINERS = ["the", "a", "this", "that", "some", "every", "his", "her",
               "their", "my", "our"]
PREPOSITIONS = ["in", "on", "at", "with", "from", "to", "of", "for", "near",
                "over", "under", "after", "before", "across", "along"]
SUBJECT_PRONOUNS = ["she", "he", "they", "someone", "everyone", "we", "i"]

# Nouns of the bundled dictionary fixture, so demo sentences tag the same.
DEMO_NOUNS = ["animal", "creature", "person", "someone", "man", "woman",
              "boy", "girl", "dog", "hound", "greyhound", "hare", "bird",
              "barber", "object", "hair", "home", "field", "park", "market",
              "shop", "book", "door", "hill", "road", "track", "tree",
              "beard", "game", "show", "morning", "night", "treat", "snack",
              "cut", "artifact", "ship", "cart", "day", "care"]

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "gl", "kr", "pl", "st", "tr", "sk", "sh", "ch"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou", "ee"]
_CODAS = ["", "", "n", "r", "l", "s", "m", "k", "t"]


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{part}")


def _pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    seen = set(taken)
    while len(words) < n:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.choice((2, 2, 3)))) + rng.choice(_CODAS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_cdf(n: int, s: float = 1.0) -> list[float]:
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    total = sum(weights)
    acc, out = 0.0, []
    for w in weights:
        acc += w / total
        out.append(acc)
    return out


def stratified(rng: random.Random, n_items: int, count: int,
               block: int) -> list[int]:
    """``count`` indices in blocks, one from each of ``block`` equal strata.

    Every block holds the same mix of low and high indices, so a run that
    stops after any number of blocks has seen the same mix; the seed picks
    the index inside each stratum and the order inside each block.
    """
    out: list[int] = []
    while len(out) < count:
        picks = [rng.randrange(j * n_items // block, (j + 1) * n_items // block)
                 for j in range(block)]
        rng.shuffle(picks)
        out.extend(picks)
    return out[:count]


@dataclass
class Lexicon:
    nouns: list[str]
    verbs: list[str]
    adjectives: list[str]
    adverbs: list[str]
    puns: list[str]
    alts: list[str]
    noun_cdf: list[float]
    verb_cdf: list[float]
    adj_cdf: list[float]


def make_lexicon(seed: int) -> Lexicon:
    rng = _rng(seed, "words")
    demo_words = {w for line in build_demo_corpus() for w in line.split()}
    taken = demo_words | set(STOPWORDS) | set(PRONOUNS) | set(DETERMINERS) \
        | set(PREPOSITIONS) | set(DEMO_NOUNS)
    words = _pseudo_words(rng, N_NOUNS + N_VERBS + N_ADJECTIVES + N_ADVERBS
                          + 2 * N_PAIRS, taken)
    cut = [N_NOUNS, N_VERBS, N_ADJECTIVES, N_ADVERBS, N_PAIRS, N_PAIRS]
    parts, start = [], 0
    for size in cut:
        parts.append(words[start:start + size])
        start += size
    nouns, verbs, adjectives, adverbs, puns, alts = parts
    return Lexicon(nouns, verbs, adjectives, adverbs, puns, alts,
                   _zipf_cdf(len(nouns)), _zipf_cdf(len(verbs)),
                   _zipf_cdf(len(adjectives)))


class _Grammar:
    """Zipf-weighted phrase generator over a lexicon."""

    def __init__(self, lex: Lexicon, rng: random.Random):
        self.lex = lex
        self.rng = rng

    def _zipf(self, words: list[str], cdf: list[float]) -> str:
        return self.rng.choices(words, cum_weights=cdf)[0]

    def noun(self) -> str:
        return self._zipf(self.lex.nouns, self.lex.noun_cdf)

    def verb(self) -> str:
        return self._zipf(self.lex.verbs, self.lex.verb_cdf)

    def np(self, head: str | None = None) -> list[str]:
        out = [self.rng.choice(DETERMINERS)]
        if self.rng.random() < 0.4:
            out.append(self._zipf(self.lex.adjectives, self.lex.adj_cdf))
        out.append(head or self.noun())
        return out

    def length(self) -> int:
        return min(MAX_LEN, MIN_LEN + int(self.rng.gammavariate(2.0, 5.0)))

    def extend(self, tokens: list[str], target: int) -> list[str]:
        """Grow a clause with phrases, then cut to ``target`` with a period."""
        while len(tokens) < target - 1:
            roll = self.rng.random()
            if roll < 0.6:
                tokens += [self.rng.choice(PREPOSITIONS)] + self.np()
            elif roll < 0.8:
                tokens += ["and", self.verb()] + self.np()
            else:
                tokens.append(self.rng.choice(self.lex.adverbs))
        return tokens[:max(target - 1, 1)] + ["."]

    def sentence(self, target: int | None = None) -> list[str]:
        target = target or self.length()
        subject = ([self.rng.choice(SUBJECT_PRONOUNS)] if self.rng.random() < 0.15
                   else self.np())
        return self.extend(subject + [self.verb()] + self.np(), target)


@dataclass
class Clusters:
    """Per pair: subject nouns (seed sentences) and sibling topic nouns."""

    subjects: list[list[str]]
    topics: list[list[str]]


def seed_counts() -> list[int]:
    return [max(2, round(SEED_HEAD / (k + 1) ** SEED_ZIPF)) for k in range(N_PAIRS)]


def scale_sentences(seed: int, lex: Lexicon, clusters: Clusters) -> list[str]:
    """The scale corpus, one sentence per line, in a seeded order."""
    rng = _rng(seed, "corpus")
    g = _Grammar(lex, rng)
    lines = list(build_demo_corpus())
    for _ in range(N_FILLER):
        lines.append(" ".join(g.sentence()))
    for k, count in enumerate(seed_counts()):
        alt, pun = lex.alts[k], lex.puns[k]
        # ``count`` usable seeds, plus sentences that retrieval or the swap
        # must skip: the alternative word twice, or the pun word already in.
        kinds = ["seed"] * count + ["twice"] * (count // 20) + ["pun"] * (count // 30)
        for i, kind in enumerate(kinds):
            # subjects in fixed shares: half cluster nouns, then other
            # nouns, then pronouns, which the dictionary maps to "person"
            if i % 20 < 10:
                subject = g.np(rng.choice(clusters.subjects[k]))
            elif i % 20 < 17:
                subject = g.np()
            else:
                subject = [rng.choice(SUBJECT_PRONOUNS)]
            tokens = subject + [g.verb()] + g.np(alt)
            if kind == "twice":
                tokens += ["and"] + g.np(alt)
            elif kind == "pun":
                tokens += ["near"] + g.np(pun)
            target = max(len(tokens) + 1, min(MAX_LEN, len(tokens) + rng.randrange(1, 5)))
            lines.append(" ".join(g.extend(tokens, target)))
        for i in range(TOPIC_SENTENCES):
            topic = rng.choice(clusters.topics[k])
            # topic at position 1, pun word 5..10 tokens later
            middle = [g.verb()] + g.np() + [rng.choice(PREPOSITIONS)]
            first, second = (topic, pun) if i % 2 == 0 else (pun, topic)
            tokens = [rng.choice(DETERMINERS), first] + middle + [rng.choice(DETERMINERS), second]
            lines.append(" ".join(g.extend(tokens, len(tokens) + rng.randrange(1, 4))))
    rng.shuffle(lines)
    return lines


# --- dictionary -------------------------------------------------------------

_LICENSE = ("  1 Generated benchmark dictionary in WordNet 3.x database format.\n"
            "  2 Lemmas are synthetic; the structure mimics a real noun taxonomy.\n")


def _write_db(dict_dir: Path, pos: str, synsets: list[dict],
              senses: dict[str, list[int]]) -> None:
    """Write the data and index files; synset ids become 8-digit offsets."""
    name = "noun" if pos == "n" else "verb"
    lines = [_LICENSE]
    for s in synsets:
        ptrs = [f"@ {p + 1:08d} {pos} 0000" for p in s["parents"]]
        ptrs += [f"~ {c + 1:08d} {pos} 0000" for c in s["children"]]
        words = " ".join(f"{w} 0" for w in s["lemmas"])
        lines.append(f"{s['id'] + 1:08d} 03 {pos} {len(s['lemmas']):02x} {words} "
                     f"{len(ptrs):03d} {' '.join(ptrs)} | a generated sense\n")
    (dict_dir / f"data.{name}").write_text("".join(lines), encoding="utf-8")
    lines = [_LICENSE]
    for lemma in sorted(senses):
        ids = senses[lemma]
        lines.append(f"{lemma} {pos} {len(ids)} 2 @ ~ {len(ids)} 0 "
                     + " ".join(f"{i + 1:08d}" for i in ids) + "\n")
    (dict_dir / f"index.{name}").write_text("".join(lines), encoding="utf-8")


TREE_DEPTH = 16  # level sizes follow Binomial(TREE_DEPTH, TREE_P): mean depth 7
TREE_P = 0.45
ATTACH = 1.0  # preferential weight: children + ATTACH
BALANCED_LEVELS = 3  # levels filled round-robin: no seed-made hubs near the root


def _grow_tree(rng: random.Random, n: int) -> list[dict]:
    """A noun taxonomy of about ``n`` synsets under one root.

    Level sizes are fixed by a binomial profile, so depth does not vary
    with the seed.  The top levels are filled round-robin; below them each
    synset picks its parent on the level above with weight (children +
    ``ATTACH``): preferential, which gives a heavy-tailed fan-out.  Random
    hubs near the root would change every neighbourhood below them, and
    with it the cost of a type check, from seed to seed.
    """
    sizes = [max(1, round(n * math.comb(TREE_DEPTH, d) * TREE_P ** d
                          * (1 - TREE_P) ** (TREE_DEPTH - d)))
             for d in range(1, TREE_DEPTH + 1)]
    nodes = [{"id": 0, "parents": [], "children": [], "lemmas": [], "depth": 0}]
    above = [0]
    for depth, size in enumerate(sizes, start=1):
        level = []
        for i in range(size):
            if depth <= BALANCED_LEVELS:
                parent = above[i % len(above)]
            else:
                parent = rng.choices(above, weights=[len(nodes[p]["children"]) + ATTACH
                                                     for p in above])[0]
            node = {"id": len(nodes), "parents": [parent], "children": [],
                    "lemmas": [], "depth": depth}
            nodes[parent]["children"].append(node["id"])
            nodes.append(node)
            level.append(node["id"])
        above = level
    return nodes


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _neighborhood_sizes(synsets: list[dict]) -> list[int]:
    """Synsets within 4 steps of each synset: what a failing type check visits."""
    adjacent = [s["parents"] + s["children"] for s in synsets]
    sizes = []
    for start in range(len(synsets)):
        seen = {start}
        frontier = [start]
        for _ in range(4):
            reached = []
            for node in frontier:
                for nxt in adjacent[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        reached.append(nxt)
            frontier = reached
        sizes.append(len(seen))
    return sizes


def _spread(order: list[int], count: int, phase: float) -> list[int]:
    """``count`` distinct entries of ``order`` at golden-ratio quantiles."""
    taken: set[int] = set()
    out = []
    for r in range(count):
        pos = int((phase + r * GOLDEN) % 1.0 * len(order))
        while order[pos] in taken:
            pos = (pos + 1) % len(order)
        taken.add(order[pos])
        out.append(order[pos])
    return out


def make_dictionary(seed: int, lex: Lexicon, dict_dir: Path) -> Clusters:
    """Write the dictionary files and return the per-pair noun clusters."""
    rng = _rng(seed, "dictionary")
    dict_dir.mkdir(parents=True, exist_ok=True)
    synsets = _grow_tree(rng, int((len(DEMO_NOUNS) + len(lex.nouns) + 2 * N_PAIRS) * 0.95))

    # Filler nouns are placed in frequency order at golden-ratio quantiles
    # of the synsets sorted by neighborhood size.  The frequent nouns, which
    # are most of the topic words, then sit in neighborhoods of the same
    # sizes on every seed, and a type check costs about the same.
    sizes = _neighborhood_sizes(synsets)
    order = sorted(range(len(synsets)), key=lambda i: (sizes[i], i))
    for word, sid in zip(lex.nouns, _spread(order, len(lex.nouns), rng.random())):
        synsets[sid]["lemmas"].append(word)
    person = next(s for s in synsets if s["depth"] == 3 and len(s["children"]) >= 4)
    person["lemmas"][:0] = ["person", "someone"]
    others = [w for w in DEMO_NOUNS if w not in ("person", "someone")]
    others += lex.puns + lex.alts
    empty = [s for s in synsets if not s["lemmas"]]
    rng.shuffle(empty)
    for i, word in enumerate(others):  # past the empty synsets: synonyms
        target = empty[i] if i < len(empty) else rng.choice(synsets)
        target["lemmas"].append(word)
    for s in synsets:
        if not s["lemmas"]:
            s["lemmas"].append(f"synset{s['id']}")
    # Every fifth filler noun gets a second, unrelated sense.
    second = lex.nouns[2::5]
    for word, sid in zip(second, _spread(order, len(second), rng.random())):
        if word not in synsets[sid]["lemmas"]:
            synsets[sid]["lemmas"].append(word)
    senses: dict[str, list[int]] = {}
    for s in synsets:
        for lemma in s["lemmas"]:
            senses.setdefault(lemma, []).append(s["id"])
    _write_db(dict_dir, "n", synsets, senses)

    # Each pair's subject and topic nouns are single-sense siblings under
    # one host.  Hosts come from the middle half by their children's
    # neighbourhood size, so how much a type check on a planted noun costs
    # does not hinge on which hosts a seed happened to grow.
    single = {lemma for lemma, ids in senses.items() if len(ids) == 1} & set(lex.nouns)
    hosts = []
    for s in synsets:
        kids = [c for c in s["children"] if synsets[c]["lemmas"][0] in single]
        if len(kids) >= SUBJECTS_PER_PAIR + TOPICS_PER_PAIR:
            hosts.append((sum(sizes[c] for c in kids) / len(kids), s["id"], kids))
    hosts.sort()
    hosts = hosts[len(hosts) // 4:len(hosts) - len(hosts) // 4]
    rng.shuffle(hosts)
    clusters = Clusters([], [])
    for k in range(N_PAIRS):
        kids = rng.sample(hosts[k % len(hosts)][2], SUBJECTS_PER_PAIR + TOPICS_PER_PAIR)
        names = [synsets[c]["lemmas"][0] for c in kids]
        clusters.subjects.append(names[:SUBJECTS_PER_PAIR])
        clusters.topics.append(names[SUBJECTS_PER_PAIR:])

    roots = 60
    verbs = [{"id": i, "parents": [] if i < roots else [rng.randrange(roots)],
              "children": [], "lemmas": [w]}
             for i, w in enumerate(lex.verbs)]
    for v in verbs[roots:]:
        verbs[v["parents"][0]]["children"].append(v["id"])
    _write_db(dict_dir, "v", verbs, {v["lemmas"][0]: [v["id"]] for v in verbs})
    return clusters


# --- workload inputs ---------------------------------------------------------


def score_records(seed: int) -> Iterator[tuple[str, str, list[str], int]]:
    """Endless records for ``score``: (pun word, alternative word, tokens, pun slot).

    Every record is a fresh sentence, as each record of a ``punforge
    score`` input is, so no run scores the same record twice however fast
    the program gets.  Pairs are drawn Zipf-like; each block of
    ``SCORE_BLOCK`` records takes one length from each of as many equal
    strata of a fixed length distribution (4..40 tokens), so every block
    holds the same mix of short and long sentences.
    """
    lex = make_lexicon(seed)
    rng = _rng(seed, "score")
    g = _Grammar(lex, rng)
    cdf = _zipf_cdf(N_PAIRS)
    lengths = sorted(g.length() for _ in range(SCORE_LENGTHS))
    while True:
        for idx in stratified(rng, SCORE_LENGTHS, SCORE_BLOCK, SCORE_BLOCK):
            k = rng.choices(range(N_PAIRS), cum_weights=cdf)[0]
            tokens = g.sentence(lengths[idx])
            position = rng.randrange(max(1, len(tokens) - 1))
            tokens[position] = lex.puns[k]
            yield lex.puns[k], lex.alts[k], tokens, position


def ratings_and_scores(seed: int) -> tuple[list[list[str]], list[dict]]:
    """Crowd ratings (CSV rows) and metric columns for ``correlate``.

    Each item is rated by a few raters around a latent funniness; one
    rater answers at random and one gives a constant score, so rater
    filtering has work.  Metric columns track the latent value with
    different noise, and ``s_ratio`` carries tied -1 sentinels.
    """
    rng = _rng(seed, "ratings")
    latent = [rng.gauss(0.0, 1.0) for _ in range(RATED_ITEMS)]
    rows = []
    for item in range(RATED_ITEMS):
        for rater in rng.sample(range(RATERS), RATINGS_PER_ITEM):
            if rater == 0:
                score = str(rng.randint(1, 5))
            elif rater == 1:
                score = "3"
            elif rng.random() < 0.03:
                score = "NA"
            else:
                score = str(min(5, max(1, round(3 + latent[item] + rng.gauss(0, 0.8)))))
            rows.append([f"item{item:04d}", f"rater{rater:03d}", score])
    scores = []
    for item in range(RATED_ITEMS):
        record: dict = {"id": f"item{item:04d}"}
        for j, name in enumerate(METRIC_COLUMNS):
            value = latent[item] * (1.0 - 0.2 * j) + rng.gauss(0.0, 1.0)
            if name == "s_ratio" and value < -1.0:
                value = -1.0
            record[name] = round(value, 6)
        scores.append(record)
    return rows, scores


# --- preparation and cache ---------------------------------------------------


def source_digest(src_dir: Path) -> str:
    """Hash of the package sources and of this file.

    A change to either rebuilds the inputs, since the package trains the
    model files and this file decides what goes into them.
    """
    h = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted(src_dir.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src_dir).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Inputs:
    """Paths of one seed's prepared inputs."""

    def __init__(self, root: Path):
        self.root = root
        self.text = root / "corpus.txt"
        self.corpus = root / "corpus.pgc"
        self.lm = root / "lm.pglm"
        self.skipgram = root / "skipgram.pgsg"
        self.wordnet = root / "dict"
        self.pairs = root / "pairs.tsv"
        self.ratings = root / "ratings.csv"
        self.scores = root / "scores.jsonl"


CACHE_KEEP = 24  # prepared seeds kept on disk, about 14 MB each


def location(cache_dir: Path, src_dir: Path, seed: int) -> Inputs:
    return Inputs(cache_dir / f"seed{seed}-{source_digest(src_dir)}")


def is_prepared(inp: Inputs, models: bool) -> bool:
    return all((inp.root / marker).is_file()
               for marker in ("inputs.done", "models.done")[:1 + models])


def prepare(out: Inputs, seed: int, models: bool) -> None:
    """Build the inputs of one seed that are not built yet.

    The text inputs are cheap; with ``models`` the corpus, language model
    and skip-gram files are trained too.  Each stage writes its files under
    temporary names and renames them, then leaves a marker, so a run that is
    cut short leaves no half-written input behind.
    """
    out.root.mkdir(parents=True, exist_ok=True)
    if not (out.root / "inputs.done").is_file():
        _write_inputs(out, seed)
        (out.root / "inputs.done").write_text("ok\n", encoding="utf-8")
        _prune(out.root.parent)
    if models and not (out.root / "models.done").is_file():
        _train_models(out, seed)
        (out.root / "models.done").write_text("ok\n", encoding="utf-8")


def _tmp(path: Path) -> Path:
    return path.with_name(path.name + f".tmp{os.getpid()}")


def _write_inputs(out: Inputs, seed: int) -> None:
    lex = make_lexicon(seed)
    tmp_dict = _tmp(out.wordnet)
    shutil.rmtree(tmp_dict, ignore_errors=True)
    clusters = make_dictionary(seed, lex, tmp_dict)
    shutil.rmtree(out.wordnet, ignore_errors=True)
    os.replace(tmp_dict, out.wordnet)
    lines = scale_sentences(seed, lex, clusters)
    rows, scores = ratings_and_scores(seed)
    texts = {
        out.text: "\n".join(lines) + "\n",
        out.pairs: "".join(f"{p}\t{a}\n" for p, a in zip(lex.puns, lex.alts)),
        out.scores: "".join(json.dumps(r, sort_keys=True) + "\n" for r in scores),
    }
    for path, text in texts.items():
        _tmp(path).write_text(text, encoding="utf-8")
        os.replace(_tmp(path), path)
    with open(_tmp(out.ratings), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "rater_id", "score"])
        writer.writerows(rows)
    os.replace(_tmp(out.ratings), out.ratings)


def band_embeddings(encoded: list[list[int]], vocab: Vocabulary,
                    seed: int) -> SkipGramModel:
    """A skip-gram model from band co-occurrence counts, without SGD.

    SGD training to convergence on the scale corpus takes minutes per seed;
    one cheap epoch leaves the softmax nearly uniform, so every pun word
    would get the same topics.  Instead each word gets a random unit-scale
    output vector, and its input vector is the sum of the output vectors of
    the words 5..10 tokens away (weighted by 1/sqrt(count)), scaled to a
    fixed norm.  ``predict_topics`` then ranks a word's band co-occurrents
    first, as a trained model does, and the file is an ordinary skip-gram
    file (epochs 0 records that no SGD ran).
    """
    config = SkipGramConfig(dim=SKIPGRAM_DIM, epochs=0, seed=seed)
    rng = np.random.default_rng(seed)
    size = len(vocab)
    vec_out = rng.standard_normal((size, config.dim)) / math.sqrt(config.dim)
    ids = np.fromiter((i for sent in encoded for i in sent), dtype=np.int64)
    sent = np.repeat(np.arange(len(encoded)), [len(e) for e in encoded])
    centers, contexts = [], []
    for d in range(config.d1, config.d2 + 1):
        same = sent[:-d] == sent[d:]
        left, right = ids[:-d][same], ids[d:][same]
        centers += [left, right]
        contexts += [right, left]
    center, context = np.concatenate(centers), np.concatenate(contexts)
    counts = np.array([vocab.count_of_id(i) for i in range(size)], dtype=np.float64)
    weight = 1.0 / np.sqrt(np.maximum(counts, 1.0))[context]
    vec_in = np.empty((size, config.dim))
    columns = np.ascontiguousarray(vec_out.T)  # contiguous rows gather faster
    for k in range(config.dim):
        vec_in[:, k] = np.bincount(center, weights=columns[k][context] * weight,
                                   minlength=size)
    norms = np.linalg.norm(vec_in, axis=1, keepdims=True)
    vec_in *= SKIPGRAM_SHARPNESS / np.where(norms > 0.0, norms, 1.0)
    return SkipGramModel(vocab, config, vec_in, vec_out)


def _train_models(out: Inputs, seed: int) -> None:
    sentences, vocab = ingest(out.text)
    index = build_index(sentences)
    save_corpus(_tmp(out.corpus), Corpus(sentences, vocab, index.postings))
    train_lm(sentences, vocab, order=LM_ORDER).save(_tmp(out.lm))
    encoded = [vocab.encode(s.surfaces()) for s in sentences]
    band_embeddings(encoded, vocab, seed).save(_tmp(out.skipgram))
    for path in (out.corpus, out.lm, out.skipgram):
        os.replace(_tmp(path), path)


def _prune(cache_dir: Path) -> None:
    entries = sorted((p for p in cache_dir.iterdir() if p.name.startswith("seed")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)


if __name__ == "__main__":
    # python3 -m inputs INPUT_DIR SEED MODELS, with the package importable
    prepare(Inputs(Path(sys.argv[1])), int(sys.argv[2]), sys.argv[3] == "1")
