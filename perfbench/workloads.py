"""The four benchmark workloads.

Each workload loads its resources through the package's public loaders,
as the CLI does (``setup``, timed as a whole), yields its operations in
blocks of a fixed mix (``schedule``), runs one operation (``run``), and
digests and checks its output (``digest``, ``check``).  After the timed
loop, ``final_check`` repeats the first operation, which must give the
same digest, unless ``repeat_first`` is off.
Calls go through module attributes looked up at call time, so the tracer's
wrappers see them in the traced run.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import random
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from punforge import corpus, generator, kao, ngram_lm, retrieval, skipgram, stats, wordnet
from punforge.surprisal import PunOccurrence, PunPair

import inputs

# The package namespace rebinds ``punforge.surprisal`` to the function.
surprisal = importlib.import_module("punforge.surprisal")

LN2 = math.log(2.0)


def _finite_ratio(value: float) -> bool:
    return value == -1.0 or (math.isfinite(value) and value >= 0.0)


def _digest(*parts: Any) -> bytes:
    return hashlib.sha256(repr(parts).encode("utf-8")).digest()


def _rounds(rng: random.Random, items: list) -> Iterator[Any]:
    """Every item once per round, each round in a new seeded order."""
    order = list(items)
    while True:
        rng.shuffle(order)
        yield from order


class Workload:
    name = ""
    block = 1  # operations per block of the schedule
    repeat_first = True  # whether ``final_check`` runs

    def __init__(self, inp: inputs.Inputs, seed: int, work_dir: Path):
        self.inp = inp
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> Any:
        raise NotImplementedError

    def schedule(self) -> Iterator[Any]:
        raise NotImplementedError

    def run(self, res: Any, arg: Any) -> Any:
        raise NotImplementedError

    def digest(self, out: Any) -> bytes:
        raise NotImplementedError

    def check(self, arg: Any, out: Any, digest: bytes) -> bool:
        raise NotImplementedError

    def final_check(self, res: Any, first: tuple[Any, bytes]) -> bool:
        """Whether a repeat of the first operation gives the same digest."""
        arg, expected = first
        return self.digest(self.run(res, arg)) == expected


class Score(Workload):
    """``punforge score --skipgram``: score_occurrence, then meaning_report."""

    name = "score"
    block = inputs.SCORE_BLOCK

    def setup(self) -> Any:
        lm = ngram_lm.NGramModel.load(self.inp.lm)
        sg = skipgram.SkipGramModel.load(self.inp.skipgram,
                                         expected_vocab_hash=lm.vocab.hash_bytes())
        uni = np.exp([lm.unigram_logprob(i) for i in range(len(lm.vocab))])
        return lm, sg, uni

    def schedule(self) -> Iterator[Any]:
        return ((PunPair(pun, alt), tokens, position)
                for pun, alt, tokens, position in inputs.score_records(self.seed))

    def run(self, res: Any, arg: Any) -> Any:
        lm, sg, uni = res
        pair, tokens, position = arg
        report = surprisal.score_occurrence(lm, PunOccurrence(tokens, position), pair)
        meaning = kao.meaning_report(tokens, position, pair, lm.vocab, uni,
                                     sg.relatedness_by_id)
        return report, meaning

    def check(self, arg: Any, out: Any, digest: bytes) -> bool:
        report, meaning = out
        # the entropy may round one step above ln 2 at an even posterior
        return (_finite_ratio(report.s_ratio)
                and 0.0 <= meaning.ambiguity <= LN2 + 1e-12)

    def digest(self, out: Any) -> bytes:
        report, meaning = out
        return _digest(report.s_local, report.s_global, report.s_ratio,
                       report.unusualness, report.degenerate,
                       meaning.ambiguity, meaning.distinctiveness)


class Generate(Workload):
    """``punforge generate --rerank``: one pair per operation."""

    name = "generate"

    def __init__(self, inp: inputs.Inputs, seed: int, work_dir: Path):
        super().__init__(inp, seed, work_dir)
        self.pairs = [PunPair(*line.split("\t"))
                      for line in inp.pairs.read_text(encoding="utf-8").splitlines()]
        # A block requests every pair once, in a seeded order, so every run
        # of whole blocks has the same mix of pool-capped and few-seed pairs.
        self.block = len(self.pairs)

    def setup(self) -> Any:
        c = corpus.load_corpus(self.inp.corpus)
        index = retrieval.InvertedIndex(
            c.postings, {s.sent_id: len(s.tokens) for s in c.sentences})
        vocab_hash = c.vocab.hash_bytes()
        lm = ngram_lm.NGramModel.load(self.inp.lm, expected_vocab_hash=vocab_hash)
        sg = skipgram.SkipGramModel.load(self.inp.skipgram, expected_vocab_hash=vocab_hash)
        graph = wordnet.load_wordnet(self.inp.wordnet)
        lexicon = corpus.TagLexicon(nouns=graph.noun_lemmas(), verbs=graph.verb_lemmas())
        return generator.GenerationResources(corpus=c, index=index, skipgram=sg,
                                             graph=graph, lexicon=lexicon, lm=lm)

    def schedule(self) -> Iterator[Any]:
        return _rounds(random.Random(f"generate:{self.seed}"), self.pairs)

    def run(self, res: Any, arg: Any) -> Any:
        return generator.generate(arg, res, generator.GenerationConfig(rerank=True))

    def check(self, arg: Any, out: Any, digest: bytes) -> bool:
        for cand in out.candidates:
            tokens = cand.final_tokens
            if (tokens.count(arg.pun_word) != 1 or arg.alt_word in tokens
                    or tokens[cand.pun_position] != arg.pun_word
                    or cand.topic_word not in tokens[:cand.pun_position]
                    or not _finite_ratio(cand.report.s_ratio)):
                return False
        return True

    def digest(self, out: Any) -> bytes:
        return json.dumps([out.failure, [
            [c.seed_id, c.seed_rank, c.pun_position, c.final_tokens, c.stage,
             c.deleted_word, c.topic_word, c.topic_score,
             [c.report.s_local, c.report.s_global, c.report.s_ratio,
              c.report.unusualness, c.report.degenerate]]
            for c in out.candidates]], sort_keys=True).encode("utf-8")


class Train(Workload):
    """Index, LM training and skip-gram training of one corpus shard."""

    name = "train"
    SHARD = 1000  # sentences per shard
    SLICE = 50  # sentences of the shard the skip-gram trains on

    def __init__(self, inp: inputs.Inputs, seed: int, work_dir: Path):
        super().__init__(inp, seed, work_dir)
        self.block = len(self.setup())  # a block trains every shard once
        # the prepared model's dimension; one epoch keeps an operation short
        self.skipgram = skipgram.SkipGramConfig(dim=inputs.SKIPGRAM_DIM, epochs=1,
                                                seed=seed)
        self.first_digests: dict[int, bytes] = {}
        work_dir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> Any:
        # the package's sentence splitter, as ``ingest`` reads raw text
        text = self.inp.text.read_text(encoding="utf-8")
        sentences = corpus.split_sentences(text)
        return ["\n".join(sentences[i:i + self.SHARD])
                for i in range(0, len(sentences) - self.SHARD + 1, self.SHARD)]

    def schedule(self) -> Iterator[Any]:
        return _rounds(random.Random(f"train:{self.seed}"), list(range(self.block)))

    def run(self, res: Any, arg: Any) -> Any:
        pgc, pglm, pgsg = (self.work_dir / f"shard.{ext}" for ext in ("pgc", "pglm", "pgsg"))
        sentences, vocab = corpus.ingest(res[arg])
        index = retrieval.build_index(sentences)
        corpus.save_corpus(pgc, corpus.Corpus(sentences, vocab, index.postings))
        ngram_lm.train_lm(sentences, vocab, order=inputs.LM_ORDER).save(pglm)
        skipgram.train_skipgram(sentences[:self.SLICE], vocab, self.skipgram).save(pgsg)
        return pgc, pglm, pgsg

    def digest(self, out: Any) -> bytes:
        return b"".join(hashlib.sha256(path.read_bytes()).digest() for path in out)

    def check(self, arg: Any, out: Any, digest: bytes) -> bool:
        # every later round must rebuild byte-identical files from the shard
        return (all(path.stat().st_size > 0 for path in out)
                and self.first_digests.setdefault(arg, digest) == digest)


class Correlate(Workload):
    """``punforge correlate``: one metric column per operation."""

    name = "correlate"
    # One operation takes seconds, so it is not repeated; the traced run
    # still compares the outputs of its two halves.
    repeat_first = False

    def setup(self) -> Any:
        table = stats.RatingsTable.load_csv(self.inp.ratings)
        filtered = stats.filter_raters(stats.zscore_raters(table))
        means = stats.item_means(filtered.table)
        columns: dict[str, dict[str, float]] = {}
        with open(self.inp.scores, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                for key, value in record.items():
                    if key != "id":
                        columns.setdefault(key, {})[str(record["id"])] = float(value)
        return means, columns

    def schedule(self) -> Iterator[Any]:
        return itertools.cycle(sorted(inputs.METRIC_COLUMNS))

    def run(self, res: Any, arg: Any) -> Any:
        means, columns = res
        per_item = columns[arg]
        shared = sorted(set(per_item) & set(means))
        xs = stats.clip_standardize([per_item[i] for i in shared])
        ys = [means[i] for i in shared]
        rho = stats.spearman(xs, ys)
        p = stats.permutation_pvalue(xs, ys, seed=self.seed)
        return rho, p

    def check(self, arg: Any, out: Any, digest: bytes) -> bool:
        rho, p = out
        return -1.0 <= rho <= 1.0 and 0.0 < p <= 1.0

    def digest(self, out: Any) -> bytes:
        return _digest(*out)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Score, Generate, Train, Correlate)
}
