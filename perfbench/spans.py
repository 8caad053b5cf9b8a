"""Span tracing at the package's layer boundaries, for the traced run only.

``Tracer.install`` replaces public functions and methods with wrappers that
record one span per call: name, operation id, parent span, start and end.
The wrappers are installed on the names the callers use (for example
``punforge.generator.type_consistent``, which the generator imported), and
``uninstall`` puts the originals back.  Spans stay in memory; ``report``
turns them into calls, total time, self time (total minus child spans) and
counts per span name.  Reference-kernel time that falls inside a span is
subtracted from it.  Times are raw, not normalized.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

Counter = Callable[[tuple, Any], dict[str, float]]


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * 4096 / 2**20


def _tokens(args: tuple, _result: Any) -> dict[str, float]:
    return {"tokens": len(args[1])}


def _pairs(_args: tuple, result: Any) -> dict[str, float]:
    return {"pairs": len(result)}


def _passes(_args: tuple, result: Any) -> dict[str, float]:
    return {"passes": 1 if result else 0}


def _seeds(_args: tuple, result: Any) -> dict[str, float]:
    return {"seeds": len(result)}


def _generated(_args: tuple, result: Any) -> dict[str, float]:
    counts = {"candidates": len(result.candidates)}
    if result.failure:
        counts[f"failures.{result.failure}"] = 1
    return counts


# (object path, attribute, span name, counter); a dotted object path past
# the module names a class.
TARGETS: list[tuple[str, str, str, Counter | None]] = [
    ("punforge.corpus", "ingest", "corpus.ingest", None),
    ("punforge.corpus", "save_corpus", "corpus.save_corpus", None),
    ("punforge.corpus", "load_corpus", "corpus.load_corpus", None),
    ("punforge.generator", "tag", "corpus.tag", None),
    ("punforge.ngram_lm", "train_lm", "ngram_lm.train_lm", None),
    ("punforge.ngram_lm.NGramModel", "save", "ngram_lm.save", None),
    ("punforge.ngram_lm.NGramModel", "load", "ngram_lm.load", None),
    ("punforge.ngram_lm.NGramModel", "logprob_seq", "ngram_lm.logprob_seq", _tokens),
    ("punforge.surprisal", "score_occurrence", "surprisal.score_occurrence", None),
    ("punforge.generator", "score_occurrence", "surprisal.score_occurrence", None),
    ("punforge.kao", "meaning_report", "kao.meaning_report", None),
    ("punforge.skipgram", "train_skipgram", "skipgram.train_skipgram", None),
    ("punforge.skipgram", "extract_pairs", "skipgram.extract_pairs", _pairs),
    ("punforge.skipgram.SkipGramModel", "save", "skipgram.save", None),
    ("punforge.skipgram.SkipGramModel", "load", "skipgram.load", None),
    ("punforge.skipgram.SkipGramModel", "relatedness_by_id",
     "skipgram.relatedness_by_id", None),
    ("punforge.skipgram.SkipGramModel", "predict_topics", "skipgram.predict_topics", None),
    ("punforge.wordnet", "load_wordnet", "wordnet.load_wordnet", None),
    ("punforge.generator", "type_consistent", "wordnet.type_consistent", _passes),
    ("punforge.retrieval", "build_index", "retrieval.build_index", None),
    ("punforge.generator", "retrieve_seeds", "retrieval.retrieve_seeds", _seeds),
    ("punforge.generator", "generate", "generator.generate", _generated),
    ("punforge.stats.RatingsTable", "load_csv", "stats.load_csv", None),
    ("punforge.stats", "zscore_raters", "stats.zscore_raters", None),
    ("punforge.stats", "filter_raters", "stats.filter_raters", None),
    ("punforge.stats", "item_means", "stats.item_means", None),
    ("punforge.stats", "clip_standardize", "stats.clip_standardize", None),
    ("punforge.stats", "spearman", "stats.spearman", None),
    ("punforge.stats", "permutation_pvalue", "stats.permutation_pvalue", None),
]

RSS_SPANS = {"ngram_lm.load"}  # also record the resident-set growth


def resolve(path: str) -> Any:
    """Import a module, then walk attributes for the class part of a path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    def __init__(self, kernel_seconds: Callable[[], float]):
        # spans: (name, op, parent index, start, end, kernel seconds inside)
        self.spans: list[tuple[str, int, int, float, float, float] | None] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1  # operation id shared by the spans of one operation;
        # set-up spans keep -1
        self._stack: list[int] = []
        self._kernel_seconds = kernel_seconds
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        spans, stack, kernel_seconds = self.spans, self._stack, self._kernel_seconds
        counts = self.counts[name]
        rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if rss:
                rss0 = _rss_mb()
            k0 = kernel_seconds()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, self.op, parent, t0, t1, kernel_seconds() - k0)
            if rss:
                counts["rss_mb"] += _rss_mb() - rss0
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def next_op(self) -> None:
        self.op += 1

    def install(self) -> None:
        for path, attr, name, counter in TARGETS:
            owner = resolve(path)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
            else:
                setattr(owner, attr, self._wrap(raw, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def report(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (total), self_s, and recorded counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            _name, _op, parent, t0, t1, kernel = span
            if parent >= 0:
                child[parent] += t1 - t0 - kernel
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, _op, _parent, t0, t1, kernel) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += t1 - t0 - kernel
            entry["self_s"] += t1 - t0 - kernel - child[i]
        for name, counts in self.counts.items():
            out[name].update(counts)
        return dict(out)

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line, when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
