import random

import pytest

from punforge.corpus import Sentence, ingest
from punforge.retrieval import (InvertedIndex, SeedCandidate, build_index,
                                retrieve_seeds)


def _sentences(lines):
    return [Sentence(i, line.split()) for i, line in enumerate(lines)]


class TestBuildIndex:
    def test_postings_record_every_position(self):
        index = build_index(_sentences(["a b a", "b c"]))
        assert index.lookup("a") == [(0, (0, 2))]
        assert index.lookup("b") == [(0, (1,)), (1, (0,))]
        assert index.lookup("c") == [(1, (1,))]
        assert index.lookup("zz") == []

    def test_lengths_tracked(self):
        index = build_index(_sentences(["a b a", "b c"]))
        assert index.lengths == {0: 3, 1: 2}

    def test_membership(self):
        index = build_index(_sentences(["x y"]))
        assert "x" in index
        assert "q" not in index

    def test_surface_keys_keep_rare_words_retrievable(self):
        # Even words folded into the unknown id by a vocabulary cutoff
        # remain searchable, because keys are surfaces, not ids.
        sentences, vocab = ingest("rare word here . common common common .",
                                  min_count=2)
        assert vocab.id_of("rare") == vocab.unk_id
        index = build_index(sentences)
        assert index.lookup("rare") == [(0, (0,))]


class TestRetrieveSeeds:
    def _index(self):
        lines = [
            "pin a b c d e f g",        # position 0 of 8 -> slot 0
            "a b c pin e f g h",        # position 3 of 8 -> slot 0.375
            "a b c d e f g pin",        # position 7 of 8 -> slot 0.875
            "a pin c pin e f g h",      # two occurrences: filtered out
            "pin b",                    # length 2: too short
            "a b pin d e",              # position 2 of 5 -> slot 0.4
        ]
        return build_index(_sentences(lines))

    def test_exactly_one_occurrence_and_length_filter(self):
        seeds = retrieve_seeds(self._index(), "pin")
        assert sorted(s.sent_id for s in seeds) == [0, 1, 2, 5]

    def test_ranking_late_slots_first_then_short_then_id(self):
        seeds = retrieve_seeds(self._index(), "pin")
        assert [s.sent_id for s in seeds] == [2, 5, 1, 0]
        assert [s.rank for s in seeds] == [0, 1, 2, 3]

    def test_keep_truncates_after_ranking(self):
        seeds = retrieve_seeds(self._index(), "pin", keep=2)
        assert [s.sent_id for s in seeds] == [2, 5]

    def test_pool_truncates_in_corpus_order_before_ranking(self):
        seeds = retrieve_seeds(self._index(), "pin", pool=2)
        assert [s.sent_id for s in seeds] == [1, 0]

    def test_absent_word_yields_no_seeds(self):
        assert retrieve_seeds(self._index(), "emu") == []

    def test_pool_and_keep_validated(self):
        with pytest.raises(ValueError):
            retrieve_seeds(self._index(), "pin", pool=0)
        with pytest.raises(ValueError):
            retrieve_seeds(self._index(), "pin", keep=0)

    def test_length_bounds_are_inclusive(self):
        lines = ["q " + "x " * 3, "q " + "x " * 39, "q " + "x " * 40]
        index = build_index(_sentences(lines))
        seeds = retrieve_seeds(index, "q")
        assert sorted(s.length for s in seeds) == [4, 40]


class TestAgainstBruteForce:
    def test_random_queries_match_full_rescan(self):
        rng = random.Random(99)
        words = [f"w{i}" for i in range(30)]
        lines = []
        for _ in range(400):
            n = rng.randrange(1, 45)
            lines.append(" ".join(rng.choice(words) for _ in range(n)))
        sentences = _sentences(lines)
        index = build_index(sentences)

        for _ in range(100):
            query = rng.choice(words)
            keep = rng.choice([1, 5, 100])
            got = retrieve_seeds(index, query, keep=keep)

            exact = []
            for s in sentences:
                hits = [i for i, t in enumerate(s.tokens) if t == query]
                if len(hits) == 1 and 4 <= len(s.tokens) <= 40:
                    exact.append((s.sent_id, hits[0], len(s.tokens)))
            exact.sort(key=lambda e: (-(e[1] / e[2]), e[2], e[0]))
            want = [
                SeedCandidate(sent_id=s, position=p, length=n, rank=r)
                for r, (s, p, n) in enumerate(exact[:keep])
            ]
            assert got == want
