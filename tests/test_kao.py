import math

import numpy as np
import pytest

from oracles import (reference_bernoulli_kl, reference_meaning,
                     reference_meaning_report)
from punforge.corpus import Vocabulary
from punforge.errors import UnknownWordError
from punforge import kao
from punforge.kao import (STOPWORDS, ambiguity_of, content_positions,
                          is_punctuation, meaning_report)
from punforge.surprisal import PunPair

WORDS = ["hare", "hair", "greyhound", "barber", "track", "comb", "race",
         "salon", "fast", "trim"]


def _resources(seed):
    """A vocabulary plus arbitrary-but-valid unigram and relatedness tables."""
    vocab = Vocabulary({w: len(WORDS) - i for i, w in enumerate(WORDS)})
    rng = np.random.default_rng(seed)
    v = len(vocab)
    unigram = rng.random(v) + 0.05
    unigram /= unigram.sum()
    rel = rng.random((v, v)) + 0.01
    rel /= rel.sum(axis=1, keepdims=True)
    return vocab, unigram, (lambda word_id: rel[word_id])


class TestContentWords:
    def test_stopword_list_has_exactly_fifty_entries(self):
        assert len(STOPWORDS) == 50

    def test_punctuation_detector(self):
        assert is_punctuation(".")
        assert is_punctuation("...")
        assert is_punctuation("?!")
        assert not is_punctuation("a")
        assert not is_punctuation("3")
        assert not is_punctuation("o'clock")
        assert is_punctuation("")
        assert not is_punctuation("é")
        assert not is_punctuation("²")  # a digit to str.isalnum
        assert is_punctuation("--")
        assert is_punctuation("…")
        assert not is_punctuation("a.b")
        assert is_punctuation("_")

    def test_positions_drop_slot_stopwords_and_punctuation(self):
        tokens = ["the", "greyhound", "got", "a", "hare", "cut", ",", "fast", "."]
        assert content_positions(tokens, 4) == [1, 2, 5, 7]

    def test_pun_slot_removed_even_if_contentful(self):
        assert content_positions(["hare", "races"], 0) == [1]


class TestScalarMeasures:
    def test_ambiguity_peaks_at_even_posterior(self):
        assert ambiguity_of(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_ambiguity_vanishes_at_certainty(self):
        assert ambiguity_of(0.0) == 0.0
        assert ambiguity_of(1.0) == 0.0

    @pytest.mark.parametrize("p", [0.01, 0.2, 0.37, 0.81, 0.99])
    def test_ambiguity_matches_entropy_formula(self, p):
        expected = -p * math.log(p) - (1 - p) * math.log(1 - p)
        assert ambiguity_of(p) == pytest.approx(expected, abs=1e-15)
        assert 0.0 <= ambiguity_of(p) <= math.log(2)


class TestDistinctiveness:
    """Distinctiveness as ``meaning_report`` reports it."""

    TOKENS = ["greyhound", "hare", "race", "comb", "the", "salon"]

    def test_zero_when_both_meanings_relate_alike(self):
        vocab, unigram, rel = _resources(0)
        row = rel(vocab.id_of("hare"))
        report = meaning_report(self.TOKENS, 1, PunPair("hare", "hair"), vocab,
                                unigram, lambda word_id: row)
        assert report.f_pun == report.f_alt
        assert report.distinctiveness == 0.0

    def test_symmetric_in_the_pair(self):
        vocab, unigram, rel = _resources(1)
        forward = meaning_report(self.TOKENS, 1, PunPair("hare", "hair"), vocab,
                                 unigram, rel)
        backward = meaning_report(self.TOKENS, 1, PunPair("hair", "hare"), vocab,
                                  unigram, rel)
        assert (forward.f_pun, forward.f_alt) == (backward.f_alt, backward.f_pun)
        assert forward.distinctiveness == pytest.approx(backward.distinctiveness,
                                                        abs=1e-15)
        assert forward.distinctiveness > 0.0

    def test_matches_reference_kl(self):
        vocab, unigram, rel = _resources(2)
        report = meaning_report(self.TOKENS, 1, PunPair("hare", "hair"), vocab,
                                unigram, rel)
        expected = sum(
            reference_bernoulli_kl(x, y) + reference_bernoulli_kl(y, x)
            for x, y in zip(report.f_pun, report.f_alt)
        )
        assert report.distinctiveness == pytest.approx(expected, abs=1e-12)

    def test_each_term_equals_two_kl_calls_at_the_clamp(self):
        edges = [0.0, 1e-12, 1e-9, 0.3, 1.0 - 1e-9, 1.0 - 1e-13, 1.0]
        for a in edges:
            for b in edges:
                expected = 0.0 + (reference_bernoulli_kl(a, b) + reference_bernoulli_kl(b, a))
                assert 0.0 + kao._symmetric_kl(a, b) == expected

    def test_adds_left_to_right(self, monkeypatch):
        """Terms 1, 1e100, 1, -1e100 add to 0.0 left to right and to 2.0
        compensated, as sum() adds floats from Python 3.12."""
        terms = iter([1.0, 1e100, 1.0, -1e100])
        monkeypatch.setattr(kao, "_symmetric_kl", lambda a, b: next(terms))
        vocab, unigram, rel = _resources(3)
        report = meaning_report(["greyhound", "hare", "race", "comb", "salon"], 1,
                                PunPair("hare", "hair"), vocab, unigram, rel)
        assert len(report.content_positions) == 4
        assert math.fsum([1.0, 1e100, 1.0, -1e100]) == 2.0
        assert report.distinctiveness == 0.0


class TestMeaningReport:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tokens, position", [
        (["greyhound", "hare", "race"], 1),
        (["the", "barber", "gave", "hare", "a", "trim", "."], 3),
        (["comb", "salon", "fast", "hare", "track", "race", "trim"], 3),
    ])
    def test_matches_exhaustive_enumeration(self, seed, tokens, position):
        vocab, unigram, rel = _resources(seed)
        pair = PunPair("hare", "hair")
        report = meaning_report(tokens, position, pair, vocab, unigram, rel)

        positions = content_positions(tokens, position)
        ids = [vocab.id_of(tokens[i]) for i in positions]
        p_uni = [unigram[x] for x in ids]
        rel_pun = [rel(vocab.id_of("hare"))[x] for x in ids]
        rel_alt = [rel(vocab.id_of("hair"))[x] for x in ids]
        posterior, f_pun, f_alt = reference_meaning(p_uni, rel_pun, rel_alt)

        assert report.posterior_pun == pytest.approx(posterior, abs=1e-9)
        assert report.f_pun == pytest.approx(f_pun, abs=1e-9)
        assert report.f_alt == pytest.approx(f_alt, abs=1e-9)
        assert report.ambiguity == pytest.approx(
            ambiguity_of(posterior), abs=1e-9
        )
        assert report.distinctiveness == pytest.approx(sum(
            reference_bernoulli_kl(a, b) + reference_bernoulli_kl(b, a)
            for a, b in zip(f_pun, f_alt)), abs=1e-9)
        assert report.content_positions == positions

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_two_pass_reference(self, seed):
        """Every field ``==`` the two-pass layer, on seeded sentences mixing
        content words, stopwords, unknown, non-ASCII, empty and punctuation
        tokens."""
        vocab, unigram, rel = _resources(seed)
        rng = np.random.default_rng(seed)
        pool = WORDS + ["the", "of", "qqq", "naïve", "é", "日本", "", ".", "?!",
                        "--", "…", "²", "o'clock", "a.b", "_"]
        tokens = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 16))]
        position = int(rng.integers(len(tokens)))
        tokens[position] = "hare"
        _assert_equals_reference(tokens, position, vocab, unigram, rel)

    def test_equals_the_two_pass_reference_at_the_clamp(self):
        """f-values at and beyond the clamp: 0, 1, about 1e-9, 1 - 1e-9, and
        smaller still on either side."""
        vocab, _, _ = _resources(0)
        unigram = np.full(len(vocab), 0.1)
        rows = np.full((len(vocab), len(vocab)), 0.1)
        pun, alt = vocab.id_of("hare"), vocab.id_of("hair")
        # word: (unigram, relatedness given the pun, given the alternative)
        for word, (u, r_pun, r_alt) in {
            "greyhound": (0.1, 0.0, 0.1), "barber": (0.0, 0.1, 0.2),
            "track": (0.1, 1e-10, 0.1), "comb": (1e-10, 0.1, 1e-13),
            "race": (0.1, 1e-13, 1e-14), "salon": (1e-14, 0.1, 0.1),
            "fast": (0.1, 0.0, 0.0), "trim": (0.0, 0.3, 0.1),
        }.items():
            i = vocab.id_of(word)
            unigram[i], rows[pun, i], rows[alt, i] = u, r_pun, r_alt
        tokens = ["the", "greyhound", "barber", "hare", "track", "comb", "race",
                  "salon", "fast", "trim", "zzz", "é", "", "...", "…", "²"]
        report = _assert_equals_reference(tokens, 3, vocab, unigram,
                                          lambda word_id: rows[word_id])
        assert {0.0, 1.0} <= set(report.f_pun) | set(report.f_alt)
        assert math.isfinite(report.distinctiveness) and report.distinctiveness > 0

    def test_no_content_words_gives_even_posterior(self):
        vocab, unigram, rel = _resources(3)
        report = meaning_report(["the", "hare", "."], 1,
                                PunPair("hare", "hair"), vocab, unigram, rel)
        assert report.posterior_pun == pytest.approx(0.5, abs=1e-15)
        assert report.ambiguity == pytest.approx(math.log(2), abs=1e-12)
        assert report.distinctiveness == 0.0
        assert type(report.distinctiveness) is float

    def test_pair_words_must_be_known(self):
        vocab, unigram, rel = _resources(4)
        with pytest.raises(UnknownWordError):
            meaning_report(["greyhound", "mystery"], 0,
                           PunPair("mystery", "hair"), vocab, unigram, rel)

    def test_position_bounds_checked(self):
        vocab, unigram, rel = _resources(5)
        with pytest.raises(ValueError):
            meaning_report(["hare"], 1, PunPair("hare", "hair"),
                           vocab, unigram, rel)

    def test_unknown_content_words_use_the_unknown_row(self):
        vocab, unigram, rel = _resources(6)
        pair = PunPair("hare", "hair")
        a = meaning_report(["qqq", "hare", "race"], 1, pair, vocab, unigram, rel)
        b = meaning_report(["zzz", "hare", "race"], 1, pair, vocab, unigram, rel)
        assert a.posterior_pun == b.posterior_pun


def _assert_equals_reference(tokens, position, vocab, unigram, rel):
    """Check ``meaning_report`` field by field with ``==`` against the
    two-pass reference."""
    report = meaning_report(tokens, position, PunPair("hare", "hair"), vocab,
                            unigram, rel)
    posterior, ambiguity, distinct, positions, f_pun, f_alt = reference_meaning_report(
        tokens, position, vocab.id_of("hare"), vocab.id_of("hair"), vocab.id_of,
        unigram, rel, STOPWORDS)
    assert report.posterior_pun == posterior
    assert report.ambiguity == ambiguity
    assert report.distinctiveness == distinct
    assert type(report.distinctiveness) is float
    assert report.content_positions == positions
    assert report.f_pun == f_pun and report.f_alt == f_alt
    return report
