import math
import sys
from types import SimpleNamespace

import pytest

from punforge.corpus import ingest
from punforge.demo_corpus import build_demo_corpus
from punforge.ngram_lm import train_lm
from punforge.surprisal import (RATIO_EPS, PunOccurrence, PunPair,
                                local_global, s_ratio, score_occurrence,
                                surprisal)

BIG = sys.float_info.max


def _manual_logprob(model, ids, markers):
    """Chain-rule scoring through prob() only; no sequence helper."""
    if markers:
        seq = [model.bos_id] * (model.order - 1) + list(ids) + [model.eos_id]
        start = model.order - 1
    else:
        seq = list(ids)
        start = 0
    total = 0.0
    for i in range(start, len(seq)):
        total += math.log(model.prob(seq[i], seq[max(0, i - model.order + 1):i]))
    return total


class _SeqOnly:
    """A model without ``logprob_pair``: the surprisals take two walks.
    ``unigram_logprobs`` is there for unusualness."""

    def __init__(self, model):
        self.vocab = model.vocab
        self.logprob_seq = model.logprob_seq
        self.unigram_logprobs = model.unigram_logprobs


class TestPairAndOccurrence:
    def test_pair_must_differ(self):
        with pytest.raises(ValueError):
            PunPair("hare", "hare")

    def test_pair_words_must_be_nonempty(self):
        with pytest.raises(ValueError):
            PunPair("", "hair")

    @pytest.mark.parametrize("pun,alt", [("hare cut", "hair"), ("hare", " hair"),
                                         ("hare\t", "hair"), ("hare", "\u00a0")])
    def test_pair_words_hold_no_whitespace(self, pun, alt):
        with pytest.raises(ValueError, match="is empty or holds whitespace"):
            PunPair(pun, alt)

    def test_occurrence_position_bounds(self):
        with pytest.raises(ValueError):
            PunOccurrence(["a", "b"], 2)
        with pytest.raises(ValueError):
            PunOccurrence(["a", "b"], -1)


class TestSurprisal:
    def test_antisymmetric_under_pair_swap(self, tiny_lm):
        left, right = ["the"], ["sat", "on"]
        forward = surprisal(tiny_lm, left, right, PunPair("cat", "dog"))
        backward = surprisal(tiny_lm, left, right, PunPair("dog", "cat"))
        assert forward == -backward

    def test_chain_rule_identity(self, tiny_lm):
        pair = PunPair("cat", "dog")
        left, right = ["the", "old"], ["sat", "on"]
        enc = tiny_lm.vocab.encode
        expected = (
            _manual_logprob(tiny_lm, enc(left + ["dog"] + right), False)
            - _manual_logprob(tiny_lm, enc(left + ["cat"] + right), False)
        )
        assert surprisal(tiny_lm, left, right, pair) == pytest.approx(
            expected, abs=1e-9
        )

    def test_zero_on_a_distributionally_symmetric_corpus(self):
        text = ("the cat sat . the dog sat . a cat ran . a dog ran . "
                "cat and dog play . dog and cat play .")
        sentences, vocab = ingest(text)
        model = train_lm(sentences, vocab, order=3)
        value = surprisal(model, ["the"], ["sat", "."], PunPair("cat", "dog"))
        assert value == pytest.approx(0.0, abs=1e-9)


class TestLocalGlobal:
    def test_window_clipped_at_sentence_edges(self, tiny_lm):
        occ = PunOccurrence(["cat", "sat", "on", "the", "mat"], 0)
        pair = PunPair("cat", "dog")
        s_loc, _ = local_global(tiny_lm, occ, pair, window=2)
        assert s_loc == surprisal(tiny_lm, [], ["sat", "on"], pair)

    def test_window_width_honored(self, tiny_lm):
        occ = PunOccurrence(["the", "old", "cat", "sat", "on", "the", "mat"], 2)
        pair = PunPair("cat", "dog")
        s1, _ = local_global(tiny_lm, occ, pair, window=1)
        assert s1 == surprisal(tiny_lm, ["old"], ["sat"], pair)
        s3, _ = local_global(tiny_lm, occ, pair, window=3)
        assert s3 == surprisal(
            tiny_lm, ["the", "old"], ["sat", "on", "the"], pair
        )

    def test_global_matches_manual_marker_scoring(self, tiny_lm):
        tokens = ["the", "cat", "sat", "on", "the", "mat", "."]
        occ = PunOccurrence(tokens, 1)
        pair = PunPair("cat", "dog")
        enc = tiny_lm.vocab.encode
        _, s_glob = local_global(tiny_lm, occ, pair)
        swapped = ["the", "dog", "sat", "on", "the", "mat", "."]
        expected = (_manual_logprob(tiny_lm, enc(swapped), True)
                    - _manual_logprob(tiny_lm, enc(tokens), True))
        assert s_glob == pytest.approx(expected, abs=1e-9)

    def test_token_at_position_must_be_the_pun_word(self, tiny_lm):
        occ = PunOccurrence(["the", "cat", "sat"], 0)
        with pytest.raises(ValueError):
            local_global(tiny_lm, occ, PunPair("cat", "dog"))

    def test_window_must_be_positive(self, tiny_lm):
        occ = PunOccurrence(["the", "cat", "sat"], 1)
        with pytest.raises(ValueError):
            local_global(tiny_lm, occ, PunPair("cat", "dog"), window=0)


class TestRatioGate:
    @pytest.mark.parametrize("s_loc, s_glob, expected", [
        (3.0, 1.5, 2.0),
        (0.0, 1.0, 0.0),
        (-0.0, 1.0, 0.0),
        (1.0, BIG, 1.0 / BIG),
        (float("nan"), 1.0, -1.0),
        (1.0, float("nan"), -1.0),
        (-0.5, 1.0, -1.0),
        (1.0, -2.0, -1.0),
        (1.0, 0.0, -1.0),
        (1.0, RATIO_EPS / 2, -1.0),
        (float("inf"), float("inf"), -1.0),
        (float("inf"), 1.0, BIG),
        (1e300, 1e-9, BIG),
    ])
    def test_gate_table(self, s_loc, s_glob, expected):
        assert s_ratio(s_loc, s_glob) == expected

    def test_never_nan_or_infinite(self):
        specials = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, BIG,
                    float("inf"), -float("inf"), float("nan"), RATIO_EPS]
        for a in specials:
            for b in specials:
                value = s_ratio(a, b)
                assert not math.isnan(value)
                assert not math.isinf(value)


class TestUnusualness:
    """Unusualness as ``score_occurrence`` reports it."""

    def test_matches_manual_computation(self, tiny_lm):
        tokens = ["the", "cat", "sat", "on", "the", "mat", "."]
        ids = tiny_lm.vocab.encode(tokens)
        joint = _manual_logprob(tiny_lm, ids, True)
        independent = sum(tiny_lm.unigram_logprob(i) for i in ids)
        expected = -(joint - independent) / len(ids)
        report = score_occurrence(tiny_lm, PunOccurrence(tokens, 1), PunPair("cat", "dog"))
        assert report.unusualness == pytest.approx(expected, abs=1e-9)

    def test_empty_sentence_rejected(self, tiny_lm):
        with pytest.raises(ValueError):
            score_occurrence(tiny_lm, PunOccurrence([], 0), PunPair("cat", "dog"))

    def test_baseline_adds_left_to_right(self):
        """Unigram terms 1, 1e100, 1, -1e100 add to 0.0 left to right and
        to 2.0 compensated, as sum() adds floats from Python 3.12."""
        class Stub:
            vocab = SimpleNamespace(encode=lambda tokens: list(map(int, tokens)))
            unigram_logprobs = [1.0, 1e100, -1e100, 5.0]

            def logprob_seq(self, ids, use_boundary_markers):
                return 0.0

        assert math.fsum([1.0, 1e100, 1.0, -1e100]) == 2.0
        report = score_occurrence(Stub(), PunOccurrence(["0", "1", "0", "2"], 1),
                                  PunPair("1", "3"))
        assert report.unusualness == 0.0


class TestScoreOccurrence:
    def test_report_fields_are_consistent(self, tiny_lm):
        tokens = ["the", "cat", "sat", "on", "the", "mat", "."]
        occ = PunOccurrence(tokens, 1)
        pair = PunPair("cat", "dog")
        report = score_occurrence(tiny_lm, occ, pair)
        s_loc, s_glob = local_global(tiny_lm, occ, pair)
        assert report.s_local == s_loc
        assert report.s_global == s_glob
        assert report.s_ratio == s_ratio(s_loc, s_glob)
        ids = tiny_lm.vocab.encode(tokens)
        independent = sum(tiny_lm.unigram_logprob(i) for i in ids)
        assert report.unusualness == pytest.approx(
            -(tiny_lm.logprob_seq(ids, True) - independent) / len(ids), abs=1e-12)

    def test_symmetric_corpus_is_flagged_degenerate(self):
        text = ("the cat sat . the dog sat . a cat ran . a dog ran . "
                "cat and dog play . dog and cat play .")
        sentences, vocab = ingest(text)
        model = train_lm(sentences, vocab, order=3)
        occ = PunOccurrence(["the", "cat", "sat", "."], 1)
        report = score_occurrence(model, occ, PunPair("cat", "dog"))
        assert abs(report.s_global) < 1e-9
        assert report.degenerate
        assert report.s_ratio == -1.0


@pytest.fixture(scope="module")
def demo_lm():
    sentences, vocab = ingest(build_demo_corpus())
    return sentences, train_lm(sentences, vocab)


class TestModelWithoutPairWalk:
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_two_walks_equal_the_shared_walk(self, demo_lm, window):
        sentences, model = demo_lm
        plain = _SeqOnly(model)
        size = len(model.vocab)
        mismatches = []
        for k, sentence in enumerate(sentences[::15]):
            tokens = sentence.surfaces()
            for p, word in enumerate(tokens):
                alt = "zzzz" if p == 2 else model.vocab.words[1 + (31 * k + p) % (size - 1)]
                if alt == word:
                    continue
                pair, occ = PunPair(word, alt), PunOccurrence(tokens, p)
                left, right = tokens[max(0, p - window):p], tokens[p + 1:p + 1 + window]
                if (surprisal(model, left, right, pair) != surprisal(plain, left, right, pair)
                        or local_global(model, occ, pair, window)
                        != local_global(plain, occ, pair, window)
                        or score_occurrence(model, occ, pair, window)
                        != score_occurrence(plain, occ, pair, window)):
                    mismatches.append((tokens, p, pair))
        assert mismatches == []
