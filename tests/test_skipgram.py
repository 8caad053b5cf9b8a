import collections
import dataclasses
import io
import logging
import struct

import numpy as np
import pytest

from oracles import (reference_predict_topics, reference_relatedness,
                     reference_sigmoid, reference_step_loss_grads,
                     reference_train_skipgram)
from punforge import skipgram
from punforge.corpus import Vocabulary, ingest
from punforge.errors import (FormatError, ResourceError, TrainingError,
                             UnknownWordError)
from punforge.skipgram import (MAX_BLOCK, MAX_EPOCHS, SkipGramConfig,
                               SkipGramModel, _sigmoid, block_grads, block_size,
                               extract_pairs, step_grads, step_loss_grads,
                               train_skipgram)


def _vocab(words):
    return Vocabulary({w: i + 1 for i, w in enumerate(reversed(words))})


class TestExtractPairs:
    def test_band_limits_by_hand(self):
        ids = [10, 11, 12, 13, 14, 15, 16]
        pairs = extract_pairs([ids], 5, 10)
        assert pairs.tolist() == [
            [10, 15], [15, 10], [10, 16], [16, 10], [11, 16], [16, 11],
        ]

    def test_nothing_closer_than_d1(self):
        pairs = extract_pairs([[1, 2, 3, 4, 5]], 5, 10)
        assert pairs.shape == (0, 2)

    def test_matches_brute_force_on_random_sentences(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            ids = rng.integers(0, 30, size=n).tolist()
            d1 = int(rng.integers(1, 6))
            d2 = d1 + int(rng.integers(0, 6))
            got = sorted(map(tuple, extract_pairs([ids], d1, d2).tolist()))
            want = []
            for i in range(n):
                for j in range(n):
                    if i != j and d1 <= abs(i - j) <= d2:
                        want.append((ids[i], ids[j]))
            assert got == sorted(want)

    def test_multiple_sentences_concatenate(self):
        a = extract_pairs([[1, 2, 3], [4, 5, 6]], 2, 2)
        assert a.tolist() == [[1, 3], [3, 1], [4, 6], [6, 4]]

    def test_band_validation(self):
        with pytest.raises(ValueError):
            extract_pairs([[1, 2]], 0, 3)
        with pytest.raises(ValueError):
            extract_pairs([[1, 2]], 4, 3)


class TestStepLossGrads:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        center = rng.normal(size=3)
        out = rng.normal(size=(6, 3))
        labels = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        loss, grad_center, grad_out = step_loss_grads(center, out, labels)
        eps = 1e-6
        for i in range(center.size):
            bumped = center.copy()
            bumped[i] += eps
            plus = step_loss_grads(bumped, out, labels)[0]
            bumped[i] -= 2 * eps
            minus = step_loss_grads(bumped, out, labels)[0]
            numeric = (plus - minus) / (2 * eps)
            assert abs(numeric - grad_center[i]) <= 1e-4 * max(1.0, abs(numeric))
        for r in range(out.shape[0]):
            for c in range(out.shape[1]):
                bumped = out.copy()
                bumped[r, c] += eps
                plus = step_loss_grads(center, bumped, labels)[0]
                bumped[r, c] -= 2 * eps
                minus = step_loss_grads(center, bumped, labels)[0]
                numeric = (plus - minus) / (2 * eps)
                assert abs(numeric - grad_out[r, c]) <= 1e-4 * max(1.0, abs(numeric))

    def test_repeated_rows_contribute_twice(self):
        rng = np.random.default_rng(1)
        center = rng.normal(size=4)
        row = rng.normal(size=4)
        single, _, _ = step_loss_grads(center, row[None, :], np.array([0.0]))
        double, _, _ = step_loss_grads(
            center, np.vstack([row, row]), np.array([0.0, 0.0])
        )
        assert double == pytest.approx(2 * single)

    def test_loss_is_stable_for_large_scores(self):
        center = np.array([1e3])
        out = np.array([[1.0], [-1.0]])
        labels = np.array([1.0, 0.0])
        loss, _, _ = step_loss_grads(center, out, labels)
        assert np.isfinite(loss)


class TestTraining:
    def _sentences(self):
        # "signal" and "echo" always sit exactly 5 apart; fillers vary.
        rng = np.random.default_rng(5)
        fillers = ["pad1", "pad2", "pad3", "pad4", "pad5", "pad6"]
        lines = []
        for _ in range(120):
            mid = rng.choice(fillers, size=4).tolist()
            lines.append(" ".join(["signal"] + mid + ["echo"]))
        return ingest("\n".join(lines))

    def test_same_seed_is_bitwise_identical(self):
        sentences, vocab = self._sentences()
        config = SkipGramConfig(dim=8, epochs=2, seed=9)
        a = train_skipgram(sentences, vocab, config)
        b = train_skipgram(sentences, vocab, config)
        assert np.array_equal(a.vec_in, b.vec_in)
        assert np.array_equal(a.vec_out, b.vec_out)

    def test_different_seeds_differ(self):
        sentences, vocab = self._sentences()
        a = train_skipgram(sentences, vocab, SkipGramConfig(dim=8, epochs=1, seed=1))
        b = train_skipgram(sentences, vocab, SkipGramConfig(dim=8, epochs=1, seed=2))
        assert not np.array_equal(a.vec_in, b.vec_in)

    def test_zero_epochs_keeps_seeded_init(self):
        sentences, vocab = self._sentences()
        model = train_skipgram(sentences, vocab, SkipGramConfig(dim=8, epochs=0, seed=3))
        rng = np.random.default_rng(3)
        expected = (rng.random((len(vocab), 8)) - 0.5) / 8
        assert np.array_equal(model.vec_in, expected)
        assert not model.vec_out.any()

    def test_no_pairs_in_band_is_an_error(self):
        sentences, vocab = ingest("too short . also short . tiny .")
        with pytest.raises(TrainingError):
            train_skipgram(sentences, vocab, SkipGramConfig(dim=4, epochs=1))

    def test_planted_distant_collocate_is_learned(self):
        sentences, vocab = self._sentences()
        model = train_skipgram(sentences, vocab, SkipGramConfig(dim=16, epochs=10, seed=1))
        top = [w for w, _ in model.predict_topics("signal", 2)]
        assert "echo" in top


def _oracle_case(words, negatives, epochs):
    """Id sentences, vocabulary and config for a training-equality case.

    Sentences include empty ones, ones shorter than d1, and one whose first
    and last ids are equal and d1 apart, so a center is its own context.
    """
    rng = np.random.default_rng(words * 100 + negatives)
    vocab = Vocabulary({f"w{i:03d}": int(c)
                        for i, c in enumerate(rng.integers(1, 50, size=words))})
    sentences = [rng.integers(1, words + 1, size=int(rng.integers(0, 16))).tolist()
                 for _ in range(30)]
    sentences += [[], [1], [2, 1], [3, 2, 1, 3]]
    config = SkipGramConfig(dim=6, d1=3, d2=5, epochs=epochs, negatives=negatives,
                            step_size=0.2, seed=words + epochs)
    return sentences, vocab, config


def _rule_inputs(pairs, counts):
    """The largest context share and noise probability, counted in Python."""
    noise = [c ** 0.75 for c in counts]
    p_ctx = max(collections.Counter(pairs[:, 1].tolist()).values()) / len(pairs)
    return p_ctx, max(noise) / sum(noise)


class TestBlockSize:
    def test_rule_by_hand(self):
        # ⌊1 / (0.25 · (0.125 + 2 · 0.0625))⌋ = ⌊16⌋
        assert block_size(0.25, 2, 0.125, 0.0625) == 16
        # ⌊1 / (0.25 · (0.25 + 0.0625))⌋ = ⌊12.8⌋
        assert block_size(0.25, 1, 0.25, 0.0625) == 12
        # below one rounds up to one pair, above MAX_BLOCK down to it
        assert block_size(1.0, 20, 0.5, 0.5) == 1
        assert block_size(float("inf"), 5, 0.1, 0.1) == 1
        assert block_size(0.025, 5, 0.01, 0.01) == MAX_BLOCK
        assert block_size(5e-324, 1, 0.5, 0.25) == MAX_BLOCK  # the rate is 0

    def test_cap_is_read_when_called(self, monkeypatch):
        monkeypatch.setattr(skipgram, "MAX_BLOCK", 1)
        assert block_size(1e-9, 5, 0.1, 0.1) == 1
        monkeypatch.setattr(skipgram, "MAX_BLOCK", 8)
        assert block_size(0.25, 2, 0.125, 0.0625) == 8

    def test_a_tiny_vocabulary_stays_bounded(self, monkeypatch):
        # three words, 20 negatives: every block stacks many terms on each row
        sentences, vocab, config = _oracle_case(3, 20, 3)
        config = dataclasses.replace(config, step_size=0.025)
        pairs = extract_pairs(sentences, config.d1, config.d2)
        counts = [vocab.count_of_id(i) for i in range(len(vocab))]
        assert block_size(0.025, 20, *_rule_inputs(pairs, counts)) == 3
        assert np.abs(train_skipgram(sentences, vocab, config).vec_out).max() < 3
        monkeypatch.setattr(skipgram, "block_size", lambda *args: 64)
        assert np.abs(train_skipgram(sentences, vocab, config).vec_out).max() > 1e6


class TestTrainingEqualsOracle:
    """``train_skipgram`` against ``reference_train_skipgram``, a loop of one
    gather from the block's starting embeddings, one masked-branch sigmoid
    with its loss and one ``np.add.at`` per pair: every embedding byte must
    be equal."""

    @pytest.mark.parametrize("words,negatives,epochs,block", [
        # 21 targets over 3 words: every update repeats a row, and the rule
        # trains one pair at a time
        (3, 20, 0, 1), (3, 20, 1, 1), (3, 20, 3, 1),
        # 590 pairs in blocks of 17: the last block of an epoch holds 12
        (40, 5, 1, 17), (40, 5, 3, 17),
        # 662 pairs in blocks of MAX_BLOCK: the last block holds 22
        (300, 5, 1, MAX_BLOCK), (300, 5, 3, MAX_BLOCK),
    ])
    @pytest.mark.parametrize("verbose", [False, True])
    def test_embeddings_are_bytewise_equal(self, caplog, words, negatives, epochs,
                                           block, verbose):
        sentences, vocab, config = _oracle_case(words, negatives, epochs)
        pairs = extract_pairs(sentences, config.d1, config.d2)
        assert (pairs[:, 0] == pairs[:, 1]).any()  # a center is its own context
        counts = [vocab.count_of_id(i) for i in range(len(vocab))]
        assert block_size(config.step_size, negatives,
                          *_rule_inputs(pairs, counts)) == block
        assert block == 1 or len(pairs) % block
        vec_in, vec_out, repeated, shared_centers, losses = reference_train_skipgram(
            sentences, counts, *dataclasses.astuple(config), block=block)
        level = logging.INFO if verbose else logging.WARNING
        with caplog.at_level(level, logger="punforge.skipgram"):
            model = train_skipgram(sentences, vocab, config)
        assert model.vec_in.tobytes() == vec_in.tobytes()
        assert model.vec_out.tobytes() == vec_out.tobytes()
        updates = epochs * len(pairs)
        if words == 3:
            assert repeated == updates
        else:
            assert 0 < repeated < updates
            assert shared_centers > 0  # a center repeats within a block
        records = [r for r in caplog.records if r.name == "punforge.skipgram"]
        assert [r.getMessage() for r in records] == [
            f"skip-gram epoch {e}/{epochs}: mean loss {loss:.6f} over {len(pairs)} pairs"
            for e, loss in enumerate(losses, start=1)] * verbose
        # summed once per block, not per update: equal to 1e-9, not bitwise
        assert [r.args[2] for r in records] == pytest.approx(losses * verbose,
                                                             rel=1e-9, abs=0)

    @pytest.mark.parametrize("words", [40, 300])
    def test_a_block_of_one_is_sequential_sgd(self, monkeypatch, words):
        sentences, vocab, config = _oracle_case(words, 5, 3)
        counts = [vocab.count_of_id(i) for i in range(len(vocab))]
        vec_in, vec_out, *_ = reference_train_skipgram(
            sentences, counts, *dataclasses.astuple(config))
        blocked = train_skipgram(sentences, vocab, config)
        assert blocked.vec_out.tobytes() != vec_out.tobytes()
        monkeypatch.setattr(skipgram, "MAX_BLOCK", 1)
        model = train_skipgram(sentences, vocab, config)
        assert model.vec_in.tobytes() == vec_in.tobytes()
        assert model.vec_out.tobytes() == vec_out.tobytes()

    @pytest.mark.parametrize("dim", [3, 4, 16, 40, 300])
    def test_block_rows_equal_single_steps(self, dim):
        rng = np.random.default_rng(dim)
        for targets in (2, 6, 21):
            labels = np.zeros(targets)
            labels[0] = 1.0
            for b in (1, 2, 64):
                centers = rng.standard_normal((b, dim))
                out = rng.standard_normal((b, targets, dim))
                got = block_grads(centers, out, labels)
                for r in range(b):
                    loss, *want = reference_step_loss_grads(centers[r], out[r], labels)
                    assert got[0][r].tobytes() == (out[r] @ centers[r]).tobytes()
                    for a, w in zip(got[1:], want):
                        assert a[r].tobytes() == w.tobytes()

    def test_step_equals_masked_branch_sigmoid(self):
        rng = np.random.default_rng(8)
        labels = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        for scale in (1e-300, 1e-3, 1.0, 30.0, 800.0):
            center = rng.standard_normal(4) * scale
            out = rng.standard_normal((5, 4))
            out[3] = 0.0  # a score of exactly zero
            got = step_loss_grads(center, out, labels)
            want = reference_step_loss_grads(center, out, labels)
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.tobytes() == b.tobytes()
            scores, *grads = step_grads(center, out, labels)
            assert scores.tobytes() == (out @ center).tobytes()
            for a, b in zip(grads, got[1:]):
                assert a.tobytes() == b.tobytes()

        def assert_bytes_or_both_nan(a, b):
            # a NaN's sign may differ, and training refuses NaN embeddings
            nan = np.isnan(b)
            assert (np.isnan(a) == nan).all() and a[~nan].tobytes() == b[~nan].tobytes()

        # -0.0 goes to the sigmoid itself: a dot product of zeros sums to +0.0
        planted = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -5e-324, 800.0, -800.0])
        assert_bytes_or_both_nan(_sigmoid(planted), reference_sigmoid(planted))
        center = np.array([1.0, 1.0])
        out = np.array([[np.inf, 0.0], [-np.inf, 0.0], [0.0, 0.0], [1.0, 1.0],
                        [np.nan, 0.0]])
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are NaN
            assert step_grads(center, out, labels)[0][:2].tolist() == [np.inf, -np.inf]
            got = step_loss_grads(center, out, labels)
            want = reference_step_loss_grads(center, out, labels)
        for a, b in zip((np.array(got[0]),) + got[1:], (np.array(want[0]),) + want[1:]):
            assert_bytes_or_both_nan(a, b)


@pytest.fixture(scope="module")
def trained():
    sentences, vocab = ingest(
        "\n".join(["alpha p q r s beta"] * 40 + ["gamma p q r s delta"] * 40)
    )
    return train_skipgram(sentences, vocab, SkipGramConfig(dim=8, epochs=3, seed=2))


class TestQueries:
    def test_relatedness_is_a_distribution(self, trained):
        for word in ("alpha", "beta", "p"):
            dist = trained.relatedness_dist(word)
            assert dist.shape == (len(trained.vocab),)
            assert np.all(dist >= 0)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_word_raises(self, trained):
        with pytest.raises(UnknownWordError):
            trained.relatedness_dist("zebra")
        with pytest.raises(UnknownWordError):
            trained.relatedness_by_id(len(trained.vocab))

    def test_predict_topics_excludes_query_and_unknown(self, trained):
        words = [w for w, _ in trained.predict_topics("alpha", len(trained.vocab))]
        assert "alpha" not in words
        assert "<unk>" not in words
        assert len(words) == len(trained.vocab) - 2

    def test_predict_topics_renormalizes(self, trained):
        probs = [p for _, p in trained.predict_topics("alpha", len(trained.vocab))]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_predict_topics_k_validation(self, trained):
        with pytest.raises(ValueError):
            trained.predict_topics("alpha", 0)

    def test_uniform_model_ties_break_lexicographically(self):
        vocab = _vocab(["mu", "nu", "xi", "om"])
        config = SkipGramConfig(dim=4)
        model = SkipGramModel(vocab, config,
                              np.ones((len(vocab), 4)), np.zeros((len(vocab), 4)))
        top = model.predict_topics("nu", 3)
        assert [w for w, _ in top] == ["mu", "om", "xi"]
        assert all(p == pytest.approx(1 / 3) for _, p in top)


def _oracle_topics(model, word, k):
    words = list(model.vocab.words)
    return reference_predict_topics(model.relatedness_dist(word), words,
                                    model.vocab.id_of(word), model.vocab.unk_id, k)


class TestPredictTopicsOracle:
    """``predict_topics`` against a Python sort of (-probability, word)."""

    def test_exact_ties_break_as_python_sorts_words(self):
        # ids follow frequency, not spelling; words mix case, digits and
        # non-ASCII letters, and many share one of four exact probabilities
        words = ["zeta", "Zeta", "alpha", "älpha", "b", "B", "a1", "a_",
                 "émile", "omega", "x", "x2", "mu", "nu", "Mu", "ß"]
        vocab = Vocabulary({w: 100 - i for i, w in enumerate(words)})
        rng = np.random.default_rng(3)
        vec_out = rng.choice([0.0, 1.0, 2.0, -3.0], size=(len(vocab), 1))
        model = SkipGramModel(vocab, SkipGramConfig(dim=1),
                              np.ones((len(vocab), 1)), vec_out)
        assert len(np.unique(vec_out)) < len(vocab) // 3
        for word in ("zeta", "b", "ß", "<unk>"):
            for k in (1, 5, len(vocab)):
                assert model.predict_topics(word, k) == _oracle_topics(model, word, k)

    def test_trained_model(self, trained):
        for word, _, _ in trained.vocab.items():
            assert (trained.predict_topics(word, len(trained.vocab))
                    == _oracle_topics(trained, word, len(trained.vocab)))

    def test_tie_runs_across_the_kth_place_at_every_k(self):
        # 200 words over five output values: every boundary cuts a run of
        # equal probabilities, and ids do not follow spelling
        rng = np.random.default_rng(11)
        words = [f"w{n:03d}" for n in rng.permutation(200)]
        vocab = Vocabulary({w: 1000 - i for i, w in enumerate(words)})
        vec_out = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=(len(vocab), 1))
        model = SkipGramModel(vocab, SkipGramConfig(dim=1),
                              np.ones((len(vocab), 1)), vec_out)
        v = len(vocab)
        for word in (words[0], words[57], words[-1], "<unk>"):
            for k in range(1, v + 2):
                assert model.predict_topics(word, k) == _oracle_topics(model, word, k)

    def test_all_zero_output_gives_first_words_by_spelling(self):
        words = ["kiwi", "fig", "apple", "date", "cherry", "banana", "elder"]
        vocab = _vocab(words)
        model = SkipGramModel(vocab, SkipGramConfig(dim=3),
                              np.ones((len(vocab), 3)), np.zeros((len(vocab), 3)))
        eligible = sorted(w for w in words if w != "date")
        for k in range(1, len(vocab) + 2):
            top = model.predict_topics("date", k)
            assert [w for w, _ in top] == eligible[:k]
            assert all(p == 1 / len(eligible) for _, p in top)
            assert top == _oracle_topics(model, "date", k)

    def test_query_and_unknown_are_never_returned(self):
        rng = np.random.default_rng(8)
        words = [f"v{n}" for n in rng.permutation(40)]
        vocab = _vocab(words)
        v = len(vocab)
        vec_in = rng.normal(size=(v, 3))
        vec_in[vocab.id_of("v5")] = 0.0     # a uniform softmax
        vec_in[vocab.id_of("v9")] = np.nan  # every probability NaN
        model = SkipGramModel(vocab, SkipGramConfig(dim=3), vec_in,
                              rng.normal(size=(v, 3)))
        for word in ("v0", "v5", "v9", "<unk>"):
            excluded = {word, "<unk>"}
            for k in range(1, v + 2):
                top = model.predict_topics(word, k)
                assert not excluded & {w for w, _ in top}, (word, k)
                assert len(top) == min(k, v - len(excluded))
                if word != "v9":  # NaN makes the oracle's sort undefined
                    assert top == _oracle_topics(model, word, k)

    @staticmethod
    def _full_sort(model, word, k):
        """Every eligible word in one lexsort of (-p, word); probabilities as
        repr, since NaN equals nothing."""
        words = list(model.vocab.words)
        rank = np.empty(len(words), dtype=np.int64)
        rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
        dist = model.relatedness_dist(word)
        eligible = np.array([i for i in range(len(words))
                             if i not in (model.vocab.id_of(word), model.vocab.unk_id)])
        p = dist[eligible]
        total = float(np.cumsum(p)[-1])
        order = np.lexsort((rank[eligible], -p))[:k]
        return [(words[eligible[i]], repr(float(p[i] / total))) for i in order]

    def test_nan_row_equals_a_full_sort(self, monkeypatch):
        rng = np.random.default_rng(4)
        words = [f"t{n}" for n in rng.permutation(30)]
        vocab = _vocab(words)
        v = len(vocab)
        model = SkipGramModel(vocab, SkipGramConfig(dim=2),
                              rng.random((v, 2)), rng.choice([0.0, 1.0], size=(v, 2)))
        model.vec_out[vocab.id_of("t7")] = np.nan  # every softmax value is NaN
        # a distribution with NaN beside finite ties, as no softmax makes one
        mixed = rng.choice([0.0, 0.25, 0.5], size=v)
        mixed[rng.choice(v, size=8, replace=False)] = np.nan
        for word in ("t3", "t7", "<unk>"):
            for k in range(1, v + 2):
                got = [(w, repr(p)) for w, p in model.predict_topics(word, k)]
                assert got == self._full_sort(model, word, k)
        monkeypatch.setattr(model, "relatedness_dist", lambda word: mixed)
        for word in ("t3", "<unk>"):
            for k in range(1, v + 2):
                got = [(w, repr(p)) for w, p in model.predict_topics(word, k)]
                assert got == self._full_sort(model, word, k)


def _fresh(model, vec_out=None):
    """A model over the same arrays as ``model``, with nothing cached."""
    return SkipGramModel(model.vocab, model.config, model.vec_in,
                         model.vec_out if vec_out is None else vec_out)


class TestRelatednessCache:
    """Rows built from kept softmax normalizers against a softmax computed
    afresh: a gather may round its dot products differently from the full
    product, so values agree to 1e-12 relative."""

    @staticmethod
    def _assert_matches_oracle(model, word_id, ids):
        want = reference_relatedness(model.vec_in, model.vec_out, word_id)[ids]
        got = model.relatedness_by_id(word_id)[ids]
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.fixture()
    def wide(self):
        """300 words with random embeddings, so gathers round differently."""
        rng = np.random.default_rng(5)
        vocab = _vocab([f"w{n}" for n in range(299)])
        v = len(vocab)
        return SkipGramModel(vocab, SkipGramConfig(dim=16),
                             rng.normal(size=(v, 16)), rng.normal(size=(v, 16)))

    def test_every_query_equals_oracle_first_and_on_repeat(self, trained, wide):
        for model in (_fresh(trained), wide):
            v = len(model.vocab)
            rng = np.random.default_rng(v)
            for _ in range(2):  # cold, then warm
                for word_id in range(v):
                    self._assert_matches_oracle(model, word_id, list(range(v)))
                    self._assert_matches_oracle(
                        model, word_id, rng.integers(0, v, size=7).tolist())
            assert len(model._normalizers) == v
            assert model.relatedness_lookups == 4 * v

    def test_full_vectors_equal_oracle_bitwise(self, trained, wide):
        for model in (_fresh(trained), wide):
            for word, word_id, _ in model.vocab.items():
                want = reference_relatedness(model.vec_in, model.vec_out, word_id)
                assert model.relatedness_dist(word).tobytes() == want.tobytes()
            assert not model._normalizers

    def test_rows_index_like_a_vector(self, wide):
        want = reference_relatedness(wide.vec_in, wide.vec_out, 3)
        row = wide.relatedness_by_id(3)
        assert row[[]].shape == (0,)
        np.testing.assert_allclose(row[[5, 1, 5]], want[[5, 1, 5]], rtol=1e-12)
        assert row[7] == pytest.approx(want[7], rel=1e-12, abs=0)

    def test_counts_each_anchor_once(self, trained, caplog):
        model = _fresh(trained)
        for word_id in (1, 1, 2, 2, 1):
            model.relatedness_by_id(word_id)
        model.relatedness_dist("alpha")  # a full vector, no normalizer
        model.predict_topics("beta", 2)
        assert sorted(model._normalizers) == [1, 2]
        assert model.relatedness_lookups == 5
        with caplog.at_level(logging.INFO, logger="punforge.skipgram"):
            model.log_relatedness_counts()
        assert caplog.messages == ["relatedness normalizers: 2 computed, 3 reused"]

    def test_returned_rows_are_read_only(self, trained):
        row = _fresh(trained).relatedness_by_id(1)
        with pytest.raises(AttributeError):
            row.top = 0.0
        with pytest.raises(TypeError):
            row[0] = 1.0

    def test_two_models_share_no_entries(self, trained):
        first = _fresh(trained)
        # doubled scores: a permutation of the rows would keep max and sum
        second = _fresh(trained, vec_out=2.0 * trained.vec_out)
        ids = list(range(len(trained.vocab)))
        for word_id in (1, 2, 1, 2):
            for model in (first, second):
                self._assert_matches_oracle(model, word_id, ids)
        assert not np.allclose(first.relatedness_by_id(1)[ids],
                               second.relatedness_by_id(1)[ids])
        assert first._normalizers[1] != second._normalizers[1]
        for model in (first, second):
            assert (len(model._normalizers), model.relatedness_lookups) == (2, 5)

    def test_out_of_range_id_raises_when_warm(self, trained):
        model = _fresh(trained)
        for _ in range(2):  # cold, then warm
            for word_id in (-1, len(model.vocab), len(model.vocab) + 5):
                with pytest.raises(UnknownWordError):
                    model.relatedness_by_id(word_id)
            model.relatedness_by_id(0)
        assert (len(model._normalizers), model.relatedness_lookups) == (1, 2)

    def test_predict_topics_matches_oracle_cold_and_warm(self, trained):
        model = _fresh(trained)
        v = len(model.vocab)
        words = list(model.vocab.words)
        for _ in range(2):
            for word, word_id, _ in model.vocab.items():
                want = reference_predict_topics(
                    reference_relatedness(model.vec_in, model.vec_out, word_id),
                    words, word_id, model.vocab.unk_id, v)
                assert model.predict_topics(word, v) == want
                model.relatedness_by_id(word_id)  # a kept normalizer changes nothing
                assert model.predict_topics(word, v) == want


class TestPersistence:
    @pytest.fixture()
    def model(self):
        sentences, vocab = ingest("\n".join(["one a b c d two"] * 30))
        return train_skipgram(sentences, vocab, SkipGramConfig(dim=6, epochs=2, seed=4))

    def test_round_trip_is_bitwise(self, model, tmp_path):
        path = tmp_path / "m.pgsg"
        model.save(path)
        loaded = SkipGramModel.load(path)
        assert np.array_equal(loaded.vec_in, model.vec_in)
        assert np.array_equal(loaded.vec_out, model.vec_out)
        assert loaded.config == model.config
        assert list(loaded.vocab.items()) == list(model.vocab.items())

    def test_vocab_hash_checked(self, model, tmp_path):
        path = tmp_path / "m.pgsg"
        model.save(path)
        _, other = ingest("unrelated corpus text")
        with pytest.raises(ResourceError):
            SkipGramModel.load(path, expected_vocab_hash=other.hash_bytes())

    def test_truncated_table_rejected(self, model, tmp_path):
        path = tmp_path / "m.pgsg"
        model.save(path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            SkipGramModel.load(path)

    # byte offset and packed zero of each header field the config rejects at 0
    @pytest.mark.parametrize("field,offset,zero", [
        ("dim", 4, struct.pack("<I", 0)),
        ("negatives", 20, struct.pack("<I", 0)),
        ("step_size", 24, struct.pack("<d", 0.0)),
    ], ids=["dim", "negatives", "step_size"])
    def test_rejected_header_value_is_format_error(self, model, tmp_path,
                                                   field, offset, zero):
        path = tmp_path / "m.pgsg"
        model.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:offset] + zero + blob[offset + len(zero):])
        with pytest.raises(FormatError) as exc:
            SkipGramModel.load(path)
        assert str(exc.value).startswith(f"corrupt skip-gram model {path}: {field} must be")

    def test_epochs_above_the_maximum_is_format_error(self, model, tmp_path):
        path = tmp_path / "m.pgsg"
        model.save(path)
        blob = path.read_bytes()  # epochs is the fourth u32 after the magic
        path.write_bytes(blob[:16] + struct.pack("<I", MAX_EPOCHS + 1) + blob[20:])
        with pytest.raises(FormatError) as exc:
            SkipGramModel.load(path)
        assert str(exc.value) == (f"corrupt skip-gram model {path}: epochs must be "
                                  f"in [0, {MAX_EPOCHS}], got {MAX_EPOCHS + 1}")

    @pytest.mark.parametrize("table", ["vec_in", "vec_out"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_format_error(self, model, tmp_path, table, value):
        getattr(model, table)[2, 3] = value
        path = tmp_path / "m.pgsg"
        model.save(path)
        with pytest.raises(FormatError) as exc:
            SkipGramModel.load(path)
        assert str(exc.value) == f"corrupt skip-gram model {path}: non-finite embedding value"

    def test_export_text_round_trips_values(self, model):
        out = io.StringIO()
        model.export_text(out)
        lines = out.getvalue().splitlines()
        header = lines[0].split()
        assert [int(header[0]), int(header[1])] == [len(model.vocab), 6]
        first = lines[1].split()
        idx = model.vocab.id_of(first[0])
        values = np.array([float(v) for v in first[1:]])
        assert np.array_equal(values, model.vec_in[idx])
