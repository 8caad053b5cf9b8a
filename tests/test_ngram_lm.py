import functools
import hashlib
import math
import random

import numpy as np
import pytest

from oracles import (CountTablesKN, ReferenceKN, reference_kneser_ney_tables,
                     reference_walk)
from test_binio import assert_file_holds_tables, key_rows
from punforge.corpus import ingest
from punforge.demo_corpus import build_demo_corpus
from punforge.errors import FormatError, ResourceError, TrainingError
from punforge.ngram_lm import (FALLBACK_DISCOUNT, NGramModel, _kneser_ney_tables,
                               estimate_discounts, train_lm)

CORPORA = [
    "the cat sat on the mat . the cat ran . a dog sat .",
    "one fish two fish . red fish blue fish . one red dog .",
    "a a a b . b a c a b . c c a . a b c d e .",
]

# 300 seeded sentences over 30 words: enough repeats that contexts hold
# words with counts 1, 2 and 3+ in many different orders.
_RNG = random.Random(5)
RANDOM_TEXT = "\n".join(
    " ".join(_RNG.choice([f"w{i}" for i in range(30)])
             for _ in range(_RNG.randrange(1, 12))) + " ."
    for _ in range(300))


def _fit(text, order):
    sentences, vocab = ingest(text)
    model = train_lm(sentences, vocab, order=order)
    encoded = [vocab.encode(s.surfaces()) for s in sentences]
    reference = ReferenceKN(encoded, len(vocab), order)
    return model, reference, vocab, encoded


def _random_context(rng, model, max_len):
    length = rng.randrange(0, max_len + 1)
    pool = list(range(len(model.vocab))) + [model.bos_id]
    return [rng.choice(pool) for _ in range(length)]


class TestDiscounts:
    def test_hand_computed_example(self):
        # n1=2, n2=1, n3=1, n4=1 -> Y=0.5, D=(0.5, 0.5, 1.0)
        d1, d2, d3 = estimate_discounts([1, 1, 2, 3, 4])
        assert (d1, d2, d3) == pytest.approx((0.5, 0.5, 1.0))

    def test_missing_count_of_count_falls_back(self):
        assert estimate_discounts([1, 2, 3]) == (FALLBACK_DISCOUNT,) * 3
        assert estimate_discounts([]) == (FALLBACK_DISCOUNT,) * 3

    def test_out_of_range_estimate_falls_back(self):
        # Y near 1 with n3 >> n2 drives D2 far below zero.
        counts = [1] * 100 + [2] + [3] * 100 + [4]
        assert estimate_discounts(counts) == (FALLBACK_DISCOUNT,) * 3


class TestAgainstReference:
    @pytest.mark.parametrize("text", CORPORA)
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_prob_matches_reference(self, text, order):
        model, reference, vocab, _ = _fit(text, order)
        rng = random.Random(order * 101 + len(text))
        events = list(range(len(vocab))) + [model.eos_id]
        for _ in range(150):
            ctx = _random_context(rng, model, order - 1)
            w = rng.choice(events)
            assert model.prob(w, ctx) == pytest.approx(
                reference.prob(w, ctx), abs=1e-12
            )

    @pytest.mark.parametrize("text", CORPORA)
    @pytest.mark.parametrize("order", [2, 4])
    def test_logprob_seq_matches_reference(self, text, order):
        model, reference, vocab, encoded = _fit(text, order)
        rng = random.Random(7)
        sequences = list(encoded)
        for _ in range(10):
            n = rng.randrange(1, 9)
            sequences.append([rng.randrange(0, len(vocab)) for _ in range(n)])
        for seq in sequences:
            for markers in (True, False):
                assert model.logprob_seq(seq, markers) == pytest.approx(
                    reference.logprob_seq(seq, markers), abs=1e-9
                )

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_distributions_sum_to_one(self, order):
        model, _, vocab, encoded = _fit(CORPORA[0], order)
        rng = random.Random(13)
        contexts = [[], encoded[0][:1], encoded[0][: order - 1],
                    [model.bos_id] * (order - 1)]
        contexts += [_random_context(rng, model, order - 1) for _ in range(40)]
        events = list(range(len(vocab))) + [model.eos_id]
        for ctx in contexts:
            total = sum(model.prob(w, ctx) for w in events)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestAgainstCountTables:
    """The stored probabilities against the count recursion, compared with
    ``==``: both add each backoff numerator in sorted word order, so the
    tables must give the recursion's floats exactly."""

    @pytest.mark.parametrize("text", [pytest.param(CORPORA[2], id="abc"),
                                      pytest.param(RANDOM_TEXT, id="random300")])
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_prob_equals_recursion_for_every_event(self, text, order):
        sentences, vocab = ingest(text)
        model = train_lm(sentences, vocab, order=order)
        encoded = [vocab.encode(s.tokens) for s in sentences]
        oracle = CountTablesKN(encoded, len(vocab), order)
        discounts, _ = _kneser_ney_tables(_padded(encoded, len(vocab), order), order,
                                          len(vocab) + 1)
        assert discounts == oracle.discounts
        rng = random.Random(order)
        contexts = [ctx for level in oracle.levels for ctx in level]
        contexts += [_random_context(rng, model, order - 1) for _ in range(100)]
        events = list(range(len(vocab))) + [model.eos_id]
        assert [(w, ctx) for ctx in contexts for w in events
                if model.prob(w, ctx) != oracle.prob(w, ctx)] == []

    def test_ids_wider_than_64_bits(self, wide, wide_lm, tmp_path):
        """2,000 words at order 6: six ids take more than 64 bits, and
        every key is still one uint64."""
        sentences, vocab = wide
        model = wide_lm
        assert (len(vocab) + 2) ** 6 > 2 ** 64
        assert [keys.dtype for _, keys, _ in model._stored] == [np.uint64] * 6
        path = tmp_path / "m.pglm"
        model.save(path)
        loaded = NGramModel.load(path)
        oracle = CountTablesKN([vocab.encode(s.tokens) for s in sentences], len(vocab), 6)
        rng = random.Random(6)
        sampled = rng.sample(range(len(vocab)), 10) + [model.eos_id]
        for level in oracle.levels:
            for ctx in list(level)[::25]:
                for w in list(level[ctx][0]) + sampled:  # stored words first
                    assert model.prob(w, ctx) == loaded.prob(w, ctx) == oracle.prob(w, ctx)
        assert_file_holds_tables(path, model)

    def test_logprob_seq_equals_recursion_on_demo_corpus(self):
        sentences, vocab = ingest(build_demo_corpus())
        model = train_lm(sentences, vocab)
        encoded = [vocab.encode(s.tokens) for s in sentences]
        oracle = CountTablesKN(encoded, len(vocab), model.order)
        assert [(ids, markers) for ids in encoded for markers in (True, False)
                if model.logprob_seq(ids, markers) != oracle.logprob_seq(ids, markers)
                ] == []


def _padded(encoded, size, order):
    """The training ids as ``train_lm`` pads them: ``order - 1`` begin
    markers before each nonempty sentence and an end marker after it."""
    bos, eos = size, size + 1
    return np.array([t for ids in encoded if ids
                     for t in [bos] * (order - 1) + list(ids) + [eos]], dtype=np.int64)


def _grams(padded, order, bos):
    """One row per training token of ``padded``: the ``order - 1`` ids
    before it, then the token."""
    targets = np.flatnonzero(padded != bos)
    return padded[targets[:, None] + np.arange(1 - order, 1)]


def _reference_tables(sentences, vocab, order):
    """The lexsort reference's tables of a corpus: per order, its context
    rows, backoff weights, n-gram rows and probabilities."""
    size = len(vocab)
    padded = _padded([vocab.encode(s.tokens) for s in sentences], size, order)
    return reference_kneser_ney_tables(_grams(padded, order, size), size + 1)[1]


def _packed(row, radix):
    """A run of ids as ``reference_walk`` keys it: base-``radix`` digits
    after a leading 1."""
    return functools.reduce(lambda key, t: key * radix + t, row, 1)


def _reference_dicts(tables, radix):
    """Per order, the query dict ``reference_walk`` reads: the packed keys
    of the reference's context rows to backoff weights, then of its n-gram
    rows to probabilities."""
    return [{_packed(row, radix): value
             for rows, values in ((ctx, backoff), (gram_rows, probs))
             for row, value in zip(rows.tolist(), values.tolist())}
            for ctx, backoff, gram_rows, probs in tables]


class TestTablesEqualLexsortOracle:
    """Training's one sort of row keys per order against the lexsort over
    one key per column of the id rows: every table equal, dtype and shape
    included, its keys read back as id rows, and every discount.  The
    reference also builds the context rows the file leaves out: the
    distinct context ids of the n-gram rows, in row order."""

    @staticmethod
    def _assert_tables_equal(padded, order, n_events):
        discounts, tables = _kneser_ney_tables(padded, order, n_events)
        want_discounts, want_tables = reference_kneser_ney_tables(
            _grams(padded, order, n_events - 1), n_events)
        assert discounts == want_discounts
        assert len(tables) == len(want_tables) == order
        for (backoff, keys, probs), rows, (ctx_rows, *want) in zip(
                tables, key_rows(tables, n_events - 1), want_tables):
            assert keys.dtype == np.uint64
            for a, b in zip((backoff, rows, probs), want, strict=True):
                assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b)
            prefixes = [tuple(row[:-1]) for row in want[1].tolist()]
            assert [tuple(row) for row in ctx_rows.tolist()] == list(dict.fromkeys(prefixes))
        assert want_tables[0][0].shape == (1, 0)  # order 1: one context, of no ids
        assert tables[0][0].shape == (1,)  # and one backoff weight

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("corpus", ["demo", "random300", "wide"])
    def test_training_corpora(self, request, corpus, order):
        sentences, vocab = (ingest(RANDOM_TEXT) if corpus == "random300"
                            else request.getfixturevalue(corpus)[:2])
        padded = _padded([vocab.encode(s.tokens) for s in sentences], len(vocab), order)
        self._assert_tables_equal(padded, order, len(vocab) + 1)

    @pytest.mark.parametrize("order", [4, 5])
    def test_ids_up_to_a_radix_whose_fourth_power_is_two_to_the_64(self, order):
        """Radix 2 ** 16: the widest ids fill 64 bits in four ids, and every
        key is still one uint64 of a row and a word."""
        radix = 2 ** 16
        rng = np.random.default_rng(order)
        words = np.array([0, 1, 2, radix // 2, radix - 3])  # the markers are radix - 2, - 1
        sentences = [words[rng.integers(0, len(words), rng.integers(1, 8))].tolist()
                     for _ in range(150)]
        sentences = [ids for ids in sentences for _ in range(rng.integers(1, 4))]
        sentences = [sentences[i] for i in rng.permutation(len(sentences))]
        self._assert_tables_equal(_padded(sentences, radix - 2, order), order, radix - 1)


@pytest.fixture(scope="module")
def demo():
    """(sentences, vocab, encoded sentences) of the demo corpus."""
    sentences, vocab = ingest(build_demo_corpus())
    return sentences, vocab, [vocab.encode(s.tokens) for s in sentences]


def _pair_cases(model, sequences, rng):
    """(ids, position, alt id) at every slot of every sequence; the alt id is
    a random word, the unknown id or the slot's own id."""
    size = len(model.vocab)
    for ids in sequences:
        for position in range(len(ids)):
            yield ids, position, rng.choice([rng.randrange(size), 0, ids[position]])


def _pair_mismatches(model, oracle, sequences, rng):
    """The cases where ``logprob_pair`` differs from two ``logprob_seq``
    calls of the model or of the oracle."""
    bad = []
    for ids, position, alt in _pair_cases(model, sequences, rng):
        with_alt = ids[:position] + [alt] + ids[position + 1:]
        for markers in (False, True):
            got = model.logprob_pair(ids, position, alt, markers)
            if (got != (model.logprob_seq(with_alt, markers), model.logprob_seq(ids, markers))
                    or got != (oracle.logprob_seq(with_alt, markers),
                               oracle.logprob_seq(ids, markers))):
                bad.append((ids, position, alt, markers))
    return bad


def _random_sequences(rng, size, count):
    """Sequences of 1 to 12 ids, about half of them the unknown id."""
    return [[rng.choice([0, rng.randrange(size)]) for _ in range(rng.randrange(1, 13))]
            for _ in range(count)]


class TestLogprobPair:
    """The shared walk of a pair of sequences against a walk of each, and
    against the count recursion, compared with ``==``."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_equals_two_walks_on_demo_corpus(self, demo, order):
        sentences, vocab, encoded = demo
        model = train_lm(sentences, vocab, order=order)
        oracle = CountTablesKN(encoded, len(vocab), order)
        rng = random.Random(order)
        sequences = encoded[::12] + _random_sequences(rng, len(vocab), 60)
        assert _pair_mismatches(model, oracle, sequences, rng) == []

    def test_equals_two_walks_with_wide_keys(self, wide, wide_lm):
        sentences, vocab = wide
        encoded = [vocab.encode(s.tokens) for s in sentences]
        oracle = CountTablesKN(encoded, len(vocab), 6)
        rng = random.Random(6)
        sequences = encoded[::10] + _random_sequences(rng, len(vocab), 40)
        assert _pair_mismatches(wide_lm, oracle, sequences, rng) == []

    def test_short_sequences_and_slots_at_the_end(self, tiny_lm):
        """Length 1, and slots whose walks end before they could rejoin."""
        enc = tiny_lm.vocab.encode
        for ids in (enc(["cat"]), [0], enc(["the", "cat"]), enc(["the", "old", "cat"])):
            for position in range(len(ids)):
                for alt in (0, ids[position], enc(["dog"])[0]):
                    with_alt = ids[:position] + [alt] + ids[position + 1:]
                    for markers in (False, True):
                        assert tiny_lm.logprob_pair(ids, position, alt, markers) == (
                            tiny_lm.logprob_seq(with_alt, markers),
                            tiny_lm.logprob_seq(ids, markers))

    def test_suffix_is_walked_once_after_rejoining(self, demo, monkeypatch):
        sentences, vocab, encoded = demo
        model = train_lm(sentences, vocab, order=3)
        walks = 0
        step = model._step

        def counted(*args):
            nonlocal walks
            walks += 1
            return step(*args)

        monkeypatch.setattr(model, "_step", counted)
        ids = vocab.encode("the woman got a hair cut downtown .".split())
        model.logprob_pair(ids, 4, vocab.id_of("hare"), True)
        # the prefix once; the slot, "cut" and "downtown" (whose context
        # still holds the slot) twice; "." and the end marker once
        assert walks == 4 + 2 * 3 + 2

    def test_rejects_ids_outside_the_vocabulary(self, tiny_lm):
        ids = tiny_lm.vocab.encode(["the", "cat", "sat"])
        for bad in (tiny_lm.bos_id, tiny_lm.eos_id, -1):
            with pytest.raises(ValueError, match=f"token id {bad} outside the vocabulary"):
                tiny_lm.logprob_pair(ids, 1, bad, True)
            with pytest.raises(ValueError, match=f"token id {bad} outside the vocabulary"):
                tiny_lm.logprob_pair([ids[0], bad, ids[2]], 0, ids[1], False)

    @pytest.mark.parametrize("position", [-1, 3])
    def test_rejects_a_slot_outside_the_sequence(self, tiny_lm, position):
        with pytest.raises(ValueError, match="outside a sequence of length 3"):
            tiny_lm.logprob_pair([1, 2, 3], position, 4, True)


def _step_mismatches(model, tables, sequences):
    """Where the model's walk and ``reference_walk`` over the
    :func:`_reference_dicts` of ``tables``, the reference tables of the
    model's training corpus, part, stepped side by side over each sequence
    with and without markers: the p differs (``==``), or the ids of the
    carried state differ from those of the reference's longest context."""
    radix, longest, bos = model.eos_id + 1, model.order - 1, model.bos_id
    markers_of = [_packed([bos] * n, radix) for n in range(longest + 1)]
    # per length, the packed ids of each row, then of the run of begin markers
    state_keys = [[_packed(row, radix) for row in (tables[n - 1][2].tolist() if n else [])]
                  + [markers_of[n]] for n in range(longest + 1)]
    dicts = _reference_dicts(tables, radix)
    bad = []
    for ids in sequences:
        for markers in (False, True):
            seq = ids + [model.eos_id] if markers else ids
            row, length = model._start(markers)
            walk = reference_walk(dicts, radix, 1.0 / model.n_events, longest,
                                  markers_of if markers else [1], seq)
            for i, (w, (ref_p, ctx_keys)) in enumerate(zip(seq, walk)):
                p, row, length = model._step(row, length, w)
                if (p, state_keys[length][row], length) != (ref_p, ctx_keys[-1],
                                                           len(ctx_keys) - 1):
                    bad.append((ids, markers, i))
                    break
    return bad


class TestStep:
    """The one-state step against the list-of-suffix-keys walk it replaced."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_equals_reference_walk_on_demo_corpus(self, demo, order):
        sentences, vocab, encoded = demo
        model = train_lm(sentences, vocab, order=order)
        sequences = encoded[::6] + _random_sequences(random.Random(order), len(vocab), 200)
        tables = _reference_tables(sentences, vocab, order)
        assert _step_mismatches(model, tables, sequences) == []

    def test_equals_reference_walk_with_wide_keys(self, wide, wide_lm):
        sentences, vocab = wide
        assert wide_lm._radix ** wide_lm.order >= 2 ** 64
        assert [keys.dtype for _, keys, _ in wide_lm._stored] == [np.uint64] * 6
        sequences = ([vocab.encode(s.tokens) for s in sentences]
                     + _random_sequences(random.Random(7), len(vocab), 200))
        tables = _reference_tables(sentences, vocab, 6)
        assert _step_mismatches(wide_lm, tables, sequences) == []


def _reference_columns(tables, bos):
    """Per order, the query columns from the reference tables' id rows: a
    dict from each n-gram's key to its row, each row's probability, each
    order k - 1 row's backoff weight as a context (1.0 where it is none)
    and each row's suffix row, the run of begin markers last in both."""
    radix, lower = bos + 2, {}
    columns = ([], [], [], [])
    for k, (ctx_rows, backoff, gram_rows, probs) in enumerate(tables, start=1):
        rows = {tuple(row): i for i, row in enumerate(gram_rows.tolist())}
        contexts = {**lower, (bos,) * (k - 1): len(lower)}
        weights = [1.0] * len(contexts)
        for ctx, weight in zip(ctx_rows.tolist(), backoff.tolist()):
            weights[contexts[tuple(ctx)]] = weight
        for column, values in zip(columns, (
                {contexts[row[:-1]] * radix + row[-1]: i for row, i in rows.items()},
                probs.tolist(), weights, [contexts[row[1:]] for row in rows] + [len(lower)])):
            column.append(values)
        lower = rows
    return columns


class TestQueryColumns:
    """The columns a model builds from its keys alone, trained and loaded,
    against those of the reference's id rows and context rows: the same
    keys, rows and values in the same order."""

    @staticmethod
    def _assert_columns_equal(model, tables, tmp_path):
        path = tmp_path / "m.pglm"
        model.save(path)
        grams, *want = _reference_columns(tables, model.bos_id)
        for built in (model, NGramModel.load(path)):
            got_grams, *got = built._index
            assert [list(d.items()) for d in got_grams] == [list(d.items()) for d in grams]
            assert [[column.tolist() for column in columns] for columns in got] == want

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_demo_corpus(self, demo, order, tmp_path):
        sentences, vocab, _ = demo
        self._assert_columns_equal(train_lm(sentences, vocab, order=order),
                                   _reference_tables(sentences, vocab, order), tmp_path)

    def test_wide_keys(self, wide, tmp_path):
        sentences, vocab = wide
        model = train_lm(sentences, vocab, order=6)
        assert model._radix ** model.order >= 2 ** 64
        assert [keys.dtype for _, keys, _ in model._stored] == [np.uint64] * 6
        self._assert_columns_equal(model, _reference_tables(sentences, vocab, 6), tmp_path)

    # A hand-built model's tables are checked where a loaded one's are:
    # when its query dicts are built, here at its first query.
    @pytest.mark.parametrize("query", ["prob", "logprob_seq"])
    @pytest.mark.parametrize("mutate,error", [
        (lambda b, g, p: (b, g[::-1], p), "keys do not strictly increase"),
        (lambda b, g, p: (b[:-1], g, p), r"\d+ backoff weights for \d+ contexts"),
    ])
    def test_bad_tables_raise_at_the_first_query(self, tiny_lm, query, mutate, error):
        tables = [*tiny_lm._stored[:-1], mutate(*tiny_lm._stored[-1])]
        model = NGramModel(tiny_lm.order, tiny_lm.vocab, tables)
        with pytest.raises(ValueError, match=f"^order {tiny_lm.order}: {error}$"):
            if query == "prob":
                model.prob(0, [])
            else:
                model.logprob_seq([0], True)
        assert "_index" not in vars(model)


class TestQuerySemantics:
    def test_context_is_right_trimmed(self, tiny_lm):
        long_ctx = [3, 1, 2, 5, 1, 4]
        assert tiny_lm.prob(2, long_ctx) == tiny_lm.prob(2, long_ctx[-3:])

    def test_short_context_uses_lower_order_directly(self):
        model, reference, vocab, _ = _fit(CORPORA[0], 4)
        the = vocab.id_of("the")
        cat = vocab.id_of("cat")
        assert model.prob(cat, [the]) == pytest.approx(
            reference._p(2, (the,), cat), abs=1e-12
        )

    def test_begin_marker_is_not_an_event(self, tiny_lm):
        with pytest.raises(ValueError):
            tiny_lm.prob(tiny_lm.bos_id, [])

    def test_end_marker_is_an_event(self, tiny_lm):
        assert tiny_lm.prob(tiny_lm.eos_id, []) > 0.0

    def test_sequences_reject_marker_ids(self, tiny_lm):
        with pytest.raises(ValueError):
            tiny_lm.logprob_seq([tiny_lm.bos_id], use_boundary_markers=False)
        with pytest.raises(ValueError):
            tiny_lm.logprob_seq([tiny_lm.eos_id], use_boundary_markers=True)

    def test_unknown_id_is_a_first_class_event(self, tiny_lm):
        assert tiny_lm.prob(0, []) > 0.0

    def test_single_token_no_markers_is_its_unigram(self):
        model, reference, vocab, _ = _fit(CORPORA[1], 4)
        fish = vocab.id_of("fish")
        assert model.logprob_seq([fish], False) == pytest.approx(
            math.log(reference._p(1, (), fish)), abs=1e-12
        )


class TestProbContexts:
    """``prob`` against the count recursion, compared with ``==``, on
    contexts no training sentence pads: the walk starts at the row of the
    last run of begin markers and steps through the words after it."""

    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_equals_recursion(self, demo, order):
        sentences, vocab, encoded = demo
        model = train_lm(sentences, vocab, order=order)
        oracle = CountTablesKN(encoded, len(vocab), order)
        bos, eos = model.bos_id, model.eos_id
        first, second, _, later = encoded[0][:4]  # a sentence's first words
        contexts = {
            "a leading run": [[bos] * n for n in range(1, order)]
            + [[bos] * n + [first] for n in range(1, order - 1)] + [[bos, first, second]],
            "a marker in the middle": [[later, bos, first], [later, bos, bos, first],
                                       [first, bos], [later, first, bos, second]],
            "an id outside the event space": [[first, eos, second], [bos, -1, first],
                                              [bos, bos + 7, bos], [first, eos], [eos]],
            "more than order - 1 ids": [[later] * 8 + [bos, first], [bos] * (order + 2),
                                        [first] * (order + 3)],
        }
        events = list(range(len(vocab))) + [eos]
        assert [(case, ctx, w) for case, group in contexts.items() for ctx in group
                for w in events if model.prob(w, ctx) != oracle.prob(w, ctx)] == []


class TestUnigramBaseline:
    def test_add_one_estimate_by_hand(self):
        sentences, vocab = ingest("a a b c")
        model = train_lm(sentences, vocab, order=2)
        # N=4 tokens, V=4 rows (unknown, a, b, c)
        assert model.unigram_logprob(vocab.id_of("a")) == pytest.approx(
            math.log(3 / 8)
        )
        assert model.unigram_logprob(vocab.unk_id) == pytest.approx(
            math.log(1 / 8)
        )

    def test_is_a_distribution_over_the_vocabulary(self, tiny_lm):
        total = sum(math.exp(tiny_lm.unigram_logprob(i))
                    for i in range(len(tiny_lm.vocab)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_marker_ids(self, tiny_lm):
        with pytest.raises(ValueError):
            tiny_lm.unigram_logprob(tiny_lm.eos_id)

    def test_built_on_first_read_when_trained_and_at_load(self, tmp_path):
        sentences, vocab = ingest("a a b c")
        model = train_lm(sentences, vocab, order=2)
        model.save(tmp_path / "m.pglm")  # training and saving never read it
        assert "unigram_logprobs" not in vars(model)
        loaded = NGramModel.load(tmp_path / "m.pglm")
        assert "unigram_logprobs" in vars(loaded)
        assert model.unigram_logprobs == loaded.unigram_logprobs
        assert model.unigram_logprobs == pytest.approx(
            [math.log((c + 1) / 8) for c in (0, 2, 1, 1)])


class TestPersistence:
    def test_round_trip_preserves_probabilities(self, tiny_lm, tmp_path):
        path = tmp_path / "m.pglm"
        tiny_lm.save(path)
        loaded = NGramModel.load(path)
        rng = random.Random(3)
        events = list(range(len(tiny_lm.vocab))) + [tiny_lm.eos_id]
        for _ in range(100):
            ctx = _random_context(rng, tiny_lm, tiny_lm.order - 1)
            w = rng.choice(events)
            assert loaded.prob(w, ctx) == tiny_lm.prob(w, ctx)

    def test_reloaded_model_equals_trained_model(self, tmp_path):
        sentences, vocab = ingest(RANDOM_TEXT)
        model = train_lm(sentences, vocab, order=4)
        path = tmp_path / "m.pglm"
        model.save(path)
        loaded = NGramModel.load(path)
        encoded = [vocab.encode(s.tokens) for s in sentences]
        oracle = CountTablesKN(encoded, len(vocab), 4)
        events = list(range(len(vocab))) + [model.eos_id]
        assert [(w, ctx) for level in oracle.levels for ctx in level for w in events
                if loaded.prob(w, ctx) != model.prob(w, ctx)] == []
        assert [(ids, markers) for ids in encoded for markers in (True, False)
                if loaded.logprob_seq(ids, markers) != model.logprob_seq(ids, markers)
                ] == []

    # The walkthrough's outputs rest on these files, byte for byte.
    @pytest.mark.parametrize("order,digest", [
        (2, "efdeb4959b4e55c0"), (3, "79fb24fc31063964"), (4, "c3d016e4d94a3eb9"),
        (5, "00a22e586e247121"), (6, "2991ea898d008868")])
    def test_demo_model_bytes_are_pinned(self, tmp_path, order, digest):
        sentences, vocab = ingest(build_demo_corpus())
        path = tmp_path / "demo.pglm"
        train_lm(sentences, vocab, order=order).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_save_builds_no_query_dicts(self, tmp_path):
        sentences, vocab = ingest(RANDOM_TEXT)
        model = train_lm(sentences, vocab, order=3)
        model.save(tmp_path / "m.pglm")
        assert "_index" not in vars(model)

    def test_save_gives_the_same_bytes_before_and_after_a_query(self, tmp_path):
        sentences, vocab = ingest(RANDOM_TEXT)
        model = train_lm(sentences, vocab, order=3)
        before, after = tmp_path / "before.pglm", tmp_path / "after.pglm"
        model.save(before)
        model.logprob_seq(vocab.encode(sentences[0].tokens), True)
        assert "_index" in vars(model)
        model.save(after)
        assert after.read_bytes() == before.read_bytes()

    def test_loaded_model_is_not_saved_again(self, tiny_lm, tmp_path):
        path, again = tmp_path / "m.pglm", tmp_path / "again.pglm"
        tiny_lm.save(path)
        loaded = NGramModel.load(path)
        assert "_index" in vars(loaded) and loaded._stored is None
        with pytest.raises(ValueError, match="^a loaded language model is not saved"):
            loaded.save(again)
        assert not again.exists()

    def test_save_is_deterministic(self, tiny_lm, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        tiny_lm.save(a)
        tiny_lm.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_vocab_hash_mismatch_rejected(self, tiny_lm, tmp_path):
        path = tmp_path / "m.pglm"
        tiny_lm.save(path)
        _, other_vocab = ingest("completely different words entirely")
        with pytest.raises(ResourceError):
            NGramModel.load(path, expected_vocab_hash=other_vocab.hash_bytes())

    def test_matching_hash_accepted(self, tiny_lm, tmp_path):
        path = tmp_path / "m.pglm"
        tiny_lm.save(path)
        loaded = NGramModel.load(
            path, expected_vocab_hash=tiny_lm.vocab.hash_bytes()
        )
        assert loaded.order == tiny_lm.order

    def test_corrupt_embedded_vocab_rejected(self, tiny_lm, tmp_path):
        path = tmp_path / "m.pglm"
        tiny_lm.save(path)
        blob = path.read_bytes()
        # Rewrite one vocabulary word in place; the embedded hash must catch it.
        # magic, order, hash length prefix, hash
        header_len = 4 + 1 + 4 + 16
        at = blob.index(b"cat", header_len)
        path.write_bytes(blob[:at] + b"caX" + blob[at + 3:])
        with pytest.raises(FormatError):
            NGramModel.load(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.pglm"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(FormatError):
            NGramModel.load(path)


class TestTraining:
    def test_corpus_smaller_than_order_rejected(self):
        sentences, vocab = ingest("two words")
        with pytest.raises(TrainingError):
            train_lm(sentences, vocab, order=4)

    @pytest.mark.parametrize("order", [1, 7])
    def test_order_bounds_enforced(self, tiny, order):
        sentences, vocab = tiny
        with pytest.raises(ValueError):
            train_lm(sentences, vocab, order=order)

    def test_empty_sentences_are_ignored(self):
        sentences, vocab = ingest(CORPORA[0])
        ids = [vocab.encode(s.surfaces()) for s in sentences]
        a = train_lm(ids, vocab, order=3)
        b = train_lm([[]] + ids + [[]], vocab, order=3)
        rng = random.Random(11)
        for _ in range(50):
            ctx = _random_context(rng, a, 2)
            w = rng.randrange(0, len(vocab))
            assert a.prob(w, ctx) == b.prob(w, ctx)

    def test_accepts_raw_id_lists(self, tiny):
        sentences, vocab = tiny
        ids = [vocab.encode(s.surfaces()) for s in sentences]
        model = train_lm(ids, vocab, order=4)
        direct = train_lm(sentences, vocab, order=4)
        assert model.prob(1, [2]) == direct.prob(1, [2])
