import hashlib
import random

import pytest

from oracles import reference_postings
from punforge.corpus import (PRONOUNS, UNK, Corpus, Pos, PostingsView, Sentence,
                             TagLexicon, Vocabulary, ingest, load_corpus,
                             postings_of, save_corpus, split_sentences, tag,
                             tokenize)
from punforge.demo_corpus import build_demo_corpus
from punforge.errors import FormatError
from punforge.retrieval import build_index


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Don't stop, O'Leary's cat!") == [
        "don't", "stop", ",", "o'leary's", "cat", "!",
    ]


def test_tokenize_keeps_digits_and_isolates_symbols():
    assert tokenize("room 101; cost $5.50") == [
        "room", "101", ";", "cost", "$", "5", ".", "50",
    ]


def test_split_sentences_on_terminators_and_newlines():
    text = "He ran. She laughed!  Did it work?\nno terminator here\n\n"
    assert split_sentences(text) == [
        "He ran.", "She laughed!", "Did it work?", "no terminator here",
    ]


def test_space_joined_tokens_tokenize_back():
    for raw in ["The cat sat.", "Who, me?", "a 2-for-1 deal!"]:
        surfaces = tokenize(raw)
        assert tokenize(" ".join(surfaces)) == surfaces


def test_pronoun_list_is_the_fixed_closed_class():
    assert len(PRONOUNS) == 23
    assert {"he", "she", "someone", "themselves"} <= PRONOUNS
    assert "cat" not in PRONOUNS


class TestVocabulary:
    def test_ids_by_frequency_then_lexicographic(self):
        vocab = Vocabulary({"cat": 3, "dog": 3, "bee": 2, "ant": 1})
        assert [vocab.word_of(i) for i in range(len(vocab))] == [
            UNK, "cat", "dog", "bee", "ant",
        ]

    def test_min_count_folds_rare_words_into_unknown(self):
        vocab = Vocabulary({"cat": 3, "dog": 3, "bee": 2, "ant": 1}, min_count=2)
        assert len(vocab) == 4
        assert vocab.id_of("ant") == vocab.unk_id
        assert "ant" not in vocab
        assert vocab.count_of_id(vocab.unk_id) == 1
        assert vocab.total_count == 9

    def test_unknown_symbol_always_present(self):
        vocab = Vocabulary({})
        assert len(vocab) == 1
        assert vocab.id_of("anything") == 0
        assert UNK in vocab

    def test_encode_maps_unknowns_to_zero(self):
        vocab = Vocabulary({"cat": 2, "dog": 1})
        assert vocab.encode(["dog", "emu", "cat"]) == [2, 0, 1]

    def test_dump_round_trip_preserves_everything(self):
        vocab = Vocabulary({"cat": 3, "dog": 1, "bee": 2}, min_count=2)
        clone = Vocabulary.from_dump_lines(vocab.dump_lines())
        assert clone.dump_lines() == vocab.dump_lines()
        assert clone.hash_bytes() == vocab.hash_bytes()

    def test_hash_distinguishes_vocabularies(self):
        a = Vocabulary({"cat": 3, "dog": 1})
        b = Vocabulary({"cat": 3, "dog": 2})
        assert a.hash_bytes() != b.hash_bytes()
        assert len(a.hash_bytes()) == 16

    @pytest.mark.parametrize("lines", [
        ["cat\t0\t3"],                        # unk missing
        ["<unk>\t0\t0", "cat\t2\t3"],         # id gap
        ["<unk>\t0\t0", "cat\tx\t3"],         # non-integer id
        ["<unk>\t0\t0", "cat 1 3"],           # wrong separator
        [],                                   # empty
        ["<unk>\t0\t0", "cat\t1\t+3"],        # not as dump_lines writes them
        ["<unk>\t0\t0", "cat\t1\t 3"],
        ["<unk>\t0\t0", "cat\t01\t3"],
        ["<unk>\t0\t0", "cat\t1\t3_0"],
        ["<unk>\t0\t0", "", "cat\t1\t3"],      # a blank line
        ["<unk>\t0\t0", "cat\t1\t3\t4"],      # four fields
        ["<unk>\t0\t0", "cat\t1\t-3"],        # negative count
    ])
    def test_bad_dumps_rejected(self, lines):
        with pytest.raises(FormatError):
            Vocabulary.from_dump_lines(lines)

    @pytest.mark.parametrize("lines,message", [
        (["<unk>\t0\t0", "cat\t1\t3", "dog\t2"], r"bad vocabulary line 3: 'dog\\t2'"),
        (["<unk>\t0\t0", "cat\t1\tx"], r"bad vocabulary line 2: 'cat\\t1\\tx'"),
        (["<unk>\t0\t0", "cat\t2\t3"], "bad vocabulary id or count at line 2"),
        (["<unk>\t0\t0", "cat\t1\t3", "dog\t2\t-1"],
         "bad vocabulary id or count at line 3"),
        (["cat\t0\t3"], "vocabulary must start with '<unk>' at id 0"),
        (["<unk>\t0\t0", "a\t1\t3", "b\t2\t2", "a\t3\t1"],
         "repeated vocabulary word 'a' at line 4"),
        (["<unk>\t0\t0", "<unk>\t1\t3"], "repeated vocabulary word '<unk>' at line 2"),
    ])
    def test_bad_dump_names_its_first_bad_line(self, lines, message):
        with pytest.raises(FormatError, match=message):
            Vocabulary.from_dump_lines(lines)

    def test_dump_text_is_the_hashed_dump(self):
        vocab = Vocabulary({"cat": 3, "héé": 1})
        text = vocab.dump_text()
        assert text == "".join(line + "\n" for line in vocab.dump_lines())
        assert hashlib.sha256(text.encode("utf-8")).digest()[:16] == vocab.hash_bytes()
        clone = Vocabulary.from_dump_lines(text.removesuffix("\n").split("\n"))
        assert clone.hash_bytes() == vocab.hash_bytes()

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary({"cat": 1}, min_count=0)


class TestTagging:
    def test_priority_pronoun_noun_verb_other(self):
        lex = TagLexicon(nouns={"her", "dog", "run"}, verbs={"run", "dog"})
        assert lex.tag_word("her") is Pos.PRONOUN
        assert lex.tag_word("dog") is Pos.NOUN
        assert lex.tag_word("run") is Pos.NOUN
        assert lex.tag_word("blue") is Pos.OTHER

    def test_tag_gives_one_tag_per_token(self):
        lex = TagLexicon(nouns={"dog"}, verbs={"ran"})
        sent = Sentence(7, ["the", "dog", "ran"])
        assert tag(sent, lex) == [Pos.OTHER, Pos.NOUN, Pos.VERB]
        assert sent.tokens == ["the", "dog", "ran"]


class TestIngest:
    def test_plain_text_counts_and_ids(self):
        sentences, vocab = ingest("The cat sat. The cat ran.")
        assert [s.surfaces() for s in sentences] == [
            ["the", "cat", "sat", "."], ["the", "cat", "ran", "."],
        ]
        assert [s.sent_id for s in sentences] == [0, 1]
        assert vocab.count_of_id(vocab.id_of("the")) == 2
        assert vocab.count_of_id(vocab.id_of(".")) == 2

    def test_min_count_applies(self):
        sentences, vocab = ingest("a a a b", min_count=2)
        assert vocab.encode(sentences[0].surfaces()) == [1, 1, 1, 0]

    def test_tagged_input_keeps_underscored_surfaces_and_drops_tags(self):
        sentences, vocab = ingest(
            "The_OTHER ice_cream_NOUN melted_verb ._OTHER", tagged=True
        )
        assert sentences[0].tokens == ["the", "ice_cream", "melted", "."]
        assert ingest("the_NOUN ice_cream_VERB melted_OTHER ._UNKNOWN",
                      tagged=True)[0] == sentences
        assert vocab.dump_lines() == ingest("the ice_cream melted .")[1].dump_lines()

    def test_tagged_input_rejects_unknown_tag(self):
        with pytest.raises(FormatError, match="line 2: unknown tag 'NOUNISH'"):
            ingest("cat_NOUN\ndog_NOUNISH", tagged=True)

    def test_tagged_input_rejects_missing_tag(self):
        with pytest.raises(FormatError, match="line 1: token 'dog' lacks a _TAG"):
            ingest("dog", tagged=True)

    @pytest.mark.parametrize("chunk", ["_NOUN", "_", "_bogus"])
    def test_tagged_input_rejects_empty_surface(self, chunk):
        with pytest.raises(FormatError,
                           match=f"line 1: token '{chunk}' has an empty surface"):
            ingest(f"a_OTHER {chunk} b_OTHER", tagged=True)

    @pytest.mark.parametrize("tagged", [False, True])
    def test_tokens_are_strings(self, tagged):
        text = "a_OTHER dog_NOUN ran_VERB" if tagged else "a dog ran"
        sentences, _ = ingest(text, tagged=tagged)
        assert sentences == [Sentence(0, ["a", "dog", "ran"])]
        assert all(type(t) is str for t in sentences[0].tokens)
        assert sentences[0].surfaces() is sentences[0].tokens

    def test_iterable_of_lines_accepted(self):
        sentences, _ = ingest(iter(["one line here", "two lines here"]))
        assert len(sentences) == 2


class TestCorpusFile:
    def _corpus(self):
        sentences, vocab = ingest("the_OTHER dog_NOUN ran_VERB ._OTHER\n"
                                  "a_OTHER dog_NOUN sat_VERB ._OTHER",
                                  tagged=True)
        postings = {"dog": [(0, (1,)), (1, (1,))], "ran": [(0, (2,))]}
        return Corpus(sentences, vocab, postings)

    def test_round_trip_without_postings(self, tmp_path):
        corpus = self._corpus()
        corpus = Corpus(corpus.sentences, corpus.vocab, None)
        path = tmp_path / "c.pgc"
        save_corpus(path, corpus)
        loaded = load_corpus(path)
        assert loaded.sentences == corpus.sentences
        assert all(type(t) is str for s in loaded.sentences for t in s.tokens)
        assert loaded.vocab.dump_lines() == corpus.vocab.dump_lines()
        assert loaded.postings == build_index(corpus.sentences).postings

    @pytest.mark.parametrize("make", ["demo", "random", "empty_sentence"])
    def test_loaded_postings_equal_built_index(self, tmp_path, make):
        if make == "demo":
            sentences, vocab = ingest(build_demo_corpus())
        elif make == "random":  # few words, so most sentences repeat one
            rng = random.Random(7)
            sentences, vocab = ingest([" ".join(rng.choice("abcdefg")
                                                for _ in range(rng.randrange(1, 30)))
                                       for _ in range(300)])
        else:
            sentences = [Sentence(5, ["a", "b", "a"]), Sentence(2, []),
                         Sentence(9, ["b", "c"])]
            vocab = Vocabulary({"a": 2, "b": 2, "c": 1})
        path = tmp_path / "c.pgc"
        save_corpus(path, Corpus(sentences, vocab))
        loaded, built = load_corpus(path).postings, build_index(sentences).postings
        want = reference_postings(sentences)
        assert loaded == built == want
        assert list(loaded) == list(built) == list(want)

    @pytest.mark.parametrize("make", ["demo", "bench_style"])
    def test_lazy_postings_equal_every_term_in_key_order(self, tmp_path, make):
        if make == "demo":
            sentences, vocab = ingest(build_demo_corpus())
        else:  # Zipf-drawn words, empty sentences, ids out of order and gapped
            rng = random.Random(11)
            words = [f"w{i}" for i in range(400)]
            weights = [1.0 / (i + 1) for i in range(len(words))]
            ids = rng.sample(range(5000), 600)
            sentences = [Sentence(i, rng.choices(
                             words, weights, k=rng.choice([0, rng.randrange(1, 41)])))
                         for i in ids]
            vocab = Vocabulary(dict.fromkeys(words, 1))
        path = tmp_path / "c.pgc"
        save_corpus(path, Corpus(sentences, vocab))
        want = reference_postings(sentences)
        for view in (load_corpus(path).postings, postings_of(sentences)):
            assert isinstance(view, PostingsView) and len(view) == len(want)
            assert list(view) == list(want)
            for term, entries in want.items():  # each built on this lookup
                assert term in view and view[term] == entries
                assert view[term] is view[term]
            assert view == want and want == view
            assert view.get("no-such-term") is None
            assert view.get("no-such-term", []) == [] and "no-such-term" not in view
            with pytest.raises(KeyError):
                view["no-such-term"]
            with pytest.raises(TypeError):
                view["new"] = []  # read-only
        assert Corpus(sentences, vocab, postings_of(sentences)).inverted_index() \
            .lookup("no-such-term") == []

    def test_postings_are_built_on_lookup(self, tmp_path):
        sentences, vocab = ingest(build_demo_corpus()[::7])
        path = tmp_path / "c.pgc"
        save_corpus(path, Corpus(sentences, vocab))
        view = load_corpus(path).postings
        assert view._built == {}
        view.get("hair")
        assert list(view._built) == ["hair"]

    def test_by_id_maps_sentence_ids(self):
        corpus = self._corpus()
        assert {i: s.surfaces() for i, s in corpus.by_id.items()} == \
            {s.sent_id: s.surfaces() for s in corpus.sentences}

    def test_inverted_index_uses_stored_postings(self):
        corpus = self._corpus()
        index = corpus.inverted_index()
        assert index.postings is corpus.postings
        assert index.lengths == {0: 4, 1: 4}

    def test_inverted_index_built_when_postings_absent(self):
        corpus = self._corpus()
        index = Corpus(corpus.sentences, corpus.vocab, None).inverted_index()
        assert index.lookup("dog") == [(0, (1,)), (1, (1,))]
        assert index.lengths == {0: 4, 1: 4}

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "c.pgc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_corpus(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "c.pgc"
        save_corpus(path, self._corpus())
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(FormatError):
            load_corpus(path)
