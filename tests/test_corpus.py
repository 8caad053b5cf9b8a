import copy
import hashlib
import io
import pickle
import random
import struct

import pytest

from oracles import reference_postings
from punforge.corpus import (PRONOUNS, UNK, Corpus, Pos, PostingsView, Sentence,
                             TagLexicon, Vocabulary, ingest, load_corpus,
                             postings_of, read_vocab, save_corpus, split_sentences,
                             tag, tokenize, write_vocab)
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
        assert vocab.words == [
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

    def test_encode_takes_any_iterable(self):
        vocab = Vocabulary({"cat": 2, "dog": 1})
        assert vocab.encode([]) == []
        assert vocab.encode(t for t in ["emu", "cat", UNK, "gnu"]) == [0, 1, 0, 0]
        assert vocab.encode(iter(())) == []
        assert vocab.encode(["emu", "emu"]) == [vocab.id_of("emu")] * 2

    def test_sorts_like_the_count_then_word_key(self):
        counts = {f"w{i % 37}x{i}": (i * 7919) % 13 + 1 for i in range(400)}
        vocab = Vocabulary(counts, min_count=3)
        kept = sorted((w for w, c in counts.items() if c >= 3),
                      key=lambda w: (-counts[w], w))
        assert vocab.words == [UNK] + kept
        assert vocab.counts == [sum(c for c in counts.values() if c < 3)] + [
            counts[w] for w in kept]

    def test_file_round_trip_preserves_everything(self):
        vocab = Vocabulary({"cat": 3, "dog": 1, "bee": 2, "héé": 5}, min_count=2)
        fh = io.BytesIO()
        write_vocab(fh, vocab)
        fh.seek(0)
        clone = read_vocab(fh)
        assert list(clone.items()) == list(vocab.items())
        assert clone.hash_bytes() == vocab.hash_bytes()

    def test_hash_distinguishes_vocabularies(self):
        a = Vocabulary({"cat": 3, "dog": 1})
        b = Vocabulary({"cat": 3, "dog": 2})
        assert a.hash_bytes() != b.hash_bytes()
        assert len(a.hash_bytes()) == 16

    def test_hash_covers_the_word_table_and_counts_it_precedes(self):
        vocab = Vocabulary({"cat": 3, "héé": 1})
        fh = io.BytesIO()
        write_vocab(fh, vocab)
        data = fh.getvalue()
        words, counts = "<unk>cathéé".encode("utf-8"), struct.pack("<3Q", 0, 3, 1)
        block = (struct.pack("<4I", 12, 5, 3, 5) + struct.pack("<I", len(words))
                 + words + struct.pack("<I", len(counts)) + counts)
        assert data == struct.pack("<I", 16) + vocab.hash_bytes() + block
        assert hashlib.sha256(block).digest()[:16] == vocab.hash_bytes()

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

    def test_tagged_nouns_are_what_tag_word_tags_noun(self):
        lex = TagLexicon(nouns={"her", "it", "dog", "run"}, verbs={"run", "it"})
        assert lex.tagged_nouns == {"dog", "run"}
        words = lex.nouns | lex.verbs | lex.pronouns | {"blue"}
        assert lex.tagged_nouns == {w for w in words if lex.tag_word(w) is Pos.NOUN}

    def test_tag_gives_one_tag_per_token(self):
        lex = TagLexicon(nouns={"dog"}, verbs={"ran"})
        sent = Sentence(7, ["the", "dog", "ran"])
        assert tag(sent, lex) == [Pos.OTHER, Pos.NOUN, Pos.VERB]
        assert sent.tokens == ["the", "dog", "ran"]


class TestPos:
    @pytest.mark.parametrize("member", list(Pos))
    def test_hash_is_the_identity_hash(self, member):
        assert hash(member) == object.__hash__(member)

    @pytest.mark.parametrize("member", list(Pos))
    def test_copies_are_the_member_itself(self, member):
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member
        assert copy.copy(member) is member
        assert Pos[member.name] is member and Pos(member.value) is member


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
        assert list(vocab.items()) == list(ingest("the ice_cream melted .")[1].items())

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
        assert list(loaded.vocab.items()) == list(corpus.vocab.items())
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
        assert build_index(sentences).lookup("no-such-term") == []

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
