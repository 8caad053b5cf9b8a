import collections
import copy
import hashlib
import io
import pickle
import random
import struct

import pytest

from oracles import reference_ingest, reference_postings, reference_tokenize
from punforge import corpus
from punforge.corpus import (PRONOUNS, UNK, Corpus, Pos, PostingsView, Sentence,
                             Sentences, TagLexicon, Vocabulary, ingest, load_corpus,
                             read_vocab, save_corpus, split_sentences, tag, tokenize,
                             write_vocab)
from punforge.demo_corpus import build_demo_corpus
from punforge.errors import FormatError
from punforge.generator import GenerationResources
from punforge.ngram_lm import train_lm
from punforge.retrieval import build_index
from punforge.skipgram import SkipGramConfig, train_skipgram


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
        first = sentences[0]  # each read builds the sentence anew
        assert all(type(t) is str for t in first.tokens)
        assert first.surfaces() is first.tokens

    def test_iterable_of_lines_accepted(self):
        sentences, _ = ingest(iter(["one line here", "two lines here"]))
        assert len(sentences) == 2


def _random_text(seed):
    """Words, apostrophes, digits, punctuation, a non-ASCII letter, runs of
    spaces and blank lines, drawn from ``seed``."""
    rng = random.Random(seed)
    pieces = ["the", "Cat", "dog's", "naïve", "42", ",", ".", "!", "?", "  ",
              "\n", "\n\n", "x", "O'Leary", ";", "end."]
    return " ".join(rng.choice(pieces) for _ in range(rng.randrange(50, 400)))


def _tagged_text(seed):
    rng = random.Random(seed)
    words = ["the", "Ice_cream", "dog", "RAN", ".", "naïve", "a_b_c"]
    tags = ["NOUN", "VERB", "OTHER", "pronoun", "UNKNOWN"]
    return "\n".join(" ".join(f"{rng.choice(words)}_{rng.choice(tags)}"
                              for _ in range(rng.randrange(0, 12)))
                     for _ in range(60))


# Texts where reading whitespace chunks could part from the regexes: each
# kind of whitespace and line break, "_" in words, letters whose lowercase
# is longer or depends on the next character, apostrophes at word edges,
# and terminal punctuation before every kind of whitespace.
_ADVERSARIAL = {
    "spaces": "A\tb. c\xa0d! e\u3000f? g\x1fh.\x1fi \t\xa0\u3000 j",
    "line_breaks": "one\r\ntwo.\x1cthree\x1dfour!\x1efive\x85six?\u2028seven"
                   "\u2029eight\x0bnine\x0cten\rend",
    "underscores": "snake_case words_ _lead __ a_b. x_1! _ 3_000?",
    "cased": "İstanbul İ. ΟΔΟΣ. ΟΔΟΣ.Α ΟΔΟΣ'Α ΣΑΣ! AΣ? Σ. ǅ ﬁne ß.",
    "apostrophes": "'tis rock'n'roll dogs' ' '' o'clock' 'quoted' a''b x'. y'!",
    "terminals": "end.\nx!\ty?\xa0z.\u3000w?\x1fq.\x0bv!\x0cu?\x85t."
                 "\u2028s!\r\nr. ... ?! .! . ! ? .a !b ?c\n?\n.\n \t ",
}


class TestSentencesView:
    """``ingest``'s view against the list-building reader it replaced."""

    @pytest.mark.parametrize("text,tagged", [
        ("\n".join(build_demo_corpus()), False),
        *[(_random_text(seed), False) for seed in range(5)],
        *[(_tagged_text(seed), True) for seed in range(3)],
        ("", False), ("\n\n", True),
        *[(text, False) for text in _ADVERSARIAL.values()],
    ], ids=["demo", *[f"random{seed}" for seed in range(5)],
            *[f"tagged{seed}" for seed in range(3)], "empty", "empty_tagged",
            *_ADVERSARIAL])
    def test_view_equals_the_list_building_reader(self, text, tagged):
        sentences, vocab = ingest(text, tagged=tagged)
        want, counts = reference_ingest(text, tagged=tagged)
        assert isinstance(sentences, Sentences) and len(sentences) == len(want)
        for i, (sent_id, tokens) in enumerate(want):
            got = sentences[i]
            assert (got.sent_id, got.tokens, got.surfaces()) == (sent_id, tokens, tokens)
        assert [(s.sent_id, s.tokens) for s in sentences] == want
        assert sentences == [Sentence(*item) for item in want]
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        assert list(vocab.items()) == [(w, i, counts.get(w, 0)) for i, w in
                                       enumerate([UNK, *ranked])]
        rng = random.Random(len(want))
        for _ in range(20):
            cut = slice(rng.randrange(-5, len(want) + 5), rng.randrange(-5, len(want) + 5),
                        rng.choice([None, 1, 2, 3, -1]))
            part = sentences[cut]
            listed = [Sentence(*item) for item in want[cut]]
            assert isinstance(part, Sentences) and part == listed
            assert part.surfaces == list(dict.fromkeys(t for s in listed for t in s.tokens))
            assert list(PostingsView(part).items()) == list(reference_postings(listed).items())

    @pytest.mark.parametrize("text", [
        "\n".join(build_demo_corpus()), *map(_random_text, range(5)),
        *_ADVERSARIAL.values(), "".join(_ADVERSARIAL.values()), "",
    ])
    def test_tokenize_finds_the_regex_tokens(self, text):
        assert tokenize(text) == reference_tokenize(text)
        for line in text.splitlines():
            assert tokenize(line) == reference_tokenize(line)

    def test_the_regex_runs_once_per_chunk_that_is_not_one_word(self, monkeypatch):
        """The scan hands ``_TOKEN_RE`` only whitespace chunks that are not
        ``isalnum()``, each once: never a sentence or a line."""
        text = "\n".join(build_demo_corpus())
        regex, searched = corpus._TOKEN_RE, []

        class Counting:
            def findall(self, chunk):
                searched.append(chunk)
                return regex.findall(chunk)

        monkeypatch.setattr(corpus, "_TOKEN_RE", Counting())
        sentences, _ = ingest(text)
        chunks = text.lower().split()
        others = collections.Counter(c for c in chunks if not c.isalnum())
        assert collections.Counter(searched) <= others
        assert 0 < len(others) < len(chunks) / 4  # most chunks are one word
        assert sentences == [Sentence(*item) for item in reference_ingest(text)[0]]

    def test_items_read_as_a_list_reads_them(self):
        sentences, _ = ingest("a b .\nc d e .\nf")
        assert sentences[-1] == Sentence(2, ["f"]) and sentences[-3] == sentences[0]
        for bad in (3, -4):
            with pytest.raises(IndexError):
                sentences[bad]
        with pytest.raises(TypeError):
            sentences[0] = Sentence(0, ["z"])
        assert sentences != [Sentence(0, ["a", "b", "."])] and sentences != "abc"

    def test_a_list_of_sentences_is_numbered_once(self):
        listed = [Sentence(7, ["b", "a"]), Sentence(3, []), Sentence(5, ["a", "c"])]
        view = Sentences.number([7, 3, 5], [["b", "a"], [], ["a", "c"]])
        assert view.surfaces == ["b", "a", "c"]
        assert view.surface_idx.tolist() == [0, 1, 1, 2]
        assert view.sent_ids.tolist() == [7, 3, 5] and view.lengths.tolist() == [2, 0, 2]
        assert view == listed

    @pytest.mark.parametrize("make", ["ingest", "list", "load"])
    def test_postings_are_derived_unless_given(self, tmp_path, make):
        sentences, vocab = ingest(build_demo_corpus()[::9])
        if make == "list":  # numbered again from token lists
            sentences = Sentences.number(sentences.sent_ids, [s.tokens for s in sentences])
        corpus = Corpus(sentences, vocab)
        if make == "load":
            save_corpus(tmp_path / "c.pgc", corpus)
            corpus = load_corpus(tmp_path / "c.pgc")
        assert isinstance(corpus.postings, PostingsView)
        assert corpus.postings == reference_postings(sentences)
        given = {"x": [(0, (0,))]}
        assert Corpus(sentences, vocab, given).postings is given

    @pytest.mark.parametrize("sent_id", [-1, 2**32])
    def test_a_sentence_id_the_file_cannot_hold_rejected(self, tmp_path, sent_id):
        corpus = Corpus(Sentences.number([0, sent_id], [["a"], ["b"]]),
                        Vocabulary({"a": 1, "b": 1}))
        with pytest.raises(ValueError, match="do not fit <u4"):
            save_corpus(tmp_path / "c.pgc", corpus)
        assert list(tmp_path.iterdir()) == []

    def test_by_id_builds_only_the_sentence_read(self, tmp_path, monkeypatch):
        sentences, vocab = ingest(build_demo_corpus())
        save_corpus(tmp_path / "c.pgc", Corpus(sentences, vocab))
        built = _count_sentences(monkeypatch)
        corpus = load_corpus(tmp_path / "c.pgc")
        assert built == []
        first = corpus.by_id[17]
        assert first == sentences[17] and corpus.by_id[17] is first
        assert len(built) == 2  # one by by_id, one by the comparison
        assert len(corpus.by_id) == len(sentences) and 10**6 not in corpus.by_id


def _count_sentences(monkeypatch):
    """A list that gets one item for every Sentence built from now on."""
    built = []
    init = Sentence.__init__
    monkeypatch.setattr(Sentence, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    return built


def test_write_side_builds_no_sentence(tmp_path, monkeypatch):
    """Indexing, saving and training read the corpus arrays: the bench's
    train operation and the CLI's index, train-lm and train-skipgram build no
    Sentence object."""
    text = build_demo_corpus()
    built = _count_sentences(monkeypatch)
    sentences, vocab = ingest(text)
    index = build_index(sentences)
    save_corpus(tmp_path / "c.pgc", Corpus(sentences, vocab, index.postings))
    train_lm(sentences, vocab, order=4)
    config = SkipGramConfig(dim=4, epochs=1)
    train_skipgram(sentences[:50], vocab, config)
    loaded = load_corpus(tmp_path / "c.pgc")
    train_lm(loaded.sentences, loaded.vocab, order=3)
    train_skipgram(loaded.sentences, loaded.vocab, config)
    GenerationResources.load(tmp_path / "c.pgc")
    assert built == []


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
            sentences = Sentences.number([5, 2, 9], [["a", "b", "a"], [], ["b", "c"]])
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
            sentences = Sentences.number(ids, [
                rng.choices(words, weights, k=rng.choice([0, rng.randrange(1, 41)]))
                for _ in ids])
            vocab = Vocabulary(dict.fromkeys(words, 1))
        path = tmp_path / "c.pgc"
        save_corpus(path, Corpus(sentences, vocab))
        want = reference_postings(sentences)
        for view in (load_corpus(path).postings, build_index(sentences).postings):
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
