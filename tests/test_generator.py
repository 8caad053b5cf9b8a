import dataclasses
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_generate, reference_predict_topics
from punforge import generator
from punforge.corpus import (Pos, Sentence, TagLexicon, Vocabulary, ingest,
                             load_corpus, tag)
from punforge.generator import (NO_CANDIDATES, NO_SEEDS, NO_TOPIC_WORDS,
                                STAGE_SWAP, STAGE_TOPIC, GenerationConfig,
                                GenerationResources, generate,
                                insertable_topics, select_deletion, swap,
                                topic_insert)
from punforge.corpus import Corpus
from punforge.errors import ResourceError
from punforge.ngram_lm import NGramModel, train_lm
from punforge.retrieval import build_index, retrieve_seeds
from punforge.skipgram import SkipGramConfig, SkipGramModel, train_skipgram
from punforge.surprisal import PunPair
from punforge.wordnet import DEFAULT_THRESHOLD, NOUN, SynsetGraph, load_wordnet

CORPUS_TEXT = "\n".join([
    "the camp base was cold .",            # seed, deletion 'camp'
    "they built a base near the lake .",   # seed, deletion 'they' (pronoun)
    "the base base doubled .",             # two occurrences: not a seed
    "base camp .",                         # too short: not a seed
    "our team guarded the base today .",   # seed, deletion 'team', ranks first
    "a bass swam by the base .",           # contains the pun word: skipped
    "verby verby verby again .",           # vocabulary filler
    "fish drum person chips swam .",       # vocabulary filler (topic words)
])

LEXICON = TagLexicon(
    nouns={"fish", "drum", "person", "chips", "team", "camp", "bass", "base",
           "lake", "creature", "place", "object"},
    verbs={"verby", "built", "guarded", "swam"},
)

# creature covers fish/person/team; camp sits under place; drum and chips
# under object, so only fish and person are consistent with team or they.
GRAPH = SynsetGraph(
    hypernyms={
        (NOUN, 1): (),
        (NOUN, 2): ((NOUN, 1),),
        (NOUN, 3): ((NOUN, 1),),
        (NOUN, 4): ((NOUN, 1),),
        (NOUN, 10): (),
        (NOUN, 5): ((NOUN, 10),),
        (NOUN, 11): (),
        (NOUN, 6): ((NOUN, 11),),
        (NOUN, 7): ((NOUN, 11),),
    },
    senses={
        ("creature", NOUN): ((NOUN, 1),),
        ("fish", NOUN): ((NOUN, 2),),
        ("person", NOUN): ((NOUN, 3),),
        ("team", NOUN): ((NOUN, 4),),
        ("place", NOUN): ((NOUN, 10),),
        ("camp", NOUN): ((NOUN, 5),),
        ("object", NOUN): ((NOUN, 11),),
        ("drum", NOUN): ((NOUN, 6),),
        ("chips", NOUN): ((NOUN, 7),),
    },
)

PAIR = PunPair("bass", "base")

# Crafted relatedness scores for the query 'bass'; everything else scores 0.
TOPIC_SCORES = {"fish": 6.0, "verby": 5.0, "drum": 4.0, "person": 3.0,
                "chips": 2.0}


def _resources(with_lm=False):
    sentences, vocab = ingest(CORPUS_TEXT)
    vec_in = np.ones((len(vocab), 1))
    vec_out = np.zeros((len(vocab), 1))
    for word, score in TOPIC_SCORES.items():
        vec_out[vocab.id_of(word), 0] = score
    skipgram = SkipGramModel(vocab, SkipGramConfig(dim=1), vec_in, vec_out)
    lm = train_lm(sentences, vocab, order=2) if with_lm else None
    return GenerationResources(
        corpus=Corpus(sentences, vocab, None),
        index=build_index(sentences),
        skipgram=skipgram,
        graph=GRAPH,
        lexicon=LEXICON,
        lm=lm,
    )


def _tags(text):
    return tag(Sentence(0, text.split()), LEXICON)


class TestSwap:
    def test_replaces_the_single_occurrence(self):
        tokens, position = swap(["a", "base", "here"], PAIR)
        assert tokens == ["a", "bass", "here"]
        assert position == 1

    def test_zero_occurrences_rejected(self):
        with pytest.raises(ValueError):
            swap(["a", "lake"], PAIR)

    def test_double_occurrence_rejected(self):
        with pytest.raises(ValueError):
            swap(["base", "base"], PAIR)


class TestSelectDeletion:
    def test_leftmost_noun_before_the_slot(self):
        assert select_deletion(_tags("the camp near the lake base"), 5) == 1

    def test_pronouns_count(self):
        assert select_deletion(_tags("they built a base"), 3) == 0

    def test_must_be_strictly_before(self):
        assert select_deletion(_tags("the cold base today"), 2) is None

    def test_no_candidate_gives_none(self):
        assert select_deletion(_tags("so very cold base"), 3) is None


class TestTopicInsert:
    def test_filters_and_preserves_score_order(self):
        resources = _resources()
        topics = insertable_topics(*resources.skipgram.rank_topics("bass", 100),
                                   PAIR, resources)
        tags = _tags("our team guarded the base today .")
        swapped = ["our", "team", "guarded", "the", "bass", "today", "."]
        out = list(topic_insert(swapped, 1, tags[1], topics, GRAPH))
        # 'team' survives as a zero-score self-replacement; verbs, pair
        # words, and type-inconsistent nouns are all gone
        assert [(words[1], words[4]) for words, _, _ in out] == [
            ("fish", "bass"), ("person", "bass"), ("team", "bass"),
        ]
        scores = [score for _, _, score in out]
        assert scores == sorted(scores, reverse=True)

    def test_pair_words_never_inserted(self):
        # nor non-nouns: both filters run once per pair, before any seed
        topics = [("base", 0.9), ("verby", 0.85), ("bass", 0.8), ("fish", 0.7)]
        assert _insertable(topics, PAIR, LEXICON) == [("fish", 0.7)]



def _tag_filter(topics, pair, lexicon):
    """``insertable_topics`` as it was written first: one ``tag_word`` call
    per topic."""
    return [(word, score) for word, score in topics
            if word not in (pair.pun_word, pair.alt_word)
            and lexicon.tag_word(word) is Pos.NOUN]


def _insertable(topics, pair, lexicon, words=None):
    """``insertable_topics`` of crafted (word, score) topics, read by id in
    a skip-gram over ``words`` (by default the topic words)."""
    if words is None:
        words = [word for word, _ in topics]
    vocab = Vocabulary(dict.fromkeys(words, 5), min_count=1)
    vectors = np.zeros((len(vocab), 1))
    resources = GenerationResources(
        corpus=None, index=None, lexicon=lexicon,
        skipgram=SkipGramModel(vocab, SkipGramConfig(dim=1), vectors, vectors))
    ids = np.array([vocab.id_of(word) for word, _ in topics], dtype=np.intp)
    probs = np.array([score for _, score in topics])
    return insertable_topics(ids, probs, pair, resources)


class TestInsertableTopicsEqualsTheTagFilter:
    def test_pronoun_that_is_a_noun_lemma(self):
        lexicon = TagLexicon(nouns={"it", "dog"})
        topics = [("it", 0.4), ("dog", 0.3), ("cat", 0.2), ("she", 0.1)]
        assert _insertable(topics, PAIR, lexicon) == [("dog", 0.3)]
        assert _insertable(topics, PAIR, lexicon) == _tag_filter(
            topics, PAIR, lexicon)

    def test_pair_words_that_are_nouns(self):
        topics = [("bass", 0.5), ("fish", 0.4), ("base", 0.3), ("camp", 0.2),
                  ("fish", 0.1)]
        assert {"bass", "base"} <= LEXICON.tagged_nouns
        got = _insertable(topics, PAIR, LEXICON)
        assert got == [("fish", 0.4), ("camp", 0.2), ("fish", 0.1)]
        assert got == _tag_filter(topics, PAIR, LEXICON)

    def test_pair_words_outside_the_vocabulary(self):
        # both ids would be <unk>'s, which is no noun
        topics = [("fish", 0.4), ("verby", 0.3), ("camp", 0.2)]
        got = _insertable(topics, PAIR, LEXICON)
        assert got == [("fish", 0.4), ("camp", 0.2)]
        assert got == _tag_filter(topics, PAIR, LEXICON)

    def test_demo_lexicon_over_its_whole_vocabulary(self, pipeline, miniwn):
        vocab = load_corpus(pipeline["corpus"]).vocab
        lexicon = TagLexicon(nouns=miniwn.noun_lemmas(), verbs=miniwn.verb_lemmas())
        topics = [(w, 1.0 / (1 + i)) for i, w in enumerate(reversed(vocab.words))]
        for pair in (PunPair("hare", "hair"), PunPair("person", "care"),
                     PunPair("she", "he")):
            got = _insertable(topics, pair, lexicon, words=vocab.words)
            assert got == _tag_filter(topics, pair, lexicon)
            assert 0 < len(got) < len(topics)

    def test_topic_nouns_are_what_tag_word_tags_noun(self):
        resources = _resources()
        words = resources.skipgram.vocab.words
        assert resources.topic_nouns.tolist() == [
            LEXICON.tag_word(w) is Pos.NOUN for w in words]
        assert resources.topic_nouns is resources.topic_nouns  # built once


class TestGenerate:
    def test_candidate_order_seed_rank_then_topic_score(self):
        result = generate(PAIR, _resources(), GenerationConfig(max_outputs=100))
        assert result.failure is None
        summary = [(c.seed_id, c.topic_word) for c in result.candidates]
        assert summary == [(4, "fish"), (4, "person"), (4, "team"),
                           (1, "fish"), (1, "person"), (1, "team"),
                           (0, "camp")]
        ranks = [c.seed_rank for c in result.candidates]
        assert ranks == sorted(ranks)

    def test_output_invariants(self):
        result = generate(PAIR, _resources(), GenerationConfig(max_outputs=100))
        for cand in result.candidates:
            assert cand.final_tokens.count("bass") == 1
            assert "base" not in cand.final_tokens
            assert cand.final_tokens[cand.pun_position] == "bass"
            topic_at = cand.final_tokens.index(cand.topic_word)
            assert topic_at < cand.pun_position
            assert cand.stage == STAGE_TOPIC
            assert cand.deleted_word in {"team", "they", "camp"}

    def test_seeds_containing_the_pun_word_are_skipped(self):
        result = generate(PAIR, _resources(), GenerationConfig(max_outputs=100))
        assert 5 not in {c.seed_id for c in result.candidates}

    def test_max_outputs_caps_after_ordering(self):
        result = generate(PAIR, _resources(), GenerationConfig(max_outputs=4))
        assert [(c.seed_id, c.topic_word) for c in result.candidates] == [
            (4, "fish"), (4, "person"), (4, "team"), (1, "fish"),
        ]

    def test_later_seeds_are_not_examined_once_the_cap_is_met(self, monkeypatch):
        tagged = []

        def counting_tag(sentence, lexicon):
            tagged.append(sentence.sent_id)
            return tag(sentence, lexicon)

        monkeypatch.setattr(generator, "tag", counting_tag)
        resources = _resources()
        resources.graph = SynsetGraph(GRAPH.hypernyms, GRAPH.senses)  # no rows yet
        result = generate(PAIR, resources, GenerationConfig(max_outputs=2))
        assert [c.topic_word for c in result.candidates] == ["fish", "person"]
        # seed 4 alone supplies both candidates: only its 'team' gets a row
        assert tagged == [4]
        assert list(resources.graph._type_rows) == [
            ("team", Pos.NOUN, DEFAULT_THRESHOLD)]

    def test_topic_k_truncates_the_prediction_list(self):
        # top-2 predictions are fish and verby; only fish survives the filter
        result = generate(PAIR, _resources(),
                          GenerationConfig(max_outputs=100, topic_k=2))
        assert {c.topic_word for c in result.candidates} == {"fish"}

    def test_swap_stage_emits_one_candidate_per_seed(self):
        result = generate(PAIR, _resources(),
                          GenerationConfig(stage=STAGE_SWAP, max_outputs=100))
        assert [c.seed_id for c in result.candidates] == [4, 1, 0]
        for cand in result.candidates:
            assert cand.stage == STAGE_SWAP
            assert cand.topic_word is None
            assert cand.final_tokens.count("bass") == 1

    def test_no_seeds_failure(self):
        result = generate(PunPair("bass", "emu"), _resources())
        assert result.failure == NO_SEEDS
        assert result.candidates == []

    def test_unknown_pun_word_is_no_topic_words(self):
        result = generate(PunPair("zzz", "base"), _resources())
        assert result.failure == NO_TOPIC_WORDS

    def test_unknown_word_symbol_as_pun_is_no_topic_words(self):
        # the skip-gram has a row for it, but it stands for no word
        result = generate(PunPair("<unk>", "base"), _resources())
        assert result.failure == NO_TOPIC_WORDS

    def test_all_seeds_skipped_is_no_candidates(self):
        sentences, vocab = ingest("a bass swam by the base .")
        resources = _resources()
        resources.corpus = Corpus(sentences, vocab, None)
        resources.index = build_index(sentences)
        result = generate(PAIR, resources, GenerationConfig(stage=STAGE_SWAP))
        assert result.failure == NO_CANDIDATES

    def test_no_consistent_topic_is_no_candidates(self):
        # 'lake' is a lexicon noun with no dictionary senses, so nothing is
        # type-consistent with it, not even itself
        sentences, vocab = ingest("the lake base was cold .")
        resources = _resources()
        resources.corpus = Corpus(sentences, vocab, None)
        resources.index = build_index(sentences)
        result = generate(PAIR, resources)
        assert result.failure == NO_CANDIDATES

    def test_pos_mismatch_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="punforge.generator"):
            result = generate(PunPair("verby", "base"), _resources(),
                              GenerationConfig(stage=STAGE_SWAP))
        assert result.warnings
        assert "part of speech" in result.warnings[0]
        assert any("part of speech" in r.message for r in caplog.records)
        assert result.candidates  # a warning, not a failure

    def test_matching_pos_produces_no_warning(self):
        result = generate(PAIR, _resources())
        assert result.warnings == []

    @pytest.mark.parametrize("pair", [PAIR, PunPair("bass", "emu")],
                             ids=["seeds", "no-seeds"])
    @pytest.mark.parametrize("missing,config,message", [
        ("skipgram", GenerationConfig(), "topic stage needs"),
        ("graph", GenerationConfig(), "topic stage needs"),
        ("lexicon", GenerationConfig(), "topic stage needs"),
        ("lm", GenerationConfig(stage=STAGE_SWAP, rerank=True), "re-ranking needs"),
    ], ids=["skipgram", "graph", "lexicon", "lm"])
    def test_missing_resource_raises_whatever_the_pair(self, pair, missing, config,
                                                       message):
        resources = _resources(with_lm=True)
        setattr(resources, missing, None)
        with pytest.raises(ValueError, match=message):
            generate(pair, resources, config)

    def test_lm_attaches_reports(self):
        result = generate(PAIR, _resources(with_lm=True),
                          GenerationConfig(max_outputs=100))
        for cand in result.candidates:
            assert cand.report is not None
            assert cand.report.s_ratio == -1.0 or cand.report.s_ratio >= 0.0

    def test_rerank_orders_by_ratio_descending(self):
        config = GenerationConfig(max_outputs=100, rerank=True)
        result = generate(PAIR, _resources(with_lm=True), config)
        ratios = [c.report.s_ratio for c in result.candidates]
        assert ratios == sorted(ratios, reverse=True)
        plain = generate(PAIR, _resources(with_lm=True),
                         GenerationConfig(max_outputs=100))
        assert {id(c) for c in result.candidates} != set()
        assert len(result.candidates) == len(plain.candidates)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            GenerationConfig(stage="POLISH")


class TestAgainstOracle:
    """The candidate loop against a re-implementation that filters every
    topic for every seed, checks types by exhaustive BFS and cuts last."""

    @pytest.fixture(scope="class")
    def demo(self, pipeline, miniwn_dir):
        return GenerationResources.load(pipeline["corpus"],
                                        skipgram=pipeline["skipgram"],
                                        wordnet=miniwn_dir)

    @pytest.mark.parametrize("pun,alt,threshold", [
        ("hare", "hair", 0.3), ("hare", "hair", 0.2), ("hair", "hare", 0.3),
        ("person", "care", 0.25), ("dog", "field", 0.5)])
    @pytest.mark.parametrize("stage", [STAGE_TOPIC, STAGE_SWAP])
    def test_demo_candidates_equal_the_oracle(self, demo, pun, alt, threshold,
                                              stage):
        config = GenerationConfig(threshold=threshold, stage=stage)
        seeds = [(s.sent_id, s.rank) for s in retrieve_seeds(
            demo.index, alt, pool=config.pool, keep=config.keep)]
        topics = demo.skipgram.predict_topics(pun, config.topic_k)
        expected = reference_generate(
            pun, alt, seeds, {i: s.surfaces() for i, s in demo.corpus.by_id.items()},
            topics, lambda w: demo.lexicon.tag_word(w).name,
            demo.graph.hypernyms, demo.graph.senses, threshold, 100,
            swap_only=stage == STAGE_SWAP)
        assert len(expected) > 10  # every cap below cuts a longer list
        for cap in (1, 3, 10, 100):
            result = generate(PunPair(pun, alt), demo,
                              GenerationConfig(threshold=threshold, stage=stage,
                                               max_outputs=cap))
            got = [(c.seed_id, c.seed_rank, c.pun_position, c.final_tokens,
                    c.stage, c.deleted_word, c.topic_word, c.topic_score)
                   for c in result.candidates]
            assert got == expected[:cap], cap

    def test_one_search_per_replaced_word_and_none_on_a_second_pass(
            self, demo, miniwn_dir, monkeypatch):
        resources = dataclasses.replace(demo, graph=load_wordnet(miniwn_dir))
        looked_up, built = [], []
        row, build = SynsetGraph.type_row, SynsetGraph._build_type_row
        monkeypatch.setattr(SynsetGraph, "type_row",
                            lambda graph, *key: looked_up.append(key) or row(graph, *key))
        monkeypatch.setattr(SynsetGraph, "_build_type_row",
                            lambda graph, *key: built.append(key) or build(graph, *key))
        pairs = [PunPair(*words) for words in (
            ("hare", "hair"), ("hair", "hare"), ("person", "care"), ("dog", "field"))]

        def one_pass():
            looked_up.clear()
            built.clear()
            return [generate(pair, resources, GenerationConfig(threshold=t))
                    for t in (0.3, 0.2) for pair in pairs]

        first = one_pass()
        # each distinct (replaced word, tag, threshold) is searched once
        assert sorted(built, key=repr) == sorted(set(looked_up), key=repr)
        assert len(built) < len(looked_up)  # and some rows are reused
        assert one_pass() == first
        assert built == [] and looked_up

    @pytest.mark.parametrize("pun,alt", [("hare", "hair"), ("hair", "hare"),
                                         ("person", "care"), ("dog", "field")])
    def test_topic_k_output_equals_oracle_predictions(self, demo, monkeypatch,
                                                      pun, alt):
        vocab = demo.skipgram.vocab
        words = list(vocab.words)

        def oracle(model, word, k):
            return reference_predict_topics(model.relatedness_dist(word), words,
                                            vocab.id_of(word), vocab.unk_id, k)

        pair = PunPair(pun, alt)
        for k in (1, 3, 100, len(vocab)):
            config = GenerationConfig(topic_k=k, max_outputs=1000)
            got = generate(pair, demo, config)
            with monkeypatch.context() as patch:
                patch.setattr(SkipGramModel, "predict_topics", oracle)
                want = generate(pair, demo, config)
            assert got == want, k


class TestLoad:
    def test_equals_the_resources_built_by_hand(self, pipeline, miniwn_dir):
        loaded = GenerationResources.load(pipeline["corpus"], lm=pipeline["lm"],
                                          skipgram=pipeline["skipgram"],
                                          wordnet=miniwn_dir)
        corpus = load_corpus(pipeline["corpus"])
        graph = load_wordnet(miniwn_dir)
        hand = GenerationResources(
            corpus=corpus, index=build_index(corpus.sentences),
            skipgram=SkipGramModel.load(pipeline["skipgram"]), graph=graph,
            lexicon=TagLexicon(nouns=graph.noun_lemmas(), verbs=graph.verb_lemmas()),
            lm=NGramModel.load(pipeline["lm"]))
        assert loaded.corpus.sentences == hand.corpus.sentences
        assert list(loaded.corpus.vocab.items()) == list(hand.corpus.vocab.items())
        # the index is the corpus's own postings, with each sentence's length
        assert loaded.index.postings is loaded.corpus.postings
        assert loaded.index.postings == hand.index.postings
        assert loaded.index.lengths == hand.index.lengths
        assert np.array_equal(loaded.skipgram.vec_in, hand.skipgram.vec_in)
        assert np.array_equal(loaded.skipgram.vec_out, hand.skipgram.vec_out)
        assert loaded.graph == hand.graph
        assert (loaded.lexicon.nouns, loaded.lexicon.verbs) == \
            (hand.lexicon.nouns, hand.lexicon.verbs)
        assert loaded.lm._index == hand.lm._index
        config = GenerationConfig(max_outputs=100, rerank=True)
        for pair in (PunPair("hare", "hair"), PunPair("person", "care")):
            result = generate(pair, loaded, config)
            assert result.candidates and result == generate(pair, hand, config)

    def test_only_the_corpus_is_required(self, pipeline):
        resources = GenerationResources.load(pipeline["corpus"])
        assert (resources.lm, resources.skipgram, resources.graph,
                resources.lexicon) == (None, None, None, None)
        result = generate(PunPair("hare", "hair"), resources,
                          GenerationConfig(stage=STAGE_SWAP))
        assert result.failure is None

    @pytest.mark.parametrize("model", ["lm", "skipgram"])
    def test_model_of_another_corpus_is_a_resource_error(self, pipeline, tmp_path,
                                                         model):
        sentences, vocab = ingest("a completely different corpus with many more"
                                  " words than the demo corpus has .\n" * 30)
        path = tmp_path / f"other.{model}"
        if model == "lm":
            train_lm(sentences, vocab, order=2).save(path)
        else:
            train_skipgram(sentences, vocab, SkipGramConfig(dim=2, epochs=0)).save(path)
        with pytest.raises(ResourceError, match="different vocabulary"):
            GenerationResources.load(pipeline["corpus"], **{model: path})


def test_readme_library_use_block_runs(pipeline, miniwn_dir, monkeypatch, capsys):
    """README's "Library use" block, run on the demo files."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(pipeline["root"])
    exec(block.replace("path/to/dict", miniwn_dir.as_posix()), {})
    scores, *candidates = capsys.readouterr().out.splitlines()
    assert len(scores.split()) == 3
    assert candidates and all(c.split().count("hare") == 1 for c in candidates)


def test_readme_library_build_block_writes_the_cli_files(pipeline, tmp_path,
                                                         monkeypatch):
    """README's "Library use" block that builds the files, run on the demo
    text: it writes the bytes that index, train-lm and train-skipgram wrote."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n")[2].split("\n```", 1)[0]
    shutil.copy(pipeline["text"], tmp_path / "demo.txt")
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    for name, ext in (("corpus", "pgc"), ("lm", "pglm"), ("skipgram", "pgsg")):
        assert (tmp_path / f"demo.{ext}").read_bytes() == pipeline[name].read_bytes()
