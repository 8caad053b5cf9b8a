import pickle
import random
import shutil

import pytest

from oracles import reference_bfs, reference_type_consistent
from punforge import wordnet
from punforge.corpus import Pos
from punforge.errors import FormatError, ResourceError
from punforge.wordnet import (DEFAULT_THRESHOLD, NOUN, VERB, SynsetGraph,
                              TypeRow, load_wordnet, max_passing_distance,
                              path_similarity, type_consistent, virtual_root)


def _random_graph(seed, n=20):
    """A random noun DAG and the equivalent undirected adjacency map."""
    rng = random.Random(seed)
    hypernyms = {}
    for i in range(n):
        node = (NOUN, i)
        if i == 0 or rng.random() < 0.15:
            hypernyms[node] = ()
        else:
            k = rng.choice([1, 1, 2])
            parents = rng.sample(range(i), min(k, i))
            hypernyms[node] = tuple((NOUN, p) for p in parents)
    graph = SynsetGraph(hypernyms, senses={})
    adjacency = {}

    def connect(a, b):
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    for node, parents in hypernyms.items():
        if parents:
            for p in parents:
                connect(node, p)
        else:
            connect(node, virtual_root(NOUN))
    return graph, adjacency


class TestGraphDistances:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_all_pairs_match_reference_bfs(self, seed):
        graph, adjacency = _random_graph(seed)
        nodes = [s for s in graph.hypernyms]
        for a in nodes:
            for b in nodes:
                assert graph.shortest_path(a, b) == reference_bfs(adjacency, a, b)

    def test_identical_synsets_are_distance_zero(self):
        graph, _ = _random_graph(2)
        assert graph.shortest_path((NOUN, 3), (NOUN, 3)) == 0

    def test_unknown_synset_rejected(self):
        graph, _ = _random_graph(2)
        with pytest.raises(ValueError):
            graph.shortest_path((NOUN, 999), (NOUN, 0))

    def test_unknown_hypernym_target_rejected(self):
        with pytest.raises(FormatError):
            SynsetGraph({(NOUN, 1): ((NOUN, 99),)}, senses={})


class TestMiniDictionary:
    def test_version_reports_synset_counts(self, miniwn):
        assert miniwn.version == "miniwn:37n+17v"

    def test_sense_lookup(self, miniwn):
        assert miniwn.synsets_of("greyhound", Pos.NOUN) == [(NOUN, 8)]
        assert miniwn.synsets_of("hound", Pos.NOUN) == [(NOUN, 7)]
        assert miniwn.synsets_of("got", Pos.VERB) == [(VERB, 103)]
        assert miniwn.synsets_of("greyhound", Pos.VERB) == []
        assert miniwn.synsets_of("the", Pos.OTHER) == []

    def test_pronouns_map_to_first_person_sense(self, miniwn):
        assert miniwn.synsets_of("he", Pos.PRONOUN) == [(NOUN, 2)]
        assert miniwn.synsets_of("someone", Pos.PRONOUN) == [(NOUN, 2)]

    def test_hand_counted_path_similarities(self, miniwn):
        man, grey = (NOUN, 3), (NOUN, 8)
        hare, hair = (NOUN, 9), (NOUN, 13)
        assert path_similarity(miniwn, man, grey) == pytest.approx(1 / 3)
        assert path_similarity(miniwn, hare, hair) == pytest.approx(1 / 5)
        assert path_similarity(miniwn, man, man) == 1.0

    def test_cross_pos_similarity_is_zero(self, miniwn):
        assert path_similarity(miniwn, (NOUN, 3), (VERB, 103)) == 0.0

    def test_lemma_sets_split_by_pos(self, miniwn):
        assert "greyhound" in miniwn.noun_lemmas()
        assert "got" in miniwn.verb_lemmas()
        assert "got" not in miniwn.noun_lemmas()


class TestTypeConsistency:
    def test_creatures_pass_at_default_threshold(self, miniwn):
        assert type_consistent(miniwn, "greyhound", Pos.NOUN, "hare", Pos.NOUN)
        assert type_consistent(miniwn, "man", Pos.NOUN, "hare", Pos.NOUN)

    def test_distant_nouns_fail_at_default_threshold(self, miniwn):
        # barber is three hops from hare: similarity 1/4 < 0.3
        assert not type_consistent(miniwn, "barber", Pos.NOUN, "hare", Pos.NOUN)
        assert type_consistent(miniwn, "barber", Pos.NOUN, "hare", Pos.NOUN,
                               threshold=0.2)

    def test_threshold_is_strict(self, miniwn):
        # man and greyhound sit at similarity exactly 1/3
        assert not type_consistent(miniwn, "man", Pos.NOUN, "greyhound",
                                   Pos.NOUN, threshold=1 / 3)
        assert type_consistent(miniwn, "man", Pos.NOUN, "greyhound",
                               Pos.NOUN, threshold=0.33)

    def test_pronoun_stands_in_for_person(self, miniwn):
        assert type_consistent(miniwn, "she", Pos.PRONOUN, "girl", Pos.NOUN)

    def test_unknown_or_untagged_words_fail(self, miniwn):
        assert not type_consistent(miniwn, "xyzzy", Pos.NOUN, "hare", Pos.NOUN)
        assert not type_consistent(miniwn, "the", Pos.OTHER, "hare", Pos.NOUN)

    def test_cross_pos_is_never_consistent(self, miniwn):
        assert not type_consistent(miniwn, "chase", Pos.VERB, "hare", Pos.NOUN)

    @pytest.mark.parametrize("threshold", [0.15, 0.3, 0.5, 1 / 3, 0.25, 1.0, 2.0])
    def test_early_exit_matches_unbounded_scan(self, miniwn, threshold):
        words = ["man", "woman", "greyhound", "hare", "barber", "ship",
                 "hair", "field", "book", "person"]
        for a in words:
            for b in words:
                naive = any(
                    path_similarity(miniwn, sa, sb) > threshold
                    for sa in miniwn.synsets_of(a, Pos.NOUN)
                    for sb in miniwn.synsets_of(b, Pos.NOUN)
                )
                got = type_consistent(miniwn, a, Pos.NOUN, b, Pos.NOUN,
                                      threshold=threshold)
                assert got == naive, (a, b, threshold)


class TestDistanceBound:
    @pytest.mark.parametrize("threshold", [
        0.3, 1 / 3, 0.25, 0.5, 0.2, 0.15, 1 / 7, 0.1, 1e-3, 0.999,
        1 - 2**-53, 2**-32, 1e-9])
    def test_largest_passing_distance_exactly(self, threshold):
        d = max_passing_distance(threshold)
        assert 1.0 / (1.0 + d) > threshold
        assert not 1.0 / (2.0 + d) > threshold

    def test_default_threshold_searches_two_levels(self):
        assert max_passing_distance(0.3) == 2

    @pytest.mark.parametrize("threshold", [1.0, 2.0, float("inf"), float("nan")])
    def test_no_distance_passes(self, threshold):
        assert max_passing_distance(threshold) == -1

    @pytest.mark.parametrize("threshold", [0.0, 5e-324, 1e-300, 2**-40])
    def test_tiny_threshold_searches_unbounded(self, threshold):
        assert max_passing_distance(threshold) is None

    @pytest.mark.parametrize("threshold,expected", [
        (5e-324, True), (float("inf"), False), (1.0, False)])
    def test_extreme_thresholds(self, miniwn, threshold, expected):
        # barber and hare are three hops apart
        assert type_consistent(miniwn, "barber", Pos.NOUN, "hare", Pos.NOUN,
                               threshold=threshold) is expected


def _spy_builds(monkeypatch):
    """Record the key of every type row built from now on."""
    built = []
    build = SynsetGraph._build_type_row
    monkeypatch.setattr(SynsetGraph, "_build_type_row",
                        lambda self, *key: built.append(key) or build(self, *key))
    return built


class TestMemo:
    def test_one_graph_at_two_thresholds_in_a_row(self, miniwn_dir):
        graph = load_wordnet(miniwn_dir)
        # man and greyhound sit at similarity exactly 1/3
        args = (graph, "man", Pos.NOUN, "greyhound", Pos.NOUN)
        assert type_consistent(*args, threshold=0.33)
        assert not type_consistent(*args, threshold=1 / 3)
        assert type_consistent(*args, threshold=0.33)
        assert not type_consistent(*args[:3], "greyhound", Pos.VERB,
                                   threshold=0.33)

    def test_rows_are_cleared_at_their_limit(self, miniwn_dir, monkeypatch):
        # every row at 0.2 holds more than 3 entries, so each one is kept alone
        monkeypatch.setattr(wordnet, "TYPE_MEMO_LIMIT", 3)
        built = _spy_builds(monkeypatch)
        graph = load_wordnet(miniwn_dir)
        words = ["man", "woman", "greyhound", "hare", "barber", "ship"]
        for _ in range(2):
            for word in words:
                expected = word != "ship"
                assert type_consistent(graph, "hare", Pos.NOUN, word,
                                       Pos.NOUN, threshold=0.2) is expected
                assert list(graph._type_rows) == [(word, Pos.NOUN, 0.2)]
        assert len(built) == 2 * len(words)

    def test_rows_up_to_the_limit_are_kept(self, miniwn_dir, monkeypatch):
        graph = load_wordnet(miniwn_dir)
        sizes = {}
        for word in ("man", "hare", "ship"):
            row = graph.type_row(word, Pos.NOUN, 0.3)
            sizes[word] = 1 + len(row.ball) + len(row.nouns)  # the row and its contents
        monkeypatch.setattr(wordnet, "TYPE_MEMO_LIMIT", sizes["man"] + sizes["hare"])
        graph = load_wordnet(miniwn_dir)
        for word in ("man", "hare", "man", "hare"):
            graph.type_row(word, Pos.NOUN, 0.3)
        assert [key[0] for key in graph._type_rows] == ["man", "hare"]
        assert graph.type_rows_built == 2 and graph.type_row_lookups == 4
        graph.type_row("ship", Pos.NOUN, 0.3)  # past the limit: a fresh start
        assert [key[0] for key in graph._type_rows] == ["ship"]
        assert graph._type_row_entries == sizes["ship"]

    def test_a_row_is_hit_whichever_way_the_tag_is_named(self, miniwn_dir,
                                                           monkeypatch):
        graph = load_wordnet(miniwn_dir)
        built = _spy_builds(monkeypatch)
        assert type_consistent(graph, "man", Pos.NOUN, "hare", Pos.NOUN)
        for tag_ in (Pos["NOUN"], Pos(1), pickle.loads(pickle.dumps(Pos.NOUN))):
            assert type_consistent(graph, "man", tag_, "hare", tag_)
            assert "man" in graph.type_row("hare", tag_, DEFAULT_THRESHOLD).nouns
        assert len(built) == 1 and len(graph._type_rows) == 1

    def test_graphs_do_not_share_rows(self, miniwn, miniwn_dir):
        assert type_consistent(miniwn, "man", Pos.NOUN, "hare", Pos.NOUN)
        bare = SynsetGraph(load_wordnet(miniwn_dir).hypernyms, senses={})
        assert not type_consistent(bare, "man", Pos.NOUN, "hare", Pos.NOUN)
        assert bare.type_row("hare", Pos.NOUN, DEFAULT_THRESHOLD) == TypeRow(
            frozenset(), frozenset())


# Thresholds at and between the distance edges: 0 searches the whole
# component, 1/3 sits exactly at distance 2, and 1 and NaN pass nothing.
ROW_THRESHOLDS = [0.0, 0.2, 0.3, 1 / 3, 0.5, 1.0, float("nan")]


def _tagged_words(graph):
    """Every lemma under its own part of speech, a pronoun, a lemma under
    the other part of speech, an unknown word and an untagged one."""
    tags = {NOUN: Pos.NOUN, VERB: Pos.VERB}
    return [(lemma, tags[pos]) for lemma, pos in sorted(graph.senses)] + [
        ("she", Pos.PRONOUN), ("person", Pos.VERB), ("xyzzy", Pos.NOUN),
        ("the", Pos.OTHER)]


def _random_dictionary(seed):
    """Nouns and verbs with multiple parents, several parentless synsets
    under each virtual root, lemmas of one to three senses and a person."""
    rng = random.Random(seed)
    hypernyms = {}
    for pos, count in ((NOUN, 30), (VERB, 10)):
        for i in range(count):
            parents = () if i < 2 or rng.random() < 0.1 else tuple(
                (pos, p) for p in rng.sample(range(i), min(i, rng.choice([1, 1, 2]))))
            hypernyms[(pos, i)] = parents
    senses = {("person", NOUN): ((NOUN, 5), (NOUN, 17))}
    for i in range(24):
        pos = NOUN if i < 16 else VERB
        pool = [s for s in hypernyms if s[0] == pos]
        senses[(f"w{i}", pos)] = tuple(rng.sample(pool, rng.choice([1, 1, 2, 3])))
    senses[("w3", VERB)] = ((VERB, 4),)  # one lemma, both parts of speech
    return SynsetGraph(hypernyms, senses)


class TestTypeRowsAgainstOracle:
    """Every row's answers against the exhaustive sense-pair scan."""

    @staticmethod
    def _check_every_pair(graph, thresholds=ROW_THRESHOLDS):
        words = _tagged_words(graph)
        for threshold in thresholds:
            for other, other_tag in words:
                row = graph.type_row(other, other_tag, threshold)
                for word, word_tag in words:
                    want = reference_type_consistent(
                        graph.hypernyms, graph.senses, word, word_tag.name,
                        other, other_tag.name, threshold)
                    got = type_consistent(graph, word, word_tag, other,
                                          other_tag, threshold)
                    assert got is want, (word, word_tag, other, other_tag, threshold)
                    if word_tag == Pos.NOUN:
                        assert (word in row.nouns) is want

    def test_mini_dictionary(self, miniwn_dir):
        self._check_every_pair(load_wordnet(miniwn_dir))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_dictionary(self, seed):
        self._check_every_pair(_random_dictionary(seed))

    # distance bounds None, 5, 3, 2, 1 and 0
    @pytest.mark.parametrize("threshold", [0.0, 0.15, 0.2, 0.3, 0.5, 0.9])
    def test_ball_is_every_synset_within_the_distance(self, threshold):
        bare, adjacency = _random_graph(5, n=40)
        graph = SynsetGraph(bare.hypernyms, {("w", NOUN): ((NOUN, 3), (NOUN, 31))})
        depth = max_passing_distance(threshold)
        ball = graph.type_row("w", Pos.NOUN, threshold).ball
        for node in adjacency:
            dists = [reference_bfs(adjacency, source, node)
                     for source in ((NOUN, 3), (NOUN, 31))]
            reach = any(d is not None and (depth is None or d <= depth)
                        for d in dists)
            assert (node in ball) is reach, node

    def test_rows_larger_than_the_limit(self, miniwn_dir, monkeypatch):
        monkeypatch.setattr(wordnet, "TYPE_MEMO_LIMIT", 3)
        graph = load_wordnet(miniwn_dir)
        self._check_every_pair(graph, [0.3, 0.0, float("nan")])
        assert graph.largest_type_row[0] > 3
        # the last rows, at NaN, are empty: one entry each, three at most
        assert len(graph._type_rows) == graph._type_row_entries <= 3

    def test_words_without_senses_have_empty_rows(self, miniwn):
        empty = TypeRow(frozenset(), frozenset())
        for word, tag_ in (("xyzzy", Pos.NOUN), ("greyhound", Pos.VERB),
                           ("the", Pos.OTHER)):
            for threshold in ROW_THRESHOLDS:
                assert miniwn.type_row(word, tag_, threshold) == empty
        for threshold in (1.0, float("nan")):
            assert miniwn.type_row("hare", Pos.NOUN, threshold) == empty


class TestLoading:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ResourceError):
            load_wordnet(tmp_path / "absent")

    def test_noun_database_required(self, tmp_path):
        (tmp_path / "index.verb").write_text("run v 1 0 1 0 00000001\n")
        with pytest.raises(ResourceError):
            load_wordnet(tmp_path)

    def test_verb_database_optional(self, tmp_path, miniwn_dir):
        for name in ("data.noun", "index.noun"):
            shutil.copy(miniwn_dir / name, tmp_path / name)
        graph = load_wordnet(tmp_path)
        assert graph.verb_lemmas() == frozenset()
        assert "hare" in graph.noun_lemmas()

    def test_malformed_data_line_reports_location(self, tmp_path):
        (tmp_path / "data.noun").write_text("00000001 03 n XX broken\n")
        (tmp_path / "index.noun").write_text("person n 1 0 1 1 00000001\n")
        with pytest.raises(FormatError, match=r"data\.noun:1"):
            load_wordnet(tmp_path)

    def test_index_offset_must_exist(self, tmp_path):
        (tmp_path / "data.noun").write_text(
            "00000001 03 n 01 person 0 000 | gloss\n"
        )
        (tmp_path / "index.noun").write_text(
            "person n 1 0 1 1 00000001\nghost n 1 0 1 1 00000099\n"
        )
        with pytest.raises(FormatError, match="ghost"):
            load_wordnet(tmp_path)

    def test_person_entry_required(self, tmp_path):
        (tmp_path / "data.noun").write_text(
            "00000001 03 n 01 cat 0 000 | gloss\n"
        )
        (tmp_path / "index.noun").write_text("cat n 1 0 1 1 00000001\n")
        with pytest.raises(ResourceError, match="person"):
            load_wordnet(tmp_path)

    def test_header_lines_are_skipped(self, tmp_path):
        (tmp_path / "data.noun").write_text(
            "  1 license text\n"
            "00000001 03 n 01 person 0 000 | gloss\n"
        )
        (tmp_path / "index.noun").write_text(
            "  1 license text\nperson n 1 0 1 1 00000001\n"
        )
        graph = load_wordnet(tmp_path)
        assert graph.synsets_of("person", Pos.NOUN) == [(NOUN, 1)]

    def test_hex_word_count_is_honored(self, tmp_path):
        words = " ".join(f"w{i} 0" for i in range(12))
        (tmp_path / "data.noun").write_text(
            f"00000001 03 n 0c {words} 001 @ 00000002 n 0000 | twelve lemmas\n"
            "00000002 03 n 01 person 0 000 | gloss\n"
        )
        (tmp_path / "index.noun").write_text(
            "person n 1 0 1 1 00000002\nw11 n 1 1 @ 1 1 00000001\n"
        )
        graph = load_wordnet(tmp_path)
        # 0c is twelve words, so the pointer count is read after the twelfth
        assert graph.hypernyms[(NOUN, 1)] == ((NOUN, 2),)
        assert graph.synsets_of("w11", Pos.NOUN) == [(NOUN, 1)]
