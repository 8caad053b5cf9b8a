"""Release acceptance suite.

Each test below checks one release criterion end to end and prints exactly
one ``[criterion NN] name: PASS/FAIL`` line, with the elapsed time and, on
failure, the first few reasons.  Tolerances and runtime budgets are pinned
at the top of the module.  Criterion 6 contains one data-conditional
sub-case that needs a full dictionary installation; when none is present it
is reported as skipped inside the criterion line rather than faked.
"""

import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from oracles import (ReferenceKN, reference_bernoulli_kl, reference_bfs,
                     reference_meaning, reference_ranks, reference_spearman)
from punforge import cli
from punforge.corpus import Pos, TagLexicon, ingest, load_corpus
from punforge.demo_corpus import DEMO_PAIR, DEMO_TOPIC, write_demo_corpus
from punforge.generator import (STAGE_SWAP, STAGE_TOPIC, GenerationConfig,
                                GenerationResources, generate)
from punforge.kao import STOPWORDS, meaning_report
from punforge.ngram_lm import NGramModel, train_lm
from punforge.retrieval import InvertedIndex, SeedCandidate, build_index, retrieve_seeds
from punforge.skipgram import (SkipGramConfig, extract_pairs, step_loss_grads,
                               train_skipgram)
from punforge.stats import average_ranks, clip_standardize, spearman
from punforge.surprisal import (PunOccurrence, PunPair, local_global, s_ratio,
                                surprisal)
from punforge.wordnet import (NOUN, VERB, SynsetGraph, load_wordnet,
                              path_similarity, type_consistent)

TOL_IDENTITY = 1e-9      # surprisal identities
TOL_LM_MATCH = 1e-9      # language model vs. reference
TOL_LM_NORM = 1e-6       # probability normalization
TOL_GRADIENT = 1e-4      # relative error, analytic vs. finite differences
TOL_MEANING = 1e-9       # meaning posterior vs. enumeration
TOL_SPEARMAN = 1e-12     # rank correlation vs. brute force
FUZZ_PAIRS = 100_000
SEED_QUERIES = 1_000
TIED_VECTORS = 1_000

BUDGETS = {1: 1.0, 2: 1.0, 3: 5.0, 4: 60.0, 5: 5.0, 6: 10.0, 7: 5.0,
           8: 120.0, 9: None, 10: 5.0}

LN2 = math.log(2.0)


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok and len(failures) < 6:
        failures.append(message)


def _finish(capsys, number: int, name: str, failures: list, started: float,
            note: str = "") -> None:
    elapsed = time.perf_counter() - started
    budget = BUDGETS[number]
    if budget is not None and elapsed >= budget:
        failures.append(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " - " + "; ".join(failures)
    with capsys.disabled():
        print(f"[criterion {number:02d}] {name}: {status} "
              f"({elapsed:.2f}s){note}{detail}")
    assert not failures, f"criterion {number}: {failures}"


# --- criterion 1 --------------------------------------------------------------


class _HandVocab:
    def __init__(self, words):
        self._ids = {w: i for i, w in enumerate(words)}

    def encode(self, tokens):
        return [self._ids[t] for t in tokens]


class _HandModel:
    """Unsmoothed hand-set model: every position draws from one distribution.

    Under independence the sequence probability factorizes exactly, so the
    surprisal of a pair must collapse to the log ratio of the two word
    probabilities no matter what the context is.
    """

    def __init__(self, word_probs: dict):
        self.vocab = _HandVocab(list(word_probs))
        self._p = list(word_probs.values())

    def logprob_seq(self, ids, use_boundary_markers):
        return sum(math.log(self._p[i]) for i in ids)


def _chain_logprob(model, ids, markers):
    """Sequence score rebuilt from single-word conditionals only."""
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


def test_criterion_01_surprisal_identities(tiny_lm, capsys):
    started = time.perf_counter()
    failures = []

    contexts = [([], []), (["the"], ["sat"]), (["a", "old"], ["ran", "fast"]),
                (["on"], [])]
    pairs = [("cat", "dog"), ("mat", "bird"), ("old", "fast")]
    for left, right in contexts:
        for a, b in pairs:
            fwd = surprisal(tiny_lm, left, right, PunPair(a, b))
            rev = surprisal(tiny_lm, left, right, PunPair(b, a))
            _check(failures, fwd == -rev,
                   f"antisymmetry broken for {a}/{b} in {left}|{right}")

    sym_text = ("the cat sat . the dog sat . a cat ran . a dog ran . "
                "cat and dog play . dog and cat play .")
    sentences, vocab = ingest(sym_text)
    sym_lm = train_lm(sentences, vocab, order=3)
    for tokens, pos in [(["the", "cat", "sat", "."], 1),
                        (["a", "cat", "ran", "."], 1)]:
        s_loc, s_glob = local_global(sym_lm, PunOccurrence(tokens, pos),
                                     PunPair("cat", "dog"))
        _check(failures, abs(s_loc) <= TOL_IDENTITY,
               f"symmetric corpus s_local {s_loc!r} not ~0")
        _check(failures, abs(s_glob) <= TOL_IDENTITY,
               f"symmetric corpus s_global {s_glob!r} not ~0")

    hand = _HandModel({"the": 0.4, "cat": 0.3, "dog": 0.2, "sat": 0.1})
    expected = math.log(0.2) - math.log(0.3)
    occ = PunOccurrence(["the", "cat", "sat"], 1)
    s_loc, s_glob = local_global(hand, occ, PunPair("cat", "dog"), window=2)
    _check(failures, abs(s_loc - expected) <= TOL_IDENTITY,
           "hand model local surprisal is not the unigram log ratio")
    _check(failures, abs(s_glob - expected) <= TOL_IDENTITY,
           "hand model global surprisal is not the unigram log ratio")

    for tokens in [["the", "cat", "sat", "on", "the", "mat", "."],
                   ["a", "bird", "sat", "on", "the", "old", "mat", "."]]:
        ids = tiny_lm.vocab.encode(tokens)
        for markers in (False, True):
            joint = tiny_lm.logprob_seq(ids, use_boundary_markers=markers)
            chain = _chain_logprob(tiny_lm, ids, markers)
            _check(failures, abs(joint - chain) <= TOL_IDENTITY,
                   f"joint/conditional gap {abs(joint - chain):g}")

    _finish(capsys, 1, "surprisal identity suite", failures, started)


# --- criterion 2 --------------------------------------------------------------


def test_criterion_02_ratio_gate_fuzz(capsys):
    started = time.perf_counter()
    failures = []
    big = sys.float_info.max
    specials = np.array([0.0, -0.0, 1e-320, 1e-9, 0.5, 1.0, 1e300, big,
                         np.inf, -np.inf, np.nan, -1.0, -1e300, 2e-9])
    rng = np.random.default_rng(97)

    def column():
        magnitudes = np.power(10.0, rng.uniform(-320.0, 308.0, FUZZ_PAIRS))
        magnitudes *= rng.choice([-1.0, 1.0], FUZZ_PAIRS)
        picked = rng.choice(specials, FUZZ_PAIRS)
        return np.where(rng.random(FUZZ_PAIRS) < 0.5, picked, magnitudes)

    for a, b in zip(column().tolist(), column().tolist()):
        r = s_ratio(a, b)
        if math.isnan(r) or math.isinf(r):
            _check(failures, False, f"s_ratio({a!r}, {b!r}) = {r!r}")
            continue
        sentinel = (math.isnan(a) or math.isnan(b) or a < 0.0 or b < 0.0
                    or (0.0 <= b < 1e-9) or (math.isinf(a) and math.isinf(b)))
        if sentinel:
            _check(failures, r == -1.0,
                   f"s_ratio({a!r}, {b!r}) = {r!r}, wanted -1")

    for a, b, want in [(3.0, 1.5, 2.0), (float("inf"), float("inf"), -1.0),
                       (float("nan"), 1.0, -1.0), (-1.0, 2.0, -1.0),
                       (1.0, 0.0, -1.0), (1.0, -0.0, -1.0),
                       (1e300, 1e-9, big), (0.0, 1.0, 0.0)]:
        _check(failures, s_ratio(a, b) == want,
               f"s_ratio({a!r}, {b!r}) != {want!r}")

    _finish(capsys, 2, "ratio gate never NaN or infinite", failures, started)


# --- criterion 3 --------------------------------------------------------------


def test_criterion_03_lm_matches_reference(tiny_lm, capsys):
    started = time.perf_counter()
    failures = []
    corpora = [
        "a b a c . b a b . c c a b a .",                       # 16 tokens
        "the cat sat . the cat ran . a dog sat on a mat .",    # 18 tokens
    ]
    rng = random.Random(5)
    for text in corpora:
        sentences, vocab = ingest(text)
        encoded = [vocab.encode(s.surfaces()) for s in sentences]
        for order in (2, 3, 4, 5):
            model = train_lm(sentences, vocab, order=order)
            oracle = ReferenceKN(encoded, len(vocab), order)
            events = list(range(len(vocab))) + [model.eos_id]
            for _ in range(40):
                word = rng.choice(events)
                ctx = [rng.choice(events[:-1] + [model.bos_id])
                       for _ in range(rng.randrange(0, order))]
                got = model.prob(word, ctx)
                want = oracle.prob(word, ctx)
                _check(failures, abs(got - want) <= TOL_LM_MATCH,
                       f"order {order}: prob gap {abs(got - want):g}")
            sent = rng.choice(encoded)
            for markers in (False, True):
                got = model.logprob_seq(sent, use_boundary_markers=markers)
                want = oracle.logprob_seq(sent, markers)
                _check(failures, abs(got - want) <= TOL_LM_MATCH,
                       f"order {order}: sequence gap {abs(got - want):g}")

    events = list(range(len(tiny_lm.vocab))) + [tiny_lm.eos_id]
    contexts_checked = 0
    for _ in range(100):
        ctx = [rng.choice(events[:-1] + [tiny_lm.bos_id])
               for _ in range(rng.randrange(0, tiny_lm.order))]
        total = sum(tiny_lm.prob(w, ctx) for w in events)
        _check(failures, abs(total - 1.0) <= TOL_LM_NORM,
               f"context {ctx}: probabilities sum to {total!r}")
        contexts_checked += 1
    _check(failures, contexts_checked == 100, "normalization undersampled")

    _finish(capsys, 3, "smoothed model equals reference and normalizes",
            failures, started)


# --- criterion 4 --------------------------------------------------------------


def _planted_corpus(rng: random.Random) -> list[str]:
    filler = ["track", "field", "fence", "gate", "grass", "crowd", "race",
              "prize"]
    lines = []
    for _ in range(150):
        mid = rng.sample(filler, 4)
        tail = rng.sample(filler, 2)
        lines.append(" ".join(["greyhound", *mid, "hare", *tail]))
    for _ in range(80):
        lines.append(" ".join(rng.choice(filler) for _ in range(8)))
    return lines


def test_criterion_04_distant_skipgram(capsys):
    started = time.perf_counter()
    failures = []

    rng = np.random.default_rng(13)
    center = rng.standard_normal(3)
    out_vecs = rng.standard_normal((5, 3))
    labels = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    _, grad_center, grad_out = step_loss_grads(center, out_vecs, labels)
    eps = 1e-6

    def loss_at(c, o):
        return step_loss_grads(c, o, labels)[0]

    worst = 0.0
    for k in range(3):
        bump = np.zeros(3)
        bump[k] = eps
        numeric = (loss_at(center + bump, out_vecs)
                   - loss_at(center - bump, out_vecs)) / (2 * eps)
        worst = max(worst, abs(numeric - grad_center[k])
                    / max(abs(numeric), abs(grad_center[k]), 1e-8))
    for r in range(5):
        for k in range(3):
            bump = np.zeros((5, 3))
            bump[r, k] = eps
            numeric = (loss_at(center, out_vecs + bump)
                       - loss_at(center, out_vecs - bump)) / (2 * eps)
            worst = max(worst, abs(numeric - grad_out[r, k])
                        / max(abs(numeric), abs(grad_out[r, k]), 1e-8))
    _check(failures, worst < TOL_GRADIENT,
           f"gradient relative error {worst:g}")

    pyrng = random.Random(29)
    sentences = [[pyrng.randrange(40) for _ in range(pyrng.randrange(0, 25))]
                 for _ in range(200)]
    for d1, d2 in [(5, 10), (1, 3), (2, 2)]:
        brute = []
        for ids in sentences:
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    if d1 <= j - i <= d2:
                        brute.append([ids[i], ids[j]])
                        brute.append([ids[j], ids[i]])
        got = extract_pairs(sentences, d1, d2)
        _check(failures, got.tolist() == brute,
               f"band ({d1},{d2}): pair lists differ")

    corpus_lines = _planted_corpus(random.Random(3))
    planted_sents, planted_vocab = ingest(corpus_lines)
    hits = 0
    for seed in range(1, 11):
        config = SkipGramConfig(dim=16, d1=5, d2=10, epochs=8, seed=seed)
        model = train_skipgram(planted_sents, planted_vocab, config)
        top3 = [word for word, _ in model.predict_topics("hare", 3)]
        hits += "greyhound" in top3
    _check(failures, hits >= 9,
           f"planted collocate in top-3 for only {hits}/10 seeds")

    _finish(capsys, 4, "distant skip-gram training", failures, started)


# --- criterion 5 --------------------------------------------------------------


def test_criterion_05_meaning_posterior(capsys):
    started = time.perf_counter()
    failures = []
    words = ["hare", "hair", "greyhound", "barber", "track", "comb", "race",
             "salon", "trim", "fence", "gate", "crowd"]
    _, vocab = ingest(" ".join(words) + " .")
    size = len(vocab)

    def resources(seed):
        rng = np.random.default_rng(seed)
        uni = rng.random(size) + 0.05
        uni /= uni.sum()
        rel = rng.random((size, size)) + 0.01
        rel /= rel.sum(axis=1, keepdims=True)
        return uni, rel

    pyrng = random.Random(41)
    ambiguities = []
    for case in range(25):
        uni, rel = resources(100 + case)
        pun, alt = pyrng.sample(words, 2)
        n_content = pyrng.randint(1, 10)
        tokens = pyrng.choices(words, k=n_content)
        for extra in pyrng.sample(["the", "of", ",", "a"], 2):
            tokens.insert(pyrng.randrange(len(tokens) + 1), extra)
        pun_pos = pyrng.randrange(len(tokens) + 1)
        tokens.insert(pun_pos, pun)

        report = meaning_report(tokens, pun_pos, PunPair(pun, alt), vocab,
                                uni, lambda wid: rel[wid])

        content = [i for i, t in enumerate(tokens)
                   if i != pun_pos and any(ch.isalnum() for ch in t)
                   and t not in STOPWORDS]
        ids = [vocab.id_of(tokens[i]) for i in content]
        pun_id, alt_id = vocab.id_of(pun), vocab.id_of(alt)
        want_post, want_fp, want_fa = reference_meaning(
            [uni[x] for x in ids], [rel[pun_id][x] for x in ids],
            [rel[alt_id][x] for x in ids])
        _check(failures, report.content_positions == content,
               "content word selection differs")
        _check(failures,
               abs(report.posterior_pun - want_post) <= TOL_MEANING,
               f"posterior gap {abs(report.posterior_pun - want_post):g}")
        for got, want in zip(report.f_pun + report.f_alt, want_fp + want_fa):
            _check(failures, abs(got - want) <= TOL_MEANING,
                   f"responsibility gap {abs(got - want):g}")
        want_distinct = sum(
            reference_bernoulli_kl(a, b) + reference_bernoulli_kl(b, a)
            for a, b in zip(want_fp, want_fa))
        _check(failures,
               abs(report.distinctiveness - want_distinct) <= TOL_MEANING,
               "distinctiveness differs from enumeration")
        want_amb = -sum(p * math.log(p)
                        for p in (want_post, 1 - want_post) if p > 0)
        _check(failures, abs(report.ambiguity - want_amb) <= TOL_MEANING,
               "ambiguity differs from enumeration")
        ambiguities.append(report.ambiguity)

    _check(failures, all(0.0 <= a <= LN2 for a in ambiguities),
           "ambiguity escaped [0, ln 2]")

    uni, rel = resources(7)
    pun_id, alt_id = vocab.id_of("hare"), vocab.id_of("hair")
    rel[alt_id] = rel[pun_id]  # the two meanings now explain words identically
    symmetric = meaning_report(["the", "barber", "hare", "track"], 2,
                               PunPair("hare", "hair"), vocab, uni,
                               lambda wid: rel[wid])
    _check(failures, symmetric.posterior_pun == 0.5,
           "symmetric meanings should give posterior exactly 1/2")
    _check(failures, symmetric.ambiguity == LN2,
           "symmetric case should reach the entropy maximum exactly")
    rel[alt_id] = np.roll(rel[pun_id], 1)
    skewed = meaning_report(["the", "barber", "hare", "track"], 2,
                            PunPair("hare", "hair"), vocab, uni,
                            lambda wid: rel[wid])
    _check(failures, skewed.ambiguity < LN2,
           "asymmetric case should fall below the entropy maximum")

    _finish(capsys, 5, "meaning metrics equal exhaustive enumeration",
            failures, started)


# --- criterion 6 --------------------------------------------------------------


def _mirror_adjacency(hypernyms):
    adj = {}
    for synset, parents in hypernyms.items():
        adj.setdefault(synset, set())
        if parents:
            for parent in parents:
                adj[synset].add(parent)
                adj.setdefault(parent, set()).add(synset)
        else:
            root = (synset[0], -1)
            adj[synset].add(root)
            adj.setdefault(root, set()).add(synset)
    return adj


def _find_real_dictionary():
    candidates = []
    wnhome = os.environ.get("WNHOME")
    if wnhome:
        candidates += [Path(wnhome) / "dict", Path(wnhome)]
    candidates += [
        Path("/usr/share/wordnet"),
        Path("/usr/local/share/wordnet"),
        Path("/usr/local/WordNet-3.0/dict"),
        Path("/usr/share/wordnet-3.0/dict"),
        Path.home() / "nltk_data" / "corpora" / "wordnet",
        Path("/usr/share/nltk_data/corpora/wordnet"),
        Path("/usr/local/share/nltk_data/corpora/wordnet"),
    ]
    for cand in candidates:
        if (cand / "data.noun").is_file() and (cand / "index.noun").is_file():
            return cand
    return None


def test_criterion_06_dictionary_similarity(miniwn, capsys):
    started = time.perf_counter()
    failures = []

    rng = random.Random(11)
    hypernyms = {}
    for i in range(20):
        node = (NOUN, i)
        if i == 0 or rng.random() < 0.15:
            hypernyms[node] = ()
        else:
            count = 2 if (rng.random() < 0.3 and i >= 2) else 1
            hypernyms[node] = tuple((NOUN, p)
                                    for p in rng.sample(range(i), count))
    for i in (0, 1, 2):
        node = (VERB, 100 + i)
        hypernyms[node] = ((VERB, 100 + i - 1),) if i else ()
    senses = {(f"word{pos}{off}", pos): ((pos, off),)
              for pos, off in hypernyms}
    graph = SynsetGraph(hypernyms=hypernyms, senses=senses)
    oracle_adj = _mirror_adjacency(hypernyms)
    nodes = list(hypernyms)
    for a in nodes:
        for b in nodes:
            dist = reference_bfs(oracle_adj, a, b)
            want = 0.0 if dist is None else 1.0 / (1.0 + dist)
            got = path_similarity(graph, a, b)
            _check(failures, got == want,
                   f"similarity({a}, {b}) = {got!r}, oracle {want!r}")

    person_first = miniwn.senses[("person", NOUN)][0]
    for pronoun in ("he", "she", "someone", "everyone"):
        _check(failures,
               miniwn.synsets_of(pronoun, Pos.PRONOUN) == [person_first],
               f"pronoun {pronoun!r} did not map to the first person sense")

    note = ""
    real_dir = _find_real_dictionary()
    if real_dir is None:
        note = " [full-dictionary sub-case skipped: no installation found]"
    else:
        real = load_wordnet(real_dir)
        real_adj = _mirror_adjacency(real.hypernyms)

        def oracle_consistent(word_a, word_b):
            best = None
            for sa in real.senses.get((word_a, NOUN), ()):
                for sb in real.senses.get((word_b, NOUN), ()):
                    dist = reference_bfs(real_adj, sa, sb)
                    if dist is not None and (best is None or dist < best):
                        best = dist
            return best is not None and 1.0 / (1.0 + best) > 0.3

        _check(failures, oracle_consistent("person", "passenger"),
               "oracle: person/passenger should pass at 0.3")
        _check(failures, not oracle_consistent("person", "ship"),
               "oracle: person/ship should fail at 0.3")
        _check(failures,
               type_consistent(real, "person", Pos.NOUN, "passenger",
                               Pos.NOUN, 0.3),
               "person/passenger not type-consistent at 0.3")
        _check(failures,
               not type_consistent(real, "person", Pos.NOUN, "ship",
                                   Pos.NOUN, 0.3),
               "person/ship type-consistent at 0.3")

    _finish(capsys, 6, "dictionary graph similarity", failures, started,
            note=note)


# --- criterion 7 --------------------------------------------------------------


def test_criterion_07_seed_retrieval(capsys):
    started = time.perf_counter()
    failures = []
    rng = random.Random(53)
    pool_words = ["".join(p) for p in
                  [(a, b) for a in "abcdef" for b in "aeiou"]]
    raw = [[rng.choice(pool_words) for _ in range(rng.randrange(1, 46))]
           for _ in range(250)]
    raw += [[w] + [rng.choice(pool_words) for _ in range(3)]
            for w in pool_words[:5]]            # exactly length 4
    raw.append([pool_words[0]] + [pool_words[1]] * 39)   # length 40
    raw.append([pool_words[2]] + [pool_words[3]] * 40)   # length 41
    sentences, _ = ingest(" ".join(tokens) for tokens in raw)
    index = build_index(sentences)
    cache = [(s.sent_id, s.surfaces()) for s in sentences]

    def brute(word, pool, keep):
        gathered = []
        for sent_id, tokens in cache:
            positions = [i for i, t in enumerate(tokens) if t == word]
            if len(positions) != 1 or not 4 <= len(tokens) <= 40:
                continue
            gathered.append((sent_id, positions[0], len(tokens)))
            if len(gathered) >= pool:
                break
        gathered.sort(key=lambda e: (-(e[1] / e[2]), e[2], e[0]))
        return [SeedCandidate(s, p, n, r)
                for r, (s, p, n) in enumerate(gathered[:keep])]

    for q in range(SEED_QUERIES):
        word = "zzz" if q % 37 == 0 else rng.choice(pool_words)
        if q % 3 == 0:
            pool, keep = rng.randrange(1, 9), rng.randrange(1, 6)
        else:
            pool, keep = 500, 100
        got = retrieve_seeds(index, word, pool=pool, keep=keep)
        want = brute(word, pool, keep)
        _check(failures, got == want,
               f"query {word!r} pool={pool} keep={keep} differs")
        for cand in got:
            tokens = cache[cand.sent_id][1]
            _check(failures, tokens.count(word) == 1,
                   f"seed {cand.sent_id} does not contain {word!r} exactly once")

    _finish(capsys, 7, "seed retrieval equals re-scan oracle", failures,
            started)


# --- criterion 8 --------------------------------------------------------------


def _run_generate(corpus, extra, out_path):
    code = cli.main(["generate", "--corpus", str(corpus),
                     "--pun", DEMO_PAIR[0], "--alt", DEMO_PAIR[1],
                     "--output", str(out_path)] + extra)
    assert code == 0, f"generate exited {code}"
    records = [json.loads(line)
               for line in out_path.read_text().splitlines()]
    return records[0], records[1:]


def _candidate_violations(cand, require_topic):
    pun, alt = DEMO_PAIR
    tokens = cand["tokens"]
    problems = []
    if tokens.count(pun) != 1:
        problems.append("pun word count != 1")
    if alt in tokens:
        problems.append("alternative word still present")
    if tokens[cand["pun_position"]] != pun:
        problems.append("pun_position does not hold the pun word")
    if require_topic:
        topic = cand["topic_word"]
        if not topic or cand["deleted_word"] is None:
            problems.append("topic stage candidate lacks topic/deleted word")
        elif topic not in tokens[:cand["pun_position"]]:
            problems.append("topic word not before the pun word")
    return problems


def test_criterion_08_end_to_end_generation(tmp_path, miniwn_dir, capsys):
    started = time.perf_counter()
    failures = []

    text = tmp_path / "demo.txt"
    write_demo_corpus(text)
    corpus = tmp_path / "c8.pgc"
    lm = tmp_path / "c8.pglm"
    skipgram = tmp_path / "c8.pgsg"
    for argv in (["index", "--corpus", str(text), "--out", str(corpus)],
                 ["train-lm", "--corpus", str(corpus), "--out", str(lm)],
                 ["train-skipgram", "--corpus", str(corpus), "--out",
                  str(skipgram), "--dim", "40", "--epochs", "6",
                  "--seed", "1"]):
        code = cli.main(argv)
        _check(failures, code == 0, f"{argv[0]} exited {code}")

    meta, cands = _run_generate(corpus, ["--stage", "SWAP"],
                                tmp_path / "swap.jsonl")
    _check(failures, meta["failure"] is None and len(cands) >= 1,
           "swap stage produced no candidate")
    for cand in cands:
        for problem in _candidate_violations(cand, require_topic=False):
            _check(failures, False, f"swap candidate: {problem}")

    topic_extra = ["--skipgram", str(skipgram), "--wordnet", str(miniwn_dir),
                   "--lm", str(lm)]
    meta, cands = _run_generate(corpus, topic_extra, tmp_path / "topic1.jsonl")
    _check(failures, meta["failure"] is None and len(cands) >= 1,
           "topic stage produced no candidate")
    for cand in cands:
        for problem in _candidate_violations(cand, require_topic=True):
            _check(failures, False, f"topic candidate: {problem}")

    _run_generate(corpus, topic_extra, tmp_path / "topic2.jsonl")
    _check(failures,
           (tmp_path / "topic1.jsonl").read_bytes()
           == (tmp_path / "topic2.jsonl").read_bytes(),
           "same-seed runs differ byte for byte")

    _finish(capsys, 8, "end-to-end generation on the bundled corpus",
            failures, started)


# --- criterion 9 --------------------------------------------------------------


def test_criterion_09_surprisal_direction(pipeline, miniwn, capsys):
    started = time.perf_counter()
    failures = []

    corpus = load_corpus(pipeline["corpus"])
    index = InvertedIndex(corpus.postings,
                          {s.sent_id: len(s.tokens) for s in corpus.sentences})
    lm = NGramModel.load(pipeline["lm"])
    from punforge.skipgram import SkipGramModel
    skipgram = SkipGramModel.load(pipeline["skipgram"])
    lexicon = TagLexicon(nouns=miniwn.noun_lemmas(), verbs=miniwn.verb_lemmas())
    resources = GenerationResources(corpus=corpus, index=index,
                                    skipgram=skipgram, graph=miniwn,
                                    lexicon=lexicon, lm=lm)
    pair = PunPair(*DEMO_PAIR)

    swap_result = generate(pair, resources,
                           GenerationConfig(stage=STAGE_SWAP, max_outputs=120))
    swap_locals = [c.report.s_local for c in swap_result.candidates]
    _check(failures, len(swap_locals) >= 20,
           f"only {len(swap_locals)} swap candidates")
    _check(failures, statistics.fmean(swap_locals) > 0.0,
           f"mean swap local surprisal {statistics.fmean(swap_locals):g}")

    topic_result = generate(pair, resources,
                            GenerationConfig(stage=STAGE_TOPIC,
                                             max_outputs=400, topic_k=5))
    planted = [c for c in topic_result.candidates
               if c.topic_word == DEMO_TOPIC]
    _check(failures, len(planted) >= 20,
           f"only {len(planted)} candidates carry the planted topic word")
    if planted:
        locals_ = [c.report.s_local for c in planted]
        globals_ = [c.report.s_global for c in planted]
        ratios = [c.report.s_ratio for c in planted]
        _check(failures, not any(c.report.degenerate for c in planted),
               "a planted-topic candidate scored as degenerate")
        _check(failures, statistics.fmean(globals_) > 0.0,
               f"mean global surprisal {statistics.fmean(globals_):g}")
        _check(failures,
               statistics.fmean(globals_) < statistics.fmean(locals_),
               f"mean global {statistics.fmean(globals_):g} not below "
               f"mean local {statistics.fmean(locals_):g}")
        _check(failures, statistics.fmean(ratios) > 1.0,
               f"mean surprisal ratio {statistics.fmean(ratios):g}")

    _finish(capsys, 9, "local beats global surprisal on planted topics",
            failures, started)


# --- criterion 10 -------------------------------------------------------------


def test_criterion_10_rank_statistics(capsys):
    started = time.perf_counter()
    failures = []
    rng = random.Random(71)

    def tied_vector(n):
        while True:
            v = [float(rng.randrange(6)) for _ in range(n)]
            if len(set(v)) > 1:
                return v

    for _ in range(TIED_VECTORS):
        n = rng.randrange(3, 13)
        x, y = tied_vector(n), tied_vector(n)
        got = spearman(x, y)
        want = reference_spearman(x, y)
        _check(failures, abs(got - want) <= TOL_SPEARMAN,
               f"spearman gap {abs(got - want):g}")

    for _ in range(200):
        v = tied_vector(rng.randrange(2, 12))
        _check(failures, average_ranks(v).tolist() == reference_ranks(v),
               f"ranks differ on {v}")

    for _ in range(50):
        n = rng.randrange(3, 10)
        x, y = tied_vector(n), tied_vector(n)
        base = spearman(x, y)
        warped = spearman([math.exp(v) for v in x],
                          [math.exp(v) for v in y])
        _check(failures, abs(base - warped) <= TOL_SPEARMAN,
               "not invariant under monotone transforms")

    values = [rng.uniform(-5, 5) for _ in range(30)]
    z = clip_standardize(values, clip=50.0)
    _check(failures, abs(float(np.mean(z))) <= 1e-9, "z-scores not centered")
    _check(failures, abs(float(np.std(z)) - 1.0) <= 1e-9,
           "z-scores not unit variance")
    clipped = clip_standardize(values + [1e6], clip=1.5)
    _check(failures,
           float(clipped.max()) <= 1.5 and float(clipped.min()) >= -1.5,
           "clip limit not enforced")
    for bad in ([], [2.0, 2.0, 2.0]):
        try:
            clip_standardize(bad)
            _check(failures, False, f"clip_standardize accepted {bad!r}")
        except ValueError:
            pass

    _finish(capsys, 10, "rank statistics against brute force", failures,
            started)
