"""Slow, independent reference implementations used to check the package.

Everything here favors directness over speed: plain dicts, linear scans,
exhaustive enumeration.  Nothing imports from punforge, so agreement between
the two codebases is evidence rather than tautology.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np


class ReferenceKN:
    """Interpolated modified Kneser-Ney over explicit n-gram dictionaries.

    Sentences are padded with (order - 1) begin markers and one end marker.
    The top level stores raw counts; each lower level stores continuation
    counts (the number of distinct one-word left extensions seen one level
    up).  Probabilities are events over the vocabulary plus the end marker.
    """

    def __init__(self, sentences, vocab_size, order):
        self.order = order
        self.vocab_size = vocab_size
        self.n_events = vocab_size + 1
        self.bos = vocab_size
        self.eos = vocab_size + 1

        top: dict[tuple, int] = {}
        for sent in sentences:
            seq = [self.bos] * (order - 1) + list(sent) + [self.eos]
            for i in range(len(seq) - order + 1):
                gram = tuple(seq[i:i + order])
                top[gram] = top.get(gram, 0) + 1
        self.grams: dict[int, dict[tuple, int]] = {order: top}
        for level in range(order - 1, 0, -1):
            cont: dict[tuple, int] = {}
            for gram in self.grams[level + 1]:
                cont[gram[1:]] = cont.get(gram[1:], 0) + 1
            self.grams[level] = cont
        self.discounts = {
            level: self._discounts(self.grams[level].values())
            for level in range(1, order + 1)
        }

    @staticmethod
    def _discounts(counts):
        n = [0] * 5
        for c in counts:
            if 1 <= c <= 4:
                n[c] += 1
        if 0 in (n[1], n[2], n[3], n[4]):
            return (0.75, 0.75, 0.75)
        y = n[1] / (n[1] + 2.0 * n[2])
        d1 = 1.0 - 2.0 * y * n[2] / n[1]
        d2 = 2.0 - 3.0 * y * n[3] / n[2]
        d3 = 3.0 - 4.0 * y * n[4] / n[3]
        if not (0.0 < d1 <= 1.0 and 0.0 < d2 <= 2.0 and 0.0 < d3 <= 3.0):
            return (0.75, 0.75, 0.75)
        return (d1, d2, d3)

    def prob(self, word, context):
        context = tuple(context)
        if len(context) > self.order - 1:
            context = context[len(context) - self.order + 1:]
        return self._p(len(context) + 1, context, word)

    def _p(self, level, ctx, word):
        if level == 0:
            return 1.0 / self.n_events
        counts = self.grams[level]
        denom = 0
        for gram, c in counts.items():
            if gram[:-1] == ctx:
                denom += c
        if denom == 0:
            return self._p(level - 1, ctx[1:], word)
        d1, d2, d3 = self.discounts[level]

        def discount(c):
            return d1 if c == 1 else d2 if c == 2 else d3

        removed = 0.0
        for gram, c in counts.items():
            if gram[:-1] == ctx:
                removed += discount(c)
        c_word = counts.get(ctx + (word,), 0)
        kept = max(c_word - discount(c_word), 0.0) if c_word else 0.0
        backoff = self._p(level - 1, ctx[1:], word)
        return kept / denom + (removed / denom) * backoff

    def logprob_seq(self, ids, use_boundary_markers):
        ids = list(ids)
        total = 0.0
        if use_boundary_markers:
            seq = [self.bos] * (self.order - 1) + ids + [self.eos]
            for i in range(self.order - 1, len(seq)):
                total += math.log(self.prob(seq[i], seq[i - self.order + 1:i]))
            return total
        for i, word in enumerate(ids):
            total += math.log(self.prob(word, ids[max(0, i - self.order + 1):i]))
        return total


class CountTablesKN:
    """Kneser-Ney by recursion over count tables, summed in sorted order.

    Every table holds its contexts and words in sorted order, and each
    context's backoff numerator adds its words' discounts left to right in
    that order.  ``prob`` and ``logprob_seq`` give that model's floats bit
    for bit, so a model with precomputed probabilities must equal them
    exactly, not only to a tolerance.  ``levels[k - 1]`` maps each stored
    order-k context to (word counts, total, numerator).
    """

    def __init__(self, sentences, vocab_size, order):
        self.order = order
        self.n_events = vocab_size + 1
        self.bos = vocab_size
        self.eos = vocab_size + 1
        top = {}
        for sent in sentences:
            if not sent:
                continue
            seq = [self.bos] * (order - 1) + list(sent) + [self.eos]
            for i in range(order - 1, len(seq)):
                row = top.setdefault(tuple(seq[i - order + 1:i]), {})
                row[seq[i]] = row.get(seq[i], 0) + 1
        counts = [{ctx: dict(sorted(top[ctx].items())) for ctx in sorted(top)}]
        for _ in range(order - 1):
            lower = {}
            for ctx, words in counts[-1].items():
                row = lower.setdefault(ctx[1:], {})
                for w in words:
                    row[w] = row.get(w, 0) + 1
            counts.append({ctx: dict(sorted(lower[ctx].items())) for ctx in sorted(lower)})
        counts.reverse()
        self.discounts = []
        self.levels = []
        for table in counts:
            d1, d2, d3 = ReferenceKN._discounts(
                c for words in table.values() for c in words.values())
            self.discounts.append((d1, d2, d3))
            level = {}
            for ctx, words in table.items():
                gamma = 0.0
                for c in words.values():
                    gamma += d1 if c == 1 else d2 if c == 2 else d3
                level[ctx] = (words, sum(words.values()), gamma)
            self.levels.append(level)

    def prob(self, word, context):
        ctx = tuple(context[-(self.order - 1):])
        return self._p(len(ctx) + 1, ctx, word)

    def _p(self, level, ctx, w):
        if level == 0:
            return 1.0 / self.n_events
        entry = self.levels[level - 1].get(ctx)
        if entry is None:
            return self._p(level - 1, ctx[1:], w)
        words, total, gamma = entry
        d1, d2, d3 = self.discounts[level - 1]
        c = words.get(w, 0)
        kept = (c - (d1 if c == 1 else d2 if c == 2 else d3)) / total if c else 0.0
        return kept + gamma / total * self._p(level - 1, ctx[1:], w)

    def logprob_seq(self, ids, use_boundary_markers):
        total = 0.0
        if use_boundary_markers:
            seq = [self.bos] * (self.order - 1) + list(ids) + [self.eos]
            for i in range(self.order - 1, len(seq)):
                total += math.log(self._p(self.order, tuple(seq[i - self.order + 1:i]),
                                          seq[i]))
        else:
            seq = list(ids)
            for i in range(len(seq)):
                ctx = tuple(seq[max(0, i - self.order + 1):i])
                total += math.log(self._p(len(ctx) + 1, ctx, seq[i]))
        return total


def _lexsort_unique_rows(rows):
    """The distinct rows in lexicographic order, the index of each input row
    among them, and how often each occurs, by one stable sort per column."""
    order = np.lexsort(rows.T[::-1])
    starts, group = _lexsort_runs(rows[order])
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = group
    return rows[order[starts]], inverse, np.bincount(group)


def _lexsort_runs(rows):
    """Where each run of equal consecutive rows starts, and the run each row
    is in, comparing every column."""
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return np.flatnonzero(new), np.cumsum(new) - 1


def reference_kneser_ney_tables(grams, n_events):
    """Every order's discounts and tables (context rows, backoff weights,
    n-gram rows, probabilities), from one top-order row per training token,
    with rows sorted and compared column by column.  The floats are added in
    the order the package adds them, so the tables must be equal."""
    rows, _, counts = _lexsort_unique_rows(grams)
    levels = []
    while rows.shape[1] > 1:
        lower, proj, lower_counts = _lexsort_unique_rows(rows[:, 1:])
        levels.append((rows, counts, proj))
        rows, counts = lower, lower_counts
    levels.append((rows, counts, None))
    discounts, tables, probs = [], [], None
    for rows, counts, proj in reversed(levels):
        d = ReferenceKN._discounts(counts.tolist())
        discounts.append(d)
        discount = np.array(d)[np.minimum(counts, 3) - 1]
        starts, ctx_of = _lexsort_runs(rows[:, :-1])
        gamma = np.bincount(ctx_of, weights=discount, minlength=len(starts))
        total = np.add.reduceat(counts, starts)
        backoff = gamma / total
        kept = (counts - discount) / total[ctx_of]
        p_lower = 1.0 / n_events if proj is None else probs[proj]
        probs = kept + backoff[ctx_of] * p_lower
        tables.append((rows[starts, :-1], backoff, rows, probs))
    return discounts, tables


def reference_walk(tables, radix, uniform, longest, ctx_keys, seq):
    """The n-gram walk as a list of every suffix key of its context.

    ``tables[k]`` maps the keys of order-(k + 1) contexts to backoff weights
    and of order-(k + 1) n-grams to probabilities; a run of ids packs as
    base-``radix`` digits after a leading 1.  ``ctx_keys`` holds the keys of
    the context's suffixes, shortest (the empty one, key 1) first.  Yields
    p, not ln p, of each id of ``seq`` and the next id's ``ctx_keys``: the
    suffixes of the longest n-gram found, trimmed to ``longest`` ids.
    """
    for w in seq:
        gram_keys = [c * radix + w for c in ctx_keys]
        weights = []
        for k in range(len(gram_keys) - 1, -1, -1):  # longest first
            table = tables[k]
            p = table.get(gram_keys[k])
            if p is not None:
                break
            weight = table.get(ctx_keys[k])
            if weight is not None:
                weights.append(weight)
        else:
            p, k = uniform, -1
        for weight in reversed(weights):  # innermost first
            p = weight * p
        ctx_keys = [1] + gram_keys[:min(k + 1, longest)]
        yield p, ctx_keys


_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")
_SENT_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+")


def reference_tokenize(text):
    """The regex's tokens of lowercased text."""
    return _TOKEN_RE.findall(text.lower())


def reference_ingest(text, tagged=False):
    """The list-building reader: each sentence of raw or pre-tagged text as
    (sentence id, tokens), one at a time, and every surface's count.  Raw
    text splits at newlines and at terminal punctuation before whitespace,
    lowercased, into words and lone punctuation marks; a pre-tagged line is
    one sentence of ``surface_TAG`` tokens whose tags are dropped."""
    sentences = []
    for line in text.splitlines():
        if tagged:
            if line.strip():
                tokens = [chunk.rpartition("_")[0].lower() for chunk in line.split()]
                sentences.append((len(sentences), tokens))
            continue
        for piece in _SENT_BOUNDARY_RE.split(line):
            if piece.strip():
                sentences.append((len(sentences), reference_tokenize(piece.strip())))
    counts = Counter(t for _, tokens in sentences for t in tokens)
    return sentences, counts


def reference_postings(sentences):
    """Postings from a scan of the sentences in order: each surface's
    (sentence id, positions) entries, surfaces in order of first appearance."""
    postings = {}
    for sentence in sentences:
        seen = {}
        for position, token in enumerate(sentence.tokens):
            seen.setdefault(token, []).append(position)
        for surface, positions in seen.items():
            postings.setdefault(surface, []).append((sentence.sent_id, tuple(positions)))
    return postings


def reference_bfs(adjacency, start, goal):
    """Undirected shortest path length by breadth-first layers, or None."""
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for node in frontier:
            for nb in adjacency.get(node, ()):
                if nb == goal:
                    return dist
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return None


def reference_relatedness(vec_in, vec_out, word_id):
    """Softmax of one query's scores against every output embedding.

    Computed afresh on every call: scores shifted by their maximum,
    exponentiated and divided by their sum.
    """
    scores = vec_out @ vec_in[word_id]
    scores -= scores.max()
    exp = np.exp(scores)
    return exp / exp.sum()


def reference_predict_topics(dist, words, query_id, unk_id, k):
    """Top-k (word, renormalized probability) by a Python sort of tuples.

    ``dist`` is the query's relatedness distribution and ``words[i]`` the
    word of id i.  The query and the unknown id are skipped, the total is a
    left-to-right sum, and ties break by word, ascending.
    """
    skip = {query_id, unk_id}
    eligible = [i for i in range(len(dist)) if i not in skip]
    total = float(sum(dist[i] for i in eligible))
    if total <= 0.0:
        return []
    eligible.sort(key=lambda i: (-dist[i], words[i]))
    return [(words[i], float(dist[i]) / total) for i in eligible[:k]]


def reference_sigmoid(scores):
    """The logistic sigmoid by masked branches, one per sign."""
    sig = np.empty_like(scores)
    pos = scores >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-scores[pos]))
    exp_neg = np.exp(scores[~pos])
    sig[~pos] = exp_neg / (1.0 + exp_neg)
    return sig


def reference_step_loss_grads(center_vec, out_vecs, labels):
    """Negative-sampling loss and gradients, sigmoid by masked branches."""
    scores = out_vecs @ center_vec
    loss = float(np.sum(np.logaddexp(0.0, np.where(labels == 1, -scores, scores))))
    residual = reference_sigmoid(scores) - labels
    return loss, residual @ out_vecs, np.outer(residual, center_vec)


def reference_train_skipgram(encoded, counts, dim, d1, d2, epochs, negatives,
                             step_size, seed, block=1):
    """Band skip-gram SGD, one row of numpy calls per pair, ``block`` pairs at
    a time.

    ``encoded`` holds id lists and ``counts[i]`` the corpus count of id i.
    Pairs come from a double loop over positions.  Each epoch's shuffled
    pairs are cut into blocks of ``block`` pairs; every pair of a block
    gathers its rows from a copy of the embeddings taken as the block began,
    and ``np.add.at`` writes each pair's rows to the live embeddings in
    turn.  A block of one is plain sequential SGD.  Returns (vec_in,
    vec_out, updates whose targets repeat a row, blocks that repeat a
    center, each epoch's mean loss).
    """
    out = []
    for ids in encoded:
        n = len(ids)
        for i in range(n):
            for j in range(i + d1, min(i + d2, n - 1) + 1):
                out.append((ids[i], ids[j]))
                out.append((ids[j], ids[i]))
    pairs = np.array(out, dtype=np.int64)

    v_size = len(counts)
    rng = np.random.default_rng(seed)
    vec_in = (rng.random((v_size, dim)) - 0.5) / dim
    vec_out = np.zeros((v_size, dim))

    noise = np.array(counts, dtype=np.float64)
    noise **= 0.75
    if noise.sum() <= 0.0:
        noise[:] = 1.0
    noise_cdf = np.cumsum(noise / noise.sum())

    total_steps = epochs * len(pairs)
    labels = np.zeros(negatives + 1)
    labels[0] = 1.0
    step = 0
    repeated, shared_centers, epoch_losses = 0, 0, []
    for _epoch in range(epochs):
        epoch_loss = 0.0
        order = rng.permutation(len(pairs))
        drawn = np.minimum(
            np.searchsorted(noise_cdf, rng.random((len(pairs), negatives))),
            v_size - 1,
        )
        for row in range(len(pairs)):
            if row % block == 0:
                start_in, start_out = vec_in.copy(), vec_out.copy()
                centers = pairs[order[row:row + block], 0].tolist()
                shared_centers += len(set(centers)) < len(centers)
            center, context = pairs[order[row]]
            lr = step_size * max(1.0 - step / total_steps, 1e-4)
            step += 1
            targets = np.empty(negatives + 1, dtype=np.int64)
            targets[0] = context
            targets[1:] = drawn[row]
            loss, grad_center, grad_out = reference_step_loss_grads(
                start_in[center], start_out[targets], labels
            )
            np.add.at(vec_out, targets, -lr * grad_out)
            vec_in[center] -= lr * grad_center
            epoch_loss += loss
            repeated += len(set(targets.tolist())) < len(targets)
        epoch_losses.append(epoch_loss / len(pairs))
    return vec_in, vec_out, repeated, shared_centers, epoch_losses


def _reference_senses(senses, word, tag_name):
    """Synsets of a word under a tag name; pronouns stand for person, sense 1."""
    if tag_name == "PRONOUN":
        return [senses[("person", "n")][0]]
    pos = {"NOUN": "n", "VERB": "v"}.get(tag_name)
    return list(senses.get((word, pos), ())) if pos else []


def reference_type_consistent(hypernyms, senses, word, word_tag, other,
                              other_tag, threshold):
    """Exhaustive sense-pair scan with an unbounded BFS for every pair.

    ``hypernyms`` maps each synset (pos, offset) to its parents; synsets
    without one hang under the virtual root (pos, -1).
    """
    adjacency = {}

    def connect(a, b):
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    for node, parents in hypernyms.items():
        for parent in parents or [(node[0], -1)]:
            connect(node, parent)
    for sa in _reference_senses(senses, word, word_tag):
        for sb in _reference_senses(senses, other, other_tag):
            dist = reference_bfs(adjacency, sa, sb)
            if dist is not None and 1.0 / (1.0 + dist) > threshold:
                return True
    return False


def reference_generate(pun_word, alt_word, seeds, surfaces_of, topics,
                       tag_name, hypernyms, senses, threshold, max_outputs,
                       swap_only=False):
    """Every candidate of every seed, ordered, then cut to ``max_outputs``.

    ``seeds`` lists (sentence id, rank) in rank order, ``surfaces_of`` maps
    a sentence id to its words, ``topics`` holds (word, score) predictions
    and ``tag_name`` gives a word's lexicon tag name.  Each candidate is
    (sentence id, rank, pun position, words, stage, deleted word, topic
    word, topic score); the stage is "SWAP" or "SWAP+TOPIC".
    """
    out = []
    for sent_id, rank in seeds:
        surfaces = list(surfaces_of[sent_id])
        if pun_word in surfaces:
            continue
        position = surfaces.index(alt_word)
        swapped = list(surfaces)
        swapped[position] = pun_word
        if swap_only:
            out.append((sent_id, rank, position, swapped, "SWAP",
                        None, None, None))
            continue
        tags = [tag_name(w) for w in surfaces]
        deletions = [i for i in range(position)
                     if tags[i] in ("NOUN", "PRONOUN")]
        if not deletions:
            continue
        deletion = deletions[0]
        deleted = surfaces[deletion]
        for topic_word, score in topics:
            if topic_word in (pun_word, alt_word):
                continue
            if tag_name(topic_word) != "NOUN":
                continue
            if not reference_type_consistent(hypernyms, senses, topic_word,
                                             "NOUN", deleted, tags[deletion],
                                             threshold):
                continue
            tokens = list(swapped)
            tokens[deletion] = topic_word
            out.append((sent_id, rank, position, tokens, "SWAP+TOPIC",
                        deleted, topic_word, score))
    return out[:max_outputs]


def reference_ranks(values):
    """Average ranks (1-based) by counting, ties share the mean rank."""
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def reference_spearman(x, y):
    rx = reference_ranks(list(x))
    ry = reference_ranks(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def _loop_ranks(arr):
    """Average ranks by walking tie groups in stable sorted order."""
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _loop_spearman(x, y):
    """Spearman rho in float64, with the package's rounding steps."""
    rx = _loop_ranks(np.asarray(x, dtype=np.float64))
    ry = _loop_ranks(np.asarray(y, dtype=np.float64))
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    return float((dx * dy).sum() / (sx * sy))


def reference_permutation_pvalue(x, y, permutations, seed):
    """Permutation p-value that re-ranks every permuted draw of ``y``.

    Draws come from ``np.random.default_rng(seed).permutation(y)``, one per
    permutation, and the count is add-one on both sides.
    """
    observed = abs(_loop_spearman(x, y))
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        rho = _loop_spearman(x, rng.permutation(y))
        if abs(rho) >= observed:
            hits += 1
    return (hits + 1) / (permutations + 1)


def reference_meaning(p_uni, rel_pun, rel_alt, prior_pun=0.5, mixture=0.5):
    """Posterior and relatedness responsibilities by exhaustive enumeration.

    Each of the n content words carries a latent binary indicator: related
    to the active meaning (probability ``mixture``) or drawn from the
    unigram background.  Summing the joint over all 2**n indicator vectors
    gives the likelihood of each meaning; restricting the sum to vectors
    with bit i set gives the responsibility of position i.  Returns
    (posterior_pun, f_pun, f_alt).
    """
    n = len(p_uni)

    def sums(rel):
        total = 0.0
        with_bit = [0.0] * n
        for mask in range(2 ** n):
            term = 1.0
            for i in range(n):
                if (mask >> i) & 1:
                    term *= mixture * rel[i]
                else:
                    term *= (1.0 - mixture) * p_uni[i]
            total += term
            for i in range(n):
                if (mask >> i) & 1:
                    with_bit[i] += term
        return total, with_bit

    like_pun, bits_pun = sums(rel_pun)
    like_alt, bits_alt = sums(rel_alt)
    joint_pun = prior_pun * like_pun
    joint_alt = (1.0 - prior_pun) * like_alt
    posterior = joint_pun / (joint_pun + joint_alt)
    f_pun = [b / like_pun for b in bits_pun]
    f_alt = [b / like_alt for b in bits_alt]
    return posterior, f_pun, f_alt


def reference_bernoulli_kl(a, b, eps=1e-9):
    a = min(max(a, eps), 1.0 - eps)
    b = min(max(b, eps), 1.0 - eps)
    return (a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b)))


def reference_meaning_report(tokens, pun_position, pun_id, alt_id, id_of,
                             unigram_probs, relatedness, stopwords,
                             prior_pun=0.5, mixture=0.5):
    """The two-pass meaning layer, kept as the bit-exact reference.

    Content words by a character scan; the posteriors in one loop over the
    gathered tables; then distinctiveness in a second pass, one clamped
    Bernoulli KL call per direction, added left to right.  Returns
    (posterior_pun, ambiguity, distinctiveness, positions, f_pun, f_alt).
    """
    positions = [i for i, tok in enumerate(tokens)
                 if i != pun_position and any(ch.isalnum() for ch in tok)
                 and tok not in stopwords]
    ids = [id_of(tokens[i]) for i in positions]
    rel_pun, rel_alt = relatedness(pun_id), relatedness(alt_id)
    log_like_pun = math.log(prior_pun)
    log_like_alt = math.log(1.0 - prior_pun)
    f_pun, f_alt = [], []
    for uni, r_pun, r_alt in zip(unigram_probs[ids].tolist(),
                                 rel_pun[ids].tolist(), rel_alt[ids].tolist()):
        base = (1.0 - mixture) * uni
        m_pun = base + mixture * r_pun
        m_alt = base + mixture * r_alt
        log_like_pun += math.log(m_pun)
        log_like_alt += math.log(m_alt)
        f_pun.append(mixture * r_pun / m_pun)
        f_alt.append(mixture * r_alt / m_alt)
    top = max(log_like_pun, log_like_alt)
    w_pun = math.exp(log_like_pun - top)
    w_alt = math.exp(log_like_alt - top)
    posterior = w_pun / (w_pun + w_alt)
    ambiguity = 0.0
    for p in (posterior, 1.0 - posterior):
        if p > 0.0:
            ambiguity -= p * math.log(p)
    distinctiveness = 0.0
    for a, b in zip(f_pun, f_alt):
        distinctiveness += reference_bernoulli_kl(a, b) + reference_bernoulli_kl(b, a)
    return posterior, ambiguity, distinctiveness, positions, f_pun, f_alt
