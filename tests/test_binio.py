"""The block codec, and the consistency checks of the files written in it."""

import ast
import errno
import hashlib
import inspect
import io
import os
import random
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_postings
from punforge import binio, skipgram
from punforge.corpus import (CORPUS_MAGIC, Corpus, Vocabulary, ingest, load_corpus,
                             save_corpus)
from punforge.demo_corpus import build_demo_corpus, write_demo_corpus
from punforge.errors import FormatError
from punforge.ngram_lm import LM_MAGIC, NGramModel, train_lm
from punforge.retrieval import build_index
from punforge.skipgram import SkipGramConfig, SkipGramModel, train_skipgram


class _Named(io.BytesIO):
    name = "mem.bin"


def _reader(data: bytes) -> _Named:
    return _Named(data)


class TestCodec:
    @pytest.mark.parametrize("dtype,values", [
        ("u1", [0, 7, 255]),
        ("<u4", [0, 1, 2**32 - 1]),
        ("<u8", [1, 2**64 - 1]),
        ("<f8", [0.5, -1e300, float("inf")]),
    ])
    def test_array_round_trip(self, dtype, values):
        fh = io.BytesIO()
        binio.write_array(fh, values, dtype)
        data = fh.getvalue()
        assert data[:4] == struct.pack("<I", len(values) * np.dtype(dtype).itemsize)
        got = binio.read_array(_reader(data), dtype)
        assert got.tolist() == values and got.flags.writeable

    def test_two_dimensional_array_is_row_major(self):
        fh = io.BytesIO()
        binio.write_array(fh, [[1, 2], [3, 4]], "<u4")
        assert fh.getvalue()[4:] == struct.pack("<4I", 1, 2, 3, 4)

    def test_ragged_array_block_rejected(self):
        with pytest.raises(FormatError, match="mem.bin.*whole number"):
            binio.read_array(_reader(struct.pack("<I", 6) + bytes(6)), "<u4")

    def test_truncated_array_block_rejected(self):
        with pytest.raises(FormatError, match="truncated file mem.bin"):
            binio.read_array(_reader(struct.pack("<I", 8) + bytes(5)), "<u4")

    def test_strings_are_lengths_then_one_utf8_blob(self):
        fh = io.BytesIO()
        binio.write_strings(fh, ["a", "", "héé"])
        expected = (struct.pack("<4I", 12, 1, 0, 5)
                    + struct.pack("<I", 6) + "a".encode("utf-8") + "héé".encode("utf-8"))
        assert fh.getvalue() == expected
        assert binio.read_strings(_reader(expected)) == ["a", "", "héé"]
        assert binio.read_strings(_reader(struct.pack("<2I", 0, 0))) == []

    def test_string_that_is_not_utf8_rejected(self):
        data = struct.pack("<2I", 4, 2) + struct.pack("<I", 2) + b"\xff\xfe"
        with pytest.raises(FormatError, match="mem.bin is not UTF-8"):
            binio.read_strings(_reader(data))

    def test_length_ending_inside_a_character_rejected(self):
        blob = "hé".encode("utf-8")  # 3 bytes, valid as a whole
        data = struct.pack("<3I", 8, 2, 1) + struct.pack("<I", 3) + blob
        with pytest.raises(FormatError, match="mem.bin is not UTF-8 .a length ends"):
            binio.read_strings(_reader(data))

    @pytest.mark.parametrize("lengths,blob", [
        ([1, 2], b"ab"),    # the lengths ask for more than the blob holds
        ([1], b"ab"),       # and for less
        ([2**32 - 1], b""),
    ])
    def test_lengths_that_miss_the_blob_rejected(self, lengths, blob):
        fh = io.BytesIO()
        binio.write_array(fh, lengths, "<u4")
        binio.write_blob(fh, blob)
        with pytest.raises(FormatError, match="corrupt string table in mem.bin"):
            binio.read_strings(_reader(fh.getvalue()))

    def test_pack_unpack_header(self):
        fh = io.BytesIO()
        binio.pack(fh, "<BdQ", 3, 0.25, 2**40)
        assert len(fh.getvalue()) == 17
        assert binio.unpack(_reader(fh.getvalue()), "<BdQ") == (3, 0.25, 2**40)
        with pytest.raises(FormatError, match="truncated"):
            binio.unpack(_reader(fh.getvalue()[:-1]), "<BdQ")

    def test_bad_magic_names_the_file(self):
        with pytest.raises(FormatError, match="mem.bin is not a thing file"):
            binio.check_magic(_reader(b"NOPE"), b"GOOD", "thing")

    def test_bytes_after_the_last_block_rejected(self):
        fh = _reader(b"\x01\x00\x00\x00z" + b"\x00")
        assert binio.read_blob(fh) == b"z"
        with pytest.raises(FormatError, match="mem.bin: bytes after the last block"):
            binio.check_end(fh)
        binio.check_end(_reader(b""))

    def test_split(self):
        assert binio.split([1, 2, 3, 4, 5], np.array([2, 0, 3])) == \
            [[1, 2], [], [3, 4, 5]]
        assert binio.split((), np.array([], dtype=np.uint32)) == []


@pytest.fixture(scope="module")
def demo():
    sentences, vocab = ingest(build_demo_corpus()[::5])
    return Corpus(sentences, vocab, build_index(sentences).postings)


def _read_vocab_section(fh):
    """The hash and the dump lines of an embedded vocabulary."""
    stored = binio.read_array(fh, "u1")
    text = binio.read_blob(fh).decode("utf-8")
    assert text.endswith("\n")
    return stored, text[:-1].split("\n")


def _write_vocab_section(fh, lines, end="\n"):
    """Embed ``lines`` behind their own hash, so that a loader checks them."""
    dump = ("\n".join(lines) + end).encode("utf-8")
    binio.write_array(fh, list(hashlib.sha256(dump).digest()[:16]), "u1")
    binio.write_blob(fh, dump)


def _read_corpus_sections(path):
    """Every section of a corpus file, in file order."""
    with open(path, "rb") as fh:
        assert fh.read(4) == CORPUS_MAGIC
        stored, lines = _read_vocab_section(fh)
        sections = {"vocab_hash": stored, "vocab": lines,
                    "surfaces": binio.read_strings(fh)}
        for name in ("sent_ids", "lengths", "surface_idx"):
            sections[name] = binio.read_array(fh, "<u4")
        assert fh.read() == b""
    return sections


def _write_corpus_sections(path, s, vocab_end="\n"):
    with open(path, "wb") as fh:
        fh.write(CORPUS_MAGIC)
        _write_vocab_section(fh, s["vocab"], vocab_end)
        binio.write_strings(fh, s["surfaces"])
        for name in ("sent_ids", "lengths", "surface_idx"):
            binio.write_array(fh, s[name], "<u4")


class TestCorpusFile:
    def test_save_is_deterministic_and_round_trips(self, demo, tmp_path):
        a, b = tmp_path / "a.pgc", tmp_path / "b.pgc"
        save_corpus(a, demo)
        save_corpus(b, demo)
        assert a.read_bytes() == b.read_bytes()
        loaded = load_corpus(a)
        assert loaded.sentences == demo.sentences
        assert loaded.postings == demo.postings
        assert list(loaded.postings) == list(demo.postings)
        assert loaded.vocab.dump_lines() == demo.vocab.dump_lines()
        save_corpus(b, loaded)
        assert a.read_bytes() == b.read_bytes()

    def test_sections_are_flat_arrays(self, demo, tmp_path):
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        s = _read_corpus_sections(path)
        assert s["sent_ids"].tolist() == [x.sent_id for x in demo.sentences]
        assert s["lengths"].sum() == len(s["surface_idx"])
        assert s["surfaces"] == list(demo.postings)  # in order of first appearance
        assert s["vocab"] == demo.vocab.dump_lines()
        assert s["vocab_hash"].tobytes() == demo.vocab.hash_bytes()

    @pytest.mark.parametrize("name,mutate", [
        ("lengths", lambda a: np.r_[a[:-1], a[-1] + 1]),  # sum != token count
        ("sent_ids", lambda a: np.r_[a[1], a[1:]]),        # repeated id
        ("sent_ids", lambda a: a[:-1]),                    # fewer ids than lengths
        ("surface_idx", lambda a: np.r_[len(a) * 4, a[1:]]),  # out of range
        ("surfaces", lambda a: [a[1]] + a[1:]),            # repeated surface
    ])
    def test_arrays_that_disagree_rejected(self, demo, tmp_path, name, mutate):
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        sections = _read_corpus_sections(path)
        sections[name] = mutate(sections[name])
        _write_corpus_sections(path, sections)
        with pytest.raises(FormatError, match="corrupt corpus file"):
            load_corpus(path)

    def test_negative_vocabulary_count_rejected(self, demo, tmp_path):
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        sections = _read_corpus_sections(path)
        word, idx, _count = sections["vocab"][3].split("\t")
        sections["vocab"][3] = f"{word}\t{idx}\t-84"
        _write_corpus_sections(path, sections)
        with pytest.raises(FormatError, match="bad vocabulary id or count at line 4"):
            load_corpus(path)

    def test_vocabulary_without_final_newline_rejected(self, demo, tmp_path):
        """Its hash would not be the parsed vocabulary's, whose dump ends
        every line with a newline."""
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        sections = _read_corpus_sections(path)
        _write_corpus_sections(path, sections)
        assert load_corpus(path).vocab.hash_bytes() == demo.vocab.hash_bytes()
        _write_corpus_sections(path, sections, vocab_end="")
        with pytest.raises(FormatError, match="embedded vocabulary is corrupt"):
            load_corpus(path)

    def test_one_byte_vocabulary_edit_rejected(self, demo, tmp_path):
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        blob = path.read_bytes()
        at = blob.index(b"hare\t") + 1
        path.write_bytes(blob[:at] + b"b" + blob[at + 1:])  # hare -> hbre
        with pytest.raises(FormatError, match="embedded vocabulary is corrupt"):
            load_corpus(path)

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "old.pgc"
        for magic in (b"PGC1", b"PGC2", b"PGC3", b"PGC4", b"PGC5"):
            path.write_bytes(magic + bytes(32))
            with pytest.raises(FormatError, match=f"bad magic {magic!r}"):
                load_corpus(path)


@pytest.fixture(scope="module")
def demo_lm(demo):
    return train_lm(demo.sentences, demo.vocab, order=3)


def _read_lm_sections(path):
    """Every section of a language model file, in file order; each order's
    tables as [context rows, backoff weights, n-gram rows, probabilities]."""
    with open(path, "rb") as fh:
        assert fh.read(4) == LM_MAGIC
        (order,) = binio.unpack(fh, "<B")
        discounts = list(binio.unpack(fh, f"<{3 * order}d"))
        stored, lines = _read_vocab_section(fh)
        s = {"order": order, "discounts": discounts, "vocab_hash": stored,
             "vocab": lines, "tables": []}
        for k in range(1, order + 1):
            ctx, backoff = binio.read_array(fh, "<u4"), binio.read_array(fh, "<f8")
            grams, probs = binio.read_array(fh, "<u4"), binio.read_array(fh, "<f8")
            s["tables"].append([ctx.reshape(-1, k - 1) if k > 1 else ctx, backoff,
                                grams.reshape(-1, k), probs])
        assert fh.read() == b""
    return s


def assert_file_holds_tables(path, model):
    """The file's tables are the ones the trained model was built from."""
    sections = _read_lm_sections(path)["tables"]
    assert len(sections) == len(model._rows)
    for stored, built in zip(sections, model._rows):  # order 1 has 0-id rows
        assert [np.array_equal(a.ravel(), b.ravel()) for a, b in zip(stored, built)
                ] == [True] * 4


def _write_lm_sections(path, s):
    with open(path, "wb") as fh:
        fh.write(LM_MAGIC)
        binio.pack(fh, "<B", s["order"])
        binio.pack(fh, f"<{len(s['discounts'])}d", *s["discounts"])
        _write_vocab_section(fh, s["vocab"])
        for ctx, backoff, grams, probs in s["tables"]:
            binio.write_array(fh, ctx, "<u4")
            binio.write_array(fh, backoff, "<f8")
            binio.write_array(fh, grams, "<u4")
            binio.write_array(fh, probs, "<f8")


def _top(index, change, k=None):
    """Apply ``change(array, bos)`` to one array of the top-order tables, or
    of order ``k``'s."""
    def mutate(s, bos):
        table = s["tables"][-1 if k is None else k - 1]
        table[index] = change(table[index], bos)
    return mutate


class TestLanguageModelFile:
    def test_counts_are_sorted_rows(self, demo_lm, tmp_path):
        """Each order's tables are sorted distinct rows whose values are the
        model's own: an n-gram's probability is ``prob``, and a context's
        backoff weight scales ``prob`` one order down for a word it lacks."""
        path = tmp_path / "m.pglm"
        demo_lm.save(path)
        s = _read_lm_sections(path)
        _write_lm_sections(tmp_path / "copy.pglm", s)
        assert (tmp_path / "copy.pglm").read_bytes() == path.read_bytes()
        assert s["order"] == 3 and len(s["discounts"]) == 9
        events = set(range(len(demo_lm.vocab))) | {demo_lm.eos_id}
        for k, (ctx, backoff, grams, probs) in enumerate(s["tables"], start=1):
            ctx_rows = [tuple(r) for r in ctx.tolist()] if k > 1 else [()] * len(backoff)
            gram_rows = [tuple(r) for r in grams.tolist()]
            assert ctx_rows == sorted(set(ctx_rows)) and len(ctx_rows) == len(backoff)
            assert gram_rows == sorted(set(gram_rows))
            assert sorted({r[:-1] for r in gram_rows}) == ctx_rows
            assert probs.tolist() == [demo_lm.prob(r[-1], r[:-1]) for r in gram_rows]
            for row, weight in zip(ctx_rows, backoff.tolist()):
                unseen = min(events - {r[-1] for r in gram_rows if r[:-1] == row},
                             default=None)
                if unseen is not None:
                    lower = (demo_lm.prob(unseen, row[1:]) if k > 1
                             else 1.0 / demo_lm.n_events)
                    assert demo_lm.prob(unseen, row) == weight * lower

    def test_round_trip_keeps_every_probability(self, demo_lm, tmp_path):
        path = tmp_path / "m.pglm"
        demo_lm.save(path)
        loaded = NGramModel.load(path)
        assert loaded.discounts == demo_lm.discounts
        events = list(range(len(demo_lm.vocab))) + [demo_lm.eos_id]
        for ctx, _, _, _ in _read_lm_sections(path)["tables"]:
            for row in ctx.tolist() if ctx.ndim > 1 else [[]]:  # order 1: the empty one
                for w in events:
                    assert loaded.prob(w, row) == demo_lm.prob(w, row)
        assert_file_holds_tables(path, demo_lm)

    # Each corrupts one section and keeps the rest of the file readable.
    @pytest.mark.parametrize("change", [
        {"order": 1},                                              # check_order
        {"order": 4},                                              # 3-id rows read as 4
        {"mutate": _top(3, lambda p, bos: p[:-1])},                # fewer probabilities
        {"mutate": _top(3, lambda p, bos: np.r_[0.0, p[1:]])},     # zero probability
        {"mutate": _top(2, lambda g, bos: g[::-1]),                # unsorted rows
         "error": "order 3: rows unsorted or repeated"},
        {"mutate": _top(2, lambda g, bos: np.r_[g[:1], g[:1], g[2:]]),  # repeated row
         "error": "order 3: rows unsorted or repeated"},
        {"mutate": _top(2, lambda g, bos: np.r_[g[:-1], [[bos, bos, bos]]])},  # bos word
        {"mutate": _top(2, lambda g, bos: np.r_[g[:-1], [[bos, bos, bos + 2]]])},  # past eos
        {"mutate": _top(2, lambda g, bos: np.r_[g[:-1], [[bos + 1, 0, 0]]])},  # eos context
        {"mutate": _top(3, lambda p, bos: np.r_[1.5, p[1:]])},     # probability above 1
        {"mutate": _top(3, lambda p, bos: np.r_[np.nan, p[1:]])},  # not finite
        {"mutate": _top(3, lambda p, bos: np.r_[np.inf, p[1:]])},
        {"mutate": _top(1, lambda b, bos: np.r_[-0.5, b[1:]])},    # negative weight
        {"mutate": _top(1, lambda b, bos: np.r_[0.0, b[1:]])},     # zero weight
        {"mutate": _top(1, lambda b, bos: np.r_[np.nan, b[1:]])},  # not finite
        {"mutate": _top(1, lambda b, bos: np.r_[np.inf, b[1:]])},
        {"mutate": _top(1, lambda b, bos: b[:-1])},                # fewer weights
        {"mutate": _top(0, lambda c, bos: c[::-1]),                # unsorted contexts
         "error": "order 3: rows unsorted or repeated"},
        {"mutate": _top(0, lambda c, bos: np.r_[c[:-1], [[bos + 1, 0]]])},  # eos context
        {"discounts": lambda d: [np.nan] + d[1:]},                 # bad discount header
        {"discounts": lambda d: d[:3] + [1.5] + d[4:]},            # D1 above 1
        {"mutate": _top(1, lambda b, bos: np.r_[b, b], k=1),       # two empty contexts
         "error": "order 1: rows unsorted or repeated"},
        {"mutate": _top(2, lambda g, bos: g[[1, 0, *range(2, len(g))]]),  # swapped rows
         "model": "wide_lm", "error": "order 6: rows unsorted or repeated"},
    ])
    def test_bad_counts_rejected(self, request, tmp_path, change):
        model = request.getfixturevalue(change.get("model", "demo_lm"))
        path, bad = tmp_path / "m.pglm", tmp_path / "bad.pglm"
        model.save(path)
        s = _read_lm_sections(path)
        s["order"] = change.get("order", s["order"])
        if "discounts" in change:
            s["discounts"] = change["discounts"](s["discounts"])
        if "mutate" in change:
            change["mutate"](s, model.bos_id)
        _write_lm_sections(bad, s)
        error = f": {change['error']}$" if "error" in change else ""
        with pytest.raises(FormatError, match=f"bad.pglm{error}"):
            NGramModel.load(bad)

    def test_truncated_file_rejected(self, demo_lm, tmp_path):
        path, bad = tmp_path / "m.pglm", tmp_path / "bad.pglm"
        demo_lm.save(path)
        blob = path.read_bytes()
        for cut in (5, 40, len(blob) // 2, len(blob) - 1):
            bad.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match="bad.pglm"):
                NGramModel.load(bad)

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "old.pglm"
        for magic in (b"PGLM", b"PGL2", b"PGL3"):
            path.write_bytes(magic + bytes(64))
            with pytest.raises(FormatError, match=f"old.pglm is not a language model "
                                                  f"file: bad magic {magic!r}") as err:
                NGramModel.load(path)
            assert "\n" not in str(err.value)


@pytest.fixture(scope="module")
def demo_files(demo, demo_lm, tmp_path_factory):
    """The demo corpus, language model and a small skip-gram, as files."""
    root = tmp_path_factory.mktemp("files")
    files = {ext: root / f"m.{ext}" for ext in ("pgc", "pglm", "pgsg")}
    save_corpus(files["pgc"], demo)
    demo_lm.save(files["pglm"])
    train_skipgram(demo.sentences[:40], demo.vocab,
                   SkipGramConfig(dim=4, d1=2, d2=4, epochs=1)).save(files["pgsg"])
    return files


_LOADERS = {"pgc": load_corpus, "pglm": NGramModel.load, "pgsg": SkipGramModel.load}


def _block_spans(path):
    """The byte spans of a file's embedded vocabulary and, for a corpus, of
    its surface table."""
    blob = path.read_bytes()
    fh = _reader(blob)
    fh.seek({"pgc": 4, "pglm": 4 + 1 + 3 * 8 * blob[4],
             "pgsg": 4 + struct.calcsize(skipgram._HEADER)}[path.suffix[1:]])
    start = fh.tell()
    _read_vocab_section(fh)
    spans = {"vocab": (start, fh.tell())}
    if path.suffix == ".pgc":
        start = fh.tell()
        binio.read_strings(fh)
        spans["strings"] = (start, fh.tell())
    return spans


class TestNewBlocksFuzz:
    def test_mutated_vocabulary_or_string_table_fails_at_load(self, demo_files,
                                                              tmp_path):
        """A truncated or bit-flipped vocabulary is refused by load.  A flip in
        the surface table is refused by load or yields a corpus every term of
        which can be looked up: no check is deferred to a lookup."""
        rng = random.Random(13)
        spans = {ext: _block_spans(path) for ext, path in demo_files.items()}
        seen = set()
        for _ in range(240):
            ext = rng.choice(sorted(spans))
            block = rng.choice(sorted(spans[ext]))
            start, end = spans[ext][block]
            blob = bytearray(demo_files[ext].read_bytes())
            truncate = rng.random() < 0.25
            if truncate:
                del blob[rng.randrange(start, end):]
            else:
                for _ in range(rng.randint(1, 3)):
                    blob[rng.randrange(start, end)] ^= 1 << rng.randrange(8)
            bad = tmp_path / f"bad.{ext}"
            bad.write_bytes(bytes(blob))
            try:
                loaded = _LOADERS[ext](bad)
            except FormatError as exc:
                assert "\n" not in str(exc)
                seen.add((ext, block, "refused"))
                continue
            assert block == "strings" and not truncate, (ext, block, bytes(blob))
            assert dict(loaded.postings.items()) == reference_postings(loaded.sentences)
            seen.add((ext, block, "loaded"))
        assert {(ext, block, "refused") for ext in spans for block in spans[ext]} <= seen


class TestEmbeddedVocabulary:
    @pytest.mark.parametrize("ext", ["pgc", "pglm", "pgsg"])
    def test_repeated_word_rejected(self, demo_files, tmp_path, ext):
        """A dump that names a word twice, behind its own hash, would leave
        the first id's statistics out of reach of every lookup."""
        blob = demo_files[ext].read_bytes()
        start, end = _block_spans(demo_files[ext])["vocab"]
        _stored, lines = _read_vocab_section(_reader(blob[start:end]))
        lines[3] = lines[1].split("\t")[0] + lines[3][lines[3].index("\t"):]
        fh = io.BytesIO()
        _write_vocab_section(fh, lines)
        bad = tmp_path / f"bad.{ext}"
        bad.write_bytes(blob[:start] + fh.getvalue() + blob[end:])
        word = lines[1].split("\t")[0]
        with pytest.raises(FormatError,
                           match=f"repeated vocabulary word '{word}' at line 4"):
            _LOADERS[ext](bad)

    def test_dump_text_is_built_once_for_the_hash_and_every_file(
            self, tmp_path, monkeypatch):
        calls = []
        dump_lines = Vocabulary.dump_lines
        monkeypatch.setattr(Vocabulary, "dump_lines",
                            lambda self: calls.append(1) or dump_lines(self))
        sentences, vocab = ingest(build_demo_corpus()[::40])
        vocab.hash_bytes()
        save_corpus(tmp_path / "m.pgc", Corpus(sentences, vocab))
        train_lm(sentences, vocab, order=3).save(tmp_path / "m.pglm")
        train_skipgram(sentences[:20], vocab, SkipGramConfig(dim=4, epochs=1)) \
            .save(tmp_path / "m.pgsg")
        assert len(calls) == 1
        for ext in ("pgc", "pglm", "pgsg"):  # and the text a load kept is the file's
            loaded = _LOADERS[ext](tmp_path / f"m.{ext}")
            assert loaded.vocab.dump_text() == vocab.dump_text()
        assert len(calls) == 1


class _HalfWrite(io.FileIO):
    """A file whose first write stores half its bytes and fails."""

    def write(self, data):
        super().write(bytes(data)[:len(data) // 2 + 1])
        raise OSError(errno.ENOSPC, "No space left on device")


def _export_text(model, path):
    """What ``train-skipgram --export-text`` does around the export."""
    with binio.replace_file(path, encoding="utf-8") as fh:
        model.export_text(fh)


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda models, path: save_corpus(path, models[0]),
        lambda models, path: models[1].save(path),
        lambda models, path: train_skipgram(
            models[0].sentences[:20], models[0].vocab,
            SkipGramConfig(dim=2, d1=2, d2=3, epochs=1)).save(path),
        lambda models, path: _export_text(SkipGramModel(
            models[0].vocab, SkipGramConfig(dim=2),
            np.zeros((len(models[0].vocab), 2)),
            np.zeros((len(models[0].vocab), 2))), path),
        lambda models, path: write_demo_corpus(path),
    ], ids=["corpus", "lm", "skipgram", "export_text", "demo_corpus"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_file(self, demo, demo_lm, tmp_path, monkeypatch,
                                         write, existing):
        target = tmp_path / "out.bin"
        if existing:
            target.write_bytes(b"old")
        monkeypatch.setattr(binio, "open",
                            lambda path, mode: _HalfWrite(path, mode.replace("b", "")),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            write((demo, demo_lm), target)
        assert [p.name for p in tmp_path.iterdir()] == (["out.bin"] if existing else [])
        if existing:
            assert target.read_bytes() == b"old"
        monkeypatch.undo()
        write((demo, demo_lm), target)  # and a write that succeeds replaces it
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert target.read_bytes() != b"old"

    def test_interrupted_block_removes_its_temporary_file(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with binio.replace_file(tmp_path / "x") as fh:
                fh.write(b"partial")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("encoding", [None, "utf-8"])
    def test_fifo_target_is_written_in_place(self, tmp_path, encoding):
        """A rename would put a regular file where the FIFO was, and its
        reader would get nothing.  The output stays far below a pipe's
        capacity, so the writer never waits for the reader."""
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        data = "hare é\n" * 100
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with binio.replace_file(fifo, encoding) as fh:
                fh.write(data if encoding else data.encode("utf-8"))
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert got == data.encode("utf-8")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_binary_files_are_written_only_through_replace_file(self):
        """Every ``open`` in the package that may write, binary or text, is
        one in ``binio.replace_file``, and no module calls ``write_bytes`` or
        ``write_text``."""
        package = Path(binio.__file__).parent
        allowed = ast.parse(inspect.getsource(binio.replace_file)).body[0]
        allowed_lines = range(inspect.getsourcelines(binio.replace_file)[1],
                              inspect.getsourcelines(binio.replace_file)[1]
                              + allowed.end_lineno)
        writers = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                if name.endswith(("write_bytes", "write_text")):
                    writers.append((path.name, node.lineno))
                # os.open makes a descriptor (cli points stdout at devnull)
                if name != "open" and not name.endswith((".open", ".fdopen")) \
                        or name == "os.open":
                    continue
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if mode is None:
                    continue  # reading text
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                    writers.append((path.name, node.lineno))  # a mode not known here
                elif set(mode.value) & set("wax+"):
                    writers.append((path.name, node.lineno))
        assert [(name, line) for name, line in writers
                if not (name == "binio.py" and line in allowed_lines)] == []
        assert len(writers) == 2  # replace_file's: in place, and the new file
