"""The block codec, and the consistency checks of the files written in it."""

import ast
import errno
import hashlib
import inspect
import io
import os
import random
import re
import stat
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from oracles import CountTablesKN, reference_postings
from punforge import binio, cli, corpus, skipgram
from punforge.corpus import CORPUS_MAGIC, Corpus, ingest, load_corpus, save_corpus
from punforge.demo_corpus import build_demo_corpus, write_demo_corpus
from punforge.errors import FormatError, ResourceError
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

    @pytest.mark.parametrize("values", [np.array([0, -1]), np.array([2**32, 1])])
    def test_integer_array_outside_the_dtype_rejected(self, values):
        with pytest.raises(ValueError, match="do not fit <u4"):
            binio.write_array(io.BytesIO(), values, "<u4")

    def test_two_dimensional_array_is_row_major(self):
        fh = io.BytesIO()
        binio.write_array(fh, [[1, 2], [3, 4]], "<u4")
        assert fh.getvalue()[4:] == struct.pack("<4I", 1, 2, 3, 4)

    @pytest.mark.parametrize("values,dtype", [
        (np.arange(12, dtype=np.int64).reshape(3, 4).T, "<u4"),  # transposed view
        (np.arange(20.0)[::3], "<f8"),  # stepped view
        (np.arange(5, dtype=">f8"), "<f8"),  # byte-swapped
        (np.arange(6, dtype=np.uint8), "u1"),
        (np.empty(0, dtype=np.int64), "<u8"),
    ])
    def test_array_block_is_its_length_then_its_items(self, values, dtype):
        fh = io.BytesIO()
        binio.write_array(fh, values, dtype)
        items = np.ascontiguousarray(values, dtype=dtype).tobytes()
        assert fh.getvalue() == struct.pack("<I", len(items)) + items

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
        with pytest.raises(FormatError, match="string table in mem.bin is not UTF-8") as err:
            binio.read_strings(_reader(data))
        assert "\n" not in str(err.value)

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

    def test_split(self):
        assert binio.split([1, 2, 3, 4, 5], np.array([2, 0, 3])) == \
            [[1, 2], [], [3, 4, 5]]
        assert binio.split((), np.array([], dtype=np.uint32)) == []


def _framed(tmp_path, blocks: bytes) -> Path:
    """A ``thing`` file: the magic GOOD, then ``blocks``, then the checksum."""
    path = tmp_path / "f.bin"
    with binio.writing(path, b"GOOD") as fh:
        fh.write(blocks)
    return path


class TestFrame:
    def test_writing_puts_the_magic_and_checksum_that_reading_checks(self, tmp_path):
        path = _framed(tmp_path, b"\x01\x00\x00\x00z")
        body = b"GOOD\x01\x00\x00\x00z"
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))
        with binio.reading(path, b"GOOD", "thing") as fh:
            assert binio.read_blob(fh) == b"z"

    def test_bad_magic_is_one_line(self, tmp_path):
        path = _framed(tmp_path, b"")
        with pytest.raises(FormatError) as err:
            with binio.reading(path, b"NOPE", "thing"):
                pass
        assert str(err.value) == (f"{path} is not a thing file: "
                                  f"bad magic b'GOOD', expected b'NOPE'")

    @pytest.mark.parametrize("blocks,tail", [
        (b"\x01\x00\x00\x00z\x00", b""),   # a byte the reader leaves, then the checksum
        (b"\x01\x00\x00\x00z", b"\x00"),   # a byte after the checksum
    ])
    def test_bytes_after_the_last_block_rejected(self, tmp_path, blocks, tail):
        path = _framed(tmp_path, blocks)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(FormatError) as err:
            with binio.reading(path, b"GOOD", "thing") as fh:
                assert binio.read_blob(fh) == b"z"
        assert str(err.value) == f"corrupt thing {path}: bytes after the last block"

    @pytest.mark.parametrize("at", [8, 12])  # data, checksum
    def test_flipped_bit_is_a_checksum_mismatch(self, tmp_path, at):
        path = _framed(tmp_path, b"\x01\x00\x00\x00z")
        blob = bytearray(path.read_bytes())
        blob[at] ^= 0x20
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            with binio.reading(path, b"GOOD", "thing") as fh:
                assert binio.read_blob(fh) == (b"Z" if at == 8 else b"z")
        assert str(err.value) == f"corrupt thing {path}: checksum mismatch"

    def test_missing_checksum_is_a_truncated_file(self, tmp_path):
        path = _framed(tmp_path, b"\x01\x00\x00\x00z")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError) as err:
            with binio.reading(path, b"GOOD", "thing") as fh:
                binio.read_blob(fh)
        assert str(err.value) == f"truncated file {path}: wanted 4 bytes, got 3"

    def test_value_error_in_the_block_is_one_line_naming_the_file(self, tmp_path):
        path = _framed(tmp_path, b"")
        with pytest.raises(FormatError) as err:
            with binio.reading(path, b"GOOD", "thing"):
                raise ValueError("arrays disagree")
        assert str(err.value) == f"corrupt thing {path}: arrays disagree"
        assert err.value.__suppress_context__

    def test_codec_and_resource_errors_pass_through(self, tmp_path):
        path = _framed(tmp_path, b"\x09\x00\x00\x00z")  # 1 byte and the checksum's 4
        with pytest.raises(FormatError) as err:
            with binio.reading(path, b"GOOD", "thing") as fh:
                binio.read_blob(fh)
        assert str(err.value) == f"truncated file {path}: wanted 9 bytes, got 5"
        error = ResourceError("trained on a different vocabulary")
        with pytest.raises(ResourceError) as err:
            with binio.reading(path, b"GOOD", "thing"):
                raise error
        assert err.value is error


@pytest.fixture(scope="module")
def demo():
    sentences, vocab = ingest(build_demo_corpus()[::5])
    return Corpus(sentences, vocab, build_index(sentences).postings)


def _read_vocab_section(fh):
    """The hash, the words and the counts of an embedded vocabulary."""
    return (binio.read_array(fh, "u1"), binio.read_strings(fh),
            binio.read_array(fh, "<u8").tolist())


def _write_vocab_section(fh, words, counts):
    """Embed ``words`` and ``counts`` behind their own hash, so that a loader
    checks them."""
    block = io.BytesIO()
    binio.write_strings(block, words)
    binio.write_array(block, counts, "<u8")
    binio.write_array(fh, list(hashlib.sha256(block.getvalue()).digest()[:16]), "u1")
    fh.write(block.getvalue())


def _read_corpus_sections(path):
    """Every section of a corpus file, in file order."""
    with binio.reading(path, CORPUS_MAGIC, "corpus") as fh:
        stored, words, counts = _read_vocab_section(fh)
        sections = {"vocab_hash": stored, "words": words, "counts": counts,
                    "surfaces": binio.read_strings(fh)}
        for name in ("sent_ids", "lengths", "surface_idx"):
            sections[name] = binio.read_array(fh, "<u4")
    return sections


def _write_corpus_sections(path, s):
    with binio.writing(path, CORPUS_MAGIC) as fh:
        _write_vocab_section(fh, s["words"], s["counts"])
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
        assert list(loaded.vocab.items()) == list(demo.vocab.items())
        save_corpus(b, loaded)
        assert a.read_bytes() == b.read_bytes()

    def test_sections_are_flat_arrays(self, demo, tmp_path):
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        s = _read_corpus_sections(path)
        assert s["sent_ids"].tolist() == [x.sent_id for x in demo.sentences]
        assert s["lengths"].sum() == len(s["surface_idx"])
        assert s["surfaces"] == list(demo.postings)  # in order of first appearance
        assert list(zip(s["words"], s["counts"])) == \
            [(w, c) for w, _, c in demo.vocab.items()]
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
        with pytest.raises(FormatError) as err:
            load_corpus(path)
        assert str(err.value) == f"corrupt corpus {path}: sentence arrays disagree"

    def test_one_byte_vocabulary_edit_rejected(self, demo, tmp_path):
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        blob = path.read_bytes()
        at = blob.index(b"hare") + 1
        path.write_bytes(blob[:at] + b"b" + blob[at + 1:])  # hare -> hbre
        with pytest.raises(FormatError, match="embedded vocabulary is corrupt"):
            load_corpus(path)

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "old.pgc"
        for magic in (b"PGC1", b"PGC2", b"PGC3", b"PGC4", b"PGC5", b"PGC6", b"PGC7"):
            path.write_bytes(magic + bytes(32))
            with pytest.raises(FormatError, match=f"bad magic {magic!r}"):
                load_corpus(path)


@pytest.fixture(scope="module")
def demo_lm(demo):
    return train_lm(demo.sentences, demo.vocab, order=3)


_LM_BLOCKS = ("<f8", "<u8", "<f8", "<u4")  # each order's four blocks


def _read_lm_sections(path):
    """Every section of a language model file, in file order; each order's
    tables as [backoff weights, n-gram keys, probabilities, suffix rows]."""
    with binio.reading(path, LM_MAGIC, "language model") as fh:
        (order,) = binio.unpack(fh, "<B")
        stored, words, counts = _read_vocab_section(fh)
        s = {"order": order, "vocab_hash": stored,
             "words": words, "counts": counts, "tables": []}
        for _ in range(order):
            s["tables"].append([binio.read_array(fh, dtype) for dtype in _LM_BLOCKS])
    return s


def key_rows(tables, bos):
    """Each order's keys as rows of ids, lowest order first: a key is its
    context's row one order down times the radix (the end marker plus one)
    plus its word, and the row one past that order's last is its run of
    begin markers (row 0, the empty context, at order 0)."""
    radix, rows = bos + 2, np.zeros((0, 0), dtype=np.int64)  # order 0 stores none
    for k, (_, keys, *_) in enumerate(tables, start=1):
        contexts = np.vstack([rows, np.full((1, k - 1), bos)])
        rows = np.hstack([contexts[(keys // radix).astype(np.int64)],
                          (keys % radix).astype(np.int64)[:, None]])
        yield rows


def assert_file_holds_tables(path, model):
    """The file's tables are the ones the trained model was built from."""
    sections = _read_lm_sections(path)["tables"]
    assert len(sections) == len(model._stored)
    for stored, built in zip(sections, model._stored):
        assert [np.array_equal(a, b) for a, b in zip(stored, built, strict=True)] == [True] * 4


def _write_lm_sections(path, s):
    with binio.writing(path, LM_MAGIC) as fh:
        binio.pack(fh, "<B", s["order"])
        _write_vocab_section(fh, s["words"], s["counts"])
        for table in s["tables"]:
            for values, dtype in zip(table, _LM_BLOCKS, strict=True):
                binio.write_array(fh, values, dtype)


def _change(index, change, k=None):
    """Apply ``change(array, bos, lower)`` to one array of the top-order
    tables, or of order ``k``'s, where ``lower`` is how many rows the order
    below stores: the row of its run of begin markers."""
    def mutate(s, bos):
        order = k or s["order"]
        table = s["tables"][order - 1]
        lower = len(s["tables"][order - 2][1]) if order > 1 else 0
        table[index] = change(table[index], bos, lower)
    return mutate


def _last_key(key):
    """The keys with the last one replaced by ``key(last, bos, lower)``."""
    return lambda g, bos, lower: np.r_[g[:-1], key(int(g[-1]), bos, lower)]


def _last_word(word):
    """The keys with the last one's word replaced by ``word(bos)``."""
    return _last_key(lambda key, bos, lower: key - key % (bos + 2) + word(bos))


class TestLanguageModelFile:
    def test_counts_are_sorted_rows(self, demo_lm, tmp_path):
        """Each order's tables are sorted distinct n-gram keys and values
        that are the model's own: an n-gram's probability is ``prob``, and
        the backoff weight of each distinct context, in key order, scales
        ``prob`` one order down for a word it lacks."""
        path = tmp_path / "m.pglm"
        demo_lm.save(path)
        s = _read_lm_sections(path)
        _write_lm_sections(tmp_path / "copy.pglm", s)
        assert (tmp_path / "copy.pglm").read_bytes() == path.read_bytes()
        assert s["order"] == 3
        events = set(range(len(demo_lm.vocab))) | {demo_lm.eos_id}
        rows_of = key_rows(s["tables"], demo_lm.bos_id)
        for k, ((backoff, keys, probs, _), rows) in enumerate(zip(s["tables"], rows_of),
                                                              start=1):
            assert keys.dtype == np.uint64 and (keys[1:] > keys[:-1]).all()
            gram_rows = [tuple(r) for r in rows.tolist()]
            assert gram_rows == sorted(set(gram_rows))  # keys sort as their ids
            ctx_rows = sorted({r[:-1] for r in gram_rows})
            assert len(ctx_rows) == len(backoff)
            assert probs.tolist() == [demo_lm.prob(r[-1], r[:-1]) for r in gram_rows]
            for row, weight in zip(ctx_rows, backoff.tolist()):
                unseen = min(events - {r[-1] for r in gram_rows if r[:-1] == row},
                             default=None)
                if unseen is not None:
                    lower = (demo_lm.prob(unseen, row[1:]) if k > 1
                             else 1.0 / demo_lm.n_events)
                    assert demo_lm.prob(unseen, row) == weight * lower

    def test_round_trip_keeps_every_probability(self, demo, demo_lm, tmp_path):
        """Bit for bit, as the recursion over count tables gives them."""
        path = tmp_path / "m.pglm"
        demo_lm.save(path)
        loaded = NGramModel.load(path)
        reference = CountTablesKN([demo.vocab.encode(s.tokens) for s in demo.sentences],
                                  len(demo.vocab), demo_lm.order)
        events = list(range(len(demo_lm.vocab))) + [demo_lm.eos_id]
        for rows in key_rows(_read_lm_sections(path)["tables"], demo_lm.bos_id):
            for row in {tuple(r[:-1]) for r in rows.tolist()}:  # every context
                for w in events:
                    assert (loaded.prob(w, row).hex() == demo_lm.prob(w, row).hex()
                            == reference.prob(w, row).hex())
        assert_file_holds_tables(path, demo_lm)

    # Each corrupts one section and keeps the rest of the file readable.
    @pytest.mark.parametrize("change", [
        {"order": 1},                                              # check_order
        {"order": 4},                                              # a fourth order missing
        {"mutate": _change(2, lambda p, bos, lower: p[:-1]),       # fewer probabilities
         "error": "order 3: block lengths disagree"},
        {"mutate": _change(2, lambda p, bos, lower: np.r_[0.0, p[1:]]),  # zero probability
         "error": r"order 3: a probability outside \(0, 1\]"},
        {"mutate": _change(2, lambda p, bos, lower: np.r_[1.5, p[1:]]),  # above 1
         "error": r"order 3: a probability outside \(0, 1\]"},
        {"mutate": _change(2, lambda p, bos, lower: np.r_[np.nan, p[1:]]),  # not finite
         "error": r"order 3: a probability outside \(0, 1\]"},
        {"mutate": _change(2, lambda p, bos, lower: np.r_[np.inf, p[1:]]),
         "error": r"order 3: a probability outside \(0, 1\]"},
        {"mutate": _change(0, lambda b, bos, lower: np.r_[-0.5, b[1:]]),  # negative weight
         "error": r"order 3: a backoff weight outside \(0, 1\]"},
        {"mutate": _change(0, lambda b, bos, lower: np.r_[0.0, b[1:]]),  # zero weight
         "error": r"order 3: a backoff weight outside \(0, 1\]"},
        {"mutate": _change(0, lambda b, bos, lower: np.r_[np.nan, b[1:]]),  # not finite
         "error": r"order 3: a backoff weight outside \(0, 1\]"},
        {"mutate": _change(0, lambda b, bos, lower: np.r_[np.inf, b[1:]]),
         "error": r"order 3: a backoff weight outside \(0, 1\]"},
        {"mutate": _change(1, lambda g, bos, lower: g[::-1]),      # keys decrease
         "error": "order 3: keys do not strictly increase"},
        {"mutate": _change(1, lambda g, bos, lower: np.r_[g[:1], g[:1], g[2:]]),  # repeated
         "error": "order 3: keys do not strictly increase"},
        {"mutate": _change(1, lambda g, bos, lower: g[[1, 0, *range(2, len(g))]]),  # swapped
         "model": "wide_lm", "error": "order 6: keys do not strictly increase"},
        {"mutate": _change(1, _last_key(lambda key, bos, lower: (lower + 1) * (bos + 2))),
         "error": r"order 3: a context row past order 2's begin-marker row \d+"},
        {"mutate": _change(1, _last_key(lambda key, bos, lower: bos + 2), k=1),  # row 1
         "error": "order 1: a context row past order 0's begin-marker row 0"},
        {"mutate": _change(1, _last_word(lambda bos: bos)),        # the begin marker as a word
         "error": "order 3: a word outside the event space"},
        {"mutate": _change(1, _last_word(lambda bos: bos), k=1),
         "error": "order 1: a word outside the event space"},
        {"mutate": _change(1, _last_word(lambda bos: bos + 1)),    # (bos, eos): no suffix
         "error": "order 3: a row whose suffix is not stored"},
        {"mutate": _change(0, lambda b, bos, lower: b[:-1]),       # one weight too few
         "error": r"order 3: \d+ backoff weights for \d+ contexts"},
        {"mutate": _change(0, lambda b, bos, lower: np.r_[b, b[:1]]),  # one weight too many
         "error": r"order 3: \d+ backoff weights for \d+ contexts"},
        {"mutate": _change(0, lambda b, bos, lower: np.r_[b, b], k=1),  # two weights, one context
         "error": "order 1: 2 backoff weights for 1 contexts"},
        {"mutate": _change(3, lambda s, bos, lower: np.r_[s[:-1], lower]),  # the begin-marker row
         "error": "order 3: a row whose suffix is not stored"},
        {"mutate": _change(3, lambda s, bos, lower: s[[1, 0, *range(2, len(s))]]),  # swapped
         "error": "order 3: a row whose suffix is not stored"},
        {"mutate": _change(3, lambda s, bos, lower: np.r_[s[:-1], 1], k=1),  # not the empty context
         "error": "order 1: a row whose suffix is not stored"},
        {"mutate": _change(3, lambda s, bos, lower: s[:-1]),       # one suffix row too few
         "error": "order 3: block lengths disagree"},
    ])
    def test_bad_counts_rejected(self, request, tmp_path, capsys, change):
        """A loader's FormatError, and through the CLI exit code 2 with one
        line on standard error: ``corrupt language model <file>: <rule>``
        for each rule the tables break."""
        model = request.getfixturevalue(change.get("model", "demo_lm"))
        path, bad = tmp_path / "m.pglm", tmp_path / "bad.pglm"
        model.save(path)
        s = _read_lm_sections(path)
        s["order"] = change.get("order", s["order"])
        if "mutate" in change:
            change["mutate"](s, model.bos_id)
        _write_lm_sections(bad, s)  # with its checksum recomputed
        error = f": {change['error']}$" if "error" in change else ""
        with pytest.raises(FormatError, match=f"bad.pglm{error}") as err:
            NGramModel.load(bad)
        assert "\n" not in str(err.value)
        records = tmp_path / "in.jsonl"
        records.write_text('{"sentence": "a hare .", "pun_word": "hare", "alt_word": "hair"}\n')
        out = tmp_path / "out.jsonl"
        assert cli.main(["score", "--lm", str(bad), "--input", str(records),
                         "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"punforge: {err.value}\n"
        if "error" in change:
            assert str(err.value).startswith(f"corrupt language model {bad}: order ")
        assert not out.exists()

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
        for magic in (b"PGLM", b"PGL2", b"PGL3", b"PGL4", b"PGL5", b"PGL6", b"PGL7",
                      b"PGL8", b"PGL9"):
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
_EXTS_ALL = pytest.mark.parametrize("ext", sorted(_LOADERS))


class TestReadmeMagics:
    """README's "File formats" names every current magic, and each other
    magic it lists is refused by its loader with the one-line error."""

    @staticmethod
    def _listed():
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
        return {magic.encode() for magic in re.findall(r"\bPG[A-Z0-9]{2}\b", section)}

    def test_current_magics_are_named(self):
        assert {CORPUS_MAGIC, LM_MAGIC, skipgram.SKIPGRAM_MAGIC} <= self._listed()

    def test_every_other_listed_magic_is_refused(self, tmp_path):
        loaders = {b"PGC": load_corpus, b"PGL": NGramModel.load,
                   b"PGS": SkipGramModel.load}
        old = self._listed() - {CORPUS_MAGIC, LM_MAGIC, skipgram.SKIPGRAM_MAGIC}
        assert {magic[:3] for magic in old} == set(loaders)
        path = tmp_path / "old.bin"
        for magic in sorted(old):
            path.write_bytes(magic + bytes(64))
            with pytest.raises(FormatError) as err:
                loaders[magic[:3]](path)
            assert re.fullmatch(f"{re.escape(str(path))} is not a [a-z -]+ file: bad magic "
                                f"{re.escape(repr(magic))}, expected b'PG..'", str(err.value))


def _block_spans(path):
    """The byte spans of a file's embedded vocabulary and, for a corpus, of
    its surface table."""
    blob = path.read_bytes()
    fh = _reader(blob)
    fh.seek({"pgc": 4, "pglm": 4 + 1,
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
        """A truncated or bit-flipped vocabulary or surface table is refused
        by load, with one line."""
        rng = random.Random(13)
        spans = {ext: _block_spans(path) for ext, path in demo_files.items()}
        seen = set()
        for _ in range(240):
            ext = rng.choice(sorted(spans))
            block = rng.choice(sorted(spans[ext]))
            start, end = spans[ext][block]
            blob = bytearray(demo_files[ext].read_bytes())
            if rng.random() < 0.25:
                del blob[rng.randrange(start, end):]
            else:
                for _ in range(rng.randint(1, 3)):
                    blob[rng.randrange(start, end)] ^= 1 << rng.randrange(8)
            bad = tmp_path / f"bad.{ext}"
            bad.write_bytes(bytes(blob))
            with pytest.raises(FormatError) as err:
                _LOADERS[ext](bad)
            assert "\n" not in str(err.value)
            seen.add((ext, block))
        assert seen == {(ext, block) for ext in spans for block in spans[ext]}


class TestCorruptionProbe:
    @_EXTS_ALL
    def test_every_flip_and_truncation_is_refused_with_one_line(self, demo_files,
                                                                tmp_path, ext):
        """200 seeded single-bit flips anywhere in a demo file, the magic and
        the checksum included, and 20 truncations: none loads, and each is a
        one-line FormatError naming the file."""
        blob = demo_files[ext].read_bytes()
        rng = random.Random(10)
        bad = tmp_path / f"bad.{ext}"
        silent, by_checksum = [], 0
        for case in range(220):
            if case < 200:
                damaged = bytearray(blob)
                damaged[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            else:
                damaged = blob[:rng.randrange(len(blob))]
            bad.write_bytes(bytes(damaged))
            try:
                _LOADERS[ext](bad)
            except FormatError as exc:
                assert "\n" not in str(exc) and str(bad) in str(exc), str(exc)
                by_checksum += str(exc).endswith(": checksum mismatch")
                continue
            silent.append(case)
        assert silent == []
        assert 0 < by_checksum < 200  # the blocks' own checks find some flips first


def _load_vocabulary(demo_files, tmp_path, ext, change, message):
    """Load a copy of a demo file whose words and counts ``change`` rewrites,
    behind their own hash, and check the one-line error it gives."""
    blob = demo_files[ext].read_bytes()
    start, end = _block_spans(demo_files[ext])["vocab"]
    _stored, words, counts = _read_vocab_section(_reader(blob[start:end]))
    fh = io.BytesIO()
    _write_vocab_section(fh, *change(words, counts))
    bad = tmp_path / f"bad.{ext}"
    bad.write_bytes(blob[:start] + fh.getvalue() + blob[end:])
    with pytest.raises(FormatError, match=re.escape(message(words))) as err:
        _LOADERS[ext](bad)
    assert "\n" not in str(err.value) and str(bad) in str(err.value)


_EXTS = pytest.mark.parametrize("ext", ["pgc", "pglm", "pgsg"])


class TestEmbeddedVocabulary:
    @_EXTS
    @pytest.mark.parametrize("change,message", [
        (lambda w, c: (w[:3] + w[1:2] + w[4:], c),
         lambda w: f"repeated vocabulary word {w[1]!r} at id 3"),
        (lambda w, c: (w[:1] * 2 + w[2:], c),
         lambda w: "repeated vocabulary word '<unk>' at id 1"),
    ])
    def test_repeated_word_rejected(self, demo_files, tmp_path, ext, change, message):
        """A word named twice would leave its first id's statistics out of
        reach of every lookup."""
        _load_vocabulary(demo_files, tmp_path, ext, change, message)

    @_EXTS
    @pytest.mark.parametrize("change", [lambda w, c: (w[1:], c[1:]),
                                        lambda w, c: ([], [])])
    def test_missing_unk_rejected(self, demo_files, tmp_path, ext, change):
        _load_vocabulary(demo_files, tmp_path, ext, change,
                         lambda w: "must start with '<unk>' at id 0")

    @_EXTS
    @pytest.mark.parametrize("change,message", [
        (lambda w, c: (w, c[:-1]), lambda w: f"has {len(w)} words but {len(w) - 1} counts"),
        (lambda w, c: (w[:-1], c), lambda w: f"has {len(w) - 1} words but {len(w)} counts"),
    ])
    def test_words_and_counts_of_different_lengths_rejected(
            self, demo_files, tmp_path, ext, change, message):
        _load_vocabulary(demo_files, tmp_path, ext, change, message)

    @pytest.mark.parametrize("ext", ["pglm", "pgsg"])
    def test_other_hash_is_refused_before_the_words_are_read(self, demo_files,
                                                             tmp_path, ext):
        blob = demo_files[ext].read_bytes()
        start, _end = _block_spans(demo_files[ext])["vocab"]
        cut = tmp_path / f"cut.{ext}"
        cut.write_bytes(blob[:start + 4 + 16])  # the hash block, then nothing
        with pytest.raises(ResourceError, match="trained on a different vocabulary"):
            _LOADERS[ext](cut, expected_vocab_hash=bytes(16))
        with pytest.raises(FormatError, match="truncated"):
            _LOADERS[ext](cut, expected_vocab_hash=blob[start + 4:start + 20])

    def test_hash_is_computed_once_for_every_file_written(self, tmp_path,
                                                          monkeypatch):
        """The vocabulary's blocks are serialized once, for the hash and every
        file; a load serializes them once more, to check the file, and keeps
        them."""
        calls = []
        vocab_blocks = corpus._vocab_blocks
        monkeypatch.setattr(corpus, "_vocab_blocks",
                            lambda *a: calls.append(1) or vocab_blocks(*a))
        sentences, vocab = ingest(build_demo_corpus()[::40])
        vocab.hash_bytes()
        save_corpus(tmp_path / "m.pgc", Corpus(sentences, vocab))
        train_lm(sentences, vocab, order=3).save(tmp_path / "m.pglm")
        train_skipgram(sentences[:20], vocab, SkipGramConfig(dim=4, epochs=1)) \
            .save(tmp_path / "m.pgsg")
        assert len(calls) == 1
        for ext in ("pgc", "pglm", "pgsg"):
            loaded = _LOADERS[ext](tmp_path / f"m.{ext}")
            assert loaded.vocab.hash_bytes() == vocab.hash_bytes()
            assert list(loaded.vocab.items()) == list(vocab.items())
        assert len(calls) == 4


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

    def test_binary_files_are_read_only_through_reading(self):
        """Every ``open(…, "rb")`` in the package is the one in
        ``binio.reading``, which checks the magic and the end of every file."""
        package = Path(binio.__file__).parent
        lines, first = inspect.getsourcelines(binio.reading)
        readers = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "open"
                        and len(node.args) > 1 and ast.unparse(node.args[1]) == "'rb'"):
                    readers.append((path.name, node.lineno))
        assert len(readers) == 1
        assert readers[0][0] == "binio.py" and first <= readers[0][1] < first + len(lines)
