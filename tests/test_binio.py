"""The block codec, and the consistency checks of the files written in it."""

import io
import struct

import numpy as np
import pytest

from punforge import binio
from punforge.corpus import Corpus, ingest, load_corpus, save_corpus
from punforge.demo_corpus import build_demo_corpus
from punforge.errors import FormatError
from punforge.ngram_lm import LM_MAGIC, NGramModel, train_lm
from punforge.retrieval import build_index


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

    def test_strings_are_count_then_length_prefixed_utf8(self):
        fh = io.BytesIO()
        binio.write_strings(fh, ["a", "", "héé"])
        expected = (struct.pack("<I", 3) + struct.pack("<I", 1) + b"a"
                    + struct.pack("<I", 0) + struct.pack("<I", 5)
                    + "héé".encode("utf-8"))
        assert fh.getvalue() == expected
        assert binio.read_strings(_reader(expected)) == ["a", "", "héé"]

    def test_string_that_is_not_utf8_rejected(self):
        data = struct.pack("<I", 1) + struct.pack("<I", 2) + b"\xff\xfe"
        with pytest.raises(FormatError, match="mem.bin is not UTF-8"):
            binio.read_strings(_reader(data))

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

    def test_split(self):
        assert binio.split([1, 2, 3, 4, 5], np.array([2, 0, 3])) == \
            [[1, 2], [], [3, 4, 5]]
        assert binio.split((), np.array([], dtype=np.uint32)) == []


@pytest.fixture(scope="module")
def demo():
    sentences, vocab = ingest(build_demo_corpus()[::5])
    return Corpus(sentences, vocab, build_index(sentences).postings)


def _read_corpus_sections(path):
    """Every section of a corpus file, in file order."""
    with open(path, "rb") as fh:
        fh.read(4)
        sections = {"flags": binio.unpack(fh, "<B")[0],
                    "vocab_hash": binio.read_array(fh, "u1"),
                    "vocab": binio.read_strings(fh),
                    "surfaces": binio.read_strings(fh)}
        for name in ("sent_ids", "lengths", "surface_idx"):
            sections[name] = binio.read_array(fh, "<u4")
        sections["pos"] = binio.read_array(fh, "u1")
        for name in ("terms", "n_entries", "rows", "n_positions", "positions"):
            sections[name] = binio.read_array(fh, "<u4")
        assert fh.read() == b""
    return sections


def _write_corpus_sections(path, s):
    with open(path, "wb") as fh:
        fh.write(b"PGC3")
        binio.pack(fh, "<B", s["flags"])
        binio.write_array(fh, s["vocab_hash"], "u1")
        binio.write_strings(fh, s["vocab"])
        binio.write_strings(fh, s["surfaces"])
        for name in ("sent_ids", "lengths", "surface_idx"):
            binio.write_array(fh, s[name], "<u4")
        binio.write_array(fh, s["pos"], "u1")
        for name in ("terms", "n_entries", "rows", "n_positions", "positions"):
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
        assert loaded.vocab.dump_lines() == demo.vocab.dump_lines()
        save_corpus(b, loaded)
        assert a.read_bytes() == b.read_bytes()

    def test_sections_are_flat_arrays(self, demo, tmp_path):
        path = tmp_path / "c.pgc"
        save_corpus(path, demo)
        s = _read_corpus_sections(path)
        assert s["sent_ids"].tolist() == [x.sent_id for x in demo.sentences]
        assert s["lengths"].sum() == len(s["surface_idx"]) == len(s["pos"])
        assert [s["surfaces"][t] for t in s["terms"]] == sorted(demo.postings)
        assert s["n_positions"].sum() == len(s["positions"])

    @pytest.mark.parametrize("name,mutate", [
        ("lengths", lambda a: np.r_[a[:-1], a[-1] + 1]),  # sum != token count
        ("sent_ids", lambda a: np.r_[a[1], a[1:]]),        # repeated id
        ("sent_ids", lambda a: a[:-1]),                    # fewer ids than lengths
        ("surface_idx", lambda a: np.r_[len(a) * 4, a[1:]]),  # out of range
        ("pos", lambda a: np.r_[9, a[1:]]),                # no such POS code
        ("terms", lambda a: np.r_[a[1], a[1:]]),          # another term's entries
        ("terms", lambda a: a[:-1]),                      # fewer terms than counts
        ("n_entries", lambda a: np.r_[a[0] + 1, a[1:]]),   # sum != entry count
        ("rows", lambda a: np.r_[10**6, a[1:]]),           # no such sentence
        ("positions", lambda a: np.r_[a[0] + 1, a[1:]]),   # token is another term
        ("positions", lambda a: np.r_[999, a[1:]]),        # past the sentence end
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
        for magic in (b"PGC1", b"PGC2"):
            path.write_bytes(magic + bytes(32))
            with pytest.raises(FormatError, match=f"bad magic {magic!r}"):
                load_corpus(path)


@pytest.fixture(scope="module")
def demo_lm(demo):
    return train_lm(demo.sentences, demo.vocab, order=3)


def _rewrite_lm(src, dst, order=None, grams=None, counts=None):
    with open(src, "rb") as fh:
        fh.read(4)
        (stored_order,) = binio.unpack(fh, "<B")
        hash_, lines = binio.read_array(fh, "u1"), binio.read_strings(fh)
        old_grams, old_counts = binio.read_array(fh, "<u4"), binio.read_array(fh, "<u8")
    old_grams = old_grams.reshape(-1, stored_order)
    with open(dst, "wb") as fh:
        fh.write(LM_MAGIC)
        binio.pack(fh, "<B", stored_order if order is None else order)
        binio.write_array(fh, hash_, "u1")
        binio.write_strings(fh, lines)
        binio.write_array(fh, old_grams if grams is None else grams(old_grams), "<u4")
        binio.write_array(fh, old_counts if counts is None else counts(old_counts), "<u8")
    return old_grams, old_counts


class TestLanguageModelFile:
    def test_counts_are_sorted_rows(self, demo_lm, tmp_path):
        path = tmp_path / "m.pglm"
        demo_lm.save(path)
        grams, counts = _rewrite_lm(path, tmp_path / "copy.pglm")
        assert (tmp_path / "copy.pglm").read_bytes() == path.read_bytes()
        rows = [tuple(r) for r in grams.tolist()]
        assert rows == sorted(set(rows))
        top = demo_lm._top_counts
        assert counts.tolist() == [top[r[:-1]][r[-1]] for r in rows]

    def test_round_trip_keeps_every_probability(self, demo_lm, tmp_path):
        path = tmp_path / "m.pglm"
        demo_lm.save(path)
        loaded = NGramModel.load(path)
        assert loaded._top_counts == demo_lm._top_counts
        events = list(range(len(demo_lm.vocab))) + [demo_lm.eos_id]
        for ctx in list(demo_lm._top_counts)[:40]:
            for w in events:
                assert loaded.prob(w, ctx) == demo_lm.prob(w, ctx)
        loaded.save(tmp_path / "again.pglm")
        assert (tmp_path / "again.pglm").read_bytes() == path.read_bytes()

    # each keeps the row count unless it is about the counts
    @pytest.mark.parametrize("change", [
        {"order": 1},                                         # check_order
        {"order": 4},                                         # rows of 3 ids
        {"counts": lambda c, bos: c[:-1]},                    # fewer counts
        {"counts": lambda c, bos: np.r_[0, c[1:]]},           # zero count
        {"grams": lambda g, bos: g[::-1]},                    # unsorted
        {"grams": lambda g, bos: np.r_[g[:1], g[:1], g[2:]]},  # repeated row
        {"grams": lambda g, bos: np.r_[g[:-1], [[bos, bos, bos]]]},  # bos target
        {"grams": lambda g, bos: np.r_[g[:-1], [[bos, bos, bos + 2]]]},  # past eos
        {"grams": lambda g, bos: np.r_[[[bos + 1, 0, 0]], g[1:]]},  # eos context
    ])
    def test_bad_counts_rejected(self, demo_lm, tmp_path, change):
        path, bad = tmp_path / "m.pglm", tmp_path / "bad.pglm"
        demo_lm.save(path)
        bos = demo_lm.bos_id
        _rewrite_lm(path, bad, **{k: v if k == "order" else
                                  (lambda a, f=v: f(a, bos))
                                  for k, v in change.items()})
        with pytest.raises(FormatError):
            NGramModel.load(bad)

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "old.pglm"
        path.write_bytes(b"PGLM" + bytes(64))
        with pytest.raises(FormatError, match="bad magic b'PGLM'"):
            NGramModel.load(path)
