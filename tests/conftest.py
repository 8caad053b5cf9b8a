import importlib.resources
from pathlib import Path

import pytest

from punforge import cli
from punforge.corpus import ingest
from punforge.demo_corpus import write_demo_corpus
from punforge.ngram_lm import train_lm
from punforge.wordnet import load_wordnet

TINY_TEXT = """
the cat sat on the mat . the dog sat on the cat .
a cat saw the dog run . the dog ran after a cat .
cats and dogs run fast . the mat was old .
the old dog saw a bird . a bird sat on the old mat .
"""

# 2,000 words, each sentence ten of them in a row, twice with different
# endings: at order 6 six ids take more than 64 bits.
WIDE_TEXT = "\n".join(" ".join(f"w{i}" for i in range(start, start + 10)) + " ."
                      for start in range(0, 2000, 10))


@pytest.fixture(scope="session")
def wide():
    """(sentences, vocab) whose order-6 n-grams take more than 64 bits of ids."""
    return ingest(WIDE_TEXT + "\n" + WIDE_TEXT.replace(" .", " end ."))


@pytest.fixture(scope="session")
def wide_lm(wide):
    sentences, vocab = wide
    return train_lm(sentences, vocab, order=6)


@pytest.fixture(scope="session")
def tiny():
    """(sentences, vocab) for a small mixed corpus."""
    return ingest(TINY_TEXT)


@pytest.fixture(scope="session")
def tiny_lm(tiny):
    sentences, vocab = tiny
    return train_lm(sentences, vocab, order=4)


@pytest.fixture(scope="session")
def miniwn_dir():
    return Path(str(importlib.resources.files("punforge") / "data" / "miniwn"))


@pytest.fixture(scope="session")
def miniwn(miniwn_dir):
    return load_wordnet(miniwn_dir)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Demo corpus indexed and trained once through the real CLI.

    The skip-gram uses a reduced dimension and epoch count to keep the test
    run fast; the library defaults are exercised separately.
    """
    root = tmp_path_factory.mktemp("pipeline")
    text = root / "demo.txt"
    write_demo_corpus(text)
    corpus = root / "demo.pgc"
    lm = root / "demo.pglm"
    skipgram = root / "demo.pgsg"
    assert cli.main(["index", "--corpus", str(text), "--out", str(corpus)]) == 0
    assert cli.main(["train-lm", "--corpus", str(corpus), "--out", str(lm)]) == 0
    assert cli.main([
        "train-skipgram", "--corpus", str(corpus), "--out", str(skipgram),
        "--dim", "40", "--epochs", "6", "--seed", "1",
    ]) == 0
    return {"root": root, "text": text, "corpus": corpus, "lm": lm,
            "skipgram": skipgram}
