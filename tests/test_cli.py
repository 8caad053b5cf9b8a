import dataclasses
import hashlib
import inspect
import io
import json
import logging
import math
import os
import platform
import random
import re
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import CountTablesKN
import punforge
from punforge import cli, generator, stats
from punforge.cli import RunConfig, UsageError, resolve_config
from punforge.corpus import (Corpus, Pos, Sentences, TagLexicon, check_min_count,
                             ingest, load_corpus, save_corpus)
from punforge.generator import GenerationConfig
from punforge.runtime import runtime_state
from punforge.ngram_lm import FALLBACK_DISCOUNT, NGramModel, check_order, train_lm
from punforge.skipgram import MAX_EPOCHS, SkipGramConfig, SkipGramModel


def _python_m_cli(argv, **kwargs):
    """Start ``python -m punforge.cli argv`` on the package under test."""
    src = str(Path(punforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "punforge.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, **kwargs)


def _run(tmp_path, argv):
    """Run the CLI with --output routed to a file; return (exit, lines)."""
    out = tmp_path / "out.jsonl"
    code = cli.main(argv + ["--output", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines() if out.exists() else []
    return code, lines


class TestResolveConfig:
    def test_defaults(self):
        assert resolve_config({}, None, env={}) == RunConfig()

    def test_flag_beats_config_beats_env(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"order": 3, "window": 5}))
        env = {"PUNGEN_ORDER": "2", "PUNGEN_WINDOW": "9", "PUNGEN_DIM": "7"}
        cfg = resolve_config({"order": 6}, str(path), env=env)
        assert cfg.order == 6       # flag
        assert cfg.window == 5      # config file
        assert cfg.dim == 7         # environment
        assert cfg.epochs == 15     # default

    def test_env_coercion(self):
        cfg = resolve_config({}, None, env={"PUNGEN_RERANK": "yes",
                                            "PUNGEN_STEP_SIZE": "0.5"})
        assert cfg.rerank is True
        assert cfg.step_size == 0.5

    def test_env_bad_boolean(self):
        with pytest.raises(UsageError, match="rerank"):
            resolve_config({}, None, env={"PUNGEN_RERANK": "maybe"})

    def test_env_bad_number(self):
        with pytest.raises(UsageError, match="order"):
            resolve_config({}, None, env={"PUNGEN_ORDER": "four"})

    def test_config_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"orderr": 3}))
        with pytest.raises(UsageError, match="orderr"):
            resolve_config({}, str(path), env={})

    def test_config_non_scalar_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"order": [3]}))
        with pytest.raises(UsageError, match="non-scalar"):
            resolve_config({}, str(path), env={})

    def test_config_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        for text in ("order: 3", "[" * 100_000):  # the second nests too deeply
            path.write_text(text)
            with pytest.raises(UsageError, match="JSON"):
                resolve_config({}, str(path), env={})

    def test_config_not_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(UsageError, match="object"):
            resolve_config({}, str(path), env={})

    def test_config_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="config"):
            resolve_config({}, str(tmp_path / "absent.json"), env={})

    def test_config_null_clears_optional_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"wordnet": None}))
        assert resolve_config({}, str(path), env={}).wordnet is None

    @pytest.mark.parametrize("bad", [
        {"order": 3.5}, {"order": 3.0}, {"dim": True}, {"clip": False},
        {"stage": 2}, {"rerank": 1},
    ])
    def test_config_value_of_wrong_type(self, tmp_path, bad):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(UsageError, match="needs a"):
            resolve_config({}, str(path), env={})

    @pytest.mark.parametrize("bad, message", [
        ({"window": 2.5}, "config key 'window' needs an int value, got 2.5"),
        ({"clip": True}, "config key 'clip' needs a float value, got true"),
        ({"rerank": 1}, "config key 'rerank' needs a bool value, got 1"),
    ])
    def test_wrong_type_message_names_the_type(self, tmp_path, bad, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(UsageError) as info:
            resolve_config({}, str(path), env={})
        assert str(info.value) == message

    def test_config_integer_for_float_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"clip": 3}))
        assert resolve_config({}, str(path), env={}).clip == 3

    @pytest.mark.parametrize("bad", [
        {"order": 7}, {"order": 1}, {"window": 0}, {"d1": 6, "d2": 5},
        {"d1": 0}, {"epochs": -1}, {"negatives": 0}, {"step_size": 0.0},
        {"min_count": 0}, {"pool": 0}, {"keep": 0}, {"topic_k": 0},
        {"threshold": -0.1}, {"max_outputs": 0}, {"permutations": 0},
        {"clip": 0.0}, {"stage": "POLISH"},
    ])
    def test_out_of_range_values_rejected(self, bad):
        with pytest.raises(UsageError):
            resolve_config(bad, None, env={})


class TestLibraryOwnsRules:
    """The CLI's defaults and range checks are the library's own."""

    @pytest.mark.parametrize("owner,bad", [
        (check_order, {"order": 7}), (check_order, {"order": 1}),
        (GenerationConfig, {"window": 0}),
        (SkipGramConfig, {"d1": 6, "d2": 5}), (SkipGramConfig, {"d1": 0}),
        (SkipGramConfig, {"epochs": -1}), (SkipGramConfig, {"negatives": 0}),
        (SkipGramConfig, {"step_size": 0.0}), (SkipGramConfig, {"dim": 0}),
        (check_min_count, {"min_count": 0}),
        (GenerationConfig, {"pool": 0}), (GenerationConfig, {"keep": 0}),
        (GenerationConfig, {"topic_k": 0}),
        (GenerationConfig, {"threshold": -0.1}),
        (GenerationConfig, {"max_outputs": 0}),
        (stats.check_permutations, {"permutations": 0}),
        (stats.check_clip, {"clip": 0.0}),
        (GenerationConfig, {"stage": "POLISH"}),
        # what the skip-gram header's u32 fields and u64 seed cannot hold
        (SkipGramConfig, {"dim": 2**32}), (SkipGramConfig, {"d2": 2**32}),
        (SkipGramConfig, {"d1": 2**32, "d2": 2**32}),
        (SkipGramConfig, {"epochs": 2**32}), (SkipGramConfig, {"negatives": 2**32}),
        (SkipGramConfig, {"epochs": MAX_EPOCHS + 1}),
        (SkipGramConfig, {"seed": -1}), (SkipGramConfig, {"seed": 2**64}),
        (GenerationConfig, {"pool": sys.maxsize + 1}),
        (GenerationConfig, {"keep": sys.maxsize + 1}),
        (GenerationConfig, {"topic_k": sys.maxsize + 1}),
        (GenerationConfig, {"max_outputs": sys.maxsize + 1}),
        (stats.check_permutations, {"permutations": sys.maxsize + 1}),
        (stats.check_permutations, {"permutations": stats.MAX_PERMUTATIONS + 1}),
        (stats.check_permutations, {"permutations": sys.maxsize}),
        # a Spearman floor outside [-1, 1] turns rater filtering off or on for all
        (stats.check_min_corr, {"min_corr": float("nan")}),
        (stats.check_min_corr, {"min_corr": -math.inf}),
        (stats.check_min_corr, {"min_corr": math.inf}),
        (stats.check_min_corr, {"min_corr": 1e308}),
        (stats.check_min_corr, {"min_corr": -1.5}),
    ])
    def test_out_of_range_values_rejected_by_owner(self, owner, bad):
        with pytest.raises(ValueError):
            owner(**bad)

    def test_largest_values_the_formats_hold_are_accepted(self):
        top = 2**32 - 1
        SkipGramConfig(dim=top, d1=top, d2=top, epochs=MAX_EPOCHS, negatives=top,
                       seed=2**64 - 1)
        SkipGramConfig(seed=0)
        GenerationConfig(pool=sys.maxsize, keep=sys.maxsize,
                         topic_k=sys.maxsize, max_outputs=sys.maxsize)
        stats.check_permutations(stats.MAX_PERMUTATIONS)

    def test_run_config_defaults_are_the_owners(self):
        cfg = RunConfig()
        for owner in (SkipGramConfig, GenerationConfig):
            for field in dataclasses.fields(owner):
                assert getattr(cfg, field.name) == field.default, field.name
        owners = {"order": (train_lm, "order"),
                  "min_count": (ingest, "min_count"),
                  "min_rater_corr": (stats.filter_raters, "min_corr"),
                  "permutations": (stats.permutation_pvalue, "permutations"),
                  "clip": (stats.clip_standardize, "clip")}
        for name, (func, param) in owners.items():
            default = inspect.signature(func).parameters[param].default
            assert getattr(cfg, name) == default, name
        assert cfg.wordnet is None


class TestExitCodes:
    def test_no_subcommand_is_usage(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["index", "--corpus", "x", "--out", "y", "--what"])
        assert err.value.code == 1

    # --seed belongs to the commands that draw random numbers: train-skipgram
    # and correlate.  The others refuse it as an unknown flag.
    @pytest.mark.parametrize("argv", [
        ["index", "--corpus", "x", "--out", "y"],
        ["train-lm", "--corpus", "x", "--out", "y"],
        ["score", "--lm", "x"],
        ["generate", "--corpus", "x", "--pun", "hare", "--alt", "hair"],
    ], ids=lambda argv: argv[0])
    def test_seed_flag_without_random_draws_is_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--seed", "1"])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert [line for line in err_text.splitlines() if "error:" in line] == [
            "punforge: error: unrecognized arguments: --seed 1"]
        assert "Traceback" not in err_text

    def test_seed_config_key_and_variable_hold_for_every_command(
            self, pipeline, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        monkeypatch.setenv("PUNGEN_SEED", "4")
        assert cli.main(["index", "--corpus", str(pipeline["text"]),
                         "--out", str(tmp_path / "c.pgc"), "--config", str(config)]) == 0
        assert cli.main(["train-lm", "--corpus", str(tmp_path / "c.pgc"),
                         "--out", str(tmp_path / "m.pglm")]) == 0

    def test_missing_required_flag_is_usage(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["train-lm", "--out", "y"])
        assert err.value.code == 1

    def test_bad_option_value_is_usage(self, pipeline, tmp_path, capsys):
        code = cli.main(["train-lm", "--corpus", str(pipeline["corpus"]),
                         "--out", str(tmp_path / "m"), "--order", "9"])
        assert code == 1
        assert "order" in capsys.readouterr().err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = cli.main(["train-lm", "--corpus", str(tmp_path / "no.pgc"),
                         "--out", str(tmp_path / "m")])
        assert code == 2

    def test_generate_same_pun_and_alt_is_usage(self, pipeline, capsys):
        code = cli.main(["generate", "--corpus", str(pipeline["corpus"]),
                         "--pun", "hare", "--alt", "Hare"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must differ" in err

    def test_bad_skipgram_header_is_one_line_data_error(self, pipeline,
                                                        tmp_path, capsys):
        bad = tmp_path / "dim0.pgsg"
        blob = pipeline["skipgram"].read_bytes()
        bad.write_bytes(blob[:4] + bytes(4) + blob[8:])  # dim = 0
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"sentence": "a hare cut .",
                                   "pun_word": "hare",
                                   "alt_word": "hair"}) + "\n")
        code = cli.main(["score", "--lm", str(pipeline["lm"]),
                         "--skipgram", str(bad), "--input", str(src),
                         "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "dim must be" in err

    @pytest.mark.parametrize("command", ["generate", "score"])
    def test_non_finite_skipgram_is_one_line_data_error(self, pipeline, miniwn_dir,
                                                        tmp_path, capsys, command):
        model = SkipGramModel.load(pipeline["skipgram"])
        model.vec_in[model.vocab.id_of("hare"), 0] = float("nan")
        bad = tmp_path / "nan.pgsg"
        model.save(bad)
        out = tmp_path / "o.jsonl"
        if command == "generate":
            argv = ["generate", "--corpus", str(pipeline["corpus"]),
                    "--wordnet", str(miniwn_dir), "--pun", "hare", "--alt", "hair"]
        else:
            src = tmp_path / "in.jsonl"
            src.write_text(json.dumps({"sentence": "a greyhound got a hare cut .",
                                       "pun_word": "hare",
                                       "alt_word": "hair"}) + "\n")
            argv = ["score", "--lm", str(pipeline["lm"]), "--input", str(src)]
        code = cli.main(argv + ["--skipgram", str(bad), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"punforge: corrupt skip-gram model {bad}: non-finite embedding value\n"
        assert not out.exists() or "NaN" not in out.read_text()

    def test_diverging_train_skipgram_is_one_line_data_error(self, pipeline,
                                                             tmp_path, capsys):
        out = tmp_path / "x.pgsg"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train-skipgram", "--corpus", str(pipeline["corpus"]),
                             "--out", str(out), "--step-size", "1e308",
                             "--dim", "4", "--epochs", "1"])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "diverged" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--seed", str(2**64)), ("--d2", str(2**32)),
    ])
    def test_train_skipgram_value_the_header_cannot_hold_is_usage(
            self, pipeline, tmp_path, capsys, flag, value):
        out = tmp_path / "x.pgsg"
        code = cli.main(["train-skipgram", "--corpus", str(pipeline["corpus"]),
                         "--out", str(out), "--dim", "4", "--epochs", "1",
                         flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert flag.lstrip("-") in err
        assert not out.exists()

    def test_train_skipgram_epochs_beyond_maximum_is_usage(self, pipeline, tmp_path,
                                                           capsys):
        out = tmp_path / "x.pgsg"
        code = cli.main(["train-skipgram", "--corpus", str(pipeline["corpus"]),
                         "--out", str(out), "--dim", "4",
                         "--epochs", str(MAX_EPOCHS + 1)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"epochs must be in [0, {MAX_EPOCHS}]" in err
        assert not out.exists()

    def test_generate_count_beyond_maxsize_is_usage(self, pipeline, tmp_path,
                                                     capsys):
        code, lines = _run(tmp_path, ["generate", "--corpus", str(pipeline["corpus"]),
                                      "--pun", "hare", "--alt", "hair",
                                      "--stage", "SWAP",
                                      "--max-outputs", str(10**20)])
        assert (code, lines) == (1, [])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_outputs must be in" in err

    @pytest.mark.parametrize("permutations", [10**20, sys.maxsize,
                                              stats.MAX_PERMUTATIONS + 1])
    def test_correlate_permutations_beyond_maximum_is_usage(self, tmp_path, capsys,
                                                            permutations):
        # rejected as a usage error before either (missing) file is opened
        code = cli.main(["correlate", "--ratings", str(tmp_path / "r.csv"),
                         "--scores", str(tmp_path / "s.jsonl"),
                         "--permutations", str(permutations)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"permutations must be in [1, {stats.MAX_PERMUTATIONS}]" in err

    @pytest.mark.parametrize("source,raw", [
        ("flag", "nan"), ("flag", "inf"), ("flag", "1e308"),
        ("config", "NaN"), ("config", "-Infinity"), ("config", "1.5"),
        ("env", "nan"), ("env", "-inf"), ("env", "1e308"),
    ])
    def test_correlate_min_rater_corr_out_of_range_is_usage(self, tmp_path, capsys,
                                                            monkeypatch, source, raw):
        # rejected as a usage error before either (missing) file is opened
        argv = ["correlate", "--ratings", str(tmp_path / "r.csv"),
                "--scores", str(tmp_path / "s.jsonl")]
        if source == "flag":
            argv += ["--min-rater-corr", raw]
        elif source == "config":
            (tmp_path / "c.json").write_text(f'{{"min_rater_corr": {raw}}}')
            argv += ["--config", str(tmp_path / "c.json")]
        else:
            monkeypatch.setenv("PUNGEN_MIN_RATER_CORR", raw)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "min_rater_corr must be in [-1, 1]" in err

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 32.0 GiB for an array with shape (4, 4294967295)",
         "punforge: out of memory: Unable to allocate 32.0 GiB for an array "
         "with shape (4, 4294967295)"),
        ("", "punforge: out of memory"),
    ])
    def test_memory_error_is_one_line_data_error(self, pipeline, tmp_path, capsys,
                                                 monkeypatch, message, line):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        # stands in for the allocation of --dim 4294967295; nothing large is made
        monkeypatch.setattr(cli, "train_skipgram", exhausted)
        out = tmp_path / "x.pgsg"
        code = cli.main(["train-skipgram", "--corpus", str(pipeline["corpus"]),
                         "--out", str(out), "--dim", str(2**32 - 1)])
        assert code == 2
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    def test_generate_without_pair_is_usage(self, pipeline, capsys):
        code = cli.main(["generate", "--corpus", str(pipeline["corpus"]),
                         "--pun", "hare"])
        assert code == 1
        assert "--alt" in capsys.readouterr().err

    @pytest.mark.parametrize("value,argv", [
        ({"order": 3.5}, ["train-lm", "--corpus", "c.pgc", "--out", "c.pglm"]),
        ({"permutations": True},
         ["correlate", "--ratings", "r.csv", "--scores", "s.jsonl"]),
    ])
    def test_config_value_of_wrong_type_is_usage(self, tmp_path, capsys,
                                                  value, argv):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(value))
        assert cli.main(argv + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(next(iter(value))) in err

    def test_corpus_not_utf8_is_one_line_data_error(self, tmp_path, capsys):
        text = tmp_path / "bad.txt"
        text.write_bytes(b"\xff\xfethe hare got a hair cut .\n")
        code = cli.main(["index", "--corpus", str(text),
                         "--out", str(tmp_path / "bad.pgc")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(text) in err and "UTF-8" in err


class TestFailedRunsWriteNothing:
    @pytest.mark.parametrize("setup,argv", [
        pytest.param(lambda p: Path("t.txt").write_bytes(b"\xff\xfethe hare .\n"),
                     "index --corpus t.txt --out x.pgc", id="index-not-utf8"),
        pytest.param(lambda p: Path("t.pgc").write_bytes(
                         p["corpus"].read_bytes()[:200]),
                     "train-lm --corpus t.pgc --out x.pglm", id="train-lm-truncated"),
        pytest.param(lambda p: Path("d").mkdir(),
                     "train-skipgram --corpus {corpus} --out x.pgsg --export-text d "
                     "--dim 2 --epochs 1", id="train-skipgram-export-to-directory"),
        pytest.param(lambda p: Path("d").mkdir(),
                     "train-skipgram --corpus {corpus} --out d --export-text x.vec "
                     "--dim 2 --epochs 1", id="train-skipgram-out-to-directory"),
        pytest.param(lambda p: Path("in.jsonl").write_text('{"sentence": "a hare ."}\n'),
                     "score --lm missing.pglm --input in.jsonl --output out.jsonl",
                     id="score-missing-lm"),
        pytest.param(lambda p: None,
                     "generate --corpus {corpus} --skipgram {skipgram} --pun hare "
                     "--alt hair --stage SWAP+TOPIC --output out.jsonl",
                     id="generate-topic-without-wordnet"),
        pytest.param(lambda p: (Path("r.csv").write_text("item_id,rater_id,score\n"
                                                         "a,r1,1\nb,r1,2\n"),
                                Path("s.jsonl").write_text('{"id": "a", "m": 1}\n'
                                                           '{"id": "z", "m": 2}\n')),
                     "correlate --ratings r.csv --scores s.jsonl --output o.tsv",
                     id="correlate-one-shared-item"),
    ])
    def test_no_new_file_after_a_data_error(self, pipeline, tmp_path, monkeypatch,
                                            capsys, setup, argv):
        """Run in an empty directory, a command that exits 2 leaves it as its
        inputs made it: no output, no temporary file."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PUNGEN_WORDNET", raising=False)
        setup(pipeline)
        before = sorted(Path().rglob("*"))
        paths = {name: str(path) for name, path in pipeline.items()}
        assert cli.main([arg.format(**paths) for arg in argv.split()]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(Path().rglob("*")) == before


class TestIndex:
    @pytest.mark.parametrize("vocab_dir", [False, True])
    def test_writes_one_file(self, pipeline, tmp_path, vocab_dir):
        """The corpus file embeds its vocabulary, so no sidecar is written,
        and a directory where one used to go is no obstacle."""
        if vocab_dir:
            (tmp_path / "x.pgc.vocab").mkdir()
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "x.pgc"
        assert cli.main(["index", "--corpus", str(pipeline["text"]),
                         "--out", str(out)]) == 0
        assert sorted(tmp_path.rglob("*")) == sorted(before + [out])
        vocab = load_corpus(out).vocab
        assert "hare" in vocab and "hair" in vocab

    @pytest.fixture(scope="class")
    def tagged(self, pipeline, miniwn, tmp_path_factory):
        """The demo corpus indexed from two tagged inputs that differ only in
        their tags: the dictionary's, and the tags in turn by position."""
        root = tmp_path_factory.mktemp("tagged")
        sentences, _ = ingest(pipeline["text"])
        lexicon = TagLexicon(nouns=miniwn.noun_lemmas(), verbs=miniwn.verb_lemmas())
        tag_of = {"lexicon": lambda i, word: lexicon.tag_word(word),
                  "rotated": lambda i, word: list(Pos)[i % len(Pos)]}
        corpora = {}
        for name, tag in tag_of.items():
            text = root / f"{name}.txt"
            text.write_text("".join(
                " ".join(f"{t}_{tag(i, t).name}" for i, t in enumerate(s.tokens))
                + "\n"
                for s in sentences), encoding="utf-8")
            corpora[name] = root / f"{name}.pgc"
            assert cli.main(["index", "--tagged", "--corpus", str(text),
                             "--out", str(corpora[name])]) == 0
        return corpora

    def test_tags_are_checked_not_stored(self, pipeline, tagged):
        assert (tagged["lexicon"].read_bytes() == tagged["rotated"].read_bytes()
                == pipeline["corpus"].read_bytes())

    def test_tagged_corpora_generate_the_same(self, pipeline, miniwn_dir, tagged,
                                              tmp_path):
        """Generation tags each seed with its dictionary, whatever the input's
        tags were."""
        outputs = []
        for corpus in (tagged["lexicon"], tagged["rotated"], pipeline["corpus"]):
            code, lines = _run(tmp_path, [
                "generate", "--corpus", str(corpus), "--skipgram",
                str(pipeline["skipgram"]), "--lm", str(pipeline["lm"]),
                "--wordnet", str(miniwn_dir), "--pun", "hare", "--alt", "hair",
                "--rerank"])
            assert code == 0
            outputs.append(lines)
        assert outputs[0] == outputs[1] == outputs[2]
        assert any(json.loads(line).get("stage") == "SWAP+TOPIC"
                   for line in outputs[0][1:])

    def test_bad_tag_is_one_line_data_error(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("the_OTHER dog_NOUNISH ran_VERB\n", encoding="utf-8")
        out = tmp_path / "t.pgc"
        assert cli.main(["index", "--tagged", "--corpus", str(text),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown tag 'NOUNISH'" in err
        assert not out.exists()

    def test_empty_surface_is_one_line_data_error(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("the_OTHER dog_NOUN\n_NOUN ran_VERB\n", encoding="utf-8")
        out = tmp_path / "t.pgc"
        assert cli.main(["index", "--tagged", "--corpus", str(text),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 2: token '_NOUN' has an empty surface" in err
        assert list(tmp_path.iterdir()) == [text]

    def test_fifo_out_stays_a_fifo_and_gets_the_corpus(self, tmp_path):
        """The reader opens first and the file stays far below a pipe's
        capacity, so the writer never waits."""
        text = tmp_path / "t.txt"
        text.write_text("the cat sat .\nthe dog ran .\n", encoding="utf-8")
        regular, fifo = tmp_path / "r.pgc", tmp_path / "f.pgc"
        assert cli.main(["index", "--corpus", str(text), "--out", str(regular)]) == 0
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli.main(["index", "--corpus", str(text), "--out", str(fifo)]) == 0
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == regular.read_bytes()

    def test_directory_out_is_one_line_data_error(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("the cat sat .\n", encoding="utf-8")
        out = tmp_path / "d"
        out.mkdir()
        assert cli.main(["index", "--corpus", str(text), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "t.txt"]
        assert list(out.iterdir()) == []


class TestScore:
    def _records(self):
        return [
            {"id": "a", "sentence": "The greyhound got a hare cut downtown.",
             "pun_word": "hare", "alt_word": "hair"},
            {"id": "b",
             "tokens": ["the", "barber", "gave", "the", "man", "a",
                        "hare", "cut", "."],
             "pun_word": "hare", "alt_word": "hair"},
            {"id": "bad", "sentence": "no pun here .",
             "pun_word": "zzzq", "alt_word": "hair"},
        ]

    def _write_input(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in self._records()))
        return path

    def test_input_file_as_output_is_read_first(self, pipeline, tmp_path):
        src = self._write_input(tmp_path)
        code, expected = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                         "--input", str(src)])
        assert code == 0 and len(expected) == 3
        assert cli.main(["score", "--lm", str(pipeline["lm"]), "--input", str(src),
                         "--output", str(src)]) == 0
        assert src.read_text(encoding="utf-8").splitlines() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]

    def test_scores_and_inline_errors(self, pipeline, tmp_path):
        src = self._write_input(tmp_path)
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0
        records = [json.loads(line) for line in lines]
        assert [r["id"] for r in records] == ["a", "b", "bad"]
        for rec in records[:2]:
            assert set(rec) >= {"s_local", "s_global", "s_ratio",
                                "unusualness", "degenerate"}
            assert "ambiguity" not in rec
        assert "error" in records[2] and "s_local" not in records[2]

    def test_unknown_pair_word_is_an_inline_error(self, pipeline, tmp_path):
        # the unknown-word symbol has no relatedness distribution of its own
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({
            "id": "x", "sentence": "The greyhound got a hare cut downtown.",
            "pun_word": "hare", "alt_word": "hairz"}) + "\n" + json.dumps({
            "id": "y", "tokens": ["the", "greyhound", "got", "a", "<unk>", "cut"],
            "pun_word": "<unk>", "alt_word": "hair"}) + "\n")
        for models in ([], ["--skipgram", str(pipeline["skipgram"])]):
            code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                          "--input", str(src)] + models)
            assert code == 0
            records = [json.loads(line) for line in lines]
            assert "'hairz' is not in the model vocabulary" in records[0]["error"]
            assert "'<unk>' is not in the model vocabulary" in records[1]["error"]
            assert all(set(r) == {"id", "error"} for r in records)

    def test_pair_word_holding_whitespace_is_an_inline_error(self, pipeline, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps({
            "id": i, "sentence": "The greyhound got a hare cut downtown.",
            "pun_word": pun, "alt_word": "hair"}) + "\n"
            for i, pun in enumerate(["hare cut", " hare", ""])))
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0
        assert [json.loads(line) for line in lines] == [
            {"id": i, "error": f"pair word {pun!r} is empty or holds whitespace"}
            for i, pun in enumerate(["hare cut", " hare", ""])]

    def test_pair_words_are_lowercased(self, pipeline, tmp_path):
        sentence = "The greyhound got a Hare cut downtown."
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": 1, "sentence": sentence,
                                   "pun_word": "Hare", "alt_word": "hair"}) + "\n"
                       + json.dumps({"id": 1, "sentence": sentence.lower(),
                                     "pun_word": "hare", "alt_word": "hair"}) + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--skipgram", str(pipeline["skipgram"]),
                                      "--input", str(src)])
        assert code == 0
        assert "error" not in json.loads(lines[0]) and lines[0] == lines[1]

    @pytest.mark.parametrize("data,code,lines", [
        (b'{"sentence": "a hare cut .", "pun_word": "hare", '
         b'"alt_word": "hair"}\n', 0, 1),
        (b"\xff\n", 2, 0)])
    def test_stdin_is_strict_utf8(self, pipeline, tmp_path, capsys,
                                  monkeypatch, data, code, lines):
        # latin-1 decodes any byte, so only a strict reader can reject \xff
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="latin-1"))
        got, out = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                   "--input", "-"])
        assert (got, len(out)) == (code, lines)
        err = capsys.readouterr().err
        if code:
            assert err.count("\n") == 1 and "<stdin>: not UTF-8" in err
        else:
            assert "error" not in json.loads(out[0])

    def test_skipgram_adds_meaning_fields(self, pipeline, tmp_path):
        src = self._write_input(tmp_path)
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--skipgram", str(pipeline["skipgram"]),
                                      "--input", str(src)])
        assert code == 0
        rec = json.loads(lines[0])
        assert 0.0 <= rec["ambiguity"] <= 0.6931471805599454
        assert rec["distinctiveness"] >= 0.0

    def test_no_content_words_print_a_float_distinctiveness(self, pipeline, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": 1, "tokens": ["hare", "."],
                                   "pun_word": "hare", "alt_word": "hair"}) + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--skipgram", str(pipeline["skipgram"]),
                                      "--input", str(src)])
        assert code == 0
        assert '"distinctiveness": 0.0,' in lines[0]

    # The walkthrough's files, byte for byte.  The .pgsg digest holds for one
    # machine type, numpy build and BLAS core, as the README says.
    @pytest.mark.parametrize("name,digest", [
        ("corpus", "14c05151b07ab819"), ("lm", "4e2e265e562f9278"),
        ("skipgram", "a8d7e542b98bc1db")])
    def test_readme_walkthrough_files_are_pinned(self, pipeline, name, digest):
        data = pipeline[name].read_bytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    def test_readme_walkthrough_lm_fields(self, pipeline, tmp_path):
        """The surprisal fields of the README walkthrough's score line.  They
        depend only on the .pglm bytes and left-to-right sums; the skip-gram
        fields also depend on the CPU's numpy dispatch, so they are not pinned."""
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({
            "id": 1, "sentence": "The greyhound got a hare cut downtown.",
            "pun_word": "hare", "alt_word": "hair"}) + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0
        assert json.loads(lines[0]) == {
            "degenerate": False, "id": 1,
            "s_global": 5.511363764777904, "s_local": 13.78491679434577,
            "s_ratio": 2.501180720902982, "unusualness": -1.3441139660425014}

    def test_explicit_position_overrides_search(self, pipeline, tmp_path):
        tokens = ["a", "hare", "saw", "a", "hare", "."]
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": "x", "tokens": tokens,
                                   "pun_word": "hare", "alt_word": "hair",
                                   "pun_position": 4}) + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0
        assert "error" not in json.loads(lines[0])

    def test_ambiguous_position_is_an_inline_error(self, pipeline, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": "x",
                                   "tokens": ["hare", "and", "hare"],
                                   "pun_word": "hare",
                                   "alt_word": "hair"}) + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0
        assert "pun_position" in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("bad,message", [
        ("[1]", "record must be a JSON object, got an array"),
        ('"x"', 'record must be a JSON object, got "x"'),
        ({"pun_position": True}, "'pun_position' must be an integer, got true"),
        ({"pun_position": 1.9}, "'pun_position' must be an integer, got 1.9"),
        ({"tokens": "hare cut"},
         "'tokens' must be a list of strings, got \"hare cut\""),
        ({"tokens": ["hare", 1]}, "'tokens' must hold strings only, got 1"),
        ({"tokens": None}, "'tokens' must be a list of strings, got null"),
        ({"pun_word": ["hare"]}, "'pun_word' must be a string, got an array"),
        ({"alt_word": {"w": "hair"}}, "'alt_word' must be a string, got an object"),
    ], ids=["array", "string", "bool-position", "float-position", "string-tokens",
            "number-token", "null-tokens", "list-pun-word", "object-alt-word"])
    def test_malformed_record_is_an_inline_error(self, pipeline, tmp_path,
                                                 capsys, bad, message):
        good = {"id": "ok", "tokens": ["a", "hare", "cut", "."],
                "pun_word": "hare", "alt_word": "hair", "pun_position": 1}
        line = bad if isinstance(bad, str) else json.dumps({**good, "id": "bad", **bad})
        src = tmp_path / "in.jsonl"
        src.write_text(line + "\n" + json.dumps(good) + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--skipgram", str(pipeline["skipgram"]),
                                      "--input", str(src)])
        assert code == 0 and capsys.readouterr().err == ""
        bad_id = 1 if isinstance(bad, str) else "bad"
        assert json.loads(lines[0]) == {"id": bad_id, "error": message}
        assert "ambiguity" in json.loads(lines[1])

    def test_ids_are_standard_json(self, pipeline, tmp_path):
        """A null id is the line number, as a missing one is.  A line holding
        a number that is not finite in float64, which strict JSON cannot
        write, is an inline error with its line number as id."""
        fields = '"sentence": "a hare cut .", "pun_word": "hare", "alt_word": "hair"'
        heads = ['"id": null', '"id": NaN', '"id": Infinity', '"id": -Infinity',
                 '"id": 1e400', '"id": "bad", "pun_position": Infinity',
                 '"id": [-1e999]']
        src = tmp_path / "in.jsonl"
        src.write_text("".join(f"{{{head}, {fields}}}\n" for head in heads))
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not standard JSON")
        records = [json.loads(line, parse_constant=refuse) for line in lines]
        assert [r["id"] for r in records] == list(range(1, 8))
        assert "s_ratio" in records[0]
        assert [r["error"] for r in records[1:]] == [
            f"number {n} is not finite in float64"
            for n in ("NaN", "Infinity", "-Infinity", "1e400", "Infinity", "-1e999")]

    def test_null_ids_are_line_numbers_correlate_accepts(self, pipeline, tmp_path):
        sentences = ["the greyhound got a hare cut downtown .",
                     "a greyhound chased the hare .", "she cut her hare short .",
                     "the hare ran fast .", "my barber gave me a hare cut ."]
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps({"id": None, "sentence": s,
                                           "pun_word": "hare", "alt_word": "hair"})
                               + "\n" for s in sentences))
        scores = tmp_path / "scores.jsonl"
        assert cli.main(["score", "--lm", str(pipeline["lm"]), "--input", str(src),
                         "--output", str(scores)]) == 0
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("item_id,rater_id,score\n"
                           + "".join(f"{i},r1,{i % 3}\n" for i in range(1, 6)))
        report = tmp_path / "report.tsv"
        assert cli.main(["correlate", "--ratings", str(ratings), "--scores",
                         str(scores), "--output", str(report),
                         "--permutations", "10"]) == 0
        rows = [line.split("\t") for line in report.read_text().splitlines()[1:]]
        assert {row[0]: row[1] for row in rows} == dict.fromkeys(
            ["s_global", "s_local", "s_ratio", "unusualness"], "5")

    def test_deeply_nested_line_is_an_inline_error(self, pipeline, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("[" * 100_000 + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0
        record = json.loads(lines[0])
        assert record["id"] == 1 and "recursion" in record["error"]

    def test_non_string_sentence_is_an_inline_error(self, pipeline, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"sentence": 5, "pun_word": "hare",
                                   "alt_word": "hair"}) + "\n")
        code, lines = _run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                      "--input", str(src)])
        assert code == 0
        assert json.loads(lines[0]) == {"id": 1,
                                        "error": "'sentence' must be a string, got 5"}

    def test_verbose_logs_relatedness_counts(self, pipeline, tmp_path, capsys,
                                            caplog):
        records = [json.dumps({"id": i, "sentence": sentence, "pun_word": "hare",
                               "alt_word": "hair"})
                   for i, sentence in enumerate(["a hare cut .", "the hare ran ."])]
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(records) + "\n")
        args = ["score", "--lm", str(pipeline["lm"]),
                "--skipgram", str(pipeline["skipgram"]), "--input", str(src)]
        assert cli.main(args) == 0
        quiet = capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="punforge.skipgram"):
            assert cli.main(args + ["-v"]) == 0
        assert capsys.readouterr().out == quiet.out and quiet.err == ""
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "punforge.skipgram"]
        # two records of one pair: two normalizers computed, two reused
        assert messages == ["relatedness normalizers: 2 computed, 2 reused"]
        assert all(r.levelno == logging.INFO for r in caplog.records
                   if r.name == "punforge.skipgram")

    def test_verbose_logs_record_counts(self, pipeline, tmp_path, capsys, caplog):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"id": "ok", "sentence": "a hare cut .",
                                   "pun_word": "hare", "alt_word": "hair"}) + "\n"
                       + json.dumps({"id": "bad", "sentence": "a hare cut .",
                                     "pun_word": "hare", "alt_word": "hairz"}) + "\n")
        args = ["score", "--lm", str(pipeline["lm"]), "--input", str(src)]
        assert cli.main(args) == 0
        quiet = capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="punforge.cli"):
            assert cli.main(args + ["-v"]) == 0
        assert capsys.readouterr().out == quiet.out and quiet.err == ""
        records = [r for r in caplog.records if r.name == "punforge.cli"]
        assert [(r.levelno, r.getMessage()) for r in records] == [
            (logging.INFO, "records scored: 1, inline errors: 1")]

    def test_log_lines_name_the_cli_logger_under_python_m(self, pipeline, tmp_path):
        """Run with ``python -m`` the module is ``__main__``, and its log
        lines still name ``punforge.cli``."""
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"sentence": "a hare cut .", "pun_word": "hare",
                                   "alt_word": "hair"}) + "\n")
        proc = _python_m_cli(["score", "--lm", str(pipeline["lm"]),
                              "--input", str(src), "-v"], text=True)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and len(out.splitlines()) == 1
        assert "INFO punforge.cli: records scored: 1, inline errors: 0" in \
            err.splitlines()

    def test_mismatched_model_vocabularies_rejected(self, pipeline, tmp_path,
                                                    capsys):
        other_text = tmp_path / "other.txt"
        other_text.write_text(
            "a completely different corpus with many more words than the"
            " demo corpus has .\n" * 30)
        other_corpus = tmp_path / "other.pgc"
        other_sg = tmp_path / "other.pgsg"
        assert cli.main(["index", "--corpus", str(other_text),
                         "--out", str(other_corpus)]) == 0
        assert cli.main(["train-skipgram", "--corpus", str(other_corpus),
                         "--out", str(other_sg), "--dim", "8",
                         "--epochs", "0"]) == 0
        src = self._write_input(tmp_path)
        code = cli.main(["score", "--lm", str(pipeline["lm"]),
                         "--skipgram", str(other_sg),
                         "--input", str(src), "--output",
                         str(tmp_path / "out.jsonl")])
        assert code == 2
        assert "vocabulary" in capsys.readouterr().err


class TestGenerate:
    def _topic_args(self, pipeline, miniwn_dir):
        return ["generate", "--corpus", str(pipeline["corpus"]),
                "--skipgram", str(pipeline["skipgram"]),
                "--wordnet", str(miniwn_dir),
                "--pun", "hare", "--alt", "hair"]

    def test_topic_stage_end_to_end(self, pipeline, miniwn_dir, tmp_path):
        code, lines = _run(tmp_path, self._topic_args(pipeline, miniwn_dir))
        assert code == 0
        meta = json.loads(lines[0])
        # generate draws no random number, so the meta record names no seed
        assert sorted(meta) == ["alt_word", "candidates", "failure", "pun_word",
                                "record", "stage", "warnings", "wordnet"]
        assert meta["record"] == "meta"
        assert meta["failure"] is None
        assert meta["candidates"] == len(lines) - 1
        assert meta["candidates"] >= 1
        for line in lines[1:]:
            cand = json.loads(line)
            assert cand["tokens"].count("hare") == 1
            assert "hair" not in cand["tokens"]
            assert cand["tokens"][cand["pun_position"]] == "hare"

    def test_unknown_word_symbol_as_pun_is_no_topic_words(self, pipeline, miniwn_dir,
                                                          tmp_path):
        """``<unk>`` stands for no word, so it has no topics of its own."""
        args = self._topic_args(pipeline, miniwn_dir)
        metas = {}
        for pun in ("<unk>", "zzzz"):
            code, lines = _run(tmp_path, args[:-4] + ["--pun", pun, "--alt", "hair"])
            meta = json.loads(lines[0])
            assert (code, len(lines), meta["failure"]) == (0, 1, "NO_TOPIC_WORDS")
            metas[pun] = json.dumps(meta).replace(pun, "PUN")
        assert metas["<unk>"] == metas["zzzz"]

    def test_tiny_threshold_runs_unbounded(self, pipeline, miniwn_dir,
                                           tmp_path, capsys):
        code, lines = _run(tmp_path, self._topic_args(pipeline, miniwn_dir)
                           + ["--threshold", "5e-324"])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(lines[0])["failure"] is None

    def test_same_seed_output_is_byte_identical(self, pipeline, miniwn_dir,
                                                tmp_path):
        args = self._topic_args(pipeline, miniwn_dir)
        _, first = _run(tmp_path, args)
        _, second = _run(tmp_path, args)
        assert first == second

    def test_swap_stage_needs_no_topic_resources(self, pipeline, tmp_path):
        code, lines = _run(tmp_path, ["generate",
                                      "--corpus", str(pipeline["corpus"]),
                                      "--pun", "hare", "--alt", "hair",
                                      "--stage", "SWAP"])
        assert code == 0
        assert all(json.loads(line)["stage"] == "SWAP" for line in lines[1:])

    def test_swap_stage_loads_no_skipgram_and_no_dictionary(self, pipeline, miniwn_dir,
                                                            tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the swap stage loaded a topic resource")

        monkeypatch.setattr(SkipGramModel, "load", refuse)
        monkeypatch.setattr(generator, "load_wordnet", refuse)
        code, lines = _run(tmp_path, self._topic_args(pipeline, miniwn_dir)
                           + ["--stage", "SWAP"])
        assert code == 0 and len(lines) > 1
        assert json.loads(lines[0])["wordnet"] is None

    @pytest.mark.parametrize("flags,code,message", [
        (["--pun", "a", "--alt", "b"], 1,
         "topic stage needs --skipgram (or use --stage SWAP)"),
        (["--pairs", "PAIRS", "--pun", "zzz", "--alt", "qqq", "--stage", "SWAP"], 1,
         "pass --pairs FILE or --pun and --alt, not both"),
        (["--pairs", "PAIRS", "--alt", "qqq", "--stage", "SWAP"], 1,
         "pass --pairs FILE or --pun and --alt, not both"),
        (["--pun", "hare", "--stage", "SWAP"], 1,
         "pass --pairs FILE or both --pun and --alt"),
        (["--pun", "hare cut", "--alt", "hair", "--stage", "SWAP"], 1,
         "pair word 'hare cut' is empty or holds whitespace"),
        (["--pun", "hare", "--alt", "Hare", "--stage", "SWAP"], 1,
         "pun and alternative words must differ"),
        (["--pairs", "PAIRS", "--stage", "SWAP", "--rerank"], 1, "--rerank needs --lm"),
        (["--pairs", "PAIRS", "--skipgram", "MODEL", "--wordnet", "DICT", "--rerank"],
         1, "--rerank needs --lm"),
        (["--pairs", "PAIRS", "--skipgram", "MODEL"], 2,
         "topic stage needs a dictionary: pass --wordnet or set PUNGEN_WORDNET"),
    ])
    def test_flags_are_checked_before_any_file_is_opened(self, tmp_path, capsys,
                                                         monkeypatch, flags, code,
                                                         message):
        """Every file named is missing, so a check made after a file is
        opened would exit 2 with that file's error instead."""
        monkeypatch.delenv("PUNGEN_WORDNET", raising=False)
        flags = [str(tmp_path / f"absent-{f}") if f in ("PAIRS", "MODEL", "DICT") else f
                 for f in flags]
        assert cli.main(["generate", "--corpus", str(tmp_path / "absent.pgc"),
                         "--output", str(tmp_path / "o.jsonl"), *flags]) == code
        prefix = "punforge: error: " if code == 1 else "punforge: "
        assert capsys.readouterr().err == prefix + message + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_topic_stage_without_skipgram_is_usage(self, pipeline, capsys):
        code = cli.main(["generate", "--corpus", str(pipeline["corpus"]),
                         "--pun", "hare", "--alt", "hair"])
        assert code == 1
        assert "--skipgram" in capsys.readouterr().err

    def test_topic_stage_without_wordnet_is_data_error(self, pipeline,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.delenv("PUNGEN_WORDNET", raising=False)
        code = cli.main(["generate", "--corpus", str(pipeline["corpus"]),
                         "--skipgram", str(pipeline["skipgram"]),
                         "--pun", "hare", "--alt", "hair",
                         "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "PUNGEN_WORDNET" in capsys.readouterr().err

    def test_wordnet_from_environment(self, pipeline, miniwn_dir, tmp_path,
                                      monkeypatch):
        monkeypatch.setenv("PUNGEN_WORDNET", str(miniwn_dir))
        code, lines = _run(tmp_path, ["generate",
                                      "--corpus", str(pipeline["corpus"]),
                                      "--skipgram", str(pipeline["skipgram"]),
                                      "--pun", "hare", "--alt", "hair"])
        assert code == 0
        assert json.loads(lines[0])["wordnet"].startswith("miniwn")

    def test_rerank_without_lm_is_usage(self, pipeline, miniwn_dir, capsys):
        code = cli.main(self._topic_args(pipeline, miniwn_dir) + ["--rerank"])
        assert code == 1
        assert "--lm" in capsys.readouterr().err

    def test_rerank_orders_by_surprisal_ratio(self, pipeline, miniwn_dir,
                                              tmp_path):
        args = self._topic_args(pipeline, miniwn_dir) + [
            "--lm", str(pipeline["lm"]), "--rerank"]
        code, lines = _run(tmp_path, args)
        assert code == 0
        ratios = [json.loads(line)["scores"]["s_ratio"] for line in lines[1:]]
        assert len(ratios) >= 2
        assert ratios == sorted(ratios, reverse=True)

    def test_pair_word_outside_the_lm_is_warned_not_scored(self, pipeline, tmp_path):
        """``score`` refuses the pair, so ``generate`` neither scores nor
        re-ranks it: the seeds keep their order."""
        message = "pair word 'zzzq' is not in the model vocabulary"
        records = tmp_path / "in.jsonl"
        records.write_text(json.dumps({"id": 1, "pun_word": "zzzq", "alt_word": "hair",
                                       "sentence": "the woman got a zzzq cut ."}) + "\n")
        assert cli.main(["score", "--lm", str(pipeline["lm"]), "--input", str(records),
                         "--output", str(tmp_path / "scores.jsonl")]) == 0
        assert message in (tmp_path / "scores.jsonl").read_text(encoding="utf-8")
        args = ["generate", "--corpus", str(pipeline["corpus"]), "--lm", str(pipeline["lm"]),
                "--pun", "zzzq", "--alt", "hair", "--stage", "SWAP"]
        code, lines = _run(tmp_path, args + ["--rerank"])
        assert code == 0
        meta, *candidates = map(json.loads, lines)
        assert meta["warnings"] == [message] and meta["failure"] is None
        assert len(candidates) == meta["candidates"] >= 2
        assert [c["seed_rank"] for c in candidates] == list(range(len(candidates)))
        assert not any("scores" in c for c in candidates)
        assert _run(tmp_path, args) == (0, lines)

    def test_pairs_file(self, pipeline, miniwn_dir, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("hare\thair\nflee\tflea\n")
        args = ["generate", "--corpus", str(pipeline["corpus"]),
                "--skipgram", str(pipeline["skipgram"]),
                "--wordnet", str(miniwn_dir), "--pairs", str(pairs)]
        code, lines = _run(tmp_path, args)
        assert code == 0
        metas = [json.loads(line) for line in lines
                 if json.loads(line)["record"] == "meta"]
        assert [(m["pun_word"], m["alt_word"]) for m in metas] == \
            [("hare", "hair"), ("flee", "flea")]

    def test_verbose_logs_type_row_counts(self, pipeline, miniwn_dir, tmp_path,
                                          capsys, caplog):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("hare\thair\nhare\thair\n")
        args = ["generate", "--corpus", str(pipeline["corpus"]),
                "--skipgram", str(pipeline["skipgram"]),
                "--wordnet", str(miniwn_dir), "--pairs", str(pairs)]
        assert cli.main(args) == 0
        quiet = capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="punforge.wordnet"):
            assert cli.main(args + ["-v"]) == 0
        assert capsys.readouterr().out == quiet.out and quiet.err == ""
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "punforge.wordnet"]
        # the first pair builds a row for each of two replaced words and
        # the repeated pair reuses both
        assert messages == ["type rows: 2 built, 2 reused; "
                            "largest 11 synsets, 13 noun lemmas"]

    def test_pairs_file_line_with_equal_words_is_data_error(self, pipeline,
                                                            tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("hare\thair\nflea\tflea\n")
        code = cli.main(["generate", "--corpus", str(pipeline["corpus"]),
                         "--pairs", str(pairs), "--stage", "SWAP",
                         "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert f"{pairs}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["hare\t hair", "hare \thair", " hare \t hair "])
    def test_pairs_fields_are_stripped(self, pipeline, tmp_path, line):
        outputs = []
        for text in ("hare\thair\n", line + "\n"):
            pairs = tmp_path / "pairs.tsv"
            pairs.write_text(text)
            outputs.append(_run(tmp_path, ["generate", "--corpus", str(pipeline["corpus"]),
                                           "--pairs", str(pairs), "--stage", "SWAP"]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and json.loads(outputs[0][1][0])["failure"] is None

    def test_pairs_field_holding_whitespace_is_data_error(self, pipeline, tmp_path,
                                                          capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("hare\thair\nhare cut\thair\n")
        code = cli.main(["generate", "--corpus", str(pipeline["corpus"]),
                         "--pairs", str(pairs), "--stage", "SWAP",
                         "--output", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"punforge: {pairs}:2: pair word 'hare cut' is empty or holds whitespace\n")

    def test_malformed_pairs_file_is_data_error(self, pipeline, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("hare hair\n")
        code = cli.main(["generate", "--corpus", str(pipeline["corpus"]),
                         "--pairs", str(pairs), "--stage", "SWAP",
                         "--output", str(tmp_path / "o.jsonl")])
        assert code == 2


class TestCorrelate:
    def _fixture_files(self, tmp_path, pipeline):
        ratings = tmp_path / "ratings.csv"
        rows = ["item_id,rater_id,score"]
        items = ["a", "b", "c", "d", "e"]
        for idx, item in enumerate(items):
            rows.append(f"{item},r1,{idx + 1}")
            rows.append(f"{item},r2,{idx + 1.5}")
        ratings.write_text("\n".join(rows) + "\n")
        scores = tmp_path / "scores.jsonl"
        with open(scores, "w") as fh:
            for idx, item in enumerate(items):
                fh.write(json.dumps({"id": item, "s_ratio": float(idx),
                                     "unusualness": float(-idx),
                                     "degenerate": False}) + "\n")
        return ratings, scores

    def test_tsv_report(self, pipeline, tmp_path):
        ratings, scores = self._fixture_files(tmp_path, pipeline)
        out = tmp_path / "report.tsv"
        code = cli.main(["correlate", "--ratings", str(ratings),
                         "--scores", str(scores), "--output", str(out),
                         "--permutations", "500", "--seed", "3"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric\tn\tspearman\tp_value"
        table = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert set(table) == {"s_ratio", "unusualness"}  # booleans skipped
        assert table["s_ratio"][1] == "5"
        assert float(table["s_ratio"][2]) == pytest.approx(1.0)
        assert float(table["unusualness"][2]) == pytest.approx(-1.0)
        assert 0.0 < float(table["s_ratio"][3]) <= 1.0

    def test_deterministic_given_seed(self, pipeline, tmp_path):
        ratings, scores = self._fixture_files(tmp_path, pipeline)
        outputs = []
        for name in ("one.tsv", "two.tsv"):
            out = tmp_path / name
            assert cli.main(["correlate", "--ratings", str(ratings),
                             "--scores", str(scores), "--output", str(out),
                             "--permutations", "200", "--seed", "11"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_insufficient_overlap_is_data_error(self, pipeline, tmp_path,
                                                capsys):
        ratings, _ = self._fixture_files(tmp_path, pipeline)
        scores = tmp_path / "lonely.jsonl"
        scores.write_text(json.dumps({"id": "a", "s_ratio": 1.0}) + "\n")
        code = cli.main(["correlate", "--ratings", str(ratings),
                         "--scores", str(scores),
                         "--output", str(tmp_path / "o.tsv")])
        assert code == 2

    @pytest.mark.parametrize("name,text,where", [
        ("ratings.csv", "item_id,rater_id,score\na,r1,x\n", ":2: score is not a number"),
        ("ratings.csv", "item_id,rater_id,score\na,r1,nan\n", ":2: score is not finite"),
        ("ratings.csv", "item_id,rater_id,score\na\n", ":2: expected item_id"),
        ("ratings.csv", "item,rater,score\na,r1,1\n", ":1: header must name"),
        pytest.param("ratings.csv", "item_id,rater_id,score\na,r1,1\nb,r1,2\na,r1,NA\n",
                     ":4: item 'a', rater 'r1' repeats line 2", id="ratings.csv-repeated-row"),
        ("scores.jsonl", '{"id": "a", "s_ratio": 1.0}\nnot json\n', ":2: not a JSON"),
        ("scores.jsonl", "[1, 2]\n", ":1: not a JSON object"),
        pytest.param("scores.jsonl", "[" * 100_000 + "\n", ":1: not a JSON object",
                     id="scores.jsonl-nested-too-deeply"),
        pytest.param("scores.jsonl", '{"id": "a", "flat": 1}\n{"s_ratio": 1.0}\n',
                     ":2: metrics without an id", id="scores.jsonl-no-id"),
        pytest.param("scores.jsonl", '{"id": null, "s_ratio": 1.0}\n',
                     ":1: metrics without an id", id="scores.jsonl-null-id"),
        pytest.param("scores.jsonl", '{"id": "a"}\n{"id": "a", "s_ratio": 1.0}\n'
                     '{"id": "b", "s_ratio": 2.0}\n{"id": "a", "s_ratio": 3.0}\n',
                     ":4: id 'a' repeats line 2", id="scores.jsonl-repeated-id"),
    ])
    def test_malformed_input_is_one_line_data_error(self, tmp_path, capsys,
                                                    name, text, where):
        ratings, scores = self._fixture_files(tmp_path, None)
        (tmp_path / name).write_text(text)
        code = cli.main(["correlate", "--ratings", str(ratings),
                         "--scores", str(scores),
                         "--output", str(tmp_path / "o.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{tmp_path / name}{where}" in err

    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_metric_leaves_output_unchanged(self, tmp_path, capsys,
                                                    existing):
        """The second metric fails after the header and the first metric's
        row are written: a new file is not left, an old one keeps its bytes."""
        ratings, scores = self._fixture_files(tmp_path, None)
        scores.write_text("".join(
            json.dumps({"id": item, "a_rank": float(i), "z_flat": 1.0}) + "\n"
            for i, item in enumerate("abcde")))
        out = tmp_path / "o.tsv"
        if existing:
            out.write_text("old\n")
        code = cli.main(["correlate", "--ratings", str(ratings),
                         "--scores", str(scores), "--permutations", "50",
                         "--output", str(out)])
        assert code == 2
        assert "'z_flat'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["o.tsv", "ratings.csv", "scores.jsonl"][not existing:]
        if existing:
            assert out.read_text() == "old\n"

    def test_constant_metric_column_is_data_error(self, tmp_path, capsys):
        ratings, scores = self._fixture_files(tmp_path, None)
        scores.write_text("".join(json.dumps({"id": item, "flat": 1.0}) + "\n"
                                  for item in "abcde"))
        code = cli.main(["correlate", "--ratings", str(ratings),
                         "--scores", str(scores),
                         "--output", str(tmp_path / "o.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'flat'" in err and "constant" in err

    def test_mutated_inputs_exit_0_or_2_without_traceback(self, tmp_path,
                                                         capsys):
        ratings, scores = self._fixture_files(tmp_path, None)
        originals = {ratings: ratings.read_bytes(), scores: scores.read_bytes()}
        rng = random.Random(2024)
        codes = set()
        for _ in range(200):
            target = rng.choice(list(originals))
            blob = bytearray(originals[target])
            if rng.random() < 0.3:
                del blob[rng.randrange(len(blob)):]
            else:
                for _ in range(rng.randint(1, 3)):
                    blob[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
            for path, original in originals.items():
                path.write_bytes(bytes(blob) if path == target else original)
            try:
                code = cli.main(["correlate", "--ratings", str(ratings),
                                 "--scores", str(scores), "--permutations", "20",
                                 "--output", str(tmp_path / "o.tsv")])
            except Exception as exc:  # report the input that escaped
                pytest.fail(f"{target.name} {bytes(blob)!r}: {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2) and "Traceback" not in err, bytes(blob)
            codes.add(code)
        assert codes == {0, 2}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("target,lines,message", [
        ("ratings.csv", ["item_id,rater_id,score", "a,r1,1e308", "b,r1,1e308",
                         "c,r1,-1e308"],
         "ratings.csv: rater 'r1': mean or standard deviation is not finite"),
        ("scores.jsonl", ['{"id": "a", "m": 1e308}', '{"id": "b", "m": -1e308}',
                          '{"id": "c", "m": 0}'],
         "metric 'm': mean or standard deviation is not finite"),
    ], ids=["ratings", "metric"])
    def test_overflowing_spread_is_one_line_data_error(self, tmp_path, capsys,
                                                       target, lines, message):
        """Scores whose mean or spread overflows float64 are refused in one
        line, not turned into NaN z-scores or a 'constant vector'."""
        self._fixture_files(tmp_path, None)
        (tmp_path / target).write_text("\n".join(lines) + "\n")
        code = cli.main(["correlate", "--ratings", str(tmp_path / "ratings.csv"),
                         "--scores", str(tmp_path / "scores.jsonl"),
                         "--output", str(tmp_path / "o.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_metric_is_one_line_data_error(self, tmp_path, capsys,
                                                      value):
        ratings, scores = self._fixture_files(tmp_path, None)
        lines = scores.read_text().splitlines()
        lines[2] = '{"id": "c", "s_ratio": %s}' % value
        scores.write_text("\n".join(lines) + "\n")
        code = cli.main(["correlate", "--ratings", str(ratings),
                         "--scores", str(scores),
                         "--output", str(tmp_path / "o.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{scores}:3:" in err and "finite" in err


class TestTextInputsNotUtf8:
    @pytest.mark.parametrize("what,expected", [
        ("config", 1), ("pairs", 2), ("input", 2), ("wordnet", 2)])
    def test_one_line_error_naming_the_file(self, pipeline, miniwn_dir,
                                            tmp_path, capsys, what, expected):
        wordnet = tmp_path / "wn"
        shutil.copytree(miniwn_dir, wordnet)
        bad = wordnet / "index.noun" if what == "wordnet" else tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe" + (bad.read_bytes() if bad.exists() else b""))
        corpus, lm = str(pipeline["corpus"]), str(pipeline["lm"])
        argv = {
            "config": ["train-lm", "--corpus", corpus, "--out",
                       str(tmp_path / "m.pglm"), "--config", str(bad)],
            "pairs": ["generate", "--corpus", corpus, "--pairs", str(bad),
                      "--stage", "SWAP"],
            "input": ["score", "--lm", lm, "--input", str(bad)],
            "wordnet": ["generate", "--corpus", corpus, "--pun", "hare",
                        "--alt", "hair", "--skipgram", str(pipeline["skipgram"]),
                        "--wordnet", str(wordnet)],
        }[what]
        assert cli.main(argv + ["--output", str(tmp_path / "o")]
                        if what != "config" else argv) == expected
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bad}: not UTF-8" in err


class TestTextInputsWithByteOrderMark:
    """A leading UTF-8 byte-order mark is not data: each text input gives
    the same output with one as without."""

    @pytest.mark.parametrize("what", ["corpus", "config", "pairs", "input",
                                      "ratings", "scores"])
    def test_same_output_as_the_plain_file(self, pipeline, tmp_path, what):
        paths = {name: tmp_path / name for name in
                 ("corpus", "config", "pairs", "input", "ratings", "scores")}
        paths["corpus"].write_text(_FUZZ_TEXT.lstrip())  # a word comes first
        paths["config"].write_text('{"order": 3}')
        paths["pairs"].write_text("hare\thair\n")
        paths["input"].write_text(json.dumps(
            {"sentence": "a hare cut .", "pun_word": "hare", "alt_word": "hair"}) + "\n")
        paths["ratings"].write_text("item_id,rater_id,score\n" + "".join(
            f"{item},r{r},{(i * r) % 5}\n" for i, item in enumerate("abcde")
            for r in (1, 2)))
        paths["scores"].write_text("".join(
            json.dumps({"id": item, "s": float(i)}) + "\n"
            for i, item in enumerate("abcde")))
        corpus, lm = str(pipeline["corpus"]), str(pipeline["lm"])

        def run(out):
            argv = {
                "corpus": ["index", "--corpus", str(paths["corpus"]), "--out", out],
                "config": ["train-lm", "--corpus", corpus, "--out", out,
                           "--config", str(paths["config"])],
                "pairs": ["generate", "--corpus", corpus, "--pairs",
                          str(paths["pairs"]), "--stage", "SWAP", "--output", out],
                "input": ["score", "--lm", lm, "--input", str(paths["input"]),
                          "--output", out],
            }.get(what, ["correlate", "--ratings", str(paths["ratings"]),
                         "--scores", str(paths["scores"]), "--permutations", "100",
                         "--output", out])
            assert cli.main(argv) == 0
            return Path(out).read_bytes()

        plain = run(str(tmp_path / "plain.out"))
        paths[what].write_bytes(b"\xef\xbb\xbf" + paths[what].read_bytes())
        assert run(str(tmp_path / "bom.out")) == plain

    def test_stdin_same_output_as_without(self, pipeline, tmp_path, monkeypatch):
        record = (b'{"sentence": "a hare cut .", "pun_word": "hare", '
                  b'"alt_word": "hair"}\n')
        outputs = []
        for data in (record, b"\xef\xbb\xbf" + record):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
                io.BytesIO(data), encoding="latin-1"))
            outputs.append(_run(tmp_path, ["score", "--lm", str(pipeline["lm"]),
                                           "--input", "-"]))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


_FUZZ_TEXT = """
the barber gave the man a hair cut today .
she brushed her long hair before the show .
a hare ran across the green field at dawn .
the old dog chased a hare into the woods .
my hair turned grey in the cold winter .
the farmer saw the hare near the barn again .
"""


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """A six-sentence corpus with its LM and skip-gram, built by the CLI."""
    root = tmp_path_factory.mktemp("small")
    text = root / "small.txt"
    text.write_text(_FUZZ_TEXT)
    files = {ext: root / f"small.{ext}" for ext in ("pgc", "pglm", "pgsg")}
    assert cli.main(["index", "--corpus", str(text), "--out", str(files["pgc"])]) == 0
    assert cli.main(["train-lm", "--corpus", str(files["pgc"]), "--order", "3",
                     "--out", str(files["pglm"])]) == 0
    assert cli.main(["train-skipgram", "--corpus", str(files["pgc"]),
                     "--out", str(files["pgsg"]), "--dim", "4", "--epochs", "1",
                     "--d1", "2", "--d2", "4"]) == 0
    records = root / "in.jsonl"
    records.write_text(json.dumps({"sentence": "the barber gave a hare cut .",
                                   "pun_word": "hare", "alt_word": "hair"}) + "\n")
    return files, records


def _write_with_format_fault(files, ext, bad, problem):
    """Write to ``bad`` the ``ext`` file of ``files`` with one fault that only
    its format module finds: a repeated sentence id, unsorted top-order
    n-gram keys or two of their suffix rows swapped, as ``problem`` names,
    or embedding tables of another size than the header's."""
    corpus = load_corpus(files["pgc"])
    if ext == "pgc":
        s = corpus.sentences
        repeated = Sentences.number([*s.sent_ids.tolist(), int(s.sent_ids[0])],
                                    [t.tokens for t in [*s, s[0]]])
        save_corpus(bad, Corpus(repeated, corpus.vocab))
    elif ext == "pglm":
        lm = train_lm(corpus.sentences, corpus.vocab, order=3)
        backoff, keys, probs, suffix = lm._stored[-1]
        lm._stored[-1] = ((backoff, keys, probs, suffix[[1, 0, *range(2, len(suffix))]])
                          if "suffix" in problem
                          else (backoff, keys[::-1], probs[::-1], suffix[::-1]))
        lm.save(bad)
    else:
        model = SkipGramModel.load(files["pgsg"])
        SkipGramModel(model.vocab, dataclasses.replace(model.config, dim=5),
                      model.vec_in, model.vec_out).save(bad)


class TestModelFiles:
    def _command(self, small_models, ext, path, out):
        files, records = small_models
        if ext == "pgc":
            return ["generate", "--corpus", str(path), "--pun", "hare",
                    "--alt", "hair", "--stage", "SWAP", "--output", str(out)]
        skipgram = ["--skipgram", str(path)] if ext == "pgsg" else []
        lm = path if ext == "pglm" else files["pglm"]
        return ["score", "--lm", str(lm), "--input", str(records),
                "--output", str(out)] + skipgram

    @pytest.mark.parametrize("ext", ["pgc", "pglm", "pgsg"])
    def test_bad_utf8_in_embedded_vocabulary(self, small_models, tmp_path,
                                             capsys, ext):
        blob = small_models[0][ext].read_bytes()
        at = blob.index(b"hare")
        bad = tmp_path / f"bad.{ext}"
        bad.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        code = cli.main(self._command(small_models, ext, bad, tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bad} is not UTF-8" in err

    @pytest.mark.parametrize("ext", ["pgc", "pglm", "pgsg"])
    @pytest.mark.parametrize("mutate,message", [
        (lambda blob, at: blob[:at + 2], "truncated file"),
        (lambda blob, at: blob[:at + 1] + b"b" + blob[at + 2:],  # hare -> hbre
         "embedded vocabulary is corrupt"),
    ], ids=["truncated", "bit-flipped"])
    def test_damaged_vocabulary_block_is_one_line_data_error(
            self, small_models, tmp_path, capsys, ext, mutate, message):
        blob = small_models[0][ext].read_bytes()
        bad = tmp_path / f"bad.{ext}"
        bad.write_bytes(mutate(blob, blob.index(b"hare")))
        out = tmp_path / "o"
        code = cli.main(self._command(small_models, ext, bad, out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("ext,magic", [("pgc", b"PGC1"), ("pgc", b"PGC3"),
                                           ("pglm", b"PGLM"), ("pglm", b"PGL2"),
                                           ("pgc", b"PGC4"), ("pglm", b"PGL3"),
                                           ("pgsg", b"PGSG"), ("pgc", b"PGC5"),
                                           ("pgc", b"PGC6"), ("pglm", b"PGL4"),
                                           ("pgsg", b"PGS2"), ("pglm", b"PGL5"),
                                           ("pglm", b"PGL6"), ("pgc", b"PGC7"),
                                           ("pglm", b"PGL7"), ("pgsg", b"PGS3"),
                                           ("pglm", b"PGL8"), ("pglm", b"PGL9")])
    def test_old_format_is_one_line_data_error(self, small_models, tmp_path,
                                               capsys, ext, magic):
        old = tmp_path / f"old.{ext}"
        old.write_bytes(magic + small_models[0][ext].read_bytes()[4:])
        code = cli.main(self._command(small_models, ext, old, tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"bad magic {magic!r}" in err

    @pytest.mark.parametrize("ext,kind,problem", [
        ("pgc", "corpus", "sentence arrays disagree"),
        ("pglm", "language model", "order 3: keys do not strictly increase"),
        ("pglm", "language model", "order 3: a row whose suffix is not stored"),
        ("pgsg", "skip-gram model", "embedding table has the wrong size"),
    ])
    @pytest.mark.parametrize("fault", ["format", "trailing-bytes"])
    def test_structural_fault_is_one_corrupt_line(self, small_models, tmp_path, capsys,
                                                  ext, kind, problem, fault):
        """A fault the format module finds and bytes after the last block
        both read ``corrupt <kind> <file>: <problem>``."""
        bad = tmp_path / f"bad.{ext}"
        if fault == "format":
            _write_with_format_fault(small_models[0], ext, bad, problem)
        else:
            bad.write_bytes(small_models[0][ext].read_bytes() + bytes(28))
            problem = "bytes after the last block"
        out = tmp_path / "o"
        code = cli.main(self._command(small_models, ext, bad, out))
        assert code == 2
        assert capsys.readouterr().err == f"punforge: corrupt {kind} {bad}: {problem}\n"
        assert not out.exists()

    def test_mutated_files_exit_2_without_traceback(self, small_models,
                                                    tmp_path, capsys):
        """Every file carries a checksum, so no damaged file loads."""
        originals = {ext: path.read_bytes() for ext, path in small_models[0].items()}
        rng = random.Random(2025)
        codes = set()
        for _ in range(300):
            ext = rng.choice(sorted(originals))
            blob = bytearray(originals[ext])
            if rng.random() < 0.3:
                del blob[rng.randrange(len(blob)):]
            else:
                for _ in range(rng.randint(1, 3)):
                    blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            bad = tmp_path / f"bad.{ext}"
            bad.write_bytes(bytes(blob))
            try:
                code = cli.main(self._command(small_models, ext, bad, tmp_path / "o"))
            except Exception as exc:  # report the input that escaped
                pytest.fail(f"{ext} {bytes(blob)!r}: {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2) and "Traceback" not in err, bytes(blob)
            if code == 2:
                assert err.count("\n") == 1, err
            codes.add((ext, code))
        assert codes == {(ext, 2) for ext in originals}


class TestTrainLmLog:
    def test_verbose_logs_discounts_stored_rows_and_fallbacks(
            self, small_models, tmp_path, capsys, caplog):
        corpus = str(small_models[0]["pgc"])
        quiet, verbose = tmp_path / "quiet.pglm", tmp_path / "verbose.pglm"
        assert cli.main(["train-lm", "--corpus", corpus, "--out", str(quiet)]) == 0
        quiet_out = capsys.readouterr().out
        with caplog.at_level(logging.INFO, logger="punforge.ngram_lm"):
            assert cli.main(["train-lm", "--corpus", corpus, "--out", str(verbose),
                             "-v"]) == 0
        assert capsys.readouterr().out == quiet_out == ""
        assert verbose.read_bytes() == quiet.read_bytes()
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "punforge.ngram_lm"]
        # discounts and stored rows counted apart, from the recursion's tables
        loaded = load_corpus(corpus)
        oracle = CountTablesKN([loaded.vocab.encode(s.tokens) for s in loaded.sentences],
                               len(loaded.vocab), NGramModel.load(quiet).order)
        discounts = oracle.discounts
        fell_back = [k for k, d in enumerate(discounts, start=1)
                     if d == (FALLBACK_DISCOUNT,) * 3]
        assert messages[:2 * len(discounts)] == [
            line for k, ((d1, d2, d3), level) in enumerate(zip(discounts, oracle.levels),
                                                           start=1)
            for line in (
                f"order {k} discounts: D1 {d1:.6g}, D2 {d2:.6g}, D3+ {d3:.6g}",
                f"order {k} stores {sum(len(words) for words, _, _ in level.values())}"
                f" n-grams and {len(level)} contexts")]
        assert fell_back  # six sentences are too few for n1..n4 at some order
        assert messages[2 * len(discounts):] == [
            f"orders {', '.join(map(str, fell_back))} fell back to the fixed "
            f"discount 0.75 (degenerate count-of-counts)"]


class TestTrainSkipgramLog:
    def test_verbose_logs_epoch_losses_and_keeps_bytes(self, small_models, tmp_path,
                                                       capsys, caplog):
        args = ["train-skipgram", "--corpus", str(small_models[0]["pgc"]),
                "--dim", "4", "--epochs", "3", "--d1", "2", "--d2", "4"]
        quiet, verbose = tmp_path / "quiet.pgsg", tmp_path / "verbose.pgsg"
        assert cli.main(args + ["--out", str(quiet)]) == 0
        with caplog.at_level(logging.INFO, logger="punforge.skipgram"):
            assert cli.main(args + ["--out", str(verbose), "-v"]) == 0
        assert capsys.readouterr().out == ""
        assert verbose.read_bytes() == quiet.read_bytes()
        records = [r for r in caplog.records if r.name == "punforge.skipgram"]
        assert [r.levelno for r in records] == [logging.INFO] * 3
        found = [re.fullmatch(r"skip-gram epoch (\d)/3: mean loss (\d+\.\d{6}) "
                              r"over (\d+) pairs", r.getMessage()) for r in records]
        assert [m.group(1) for m in found] == ["1", "2", "3"]
        assert all(0 < float(m.group(2)) for m in found)
        assert len({m.group(3) for m in found}) == 1


class TestTrainSkipgramExport:
    def test_export_comes_with_the_same_model(self, small_models, tmp_path):
        args = ["train-skipgram", "--corpus", str(small_models[0]["pgc"]),
                "--dim", "4", "--epochs", "1", "--d1", "2", "--d2", "4"]
        plain, model, vec = (tmp_path / name for name in ("p.pgsg", "m.pgsg", "m.vec"))
        assert cli.main(args + ["--out", str(plain)]) == 0
        assert cli.main(args + ["--out", str(model), "--export-text", str(vec)]) == 0
        assert model.read_bytes() == plain.read_bytes()
        loaded = SkipGramModel.load(model)
        lines = vec.read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"{len(loaded.vocab)} 4" and len(lines) == len(loaded.vocab) + 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.pgsg", "m.vec", "p.pgsg"]


class TestBrokenPipe:
    def test_reader_closing_early_exits_0_quietly(self, small_models, tmp_path):
        """``punforge score ... | head -c 300``: no message, exit code 0."""
        record = json.dumps({"sentence": "the barber gave a hare cut .",
                             "pun_word": "hare", "alt_word": "hair"})
        records = tmp_path / "many.jsonl"
        records.write_text((record + "\n") * 5000)  # far more than a pipe holds
        proc = _python_m_cli(["score", "--lm", str(small_models[0]["pglm"]),
                              "--input", str(records)])
        head = proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert len(head) == 300 and err == b""


class TestRuntimeLine:
    def test_verbose_logs_one_runtime_line_and_keeps_stdout(self, pipeline, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"sentence": "a hare cut .", "pun_word": "hare",
                                   "alt_word": "hair"}) + "\n")
        argv = ["score", "--lm", str(pipeline["lm"]), "--input", str(src)]
        (quiet_out, quiet_err), (out, err) = (
            _python_m_cli(argv + flags, text=True).communicate(timeout=120)
            for flags in ([], ["-v"]))
        assert quiet_err == "" and out == quiet_out and len(out.splitlines()) == 1
        lines = [line for line in err.splitlines() if "punforge.runtime" in line]
        assert len(lines) == 1
        state = runtime_state()
        libc, version = platform.libc_ver()
        assert lines[0] == (
            f"INFO punforge.runtime: Python {platform.python_version()}, "
            f"numpy {np.__version__}, SIMD {' '.join(state['simd']) or 'baseline'}, "
            f"OpenBLAS core {state['blas_core'] or 'unknown'}, "
            f"{f'{libc} {version}' if libc else 'libc unknown'}")
