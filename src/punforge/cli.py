"""Command-line interface.

Subcommands: index, train-lm, train-skipgram, score, generate, correlate.

Option values resolve in precedence order: explicit flag, then JSON config
file (--config), then environment variable (prefix PUNGEN_, e.g.
PUNGEN_WORDNET), then built-in default.  Exit codes: 0 success (also when
the reader of standard output closes the pipe early), 1 usage error, 2 data
or resource error.  Per-record failures in batch scoring are reported inline
in the output stream and do not abort the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import ContextManager, Iterator, Mapping, TextIO

import numpy as np

from . import binio, runtime, stats
from .corpus import (DEFAULT_MIN_COUNT, Corpus, check_min_count, ingest,
                     load_corpus, save_corpus, tokenize)
from .errors import (FormatError, PunforgeError, ResourceError, open_text,
                     strict_utf8)
from .generator import (GenerationConfig, GenerationResources, STAGE_SWAP,
                        STAGE_TOPIC, generate)
from .kao import check_pair_words, meaning_report
from .ngram_lm import (DEFAULT_ORDER, MAX_ORDER, MIN_ORDER, NGramModel,
                       check_order, train_lm)
from .skipgram import SkipGramConfig, SkipGramModel, train_skipgram
from .surprisal import PunOccurrence, PunPair, score_occurrence

log = logging.getLogger("punforge.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

ENV_PREFIX = "PUNGEN_"


# The library configs own the defaults and range checks of their fields.
_LIBRARY_CONFIGS = (SkipGramConfig, GenerationConfig)
# Tunables outside those configs: (name, type, default, range check or None),
# each default and check taken from the module that uses the value.
_CLI_FIELDS = [
    ("order", int, DEFAULT_ORDER, check_order),
    ("min_count", int, DEFAULT_MIN_COUNT, check_min_count),
    ("wordnet", str | None, None, None),
    ("min_rater_corr", float, stats.DEFAULT_MIN_CORR, stats.check_min_corr),
    ("permutations", int, stats.DEFAULT_PERMUTATIONS, stats.check_permutations),
    ("clip", float, stats.DEFAULT_CLIP, stats.check_clip),
]

RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(f.name, f.type, f.default)
     for owner in _LIBRARY_CONFIGS for f in dataclasses.fields(owner)]
    + [(name, type_, default) for name, type_, default, _ in _CLI_FIELDS],
    namespace={"__doc__": "All tunables with their defaults; see the module "
                          "docstring for precedence."},
)


def _owner_config(cfg: RunConfig, owner: type):
    """An ``owner`` config holding ``cfg``'s values for the owner's fields."""
    return owner(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(owner)})


class UsageError(Exception):
    pass


def _coerce(name: str, raw: str, target_type: type) -> object:
    try:
        if target_type is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return target_type(raw)
    except ValueError:
        raise UsageError(f"bad value for {name}: {raw!r}") from None


def _json_fits(raw: int | float | bool, field_type: type) -> bool:
    """Whether a JSON number or boolean is a value of ``field_type``.

    An integer fits a float field; a float never fits an int field, and a
    boolean fits only a bool field (``bool`` subclasses ``int``).
    """
    return type(raw) is field_type or (field_type is float and type(raw) is int)


def resolve_config(flag_values: Mapping[str, object],
                   config_path: str | None,
                   env: Mapping[str, str] | None = None) -> RunConfig:
    """Merge flags over config file over environment over defaults."""
    env = os.environ if env is None else env
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}

    file_values: dict[str, object] = {}
    if config_path:
        try:
            with open_text(config_path) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except (json.JSONDecodeError, FormatError, RecursionError) as exc:
            # JSON text is UTF-8; a RecursionError is JSON nested too deeply
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        for key in file_values:
            if key not in fields:
                raise UsageError(f"unknown config key {key!r}")

    values: dict[str, object] = {}
    for name, spec in fields.items():
        base_type = {int: int, float: float, bool: bool}.get(type(spec.default), str)
        flag = flag_values.get(name)
        if flag is not None:
            values[name] = flag
        elif name in file_values:
            raw = file_values[name]
            if raw is not None and not isinstance(raw, (int, float, bool, str)):
                raise UsageError(f"config key {name!r} has a non-scalar value")
            if isinstance(raw, (int, float, bool)) and not _json_fits(raw, base_type):
                article = "an" if base_type is int else "a"
                raise UsageError(f"config key {name!r} needs {article} "
                                 f"{base_type.__name__} value, got {json.dumps(raw)}")
            values[name] = (
                None if raw is None
                else _coerce(name, str(raw), base_type) if isinstance(raw, str)
                else raw
            )
        elif (env_raw := env.get(ENV_PREFIX + name.upper())) is not None:
            values[name] = _coerce(name, env_raw, base_type)
        else:
            values[name] = spec.default
    cfg = RunConfig(**values)
    try:  # a TypeError is a value of the wrong type, such as a JSON null
        for owner in _LIBRARY_CONFIGS:
            _owner_config(cfg, owner)
        for name, _, _, check in _CLI_FIELDS:
            if check is not None:
                check(getattr(cfg, name))
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return cfg


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 1 instead of 2."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file with option defaults")
    sub.add_argument("-v", "--verbose", action="count", default=0,
                     help="log progress to stderr (-vv for debug)")


def build_parser() -> _Parser:
    parser = _Parser(prog="punforge", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("index", help="ingest raw text and build the corpus file")
    p.add_argument("--corpus", required=True, help="input text file")
    p.add_argument("--out", required=True, help="output corpus file")
    p.add_argument("--min-count", dest="min_count", type=int,
                   help="words rarer than this map to the unknown id")
    p.add_argument("--tagged", action="store_true",
                   help="input is one sentence per line of surface_TAG tokens; "
                        "the tags are checked, not stored")
    _add_common(p)

    p = subs.add_parser("train-lm", help="train the n-gram language model")
    p.add_argument("--corpus", required=True, help="corpus file from 'index'")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--order", type=int, help=f"n-gram order ({MIN_ORDER}..{MAX_ORDER})")
    _add_common(p)

    p = subs.add_parser("train-skipgram", help="train distant skip-gram embeddings")
    p.add_argument("--corpus", required=True, help="corpus file from 'index'")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--d1", type=int, help="minimum co-occurrence distance")
    p.add_argument("--d2", type=int, help="maximum co-occurrence distance")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--negatives", type=int, help="negative samples per pair")
    p.add_argument("--step-size", dest="step_size", type=float,
                   help="initial SGD step size")
    p.add_argument("--export-text", dest="export_text",
                   help="also write embeddings as text to this path")
    p.add_argument("--seed", type=int,
                   help="seed of the initial vectors, the pair order and the negatives")
    _add_common(p)

    p = subs.add_parser("score", help="score pun sentences from JSON lines")
    p.add_argument("--lm", required=True, help="language model file")
    p.add_argument("--skipgram", help="skip-gram file; adds meaning scores")
    p.add_argument("--input", default="-", help="JSONL input ('-' for stdin)")
    p.add_argument("--output", default="-", help="JSONL output ('-' for stdout)")
    p.add_argument("--window", type=int, help="local context half-width")
    _add_common(p)

    p = subs.add_parser("generate", help="generate pun candidates for word pairs")
    p.add_argument("--corpus", required=True, help="corpus file from 'index'")
    p.add_argument("--skipgram", help="skip-gram file (topic stage)")
    p.add_argument("--lm", help="language model file; adds surprisal scores")
    p.add_argument("--wordnet", help="dictionary directory (or PUNGEN_WORDNET)")
    p.add_argument("--pairs", help="TSV file of pun<TAB>alternative pairs")
    p.add_argument("--pun", help="single pun word")
    p.add_argument("--alt", help="single alternative word")
    p.add_argument("--output", default="-", help="JSONL output ('-' for stdout)")
    p.add_argument("--pool", type=int, help="seed candidates gathered")
    p.add_argument("--keep", type=int, help="seed candidates kept after ranking")
    p.add_argument("--topic-k", dest="topic_k", type=int,
                   help="topic predictions considered")
    p.add_argument("--threshold", type=float, help="type-consistency threshold")
    p.add_argument("--max-outputs", dest="max_outputs", type=int,
                   help="candidate cap per pair")
    p.add_argument("--window", type=int, help="local context half-width")
    p.add_argument("--stage", choices=[STAGE_SWAP, STAGE_TOPIC],
                   help="stop after swap or run topic insertion")
    p.add_argument("--rerank", action=argparse.BooleanOptionalAction, default=None,
                   help="re-rank candidates by surprisal ratio (needs --lm)")
    _add_common(p)

    p = subs.add_parser("correlate", help="correlate metric scores with ratings")
    p.add_argument("--ratings", required=True, help="CSV: item_id,rater_id,score")
    p.add_argument("--scores", required=True, help="JSONL with id + metric fields")
    p.add_argument("--output", default="-", help="TSV output ('-' for stdout)")
    p.add_argument("--min-rater-corr", dest="min_rater_corr", type=float,
                   help="drop raters whose best agreement is below this")
    p.add_argument("--permutations", type=int, help="permutation test draws")
    p.add_argument("--clip", type=float, help="clip standardized metrics at +/- this")
    p.add_argument("--seed", type=int, help="seed of the permutation test's draws")
    _add_common(p)

    return parser


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """Standard output for ``-``; else a UTF-8 file that replaces ``path``
    only once the command has written all of it (``binio.replace_file``)."""
    if path == "-":
        yield sys.stdout
    else:
        with binio.replace_file(path, encoding="utf-8") as fh:
            yield fh


@contextmanager
def _stdin_text() -> Iterator[TextIO]:
    """Standard input decoded as strict UTF-8, whatever the locale says, as
    ``open_text`` reads a file."""
    fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
    try:
        with strict_utf8("<stdin>"):
            yield fh
    finally:
        fh.detach()  # sys.stdin keeps its buffer open


def _open_in(path: str) -> ContextManager[TextIO]:
    return _stdin_text() if path == "-" else open_text(path)


def _emit(fh: TextIO, record: dict) -> None:
    fh.write(json.dumps(record, sort_keys=True) + "\n")


# --- subcommands ------------------------------------------------------------


def _cmd_index(args, cfg: RunConfig) -> int:
    sentences, vocab = ingest(Path(args.corpus), min_count=cfg.min_count,
                              tagged=args.tagged)
    save_corpus(args.out, Corpus(sentences, vocab))
    log.info("indexed %d sentences, vocabulary %d", len(sentences), len(vocab))
    return EXIT_OK


def _cmd_train_lm(args, cfg: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    model = train_lm(corpus.sentences, corpus.vocab, order=cfg.order)
    model.save(args.out)
    log.info("trained order-%d model on %d sentences", cfg.order,
             len(corpus.sentences))
    return EXIT_OK


def _cmd_train_skipgram(args, cfg: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    model = train_skipgram(corpus.sentences, corpus.vocab,
                           _owner_config(cfg, SkipGramConfig))
    if args.export_text:
        # neither target is replaced unless both are written whole
        with binio.replace_file(args.export_text, encoding="utf-8") as fh:
            model.export_text(fh)
            model.save(args.out)
    else:
        model.save(args.out)
    return EXIT_OK


def _describe(value: object) -> str:
    """A JSON value as an error message shows it; containers by kind only."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    return json.dumps(value)


def _finite_float(text: str) -> float:
    """A JSON number or constant (``NaN``, ``Infinity``, ``-Infinity``) as a
    float; ValueError unless it is finite, as ``1e400`` is not."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite in float64")
    return value


def _string_field(record: dict, name: str) -> str:
    value = record[name]
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a string, got {_describe(value)}")
    return value


def _score_record(record: dict, lm: NGramModel, skipgram: SkipGramModel | None,
                  unigram_probs: np.ndarray | None, window: int) -> dict:
    pair = PunPair(_string_field(record, "pun_word").lower(),
                   _string_field(record, "alt_word").lower())
    check_pair_words(pair, lm.vocab)
    if "tokens" in record:
        tokens = record["tokens"]
        if not isinstance(tokens, list):
            raise ValueError(f"'tokens' must be a list of strings, "
                             f"got {_describe(tokens)}")
        for token in tokens:
            if not isinstance(token, str):
                raise ValueError(f"'tokens' must hold strings only, "
                                 f"got {_describe(token)}")
        tokens = [t.lower() for t in tokens]
    elif "sentence" in record:
        tokens = tokenize(_string_field(record, "sentence"))
    else:
        raise ValueError("record needs a 'tokens' list or a 'sentence' string")
    if "pun_position" in record:
        position = record["pun_position"]
        if type(position) is not int:  # bool subclasses int
            raise ValueError(f"'pun_position' must be an integer, "
                             f"got {_describe(position)}")
    else:
        slots = [i for i, t in enumerate(tokens) if t == pair.pun_word]
        if len(slots) != 1:
            raise ValueError(
                f"pun word occurs {len(slots)} times; pass 'pun_position'"
            )
        position = slots[0]
    report = score_occurrence(lm, PunOccurrence(tokens, position), pair, window)
    out = dataclasses.asdict(report)
    if skipgram is not None:
        meaning = meaning_report(tokens, position, pair, lm.vocab,
                                 unigram_probs, skipgram.relatedness_by_id)
        out["ambiguity"] = meaning.ambiguity
        out["distinctiveness"] = meaning.distinctiveness
    return out


def _cmd_score(args, cfg: RunConfig) -> int:
    lm = NGramModel.load(args.lm)
    skipgram = None
    unigram_probs = None
    if args.skipgram:
        skipgram = SkipGramModel.load(args.skipgram,
                                      expected_vocab_hash=lm.vocab.hash_bytes())
        unigram_probs = np.exp(lm.unigram_logprobs)
    scored = errors = 0
    with _open_in(args.input) as fh, _output(args.output) as out:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record_id = lineno
            try:
                # a non-finite number would make the echoed id invalid JSON
                record = json.loads(line, parse_float=_finite_float,
                                    parse_constant=_finite_float)
                if not isinstance(record, dict):
                    raise ValueError(f"record must be a JSON object, "
                                     f"got {_describe(record)}")
                if record.get("id") is not None:
                    record_id = record["id"]
                result = _score_record(record, lm, skipgram, unigram_probs,
                                       cfg.window)
                _emit(out, {"id": record_id, **result})
                scored += 1
            except (PunforgeError, ValueError, KeyError, TypeError,
                    RecursionError) as exc:  # JSON nested too deeply
                _emit(out, {"id": record_id, "error": str(exc)})
                errors += 1
    if skipgram is not None:
        skipgram.log_relatedness_counts()
    log.info("records scored: %d, inline errors: %d", scored, errors)
    return EXIT_OK


def _read_pairs(args) -> list[PunPair]:
    if args.pairs:
        if args.pun is not None or args.alt is not None:
            raise UsageError("pass --pairs FILE or --pun and --alt, not both")
        pairs = []
        with open_text(args.pairs) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ResourceError(
                        f"{args.pairs}:{lineno}: expected pun<TAB>alternative"
                    )
                try:
                    pairs.append(PunPair(*(part.strip().lower() for part in parts)))
                except ValueError as exc:
                    raise ResourceError(f"{args.pairs}:{lineno}: {exc}") from None
        if not pairs:
            raise ResourceError(f"{args.pairs}: no pairs found")
        return pairs
    if args.pun and args.alt:
        try:
            return [PunPair(args.pun.lower(), args.alt.lower())]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("pass --pairs FILE or both --pun and --alt")


def _cmd_generate(args, cfg: RunConfig) -> int:
    # every flag is checked before any file is opened
    pairs = None if args.pairs else _read_pairs(args)  # --pun and --alt open none
    topic = cfg.stage == STAGE_TOPIC
    if topic and not args.skipgram:
        raise UsageError("topic stage needs --skipgram (or use --stage SWAP)")
    if topic and not cfg.wordnet:
        raise ResourceError("topic stage needs a dictionary: "
                            "pass --wordnet or set PUNGEN_WORDNET")
    if cfg.rerank and not args.lm:
        raise UsageError("--rerank needs --lm")

    pairs = pairs or _read_pairs(args)
    resources = GenerationResources.load(
        args.corpus, lm=args.lm or None,
        skipgram=args.skipgram if topic else None,
        wordnet=cfg.wordnet if topic else None)
    graph = resources.graph
    gen_config = _owner_config(cfg, GenerationConfig)
    with _output(args.output) as out:
        for pair in pairs:
            result = generate(pair, resources, gen_config)
            _emit(out, {
                "record": "meta",
                "pun_word": pair.pun_word,
                "alt_word": pair.alt_word,
                "candidates": len(result.candidates),
                "failure": result.failure,
                "warnings": result.warnings,
                "wordnet": graph.version if graph is not None else None,
                "stage": cfg.stage,
            })
            for cand in result.candidates:
                record = dataclasses.asdict(cand)
                record["tokens"] = record.pop("final_tokens")
                if (scores := record.pop("report")) is not None:
                    record["scores"] = scores
                _emit(out, {"record": "candidate", "pun_word": pair.pun_word,
                            "alt_word": pair.alt_word,
                            "text": " ".join(cand.final_tokens), **record})
    if graph is not None:
        graph.log_type_row_counts()
    return EXIT_OK


def _cmd_correlate(args, cfg: RunConfig) -> int:
    ratings = stats.RatingsTable.load_csv(args.ratings)
    try:
        zscored = stats.zscore_raters(ratings)
    except ValueError as exc:
        raise ResourceError(f"{args.ratings}: {exc}") from None
    filtered = stats.filter_raters(zscored, min_corr=cfg.min_rater_corr)
    means = stats.item_means(filtered.table)

    metric_values: dict[str, dict[str, float]] = {}
    id_lines: dict[str, int] = {}  # item -> line of its metrics
    with open_text(args.scores) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"found {type(record).__name__}")
                metrics = {key: float(value) for key, value in record.items()
                           if key != "id" and isinstance(value, (int, float))
                           and not isinstance(value, bool)}
                if not np.isfinite(list(metrics.values())).all():
                    raise ValueError("NaN or infinite value")
            except (ValueError, OverflowError, RecursionError) as exc:
                raise FormatError(f"{args.scores}:{lineno}: not a JSON object "
                                  f"of finite metrics ({exc})") from None
            if not metrics:
                continue
            if record.get("id") is None:
                raise FormatError(f"{args.scores}:{lineno}: metrics without an id")
            item = str(record["id"])
            if item in id_lines:
                raise FormatError(f"{args.scores}:{lineno}: id {item!r} repeats "
                                  f"line {id_lines[item]}")
            id_lines[item] = lineno
            for key, value in metrics.items():
                metric_values.setdefault(key, {})[item] = value

    with _output(args.output) as out:
        out.write("metric\tn\tspearman\tp_value\n")
        for metric in sorted(metric_values):
            per_item = metric_values[metric]
            shared = sorted(set(per_item) & set(means))
            if len(shared) < 2:
                raise ResourceError(
                    f"metric {metric!r} shares {len(shared)} items with the ratings"
                )
            try:  # a constant column or constant ratings have no correlation
                xs = stats.clip_standardize([per_item[i] for i in shared], cfg.clip)
                ys = [means[i] for i in shared]
                rho = stats.spearman(xs, ys)
            except ValueError as exc:
                raise ResourceError(f"metric {metric!r}: {exc}") from None
            p = stats.permutation_pvalue(xs, ys, permutations=cfg.permutations,
                                         seed=cfg.seed)
            out.write(f"{metric}\t{len(shared)}\t{rho:.6f}\t{p:.6f}\n")
    return EXIT_OK


_COMMANDS = {
    "index": _cmd_index,
    "train-lm": _cmd_train_lm,
    "train-skipgram": _cmd_train_skipgram,
    "score": _cmd_score,
    "generate": _cmd_generate,
    "correlate": _cmd_correlate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    runtime.log_runtime()
    try:
        flag_values = vars(args)
        cfg = resolve_config(flag_values, flag_values.get("config"))
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"punforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop quietly, as a filter
        # does.  Output still buffered goes to devnull, so the flush at exit
        # cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (PunforgeError, OSError) as exc:
        print(f"punforge: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"punforge: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
