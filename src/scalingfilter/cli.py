"""Command-line entry point for reproducible batch runs.

Subcommands: train-meta, score, filter, diversity, verify-scaling, report.
Each one's parameters are declared once, in ``_COMMANDS``: flag,
run_config.json key (the argparse dest), type, default and choices.
``main`` reads a ``--config`` JSON file's values as flags placed before the
command line's own, so one argparse pass checks both and the last value
wins: flag, else config, else default. A config key the command does not
declare, or a config written by another command, exits 2. A command reads
only the parsed parameters and run_config.json records exactly them, so
``scalingfilter <command> --config <run>/run_config.json --out <new>``
replays a run bit-identically (timestamps excluded).

verify-scaling writes one artifact, verify_report.json, with the checks of
``scaling.verification_report``; it takes the compute-optimal exponent as
a premise and fits no allocation sweep.

Exit codes: 0 success, 2 invalid arguments, 3 scorer/embedder error budget
breach, 4 verification failure, 1 other fatal error.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import __version__, corpus as corpus_io, scaling
from .errors import (
    ConditionRegionViolatedError,
    EmbedderUnavailableError,
    ErrorBudgetExceededError,
    ScalingFilterError,
    ScorerUnavailableError,
)
from .scoring import RemotePerplexityModel, read_score_file, score_corpus
from .seeding import derive_seed
from .selection import (
    GATE_HI_PCT,
    GATE_LO_PCT,
    KEEP_RATE,
    PARETO_ALPHA,
    apply_selection,
    pareto_noisy_threshold,
    percentile_gate,
    read_classifier_scores,
    select_temperature,
    select_topk,
)

log = logging.getLogger("scalingfilter")

# Modules that load numpy (ngram, embedding, diversity) are imported by the
# commands that run them, so report and filter start without numpy.
_LAZY = {"load_pair": "ngram", "HashedProjectionEmbedder": "embedding", "RemoteEmbedder": "embedding"}


def __getattr__(name: str):
    """``cli.load_pair`` and the embedders, which bench/probe.py reads from this module."""
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_FATAL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

_METHOD_ALIASES = {
    "topk": "topk",
    "temperature": "temperature",
    "gate": "percentile_gate",
    "percentile_gate": "percentile_gate",
    "pareto": "pareto_threshold",
    "pareto_threshold": "pareto_threshold",
}


def _method(name: str) -> str:
    """A ``--method`` name or alias, as its canonical method."""
    if name not in _METHOD_ALIASES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(sorted(_METHOD_ALIASES))})"
        )
    return _METHOD_ALIASES[name]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@dataclass(frozen=True)
class Param:
    """One run parameter; ``key`` is its run_config.json key and argparse dest."""

    flag: str
    type: Callable = str
    default: object = None
    choices: Optional[tuple] = None
    required: bool = False
    nargs: Optional[str] = None
    dest: Optional[str] = None
    help: str = ""

    @property
    def key(self) -> str:
        return self.dest or self.flag.lstrip("-").replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        text = self.help
        if self.default is not None:
            text = f"{text} (default {self.default})".lstrip()
        parser.add_argument(self.flag, dest=self.key, type=self.type, choices=self.choices, nargs=self.nargs,
                            default=self.default, required=self.required, help=text)


# parsed like the rest, but a setting of the process, not of the run: not in run_config.json
_LOG_LEVEL = Param("--log-level", default="INFO", help="logging level")


class _RecordErrorLog:
    """Reports malformed corpus lines without killing a long batch run."""

    def __init__(self):
        self.count = 0

    def __call__(self, err):
        self.count += 1
        log.warning("skipping record %s:%d (%s)", err.shard, err.line_no, err.code)

    def summarize(self):
        if self.count:
            log.warning("%d malformed records were reported and skipped", self.count)


def cmd_train_meta(p: dict) -> int:
    from .ngram import save_pair, train_pair

    record_errors = _RecordErrorLog()
    docs = corpus_io.read_manifest_corpus(corpus_io.find_manifest(p["corpus"]), on_error=record_errors)
    fingerprint = corpus_io.CorpusFingerprint()
    pair = train_pair(
        fingerprint.passthrough(docs),
        small_order=p["small_order"],
        large_order=p["large_order"],
        smoothing_k=p["smoothing_k"],
    )
    record_errors.summarize()
    pair.train_corpus_id = fingerprint.hexdigest()
    descriptor = save_pair(pair, p["out"])
    log.info("trained pair orders (%d, %d); descriptor at %s",
             pair.small.order, pair.large.order, descriptor)
    return EXIT_OK


def cmd_score(p: dict) -> int:
    if p["pair"] and not (p["remote_small"] or p["remote_large"]):
        from .ngram import load_pair

        pair = load_pair(p["pair"])
        small, large = pair.small, pair.large
    elif p["remote_small"] and p["remote_large"] and not p["pair"]:
        small = RemotePerplexityModel(p["remote_small"], timeout=p["timeout"])
        large = RemotePerplexityModel(p["remote_large"], timeout=p["timeout"])
    else:
        raise ValueError("provide either --pair or both --remote-small and --remote-large")

    out_dir = Path(p["out"])
    record_errors = _RecordErrorLog()
    docs = corpus_io.read_manifest_corpus(corpus_io.find_manifest(p["corpus"]), on_error=record_errors)
    summary = score_corpus(
        small,
        large,
        docs,
        out_path=out_dir / "scores.tsv",
        cache_path=p["cache"],
        workers=p["workers"],
        error_budget=p["error_budget"],
        batch_size=p["batch_size"],
    )
    record_errors.summarize()
    if summary.cache_rows_skipped:
        log.warning("skipped %d torn or malformed rows of the score cache %s",
                    summary.cache_rows_skipped, p["cache"])
    corpus_io.write_json(out_dir / "score_summary.json", summary.to_json())
    log.info("scored %d documents (%d errors, %d cache hits)",
             summary.count, summary.error_count, summary.cache_hits)
    return EXIT_OK


def cmd_filter(p: dict) -> int:
    method, seed = p["method"], p["seed"]
    if method == "pareto_threshold":
        if not p["classifier_scores"]:
            raise ValueError("the pareto method needs --classifier-scores")
        columns = read_classifier_scores(p["classifier_scores"])
        result = pareto_noisy_threshold(columns["doc_id"], columns["score"], alpha=p["pareto_alpha"],
                                        seed=derive_seed(seed, "pareto"))
    else:
        if not p["scores"]:
            raise ValueError(f"the {method} method needs --scores")
        columns = read_score_file(p["scores"])
        doc_ids = columns["doc_id"]
        if method == "topk":
            result = select_topk(doc_ids, columns["quality_factor"], keep_rate=p["keep_rate"])
        elif method == "temperature":
            if p["tau"] is None:
                raise ValueError("the temperature method needs --tau")
            result = select_temperature(doc_ids, columns["quality_factor"], keep_rate=p["keep_rate"], tau=p["tau"],
                                        seed=derive_seed(seed, "temperature"))
        else:
            result = percentile_gate(doc_ids, columns["ppl_large"], lo_pct=p["lo_pct"], hi_pct=p["hi_pct"])

    out_dir = Path(p["out"])
    result.write(out_dir / "kept_ids.txt", out_dir / "audit.json")
    if p["corpus"]:
        record_errors = _RecordErrorLog()
        manifest = apply_selection(
            result,
            corpus_io.find_manifest(p["corpus"]),
            out_dir / "filtered",
            shard_size=p["shard_size"],
            on_error=record_errors,
        )
        record_errors.summarize()
        log.info("materialized filtered corpus with %d documents", manifest.doc_count)
    log.info("kept %d of %d documents (%s)", result.kept_count, result.input_count, method)
    return EXIT_OK


def cmd_diversity(p: dict) -> int:
    from . import diversity as diversity_mod
    from .embedding import HashedProjectionEmbedder, RemoteEmbedder

    if p["mix"] and p["corpus"]:
        raise ValueError("provide --corpus or --mix, not both")
    if not (p["mix"] or p["corpus"]):
        raise ValueError("provide --corpus or --mix")
    if p["embedder"] == "remote":
        if not p["remote_url"]:
            raise ValueError("remote embedder needs --remote-url")
        provider = RemoteEmbedder(p["remote_url"])
    else:
        provider = HashedProjectionEmbedder(dim=p["dim"], seed=derive_seed(p["seed"], "embedder"))

    manifests = [corpus_io.find_manifest(path) for path in p["mix"] or [p["corpus"]]]
    record_errors = _RecordErrorLog()
    corpora = [[doc.text for doc in corpus_io.read_manifest_corpus(path, on_error=record_errors)]
               for path in manifests]
    record_errors.summarize()
    n, repeats, seed = p["n"], p["repeats"], derive_seed(p["seed"], "diversity")
    if p["mix"]:
        report = diversity_mod.dataset_mix_experiment(corpora, provider, n, repeats, seed, names=p["mix"])
        log.info("diversity curve over %d mixed corpora", len(corpora))
    else:
        corpus_id = corpus_io.CorpusManifest.load(manifests[0]).corpus_id
        report = diversity_mod.subsample_diversity(corpora[0], provider, n, repeats, seed, corpus_id=corpus_id)
        log.info("diversity %.3f +/- %.3f over %d repeats", report["mean"], report["std"], report["repeats"])
    corpus_io.write_json(Path(p["out"]) / "diversity.json", report)
    return EXIT_OK


def cmd_verify_scaling(p: dict) -> int:
    report = scaling.verification_report(**{name: p[name] for name in _LOSS})
    corpus_io.write_json(Path(p["out"]) / "verify_report.json", report)
    if not report["passed"]:
        log.error("verification failed: %s", {k: v for k, v in report["checks"].items() if not v})
        return EXIT_VERIFY
    log.info("all derivation checks passed")
    return EXIT_OK


# keys the table reads, by file, checked when the first is present: a keep rate is kept / input,
# a diversity is mean +/- std, and a mean quality factor is a number or null
_READ_TOGETHER = {"audit.json": ("input", {"input": int, "kept": int}),
                  "diversity.json": ("mean", {"mean": (int, float), "std": (int, float)}),
                  "score_summary.json": ("mean_quality_factor",
                                         {"mean_quality_factor": (int, float, type(None))})}


def cmd_report(p: dict) -> int:
    runs = []
    missing = []
    for run in p["runs"]:
        run_dir = Path(run)
        entry: dict = {"run": str(run_dir)}
        for name, key in (
            ("score_summary.json", "score_summary"),
            ("audit.json", "selection_audit"),
            ("diversity.json", "diversity"),
            ("verify_report.json", "scaling_verification"),
        ):
            path = run_dir / name
            if path.exists():
                data = path.read_bytes()
                entry[key] = corpus_io.json_object(data, path, {})
                trigger, required = _READ_TOGETHER.get(name, (None, {}))
                if trigger in entry[key]:
                    corpus_io.json_object(data, path, required)
        if len(entry) == 1:
            missing.append(str(run_dir))
        runs.append(entry)

    out_dir = Path(p["out"])
    corpus_io.write_json(out_dir / "report.json", {"runs": runs, "missing_inputs": missing})

    lines = [
        f"{'run':<32} {'method':<18} {'input':>8} {'kept':>8} {'rate':>6} "
        f"{'mean d':>10} {'diversity':>16}"
    ]
    for entry in runs:
        audit = entry.get("selection_audit", {})
        summary = entry.get("score_summary", {})
        div = entry.get("diversity", {})
        div_text = ""
        if "mean" in div:
            div_text = f"{div['mean']:.3f}+/-{div['std']:.3f}"
        rate = ""
        if audit.get("input"):
            rate = f"{audit['kept'] / audit['input']:.2f}"
        mean_d = summary.get("mean_quality_factor")
        lines.append(
            f"{Path(entry['run']).name:<32} {audit.get('method', ''):<18} "
            f"{audit.get('input', ''):>8} {audit.get('kept', ''):>8} {rate:>6} "
            f"{'' if mean_d is None else format(mean_d, '.4f'):>10} {div_text:>16}"
        )
    if missing:
        lines.append("")
        lines.append("missing inputs: " + ", ".join(missing))
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if missing:
        log.warning("report emitted with missing inputs: %s", ", ".join(missing))
    return EXIT_OK


# the paper's loss fit and secant sizes, declared with the checks that use them
_LOSS = {name: p.default for name, p in inspect.signature(scaling.verification_report).parameters.items()}

_COMMANDS: dict[str, tuple[Callable[[dict], int], str, tuple[Param, ...]]] = {
    "train-meta": (cmd_train_meta, "train a small/large n-gram pair on one corpus", (
        Param("--corpus", required=True, help="corpus directory or manifest path"),
        Param("--small-order", int, 2),
        Param("--large-order", int, 5),
        Param("--smoothing-k", _finite_float, 0.01),
    )),
    "score": (cmd_score, "score every document of a corpus with a model pair", (
        Param("--corpus", required=True, help="corpus directory or manifest path"),
        Param("--pair", help="directory containing a trained pair descriptor"),
        Param("--remote-small", help="base URL of the small-model perplexity service"),
        Param("--remote-large", help="base URL of the large-model perplexity service"),
        Param("--cache", help="perplexity cache file (reused across runs)"),
        Param("--batch-size", _positive_int, 32, help="documents per unit of work"),
        Param("--timeout", _finite_float, 30.0, help="seconds per remote request"),
        Param("--error-budget", _finite_float, 0.01, help="largest share of documents that may fail"),
        Param("--workers", _positive_int, 1, help="score worker processes"),
    )),
    "filter": (cmd_filter, "select documents from a score file", (
        Param("--scores", help="score TSV produced by the score command (all methods but pareto)"),
        Param("--method", _method, required=True,
              help="one of " + ", ".join(sorted(_METHOD_ALIASES))),
        Param("--keep-rate", _finite_float, KEEP_RATE),
        Param("--tau", _finite_float, help="temperature (temperature method)"),
        Param("--lo", _finite_float, GATE_LO_PCT, dest="lo_pct", help="lower percentile for gate"),
        Param("--hi", _finite_float, GATE_HI_PCT, dest="hi_pct", help="upper percentile for gate"),
        Param("--pareto-alpha", _finite_float, PARETO_ALPHA),
        Param("--classifier-scores", help="doc_id/score TSV for the pareto method"),
        Param("--corpus", help="when given, materialize the filtered corpus here from this source"),
        Param("--shard-size", _positive_int, 10000),
        Param("--seed", int, 0, help="seed of the temperature and pareto draws"),
    )),
    "diversity": (cmd_diversity, "semantic diversity of corpus subsamples", (
        Param("--corpus", help="single corpus directory or manifest"),
        Param("--mix", nargs="+", help="two or more corpora for the dataset-count curve"),
        Param("--n", _positive_int, 1000, help="subsample size"),
        Param("--repeats", _positive_int, 10),
        Param("--embedder", default="hashed", choices=("hashed", "remote")),
        Param("--dim", int, 64, help="hashed-projection dimension"),
        Param("--remote-url", help="base URL of the embedding service"),
        Param("--seed", int, 0, help="seed of the subsamples and the hashed projection"),
    )),
    "verify-scaling": (cmd_verify_scaling, "run all parametric-loss derivation checks", (
        Param("--loss-E", _finite_float, _LOSS["E"], dest="E"),
        Param("--loss-A", _finite_float, _LOSS["A"], dest="A"),
        Param("--loss-B", _finite_float, _LOSS["B"], dest="B"),
        Param("--eta", _finite_float, _LOSS["eta"]),
        Param("--n-small", _finite_float, _LOSS["N_p"], dest="N_p", help="secant lower model size"),
        Param("--n-large", _finite_float, _LOSS["N_q"], dest="N_q", help="secant upper model size"),
        Param("--tokens", _finite_float, _LOSS["D"], dest="D", help="training tokens D"),
    )),
    "report": (cmd_report, "merge run outputs into one comparison report", (
        Param("--runs", nargs="+", required=True, help="run output directories"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalingfilter",
        description="Quality-filter text corpora by the perplexity ratio of a same-data model pair.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, params) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for param in params + (_LOG_LEVEL,):
            param.add_to(p)
        p.add_argument("--out", required=True, help="output directory for this run")
        p.add_argument("--config", help="JSON file (e.g. a run_config.json) giving any parameter not flagged")
    return parser


def _config_flags(command: str, path: str) -> list[str]:
    """The values of a ``--config`` file as flags of ``command``; a null value gives none."""
    config = corpus_io.read_json(path, {})
    if config.get("command", command) != command:
        raise ValueError(f"the config was written by {config['command']!r}, not {command!r}")
    params = {p.key: p for p in _COMMANDS[command][2] + (_LOG_LEVEL,)}
    unknown = set(config) - set(params) - {"command", "out"}
    if unknown:
        raise ValueError(f"{command} has no parameter {', '.join(map(repr, sorted(unknown)))}")
    flags = []
    for key, value in config.items():
        param = params.get(key)
        if param is None or value is None:
            continue
        items = value if param.nargs else [value]
        if not isinstance(items, list) or any(isinstance(v, (bool, list, dict)) for v in items):
            raise ValueError(f"config {key!r} ({param.flag}): {value!r} is not "
                             f"{'a list of single values' if param.nargs else 'a single value'}")
        # a scalar is one token, so a value starting with '-' is not read as a flag
        flags += [param.flag, *map(str, items)] if param.nargs else [f"{param.flag}={value}"]
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if argv and argv[0] in _COMMANDS:
        pre = argparse.ArgumentParser(prog=f"{parser.prog} {argv[0]}", add_help=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv[1:])[0].config
        if config:
            try:
                # before the command line's flags, so a flag given there wins
                argv[1:1] = _config_flags(argv[0], config)
            except (OSError, ValueError) as exc:
                parser.error(str(exc))
    params = vars(parser.parse_args(argv))
    command = params.pop("command")
    del params["config"]
    level = params.pop("log_level")
    logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")
    out_dir = Path(params["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    params["out"] = str(out_dir)
    corpus_io.write_json(out_dir / "run_config.json", {"command": command, **params})
    try:
        return _COMMANDS[command][0](params)
    except (ErrorBudgetExceededError, ScorerUnavailableError, EmbedderUnavailableError) as exc:
        log.error("%s: %s", exc.code, exc)
        return EXIT_BUDGET
    except ConditionRegionViolatedError as exc:
        log.error("%s: %s", exc.code, exc)
        return EXIT_VERIFY
    except (ValueError, FileNotFoundError) as exc:
        code = getattr(exc, "code", None)
        log.error("invalid arguments%s: %s", f" ({code})" if code else "", exc)
        return EXIT_USAGE
    except ScalingFilterError as exc:
        log.error("%s: %s", exc.code, exc)
        return EXIT_FATAL
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
