"""Command-line entry point for reproducible batch runs.

Subcommands: train-meta, score, filter, diversity, verify-scaling, report.
Every run writes its fully resolved configuration to run_config.json next
to the outputs; replaying that snapshot reproduces the outputs
bit-identically (timestamps excluded). Parameter precedence is
flags > SCALINGFILTER_WORKERS (workers only) > config file > defaults.

Exit codes: 0 success, 2 invalid arguments, 3 scorer/embedder error budget
breach, 4 verification failure, 1 other fatal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, corpus as corpus_io, diversity as diversity_mod, scaling
from .embedding import HashedProjectionEmbedder, RemoteEmbedder
from .errors import (
    ConditionRegionViolatedError,
    EmbedderUnavailableError,
    ErrorBudgetExceededError,
    ScalingFilterError,
    ScorerUnavailableError,
)
from .ngram import load_pair, save_pair, train_pair
from .scoring import RemotePerplexityModel, read_score_file, score_corpus
from .seeding import derive_seed
from .selection import (
    SelectionResult,
    apply_selection,
    pareto_noisy_threshold,
    percentile_gate,
    read_classifier_scores,
    select_temperature,
    select_topk,
)

log = logging.getLogger("scalingfilter")

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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output directory for this run")
    parser.add_argument("--config", help="JSON config file supplying defaults for any flag")
    parser.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers (default 1)")
    parser.add_argument("--log-level", default=None, help="logging level (default INFO)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalingfilter",
        description="Quality-filter text corpora by the perplexity ratio of a same-data model pair.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-meta", help="train a small/large n-gram pair on one corpus")
    p.add_argument("--corpus", required=True, help="corpus directory or manifest path")
    p.add_argument("--small-order", type=int, default=None)
    p.add_argument("--large-order", type=int, default=None)
    p.add_argument("--smoothing-k", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("score", help="score every document of a corpus with a model pair")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pair", help="directory containing a trained pair descriptor")
    p.add_argument("--remote-small", help="base URL of the small-model perplexity service")
    p.add_argument("--remote-large", help="base URL of the large-model perplexity service")
    p.add_argument("--cache", help="perplexity cache file (reused across runs)")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--error-budget", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("filter", help="select documents from a score file")
    p.add_argument("--scores", help="score TSV produced by the score command (all methods but pareto)")
    p.add_argument("--method", required=True, choices=sorted(_METHOD_ALIASES))
    p.add_argument("--keep-rate", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lo", type=float, default=None, help="lower percentile for gate")
    p.add_argument("--hi", type=float, default=None, help="upper percentile for gate")
    p.add_argument("--pareto-alpha", type=float, default=None)
    p.add_argument("--classifier-scores", help="doc_id/score TSV for the pareto method")
    p.add_argument("--corpus", help="when given, materialize the filtered corpus here from this source")
    p.add_argument("--shard-size", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("diversity", help="semantic diversity of corpus subsamples")
    p.add_argument("--corpus", help="single corpus directory or manifest")
    p.add_argument("--mix", nargs="+", help="two or more corpora for the dataset-count curve")
    p.add_argument("--n", type=int, default=None, help="subsample size (default 1000)")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--embedder", choices=["hashed", "remote"], default=None)
    p.add_argument("--dim", type=int, default=None, help="hashed-projection dimension")
    p.add_argument("--remote-url", help="base URL of the embedding service")
    _add_common(p)

    p = sub.add_parser("verify-scaling", help="run all parametric-loss derivation checks")
    p.add_argument("--params", help="JSON file with E, A, B, eta (and optional grids)")
    p.add_argument("--loss-E", type=float, default=None)
    p.add_argument("--loss-A", type=float, default=None)
    p.add_argument("--loss-B", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--n-small", type=float, default=None, help="secant lower model size")
    p.add_argument("--n-large", type=float, default=None, help="secant upper model size")
    p.add_argument("--tokens", type=float, default=None, help="training tokens D")
    p.add_argument("--sweep-compute", action="store_true", help="also fit allocation power laws")
    p.add_argument("--csv", action="store_true", help="emit monotonicity grid as CSV")
    _add_common(p)

    p = sub.add_parser("report", help="merge run outputs into one comparison report")
    p.add_argument("--runs", nargs="+", required=True, help="run output directories")
    _add_common(p)

    return parser


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("config file must contain a JSON object")
    return obj


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key == "workers":
        env = os.environ.get("SCALINGFILTER_WORKERS")
        if env:
            return int(env)
    if key in config:
        return config[key]
    return default


def _snapshot(out_dir: Path, command: str, resolved: dict) -> None:
    payload = {"command": command, **resolved}
    (out_dir / "run_config.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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


def cmd_train_meta(args, config, out_dir: Path) -> int:
    resolved = {
        "corpus": args.corpus,
        "small_order": int(_resolve(args, config, "small_order", 2)),
        "large_order": int(_resolve(args, config, "large_order", 5)),
        "smoothing_k": float(_resolve(args, config, "smoothing_k", 0.01)),
        "out": str(out_dir),
    }
    _snapshot(out_dir, "train-meta", resolved)
    record_errors = _RecordErrorLog()
    docs = corpus_io.read_manifest_corpus(corpus_io.find_manifest(args.corpus), on_error=record_errors)
    fingerprint = corpus_io.CorpusFingerprint()
    pair = train_pair(
        fingerprint.passthrough(docs),
        small_order=resolved["small_order"],
        large_order=resolved["large_order"],
        smoothing_k=resolved["smoothing_k"],
    )
    record_errors.summarize()
    pair.train_corpus_id = fingerprint.hexdigest()
    descriptor = save_pair(pair, out_dir)
    log.info("trained pair orders (%d, %d); descriptor at %s",
             pair.small.order, pair.large.order, descriptor)
    return EXIT_OK


def cmd_score(args, config, out_dir: Path) -> int:
    workers = int(_resolve(args, config, "workers", 1))
    resolved = {
        "corpus": args.corpus,
        "pair": args.pair,
        "remote_small": args.remote_small,
        "remote_large": args.remote_large,
        "cache": args.cache,
        "batch_size": int(_resolve(args, config, "batch_size", 32)),
        "timeout": float(_resolve(args, config, "timeout", 30.0)),
        "error_budget": float(_resolve(args, config, "error_budget", 0.01)),
        "workers": workers,
        "out": str(out_dir),
    }
    _snapshot(out_dir, "score", resolved)

    if args.pair and not (args.remote_small or args.remote_large):
        pair = load_pair(args.pair)
        small, large = pair.small, pair.large
    elif args.remote_small and args.remote_large and not args.pair:
        small = RemotePerplexityModel(args.remote_small, timeout=resolved["timeout"])
        large = RemotePerplexityModel(args.remote_large, timeout=resolved["timeout"])
    else:
        raise ValueError("provide either --pair or both --remote-small and --remote-large")

    manifest_path = corpus_io.find_manifest(args.corpus)
    record_errors = _RecordErrorLog()
    docs = corpus_io.read_manifest_corpus(manifest_path, on_error=record_errors)
    summary = score_corpus(
        small,
        large,
        docs,
        out_path=out_dir / "scores.tsv",
        cache_path=args.cache,
        workers=workers,
        error_budget=resolved["error_budget"],
        batch_size=resolved["batch_size"],
    )
    record_errors.summarize()
    (out_dir / "score_summary.json").write_text(
        json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log.info("scored %d documents (%d errors, %d cache hits)",
             summary.count, summary.error_count, summary.cache_hits)
    return EXIT_OK


def cmd_filter(args, config, out_dir: Path) -> int:
    method = _METHOD_ALIASES[args.method]
    seed = int(_resolve(args, config, "seed", 0))
    resolved = {
        "scores": args.scores,
        "method": method,
        "keep_rate": float(_resolve(args, config, "keep_rate", 0.7)),
        "tau": args.tau if args.tau is not None else config.get("tau"),
        "lo_pct": float(_resolve(args, config, "lo", 15.0)),
        "hi_pct": float(_resolve(args, config, "hi", 85.0)),
        "pareto_alpha": float(_resolve(args, config, "pareto_alpha", 9.0)),
        "classifier_scores": args.classifier_scores,
        "corpus": args.corpus,
        "shard_size": int(_resolve(args, config, "shard_size", 10000)),
        "seed": seed,
        "out": str(out_dir),
    }
    _snapshot(out_dir, "filter", resolved)

    if method == "pareto_threshold":
        if not args.classifier_scores:
            raise ValueError("the pareto method needs --classifier-scores")
        rows = read_classifier_scores(args.classifier_scores)
        result: SelectionResult = pareto_noisy_threshold(
            rows, alpha=resolved["pareto_alpha"], seed=derive_seed(seed, "pareto")
        )
    else:
        if not args.scores:
            raise ValueError(f"the {args.method} method needs --scores")
        scores = read_score_file(args.scores)
        if method == "topk":
            result = select_topk(scores, keep_rate=resolved["keep_rate"], seed=seed)
        elif method == "temperature":
            if resolved["tau"] is None:
                raise ValueError("the temperature method needs --tau")
            result = select_temperature(
                scores,
                keep_rate=resolved["keep_rate"],
                tau=float(resolved["tau"]),
                seed=derive_seed(seed, "temperature"),
            )
        else:
            ppls = [(s.doc_id, s.ppl_large) for s in scores]
            result = percentile_gate(ppls, lo_pct=resolved["lo_pct"], hi_pct=resolved["hi_pct"], seed=seed)

    result.write(out_dir / "kept_ids.txt", out_dir / "audit.json")
    if args.corpus:
        record_errors = _RecordErrorLog()
        manifest = apply_selection(
            result,
            corpus_io.find_manifest(args.corpus),
            out_dir / "filtered",
            shard_size=resolved["shard_size"],
            on_error=record_errors,
        )
        record_errors.summarize()
        log.info("materialized filtered corpus with %d documents", manifest.doc_count)
    log.info("kept %d of %d documents (%s)", result.kept_count, result.input_count, method)
    return EXIT_OK


def _make_embedder(args, config, seed: int):
    kind = _resolve(args, config, "embedder", "hashed")
    if kind == "remote":
        url = args.remote_url or config.get("remote_url")
        if not url:
            raise ValueError("remote embedder needs --remote-url")
        return RemoteEmbedder(url)
    dim = int(_resolve(args, config, "dim", 64))
    return HashedProjectionEmbedder(dim=dim, seed=derive_seed(seed, "embedder"))


def cmd_diversity(args, config, out_dir: Path) -> int:
    seed = int(_resolve(args, config, "seed", 0))
    n = int(_resolve(args, config, "n", 1000))
    repeats = int(_resolve(args, config, "repeats", 10))
    resolved = {
        "corpus": args.corpus,
        "mix": args.mix,
        "n": n,
        "repeats": repeats,
        "embedder": _resolve(args, config, "embedder", "hashed"),
        "dim": int(_resolve(args, config, "dim", 64)),
        "remote_url": args.remote_url,
        "seed": seed,
        "out": str(out_dir),
    }
    _snapshot(out_dir, "diversity", resolved)
    provider = _make_embedder(args, config, seed)

    record_errors = _RecordErrorLog()
    if args.mix:
        corpora = []
        for path in args.mix:
            manifest_path = corpus_io.find_manifest(path)
            corpora.append(list(corpus_io.read_manifest_corpus(manifest_path, on_error=record_errors)))
        record_errors.summarize()
        curve = diversity_mod.dataset_mix_experiment(
            corpora, provider, n=n, repeats=repeats, seed=derive_seed(seed, "diversity")
        )
        payload = {
            "kind": "dataset-mix",
            "corpora": list(args.mix),
            "sample_size": n,
            "repeats": repeats,
            "seed": seed,
            "embedder": provider.fingerprint(),
            "curve": curve,
            "comparability": "diversity values are comparable only within one embedder",
        }
        (out_dir / "diversity.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        log.info("dataset-mix curve over %d corpora written", len(corpora))
        return EXIT_OK

    if not args.corpus:
        raise ValueError("provide --corpus or --mix")
    manifest_path = corpus_io.find_manifest(args.corpus)
    docs = list(corpus_io.read_manifest_corpus(manifest_path, on_error=record_errors))
    record_errors.summarize()
    manifest = corpus_io.CorpusManifest.load(manifest_path)
    report = diversity_mod.subsample_diversity(
        docs,
        provider,
        n=n,
        repeats=repeats,
        seed=derive_seed(seed, "diversity"),
        corpus_id=manifest.corpus_id,
    )
    report.save(out_dir / "diversity.json")
    log.info("diversity %.3f +/- %.3f over %d repeats", report.mean, report.std, report.repeats)
    return EXIT_OK


def cmd_verify_scaling(args, config, out_dir: Path) -> int:
    file_params = {}
    if args.params:
        file_params = json.loads(Path(args.params).read_text(encoding="utf-8"))
    def value(flag_key, file_key, default):
        flag = getattr(args, flag_key, None)
        if flag is not None:
            return flag
        if file_key in file_params:
            return file_params[file_key]
        return config.get(file_key, default)

    E = float(value("loss_E", "E", 1.69))
    A = float(value("loss_A", "A", 406.4))
    B = float(value("loss_B", "B", 410.7))
    eta = float(value("eta", "eta", 0.62))
    N_p = float(value("n_small", "N_p", 1e8))
    N_q = float(value("n_large", "N_q", 1e9))
    D = float(value("tokens", "D", 1e10))
    resolved = {
        "E": E, "A": A, "B": B, "eta": eta, "N_p": N_p, "N_q": N_q, "D": D,
        "sweep_compute": bool(args.sweep_compute),
        "out": str(out_dir),
    }
    _snapshot(out_dir, "verify-scaling", resolved)

    report = scaling.verification_report(E=E, A=A, B=B, eta=eta, N_p=N_p, N_q=N_q, D=D)

    if args.sweep_compute:
        a_exp = 0.5  # split eta evenly unless the params file pins alpha/beta
        alpha = float(file_params.get("alpha", (1 - a_exp) * eta))
        beta = float(file_params.get("beta", a_exp * eta))
        params = scaling.ScalingLawParams(E=E, A=A, B=B, alpha=alpha, beta=beta)
        sweep = [10.0**e for e in np.linspace(18, 22, 9)]
        slope_n, slope_d = scaling.allocation_power_law_fit(params, sweep)
        a_expect, b_expect = scaling.allocation_exponents(alpha, beta)
        recovery = {
            "alpha": alpha,
            "beta": beta,
            "expected_a": a_expect,
            "expected_b": b_expect,
            "fitted_a": slope_n,
            "fitted_b": slope_d,
            "within_1e-3": abs(slope_n - a_expect) < 1e-3 and abs(slope_d - b_expect) < 1e-3,
        }
        report["power_law_recovery"] = recovery
        report["passed"] = report["passed"] and recovery["within_1e-3"]

    (out_dir / "verify_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if args.csv:
        mono = report["details"]["monotonicity"]
        lines = ["a,d_model"] + [f"{a!r},{d!r}" for a, d in zip(mono["a_grid"], mono["d_model"])]
        (out_dir / "monotonicity.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if not report["passed"]:
        log.error("verification failed: %s", {k: v for k, v in report["checks"].items() if not v})
        return EXIT_VERIFY
    log.info("all derivation checks passed")
    return EXIT_OK


def cmd_report(args, config, out_dir: Path) -> int:
    resolved = {"runs": list(args.runs), "out": str(out_dir)}
    _snapshot(out_dir, "report", resolved)
    runs = []
    missing = []
    for run in args.runs:
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
                entry[key] = json.loads(path.read_text(encoding="utf-8"))
        if len(entry) == 1:
            missing.append(str(run_dir))
        runs.append(entry)

    payload = {"runs": runs, "missing_inputs": missing}
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

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


_COMMANDS = {
    "train-meta": cmd_train_meta,
    "score": cmd_score,
    "filter": cmd_filter,
    "diversity": cmd_diversity,
    "verify-scaling": cmd_verify_scaling,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        parser.error(f"bad config file: {exc}")
    level = _resolve(args, config, "log_level", "INFO")
    logging.basicConfig(level=getattr(logging, str(level).upper(), logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](args, config, out_dir)
    except (ErrorBudgetExceededError, ScorerUnavailableError, EmbedderUnavailableError) as exc:
        log.error("%s: %s", exc.code, exc)
        return EXIT_BUDGET
    except ConditionRegionViolatedError as exc:
        log.error("%s: %s", exc.code, exc)
        return EXIT_VERIFY
    except (ValueError, FileNotFoundError) as exc:
        log.error("invalid arguments: %s", exc)
        return EXIT_USAGE
    except ScalingFilterError as exc:
        code = getattr(exc, "code", "error")
        if code in ("invalid-pair-spec", "invalid-exponent", "empty-selection-input",
                    "invalid-classifier-score", "invalid-secant"):
            log.error("invalid arguments (%s): %s", code, exc)
            return EXIT_USAGE
        log.error("%s: %s", code, exc)
        return EXIT_FATAL
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
