"""The benchmark under bench/ reaches into the package by name; keep those names importable.

A cleanup of src/ that removes or renames one of them fails here, in the
test suite, instead of in the next benchmark run.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import synth
from scalingfilter.corpus import write_corpus

ROOT = Path(__file__).resolve().parents[1]

# what bench/launcher.py wraps (install) and what bench/probe.py and
# bench/run.py call
PROGRAM = """
import sys
sys.path.insert(0, "bench")
from launcher import Tracer, install

install(Tracer("t"))

import scalingfilter.cli as cli
from scalingfilter.ngram import NGramModel, load_pair
from scalingfilter.scoring import RemotePerplexityModel, ScoreCache, ScoreSummary, read_score_file, score_corpus

for name in ("load_pair", "HashedProjectionEmbedder", "RemoteEmbedder", "derive_seed"):
    getattr(cli, name)
cache = ScoreCache(sys.argv[1], "fp-small", "fp-large")
assert cache._appended == []
cache.flush()
summary = ScoreSummary(count=0, error_count=0, endpoint_evaluations=0, cache_hits=0, cache_rows_skipped=0,
                       mean_quality_factor=None, quality_factor_quantiles={})
assert "endpoint_evaluations" in summary.to_json()
assert callable(NGramModel.perplexity) and callable(RemotePerplexityModel.fingerprint)
print("ok")
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_benchmark_names_still_exist(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(tmp_path / "cache.tsv")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_benchmark_commands_still_parse(monkeypatch):
    """Every command line bench/run.py launches parses with the current CLI."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    from scalingfilter.cli import build_parser

    parser = build_parser()
    for name in ("cold-pipeline", "remote-score"):
        inputs = run.Inputs(corpus=SimpleNamespace(path="corpus"), params={"n": 150, "repeats": 3},
                            seed=7, url="http://127.0.0.1:1")
        chain = run.commands(name, inputs, Path("chain"))
        assert chain
        for _, argv in chain:
            parser.parse_args(argv)  # exits 2 on a flag the CLI no longer has


def test_setup_probe_runs(tmp_path):
    """bench/probe.py's local set-up, the process whose time is setup_s, runs to exit 0."""
    from scalingfilter.cli import main

    corpus = tmp_path / "corpus"
    write_corpus(synth.chain_corpus(seed=3, n_docs=30, chain_seed=1), corpus, corpus_id="corpus")
    assert main(["train-meta", "--corpus", str(corpus), "--out", str(tmp_path / "pair")]) == 0
    result = subprocess.run(
        [sys.executable, "bench/probe.py", "setup", "local", str(tmp_path / "pair"), str(tmp_path / "cache.tsv")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
