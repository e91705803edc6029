"""The benchmark under bench/ reaches into the package by name; keep those names importable.

A cleanup of src/ that removes or renames one of them fails here, in the
test suite, instead of in the next benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

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
assert "endpoint_evaluations" in ScoreSummary(0, 0, 0, 0, float("nan")).to_json()
assert callable(NGramModel.perplexity) and callable(RemotePerplexityModel.fingerprint)
print("ok")
"""


def test_benchmark_names_still_exist(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(tmp_path / "cache.tsv")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
