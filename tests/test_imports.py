"""Each command imports only what its own code path runs.

numpy, ``urllib.request`` and ``multiprocessing`` each cost tens of
milliseconds of start-up, paid by every process of a filter chain. Every
command here runs in a fresh interpreter on a tiny corpus, and the modules
it ends with are checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synth
from scalingfilter.corpus import write_corpus

ROOT = Path(__file__).resolve().parents[1]

# runs the CLI like ``python -m scalingfilter.cli``, then prints what it loaded
PROGRAM = """
import json, sys
from scalingfilter.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

HEAVY = ("numpy", "urllib.request", "multiprocessing")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run(program, *args):
    result = subprocess.run([sys.executable, "-c", program, *map(str, args)], cwd=ROOT, env=_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The modules each command ended with, by name; the commands run in chain order."""
    root = tmp_path_factory.mktemp("imports")
    corpus = root / "corpus"
    write_corpus(synth.chain_corpus(seed=5, n_docs=40, chain_seed=2), corpus, corpus_id="corpus")
    scores = root / "score" / "scores.tsv"
    commands = {
        "train-meta": ["train-meta", "--corpus", corpus, "--out", root / "pair"],
        "score": ["score", "--corpus", corpus, "--pair", root / "pair", "--workers", "2", "--out", root / "score"],
        "filter-topk": ["filter", "--scores", scores, "--method", "topk", "--corpus", corpus, "--out", root / "topk"],
        "filter-gate": ["filter", "--scores", scores, "--method", "gate", "--out", root / "gate"],
        "filter-temperature": ["filter", "--scores", scores, "--method", "temperature", "--tau", "1",
                               "--out", root / "temperature"],
        "diversity": ["diversity", "--corpus", root / "topk" / "filtered", "--n", "10", "--repeats", "2",
                      "--embedder", "hashed", "--out", root / "div"],
        "verify-scaling": ["verify-scaling", "--out", root / "verify"],
        "report": ["report", "--runs", root / "score", root / "topk", root / "div", root / "verify",
                   "--out", root / "report"],
        "version": ["--version"],
    }
    out = {}
    for name, argv in commands.items():
        run = _run(PROGRAM, *argv)
        assert run["code"] == 0, name
        out[name] = set(run["modules"])
    return out


@pytest.mark.parametrize("command", ["report", "filter-topk", "filter-gate", "version"])
def test_light_commands_load_no_numpy_http_client_or_fork(runs, command):
    assert not runs[command] & set(HEAVY)


@pytest.mark.parametrize("command", ["train-meta", "score", "diversity"])
def test_local_model_commands_load_no_http_client(runs, command):
    assert "urllib.request" not in runs[command]
    assert "numpy" in runs[command]


@pytest.mark.parametrize("command", ["filter-temperature", "verify-scaling"])
def test_numpy_commands_still_run(runs, command):
    assert "numpy" in runs[command]


# scores two batches on two forked workers, each returning the modules it ended with
FORKED = """
import functools, json, sys
from scalingfilter import parallel, scoring
small = scoring.RemotePerplexityModel(sys.argv[1])
large = scoring.RemotePerplexityModel(sys.argv[1])

def task(batch):
    return scoring._score_batch(small, large, batch), sorted(sys.modules)

results = parallel.fork_map(task, [[("a", "one text")], [("b", "another text")]], 2)
print(json.dumps({"rows": [rows for (rows, _), _ in results],
                  "imported": sorted(set().union(*(mods for _, mods in results)) - set(sys.modules))}))
"""


def test_forked_score_workers_import_nothing(make_service):
    svc = make_service(perplexity_fn=lambda text: 2.0)
    out = _run(FORKED, svc.url)
    assert out["rows"] == [[["a", 8, 2.0, 2.0]], [["b", 12, 2.0, 2.0]]]
    assert out["imported"] == []
