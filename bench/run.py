"""Filter-chain benchmark for ``scalingfilter``.

Runs one workload's chain of ``scalingfilter`` commands, each in its own
process as users run them, one chain at a time (closed loop): at least
one chain, and another while at least half of it should end within
``--seconds``. Checks every chain's outputs, prints each metric by name
and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` counts
the documents valid at ingest over all chains and ``failed`` those
missing from ``scores.tsv``.

With ``--trace 0`` the metrics are the end-to-end ones, taken as medians
over the chains. With ``--trace 1`` it runs one untraced and one traced
chain (commands launched through ``launcher.py``) and reports the
per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload cold-pipeline --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke        # every workload and check, tiny inputs

Inputs are generated from ``--seed`` into ``.bench_work/`` and reused by
later runs with the same seed. Exit codes: 0 all checks passed, 1 a check
or command failed, 2 the package source is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.request import urlopen

import numpy as np

import doubles
import layers
import workload as gen

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
PY = sys.executable
KEEP_RATE = 0.7
SETUP_REPEATS = 5
# idle time before each set-up probe: on a shared 2-vCPU VM, probes launched back to back
# ran slower and their medians spread about twice as wide as with this pause
SETUP_PAUSE_S = 0.5
RUN_BUDGET_S = 165  # a run must end within 180 s
SAMPLE_CHECK_DOCS = 200
REL_TOL = 1e-12

SIZES = {
    "full": {
        "cold-pipeline": {"docs": 14330, "bad": 72, "n": 10000, "repeats": 10},
        "remote-score": {"docs": 40000, "bad": 200, "n": 10000, "repeats": 10},
    },
    "tiny": {
        "cold-pipeline": {"docs": 300, "bad": 3, "n": 150, "repeats": 3},
        "remote-score": {"docs": 400, "bad": 4, "n": 150, "repeats": 3},
    },
}

# name -> unit, for every end-to-end metric a workload can print
E2E_UNITS = {
    "setup_s": "s", "chain_mb_s": "MB/s", "train_mb_s": "MB/s", "score_mb_s": "MB/s",
    "filter_mb_s": "MB/s", "diversity_docs_per_s": "docs/s", "peak_rss_mb": "MB",
    "failed_doc_ratio": "ratio", "scored_doc_ratio": "ratio",
}


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Step:
    label: str
    code: int
    wall_s: float
    maxrss_mb: float


@dataclass
class Inputs:
    corpus: gen.CorpusSpec
    params: dict
    seed: int
    url: str = ""  # doubles' base URL (remote-score)


class Runner:
    """Launches the benchmark's processes; each is killed at the run's deadline."""

    def __init__(self, budget_s: float):
        self.env = dict(os.environ)
        self.env.pop("SCALINGFILTER_WORKERS", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # commands start from cached bytecode, as installed ones do
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))
        self.deadline = time.monotonic() + budget_s

    def launch(self, label: str, argv: list[str], log_dir: Path) -> Step:
        """Run one process to completion; wall time and peak RSS of it and its children."""
        with open(log_dir / f"{label}.out", "wb") as out, open(log_dir / f"{label}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in kB on Linux and covers the score workers the command reaped
        return Step(label, proc.returncode, wall_s, usage.ru_maxrss / 1024.0)


def cli(*args: str) -> list[str]:
    return [PY, "-m", "scalingfilter.cli", *args]


# -- workloads ----------------------------------------------------------------


def commands(name: str, inp: Inputs, c: Path) -> list[tuple[str, list[str]]]:
    """The chain of ``scalingfilter`` arguments a workload runs in ``c``."""
    corpus = inp.corpus.path
    p = inp.params
    seed = str(inp.seed)
    if name == "cold-pipeline":
        return [
            ("train-meta", ["train-meta", "--corpus", corpus, "--small-order", "2",
                            "--large-order", "5", "--out", f"{c}/pair"]),
            ("score", ["score", "--corpus", corpus, "--pair", f"{c}/pair", "--cache",
                       f"{c}/cache.tsv", "--workers", "2", "--out", f"{c}/score"]),
            ("filter-topk", ["filter", "--scores", f"{c}/score/scores.tsv", "--method", "topk",
                             "--keep-rate", str(KEEP_RATE), "--corpus", corpus, "--out", f"{c}/topk"]),
            ("diversity", ["diversity", "--corpus", f"{c}/topk/filtered", "--n", str(p["n"]),
                           "--repeats", str(p["repeats"]), "--embedder", "hashed", "--seed", seed,
                           "--out", f"{c}/div"]),
            ("report", ["report", "--runs", f"{c}/score", f"{c}/topk", f"{c}/div",
                        "--out", f"{c}/report"]),
        ]
    scores = f"{c}/score/scores.tsv"
    return [
        ("score", ["score", "--corpus", corpus, "--remote-small", f"{inp.url}/small",
                   "--remote-large", f"{inp.url}/large", "--batch-size", "32", "--workers", "2",
                   "--out", f"{c}/score"]),
        ("filter-topk", ["filter", "--scores", scores, "--method", "topk", "--keep-rate",
                         str(KEEP_RATE), "--corpus", corpus, "--out", f"{c}/topk"]),
        ("filter-temperature", ["filter", "--scores", scores, "--method", "temperature",
                                "--tau", "1.0", "--keep-rate", str(KEEP_RATE), "--seed", seed,
                                "--out", f"{c}/temperature"]),
        ("filter-gate", ["filter", "--scores", scores, "--method", "gate", "--lo", "15",
                         "--hi", "85", "--out", f"{c}/gate"]),
        ("diversity", ["diversity", "--corpus", f"{c}/topk/filtered", "--n", str(p["n"]),
                       "--repeats", str(p["repeats"]), "--embedder", "remote", "--remote-url",
                       f"{inp.url}/embed", "--seed", seed, "--out", f"{c}/div"]),
        ("report", ["report", "--runs", f"{c}/score", f"{c}/topk", f"{c}/temperature",
                    f"{c}/gate", f"{c}/div", "--out", f"{c}/report"]),
    ]


def _evict_old_inputs(prefix: str, keep: int = 3) -> None:
    dirs = sorted((d for d in (WORK / "inputs").glob(f"{prefix}-s*") if d.is_dir()),
                  key=lambda d: d.stat().st_mtime)
    for d in dirs[:-keep]:
        shutil.rmtree(d, ignore_errors=True)


def prepare(name: str, size: str, seed: int) -> Inputs:
    """Generate (or reuse) the workload's inputs; never timed."""
    p = SIZES[size][name]
    key = f"{name}-{size}"
    spec_file = WORK / "inputs" / f"{key}-s{seed}" / "corpus" / "spec.json"
    if not spec_file.exists():
        _evict_old_inputs(key)
        gen.fresh_corpus(spec_file.parent, seed, p["docs"], p["bad"])
    return Inputs(gen.CorpusSpec(**json.loads(spec_file.read_text())), p, seed)


# -- running and checking chains ----------------------------------------------


@dataclass
class Chain:
    dir: Path
    steps: list[Step]
    wall_s: float
    failed_docs: int = 0
    digest: str = ""


def run_chain(name: str, inp: Inputs, c: Path, runner: Runner, spans_dir: Path | None = None) -> Chain:
    if c.exists():
        shutil.rmtree(c)
    c.mkdir(parents=True)
    steps = []
    t0 = time.perf_counter()
    for label, args in commands(name, inp, c):
        if spans_dir is None:
            argv = cli(*args)
        else:
            argv = [PY, str(BENCH / "launcher.py"), str(spans_dir / f"{label}.json"), c.name, "--", *args]
        step = runner.launch(label, argv, c)
        steps.append(step)
        if step.code != 0:
            break
    return Chain(c, steps, time.perf_counter() - t0)


def read_docs(corpus_dir: str) -> dict[str, str]:
    """id -> text of the valid lines, read without the package under test."""
    docs = {}
    manifest = json.loads((Path(corpus_dir) / "manifest.json").read_text())
    for shard in manifest["shard_paths"]:
        for line in (Path(corpus_dir) / shard).read_bytes().splitlines():
            try:
                rec = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if rec["text"].strip():
                docs[rec["id"]] = rec["text"]
    return docs


def read_scores(path: Path) -> dict[str, tuple[int, float, float, float]]:
    rows = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(lines[0] == "doc_id\tn_tokens\tppl_small\tppl_large\tquality_factor",
           f"unexpected header in {path}")
    for line in lines[1:]:
        doc_id, n_tok, ppl_s, ppl_l, d = line.split("\t")
        rows[doc_id] = (int(n_tok), float(ppl_s), float(ppl_l), float(d))
    return rows


def check_chain(name: str, inp: Inputs, chain: Chain, docs: dict[str, str], first: Chain | None) -> None:
    """Raise CheckFailed unless every output of the chain is as specified."""
    c = chain.dir
    for step in chain.steps:
        expect(step.code == 0, f"{step.label} exited {step.code}; see {c / step.label}.err")
    expect(len(chain.steps) == len(commands(name, inp, c)), "chain stopped early")
    score_err = (c / "score.err").read_text(encoding="utf-8")
    record_errors = score_err.count("skipping record ")
    expect(record_errors == inp.corpus.bad_lines,
           f"score reported {record_errors} malformed records, {inp.corpus.bad_lines} injected")

    scores_path = c / "score" / "scores.tsv"
    rows = read_scores(scores_path)
    chain.failed_docs = len(set(docs) - set(rows))
    expect(set(rows) <= set(docs), "scores.tsv has ids that are not valid corpus documents")
    expect(len(rows) == inp.corpus.valid_docs,
           f"scores.tsv has {len(rows)} rows for {inp.corpus.valid_docs} valid documents")
    outputs = [scores_path, c / "topk" / "kept_ids.txt"]
    chain.digest = hashlib.blake2b(b"".join(p.read_bytes() for p in outputs)).hexdigest()

    n = len(rows)
    for method in ("topk", "temperature"):
        if (c / method).exists():
            kept = (c / method / "kept_ids.txt").read_text().splitlines()
            expect(len(kept) == math.ceil(KEEP_RATE * n), f"{method} kept {len(kept)} of {n}")
    kept_topk = len((c / "topk" / "kept_ids.txt").read_text().splitlines())
    manifest = json.loads((c / "topk" / "filtered" / "manifest.json").read_text())
    expect(manifest["doc_count"] == kept_topk,
           f"materialized {manifest['doc_count']} documents, kept {kept_topk}")
    if (c / "gate").exists():
        kept = len((c / "gate" / "kept_ids.txt").read_text().splitlines())
        expect(0 < kept <= n, f"gate kept {kept} of {n}")

    if (c / "div").exists():
        div = json.loads((c / "div" / "diversity.json").read_text())
        size = inp.params["n"]
        expect(div["sample_size"] == size and len(div["values"]) == inp.params["repeats"],
               "diversity protocol parameters differ from the requested ones")
        expect(1.0 <= div["mean"] <= size, f"diversity mean {div['mean']} outside [1, {size}]")
    report_args = commands(name, inp, c)[-1][1]
    runs = report_args[report_args.index("--runs") + 1 : report_args.index("--out")]
    report = json.loads((c / "report" / "report.json").read_text())
    expect(not report["missing_inputs"] and len(report["runs"]) == len(runs),
           "report.json misses run inputs")

    if first is not None:
        expect(chain.digest == first.digest, "outputs differ between chains on the same inputs")
        return
    for doc_id, (n_tok, _, _, _) in rows.items():
        if n_tok != len(docs[doc_id].encode("utf-8")):
            raise CheckFailed(f"{doc_id}: n_tokens {n_tok} is not its UTF-8 length")
    if name == "remote-score":
        for doc_id, (_, ppl_s, ppl_l, _) in rows.items():
            text = docs[doc_id]
            expect(ppl_s == doubles.perplexity("small", text) and ppl_l == doubles.perplexity("large", text),
                   f"{doc_id}: remote perplexities differ from the service's")
        return
    check_sample(inp, c, rows, docs)


def check_sample(inp: Inputs, c: Path, rows: dict, docs: dict[str, str]) -> None:
    """Scores of a seeded document sample equal direct model perplexities."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from scalingfilter.ngram import load_pair

    pair = load_pair(c / "pair")
    rng = np.random.default_rng([inp.seed % 2**64, 3])
    ids = sorted(rows)
    sample = [ids[int(i)] for i in rng.choice(len(ids), size=min(SAMPLE_CHECK_DOCS, len(ids)), replace=False)]
    for doc_id in sample:
        _, ppl_s, ppl_l, d = rows[doc_id]
        want_s = pair.small.perplexity(docs[doc_id])
        want_l = pair.large.perplexity(docs[doc_id])
        for got, want, what in ((ppl_s, want_s, "ppl_small"), (ppl_l, want_l, "ppl_large"),
                                (d, want_s / want_l, "quality_factor")):
            expect(abs(got - want) <= REL_TOL * abs(want), f"{doc_id}: {what} {got!r} != {want!r}")


# -- metrics ------------------------------------------------------------------


def chain_metrics(chain: Chain, inp: Inputs) -> dict[str, float]:
    by_label = {s.label: s for s in chain.steps}
    mb = inp.corpus.mb
    filters = [s.wall_s for s in chain.steps if s.label.startswith("filter")]
    failed = chain.failed_docs / inp.corpus.valid_docs
    m = {
        "chain_mb_s": mb / chain.wall_s,
        "score_mb_s": mb / by_label["score"].wall_s,
        "filter_mb_s": mb / sum(filters),
        "peak_rss_mb": max(s.maxrss_mb for s in chain.steps),
        "failed_doc_ratio": failed,
        "scored_doc_ratio": 1.0 - failed,
    }
    if "train-meta" in by_label:
        m["train_mb_s"] = mb / by_label["train-meta"].wall_s
    if "diversity" in by_label:
        m["diversity_docs_per_s"] = inp.params["n"] * inp.params["repeats"] / by_label["diversity"].wall_s
    return m


def setup_seconds(name: str, inp: Inputs, chain: Chain, runner: Runner) -> list[float]:
    if name == "remote-score":
        argv = [PY, str(BENCH / "probe.py"), "setup", "remote", inp.url]
    else:
        argv = [PY, str(BENCH / "probe.py"), "setup", "local", str(chain.dir / "pair"),
                str(chain.dir / "cache.tsv")]
    times = []
    for i in range(SETUP_REPEATS):
        time.sleep(SETUP_PAUSE_S)
        step = runner.launch(f"setup-{i}", argv, chain.dir)
        expect(step.code == 0, f"set-up probe exited {step.code}; see {chain.dir}/setup-{i}.err")
        times.append(step.wall_s)
    return times


class Services:
    """The HTTP doubles, as one child process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([PY, str(BENCH / "doubles.py")], stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise CheckFailed("the HTTP doubles did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        with urlopen(f"{self.url}/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()}


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """One benchmark run; returns the result object and a human-readable table."""
    inp = prepare(name, size, seed)
    runner = Runner(RUN_BUDGET_S)
    docs = read_docs(inp.corpus.path)
    run_dir = WORK / "runs" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    warm = runner.launch("import", cli("--version"), run_dir)  # compiles bytecode, warms the page cache
    expect(warm.code == 0, f"cannot run the CLI; see {run_dir}/import.err")
    services = Services(runner.env) if name == "remote-score" else None
    try:
        if services:
            inp.url = services.url
        if trace:
            values, chains = traced_run(name, inp, run_dir, docs, runner, services)
        else:
            values, chains = timed_run(name, inp, run_dir, docs, runner, seconds)
    finally:
        if services:
            services.close()
    units = declared("per_layer" if trace else "end_to_end")
    missing = sorted(set(units) - set(values))
    expect(not missing, f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": True,
        "attempted": inp.corpus.valid_docs * len(chains),
        "failed": sum(c.failed_docs for c in chains),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    shown_units = {**units, **E2E_UNITS}
    lines = [f"workload {name}  seed {seed}  size {size}  {inp.corpus.valid_docs} valid docs "
             f"+ {inp.corpus.bad_lines} malformed lines  {inp.corpus.mb:.3f} MB  chains {len(chains)}  "
             f"env {json.dumps(environment())}"]
    lines += [f"  {c.dir.name}: {c.wall_s:.3f} s = " + ", ".join(f"{s.label} {s.wall_s:.3f}" for s in c.steps)
              for c in chains]
    lines += [f"  {k:<34} {v:>14.6g} {shown_units[k]}" for k, v in values.items()]
    if trace and name != "remote-score":
        lines.append("  note: ngram.*.score_mb_s time each model's perplexity over the texts the score command "
                     "evaluated, in a process of their own (bench/probe.py): score workers are forked and carry no spans")
    return result, "\n".join(lines)


def timed_run(name, inp, run_dir, docs, runner, seconds):
    chains: list[Chain] = []
    start = time.perf_counter()
    # one chain at least; another while at least half of it should end within --seconds
    while not chains or time.perf_counter() - start + chains[-1].wall_s / 2 <= seconds:
        chain = run_chain(name, inp, run_dir / f"chain-{len(chains)}", runner)
        check_chain(name, inp, chain, docs, chains[0] if chains else None)
        chains.append(chain)
    per_chain = [chain_metrics(c, inp) for c in chains]
    shown = {k: statistics.median(m[k] for m in per_chain) for k in per_chain[0]}
    setups = setup_seconds(name, inp, chains[-1], runner)
    shown["setup_s"] = statistics.median(setups)
    return {k: shown[k] for k in E2E_UNITS if k in shown}, chains


def traced_run(name, inp, run_dir, docs, runner, services):
    plain = run_chain(name, inp, run_dir / "chain-0", runner)
    check_chain(name, inp, plain, docs, None)
    spans_dir = run_dir / "spans"
    spans_dir.mkdir()
    before = services.stats() if services else None
    traced = run_chain(name, inp, run_dir / "chain-1", runner, spans_dir=spans_dir)
    server = None
    if services:
        after = services.stats()
        server = {k: after[k] - before[k] for k in ("connections", "requests", "cpu_s")}
    check_chain(name, inp, traced, docs, plain)

    probe = None
    if name != "remote-score":
        texts_path = run_dir / "texts.json"
        texts_path.write_text(json.dumps([docs[i] for i in sorted(docs)]), encoding="utf-8")
        step = runner.launch("probe", [PY, str(BENCH / "probe.py"), "perplexity",
                                str(traced.dir / "pair"), str(texts_path)], run_dir)
        expect(step.code == 0, f"perplexity probe exited {step.code}; see {run_dir}/probe.err")
        probe = json.loads((run_dir / "probe.out").read_text())
    errors: dict[str, int] = {}
    errors_tsv = traced.dir / "score" / "scores.tsv.errors.tsv"
    if errors_tsv.exists():
        for line in errors_tsv.read_text(encoding="utf-8").splitlines()[1:]:
            code = line.split("\t")[1]
            errors[code] = errors.get(code, 0) + 1
    values = layers.layer_metrics(sorted(spans_dir.glob("*.json")), inp.corpus.mb, probe, server, errors)
    stage = chain_metrics(plain, inp)
    for key in ("train_mb_s", "score_mb_s", "filter_mb_s", "diversity_docs_per_s"):
        values[key] = stage.get(key, 0.0)
    values["failed_doc_ratio"] = chain_metrics(traced, inp)["failed_doc_ratio"]
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    return values, [plain, traced]


def declared(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# -- entry points ---------------------------------------------------------------


def smoke() -> int:
    """Every workload at the tiny size, untraced and traced; all checks must pass."""
    ok = True
    for name in SIZES["tiny"]:
        for trace in (False, True):
            try:
                _, table = run_workload(name, "tiny", 1, 0.0, trace)
                print(table)
            except CheckFailed as exc:
                ok = False
                print(f"FAIL {name} trace={int(trace)}: {exc}")
    print("smoke: all checks passed" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*SIZES["full"], "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload and check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scalingfilter" / "cli.py").is_file():
        print(f"error: no scalingfilter source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    names = list(SIZES["full"]) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, table = run_workload(name, "full", args.seed, args.seconds, bool(args.trace))
        except CheckFailed as exc:
            print(f"check failed on {name}: {exc}", file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            table = f"workload {name}: FAILED"
        print(table, flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
