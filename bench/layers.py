"""Per-layer metrics from the spans of one traced chain.

Each span file holds one command's spans (see ``launcher.py``). Layer
throughputs use the bytes that layer handled; times are summed over the
chain's commands unless a name says otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

COMMANDS = ("train-meta", "score", "filter", "diversity", "report")
ERROR_CODES = ("invalid-perplexity", "scorer-unavailable")


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


class Command:
    """The spans one traced command process left."""

    def __init__(self, path: Path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        self.name = payload["argv"][0]
        self.counters = payload["counters"]
        self.spans = payload["spans"]
        self._children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                self._children.setdefault(span["parent"], []).append(span)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def self_time(self, span: dict) -> float:
        # a read pass's interval includes its consumer's work; its steps are in iter_s
        kids = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in self._children.get(span["id"], [])
                if c["name"] != "corpus.read" and c["end"] is not None]
        return max(0.0, _dur(span) - _union(kids) - span["iter_s"])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(
    span_files: list[Path],
    input_mb: float,
    probe: dict | None,
    server: dict | None,
    errors: dict[str, int],
) -> dict[str, float]:
    """Every per-layer metric except the ones the caller measures itself.

    ``probe`` is the perplexity probe's output (local workloads),
    ``server`` the doubles' counter deltas over the traced chain (remote),
    ``errors`` the score command's ``.errors.tsv`` counts by code.
    """
    cmds = [Command(p) for p in span_files]

    def spans(name: str, command: str | None = None) -> list[dict]:
        return [s for c in cmds if command in (None, c.name) for s in c.named(name)]

    def total(name: str) -> float:
        return sum(_dur(s) for s in spans(name))

    def self_total(name: str) -> float:
        return sum(c.self_time(s) for c in cmds for s in c.named(name))

    def attr(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in spans(name))

    m: dict[str, float] = {}
    reads = spans("corpus.read")
    m["corpus.read_mb_s"] = _ratio(sum(s["attrs"]["bytes"] for s in reads) / 1e6,
                                   sum(s["attrs"]["busy_s"] for s in reads))
    m["corpus.write_mb_s"] = _ratio(attr("corpus.write_corpus", "bytes") / 1e6,
                                    self_total("corpus.write_corpus"))
    m["corpus.record_errors"] = sum(
        v for c in cmds if c.name == "score"
        for k, v in c.counters.items() if k.startswith("corpus.record_errors."))

    m["ngram.train_mb_s"] = _ratio(input_mb if spans("ngram.train_pair") else 0.0,
                                   self_total("ngram.train_pair"))
    m["ngram.save_s"] = total("ngram.save_pair")
    m["ngram.load_s"] = sum(_dur(s) for s in spans("ngram.load_pair", "score"))
    m["ngram.large.contexts"] = max([s["attrs"]["large_contexts"] for s in spans("ngram.load_pair")],
                                    default=0)
    for model in ("small", "large"):
        m[f"ngram.{model}.score_mb_s"] = (
            _ratio(probe["bytes"] / 1e6, probe[f"{model}_s"]) if probe else 0.0)

    m["scoring.score_corpus_s"] = total("scoring.score_corpus")
    m["scoring.self_s"] = self_total("scoring.score_corpus")
    m["scoring.cache_load_s"] = total("scoring.cache_load")
    m["scoring.endpoint_evaluations"] = attr("scoring.score_corpus", "endpoint_evaluations")
    m["scoring.cache_flush_s"] = total("scoring.cache_flush")
    m["scoring.cache_rows_appended"] = attr("scoring.cache_flush", "rows")
    for code in ERROR_CODES:
        m[f"scoring.errors.{code}"] = errors.get(code, 0)
    m["scoring.errors.other"] = sum(v for k, v in errors.items() if k not in ERROR_CODES)

    posts = spans("remote.post_json")
    latencies = sorted(_dur(s) * 1e3 for s in posts)
    m["remote.requests"] = len(posts)
    m["remote.request_samples"] = len(latencies)
    if len(latencies) >= 2:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        m["remote.request_ms.p50"], m["remote.request_ms.p99"] = cuts[49], cuts[98]
    else:
        m["remote.request_ms.p50"] = m["remote.request_ms.p99"] = latencies[0] if latencies else 0.0
    m["remote.wait_s"] = _union([(s["start"], s["end"]) for s in spans("remote.post_json", "score")])
    m["remote.failed_requests"] = sum(1 for s in posts if s["attrs"].get("failed"))
    if server:
        m["remote.retries"] = server["requests"] - len(posts)
        m["remote.connections_per_request"] = _ratio(server["connections"], server["requests"])
        m["remote.server_cpu_s"] = server["cpu_s"]
    else:
        m["remote.retries"] = m["remote.connections_per_request"] = m["remote.server_cpu_s"] = 0

    m["selection.read_scores_s"] = total("selection.read_scores")
    m["selection.topk_s"] = total("selection.topk")
    m["selection.temperature_s"] = total("selection.temperature")
    m["selection.percentile_gate_s"] = total("selection.percentile_gate")
    m["selection.materialize_mb_s"] = _ratio(attr("selection.apply_selection", "bytes_in") / 1e6,
                                             total("selection.apply_selection"))

    for kind in ("hashed", "remote"):
        name = f"embedding.{kind}.embed"
        m[f"embedding.{kind}.docs_per_s"] = _ratio(attr(name, "docs"), total(name))
    m["embedding.hashed.first_call_s"] = probe["first_embed_s"] if probe else 0.0
    spectra = [_dur(s) for s in spans("diversity.semantic_diversity")]
    m["diversity.spectrum_s"] = statistics.median(spectra) if spectra else 0.0
    m["diversity.unique_docs_embedded"] = sum(
        s["attrs"].get("docs", 0) for kind in ("hashed", "remote")
        for s in spans(f"embedding.{kind}.embed", "diversity"))

    for command in COMMANDS:
        m[f"cli.{command}_s"] = total(f"cli.{command}")
        m[f"cli.{command}.self_s"] = self_total(f"cli.{command}")
    return m
