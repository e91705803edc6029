"""Run one ``scalingfilter`` command with spans around its layers' public calls.

Usage: ``python3 bench/launcher.py SPANS_JSON CHAIN_ID -- <scalingfilter args>``

Before calling ``scalingfilter.cli.main`` it wraps, from outside the
package, the public functions each layer exposes (listed in ``install``),
replacing every module-level reference to them. A span is (id, name,
start, end, parent, chain id, attrs). Spans stay in memory and are
written to SPANS_JSON when the command returns. Work in forked score
workers is not seen here; the benchmark measures model perplexity in a
separate probe instead.

A span's self time is its duration minus the union of its child spans
and the time spent inside corpus iteration steps made while it was the
innermost open span (``iter_s``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self, chain: str):
        self.chain = chain
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> dict | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        # a pool thread's work was caused by what the main thread is running
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name: str) -> dict:
        parent = self.top()
        with self._lock:
            span = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
                    "parent": parent["id"] if parent else None, "chain": self.chain,
                    "iter_s": 0.0, "attrs": {}}
            self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().remove(span)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def dump(self, path: str, argv: list[str], exit_code: int) -> None:
        payload = {"pid": os.getpid(), "chain": self.chain, "argv": argv, "exit_code": exit_code,
                   "spans": self.spans, "counters": self.counters}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _shard_bytes(manifest_path) -> int:
    from scalingfilter.corpus import CorpusManifest

    manifest = CorpusManifest.load(manifest_path)
    return sum(p.stat().st_size for p in manifest.resolved_shard_paths(manifest_path))


def wrap_call(tracer: Tracer, name: str, fn, after=None):
    """Span around each call of ``fn``; ``after(span, args, result)`` adds attrs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["attrs"]["failed"] = 1
            raise
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, result)
        return result

    return wrapper


def wrap_reader(tracer: Tracer, fn):
    """Time each step of the document iterator ``fn`` returns.

    One span per pass: its attrs hold the shard bytes and the summed step
    time (``busy_s``); each step's time is also charged to the innermost
    open span, so consumers' self time excludes parsing. Records reported
    as malformed are counted by error code.
    """

    @functools.wraps(fn)
    def wrapper(manifest_path, *args, on_error=None, **kwargs):
        span = tracer.open("corpus.read")
        tracer.close(span)
        span["attrs"].update(bytes=_shard_bytes(manifest_path), busy_s=0.0, docs=0)
        if on_error is not None:
            report = on_error

            def on_error(err):
                tracer.count(f"corpus.record_errors.{err.code}")
                report(err)

        inner = fn(manifest_path, *args, on_error=on_error, **kwargs)

        def steps():
            while True:
                t0 = time.perf_counter()
                try:
                    doc = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = time.perf_counter() - t0
                    span["attrs"]["busy_s"] += dt
                    span["end"] = time.perf_counter()
                    top = tracer.top()
                    if top is not None:
                        top["iter_s"] += dt
                span["attrs"]["docs"] += 1
                yield doc

        return steps()

    return wrapper


def install(tracer: Tracer) -> None:
    import scalingfilter.cli  # noqa: F401  (loads every module whose references get rebound)
    from scalingfilter import corpus, diversity, embedding, ngram, remote, scoring, selection

    def n_docs(span, args, result):
        span["attrs"]["docs"] = len(args[1])

    def contexts(span, args, result):
        span["attrs"]["large_contexts"] = result.large.n_contexts

    def summary(span, args, result):
        span["attrs"].update(result.to_json())

    def written(span, args, result):
        out = Path(args[1])
        span["attrs"]["bytes"] = sum((out / p).stat().st_size for p in result.shard_paths)

    def materialized(span, args, result):
        span["attrs"]["bytes_in"] = _shard_bytes(args[1])

    wrapped = [
        (corpus, "write_corpus", "corpus.write_corpus", written),
        (ngram, "train_pair", "ngram.train_pair", None),
        (ngram, "save_pair", "ngram.save_pair", None),
        (ngram, "load_pair", "ngram.load_pair", contexts),
        (scoring, "score_corpus", "scoring.score_corpus", summary),
        (scoring, "read_score_file", "selection.read_scores", None),
        (remote, "post_json", "remote.post_json", None),
        (selection, "select_topk", "selection.topk", None),
        (selection, "select_temperature", "selection.temperature", None),
        (selection, "percentile_gate", "selection.percentile_gate", None),
        (selection, "apply_selection", "selection.apply_selection", materialized),
        (diversity, "semantic_diversity", "diversity.semantic_diversity", None),
    ]
    originals = {}
    for module, attr, name, after in wrapped:
        original = getattr(module, attr)
        originals[id(original)] = wrap_call(tracer, name, original, after)
    originals[id(corpus.read_manifest_corpus)] = wrap_reader(tracer, corpus.read_manifest_corpus)
    # Rebind every module-level reference, including ``from x import y`` copies.
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("scalingfilter"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                setattr(module, attr, originals[id(value)])

    cache_cls = scoring.ScoreCache
    cache_cls.__init__ = wrap_call(tracer, "scoring.cache_load", cache_cls.__init__)
    flush = cache_cls.flush

    @functools.wraps(flush)
    def traced_flush(self):
        span = tracer.open("scoring.cache_flush")
        span["attrs"]["rows"] = len(self._appended)
        try:
            return flush(self)
        finally:
            tracer.close(span)

    cache_cls.flush = traced_flush
    embedding.HashedProjectionEmbedder.embed = wrap_call(
        tracer, "embedding.hashed.embed", embedding.HashedProjectionEmbedder.embed, n_docs)
    embedding.RemoteEmbedder.embed = wrap_call(
        tracer, "embedding.remote.embed", embedding.RemoteEmbedder.embed, n_docs)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, chain, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(chain)
    install(tracer)
    import scalingfilter.cli as cli

    span = tracer.open(f"cli.{cli_args[0]}")
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(span)
        tracer.dump(spans_path, cli_args, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
