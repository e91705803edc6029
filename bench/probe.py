"""Measurements that need a fresh interpreter of their own.

``setup``: the fixed cost a command pays before its first document. It
imports ``scalingfilter.cli``, loads the workload's pair and opens its
cache (local), or makes the model-name handshake with both perplexity
services (remote), then builds the embedder: the hashed projection, or
one remote embedding call. The benchmark times the whole process.

``perplexity``: per-model scoring throughput over the documents a score
command had to evaluate, timed here because score workers are forked
and their calls cannot carry spans. Also times the first one-document
``embed`` of the hashed embedder, which builds its projection. Prints
one JSON object.

Usage:
    python3 bench/probe.py setup local PAIR_DIR CACHE_TSV
    python3 bench/probe.py setup remote BASE_URL
    python3 bench/probe.py perplexity PAIR_DIR TEXTS_JSON
"""

from __future__ import annotations

import json
import sys
import time


def setup_local(pair_dir: str, cache_path: str) -> None:
    import scalingfilter.cli as cli
    from scalingfilter.scoring import ScoreCache

    pair = cli.load_pair(pair_dir)
    ScoreCache(cache_path, pair.small.fingerprint(), pair.large.fingerprint())
    cli.HashedProjectionEmbedder(dim=64, seed=cli.derive_seed(0, "embedder")).embed(["setup"])


def setup_remote(base_url: str) -> None:
    import scalingfilter.cli as cli
    from scalingfilter.scoring import RemotePerplexityModel

    for model in ("small", "large"):
        RemotePerplexityModel(f"{base_url}/{model}").fingerprint()
    cli.RemoteEmbedder(f"{base_url}/embed").embed(["setup"])


def perplexity(pair_dir: str, texts_path: str) -> dict:
    from scalingfilter import cli
    from scalingfilter.ngram import load_pair

    with open(texts_path, encoding="utf-8") as fh:
        texts = json.load(fh)
    n_bytes = sum(len(t.encode("utf-8")) for t in texts)
    pair = load_pair(pair_dir)
    out = {"texts": len(texts), "bytes": n_bytes}
    for name, model in (("small", pair.small), ("large", pair.large)):
        t0 = time.perf_counter()
        for text in texts:
            model.perplexity(text)
        out[f"{name}_s"] = time.perf_counter() - t0
    embedder = cli.HashedProjectionEmbedder(dim=64, seed=cli.derive_seed(0, "embedder"))
    t0 = time.perf_counter()
    embedder.embed(texts[:1])
    out["first_embed_s"] = time.perf_counter() - t0
    return out


def main(argv: list[str]) -> int:
    if argv[:2] == ["setup", "local"] and len(argv) == 4:
        setup_local(argv[2], argv[3])
    elif argv[:2] == ["setup", "remote"] and len(argv) == 3:
        setup_remote(argv[2])
    elif argv[:1] == ["perplexity"] and len(argv) == 3:
        print(json.dumps(perplexity(argv[1], argv[2])))
    else:
        print(__doc__.split("Usage:")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
