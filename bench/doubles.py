"""Deterministic HTTP doubles of the perplexity and embedding services.

One process serves three models under path prefixes of one port:

    POST /small/v1/perplexity   POST /large/v1/perplexity   POST /embed/v1/embed

They speak the protocol in the README (``log_base: 2``, ``normalized:
true``) and answer from a content hash of each text, so a request costs
little more than its JSON. ``GET /stats`` returns the connections and
requests served so far (stats calls excluded) and the process CPU time,
which the benchmark turns into the ``remote.*`` metrics.

Run: ``python3 bench/doubles.py`` prints ``port <n>`` once listening and
serves until terminated.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

EMBED_DIM = 32
MODELS = {"small": "double-small", "large": "double-large"}


def _unit_hash(text: str) -> tuple[float, float]:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    a = int.from_bytes(digest[:8], "little") / 2.0**64
    b = int.from_bytes(digest[8:], "little") / 2.0**64
    return a, b


def perplexity(model: str, text: str) -> float:
    """The double's perplexity of ``text``; the large model never scores worse."""
    a, b = _unit_hash(text)
    ppl_large = 2.0 ** (1.0 + 5.0 * a)
    return ppl_large if model == "large" else ppl_large * 2.0 ** (0.05 + 2.0 * b)


def embedding(text: str) -> list[float]:
    """A unit vector drawn from the text's hash."""
    seed = int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")
    vec = np.random.default_rng(seed).standard_normal(EMBED_DIM)
    return (vec / np.linalg.norm(vec)).tolist()


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive is possible; clients decide
    stats: Stats

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        self._counted = False

    def _count(self):
        with self.stats.lock:
            self.stats.requests += 1
            if not self._counted:
                self.stats.connections += 1
                self._counted = True

    def _reply(self, payload: dict, status: int = 200):
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            self._reply({"error": "unknown path"}, 404)
            return
        with self.stats.lock:
            payload = {
                "connections": self.stats.connections,
                "requests": self.stats.requests,
                "cpu_s": time.process_time(),
            }
        self._reply(payload)

    def do_POST(self):
        self._count()
        length = int(self.headers.get("Content-Length", 0))
        texts = json.loads(self.rfile.read(length).decode("utf-8")).get("texts", [])
        prefix, _, rest = self.path.lstrip("/").partition("/")
        if rest == "v1/perplexity" and prefix in MODELS:
            self._reply({
                "perplexities": [perplexity(prefix, t) for t in texts],
                "model": MODELS[prefix],
                "log_base": 2,
            })
        elif rest == "v1/embed" and prefix == "embed":
            self._reply({
                "embeddings": [embedding(t) for t in texts],
                "model": "double-embed",
                "normalized": True,
            })
        else:
            self._reply({"error": "unknown path"}, 404)


def main() -> int:
    Handler.stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
