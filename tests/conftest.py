from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from scalingfilter import remote
from scalingfilter.corpus import Document, write_corpus


@pytest.fixture
def small_docs() -> list[Document]:
    return [
        Document(f"doc:{i:03d}", f"sample text number {i} with some shared words")
        for i in range(10)
    ]


def make_corpus_dir(tmp_path, docs, name="corpus", shard_size=100):
    out = tmp_path / name
    write_corpus(docs, out, shard_size=shard_size, corpus_id=name)
    return out


class _JsonHandler(BaseHTTPRequestHandler):
    """Test double for the perplexity / embedding services.

    Headers and body go out in two sends, the case where a kept-alive
    connection meets Nagle's algorithm and the client's delayed ACK.
    """

    # set per server instance
    perplexity_fn = None
    embed_fn = None
    model_of = None  # the model name a reply gives, from the number of requests received so far
    fail_requests = False
    drop_after_reply = False  # close the connection after each reply without saying so
    reply = None  # when set, every POST is answered with this JSON value
    requests: list = []  # texts per request received, in arrival order
    connections: list = []  # client address of each connection accepted, in arrival order

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        self.connections.append(self.client_address)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        texts = body.get("texts", [])
        self.requests.append(len(texts))
        if self.fail_requests:
            self.send_error(500, "synthetic failure")
            return
        if self.reply is not None:
            payload = self.reply
        elif self.path == "/v1/perplexity" and self.perplexity_fn is not None:
            payload = {
                "perplexities": [self.perplexity_fn(t) for t in texts],
                "model": self.model_of(len(self.requests)),
                "log_base": 2,
            }
        elif self.path == "/v1/embed" and self.embed_fn is not None:
            vectors, normalized = self.embed_fn(texts)
            payload = {"embeddings": vectors, "model": self.model_of(len(self.requests)), "normalized": normalized}
        else:
            self.send_error(404, "unknown path")
            return
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if self.drop_after_reply:
            self.close_connection = True


class ServiceHandle:
    def __init__(self, server: ThreadingHTTPServer, handler_cls):
        self.server = server
        self.handler_cls = handler_cls
        self.url = f"http://127.0.0.1:{server.server_address[1]}"

    def set_failing(self, failing: bool):
        self.handler_cls.fail_requests = failing

    @property
    def requests(self) -> list[int]:
        return self.handler_cls.requests

    @property
    def connections(self) -> int:
        return len(self.handler_cls.connections)


@pytest.fixture
def make_service():
    """Start a throwaway JSON service; returns a factory of ServiceHandle.

    ``model`` is the name every reply gives, or a function of the number of
    requests received so far. ``protocol_version="HTTP/1.1"`` keeps each
    connection open for the next request; the default HTTP/1.0 closes it
    after each reply, and so does ``drop_after_reply`` without telling the
    client.
    """
    servers = []

    def factory(perplexity_fn=None, embed_fn=None, model="test-model", reply=None,
                protocol_version="HTTP/1.0", drop_after_reply=False):
        handler_cls = type(
            "Handler",
            (_JsonHandler,),
            {"perplexity_fn": staticmethod(perplexity_fn) if perplexity_fn else None,
             "embed_fn": staticmethod(embed_fn) if embed_fn else None,
             "model_of": staticmethod(model if callable(model) else lambda n: model),
             "reply": reply,
             "protocol_version": protocol_version,
             "drop_after_reply": drop_after_reply,
             "fail_requests": False,
             "requests": [],
             "connections": []},
        )
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return ServiceHandle(server, handler_cls)

    yield factory
    remote._forget_connections()  # a later test's service may reuse a port: start it with no kept connection
    for server in servers:
        server.shutdown()
        server.server_close()
