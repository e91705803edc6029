"""Standard-library JSON-over-HTTP client of the remote scorer and embedder.

Each process keeps one HTTP/1.1 connection per endpoint (scheme, host,
port) and sends every request to that endpoint over it. A forked child
starts with none, so a score worker never shares its parent's socket.

A kept connection stalls about 40 ms per small reply when the server writes
headers and body in two sends: Nagle's algorithm (RFC 896) holds the body
until the client's delayed ACK (RFC 1122 4.2.3.2) of the headers arrives.
So ``TCP_QUICKACK`` is set after each request is sent, which makes that
ACK immediate. Where the platform lacks ``TCP_QUICKACK``, the connection is
closed after each reply. A server may close an idle kept connection before
answering; the request is then sent again at once on a new connection, and
that does not count as a failed attempt. Proxy variables (``http_proxy``
and the like) are not read, and a connection error carries the socket's own
message (``[Errno 111] Connection refused``), not ``<urlopen error ...>``.
"""

from __future__ import annotations

# the host-name codec a process loads at its first connection: loaded here, not in each forked worker
import encodings.idna  # noqa: F401
import http.client
import json
import os
import socket
import time
import urllib.error
import urllib.parse
from typing import Any, Optional

RETRIES = 3  # attempts per request
BACKOFF_S = 0.2  # pause after the first failed attempt; doubles after each later one

# None where the platform lacks it: a kept connection would stall, so each reply closes its connection
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
_CONNECTION_TYPES = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
_HEADERS = {"Content-Type": "application/json"}
# A reused connection the server closed while it was idle fails the resend with one of these.
_IDLE_CLOSED = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)

# the kept connection of each (scheme, host, port), at most one per endpoint in this process
_connections: dict[tuple, http.client.HTTPConnection] = {}


def _forget_connections() -> None:
    for conn in _connections.values():
        conn.close()  # the child's copy of the descriptor only: the parent's connection stays open
    _connections.clear()


os.register_at_fork(after_in_child=_forget_connections)


def post_json(url: str, payload: dict, timeout: float = 30.0) -> dict[str, Any]:
    """POST a JSON payload, retrying failures with exponential backoff.

    A connection error, a non-2xx status (``urllib.error.HTTPError``) or a
    reply that is not a JSON object fails an attempt. Raises the last
    failure once ``RETRIES`` attempts have failed; callers translate that
    into their own error code.
    """
    data = json.dumps(payload).encode("utf-8")
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in _CONNECTION_TYPES:
        raise ValueError(f"unsupported URL scheme {parts.scheme!r} in {url!r}")
    for attempt in range(RETRIES):
        try:
            return _attempt(url, parts, data, timeout)
        except Exception:  # noqa: BLE001 - uniform retry over network errors
            if attempt + 1 == RETRIES:
                raise
            time.sleep(BACKOFF_S * (2**attempt))


def _attempt(url: str, parts: urllib.parse.SplitResult, data: bytes, timeout: float) -> dict[str, Any]:
    """One attempt on the endpoint's kept connection, which a failure closes and drops."""
    key = (parts.scheme, parts.hostname, parts.port)
    conn = _connections.pop(key, None)
    idle = conn is not None
    if conn is None:
        conn = _CONNECTION_TYPES[parts.scheme](parts.hostname, parts.port, timeout=timeout)
    else:  # this call's timeout, on the kept socket and on any reconnect
        conn.timeout = timeout
        conn.sock.settimeout(timeout)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    keep = False
    try:
        while True:
            try:
                conn.request("POST", target, body=data, headers=_HEADERS)
                if _QUICKACK is not None:
                    conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
                resp = conn.getresponse()
                break
            except _IDLE_CLOSED:
                if not idle:
                    raise
                conn.close()  # the next request() opens a new connection
                idle = False
        raw = resp.read()
        if not 200 <= resp.status < 300:
            raise urllib.error.HTTPError(url, resp.status, resp.reason, resp.headers, None)
        body = json.loads(raw)
        if not isinstance(body, dict):
            raise ValueError(f"expected JSON object from {url}, got {type(body).__name__}")
        keep = _QUICKACK is not None and not resp.will_close
        return body
    finally:
        if keep:
            _connections[key] = conn
        else:
            conn.close()


def post_texts(url: str, texts: list[str], key: str, error: type[Exception], timeout: float):
    """POST ``{"texts": texts}``; return the reply and its list under ``key``.

    Raises ``error`` if the request fails or that list does not hold one entry per text.
    """
    try:
        body = post_json(url, {"texts": texts}, timeout=timeout)
    except Exception as exc:
        raise error(f"{url} failed: {exc}") from exc
    values = body.get(key)
    if not isinstance(values, list) or len(values) != len(texts):
        found = len(values) if isinstance(values, list) else "no"
        raise error(f"{url} returned {found} {key} for {len(texts)} texts")
    return body, values


def model_name(body: dict, seen: Optional[str], url: str, error: type[Exception]) -> str:
    """The model a reply names; raises ``error`` if it is not ``seen``, the name an earlier reply gave.

    Scores and embeddings are recorded under the model first seen, so a
    batch answered by another model must fail rather than mix in.
    """
    name = str(body.get("model", ""))
    if seen is not None and name != seen:
        raise error(f"{url} answered as model {name!r}, but earlier replies came from {seen!r}")
    return name
