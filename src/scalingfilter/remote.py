"""Standard-library JSON-over-HTTP client of the remote scorer and embedder.

Each request opens its own connection: on a reused connection each small
reply stalls about 40 ms (Nagle's algorithm plus delayed ACKs).
"""

from __future__ import annotations

# the host-name codec a process loads at its first connection: loaded here, not in each forked worker
import encodings.idna  # noqa: F401
import json
import time
import urllib.error
import urllib.request
from typing import Any

RETRIES = 3  # attempts per request
BACKOFF_S = 0.2  # pause after the first failed attempt; doubles after each later one


def post_json(url: str, payload: dict, timeout: float = 30.0) -> dict[str, Any]:
    """POST a JSON payload, retrying failures with exponential backoff.

    A connection error, a non-2xx status or a reply that is not a JSON
    object fails an attempt. Raises the last failure once ``RETRIES``
    attempts have failed; callers translate that into their own error code.
    """
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    for attempt in range(RETRIES):
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                body = json.loads(resp.read())
            if not isinstance(body, dict):
                raise ValueError(f"expected JSON object from {url}, got {type(body).__name__}")
            return body
        except Exception as exc:  # noqa: BLE001 - uniform retry over network errors
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # a non-2xx status: the error holds the open response
            if attempt + 1 == RETRIES:
                raise
            time.sleep(BACKOFF_S * (2**attempt))


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
