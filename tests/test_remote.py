import os
import time
import urllib.error

import pytest

from scalingfilter import remote
from scalingfilter.remote import post_json


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(remote, "BACKOFF_S", 0.0)


def test_success_returns_the_object(make_service):
    svc = make_service(perplexity_fn=lambda t: float(len(t)), model="m")
    body = post_json(f"{svc.url}/v1/perplexity", {"texts": ["ab", "abc"]}, timeout=5)
    assert body == {"perplexities": [2.0, 3.0], "model": "m", "log_base": 2}
    assert svc.requests == [2]


@pytest.mark.parametrize("retries", [1, 3])
def test_server_error_retried_then_raised(monkeypatch, make_service, retries):
    monkeypatch.setattr(remote, "RETRIES", retries)
    svc = make_service(perplexity_fn=lambda t: 1.0)
    svc.set_failing(True)
    with pytest.raises(urllib.error.HTTPError) as exc:
        post_json(f"{svc.url}/v1/perplexity", {"texts": ["x"]}, timeout=5)
    assert exc.value.code == 500
    assert svc.requests == [1] * retries


@pytest.mark.parametrize("reply", [[1.0, 2.0], "text", 3])
def test_non_object_body_raises(monkeypatch, make_service, reply):
    monkeypatch.setattr(remote, "RETRIES", 2)
    svc = make_service(reply=reply)
    with pytest.raises(ValueError, match="expected JSON object"):
        post_json(f"{svc.url}/v1/perplexity", {"texts": ["x"]}, timeout=5)
    assert svc.requests == [1, 1]


def _post(svc, n=1):
    return post_json(f"{svc.url}/v1/perplexity", {"texts": ["x"] * n}, timeout=5)


def test_sequential_calls_share_one_connection(make_service):
    svc = make_service(perplexity_fn=lambda t: 1.0, protocol_version="HTTP/1.1")
    for n in range(1, 11):
        assert _post(svc, n)["perplexities"] == [1.0] * n
    assert svc.requests == list(range(1, 11))
    assert svc.connections == 1


def test_forked_workers_open_their_own_connections(make_service):
    from scalingfilter.parallel import fork_map

    svc = make_service(perplexity_fn=len, protocol_version="HTTP/1.1")
    _post(svc)  # the parent's handshake: its connection is kept when the workers fork

    def task(n):
        return os.getpid(), _post(svc, n)

    items = list(range(1, 9))
    forked = fork_map(task, items, 2)
    pids = {pid for pid, _ in forked}
    assert os.getpid() not in pids
    assert svc.connections == 1 + len(pids)
    _post(svc)  # the parent's connection survives its children
    assert svc.connections == 1 + len(pids)
    assert [body for _, body in forked] == [body for _, body in fork_map(task, items, 1)]
    assert svc.connections == 1 + len(pids)


def test_closing_server_gets_one_request_per_call_and_no_retry(monkeypatch, make_service):
    monkeypatch.setattr(remote, "BACKOFF_S", 30.0)
    svc = make_service(perplexity_fn=lambda t: 1.0)  # HTTP/1.0: closes after each reply
    for _ in range(5):
        _post(svc)
    assert svc.requests == [1] * 5
    assert svc.connections == 5


def test_silently_dropped_connection_is_reopened_at_once(monkeypatch, make_service):
    monkeypatch.setattr(remote, "BACKOFF_S", 30.0)  # a counted failure would sleep 30 s
    svc = make_service(perplexity_fn=lambda t: 1.0, protocol_version="HTTP/1.1", drop_after_reply=True)
    start = time.perf_counter()
    for _ in range(5):
        assert _post(svc)["perplexities"] == [1.0]
    assert time.perf_counter() - start < 10
    assert svc.requests == [1] * 5
    assert svc.connections == 5


def test_kept_connection_does_not_stall(make_service):
    # a 40 ms delayed-ACK stall per reply would take at least 4 s
    svc = make_service(perplexity_fn=lambda t: 1.0, protocol_version="HTTP/1.1")
    start = time.perf_counter()
    for _ in range(100):
        _post(svc)
    assert time.perf_counter() - start < 2
    assert svc.connections == 1


@pytest.mark.parametrize("retries", [1, 3])
def test_server_error_on_kept_connection_retried_then_raised(monkeypatch, make_service, retries):
    monkeypatch.setattr(remote, "RETRIES", retries)
    svc = make_service(perplexity_fn=lambda t: 1.0, protocol_version="HTTP/1.1")
    _post(svc)
    svc.set_failing(True)
    with pytest.raises(urllib.error.HTTPError, match="HTTP Error 500: synthetic failure") as exc:
        _post(svc)
    assert exc.value.code == 500
    assert svc.requests == [1] * (1 + retries)
    svc.set_failing(False)
    assert _post(svc)["perplexities"] == [1.0]
