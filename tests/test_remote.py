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
