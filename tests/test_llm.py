import threading

import pytest

from sdohkit.llm import (
    ChatMessage,
    ClientConfig,
    Completion,
    ConfigurationError,
    HttpChatClient,
    ScriptedMockClient,
    TransportError,
    fingerprint,
)


def _config(**kw):
    defaults = dict(base_url="http://localhost:9/v1/chat", model_name="m", backoff_base=0.0)
    defaults.update(kw)
    return ClientConfig(**defaults)


def _ok_payload(text="hello"):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 2},
    }


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("robot", "hi")
    with pytest.raises(ValueError):
        ChatMessage("user", "")


def test_config_invariants():
    with pytest.raises(ConfigurationError):
        _config(max_retries=-1)
    with pytest.raises(ConfigurationError):
        _config(max_concurrent=0)
    with pytest.raises(ConfigurationError):
        _config(temperature=-0.5)


def test_fingerprint_stability():
    msgs = [ChatMessage("system", "a"), ChatMessage("user", "b")]
    assert fingerprint(msgs) == fingerprint(list(msgs))
    assert fingerprint(msgs) != fingerprint([ChatMessage("user", "b")])


def test_scripted_mock_verbatim_and_transcript():
    msgs = [ChatMessage("user", "what is Status?")]
    client = ScriptedMockClient({fingerprint(msgs): "current"})
    assert client.complete(msgs).text == "current"
    assert client.complete(msgs).text == "current"
    assert len(client.transcript) == 2


def test_scripted_mock_strict_unknown():
    client = ScriptedMockClient({})
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "?")])
    fallback = ScriptedMockClient({}, default="NONE")
    assert fallback.complete([ChatMessage("user", "?")]).text == "NONE"


def test_http_client_success(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    calls = []

    def transport(url, headers, body, timeout):
        calls.append((url, body))
        assert headers["Authorization"] == "Bearer k"
        return _ok_payload("answer")

    client = HttpChatClient(_config(), transport=transport, sleep=lambda s: None)
    completion = client.complete([ChatMessage("user", "q")])
    assert completion.text == "answer"
    assert completion.prompt_tokens == 5
    assert completion.retries == 0
    assert calls[0][1]["messages"] == [{"role": "user", "content": "q"}]


def test_http_client_retries_then_succeeds(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    attempts = []
    sleeps = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        if len(attempts) <= 2:
            raise TransportError("nope", status=503)
        return _ok_payload()

    client = HttpChatClient(_config(max_retries=3), transport=transport, sleep=sleeps.append)
    completion = client.complete([ChatMessage("user", "q")])
    assert completion.retries == 2
    assert len(attempts) == 3
    assert sleeps == [0.0, 0.0]


def test_http_client_backoff_schedule(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    sleeps = []

    def transport(url, headers, body, timeout):
        raise TransportError("nope", status=500)

    client = HttpChatClient(
        _config(max_retries=3, backoff_base=0.5), transport=transport, sleep=sleeps.append
    )
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "q")])
    assert sleeps == [0.5, 1.0, 2.0]


def test_http_client_exhausts_retries(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")

    def transport(url, headers, body, timeout):
        raise TransportError("always", status=500)

    client = HttpChatClient(_config(max_retries=0), transport=transport)
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "q")])


def test_http_client_non_retryable_4xx(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        raise TransportError("bad request", status=400)

    client = HttpChatClient(_config(max_retries=5), transport=transport, sleep=lambda s: None)
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "q")])
    assert len(attempts) == 1


@pytest.mark.parametrize(
    "usage",
    [
        "bad",
        ["prompt_tokens", 5],
        {"prompt_tokens": "5"},
        {"prompt_tokens": 1.5},
        {"completion_tokens": None},
        {"prompt_tokens": True},
    ],
)
def test_http_client_malformed_usage_is_transport_error(monkeypatch, usage):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    payload = dict(_ok_payload(), usage=usage)
    client = HttpChatClient(_config(), transport=lambda *a: payload, sleep=lambda s: None)
    with pytest.raises(TransportError, match="usage|token counts"):
        client.complete([ChatMessage("user", "q")])


@pytest.mark.parametrize(
    "usage, tokens", [(None, (0, 0)), ({}, (0, 0)), ({"prompt_tokens": 7}, (7, 0))]
)
def test_http_client_missing_token_counts_read_as_zero(monkeypatch, usage, tokens):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    payload = dict(_ok_payload(), usage=usage)
    completion = HttpChatClient(_config(), transport=lambda *a: payload).complete(
        [ChatMessage("user", "q")]
    )
    assert (completion.prompt_tokens, completion.completion_tokens) == tokens


def test_default_transport_non_json_body_is_transport_error(monkeypatch):
    import requests

    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    posts = []

    def post(url, json, headers, timeout):
        posts.append(url)
        resp = requests.Response()
        resp.status_code = 200
        resp._content = b"<html>gateway page</html>"
        return resp

    monkeypatch.setattr(requests, "post", post)
    client = HttpChatClient(_config(max_retries=3), sleep=lambda s: None)
    with pytest.raises(TransportError, match="not JSON") as info:
        client.complete([ChatMessage("user", "q")])
    assert info.value.status == 200
    assert len(posts) == 1


def test_http_client_missing_api_key(monkeypatch):
    monkeypatch.delenv("SDOHKIT_API_KEY", raising=False)
    client = HttpChatClient(_config(), transport=lambda *a: _ok_payload())
    with pytest.raises(ConfigurationError, match="SDOHKIT_API_KEY"):
        client.complete([ChatMessage("user", "q")])


def test_http_client_requires_https_for_remote(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    client = HttpChatClient(
        _config(base_url="http://example.com/v1"), transport=lambda *a: _ok_payload()
    )
    with pytest.raises(ConfigurationError, match="https"):
        client.complete([ChatMessage("user", "q")])


def test_http_client_thread_safety(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    in_flight = []
    peak = []
    lock = threading.Lock()

    def transport(url, headers, body, timeout):
        with lock:
            in_flight.append(1)
            peak.append(len(in_flight))
        import time

        time.sleep(0.005)
        with lock:
            in_flight.pop()
        return _ok_payload()

    client = HttpChatClient(_config(max_concurrent=2), transport=transport)
    threads = [
        threading.Thread(target=lambda: client.complete([ChatMessage("user", "q")]))
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert max(peak) <= 2


def test_completion_defaults():
    c = Completion("x")
    assert c.retries == 0 and c.latency_ms == 0.0
