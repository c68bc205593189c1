import json
import random
import threading
import time

import pytest

from helpers import loopback_endpoint
from sdohkit.llm import (
    ChatMessage,
    ClientConfig,
    Completion,
    ConfigurationError,
    HttpChatClient,
    ScriptedMockClient,
    TransportError,
    _default_transport,
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
    nan, inf = float("nan"), float("inf")
    for field, value in [("max_retries", -1), ("max_concurrent", 0), ("temperature", -0.5),
                         ("temperature", nan), ("temperature", inf), ("request_timeout", 0),
                         ("request_timeout", -1), ("request_timeout", nan),
                         ("request_timeout", inf), ("max_tokens", 0), ("backoff_base", nan),
                         ("backoff_base", -1.0), ("backoff_base", inf)]:
        with pytest.raises(ConfigurationError, match=field):
            _config(**{field: value})


def test_fingerprint_stability():
    msgs = [ChatMessage("system", "a"), ChatMessage("user", "b")]
    assert fingerprint(msgs) == fingerprint(list(msgs))
    assert fingerprint(msgs) != fingerprint([ChatMessage("user", "b")])


def test_scripted_mock_verbatim():
    msgs = [ChatMessage("user", "what is Status?")]
    client = ScriptedMockClient({fingerprint(msgs): "current"})
    assert client.complete(msgs).text == "current"
    assert client.complete(msgs).text == "current"


def test_scripted_mock_strict_unknown():
    client = ScriptedMockClient({})
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "?")])
    fallback = ScriptedMockClient({}, default="NONE")
    assert fallback.complete([ChatMessage("user", "?")]).text == "NONE"


@pytest.mark.parametrize(
    "script, default",
    [([1, 2], None), ({"fp": 3}, None), ({1: "x"}, None), ({}, 5), ({"fp": "x"}, ["NONE"])],
)
def test_scripted_mock_rejects_malformed_script(script, default):
    with pytest.raises(ConfigurationError, match="mock script"):
        ScriptedMockClient(script, default)


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
    # Full jitter: the k-th wait is uniform in [0, backoff_base * 2**k].
    for _ in range(100):
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "q")])
    assert len(sleeps) == 300
    fractions = [s / (0.5 * 2 ** (i % 3)) for i, s in enumerate(sleeps)]
    assert all(0 <= f <= 1 for f in fractions)
    assert 0.4 < sum(fractions) / len(fractions) < 0.6  # mean 0.5, standard error 0.017
    assert len(set(sleeps)) == len(sleeps)


@pytest.mark.parametrize(
    "retry_after, sleeps",
    [
        # (shortest, longest) wait for each retry
        (None, [(0.0, 0.5), (0.0, 1.0)]),
        (3.0, [(3.0, 3.0), (3.0, 3.0)]),  # the endpoint's wait when it is longer than the backoff
        (0.0, [(0.0, 0.5), (0.0, 1.0)]),  # never shorter than the backoff
        (600.0, [(60.0, 60.0), (60.0, 60.0)]),  # capped at the request timeout
    ],
)
def test_http_client_honours_retry_after(monkeypatch, retry_after, sleeps):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    slept = []

    def transport(url, headers, body, timeout):
        raise TransportError("slow down", status=429, retry_after=retry_after)

    client = HttpChatClient(
        _config(max_retries=2, backoff_base=0.5, request_timeout=60.0),
        transport=transport, sleep=slept.append,
    )
    for _ in range(50):
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "q")])
    assert len(slept) == 100
    assert all(lo <= s <= hi for s, (lo, hi) in zip(slept, sleeps * 50))


def test_backoff_jitter_leaves_no_trace_in_the_global_random_state(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")

    def transport(url, headers, body, timeout):
        raise TransportError("nope", status=503)

    random.seed(5)
    want = random.random()
    random.seed(5)
    client = HttpChatClient(_config(max_retries=3, backoff_base=0.5), transport=transport,
                            sleep=lambda s: None)
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "q")])
    assert random.random() == want


@pytest.mark.parametrize(
    "header, retry_after",
    [("7", 7.0), (" 12 ", 12.0), (None, None), ("", None), ("soon", None), ("-1", None),
     ("1.5", None), ("\u0662", None), ("Wed, 21 Oct 2015 07:28:00 GMT", None)],
)
def test_default_transport_reads_delta_seconds_retry_after(header, retry_after):
    """The header goes on the wire as UTF-8, so a non-ASCII digit arrives as
    the Latin-1 reading of its bytes."""
    headers = {} if header is None else {"Retry-After": header}
    with loopback_endpoint(lambda *request: (503, headers, b"")) as (url, _):
        with pytest.raises(TransportError) as info:
            _default_transport(url, {}, {}, 5.0)
    assert (info.value.status, info.value.retry_after) == (503, retry_after)


def _slow(headers, body):
    time.sleep(0.3)
    return 200, {}, json.dumps(_ok_payload()).encode()


@pytest.mark.parametrize(
    "reply, message",
    [(_slow, "timed out after 0.1s"),
     (lambda *request: (200, {"Content-Length": 100}, b'{"choices": '), "IncompleteRead"),
     (lambda *request: None, "RemoteDisconnected")],
    ids=["slower-than-the-timeout", "shorter-than-content-length", "closed-unanswered"],
)
def test_default_transport_failed_reply_is_retryable_transport_error(reply, message):
    with loopback_endpoint(reply) as (url, seen):
        with pytest.raises(TransportError, match=message) as info:
            _default_transport(url, {}, {}, 0.1)
    assert info.value.status is None and len(seen) == 1


def test_default_transport_posts_the_body_to_the_url_path_and_query(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    reply = json.dumps(_ok_payload()).encode()
    with loopback_endpoint(lambda *request: (200, {}, reply)) as (url, seen):
        client = HttpChatClient(_config(base_url=url + "?api-version=1", max_tokens=7))
        assert client.complete([ChatMessage("user", "q")]).text == "hello"
    [(path, headers, body)] = seen
    assert path == "/v1/chat/completions?api-version=1"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"model": "m", "messages": [{"role": "user", "content": "q"}],
                                "max_tokens": 7, "temperature": 0.0}


def test_default_transport_sends_the_key_and_no_other_credential(tmp_path, monkeypatch):
    """No ``.netrc`` entry replaces the key and no proxy variable reroutes the request."""
    netrc = tmp_path / ".netrc"
    netrc.write_text("machine 127.0.0.1 login alice password s3cret\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.delenv("NETRC", raising=False)
    for var in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.setenv(var, "http://127.0.0.1:1")
    for var in ("NO_PROXY", "no_proxy"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    reply = json.dumps(_ok_payload()).encode()
    with loopback_endpoint(lambda *request: (200, {}, reply)) as (url, seen):
        HttpChatClient(_config(base_url=url, max_retries=0)).complete([ChatMessage("user", "q")])
    assert [headers["Authorization"] for _, headers, _ in seen] == ["Bearer k"]


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
        {"prompt_tokens": -5},
        {"completion_tokens": -1},
    ],
)
def test_http_client_malformed_usage_is_transport_error(monkeypatch, usage):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    payload = dict(_ok_payload(), usage=usage)
    client = HttpChatClient(_config(), transport=lambda *a: payload, sleep=lambda s: None)
    with pytest.raises(TransportError, match="usage|token counts"):
        client.complete([ChatMessage("user", "q")])


@pytest.mark.parametrize("content", [None, 5, ["a"], {"text": "a"}])
def test_http_client_content_that_is_not_a_string_is_transport_error(monkeypatch, content):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    payload = {"choices": [{"message": {"content": content}}]}
    client = HttpChatClient(_config(max_retries=3), transport=lambda *a: payload)
    with pytest.raises(TransportError, match="content is not a string"):
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
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    for body in (b"<html>gateway page</html>", b"\xff\xfe{"):
        with loopback_endpoint(lambda *request: (200, {}, body)) as (url, seen):
            client = HttpChatClient(_config(base_url=url, max_retries=3), sleep=lambda s: None)
            with pytest.raises(TransportError, match="not JSON") as info:
                client.complete([ChatMessage("user", "q")])
        assert info.value.status == 200
        assert len(seen) == 1


def test_http_client_missing_api_key(monkeypatch):
    """A missing key fails when the client is built; each request reads it again."""
    monkeypatch.delenv("SDOHKIT_API_KEY", raising=False)
    with pytest.raises(ConfigurationError, match="SDOHKIT_API_KEY"):
        HttpChatClient(_config(), transport=lambda *a: _ok_payload())
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    client = HttpChatClient(_config(), transport=lambda *a: _ok_payload())
    monkeypatch.delenv("SDOHKIT_API_KEY")
    with pytest.raises(ConfigurationError, match="SDOHKIT_API_KEY"):
        client.complete([ChatMessage("user", "q")])


def test_http_client_max_in_flight_is_the_configured_budget(monkeypatch):
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    for n in (1, 3):
        assert HttpChatClient(_config(max_concurrent=n)).max_in_flight == n


def test_http_client_requires_https_for_remote(monkeypatch):
    """The rule reads the URL's host: userinfo before '@' is not the host, and
    a bracketed IPv6 loopback is local. A URL of any scheme with userinfo, a
    backslash or a tab is refused: the API key is the only credential, and
    another parser may read another host there. A refused URL fails when the
    client is built, before any request."""
    monkeypatch.setenv("SDOHKIT_API_KEY", "k")
    sent = []

    def transport(url, headers, body, timeout):
        sent.append(url)
        return _ok_payload()

    refused = ["http://example.com/v1", "http://127.0.0.1:80@example.com/v1",
               "http://localhost@example.com/v1", "localhost:9/v1", "http://[::1/v1",
               "http://example.com\\@localhost/v1", "http://user@localhost@example.com/v1",
               "http://user@localhost/v1", "http://local\thost/v1",
               "https://u:pw@api.example.com/v1", "https:///v1", "ftp://localhost/v1",
               "http://localhost:99999/v1", "https://api.example.com/v1 chat",
               "https://api.example.com/v1/\u00e9"]
    for url in refused:
        with pytest.raises(ConfigurationError, match="https|base_url"):
            HttpChatClient(_config(base_url=url), transport=transport)
    assert sent == []
    allowed = ["https://example.com/v1", "http://[::1]:8000/v1", "http://127.0.0.1:8000/v1",
               "http://localhost/v1"]
    for url in allowed:
        HttpChatClient(_config(base_url=url), transport=transport).complete(
            [ChatMessage("user", "q")]
        )
    assert sent == allowed


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
