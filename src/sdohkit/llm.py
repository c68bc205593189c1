"""Minimal chat-completion client plus deterministic mocks for offline runs.

The HTTP client posts the de facto chat-completion JSON shape
({"model", "messages": [{"role", "content"}, ...], ...}) to a configurable
endpoint, retries transient failures (timeouts, 429, 5xx) with full-jitter
exponential backoff (Brooker, "Exponential Backoff and Jitter", AWS
Architecture Blog, 2015), lengthened to a delta-seconds ``Retry-After``
header when the endpoint sends one, and bounds in-flight requests per client
with a semaphore. The API key comes from an environment variable only.

Privacy posture: prompts and completions are never written to logs; logging
carries metadata (status, latency, retry counts) only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

logger = logging.getLogger("sdohkit.llm")

ROLES = ("system", "user", "assistant")


class TransportError(RuntimeError):
    """Request failed after exhausting the retry budget.

    ``retry_after`` is the wait in seconds the endpoint asked for, if any.
    """

    def __init__(self, message: str, status: int | None = None, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ConfigurationError(ValueError):
    """Client misconfiguration (bad invariants, missing API key, plain HTTP)."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class ClientConfig:
    base_url: str
    model_name: str
    api_key_env: str = "SDOHKIT_API_KEY"
    max_tokens: int = 512
    temperature: float = 0.0
    request_timeout: float = 60.0
    max_retries: int = 3
    max_concurrent: int = 4
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.max_concurrent < 1:
            raise ConfigurationError("max_concurrent must be >= 1")
        if not 0 <= self.temperature < math.inf:
            raise ConfigurationError("temperature must be finite and >= 0")
        if not 0 < self.request_timeout < math.inf:
            raise ConfigurationError("request_timeout must be finite and > 0")
        if self.max_tokens < 1:
            raise ConfigurationError("max_tokens must be >= 1")


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_ms: float = 0.0
    retries: int = 0


def fingerprint(messages: list[ChatMessage]) -> str:
    """Stable hash of a prompt, used to key scripted mock responses."""
    h = hashlib.sha256()
    for m in messages:
        h.update(f"{m.role}:{m.content}\n".encode("utf-8"))
    return h.hexdigest()


def _check_messages(messages: list[ChatMessage]) -> None:
    if not messages:
        raise ValueError("messages must be non-empty")
    for m in messages:
        if not isinstance(m, ChatMessage):
            raise TypeError("messages must be ChatMessage instances")


_RETRYABLE = {429}
_LOOPBACK = {("http", "localhost"), ("http", "127.0.0.1"), ("http", "::1")}


def _retry_after(value: str | None) -> float | None:
    """A delta-seconds ``Retry-After`` value; None when absent or malformed
    (an HTTP date included), so the normal backoff applies."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def _default_transport(url: str, headers: dict, body: dict, timeout: float):
    import http.client

    parts = urlsplit(url)
    connection = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    conn = connection(parts.hostname, parts.port, timeout=timeout)
    try:
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        conn.request("POST", target, json.dumps(body).encode(), headers)
        resp = conn.getresponse()
        data = resp.read()
    except TimeoutError as exc:
        raise TransportError(f"request timed out after {timeout}s") from exc
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(f"request failed: {type(exc).__name__}") from exc
    finally:
        conn.close()
    if resp.status != 200:
        raise TransportError(f"endpoint returned {resp.status}", status=resp.status,
                             retry_after=_retry_after(resp.getheader("Retry-After")))
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise TransportError("endpoint returned a body that is not JSON", status=200) from exc


def _check_url(base_url: str) -> None:
    try:
        url = urlsplit(base_url)
        url.port  # a port that is not a number in range raises here
    except ValueError as exc:
        raise ConfigurationError(f"base_url: {exc}") from None
    # The API key is the only credential. http.client sends the URL as ASCII with no space
    # or control character; urlsplit drops tabs and newlines; other parsers end a host at "\\".
    plain = base_url.isascii() and base_url.isprintable() and not any(c in " \\" for c in base_url)
    if not (plain and url.hostname) or url.username is not None:
        raise ConfigurationError("base_url needs a host and no userinfo, space, \\ or control char")
    if url.scheme != "https" and (url.scheme, url.hostname) not in _LOOPBACK:
        raise ConfigurationError("non-localhost endpoints must use https")


def _api_key(env_var: str) -> str:
    key = os.environ.get(env_var)
    if not key:
        raise ConfigurationError(f"API key environment variable {env_var} is not set")
    return key


def _read_reply(payload) -> tuple[str, list[int]]:
    """The completion text and [prompt, completion] token counts of a reply;
    any other shape is a ``TransportError``."""
    try:
        text = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError("response missing choices[0].message.content") from exc
    if not isinstance(text, str):
        raise TransportError("response choices[0].message.content is not a string")
    usage = payload.get("usage") or {}
    if not isinstance(usage, dict):
        raise TransportError("response usage is not an object")
    tokens = [usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)]
    if not all(type(t) is int and t >= 0 for t in tokens):
        raise TransportError("response token counts are not non-negative integers")
    return text, tokens


class HttpChatClient:
    """Chat-completion client with retry, backoff, and a request budget.

    ``transport`` and ``sleep`` are injectable for tests. The default transport
    opens an ``http.client`` connection per request to the host the https rule
    checked; it reads no proxy variables or ``.netrc``, and verifies TLS. The
    concurrency limiter is per client object, so share one client across
    threads to enforce a single budget. ``qa.run_pipeline`` extracts documents
    on ``max_in_flight`` threads, one per request the budget allows. The URL
    and the API key are checked when the client is built.
    """

    def __init__(self, config: ClientConfig, transport=None, sleep=time.sleep):
        _check_url(config.base_url)
        _api_key(config.api_key_env)
        self.config = config
        self._transport = transport or _default_transport
        self._sleep = sleep
        self._sem = threading.BoundedSemaphore(config.max_concurrent)
        # Backoff jitter only: seeded from the OS, and no output depends on it.
        self._jitter = random.Random()

    @property
    def max_in_flight(self) -> int:
        """The most requests this client sends at once."""
        return self.config.max_concurrent

    def _headers(self) -> dict:
        key = _api_key(self.config.api_key_env)
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def complete(self, messages: list[ChatMessage]) -> Completion:
        _check_messages(messages)
        headers = self._headers()
        body = {
            "model": self.config.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "max_tokens": self.config.max_tokens,
            "temperature": self.config.temperature,
        }
        start = time.perf_counter()
        attempt = 0
        while True:
            try:
                with self._sem:
                    payload = self._transport(
                        self.config.base_url, headers, body, self.config.request_timeout
                    )
                break
            except TransportError as exc:
                retryable = exc.status is None or exc.status in _RETRYABLE or exc.status >= 500
                if not retryable or attempt >= self.config.max_retries:
                    logger.debug(
                        "completion failed status=%s attempts=%d", exc.status, attempt + 1
                    )
                    raise
                delay = self._jitter.uniform(0, self.config.backoff_base * 2 ** attempt)
                if exc.retry_after is not None:
                    # The header may lengthen the wait, up to the request timeout, never shorten it.
                    delay = max(delay, min(exc.retry_after, self.config.request_timeout))
                self._sleep(delay)
                attempt += 1
        latency = (time.perf_counter() - start) * 1000
        text, tokens = _read_reply(payload)
        logger.debug("completion ok latency_ms=%.0f retries=%d", latency, attempt)
        return Completion(text, *tokens, latency, attempt)


class ScriptedMockClient:
    """Responds from a fingerprint-to-text script.

    Unknown fingerprints raise in strict mode (the default when no fallback
    response is given), otherwise return the fallback.
    """

    def __init__(self, script: dict[str, str] | None = None, default: str | None = None):
        script = {} if script is None else script
        if not isinstance(script, dict) or not all(isinstance(x, str) for kv in script.items() for x in kv):
            raise ConfigurationError("mock script must map prompt fingerprints to response strings")
        if default is not None and not isinstance(default, str):
            raise ConfigurationError("mock script default must be a string or null")
        self.script = dict(script)
        self.default = default

    def complete(self, messages: list[ChatMessage]) -> Completion:
        _check_messages(messages)
        fp = fingerprint(messages)
        if fp in self.script:
            return Completion(self.script[fp])
        if self.default is not None:
            return Completion(self.default)
        raise TransportError(f"no scripted response for prompt {fp[:12]}")
