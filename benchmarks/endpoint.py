"""Offline stand-in for a chat-completion endpoint.

``EndpointStandIn`` is a ``transport`` callable for ``llm.HttpChatClient``, so
the client's real code path runs: body build, semaphore, retry with backoff
and payload parse. It answers from ``qa.GoldOracleClient`` after a fixed
latency and makes the answers noisy the way a real model is:

* a share of trigger lines comes back with changed case (span repair stage 1
  recovers them) or with one character deleted (stage 2 recovers most);
* a share of trigger answers gains a hallucinated line that no note
  contains (a repair miss);
* the first attempt of about 1% of requests is refused with status 429.

Every random choice is keyed on a hash of the request's content and the
benchmark seed, never on call order, so outputs and retry counts stay the
same under any scheduling of the same requests. The only shared state, the
per-request attempt count, is guarded by a lock.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

from sdohkit.llm import ChatMessage, TransportError

LATENCY_S = 0.002
CASE_SHARE = 0.20
DELETE_SHARE = 0.25
HALLUCINATE_SHARE = 0.025
THROTTLE_SHARE = 0.01

HALLUCINATIONS = (
    "enjoys competitive sailing on weekends",
    "recently adopted two rescue greyhounds",
    "collects antique pocket watches",
    "plays cello in a community orchestra",
)


class EndpointStandIn:
    def __init__(self, oracle, seed: int):
        self.oracle = oracle
        self.seed = seed
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def _unit(self, key: str, salt: str) -> float:
        digest = hashlib.sha256(f"{self.seed}:{key}:{salt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def backoff(self, seconds: float) -> None:
        """Sleep function handed to the client for retry backoff."""
        time.sleep(seconds)

    def __call__(self, url: str, headers: dict, body: dict, timeout: float) -> dict:
        key = hashlib.sha256(
            json.dumps(body["messages"], ensure_ascii=False, sort_keys=True).encode()
        ).hexdigest()
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        time.sleep(LATENCY_S)
        if attempt == 0 and self._unit(key, "throttle") < THROTTLE_SHARE:
            raise TransportError("endpoint returned 429", status=429)

        messages = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
        text = self.oracle.complete(messages).text
        last_user = body["messages"][-1]["content"]
        if last_user.startswith("Event type:") and "\nArgument:" not in last_user:
            text = self._perturb_triggers(key, text)
        return {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {
                "prompt_tokens": sum(len(m["content"]) for m in body["messages"]) // 4,
                "completion_tokens": len(text) // 4,
            },
        }

    def _perturb_triggers(self, key: str, text: str) -> str:
        lines = [] if text == "NONE" else text.split("\n")
        for i, line in enumerate(lines):
            r = self._unit(key, f"line:{i}")
            if r < CASE_SHARE:
                lines[i] = line.upper()
            elif r < CASE_SHARE + DELETE_SHARE and len(line) > 1:
                pos = int(self._unit(key, f"delete:{i}") * len(line))
                lines[i] = line[:pos] + line[pos + 1:]
        if self._unit(key, "hallucinate") < HALLUCINATE_SHARE:
            pick = int(self._unit(key, "phrase") * len(HALLUCINATIONS))
            lines.append(HALLUCINATIONS[pick])
        return "\n".join(lines) if lines else "NONE"
