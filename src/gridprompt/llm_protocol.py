"""In-context prompt construction and chat-completion transport.

A prompt is the fixed system message, then one (user, assistant) pair per
context example, then the query as a final user message; a fine-tuning line
is the system message and one such pair. ``complete`` talks to any
OpenAI-compatible ``/chat/completions`` endpoint; the replay backends satisfy
the same contract offline for deterministic testing.
"""
from __future__ import annotations

import functools
import json
import os
import random
import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

SYSTEM_PROMPT = (
    "You are a power grid operator running an Optimal Power Flow simulation, "
    "and you need to return a JSON-formatted response based on the provided "
    "input JSON. The input is the description of the components of the grid, "
    "including the buses, generators, loads, lines, and external grid. The "
    "output is the solution to the optimal power flow problem. You will get a "
    "few examples of Input and Output JSON. You need to return the correct "
    "Output for the last given Input."
)

EXAMPLE_INPUT_PREFIX = "Example Input JSON: "
EXAMPLE_OUTPUT_PREFIX = "Example Output JSON: "
QUERY_INPUT_PREFIX = "Query Input JSON: "


class SequenceError(Exception):
    """Prompt sequence violates the system/user/assistant structure or budget."""


class TransportError(Exception):
    """Endpoint unreachable or retries exhausted."""


class ProtocolError(Exception):
    """Endpoint replied with something that is not a chat-completion payload."""


class AuthError(Exception):
    """HTTP 401; never retried."""


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise SequenceError(f"unknown role {self.role!r}")
        if not self.content:
            raise SequenceError("empty message content")


@dataclass(frozen=True)
class PromptSequence:
    messages: tuple[ChatMessage, ...]

    @property
    def query_text(self) -> str:
        return self.messages[-1].content.removeprefix(QUERY_INPUT_PREFIX)

    def context_pairs(self) -> list[tuple[str, str]]:
        """(grid_text, solution_text) pairs recovered from the messages."""
        pairs = []
        for i in range(1, len(self.messages) - 1, 2):
            grid = self.messages[i].content.removeprefix(EXAMPLE_INPUT_PREFIX)
            sol = self.messages[i + 1].content.removeprefix(EXAMPLE_OUTPUT_PREFIX)
            pairs.append((grid, sol))
        return pairs

    def char_count(self) -> int:
        return sum(len(m.content) for m in self.messages)

    def chat(self) -> list[dict]:
        """The messages as chat-completion ``{"role", "content"}`` dicts."""
        return [{"role": m.role, "content": m.content} for m in self.messages]


SYSTEM_MESSAGE = ChatMessage("system", SYSTEM_PROMPT)


def example_pair(grid_text: str, solution_text: str) -> tuple[ChatMessage, ChatMessage]:
    """One in-context example: the grid as a user turn, its solution as the assistant's."""
    return (
        ChatMessage("user", EXAMPLE_INPUT_PREFIX + grid_text),
        ChatMessage("assistant", EXAMPLE_OUTPUT_PREFIX + solution_text),
    )


def build_sequence(
    context: list[tuple[str, str]],
    query: str,
    max_chars: int | None = None,
) -> PromptSequence:
    """Assemble system + context pairs + query; 2*len(context) + 2 messages.

    With ``max_chars`` set, a sequence exceeding the budget is rejected here,
    before any network traffic.
    """
    messages = [SYSTEM_MESSAGE]
    for grid_text, solution_text in context:
        messages += example_pair(grid_text, solution_text)
    messages.append(ChatMessage("user", QUERY_INPUT_PREFIX + query))
    seq = PromptSequence(tuple(messages))
    if max_chars is not None and seq.char_count() > max_chars:
        raise SequenceError(
            f"sequence is {seq.char_count()} chars, budget is {max_chars}"
        )
    return seq


def validate_sequence(seq: PromptSequence) -> None:
    """Raise SequenceError unless the Table-style structure holds exactly."""
    msgs = seq.messages
    if len(msgs) < 2 or len(msgs) % 2 != 0:
        raise SequenceError(f"expected an even message count >= 2, got {len(msgs)}")
    if msgs[0].role != "system":
        raise SequenceError("first message must be system")
    if msgs[-1].role != "user":
        raise SequenceError("last message must be the user query")
    for i in range(1, len(msgs) - 1):
        expected = "user" if i % 2 == 1 else "assistant"
        if msgs[i].role != expected:
            raise SequenceError(f"message {i}: expected {expected}, got {msgs[i].role}")


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    temperature: float = 0.0
    max_output_tokens: int = 4096
    timeout_s: float = 120.0
    max_retries: int = 3
    auth_env: str = "GRIDPROMPT_API_KEY"
    backoff_base_s: float = 1.0  # shrunk in tests

    def __post_init__(self):
        if not self.base_url.lower().startswith(("http://", "https://")):  # urlopen reads file:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {self.base_url!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 < self.timeout_s < float("inf"):  # sockets refuse NaN and inf
            raise ValueError(f"timeout_s must be finite and > 0, got {self.timeout_s}")
        if not 0 <= self.backoff_base_s < float("inf"):  # NaN and inf fail time.sleep too
            raise ValueError(f"backoff_base_s must be finite and >= 0, got {self.backoff_base_s}")
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")


@functools.cache  # built once, as urlopen's own opener is, since building reads the proxy settings
def _opener():  # urllib's default opener, except that a 30x reply raises HTTPError
    from urllib.request import HTTPRedirectHandler, build_opener

    class NoRedirect(HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None
    return build_opener(NoRedirect)


def complete(seq: PromptSequence, cfg: EndpointConfig) -> str:
    """POST the sequence to {base_url}/chat/completions and return the reply.

    Retries on 429 / 5xx / timeouts with exponential backoff and jitter; 401
    fails at once with AuthError, and a 30x with ProtocolError (not followed,
    so the token stays on this host). Proxies come from ``http(s)_proxy`` and
    ``no_proxy``; HTTPS is verified against the system CA store.
    """
    # here, so that only bench against an HTTP endpoint loads them
    from http.client import HTTPException
    from urllib.error import HTTPError, URLError
    from urllib.request import Request

    url = cfg.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(cfg.auth_env, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = json.dumps({
        "model": cfg.model,
        "messages": seq.chat(),
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }, allow_nan=False).encode()

    last_error = "no attempt made"
    for attempt in range(cfg.max_retries + 1):
        if attempt > 0:
            delay = cfg.backoff_base_s * (2 ** (attempt - 1))
            time.sleep(delay * (1.0 + random.random() * 0.25))
        try:
            try:
                resp = _opener().open(Request(url, data=body, headers=headers, method="POST"),
                                      timeout=cfg.timeout_s)
            except HTTPError as exc:  # an error status, with its body still to read
                resp = exc
            with resp:
                status, text = resp.status, resp.read()
        except (OSError, HTTPException) as exc:  # a timeout may arrive as a URLError's reason
            reason = exc.reason if isinstance(exc, URLError) else exc
            timed_out = isinstance(reason, TimeoutError)
            last_error = "request timed out" if timed_out else f"connection failed: {reason}"
            continue

        if status == 401:
            raise AuthError("endpoint rejected credentials (HTTP 401)")
        if status == 429 or status >= 500:
            last_error = f"HTTP {status}"
            continue
        if status != 200:
            raise ProtocolError(f"unexpected HTTP {status}: {text[:200].decode(errors='replace')}")
        try:
            content = json.loads(text)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion payload: {exc}") from None
        if not isinstance(content, str):
            raise ProtocolError(f"malformed completion payload: content is {content!r}")
        return content

    raise TransportError(
        f"gave up after {cfg.max_retries + 1} attempts ({last_error})"
    )


# ---------------------------------------------------------------------------
# Offline replay backends (same call contract as a remote endpoint)
# ---------------------------------------------------------------------------


def _load_vector(grid_text: str) -> np.ndarray:
    doc = json.loads(grid_text)
    loads = doc["load"] if "load" in doc else doc["nodes"]["load"]
    vec = []
    for rec in sorted(loads, key=lambda r: r["id"]):
        vec += [rec["p_mw"], rec["q_mvar"]]
    return np.array(vec)


class OracleBackend:
    """Answers every query with its stored ground-truth solution text.

    The mapping is kept as given and looked up once per query, so a lazy one
    (``SolvedDataset.truth_map``) reads only the truths that are asked for.
    """

    def __init__(self, truth_by_grid_text: Mapping[str, str]):
        self._truth = truth_by_grid_text

    def complete(self, seq: PromptSequence) -> str:
        try:
            return self._truth[seq.query_text]
        except KeyError:
            raise ProtocolError("oracle has no ground truth for this query") from None


class NearestContextBackend:
    """Returns the solution of the context example with the closest load vector."""

    def complete(self, seq: PromptSequence) -> str:
        pairs = seq.context_pairs()
        if not pairs:
            raise SequenceError("nearest-context replay needs at least one example")
        target = _load_vector(seq.query_text)
        dists = [np.linalg.norm(_load_vector(g) - target) for g, _ in pairs]
        return pairs[int(np.argmin(dists))][1]


class CorruptBackend:
    """Emits prose with no JSON at all, so every trial is INVALID."""

    def complete(self, seq: PromptSequence) -> str:
        return (
            "To solve an optimal power flow problem you should first write down "
            "the power balance equations, then apply an iterative method until "
            "the mismatch is small enough."
        )


class FixedBackend:
    """Always returns one canned response (e.g. the nominal-case solution)."""

    def __init__(self, response: str):
        self._response = response

    def complete(self, seq: PromptSequence) -> str:
        return self._response


class HttpBackend:
    """Adapter giving a remote endpoint the backend interface."""

    def __init__(self, cfg: EndpointConfig):
        self.cfg = cfg

    def complete(self, seq: PromptSequence) -> str:
        return complete(seq, self.cfg)


def replay_backend(mode: str, truth_by_grid_text: Mapping[str, str] | None = None):
    """Factory for the offline backends: oracle | nearest_context | corrupt."""
    if mode == "oracle":
        if truth_by_grid_text is None:
            raise ValueError("oracle replay needs the ground-truth map")
        return OracleBackend(truth_by_grid_text)
    if mode == "nearest_context":
        return NearestContextBackend()
    if mode == "corrupt":
        return CorruptBackend()
    raise ValueError(f"unknown replay mode {mode!r}")
