"""Stand-in OpenAI-compatible chat endpoint for the bench-http workload.

    python3 perfbench/mock_llm.py DATASET_DIR --delay-ms 50

Prints its port as the first line of stdout, then serves until terminated:

- ``POST /chat/completions`` waits a fixed stand-in model delay, then answers
  with the query's full-precision solver truth wrapped in prose. The requests
  for each query alternate between a refusal (429 or 503, by query) and a
  reply, so every trial retries exactly once, within ``max_retries``.
- ``GET /stats`` returns the request, error and request-byte counters, which
  are counted here because the client's own per-call stats are overwritten
  by concurrent trials.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

PROSE_HEAD = "Solving the AC optimal power flow for the query grid gives:\n\n```json\n"
PROSE_TAIL = "\n```\n\nAll generator, voltage and line limits hold at this operating point."


class MockState:
    """Truth per query text plus the counters and the per-query refusal schedule."""

    def __init__(self, truth_by_grid_text: dict[str, str], delay_s: float):
        self.truth = truth_by_grid_text
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.stats = {"requests": 0, "errors": 0, "request_bytes": 0}
        self._requests: dict[str, int] = {}  # query -> requests seen

    def status_for(self, query: str, n_bytes: int) -> int:
        with self.lock:
            self.stats["requests"] += 1
            self.stats["request_bytes"] += n_bytes
            seen = self._requests.get(query, 0)
            self._requests[query] = seen + 1
            if seen % 2 == 0:
                self.stats["errors"] += 1
                return 429 if hashlib.sha256(query.encode()).digest()[0] % 2 else 503
            return 200


def make_handler(state: MockState, query_prefix: str):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):
            pass

        def _reply(self, status: int, doc: dict) -> None:
            body = json.dumps(doc).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, {"error": "not found"})
                return
            with state.lock:
                self._reply(200, dict(state.stats))

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            query = json.loads(raw)["messages"][-1]["content"].removeprefix(query_prefix)
            status = state.status_for(query, len(raw))
            time.sleep(state.delay_s)
            if status != 200:
                self._reply(status, {"error": {"message": "try again"}})
                return
            if query not in state.truth:
                self._reply(400, {"error": {"message": "unknown query grid"}})
                return
            content = PROSE_HEAD + state.truth[query] + PROSE_TAIL
            self._reply(200, {
                "object": "chat.completion",
                "choices": [{
                    "index": 0,
                    "message": {"role": "assistant", "content": content},
                    "finish_reason": "stop",
                }],
            })

    return Handler


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dataset")
    p.add_argument("--delay-ms", type=float, default=50.0)
    args = p.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from gridprompt.dataset_export import load_solved_dataset
    from gridprompt.llm_protocol import QUERY_INPUT_PREFIX

    state = MockState(load_solved_dataset(args.dataset).truth_map(), args.delay_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state, QUERY_INPUT_PREFIX))
    server.daemon_threads = True
    print(server.server_port, flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
