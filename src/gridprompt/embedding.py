"""LLM-facing text forms: grid embeddings (graph / table) and solution JSON.

Both embeddings are canonical JSON -- sorted keys, compact separators, values
rounded to a fixed number of decimals -- so equal grids always serialize to
identical bytes. The graph form carries explicit typed edges; the table form
keeps bus references inline as columns and omits the edge list entirely,
which makes it strictly shorter.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .grid_model import NODE_FIELDS, NODE_TYPES
from .solvers import OpfSolution

SCHEMA = "gridprompt/v1"
_DECODER = json.JSONDecoder()


class EmbeddingParseError(Exception):
    """Embedding text violates the grid schema; message names the JSON path."""


class InvalidResponse(Exception):
    """No complete, well-typed solution JSON could be extracted from a response."""


@dataclass(frozen=True)
class EmbeddingFormat:
    kind: str = "graph"  # "graph" | "table"
    decimals: int = 4

    def __post_init__(self):
        if self.kind not in ("graph", "table"):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.decimals < 1:
            raise ValueError("decimals must be >= 1")


@dataclass(frozen=True)
class SolutionDoc:
    """Parsed prediction: per-component (id -> values) maps."""
    gen: tuple[tuple[int, float, float], ...]    # (id, p_mw, q_mvar)
    slack: tuple[tuple[int, float, float], ...]
    bus: tuple[tuple[int, float, float], ...]    # (id, vm_pu, va_deg)


_REF_COLUMNS = {"load": ("bus",), "gen": ("bus",), "slack": ("bus",),
                "line": ("from_bus", "to_bus"), "bus": ()}


def _is_number(v) -> bool:
    """An int or a finite float, never a bool: a value that embeds again."""
    return math.isfinite(v) if isinstance(v, float) else type(v) is int


def _round_record(rec: dict, decimals: int) -> dict:
    return {k: round(v, decimals) if isinstance(v, float) else v for k, v in rec.items()}


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def embed_grid(grid: dict, fmt: EmbeddingFormat = EmbeddingFormat()) -> str:
    """Embed node tables (``to_hetero``) as canonical JSON of the given kind.

    The graph kind moves the bus-reference columns out of the records into
    typed edges, in NODE_TYPES order with a line's from-end first.
    """
    doc: dict = {
        "schema": SCHEMA,
        "kind": fmt.kind,
        "name": grid["name"],
        "base_mva": round(float(grid["base_mva"]), fmt.decimals),
    }
    nodes = {t: [_round_record(r, fmt.decimals) for r in grid[t]] for t in NODE_TYPES}
    if fmt.kind == "table":
        doc.update(nodes)
        return _dumps(doc)
    doc["nodes"] = {
        t: [{k: v for k, v in r.items() if k not in _REF_COLUMNS[t]} for r in recs]
        for t, recs in nodes.items()
    }
    doc["edges"] = [
        [t, i, "bus", r[col]]
        for t in NODE_TYPES
        for i, r in enumerate(grid[t])
        for col in _REF_COLUMNS[t]
    ]
    return _dumps(doc)


def _require(cond: bool, path: str, why: str):
    if not cond:
        raise EmbeddingParseError(f"{path}: {why}")


def parse_grid(text: str) -> dict:
    """Inverse of embed_grid for either kind: node tables as ``to_hetero`` gives.

    Re-embedding is byte-identical. Every record must be an object holding
    exactly its node type's fields (NODE_FIELDS) with numeric values (an int
    or a finite float, never a bool), and every bus reference, in a record or
    an edge, must be the int id of an existing bus.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EmbeddingParseError(f"$: not valid JSON ({exc})") from None
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _require(doc.get("schema") == SCHEMA, "$.schema", f"expected {SCHEMA!r}")
    kind = doc.get("kind")
    _require(kind in ("graph", "table"), "$.kind", "expected 'graph' or 'table'")
    base_mva = doc.get("base_mva", 100.0)
    _require(_is_number(base_mva), "$.base_mva", "expected a number")

    raw_nodes = doc.get("nodes", doc) if kind == "graph" else doc
    _require(isinstance(raw_nodes, dict), "$.nodes", "expected a JSON object")
    tables: dict = {"name": str(doc.get("name", "grid")), "base_mva": float(base_mva)}
    for t in NODE_TYPES:
        recs = raw_nodes.get(t)
        _require(isinstance(recs, list), f"$.{t}", "missing node table")
        inline = [f for f in NODE_FIELDS[t] if kind == "table" or f not in _REF_COLUMNS[t]]
        for i, rec in enumerate(recs):
            _require(isinstance(rec, dict), f"$.{t}[{i}]", "expected a JSON object")
            missing = [f for f in inline if f not in rec]
            _require(not missing, f"$.{t}[{i}]", f"missing fields {missing}")
            unknown = sorted(set(rec) - set(inline))
            _require(not unknown, f"$.{t}[{i}]", f"unknown fields {unknown}")
            for k, v in rec.items():
                _require(
                    isinstance(v, str) if k == "bus_kind" else _is_number(v),
                    f"$.{t}[{i}].{k}", f"unexpected value {v!r}",
                )
        tables[t] = recs

    n_bus = len(tables["bus"])
    if kind == "graph":
        edges = doc.get("edges")
        _require(isinstance(edges, list), "$.edges", "missing edge list")
        ends: dict[tuple[str, int], list] = {}
        for k, e in enumerate(edges):
            _require(
                isinstance(e, list) and len(e) == 4, f"$.edges[{k}]",
                "expected [src_type, src_id, dst_type, dst_id]",
            )
            src_t, src_i, dst_t, dst_i = e
            _require(dst_t == "bus", f"$.edges[{k}]", "edges must point at buses")
            _require(
                type(dst_i) is int and 0 <= dst_i < n_bus, f"$.edges[{k}]",
                f"missing bus {dst_i}",
            )
            _require(
                src_t in ("load", "gen", "slack", "line") and type(src_i) is int
                and 0 <= src_i < len(tables[src_t]),
                f"$.edges[{k}]", "dangling source node",
            )
            ends.setdefault((src_t, src_i), []).append(dst_i)
        for t in NODE_TYPES:
            cols = _REF_COLUMNS[t]
            for i, rec in enumerate(tables[t]):
                node_ends = ends.get((t, i), [])
                _require(
                    len(node_ends) == len(cols), f"$.{t}[{i}]",
                    f"expected {len(cols)} bus edge(s), found {len(node_ends)}",
                )
                rec.update(zip(cols, node_ends))
    for t in NODE_TYPES:
        for i, rec in enumerate(tables[t]):
            for col in _REF_COLUMNS[t]:
                _require(
                    type(rec[col]) is int and 0 <= rec[col] < n_bus,
                    f"$.{t}[{i}].{col}", f"missing bus {rec[col]}",
                )
    return tables


def encode_solution(sol: OpfSolution, decimals: int = 4) -> str:
    return encode_triples(sol.gen, sol.slack, sol.bus, decimals)


def encode_triples(gen, slack, bus, decimals: int = 4) -> str:
    """Solution JSON of (id, p_mw, q_mvar) per non-slack machine, the slack
    machine's triple and (id, vm_pu, va_deg) per bus: an OPF's or a PF's."""
    def rows(triples, a: str, b: str) -> list[dict]:
        return [{"id": i, a: round(x, decimals), b: round(y, decimals)} for i, x, y in triples]

    return _dumps({
        "schema": SCHEMA,
        "gen": rows(gen, "p_mw", "q_mvar"),
        "slack": rows([slack], "p_mw", "q_mvar"),
        "bus": rows(bus, "vm_pu", "va_deg"),
    })


def _first_json_object(text: str) -> dict | None:
    """First syntactically complete JSON object embedded anywhere in the text."""
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]  # a value opening with { is a dict
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
    return None


def _triples(doc: dict, key: str, fields: tuple[str, str]):
    rows = doc.get(key)
    if not isinstance(rows, list):
        raise InvalidResponse(f"missing or invalid values: {key!r}")
    out = []
    for row in rows:
        if not isinstance(row, dict):
            raise InvalidResponse(f"missing or invalid values: {key!r} row")
        try:
            rid, a, b = row["id"], row[fields[0]], row[fields[1]]
            # parse_grid's rule: true, "1.5", NaN and Infinity are not numbers; an id is integral
            if not all(map(_is_number, (rid, a, b))) or not float(rid).is_integer():
                raise ValueError(row)
            a, b = float(a), float(b)
        except (KeyError, OverflowError, ValueError):
            raise InvalidResponse(f"missing or invalid values: {key!r} row") from None
        out.append((int(rid), a, b))
    return tuple(out)


def parse_solution_doc(text: str) -> SolutionDoc:
    """Leniently extract a solution from an LLM response.

    Finds the first complete JSON object anywhere in the text; raises
    InvalidResponse if there is none or if gen/slack/bus are missing or carry
    non-numeric / non-finite values.
    """
    doc = _first_json_object(text)
    if doc is None:
        raise InvalidResponse("no JSON object found in response")
    return SolutionDoc(
        gen=_triples(doc, "gen", ("p_mw", "q_mvar")),
        slack=_triples(doc, "slack", ("p_mw", "q_mvar")),
        bus=_triples(doc, "bus", ("vm_pu", "va_deg")),
    )
