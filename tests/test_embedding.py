import hashlib
import json

import pytest

from gridprompt.embedding import (
    EmbeddingFormat,
    EmbeddingParseError,
    InvalidResponse,
    embed_grid,
    encode_solution,
    parse_grid,
    parse_solution_doc,
)
from gridprompt.grid_model import NODE_TYPES, from_hetero, to_hetero
from gridprompt.scenario_gen import MutationSpec, mutate
from gridprompt.solvers import solve_opf

GRAPH = EmbeddingFormat("graph")
TABLE = EmbeddingFormat("table")

# sha256 of embed_grid(to_hetero(case), kind) at 4 decimals; mutations are
# MutationSpec(0.2, seed=11) draws. A change here changes every dataset.
PINNED_SHA256 = {
    ("case9", "graph"): "32e9bbfd5795de1b59136ed0794d5fb66b6909e245139acd1564cbb5cafbacfe",
    ("case9", "table"): "0752f70b8495eb44b2371894e2d12abe02428758362cacf9d8876481768002b9",
    ("case30", "graph"): "73ed86f0b1984fecab658986b7e9a4b75f9e7e9287c564146cad6878b31a44b5",
    ("case30", "table"): "eb46bb6ea03ef669d774217e68e6029a5ea14ec56081d08fcc15fc8de8bc4414",
    ("case9_s0", "graph"): "d0c2e58d49b2f6c7653dea22d7ac261e0e2caed0e3fcd0da8809c7aab0b06900",
    ("case9_s0", "table"): "bd8ddc7e1c935d1c71fddc97e1c9dc42d31a181657c66c1d8d51c36f37f91d5f",
    ("case9_s7", "graph"): "4d9617c5c4167e2ec9324aa8d3259a2b652b554be4f25e2f7f4c4f6fd06ca60f",
    ("case9_s7", "table"): "8f2abca769f977519631f421d093c17e677dc1e3b9b3772c9e743e1a31590950",
    ("case30_s3", "graph"): "3553411d6b97ae46a793231d367ea377c0560067b2365d63d5b8381a2999a3ae",
    ("case30_s3", "table"): "00c928eb9f57febecde5fcd0793dea303ea7ca03ed28835796150fbdf1cda320",
}


def _tables(doc: dict) -> dict:
    """The node tables of a parsed embedding document, of either kind."""
    return doc["nodes"] if doc["kind"] == "graph" else doc


@pytest.mark.parametrize("kind, decimals, message", [
    ("json", 4, "unknown embedding kind 'json'"), ("table", 0, "decimals must be >= 1"),
])
def test_embedding_format_refused(kind, decimals, message):
    with pytest.raises(ValueError) as err:
        EmbeddingFormat(kind, decimals)
    assert str(err.value) == message


class TestEmbedGrid:
    def test_case9_graph_edge_count(self, case9):
        doc = json.loads(embed_grid(to_hetero(case9), GRAPH))
        # 3 load + 2 gen + 1 slack + 18 line-end edges
        assert len(doc["edges"]) == 3 + 2 + 1 + 18

    def test_table_has_no_edges_and_is_shorter(self, case9, case30):
        for case in (case9, case30):
            h = to_hetero(case)
            graph = embed_grid(h, GRAPH)
            table = embed_grid(h, TABLE)
            assert "edges" not in json.loads(table)
            assert len(table) < len(graph)

    def test_empty_load_table_keeps_empty_key(self, case9):
        h = to_hetero(case9.with_loads(()))
        doc = json.loads(embed_grid(h, TABLE))
        assert doc["load"] == []

    def test_deterministic_bytes(self, case9):
        h = to_hetero(case9)
        assert embed_grid(h, GRAPH) == embed_grid(h, GRAPH)
        assert embed_grid(h, TABLE) == embed_grid(h, TABLE)

    def test_schema_field_present(self, case9):
        doc = json.loads(embed_grid(to_hetero(case9), TABLE))
        assert doc["schema"] == "gridprompt/v1"

    @pytest.mark.parametrize("name, kind", sorted(PINNED_SHA256))
    def test_bytes_pinned(self, case9, case30, name, kind):
        base, _, index = name.partition("_s")
        case = {"case9": case9, "case30": case30}[base]
        if index:
            case = mutate(case, MutationSpec(0.2, seed=11), int(index))
        text = embed_grid(to_hetero(case), EmbeddingFormat(kind))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[name, kind]

    def test_graph_edge_degrees(self, case9):
        h = to_hetero(case9)
        edges = json.loads(embed_grid(h, GRAPH))["edges"]
        by_src = {}
        for src_t, src_i, _, _ in edges:
            by_src.setdefault((src_t, src_i), 0)
            by_src[(src_t, src_i)] += 1
        for t in ("load", "gen", "slack"):
            for i in range(len(h[t])):
                assert by_src[(t, i)] == 1
        for i in range(len(h["line"])):
            assert by_src[("line", i)] == 2

    def test_graph_edges_follow_bus_columns(self, case30):
        h = to_hetero(case30)
        doc = json.loads(embed_grid(h, GRAPH))
        expected = [[t, i, "bus", r["bus"]] for t in ("load", "gen", "slack")
                    for i, r in enumerate(h[t])]
        expected += [["line", i, "bus", r[end]] for i, r in enumerate(h["line"])
                     for end in ("from_bus", "to_bus")]
        assert doc["edges"] == expected
        assert not any("bus" in r for t in NODE_TYPES[1:] for r in doc["nodes"][t])
        assert not any("from_bus" in r or "to_bus" in r for r in doc["nodes"]["line"])


class TestParseGrid:
    @pytest.mark.parametrize("fmt", [GRAPH, TABLE], ids=["graph", "table"])
    def test_fixture_round_trip(self, case9, case30, fmt):
        for case in (case9, case30):
            t = embed_grid(to_hetero(case), fmt)
            assert embed_grid(parse_grid(t), fmt) == t

    @pytest.mark.parametrize("fmt", [GRAPH, TABLE], ids=["graph", "table"])
    def test_mutation_round_trips(self, case9, fmt):
        spec = MutationSpec(0.2, seed=11)
        for i in range(100):
            h = to_hetero(mutate(case9, spec, i))
            t = embed_grid(h, fmt)
            assert embed_grid(parse_grid(t), fmt) == t

    def test_round_trip_recovers_case(self, case9):
        for fmt in (GRAPH, TABLE):
            t = embed_grid(to_hetero(case9), fmt)
            assert from_hetero(parse_grid(t)) == case9

    def test_missing_bus_reference_named(self, case9):
        doc = json.loads(embed_grid(to_hetero(case9), TABLE))
        doc["load"][0]["bus"] = 77
        with pytest.raises(EmbeddingParseError, match=r"\$\.load\[0\]\.bus"):
            parse_grid(json.dumps(doc))

    def test_graph_dangling_edge_named(self, case9):
        for bus in (99, True):  # true is no bus id, though Python reads it as 1
            doc = json.loads(embed_grid(to_hetero(case9), GRAPH))
            doc["edges"][0][3] = bus
            with pytest.raises(EmbeddingParseError, match=r"\$\.edges\[0\]"):
                parse_grid(json.dumps(doc))

    def test_dangling_source_edge_rejected(self, case9):
        for source in (99, True):
            doc = json.loads(embed_grid(to_hetero(case9), GRAPH))
            doc["edges"].append(["load", source, "bus", 0])
            with pytest.raises(EmbeddingParseError, match="dangling"):
                parse_grid(json.dumps(doc))

    def test_second_bus_edge_rejected(self, case9):
        doc = json.loads(embed_grid(to_hetero(case9), GRAPH))
        doc["edges"].append(["load", 0, "bus", 1])
        with pytest.raises(EmbeddingParseError, match=r"\$\.load\[0\]: expected 1 bus edge"):
            parse_grid(json.dumps(doc))

    @pytest.mark.parametrize("fmt", [GRAPH, TABLE], ids=["graph", "table"])
    def test_non_object_record_rejected(self, case9, fmt):
        doc = json.loads(embed_grid(to_hetero(case9), fmt))
        _tables(doc)["bus"][0] = 1
        with pytest.raises(EmbeddingParseError, match=r"\$\.bus\[0\]: expected a JSON"):
            parse_grid(json.dumps(doc))

    @pytest.mark.parametrize("fmt", [GRAPH, TABLE], ids=["graph", "table"])
    def test_missing_field_rejected(self, case9, fmt):
        doc = json.loads(embed_grid(to_hetero(case9), fmt))
        del _tables(doc)["load"][0]["p_mw"]
        with pytest.raises(EmbeddingParseError, match=r"\$\.load\[0\]: missing fields"):
            parse_grid(json.dumps(doc))

    @pytest.mark.parametrize(
        "fmt, field",
        [(GRAPH, "p_mw_peak"), (TABLE, "p_mw_peak"), (GRAPH, "bus")],
        ids=["graph", "table", "graph-inline-bus"],
    )
    def test_unknown_field_rejected(self, case9, fmt, field):
        doc = json.loads(embed_grid(to_hetero(case9), fmt))
        _tables(doc)["load"][0][field] = 4
        with pytest.raises(EmbeddingParseError, match=r"\$\.load\[0\]: unknown fields"):
            parse_grid(json.dumps(doc))

    @pytest.mark.parametrize(
        "table, field, value",
        [("load", "p_mw", "90"), ("gen", "id", True), ("bus", "bus_kind", 3),
         ("load", "p_mw", float("nan")), ("bus", "vm_max", float("inf"))],
        ids=["string", "bool", "kind-not-string", "nan", "infinity"],
    )
    def test_ill_typed_value_rejected(self, case9, table, field, value):
        """json.dumps writes NaN and Infinity, which json.loads reads but no embedding holds."""
        doc = json.loads(embed_grid(to_hetero(case9), TABLE))
        doc[table][0][field] = value
        with pytest.raises(EmbeddingParseError, match=rf"\$\.{table}\[0\]\.{field}"):
            parse_grid(json.dumps(doc))

    @pytest.mark.parametrize("fmt", [GRAPH, TABLE], ids=["graph", "table"])
    def test_non_finite_base_mva_rejected(self, case9, fmt):
        doc = json.loads(embed_grid(to_hetero(case9), fmt))
        for value in (float("nan"), float("-inf")):
            doc["base_mva"] = value
            with pytest.raises(EmbeddingParseError, match=r"\$\.base_mva"):
                parse_grid(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(EmbeddingParseError, match="not valid JSON"):
            parse_grid("hello")

    def test_wrong_schema(self):
        with pytest.raises(EmbeddingParseError, match="schema"):
            parse_grid('{"schema": "other/v9", "kind": "table"}')


class TestSolutionDoc:
    @pytest.fixture(scope="class")
    @staticmethod
    def opf9(case9):
        return solve_opf(case9)

    def test_pure_json_parses(self, opf9):
        text = encode_solution(opf9)
        doc = parse_solution_doc(text)
        assert len(doc.gen) == 2
        assert len(doc.slack) == 1
        assert len(doc.bus) == 9

    def test_json_wrapped_in_prose(self, opf9):
        text = f"Here is the solution: {encode_solution(opf9)} hope this helps"
        doc = parse_solution_doc(text)
        assert len(doc.bus) == 9

    def test_nested_braces_and_strings_survive_extraction(self):
        inner = '{"gen":[{"id":0,"p_mw":1,"q_mvar":2}],"slack":[{"id":1,"p_mw":3,"q_mvar":4}],"bus":[{"id":0,"vm_pu":1.0,"va_deg":0.0}],"note":"curly } inside"}'
        quoted = inner.replace("curly } inside", 'a } and an escaped \\" inside')
        for text in (
            "blah {not json} then " + inner + " tail",
            "an unclosed { before " + inner,
            "a stray } before " + inner + " }",
            "{'single': 'quotes'} then " + inner,
            "prose " + quoted + " tail",
        ):
            doc = parse_solution_doc(text)
            assert doc.slack[0] == (1, 3.0, 4.0), text

    def test_prose_without_json_is_invalid(self):
        with pytest.raises(InvalidResponse, match="no JSON object"):
            parse_solution_doc("To solve OPF you should linearize the equations.")

    def test_missing_section_is_invalid(self, opf9):
        doc = json.loads(encode_solution(opf9))
        del doc["slack"]
        with pytest.raises(InvalidResponse, match="slack"):
            parse_solution_doc(json.dumps(doc))

    def test_non_numeric_value_is_invalid(self, opf9):
        """parse_grid's number rule: a boolean or a string is no number, an id no
        string; an integer past the float range is refused too."""
        for field, value in [("p_mw", "about ninety"), ("p_mw", True), ("p_mw", "1.5"),
                             ("q_mvar", None), ("p_mw", 10**400), ("id", "3")]:
            doc = json.loads(encode_solution(opf9))
            doc["gen"][0][field] = value
            with pytest.raises(InvalidResponse, match="missing or invalid values"):
                parse_solution_doc(json.dumps(doc))

    def test_row_that_is_not_an_object_is_invalid(self, opf9):
        doc = json.loads(encode_solution(opf9))
        doc["bus"][0] = [0, 1.0, 0.0]
        with pytest.raises(InvalidResponse) as err:
            parse_solution_doc(json.dumps(doc))
        assert str(err.value) == "missing or invalid values: 'bus' row"

    @pytest.mark.parametrize("rid", [1.7, True, False, float("inf")])
    def test_fractional_or_boolean_id_is_invalid(self, opf9, rid):
        doc = json.loads(encode_solution(opf9))
        doc["gen"][0]["id"] = rid
        with pytest.raises(InvalidResponse, match="missing or invalid values"):
            parse_solution_doc(json.dumps(doc))

    @pytest.mark.parametrize("rid", [3, 3.0])
    def test_integral_id_is_read(self, opf9, rid):
        doc = json.loads(encode_solution(opf9))
        doc["gen"][0]["id"] = rid
        assert parse_solution_doc(json.dumps(doc)).gen[0][0] == 3

    def test_nan_is_invalid(self, opf9):
        text = encode_solution(opf9)
        bad = text.replace(text.split('"p_mw":')[1].split(",")[0], "NaN", 1)
        with pytest.raises(InvalidResponse):
            parse_solution_doc(bad)

    def test_encode_is_canonical(self, opf9):
        assert encode_solution(opf9) == encode_solution(opf9)
