import dataclasses
import json

import numpy as np
import pytest

from gridprompt.embedding import EmbeddingFormat, embed_grid
from gridprompt.grid_model import (
    NODE_FIELDS,
    NODE_TYPES,
    BusKind,
    GridError,
    Line,
    Load,
    admittance_matrix,
    from_hetero,
    to_hetero,
)

from conftest import single_bus_case, two_bus_case


class TestToHetero:
    def test_case9_node_counts(self, case9):
        h = to_hetero(case9)
        counts = {t: len(h[t]) for t in NODE_TYPES}
        assert counts == {"bus": 9, "load": 3, "gen": 2, "slack": 1, "line": 9}

    def test_case30_node_counts(self, case30):
        h = to_hetero(case30)
        assert len(h["bus"]) == 30
        assert len(h["line"]) == 41

    def test_single_bus_minimal(self):
        h = to_hetero(single_bus_case())
        assert len(h["bus"]) == 1
        assert len(h["slack"]) == 1
        assert len(h["gen"]) == 0
        assert h["line"] == []
        edges = json.loads(embed_grid(h, EmbeddingFormat("graph")))["edges"]
        assert not any(e[0] == "line" for e in edges)

    def test_exactly_one_slack_node(self, case9, case30):
        for case in (case9, case30):
            assert len(to_hetero(case)["slack"]) == 1

    def test_records_are_component_fields(self, case9):
        h = to_hetero(case9)
        for t in NODE_TYPES:
            assert all(tuple(r) == NODE_FIELDS[t] for r in h[t])
        slack = case9.slack_gen
        assert h["slack"] == [dataclasses.asdict(slack)]
        assert [type(r["bus_kind"]) for r in h["bus"]] == [str] * 9
        assert h["bus"][0]["bus_kind"] == "slack"
        assert h["name"] == case9.name and h["base_mva"] == case9.base_mva

    def test_round_trip_identity(self, case9, case30):
        # a later machine on the slack bus is an ordinary one, under "gen"
        second = dataclasses.replace(case9.generators[1], id=3, bus=case9.slack_bus.id)
        two_on_slack = dataclasses.replace(case9, generators=case9.generators + (second,))
        assert to_hetero(two_on_slack)["slack"] == [dataclasses.asdict(case9.generators[0])]
        for case in (case9, case30, two_bus_case(50, 20), single_bus_case(), two_on_slack):
            assert from_hetero(to_hetero(case)) == case

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["load"][0].update(extra=1.0),
            lambda h: h["load"][0].pop("p_mw"),
            lambda h: h["bus"][0].update(bus_kind="swing"),
            lambda h: h.update(slack=[h["gen"][0]], gen=[h["slack"][0], *h["gen"][1:]]),
            lambda h: h.pop("line"),
        ],
        ids=["unknown-field", "missing-field", "bad-bus-kind", "slack-table-holds-another-machine",
             "missing-table"],
    )
    def test_bad_tables_are_grid_error(self, case9, edit):
        h = to_hetero(case9)
        edit(h)
        with pytest.raises(GridError, match="node tables"):
            from_hetero(h)


class TestCaseValidation:
    @pytest.mark.parametrize("base_mva", [0.0, -100.0, float("nan"), float("inf")])
    def test_base_mva_must_be_finite_and_positive(self, base_mva):
        with pytest.raises(GridError, match=f"base_mva must be finite and > 0, got {base_mva}"):
            dataclasses.replace(single_bus_case(), base_mva=base_mva)

    def test_load_on_missing_bus(self):
        case = single_bus_case()
        with pytest.raises(GridError, match="load 0 references missing bus 5"):
            dataclasses.replace(case, loads=(Load(id=0, bus=5, p_mw=1, q_mvar=0),))

    def test_two_slack_buses_rejected(self):
        case = two_bus_case()
        buses = (case.buses[0], dataclasses.replace(case.buses[1], bus_kind=BusKind.SLACK))
        with pytest.raises(GridError, match="exactly one slack bus"):
            dataclasses.replace(case, buses=buses)

    def test_bus_roles_are_checked_naming_the_external_bus(self, case9):
        """A slack or PV bus holds a machine, a PQ bus none; case9's external bus k is id k - 1."""
        gens = case9.generators
        pq = next(b for b in case9.buses if b.bus_kind == BusKind.PQ)
        assert case9.external_bus_ids[pq.id] == pq.id + 1
        for generators, message in [
            (gens[1:], "slack bus 1 has no machine"),
            ((gens[0], gens[2]), f"pv bus {gens[1].bus + 1} has no machine"),
            (gens + (dataclasses.replace(gens[1], id=3, bus=pq.id),), f"pq bus {pq.id + 1} has a"),
        ]:
            with pytest.raises(GridError, match=message):
                dataclasses.replace(case9, generators=generators)

    @pytest.mark.parametrize("ids", [(7,), (7, 8, 9)])
    def test_external_bus_ids_must_name_every_bus(self, ids):
        """One external id per bus, or the constraint names index past the end."""
        with pytest.raises(GridError, match=f"{len(ids)} external bus ids for 2 buses"):
            dataclasses.replace(two_bus_case(50, 20), external_bus_ids=ids)

    def test_self_loop_rejected(self):
        case = two_bus_case()
        with pytest.raises(GridError, match="self-loop"):
            dataclasses.replace(
                case, lines=(Line(id=0, from_bus=1, to_bus=1, r_pu=0, x_pu=0.1),)
            )

    @pytest.mark.parametrize("table, i, changes, message", [
        ("buses", 1, {"id": 5}, "bus ids must be dense 0..1, got 5 at 1"),
        ("buses", 0, {"vm_min": 1.1, "vm_max": 0.9}, "bus 0: vm_min 1.1 > vm_max 0.9"),
        ("generators", 0, {"bus": 5}, "generator 0 references missing bus 5"),
        ("generators", 0, {"p_min_mw": 600.0}, "generator 0: p_min > p_max"),
        ("generators", 0, {"q_min_mvar": 600.0}, "generator 0: q_min > q_max"),
        ("lines", 0, {"to_bus": 5}, "line 0 references a missing bus"),
        ("lines", 0, {"tap_ratio": 0.0}, "line 0 has non-positive tap ratio"),
    ], ids=["sparse-bus-ids", "vm-bounds", "gen-missing-bus", "p-bounds", "q-bounds",
            "line-missing-bus", "zero-tap"])
    def test_broken_component_named(self, table, i, changes, message):
        case = two_bus_case()
        rows = list(getattr(case, table))
        rows[i] = dataclasses.replace(rows[i], **changes)
        with pytest.raises(GridError) as err:
            dataclasses.replace(case, **{table: tuple(rows)})
        assert str(err.value) == message

    def test_disconnected_rejected(self):
        case = two_bus_case()
        with pytest.raises(GridError, match="not connected"):
            dataclasses.replace(case, lines=())


class TestAdmittanceMatrix:
    def test_two_bus_analytic(self):
        Y = admittance_matrix(two_bus_case(x=0.1))
        expected = np.array([[-10j, 10j], [10j, -10j]])
        assert np.allclose(Y, expected)

    def test_case9_sparsity(self, case9):
        Y = admittance_matrix(case9)
        assert np.count_nonzero(Y) == 9 + 2 * 9

    def test_shunt_adds_half_to_each_diagonal(self):
        y0 = admittance_matrix(two_bus_case(b=0.0))
        y1 = admittance_matrix(two_bus_case(b=0.2))
        diff = y1 - y0
        assert np.isclose(diff[0, 0], 0.1j)
        assert np.isclose(diff[1, 1], 0.1j)
        assert np.isclose(diff[0, 1], 0)

    def test_symmetric_at_unit_tap(self, case9, case30):
        for case in (case9, case30):
            Y = admittance_matrix(case)
            assert np.allclose(Y, Y.T)

    def test_zero_row_sums_without_shunts(self):
        case = two_bus_case(x=0.25, r=0.05)
        Y = admittance_matrix(case)
        assert np.max(np.abs(Y.sum(axis=1))) < 1e-12

    def test_zero_impedance_line_rejected(self):
        with pytest.raises(GridError, match="zero reactance"):
            two_bus_case(x=0.0)

    def test_tap_ratio_breaks_symmetry_only_off_nominal(self):
        case = two_bus_case()
        tapped = dataclasses.replace(
            case,
            lines=(Line(id=0, from_bus=0, to_bus=1, r_pu=0.0, x_pu=0.1, tap_ratio=1.05),),
        )
        Y = admittance_matrix(tapped)
        assert np.allclose(Y, Y.T)  # symmetric off-diagonals even with taps
        assert not np.isclose(Y[0, 0], Y[1, 1])
