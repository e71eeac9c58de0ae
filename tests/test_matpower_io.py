import dataclasses
import re

import numpy as np
import pytest

from conftest import CASES_DIR
from gridprompt.grid_model import BusKind, GridError, Load, admittance_matrix
from gridprompt.matpower_io import (
    MatpowerParseError,
    UnsupportedFeatureError,
    parse_matpower,
    write_matpower,
)
from gridprompt.scenario_gen import MutationSpec, mutate
from gridprompt.solvers import solve_opf, solve_pf

MINI_CASE = """function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1  3  0   0  0 0 1 1 0 230 1 1.1 0.9;
    5  1  50  20 0 0 1 1 0 230 1 1.1 0.9;
    9  1  0   0  0 0 1 1 0 230 1 1.1 0.9;
];
mpc.gen = [
    1  10  0  100 -100 1.0 100 1 200 0  0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
    1  5  0.01 0.1 0    100 100 100 0 0 1 -360 360;
    5  9  0.01 0.1 0.02 100 100 100 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0.1 10 0;
];
"""

CASE9_TEXT = (CASES_DIR / "case9.m").read_text()


def case9_with_curve(curve: str, status: str = "1") -> str:
    """case9 with its second machine's status and PC1 PC2 QC1MIN QC1MAX QC2MIN QC2MAX
    (columns 8 and 11-16) set."""
    text = CASE9_TEXT.replace("1.025\t100\t1\t300\t10\t0\t0\t0\t0\t0\t0",
                              f"1.025\t100\t{status}\t300\t10\t" + curve.replace(" ", "\t"), 1)
    assert text != CASE9_TEXT
    return text


class TestParse:
    def test_case9_counts(self, case9):
        assert case9.base_mva == 100
        assert case9.n_bus == 9
        assert len(case9.generators) == 3
        assert len(case9.lines) == 9
        assert len(case9.loads) == 3
        assert all(ld.p_mw > 0 for ld in case9.loads)

    def test_case30_counts(self, case30):
        assert case30.n_bus == 30
        assert len(case30.generators) == 6
        assert len(case30.lines) == 41

    def test_sparse_ids_remapped_dense(self):
        case = parse_matpower(MINI_CASE)
        assert [b.id for b in case.buses] == [0, 1, 2]
        assert case.external_bus_ids == (1, 5, 9)
        assert case.loads[0].bus == 1  # external bus 5
        assert case.lines[1].from_bus == 1 and case.lines[1].to_bus == 2

    def test_slack_flagging(self, case9):
        assert case9.slack_gen.bus == case9.slack_bus.id
        assert case9.slack_bus.bus_kind == BusKind.SLACK

    def test_gencost_mapping(self, case9):
        g = case9.generators[1]
        assert (g.cost_c2, g.cost_c1, g.cost_c0) == (0.085, 1.2, 600)

    def test_piecewise_cost_rejected(self):
        text = MINI_CASE.replace("2 0 0 3 0.1 10 0;", "1 0 0 2 0 0 100 1000;")
        with pytest.raises(UnsupportedFeatureError, match="cost model"):
            parse_matpower(text)

    def test_malformed_row_reports_line(self):
        text = MINI_CASE.replace("mpc.baseMVA = 100;", "mpc.baseMVA = oops;")
        with pytest.raises(MatpowerParseError, match="line 3"):
            parse_matpower(text)

    def test_missing_table_rejected(self):
        text = MINI_CASE.replace("mpc.gencost", "mpc.other")
        with pytest.raises(MatpowerParseError, match="gencost"):
            parse_matpower(text)

    def test_short_row_rejected(self):
        text = MINI_CASE.replace(
            "    1  5  0.01 0.1 0    100 100 100 0 0 1 -360 360;",
            "    1  5  0.01;",
        )
        with pytest.raises(MatpowerParseError, match="branch"):
            parse_matpower(text)

    @pytest.mark.parametrize("old, new, error, message", [
        ("mpc.version = '2';", "mpc.version = '1';",
         UnsupportedFeatureError, "line 2: only case format version 2 is supported"),
        ("10 0;\n];", "10 0;\n", MatpowerParseError, "line 16: unterminated matrix gencost"),
        ("3 0.1 10 0;", "3 0.1 10;", MatpowerParseError, "gencost row 1: expected 3 coefficients"),
        ("3 0.1 10 0;", "4 0 0.1 10 0;",
         UnsupportedFeatureError, "gencost row 1: polynomial degree > 2 not supported"),
        ("    9  1  0", "    5  1  0", MatpowerParseError, "duplicate bus numbers in mpc.bus"),
        ("    9  1  0", "    9  4  0", UnsupportedFeatureError, "bus 9: unsupported bus type 4"),
        ("    2 0 0 3 0.1 10 0;", "    2 0 0 3 0.1 10 0;\n    2 0 0 3 0.1 10 0;",
         MatpowerParseError, "gencost has 2 rows for 1 generators"),
        ("    1  10  0  100", "    7  10  0  100",
         MatpowerParseError, "generator 0 references unknown bus 7"),
        ("    5  9  0.01", "    5  7  0.01", MatpowerParseError, "branch 1 references an unknown bus"),
        ("100 0 0 1 -360 360;\n    5", "100 0 5 1 -360 360;\n    5",
         UnsupportedFeatureError, "branch 0: phase shifters not supported"),
    ], ids=["version-1", "unterminated-matrix", "few-coefficients", "cubic-cost",
            "duplicate-bus", "bus-type-4", "gencost-rows", "gen-unknown-bus",
            "branch-unknown-bus", "phase-shifter"])
    def test_refusal_names_its_cause(self, old, new, error, message):
        assert MINI_CASE.count(old) == 1
        with pytest.raises(MatpowerParseError) as err:
            parse_matpower(MINI_CASE.replace(old, new))
        assert type(err.value) is error and str(err.value) == message

    def test_out_of_service_branch_dropped(self):
        text = MINI_CASE.replace(
            "5  9  0.01 0.1 0.02 100 100 100 0 0 1 -360 360;",
            "5  9  0.01 0.1 0.02 100 100 100 0 0 0 -360 360;\n    5  9  0.02 0.2 0 100 100 100 0 0 1 -360 360;",
        )
        case = parse_matpower(text)
        assert len(case.lines) == 2
        assert case.lines[1].x_pu == 0.2

    @pytest.mark.parametrize("angmin, angmax", [("-5", "5"), ("0", "30"), ("-30", "0"),
                                                ("-359.9", "360")])
    def test_finite_angle_difference_limit_refused(self, angmin, angmax):
        text = CASE9_TEXT.replace("\t1\t-360\t360;", f"\t1\t{angmin}\t{angmax};", 1)
        assert text != CASE9_TEXT
        with pytest.raises(UnsupportedFeatureError,
                           match=rf"^branch 0 \(1-4\): angle-difference limits {angmin}\.\.{angmax} "):
            parse_matpower(text)

    @pytest.mark.parametrize("angmin, angmax", [("0", "0"), ("-360", "360"), ("-400", "720"),
                                                ("-360", "0")])
    def test_no_limit_angle_values_parse_as_case9(self, case9, angmin, angmax):
        text = CASE9_TEXT.replace("\t-360\t360;", f"\t{angmin}\t{angmax};")
        assert parse_matpower(text) == case9

    def test_out_of_service_branch_angle_limits_ignored(self, case9):
        head, row, tail = CASE9_TEXT.partition("\t4\t6\t0.017")  # a line of the 4-5-6-7-8-9 ring
        row += tail.replace("\t1\t-360\t360;", "\t0\t-5\t5;", 1)
        assert len(parse_matpower(head + row).lines) == len(case9.lines) - 1

    def test_dc_lines_refused(self, case9):
        dcline = "mpc.dcline = [\n\t4\t5\t1\t10\t8.9\t0\t0\t1.01\t1\t1\t10\t-10\t10;\n];\n"
        with pytest.raises(UnsupportedFeatureError, match=r"^line 57: mpc\.dcline "):
            parse_matpower(CASE9_TEXT + dcline)
        assert parse_matpower(CASE9_TEXT + "mpc.dcline = [];\n") == case9

    @pytest.mark.parametrize("curve", ["0 300 -300 300 -200 200", "10 200 -100 100 -100 90",
                                       "10 200 -90 100 -100 100"])
    def test_pq_capability_curve_refused(self, curve):
        with pytest.raises(UnsupportedFeatureError, match="^generator 1: PQ capability curve"):
            parse_matpower(case9_with_curve(curve))

    # equal PC1 and PC2, or Q limits equal at both: no curve, as in MATPOWER's hasPQcap
    @pytest.mark.parametrize("curve", ["50 50 -300 300 -200 200", "10 200 -100 100 -100 100"])
    def test_no_capability_curve_values_parse_as_case9(self, case9, curve):
        assert parse_matpower(case9_with_curve(curve)) == case9

    def test_out_of_service_generator_curve_ignored(self, case9):
        text = case9_with_curve("0 300 -300 300 -200 200", status="0")
        assert len(parse_matpower(text).generators) == len(case9.generators) - 1

    def test_pv_bus_without_machine_in_service_is_pq(self):
        """MATPOWER's bustypes rule: the power flow then holds no |V| and injects no Q there."""
        text = CASE9_TEXT.replace("1.025\t100\t1\t270", "1.025\t100\t0\t270")  # bus 3's machine
        assert text != CASE9_TEXT
        case = parse_matpower(text)
        assert case.buses[2].bus_kind == BusKind.PQ
        pf = solve_pf(case)
        assert pf.converged
        V = pf.vm_pu * np.exp(1j * np.radians(pf.va_deg))
        assert abs((V * np.conj(admittance_matrix(case) @ V))[2]) < 1e-8
        sol = solve_opf(case)
        assert sol.feasible, sol.message
        assert sol.objective_cost == pytest.approx(6511.28, abs=0.01)

    @staticmethod
    def case9_with_gen3_copied_to(bus: int) -> str:
        """case9 with generator 3's gen and gencost rows copied, the copy on the given bus."""
        gen3 = next(r for r in CASE9_TEXT.splitlines() if r.startswith("\t3\t85\t"))
        cost3 = "\t2\t3000\t0\t3\t0.1225\t1\t335;"
        text = CASE9_TEXT.replace(gen3, f"{gen3}\n\t{bus}{gen3[2:]}", 1)
        text = text.replace(cost3, f"{cost3}\n{cost3}", 1)
        assert text.count(cost3) == 2
        return text

    def test_machine_on_pq_bus_refused(self):
        with pytest.raises(GridError, match="pq bus 5 has a machine"):
            parse_matpower(self.case9_with_gen3_copied_to(5))

    def test_second_machine_on_slack_bus_parses(self):
        """MATPOWER's pfsoln rule: the slack bus's first machine takes the balance."""
        case = parse_matpower(self.case9_with_gen3_copied_to(1))
        assert [g.bus for g in case.generators] == [0, 1, 2, 0]
        assert case.slack_gen is case.generators[0]
        assert parse_matpower(write_matpower(case)) == case
        sol = solve_opf(case)
        assert sol.feasible, sol.message
        assert sol.slack[0] == 0 and [i for i, _, _ in sol.gen] == [1, 2, 3]

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("0.11", "0.1x1", 53),  # first gencost c2, never to be split into 0.1 and 1
            ("0.11", "Inf", 53),
            ("0.11", "NaN", 53),
            ("mpc.baseMVA = 100;", "mpc.baseMVA = 1e2x;", 10),
        ],
    )
    def test_non_numeric_token_refused_with_its_line(self, old, new, line):
        text = CASE9_TEXT.replace(old, new, 1)
        assert text != CASE9_TEXT
        with pytest.raises(MatpowerParseError, match=rf"^line {line}: "):
            parse_matpower(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("\t2\t2\t0\t0\t", "\t2.7\t2\t0\t0\t", "mpc.bus row 2: BUS_I"),
            ("\t2\t2\t0\t0\t", "\t2\t2.6\t0\t0\t", "mpc.bus row 2: BUS_TYPE"),
            ("\t2\t163\t", "\t2.5\t163\t", "mpc.gen row 2: GEN_BUS"),
            ("1.04\t100\t1\t", "1.04\t100\t0.5\t", "mpc.gen row 1: GEN_STATUS"),
            ("\t1\t4\t0\t0.0576", "\t1.5\t4\t0\t0.0576", "mpc.branch row 1: F_BUS"),
            ("\t1\t4\t0\t0.0576", "\t1\t4.2\t0\t0.0576", "mpc.branch row 1: T_BUS"),
            ("0.0576\t0\t250\t250\t250\t0\t0\t1\t",
             "0.0576\t0\t250\t250\t250\t0\t0\t0.9\t", "mpc.branch row 1: BR_STATUS"),
            ("\t2\t1500\t0\t3\t", "\t2.2\t1500\t0\t3\t", "mpc.gencost row 1: MODEL"),
            ("\t2\t1500\t0\t3\t", "\t2\t1500\t0\t3.4\t", "mpc.gencost row 1: NCOST"),
        ],
        ids=["BUS_I", "BUS_TYPE", "GEN_BUS", "GEN_STATUS", "F_BUS", "T_BUS", "BR_STATUS",
             "MODEL", "NCOST"],
    )
    def test_fractional_integer_column_refused(self, old, new, message):
        """Bus numbers, types, statuses and cost-model fields are never truncated."""
        text = CASE9_TEXT.replace(old, new, 1)
        assert text != CASE9_TEXT
        with pytest.raises(MatpowerParseError, match=rf"^{re.escape(message)} must be an integer"):
            parse_matpower(text)

    def test_comma_separated_rows(self, case9):
        text = re.sub(r"(?<=\d)\t(?=[-\d.])", ", ", CASE9_TEXT)
        assert text.count(",") > 100
        assert parse_matpower(text) == case9

    def test_comments_ignored(self):
        text = MINI_CASE.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 100; % comment")
        assert parse_matpower(text).base_mva == 100


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["case9", "case30"])
    def test_fixture_round_trip(self, fixture, request):
        case = request.getfixturevalue(fixture)
        assert parse_matpower(write_matpower(case)) == case

    def test_write_parse_byte_stable(self, case9, case30):
        for case in (case9, case30):
            once = write_matpower(case)
            twice = write_matpower(parse_matpower(once))
            assert once == twice

    def test_mutated_round_trip(self, case9):
        for i in range(5):
            m = mutate(case9, MutationSpec(0.2, seed=3), i)
            assert parse_matpower(write_matpower(m)) == m

    def test_empty_load_round_trip(self, case9):
        empty = case9.with_loads(())
        assert parse_matpower(write_matpower(empty)) == empty

    def test_two_loads_on_one_bus_are_written_as_their_sum(self, case9):
        """MATPOWER holds one PD/QD per bus, so a second load on a bus adds to the first."""
        first = case9.loads[0]
        assert (case9.external_bus_ids[first.bus], first.p_mw, first.q_mvar) == (5, 125, 50)
        extra = Load(id=len(case9.loads), bus=first.bus, p_mw=10.5, q_mvar=-2.25)
        text = write_matpower(case9.with_loads((*case9.loads, extra)))
        rows = [r for r in text.splitlines() if r.startswith("\t5\t1\t")]
        assert rows == ["\t5\t1\t135.5\t47.75\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;"]
        summed = dataclasses.replace(first, p_mw=135.5, q_mvar=47.75)
        assert parse_matpower(text) == case9.with_loads((summed, *case9.loads[1:]))
