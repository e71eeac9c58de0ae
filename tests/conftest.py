import json
from pathlib import Path

import pytest

from gridprompt.grid_model import Bus, BusKind, Generator, GridCase, Line, Load
from gridprompt.matpower_io import load_case

CASES_DIR = Path(__file__).resolve().parents[1] / "src" / "gridprompt" / "cases"
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="session")
def case9():
    return load_case(CASES_DIR / "case9.m")


@pytest.fixture(scope="session")
def case30():
    return load_case(CASES_DIR / "case30.m")


@pytest.fixture(scope="session")
def reference_case9():
    return json.loads((FIXTURES_DIR / "reference_case9.json").read_text())


@pytest.fixture(scope="session")
def reference_case30():
    return json.loads((FIXTURES_DIR / "reference_case30.json").read_text())


def two_bus_case(p_load_mw=0.0, q_load_mvar=0.0, r=0.0, x=0.1, b=0.0):
    """Slack generator at bus 0 feeding one PQ bus over a single line."""
    loads = ()
    if p_load_mw or q_load_mvar:
        loads = (Load(id=0, bus=1, p_mw=p_load_mw, q_mvar=q_load_mvar),)
    return GridCase(
        name="twobus",
        base_mva=100.0,
        buses=(
            Bus(id=0, base_kv=230.0, bus_kind=BusKind.SLACK),
            Bus(id=1, base_kv=230.0, bus_kind=BusKind.PQ),
        ),
        loads=loads,
        generators=(
            Generator(
                id=0, bus=0, p_mw=0.0, vm_setpoint_pu=1.0,
                p_min_mw=-500.0, p_max_mw=500.0,
                q_min_mvar=-500.0, q_max_mvar=500.0,
                cost_c2=0.01, cost_c1=5.0, cost_c0=0.0,
            ),
        ),
        lines=(Line(id=0, from_bus=0, to_bus=1, r_pu=r, x_pu=x, b_pu=b),),
    )


def single_bus_case():
    return GridCase(
        name="onebus",
        base_mva=100.0,
        buses=(Bus(id=0, base_kv=230.0, bus_kind=BusKind.SLACK),),
        loads=(),
        generators=(
            Generator(
                id=0, bus=0, p_mw=0.0, vm_setpoint_pu=1.0,
                p_min_mw=0.0, p_max_mw=100.0, q_min_mvar=-50.0, q_max_mvar=50.0,
            ),
        ),
        lines=(),
    )
