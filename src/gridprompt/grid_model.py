"""Canonical in-memory power grid model.

All electrical quantities live in the units people read them in (MW, MVAr,
per-unit voltages); solvers normalize to per-unit on ``base_mva`` internally.
Every type here is an immutable value: mutation helpers return new objects.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np


class GridError(Exception):
    """Structural problem in a grid description (dangling refs, bad values)."""


class BusKind(str, Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    base_kv: float
    bus_kind: BusKind
    vm_min: float = 0.9
    vm_max: float = 1.1


@dataclass(frozen=True)
class Load:
    id: int
    bus: int
    p_mw: float
    q_mvar: float


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    p_mw: float
    vm_setpoint_pu: float
    p_min_mw: float
    p_max_mw: float
    q_min_mvar: float
    q_max_mvar: float
    cost_c2: float = 0.0  # $/MW^2 h
    cost_c1: float = 0.0  # $/MWh
    cost_c0: float = 0.0  # $/h


@dataclass(frozen=True)
class Line:
    id: int
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    b_pu: float = 0.0  # total charging susceptance, split half per end
    tap_ratio: float = 1.0
    rate_mva: float = 0.0  # 0 = unlimited


@dataclass(frozen=True)
class GridCase:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    loads: tuple[Load, ...]
    generators: tuple[Generator, ...]
    lines: tuple[Line, ...]
    # internal dense id -> external id from the source file (identity if absent);
    # presentation metadata only, excluded from value equality
    external_bus_ids: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.external_bus_ids:
            object.__setattr__(
                self, "external_bus_ids", tuple(b.id for b in self.buses)
            )
        validate_case(self)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.bus_kind == BusKind.SLACK)

    @property
    def slack_gen(self) -> Generator:
        """The machine that takes the balance: the slack bus's first, as in MATPOWER's pfsoln."""
        slack_bus = self.slack_bus.id
        return next(g for g in self.generators if g.bus == slack_bus)

    @property
    def nonslack_gens(self) -> tuple[Generator, ...]:
        slack = self.slack_gen
        return tuple(g for g in self.generators if g is not slack)

    def with_loads(self, loads: tuple[Load, ...]) -> "GridCase":
        return replace(self, loads=loads)


def validate_case(case: GridCase) -> None:
    """Raise GridError if any structural invariant is broken."""
    if not 0 < case.base_mva < np.inf:
        raise GridError(f"base_mva must be finite and > 0, got {case.base_mva}")
    n = len(case.buses)
    for i, b in enumerate(case.buses):
        if b.id != i:
            raise GridError(f"bus ids must be dense 0..{n - 1}, got {b.id} at {i}")
        if b.vm_min > b.vm_max:
            raise GridError(f"bus {b.id}: vm_min {b.vm_min} > vm_max {b.vm_max}")
    if len(case.external_bus_ids) != n:
        raise GridError(f"{len(case.external_bus_ids)} external bus ids for {n} buses")
    slack_buses = [b for b in case.buses if b.bus_kind == BusKind.SLACK]
    if len(slack_buses) != 1:
        raise GridError(f"expected exactly one slack bus, found {len(slack_buses)}")
    for ld in case.loads:
        if not 0 <= ld.bus < n:
            raise GridError(f"load {ld.id} references missing bus {ld.bus}")
    for g in case.generators:
        if not 0 <= g.bus < n:
            raise GridError(f"generator {g.id} references missing bus {g.bus}")
        if g.p_min_mw > g.p_max_mw:
            raise GridError(f"generator {g.id}: p_min > p_max")
        if g.q_min_mvar > g.q_max_mvar:
            raise GridError(f"generator {g.id}: q_min > q_max")
    held = {g.bus for g in case.generators}  # a slack or PV bus holds a machine, a PQ bus none
    for b in case.buses:
        if (b.bus_kind == BusKind.PQ) == (b.id in held):
            has = "has a machine" if b.id in held else "has no machine to hold its voltage"
            raise GridError(f"{b.bus_kind.value} bus {case.external_bus_ids[b.id]} {has}")
    for ln in case.lines:
        if not 0 <= ln.from_bus < n or not 0 <= ln.to_bus < n:
            raise GridError(f"line {ln.id} references a missing bus")
        if ln.from_bus == ln.to_bus:
            raise GridError(f"line {ln.id} is a self-loop at bus {ln.from_bus}")
        if ln.x_pu == 0:
            raise GridError(f"line {ln.id} has zero reactance")
        if ln.tap_ratio <= 0:
            raise GridError(f"line {ln.id} has non-positive tap ratio")
    if n > 1 and not _connected(case):
        raise GridError("grid graph is not connected")


def _connected(case: GridCase) -> bool:
    adj: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for ln in case.lines:
        adj[ln.from_bus].add(ln.to_bus)
        adj[ln.to_bus].add(ln.from_bus)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == case.n_bus


# ---------------------------------------------------------------------------
# Node tables: the content of the text embeddings
# ---------------------------------------------------------------------------

NODE_TYPES = ("bus", "load", "gen", "slack", "line")

# record fields of each node type: its component's dataclass fields
NODE_FIELDS = {
    t: tuple(f.name for f in fields(cls))
    for t, cls in (("bus", Bus), ("load", Load), ("gen", Generator),
                   ("slack", Generator), ("line", Line))
}


def _record(component) -> dict:
    rec = dict(vars(component))
    if "bus_kind" in rec:
        rec["bus_kind"] = rec["bus_kind"].value
    return rec


def to_hetero(case: GridCase) -> dict:
    """Node tables of a grid: ``name``, ``base_mva`` and one list per NODE_TYPES.

    Each record holds its component's fields (NODE_FIELDS) by name, bus
    references inline. The slack machine sits under "slack", the others
    under "gen".
    """
    return {
        "name": case.name,
        "base_mva": case.base_mva,
        "bus": [_record(b) for b in case.buses],
        "load": [_record(ld) for ld in case.loads],
        "gen": [_record(g) for g in case.nonslack_gens],
        "slack": [_record(case.slack_gen)],
        "line": [_record(ln) for ln in case.lines],
    }


def from_hetero(tables: dict) -> GridCase:
    """Inverse of to_hetero; field-exact round trip.

    Raises GridError when a table or record does not fit its component, or
    when the slack table is not exactly the slack bus's first machine.
    """
    try:
        slack = [Generator(**r) for r in tables["slack"]]
        gens = [Generator(**r) for r in tables["gen"]] + slack
        case = GridCase(
            name=tables["name"],
            base_mva=tables["base_mva"],
            buses=tuple(
                Bus(**{**r, "bus_kind": BusKind(r["bus_kind"])}) for r in tables["bus"]
            ),
            loads=tuple(Load(**r) for r in tables["load"]),
            generators=tuple(sorted(gens, key=lambda g: g.id)),
            lines=tuple(Line(**r) for r in tables["line"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GridError(f"node tables do not describe a grid: {exc!r}") from None
    if slack != [case.slack_gen]:  # exactly the slack bus's first machine
        raise GridError(f"node tables do not describe a grid: slack is gen {case.slack_gen.id}")
    return case


def branch_admittances(case: GridCase, lines) -> tuple[np.ndarray, np.ndarray]:
    """Each row's bus and the pi-model matrix Y of the line-end powers.

    Row k of ``V[ends] * conj(Y @ V)`` is the power entering ``lines[k]`` at
    its from bus ``ends[k]``, row nl + k at its to bus. Charging susceptance
    is split half per end; off-nominal taps are applied on the from side.
    """
    z = [complex(ln.r_pu, ln.x_pu) for ln in lines]
    if 0 in z:
        raise GridError(f"line {lines[z.index(0)].id} has zero series impedance")
    f = np.array([ln.from_bus for ln in lines], dtype=int)
    t = np.array([ln.to_bus for ln in lines], dtype=int)
    ys = np.array([1.0 / zk for zk in z], dtype=complex)  # Python's 1/z; numpy's rounds apart
    bc = 0.5j * np.array([ln.b_pu for ln in lines])
    tap = np.array([ln.tap_ratio for ln in lines])
    nl, k = len(lines), np.arange(len(lines))
    Y = np.zeros((2 * nl, case.n_bus), dtype=complex)
    Y[k, f] = (ys + bc) / (tap * tap)
    Y[k, t] = Y[nl + k, f] = -ys / tap
    Y[nl + k, t] = ys + bc
    return np.concatenate([f, t]), Y


def admittance_matrix(case: GridCase) -> np.ndarray:
    """Complex bus admittance matrix (per-unit): ``branch_admittances``'s rows at their buses.

    Each line end's row is added at its bus in line order, the order in which
    a line-by-line stamp adds them.
    """
    ends, Y = branch_admittances(case, case.lines)
    order = np.arange(len(Y)).reshape(2, -1).T.ravel()  # from end, to end, line by line
    Ybus = np.zeros((case.n_bus, case.n_bus), dtype=complex)
    np.add.at(Ybus, ends[order], Y[order])
    return Ybus
