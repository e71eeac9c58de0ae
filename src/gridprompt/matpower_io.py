"""MATPOWER case file (.m, format version 2) reader and writer.

Only numeric literals and matrix blocks are understood; no MATLAB evaluation.
External (1-based, possibly sparse) bus numbers are remapped to dense 0-based
internal ids; the original numbers are kept on GridCase.external_bus_ids and
restored on write.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

from .files import read_utf8
from .grid_model import Bus, BusKind, Generator, GridCase, GridError, Line, Load

# MATPOWER column indices
BUS_I, BUS_TYPE, PD, QD, GS, BS, BUS_AREA, VM, VA, BASE_KV, ZONE, VMAX, VMIN = range(13)
GEN_BUS, PG, QG, QMAX, QMIN, VG, MBASE, GEN_STATUS, PMAX, PMIN, PC1, PC2 = range(12)
QC1MIN, QC1MAX, QC2MIN, QC2MAX = range(12, 16)
F_BUS, T_BUS, BR_R, BR_X, BR_B, RATE_A, RATE_B, RATE_C, TAP, SHIFT, BR_STATUS, ANGMIN, ANGMAX = range(13)

_BUS_TYPE_TO_KIND = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}
_KIND_TO_BUS_TYPE = {v: k for k, v in _BUS_TYPE_TO_KIND.items()}


class MatpowerParseError(Exception):
    """Malformed case file; carries the offending line number when known."""


class UnsupportedFeatureError(MatpowerParseError):
    """Valid MATPOWER construct this reader deliberately does not handle."""


@dataclass
class RawCaseTables:
    """Numeric tables exactly as read from the file."""
    name: str
    base_mva: float
    bus: list[list[float]]
    gen: list[list[float]]
    branch: list[list[float]]
    gencost: list[list[float]]


_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# a matrix body is numbers separated by blanks, commas, semicolons and newlines;
# match() stops right before the first token that is not a whole number
_MATRIX = re.compile(rf"(?:[\s,;]*{_NUM.pattern}(?![^\s,;]))*[\s,;]*")
# a matrix runs to its closing bracket (kept, so a missing one shows), a scalar to ; or EOL
_ASSIGN = re.compile(r"mpc\.(\w+)\s*=\s*(\[[^\]]*\]?|[^;\n]*)")


def parse_raw_tables(text: str) -> RawCaseTables:
    """Tokenize the case file into named numeric tables."""
    text = re.sub(r"%.*", "", text)
    m = re.search(r"function\s+\w+\s*=\s*(\w+)", text)
    name = m.group(1) if m else "case"
    base_mva = None
    tables: dict[str, list[list[float]]] = {}
    for m in _ASSIGN.finditer(text):
        key, value = m.group(1), m.group(2).strip()
        line = text.count("\n", 0, m.start()) + 1
        if key == "baseMVA":
            if not _NUM.fullmatch(value):
                raise MatpowerParseError(f"line {line}: baseMVA is not numeric")
            base_mva = float(value)
        elif key == "version":
            ver = re.search(r"'(\d+)'", value)
            if ver and ver.group(1) != "2":
                raise UnsupportedFeatureError(
                    f"line {line}: only case format version 2 is supported"
                )
        elif value.startswith("["):
            if not value.endswith("]"):
                raise MatpowerParseError(f"line {line}: unterminated matrix {key}")
            body = value[1:-1]
            end = _MATRIX.match(body).end()
            if end < len(body):
                bad = re.match(r"[^\s,;]+", body[end:]).group()
                at = line + body.count("\n", 0, end)
                raise MatpowerParseError(f"line {at}: {bad!r} in mpc.{key} is not a number")
            tables[key] = [
                [float(tok) for tok in toks]
                for row in re.split(r"[;\n]", body)
                if (toks := row.replace(",", " ").split())
            ]
            if key == "dcline" and tables[key]:
                raise UnsupportedFeatureError(f"line {line}: mpc.dcline (DC lines) not supported")

    if base_mva is None:
        raise MatpowerParseError("missing mpc.baseMVA")
    for req, min_cols in (("bus", 13), ("gen", 21), ("branch", 13), ("gencost", 4)):
        if req not in tables:
            raise MatpowerParseError(f"missing mpc.{req} table")
        for j, row in enumerate(tables[req]):
            if len(row) < min_cols:
                raise MatpowerParseError(
                    f"mpc.{req} row {j + 1}: expected >= {min_cols} columns, "
                    f"got {len(row)}"
                )
    return RawCaseTables(name, base_mva, *(tables[k] for k in ("bus", "gen", "branch", "gencost")))


def _integer(value: float, table: str, index: int, column: str) -> int:
    """An integer column's value, refused (never truncated) if it has a fraction."""
    if value != int(value):
        raise MatpowerParseError(
            f"mpc.{table} row {index + 1}: {column} must be an integer, got {value!r}"
        )
    return int(value)


def _gencost_coeffs(row: list[float], gen_idx: int) -> tuple[float, float, float]:
    model = _integer(row[0], "gencost", gen_idx, "MODEL")
    if model != 2:
        raise UnsupportedFeatureError(
            f"gencost row {gen_idx + 1}: only polynomial cost model 2 is supported "
            f"(got model {model})"
        )
    n = _integer(row[3], "gencost", gen_idx, "NCOST")
    coeffs = row[4 : 4 + n]
    if len(coeffs) != n:
        raise MatpowerParseError(f"gencost row {gen_idx + 1}: expected {n} coefficients")
    if n > 3:
        raise UnsupportedFeatureError(
            f"gencost row {gen_idx + 1}: polynomial degree > 2 not supported"
        )
    padded = [0.0] * (3 - n) + coeffs
    return padded[0], padded[1], padded[2]


def raw_to_case(raw: RawCaseTables) -> GridCase:
    """Build a validated GridCase from raw tables, honoring status columns."""
    ext_ids = [_integer(r[BUS_I], "bus", i, "BUS_I") for i, r in enumerate(raw.bus)]
    if len(set(ext_ids)) != len(ext_ids):
        raise MatpowerParseError("duplicate bus numbers in mpc.bus")
    ext_to_int = {e: i for i, e in enumerate(ext_ids)}

    buses = []
    for i, r in enumerate(raw.bus):
        btype = _integer(r[BUS_TYPE], "bus", i, "BUS_TYPE")
        if btype not in _BUS_TYPE_TO_KIND:
            raise UnsupportedFeatureError(
                f"bus {ext_ids[i]}: unsupported bus type {btype}"
            )
        buses.append(
            Bus(
                id=i,
                base_kv=r[BASE_KV],
                bus_kind=_BUS_TYPE_TO_KIND[btype],
                vm_min=r[VMIN],
                vm_max=r[VMAX],
            )
        )

    loads = []
    for i, r in enumerate(raw.bus):
        if r[PD] != 0 or r[QD] != 0:
            loads.append(Load(id=len(loads), bus=i, p_mw=r[PD], q_mvar=r[QD]))

    if len(raw.gencost) != len(raw.gen):
        raise MatpowerParseError(
            f"gencost has {len(raw.gencost)} rows for {len(raw.gen)} generators"
        )
    gens = []
    for i, r in enumerate(raw.gen):
        if _integer(r[GEN_STATUS], "gen", i, "GEN_STATUS") <= 0:
            continue
        # MATPOWER's hasPQcap: Q limits that change between PC1 and PC2
        if r[PC1] != r[PC2] and (r[QC1MIN] != r[QC2MIN] or r[QC1MAX] != r[QC2MAX]):
            raise UnsupportedFeatureError(f"generator {i}: PQ capability curve not supported")
        bus_ext = _integer(r[GEN_BUS], "gen", i, "GEN_BUS")
        bus_i = ext_to_int.get(bus_ext)
        if bus_i is None:
            raise MatpowerParseError(f"generator {i} references unknown bus {bus_ext}")
        c2, c1, c0 = _gencost_coeffs(raw.gencost[i], i)
        gens.append(
            Generator(
                id=len(gens),
                bus=bus_i,
                p_mw=r[PG],
                vm_setpoint_pu=r[VG],
                p_min_mw=r[PMIN],
                p_max_mw=r[PMAX],
                q_min_mvar=r[QMIN],
                q_max_mvar=r[QMAX],
                cost_c2=c2,
                cost_c1=c1,
                cost_c0=c0,
            )
        )

    held = {g.bus for g in gens}  # MATPOWER's bustypes: a PV bus with no machine in service is PQ
    for b in buses:
        if b.bus_kind == BusKind.PV and b.id not in held:
            buses[b.id] = replace(b, bus_kind=BusKind.PQ)

    lines = []
    for i, r in enumerate(raw.branch):
        if _integer(r[BR_STATUS], "branch", i, "BR_STATUS") <= 0:
            continue
        f = ext_to_int.get(_integer(r[F_BUS], "branch", i, "F_BUS"))
        t = ext_to_int.get(_integer(r[T_BUS], "branch", i, "T_BUS"))
        if f is None or t is None:
            raise MatpowerParseError(f"branch {i} references an unknown bus")
        if r[SHIFT] != 0:
            raise UnsupportedFeatureError(f"branch {i}: phase shifters not supported")
        # as in MATPOWER, ANGMIN 0 or <= -360 and ANGMAX 0 or >= 360 mean "no limit"
        if -360 < r[ANGMIN] != 0 or 0 != r[ANGMAX] < 360:
            raise UnsupportedFeatureError(
                f"branch {i} ({r[F_BUS]:g}-{r[T_BUS]:g}): angle-difference limits "
                f"{r[ANGMIN]:g}..{r[ANGMAX]:g} deg not supported"
            )
        lines.append(
            Line(
                id=len(lines),
                from_bus=f,
                to_bus=t,
                r_pu=r[BR_R],
                x_pu=r[BR_X],
                b_pu=r[BR_B],
                tap_ratio=r[TAP] if r[TAP] != 0 else 1.0,
                rate_mva=r[RATE_A],
            )
        )

    return GridCase(
        name=raw.name,
        base_mva=raw.base_mva,
        buses=tuple(buses),
        loads=tuple(loads),
        generators=tuple(gens),
        lines=tuple(lines),
        external_bus_ids=tuple(ext_ids),
    )


def parse_matpower(text: str) -> GridCase:
    return raw_to_case(parse_raw_tables(text))


def load_case(path: str | Path) -> GridCase:
    """A MATPOWER file's case; a parse or grid error names the file and keeps its class."""
    try:
        return parse_matpower(read_utf8(path))
    except (MatpowerParseError, GridError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def write_matpower(case: GridCase) -> str:
    """Emit a version-2 case file; parse_matpower round-trips it field-exact."""
    ext = case.external_bus_ids
    demand: dict[int, tuple[float, float]] = {}  # MATPOWER holds one PD/QD per bus
    for ld in case.loads:
        p, q = demand.get(ld.bus, (0.0, 0.0))
        demand[ld.bus] = (p + ld.p_mw, q + ld.q_mvar)

    out = [f"function mpc = {case.name}", "mpc.version = '2';", ""]
    out.append(f"mpc.baseMVA = {_fmt(case.base_mva)};")

    def matrix(name: str, rows) -> None:
        out.append(f"mpc.{name} = [")
        out.extend("\t" + "\t".join(_fmt(v) for v in row) + ";" for row in rows)
        out.append("];")

    matrix("bus", ([ext[b.id], _KIND_TO_BUS_TYPE[b.bus_kind], *demand.get(b.id, (0.0, 0.0)),
                    0, 0, 1, 1, 0, b.base_kv, 1, b.vm_max, b.vm_min] for b in case.buses))
    matrix("gen", ([ext[g.bus], g.p_mw, 0, g.q_max_mvar, g.q_min_mvar, g.vm_setpoint_pu,
                    case.base_mva, 1, g.p_max_mw, g.p_min_mw] + [0] * 11 for g in case.generators))
    matrix("branch", ([ext[ln.from_bus], ext[ln.to_bus], ln.r_pu, ln.x_pu, ln.b_pu,
                       ln.rate_mva, ln.rate_mva, ln.rate_mva,
                       0.0 if ln.tap_ratio == 1.0 else ln.tap_ratio, 0, 1, -360, 360]
                      for ln in case.lines))
    matrix("gencost", ([2, 0, 0, 3, g.cost_c2, g.cost_c1, g.cost_c0] for g in case.generators))
    return "\n".join(out) + "\n"
