#!/usr/bin/env python3
"""Produce reference PF/OPF fixtures for the bundled cases.

Deliberately independent of gridprompt.solvers: power balance is accumulated
line by line from the pi model (no admittance matrix), the power flow is
solved with scipy.optimize.root, and the OPF is solved full-space (angles,
magnitudes and all generator P/Q as variables) with trust-constr. Results are
frozen into tests/fixtures/reference_<case>.json and committed.

Usage: python scripts/make_reference.py
"""
import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, NonlinearConstraint, minimize, root

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridprompt.grid_model import BusKind, GridCase  # noqa: E402
from gridprompt.matpower_io import load_case  # noqa: E402


def branch_currents(ln, vf, vt):
    ys = 1.0 / complex(ln.r_pu, ln.x_pu)
    bc = 1j * ln.b_pu / 2.0
    t = ln.tap_ratio
    i_f = (ys + bc) * vf / t**2 - ys * vt / t
    i_t = (ys + bc) * vt - ys * vf / t
    return i_f, i_t


def bus_injections(case: GridCase, V):
    """Complex power flowing out of each bus into the network (pu)."""
    S = np.zeros(case.n_bus, dtype=complex)
    for ln in case.lines:
        vf, vt = V[ln.from_bus], V[ln.to_bus]
        i_f, i_t = branch_currents(ln, vf, vt)
        S[ln.from_bus] += vf * np.conj(i_f)
        S[ln.to_bus] += vt * np.conj(i_t)
    return S


def reference_pf(case: GridCase):
    n = case.n_bus
    base = case.base_mva
    kinds = [b.bus_kind for b in case.buses]
    slack = kinds.index(BusKind.SLACK)
    pvpq = [i for i in range(n) if i != slack]
    pq = [i for i, k in enumerate(kinds) if k == BusKind.PQ]

    p_inj = np.zeros(n)
    q_inj = np.zeros(n)
    for ld in case.loads:
        p_inj[ld.bus] -= ld.p_mw / base
        q_inj[ld.bus] -= ld.q_mvar / base
    vm_set = np.ones(n)
    slack_gen = case.slack_gen
    for g in case.generators:
        vm_set[g.bus] = g.vm_setpoint_pu
        if g is not slack_gen:
            p_inj[g.bus] += g.p_mw / base

    def resid(z):
        va = np.zeros(n)
        va[pvpq] = z[: len(pvpq)]
        vm = vm_set.copy()
        vm[pq] = z[len(pvpq):]
        V = vm * np.exp(1j * va)
        S = bus_injections(case, V)
        return np.concatenate(
            [S.real[pvpq] - p_inj[pvpq], S.imag[pq] - q_inj[pq]]
        )

    z0 = np.concatenate([np.zeros(len(pvpq)), np.ones(len(pq))])
    sol = root(resid, z0, method="hybr", tol=1e-12)
    assert sol.success, sol.message
    va = np.zeros(n)
    va[pvpq] = sol.x[: len(pvpq)]
    vm = vm_set.copy()
    vm[pq] = sol.x[len(pvpq):]
    V = vm * np.exp(1j * va)
    S = bus_injections(case, V)

    # The slack machine closes its bus's P balance less the other machines'
    # setpoints there; a bus's Q is split among its machines in proportion to
    # their reactive range, equally if every range is zero.
    gen_p = np.zeros(len(case.generators))
    gen_q = np.zeros(len(case.generators))
    for i, g in enumerate(case.generators):
        pd = sum(ld.p_mw for ld in case.loads if ld.bus == g.bus) / base
        qd = sum(ld.q_mvar for ld in case.loads if ld.bus == g.bus) / base
        mates = [h for h in case.generators if h.bus == g.bus]
        if g is slack_gen:
            gen_p[i] = (S.real[g.bus] + pd) * base - sum(h.p_mw for h in mates if h is not g)
        else:
            gen_p[i] = g.p_mw
        ranges = [h.q_max_mvar - h.q_min_mvar for h in mates]
        share = (g.q_max_mvar - g.q_min_mvar) / sum(ranges) if sum(ranges) > 0 else 1 / len(mates)
        gen_q[i] = share * (S.imag[g.bus] + qd) * base
    return vm, np.degrees(va), gen_p, gen_q


def reference_opf(case: GridCase):
    n = case.n_bus
    ng = len(case.generators)
    base = case.base_mva
    slack = next(i for i, b in enumerate(case.buses) if b.bus_kind == BusKind.SLACK)
    nonslack = [i for i in range(n) if i != slack]

    p_load = np.zeros(n)
    q_load = np.zeros(n)
    for ld in case.loads:
        p_load[ld.bus] += ld.p_mw / base
        q_load[ld.bus] += ld.q_mvar / base

    # x = [va(nonslack), vm(all), pg(all), qg(all)]
    iva = slice(0, n - 1)
    ivm = slice(n - 1, 2 * n - 1)
    ipg = slice(2 * n - 1, 2 * n - 1 + ng)
    iqg = slice(2 * n - 1 + ng, 2 * n - 1 + 2 * ng)

    def unpack(x):
        va = np.zeros(n)
        va[nonslack] = x[iva]
        return va, x[ivm], x[ipg], x[iqg]

    def balance(x):
        va, vm, pg, qg = unpack(x)
        V = vm * np.exp(1j * va)
        S = bus_injections(case, V)
        pb = S.real + p_load
        qb = S.imag + q_load
        for i, g in enumerate(case.generators):
            pb[g.bus] -= pg[i]
            qb[g.bus] -= qg[i]
        return np.concatenate([pb, qb])

    rated = [ln for ln in case.lines if ln.rate_mva > 0]

    def flows_sq(x):
        va, vm, _, _ = unpack(x)
        V = vm * np.exp(1j * va)
        out = []
        for ln in rated:
            i_f, i_t = branch_currents(ln, V[ln.from_bus], V[ln.to_bus])
            sf = V[ln.from_bus] * np.conj(i_f)
            st = V[ln.to_bus] * np.conj(i_t)
            out += [abs(sf) ** 2, abs(st) ** 2]
        return np.array(out)

    def cost(x):
        _, _, pg, _ = unpack(x)
        p_mw = pg * base
        c = sum(
            g.cost_c2 * p**2 + g.cost_c1 * p + g.cost_c0
            for g, p in zip(case.generators, p_mw)
        )
        return c / 1000.0

    lb = np.concatenate([
        np.full(n - 1, -np.pi),
        [case.buses[i].vm_min for i in range(n)],
        [g.p_min_mw / base for g in case.generators],
        [g.q_min_mvar / base for g in case.generators],
    ])
    ub = np.concatenate([
        np.full(n - 1, np.pi),
        [case.buses[i].vm_max for i in range(n)],
        [g.p_max_mw / base for g in case.generators],
        [g.q_max_mvar / base for g in case.generators],
    ])

    vm0, va0, gp0, gq0 = reference_pf(case)
    x0 = np.concatenate([
        np.radians(va0)[nonslack], vm0, gp0 / base, gq0 / base
    ])
    x0 = np.clip(x0, lb, ub)

    cons = [NonlinearConstraint(balance, 0.0, 0.0)]
    if rated:
        limits = np.array([(ln.rate_mva / base) ** 2 for ln in rated for _ in range(2)])
        cons.append(NonlinearConstraint(flows_sq, -np.inf, limits))

    res = minimize(
        cost, x0, method="trust-constr", bounds=Bounds(lb, ub),
        constraints=cons,
        options={"maxiter": 3000, "xtol": 1e-12, "gtol": 1e-10, "verbose": 0},
    )
    assert res.constr_violation < 1e-8, res
    va, vm, pg, qg = unpack(res.x)
    return {
        "objective": cost(res.x) * 1000.0,
        "vm_pu": vm.tolist(),
        "va_deg": np.degrees(va).tolist(),
        "gen_p_mw": (pg * base).tolist(),
        "gen_q_mvar": (qg * base).tolist(),
        "constr_violation": float(res.constr_violation),
    }


def main():
    root_dir = Path(__file__).resolve().parents[1]
    out_dir = root_dir / "tests" / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("case9", "case30"):
        case = load_case(root_dir / "src" / "gridprompt" / "cases" / f"{name}.m")
        vm, va, gp, gq = reference_pf(case)
        opf = reference_opf(case)
        doc = {
            "case": name,
            "pf": {
                "vm_pu": vm.tolist(),
                "va_deg": va.tolist(),
                "gen_p_mw": gp.tolist(),
                "gen_q_mvar": gq.tolist(),
            },
            "opf": opf,
        }
        path = out_dir / f"reference_{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        print(f"{name}: pf slack P = {gp[0]:.3f} MW, opf objective = {opf['objective']:.3f} $/h")


if __name__ == "__main__":
    main()
