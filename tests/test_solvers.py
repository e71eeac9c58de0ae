import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gridprompt import solvers
from gridprompt.grid_model import BusKind, Line, admittance_matrix, branch_admittances
from gridprompt.scenario_gen import MutationSpec, mutate
from gridprompt.solvers import (
    OpfOptions,
    PrimalDual,
    SolveStats,
    _OpfProblem,
    generation_cost,
    line_loadings_mva,
    solve_opf,
    solve_pf,
)

from conftest import single_bus_case, two_bus_case


def pf_residual_pu(case, vm_pu, va_deg, gen_p_mw, gen_q_mvar):
    """Independent power-balance residual from V and Y, not solver internals."""
    V = np.asarray(vm_pu) * np.exp(1j * np.radians(va_deg))
    S = V * np.conj(admittance_matrix(case) @ V) * case.base_mva
    inj = np.zeros(case.n_bus, dtype=complex)
    for ld in case.loads:
        inj[ld.bus] -= complex(ld.p_mw, ld.q_mvar)
    for g, p, q in zip(case.generators, gen_p_mw, gen_q_mvar):
        inj[g.bus] += complex(p, q)
    return np.max(np.abs(S - inj)) / case.base_mva


def with_line(case, lid, **kw):
    lines = tuple(dataclasses.replace(ln, **kw) if ln.id == lid else ln for ln in case.lines)
    return dataclasses.replace(case, lines=lines)


def scaled_loads(case, factor):
    return case.with_loads(tuple(
        dataclasses.replace(ld, p_mw=factor * ld.p_mw, q_mvar=factor * ld.q_mvar)
        for ld in case.loads
    ))


def pi_model_loadings_mva(case, vm_pu, va_deg):
    """|S| at both ends of every line, written out per line from the pi model."""
    V = np.asarray(vm_pu) * np.exp(1j * np.radians(va_deg))
    out = []
    for ln in case.lines:
        ys = 1.0 / complex(ln.r_pu, ln.x_pu)
        half_b = 1j * ln.b_pu / 2.0
        tap = ln.tap_ratio
        vf, vt = V[ln.from_bus], V[ln.to_bus]
        i_f = (ys + half_b) * vf / (tap * tap) - ys * vt / tap
        i_t = (ys + half_b) * vt - ys * vf / tap
        out.append((ln.id, abs(vf * np.conj(i_f)), abs(vt * np.conj(i_t))))
    return [(lid, sf * case.base_mva, st * case.base_mva) for lid, sf, st in out]


class TestPowerFlow:
    def test_two_bus_no_load_flat(self):
        sol = solve_pf(two_bus_case())
        assert sol.converged
        assert np.allclose(sol.vm_pu, 1.0)
        assert np.allclose(sol.va_deg, 0.0)
        assert abs(sol.gen_p_mw[0]) < 1e-9

    def test_single_bus(self):
        sol = solve_pf(single_bus_case())
        assert sol.converged and sol.iterations == 0

    def test_case9_matches_reference(self, case9, reference_case9):
        sol = solve_pf(case9, tol=1e-8)
        assert sol.converged and sol.iterations <= 10
        ref = reference_case9["pf"]
        assert np.max(np.abs(sol.vm_pu - ref["vm_pu"])) < 1e-6
        assert np.max(np.abs(sol.va_deg - ref["va_deg"])) < 1e-4
        assert np.max(np.abs(sol.gen_p_mw - ref["gen_p_mw"])) < 1e-3
        assert np.max(np.abs(sol.gen_q_mvar - ref["gen_q_mvar"])) < 1e-3

    def test_case30_matches_reference(self, case30, reference_case30):
        sol = solve_pf(case30, tol=1e-8)
        assert sol.converged and sol.iterations <= 10
        ref = reference_case30["pf"]
        assert np.max(np.abs(sol.vm_pu - ref["vm_pu"])) < 1e-6
        assert np.max(np.abs(sol.va_deg - ref["va_deg"])) < 1e-4

    def test_slack_balances_load_and_losses(self, case9):
        sol = solve_pf(case9)
        total_load = sum(ld.p_mw for ld in case9.loads)
        dispatch = sum(g.p_mw for g in case9.nonslack_gens)
        losses = sum(sol.gen_p_mw) - total_load
        assert sol.gen_p_mw[0] == pytest.approx(total_load + losses - dispatch)
        assert 0 < losses < 10  # a few MW of losses on a 315 MW system

    def test_residual_recomputed_independently(self, case9, case30):
        for case in (case9, case30):
            sol = solve_pf(case, tol=1e-10)
            res = pf_residual_pu(case, sol.vm_pu, sol.va_deg, sol.gen_p_mw, sol.gen_q_mvar)
            assert res < 1e-8

    def test_nonconvergence_is_reported_not_raised(self, case9):
        overload = mutate(case9, MutationSpec(0.0, seed=0), 0)
        huge = tuple(
            dataclasses.replace(ld, p_mw=ld.p_mw * 40, q_mvar=ld.q_mvar * 40)
            for ld in case9.loads
        )
        overload = overload.with_loads(huge)
        sol = solve_pf(overload, max_iter=15)
        assert not sol.converged
        assert sol.max_mismatch_pu > 1e-8

    @pytest.mark.parametrize("name, values, want", [
        ("gen_p_mw", [10.0, 20.0], "2 entries, expected 3"),
        ("gen_vm_pu", [1.0] * 4, "4 entries, expected 3"),
    ])
    def test_inputs_of_the_wrong_length_are_refused(self, case9, name, values, want):
        with pytest.raises(ValueError, match=f"{name} has {want}"):
            solve_pf(case9, **{name: values})

    def test_shared_buses_split_q_by_range_and_last_setpoint_wins(self, case9_shared_buses):
        case = case9_shared_buses
        sol = solve_pf(case, tol=1e-10)
        assert sol.converged
        assert pf_residual_pu(case, sol.vm_pu, sol.va_deg, sol.gen_p_mw, sol.gen_q_mvar) < 1e-8
        assert sol.vm_pu[1] == pytest.approx(1.02)  # machine 4, listed after machine 1
        for bus in {g.bus for g in case.generators}:
            idx = [i for i, g in enumerate(case.generators) if g.bus == bus]
            ranges = [case.generators[i].q_max_mvar - case.generators[i].q_min_mvar for i in idx]
            total = sum(sol.gen_q_mvar[i] for i in idx)
            for i, r in zip(idx, ranges):
                assert sol.gen_q_mvar[i] == pytest.approx(total * r / sum(ranges), abs=1e-9)

    def test_line_loadings_match_pi_model_with_taps(self, case30):
        taps = {10: 0.978, 11: 0.969, 14: 0.932, 35: 0.968}  # IEEE 30-bus transformer ratios
        tapped = dataclasses.replace(
            case30,
            lines=tuple(
                dataclasses.replace(ln, tap_ratio=taps.get(ln.id, ln.tap_ratio))
                for ln in case30.lines
            ),
        )
        pf = solve_pf(tapped)
        assert pf.converged
        got = line_loadings_mva(tapped, pf.vm_pu, pf.va_deg)
        want = pi_model_loadings_mva(tapped, pf.vm_pu, pf.va_deg)
        assert [lid for lid, _, _ in got] == [ln.id for ln in tapped.lines]
        np.testing.assert_allclose(
            np.array(got)[:, 1:], np.array(want)[:, 1:], rtol=1e-12, atol=1e-9
        )


class TestOpf:
    def test_single_degree_of_freedom_equals_pf(self):
        case = two_bus_case(p_load_mw=50.0, q_load_mvar=10.0, r=0.02, x=0.1)
        opf = solve_opf(case)
        pf = solve_pf(case)
        assert opf.feasible
        assert opf.slack[1] == pytest.approx(pf.gen_p_mw[0], abs=0.2)
        assert opf.objective_cost == pytest.approx(
            generation_cost(case, [opf.slack[1]]), rel=1e-12
        )

    def test_case9_matches_reference(self, case9, reference_case9):
        sol = solve_opf(case9)
        assert sol.feasible
        ref = reference_case9["opf"]
        assert abs(sol.objective_cost - ref["objective"]) / ref["objective"] < 0.005
        ref_p = {i: p for i, p in enumerate(ref["gen_p_mw"])}
        assert abs(sol.slack[1] - ref_p[0]) < 1.0
        for gid, p, _ in sol.gen:
            assert abs(p - ref_p[gid]) < 1.0

    def test_case30_matches_reference(self, case30, reference_case30):
        sol = solve_opf(case30)
        assert sol.feasible
        ref = reference_case30["opf"]
        assert abs(sol.objective_cost - ref["objective"]) / ref["objective"] < 0.01

    def test_limits_respected(self, case9):
        sol = solve_opf(case9)
        assert sol.feasible
        for b in case9.buses:
            vm = sol.bus[b.id][1]
            assert b.vm_min - 1e-4 <= vm <= b.vm_max + 1e-4
        gens = {g.id: g for g in case9.generators}
        for gid, p, q in list(sol.gen) + [sol.slack]:
            g = gens[gid]
            assert g.p_min_mw - 1e-2 <= p <= g.p_max_mw + 1e-2
            assert g.q_min_mvar - 1e-2 <= q <= g.q_max_mvar + 1e-2
        vm = [v for _, v, _ in sol.bus]
        va = [a for _, _, a in sol.bus]
        for lid, sf, st in line_loadings_mva(case9, vm, va):
            rate = case9.lines[lid].rate_mva
            if rate > 0:
                assert max(sf, st) <= rate + 1e-2

    def test_feedback_pf_reproduces_bus_solution(self, case9):
        sol = solve_opf(case9)
        p = np.zeros(len(case9.generators))
        vm = np.zeros(len(case9.generators))
        sol_p = {gid: pv for gid, pv, _ in list(sol.gen) + [sol.slack]}
        bus_vm = {bid: v for bid, v, _ in sol.bus}
        for i, g in enumerate(case9.generators):
            p[i] = sol_p[g.id]
            vm[i] = bus_vm[g.bus]
        pf = solve_pf(case9, gen_p_mw=p, gen_vm_pu=vm)
        assert pf.converged
        for bid, vm_ref, va_ref in sol.bus:
            assert abs(pf.vm_pu[bid] - vm_ref) < 1e-4
            assert abs(pf.va_deg[bid] - va_ref) < 1e-2

    def test_cost_monotone_in_load(self, case9):
        nominal = solve_opf(case9)
        scaled = case9.with_loads(
            (dataclasses.replace(case9.loads[0], p_mw=case9.loads[0].p_mw * 1.2),)
            + case9.loads[1:]
        )
        heavier = solve_opf(scaled)
        assert heavier.feasible
        assert heavier.objective_cost > nominal.objective_cost

    def test_local_optimality_probe(self, case9):
        """+/- 0.5 MW on any free generator never cuts cost beyond tolerance."""
        sol = solve_opf(case9)
        opt_tol = 1e-4
        base_cost = sol.objective_cost
        gens = list(case9.generators)
        sol_p = {gid: p for gid, p, _ in sol.gen}
        bus_vm = {bid: v for bid, v, _ in sol.bus}
        for probe_gid in sol_p:
            for delta in (+0.5, -0.5):
                p = np.zeros(len(gens))
                vm = np.zeros(len(gens))
                for i, g in enumerate(gens):
                    p[i] = sol_p.get(g.id, 0.0)
                    vm[i] = bus_vm[g.bus]
                    if g.id == probe_gid:
                        p[i] += delta
                        if not g.p_min_mw <= p[i] <= g.p_max_mw:
                            p[i] -= delta
                pf = solve_pf(case9, gen_p_mw=p, gen_vm_pu=vm)
                if not pf.converged:
                    continue
                # feasibility of the probe point
                ok = all(
                    g.q_min_mvar - 1e-2 <= q <= g.q_max_mvar + 1e-2
                    for g, q in zip(gens, pf.gen_q_mvar)
                ) and all(
                    b.vm_min - 1e-4 <= pf.vm_pu[b.id] <= b.vm_max + 1e-4
                    for b in case9.buses
                )
                for lid, sf, st in line_loadings_mva(case9, pf.vm_pu, pf.va_deg):
                    rate = case9.lines[lid].rate_mva
                    if rate > 0 and max(sf, st) > rate + 1e-2:
                        ok = False
                if not ok:
                    continue
                cost = generation_cost(case9, pf.gen_p_mw)
                assert cost >= base_cost - opt_tol * base_cost - 0.5

    def test_infeasible_reports_not_raises(self, case9):
        tight = dataclasses.replace(
            case9,
            generators=tuple(
                dataclasses.replace(g, p_max_mw=40.0, p_mw=min(g.p_mw, 40.0))
                for g in case9.generators
            ),
        )
        sol = solve_opf(tight)  # 315 MW load, 120 MW of capacity
        assert not sol.feasible
        assert sol.max_violation_pu > 1e-4 or sol.message
        assert sol.message.startswith("infeasible: slack gen 0 P max over by")

    def test_other_termination_reasons_lead_the_message(self, case9):
        huge = case9.with_loads(tuple(
            dataclasses.replace(ld, p_mw=ld.p_mw * 40, q_mvar=ld.q_mvar * 40)
            for ld in case9.loads
        ))
        diverged = solve_opf(huge)
        assert not diverged.feasible and diverged.max_violation_pu == float("inf")
        assert diverged.message == "pf_diverged: initial power flow diverged"
        tight = dataclasses.replace(case9, generators=tuple(
            dataclasses.replace(g, p_max_mw=40.0, p_mw=min(g.p_mw, 40.0))
            for g in case9.generators
        ))
        cut = solve_opf(tight, OpfOptions(max_outer=1))  # the cap stops the solve
        assert cut.message.startswith("max_outer: slack gen 0 P max over by")
        prob = _OpfProblem(case9, OpfOptions())
        x = prob.start().x
        x[case9.n_bus : 2 * case9.n_bus] = 0.1  # every |V|: the check's power flow diverges
        final = prob._result(PrimalDual(x), "converged", None)
        assert not final.feasible and final.max_violation_pu == float("inf")
        assert final.message == "pf_diverged: final power flow diverged"

    def test_stopped_solve_within_every_limit_names_the_closest(self, case9):
        """A solve cut while it meets every limit says so, rather than "over by" < 0."""
        cut = solve_opf(case9, OpfOptions(max_outer=1))
        assert not cut.feasible and cut.max_violation_pu < 0
        assert cut.message == (
            f"max_outer: within every limit (closest: bus 5 Vm min, {-cut.max_violation_pu:.2e} pu inside)"
        )

    @pytest.mark.parametrize("max_outer", [0, -1])
    def test_iteration_cap_below_one_is_refused(self, max_outer):
        with pytest.raises(ValueError, match=f"max_outer must be at least 1, got {max_outer}"):
            OpfOptions(max_outer=max_outer)

    @pytest.mark.parametrize("length", [3, 40])
    def test_warm_start_of_the_wrong_length_is_refused(self, case9, length):
        warm = PrimalDual(np.zeros(length))
        with pytest.raises(ValueError, match=f"warm start x has {length} entries, expected 25"):
            solve_opf(case9, OpfOptions(x0=warm))

    def test_solutions_compare_by_value(self, case9):
        assert solve_opf(case9) == solve_opf(case9)

    def test_options_compare_with_warm_start(self):
        assert OpfOptions(x0=PrimalDual(np.zeros(2))) == OpfOptions(x0=PrimalDual(np.zeros(2)))

    @pytest.mark.parametrize("x0", [np.zeros(25), [0.0] * 25, "warm"])
    def test_warm_start_that_is_not_a_primal_dual_is_refused(self, x0):
        with pytest.raises(TypeError, match=f"x0 must be a PrimalDual or None, got {type(x0).__name__}"):
            OpfOptions(x0=x0)

    def test_solve_stats_hold_plain_numbers(self, case9):
        stats = solve_opf(case9).stats
        assert type(stats.iterations) is int and type(stats.evaluations) is int
        assert type(stats.kkt) is float and "np." not in repr(stats)


@pytest.fixture
def case9_shared_buses(case9):
    """case9 plus a dispatchable machine on the slack bus and a second one on bus 1."""
    g0, g1 = case9.generators[0], case9.generators[1]
    extra = (
        dataclasses.replace(g1, id=3, bus=g0.bus, p_mw=20.0, q_min_mvar=-50.0, q_max_mvar=50.0),
        dataclasses.replace(g1, id=4, p_mw=30.0, vm_setpoint_pu=1.02, q_max_mvar=100.0),
    )
    return dataclasses.replace(case9, generators=case9.generators + extra)


def test_reference_script_power_flow_matches_on_shared_buses(case9_shared_buses):
    """scripts/make_reference.py's independent power flow splits a shared bus as solve_pf does."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_reference.py"
    spec = importlib.util.spec_from_file_location("make_reference", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    vm, va, gen_p, gen_q = script.reference_pf(case9_shared_buses)
    pf = solve_pf(case9_shared_buses, tol=1e-12)
    for got, want in ((vm, pf.vm_pu), (va, pf.va_deg), (gen_p, pf.gen_p_mw), (gen_q, pf.gen_q_mvar)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def assert_derivatives_match_central_differences(fun, hess, x, rng):
    """dh, dg and the Hessian of f + lam h + mu g against central differences at x."""
    _, df, h, dh, g, dg = fun(x)
    lam = rng.standard_normal(len(h))
    mu = rng.uniform(0.0, 1.0, len(g))

    def lagrangian_gradient(xk):
        _, df_k, _, dh_k, _, dg_k = fun(xk)
        return df_k + lam @ dh_k + mu @ dg_k

    step = 1e-6
    fd_h, fd_g, fd_hess = np.zeros_like(dh), np.zeros_like(dg), np.zeros((len(x), len(x)))
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = step
        hi, lo = fun(x + e), fun(x - e)
        fd_h[:, k] = (hi[2] - lo[2]) / (2 * step)
        fd_g[:, k] = (hi[4] - lo[4]) / (2 * step)
        fd_hess[:, k] = (lagrangian_gradient(x + e) - lagrangian_gradient(x - e)) / (2 * step)
    assert np.max(np.abs(dh - fd_h)) <= 1e-6 * np.max(np.abs(fd_h))
    assert np.max(np.abs(dg - fd_g)) <= 1e-6 * np.max(np.abs(fd_g))
    assert np.max(np.abs(hess(x, lam, mu) - fd_hess)) <= 1e-6 * np.max(np.abs(fd_hess))


@pytest.fixture
def case9_unrated_line(case9):
    """case9 with line 3 unlimited: its ends enter the bus balance but no limit row."""
    return with_line(case9, 3, rate_mva=0.0)


@pytest.mark.parametrize(
    "case_name", ["case9", "case30", "case9_shared_buses", "case9_unrated_line", "two_bus_tapped"]
)
def test_full_space_derivatives_match_central_differences(case_name, request):
    """dh, dg and the Hessian of f + lam h + mu g against central differences."""
    case = request.getfixturevalue(case_name)
    prob = _OpfProblem(case, OpfOptions())
    rng = np.random.default_rng(0)
    x = prob.start().x + 0.02 * rng.standard_normal(prob.nx)
    assert_derivatives_match_central_differences(prob.fun, prob.hess, x, rng)


@pytest.mark.parametrize("case_name", ["case9", "case30"])
def test_elastic_derivatives_match_central_differences(case_name, request):
    """The elastic s column and (s, x) Hessian terms, at every load x1.5 and t = 0.05
    pu, so that each line row's u = rate + t is not its rating. The last variable is
    taken in pu of t, not s = t / constraint_tol, so its column and the (t, x) Hessian
    terms weigh as much as the others."""
    case = scaled_loads(request.getfixturevalue(case_name), 1.5)
    prob = _OpfProblem(case, OpfOptions())
    scale = np.ones(prob.nx)
    scale[-1] = 1.0 / OpfOptions.constraint_tol  # x = scale * y

    def fun(y):
        f, df, h, dh, g, dg = prob.fun(scale * y)
        return f, df * scale, h, dh * scale, g, dg * scale

    def hess(y, lam, mu):
        return scale[:, None] * prob.hess(scale * y, lam, mu) * scale

    rng = np.random.default_rng(0)
    y = prob.start().x / scale + 0.02 * rng.standard_normal(prob.nx)
    y[-1] = 0.05
    assert_derivatives_match_central_differences(fun, hess, y, rng)


@pytest.fixture
def two_bus_tapped():
    """Two buses joined by a tapped, charged line and a parallel one the other way round,
    both rated."""
    case = two_bus_case(r=0.01, x=0.1, b=0.04)
    tapped = dataclasses.replace(case.lines[0], tap_ratio=0.975, rate_mva=150.0)
    parallel = Line(
        id=1, from_bus=1, to_bus=0, r_pu=0.02, x_pu=0.15, b_pu=0.01, tap_ratio=1.02, rate_mva=90.0
    )
    return dataclasses.replace(case, lines=(tapped, parallel))


@pytest.mark.parametrize("case_name", ["case9", "case30", "case9_shared_buses", "two_bus_tapped"])
def test_admittance_matrix_matches_a_per_line_stamp(case_name, request):
    """Ybus from the vectorized line model agrees with the pi model stamped line by line."""
    case = request.getfixturevalue(case_name)
    want = np.zeros((case.n_bus, case.n_bus), dtype=complex)
    for ln in case.lines:
        ys, bc, tap = 1.0 / complex(ln.r_pu, ln.x_pu), 0.5j * ln.b_pu, ln.tap_ratio
        f, t = ln.from_bus, ln.to_bus
        want[f, f] += (ys + bc) / tap**2
        want[t, t] += ys + bc
        want[f, t] -= ys / tap
        want[t, f] -= ys / tap
    assert np.max(np.abs(admittance_matrix(case) - want)) <= 1e-14 * np.max(np.abs(want))


def matrix_form_ds_dv(Y, C, V):
    """MATPOWER's dSbr_dV of S = (C V) * conj(Y V), with the dense row-to-bus incidence C."""
    Vnorm = V / np.abs(V)
    CV = C @ V
    iC = np.conj(Y @ V)[:, None] * C
    return np.hstack([
        1j * (iC * V - CV[:, None] * np.conj(Y * V)),
        CV[:, None] * np.conj(Y * Vnorm) + iC * Vnorm,
    ])


def matrix_form_d2s_dv2(Y, C, V, lam):
    """MATPOWER's d2Sbr_dV2 of lam @ S, S = (C V) * conj(Y V), with the dense incidence C."""
    n, i = len(V), np.arange(len(V))
    A = np.conj(Y).T @ (lam[:, None] * C)
    B = np.conj(V)[:, None] * A * V
    d = (A @ V) * np.conj(V)
    e = (A.T @ np.conj(V)) * V
    F = B + B.T
    inv_vm = 1.0 / np.abs(V)
    G = B - B.T
    G[i, i] = G[i, i] - d + e
    H = np.empty((2 * n, 2 * n), dtype=complex)
    H[:n, :n], H[n:, n:] = F, inv_vm[:, None] * F * inv_vm
    H[i, i] = F[i, i] - d - e
    H[n:, :n] = 1j * inv_vm[:, None] * G
    H[:n, n:] = H[n:, :n].T
    return H


@pytest.mark.parametrize("case_name", ["case9", "case30", "case9_shared_buses", "two_bus_tapped"])
def test_line_end_derivatives_match_the_incidence_matrix_form(case_name, request):
    """fun's bus and limit Jacobians and hess's voltage block, all summed from per-line-end
    terms, equal MATPOWER's C-matrix forms at random (V, lam, mu) to 1e-12 of the largest entry."""
    case = request.getfixturevalue(case_name)
    prob = _OpfProblem(case, OpfOptions())
    n, ctol = case.n_bus, OpfOptions.constraint_tol
    ends, Ybr = branch_admittances(case)
    rated = np.flatnonzero(np.tile([ln.rate_mva > 0 for ln in case.lines], 2))
    Ylim, Clim = Ybr[rated], np.eye(n)[ends[rated]]
    rate = np.tile([ln.rate_mva for ln in case.lines], 2)[rated] / case.base_mva
    Ybus, nr = admittance_matrix(case), len(rated)
    rng = np.random.default_rng(3)
    for _ in range(50):
        V = rng.uniform(0.9, 1.1, n) * np.exp(1j * rng.uniform(-0.5, 0.5, n))
        x = np.concatenate([np.angle(V), np.abs(V), rng.uniform(0.0, 1.0, prob.nx - 2 * n)])
        _, _, h, dh, g, dg = prob.fun(x)
        lam, mu = rng.standard_normal(len(h)), rng.uniform(0.0, 1.0, len(g))
        dSbus = matrix_form_ds_dv(Ybus, np.eye(n), V)
        Sbr, dSbr = (Clim @ V) * np.conj(Ylim @ V), matrix_form_ds_dv(Ylim, Clim, V)
        m = mu[:nr] / (rate + ctol * x[-1])
        want = {
            "dh": np.vstack([dSbus.real, dSbus.imag]),
            "dg": (np.conj(Sbr)[:, None] * dSbr).real * (m / mu[:nr])[:, None],
            "hess": (
                matrix_form_d2s_dv2(Ybus, np.eye(n), V, lam[:n] - 1j * lam[n : 2 * n])
                + matrix_form_d2s_dv2(Ylim, Clim, V, np.conj(Sbr) * m)
                + dSbr.T @ (m[:, None] * np.conj(dSbr))
            ).real,
        }
        got = {"dh": dh[: 2 * n, : 2 * n], "dg": dg[:nr, : 2 * n]}
        got["hess"] = prob.hess(x, lam, mu)[: 2 * n, : 2 * n]
        for part, value in want.items():
            assert np.max(np.abs(got[part] - value)) <= 1e-12 * np.max(np.abs(value)), part


@pytest.mark.parametrize("case_name", ["case9", "case30", "case9_shared_buses"])
def test_derivatives_follow_the_iterate_and_own_their_arrays(case_name, request):
    """hess(x1) after fun(x2) is the Hessian at x1, and no call rewrites an earlier result."""
    case = request.getfixturevalue(case_name)
    prob = _OpfProblem(case, OpfOptions())
    rng = np.random.default_rng(1)
    x1, x2 = prob.start().x + 0.01 * rng.standard_normal((2, prob.nx))
    first = prob.fun(x1)
    lam = rng.standard_normal(len(first[2]))
    mu = rng.uniform(0.0, 1.0, len(first[4]))
    second = prob.fun(x2)
    hess = prob.hess(x1, lam, mu)
    kept = [np.copy(a) for a in (*first, *second, hess)]
    fresh = _OpfProblem(case, OpfOptions())
    assert np.array_equal(hess, fresh.hess(x1, lam, mu))
    for got, want in zip(first, fresh.fun(x1)):
        assert np.array_equal(got, want)
    prob.hess(x2, lam, mu)
    prob.fun(x1)
    for got, want in zip((*first, *second, hess), kept):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case_name", ["case9", "case30"])
def test_objective_matches_the_independent_reference(case_name, request):
    """The base objective agrees with scripts/make_reference.py to 1e-6 relative."""
    sol = solve_opf(request.getfixturevalue(case_name))
    want = request.getfixturevalue(f"reference_{case_name}")["opf"]["objective"]
    assert sol.feasible
    assert sol.objective_cost == pytest.approx(want, rel=1e-6)


def test_grid_memo_keys_on_everything_but_the_loads(case9):
    """A solve after another grid's equals a solve that starts with the memo empty.

    The key holds external_bus_ids, which GridCase equality ignores but con_names shows.
    """
    def first_solve(case, opts=None):
        solvers._grid_problem.cache_clear()
        return solve_opf(case, opts)

    gens = case9.generators
    heavy = scaled_loads(case9, 2.2)
    variants = [
        (case9, with_line(case9, 6, rate_mva=120.0)),
        (case9, dataclasses.replace(case9, generators=gens[:2] + (
            dataclasses.replace(gens[2], q_max_mvar=-30.0),))),
        (heavy, dataclasses.replace(
            heavy, external_bus_ids=tuple(10 + i for i in case9.external_bus_ids))),
    ]
    for before, case in variants:
        want = first_solve(case)
        solve_opf(before)
        got = solve_opf(case)
        assert got == want  # message included
        assert got != solve_opf(before)  # the changed field shows in the answer
    assert solve_opf(variants[2][1]).message.startswith("infeasible: line 0 (11-14)")

    base = first_solve(case9)
    draw = mutate(case9, MutationSpec(0.2, seed=0), 3)
    after = solve_opf(draw, OpfOptions(x0=base.controls))
    first = first_solve(draw, OpfOptions(x0=base.controls))
    assert after.objective_cost == first.objective_cost
    for part in ("x", "lam", "mu"):  # the whole warm start a draw hands on
        assert np.array_equal(getattr(after.controls, part), getattr(first.controls, part))

    # draws share the memo's arrays, so no solve may write them
    shared = solvers._grid_problem(**{
        f.name: getattr(case9, f.name)
        for f in dataclasses.fields(case9) if f.name not in ("loads", "name")
    })
    for a in vars(shared).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    rejected = solve_opf(heavy)  # one solve, converged at the l-infinity minimum
    assert rejected.message.startswith("infeasible: line 0 (1-4)")
    assert rejected.stats.reason == "converged"
    warm = solve_opf(draw, OpfOptions(x0=base.controls))
    assert solve_pf(draw).converged  # the power flow shares the memo and writes nothing either
    again = solve_opf(draw, OpfOptions(x0=base.controls))
    assert warm == after and again == after
    for part in ("x", "lam", "mu"):
        assert getattr(again.controls, part).tobytes() == getattr(after.controls, part).tobytes()
        assert getattr(warm.controls, part).tobytes() == getattr(after.controls, part).tobytes()
    solvers._grid_problem.cache_clear()


@pytest.fixture(scope="module")
def case30_warm(case30):
    """Options warm-starting mutated case30 solves from the base optimum, as gen does."""
    return OpfOptions(x0=solve_opf(case30).controls)


class TestPhase1:
    """Reject verdicts: the l-infinity elastic minimum an infeasible draw's one solve ends at."""

    spec = MutationSpec(0.2, seed=0)

    def test_infeasible_draw_rejected_without_running_out_the_al(
        self, case30, case30_warm, monkeypatch
    ):
        calls = []
        minimize = solvers.optimize.minimize

        def counting(*args, **kwargs):
            calls.append(kwargs["maxiter"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(solvers.optimize, "minimize", counting)
        sol = solve_opf(mutate(case30, self.spec, 0), case30_warm)
        assert not sol.feasible
        assert sol.message.startswith("infeasible: line 9 (6-8) from-end rating over by")
        assert sol.max_violation_pu > case30_warm.constraint_tol
        assert len(calls) == 1  # one solve
        assert sol.stats.reason == "converged" and sol.stats.kkt < OpfOptions.optimality_tol
        assert sol.stats.iterations < calls[0]

    def test_rejected_violation_does_not_depend_on_the_start(self, case30, case30_warm):
        """A rejected draw reports the elastic minimum, the same from a cold start."""
        for i in (0, 4, 9, 11, 12, 14):
            case = mutate(case30, self.spec, i)
            warm, cold = solve_opf(case, case30_warm), solve_opf(case)
            assert not warm.feasible and not cold.feasible
            assert warm.max_violation_pu == pytest.approx(cold.max_violation_pu, rel=1e-5), i

    def test_feasible_objective_does_not_depend_on_the_start(self, case30, case30_warm):
        for i in (1, 2, 3, 5, 6, 7, 8, 10, 13, 15):
            case = mutate(case30, self.spec, i)
            warm, cold = solve_opf(case, case30_warm), solve_opf(case)
            assert warm.feasible and cold.feasible
            assert warm.objective_cost == pytest.approx(cold.objective_cost, rel=1e-6), i

    def test_case30_rejections_are_pinned(self, case30, case30_warm):
        """Which load patterns enter a case30 dataset does not hang on solver speed-ups."""
        sols = [solve_opf(mutate(case30, self.spec, i), case30_warm) for i in range(16)]
        rejected = [i for i, sol in enumerate(sols) if not sol.feasible]
        assert rejected == [0, 4, 9, 11, 12, 14]
        for i in rejected:
            assert sols[i].message.startswith("infeasible: line 9 (6-8)"), i

    def test_verdict_is_no_larger_than_the_summed_elastic(self, case30, case30_warm):
        """No larger than the worst violation at the minimum of the summed slacks."""
        summed = {0: 2.17e-2, 4: 1.06e-2, 9: 6.95e-4, 11: 1.44e-2, 12: 3.73e-2, 14: 3.07e-3}
        for i, bound in summed.items():
            sol = solve_opf(mutate(case30, self.spec, i), case30_warm)
            assert case30_warm.constraint_tol < sol.max_violation_pu <= bound, i

    def test_hand_checked_verdicts_converge(self, case9):
        """A slack P of at least 10 MW meets a 5 MVA line: the least worst violation
        splits the 5 MW excess evenly; case9 with every load x2.2 gets a verdict too."""
        stranded = solve_opf(with_line(case9, 0, rate_mva=5.0))  # the slack machine's only line
        assert stranded.message.startswith("infeasible: slack gen 0 P min over by 2.50e-02 pu")
        assert stranded.max_violation_pu == pytest.approx(0.025, rel=1e-5)
        heavy = solve_opf(scaled_loads(case9, 2.2))
        assert heavy.stats.reason == "converged" and heavy.stats.kkt < OpfOptions.optimality_tol
        assert heavy.message.startswith("infeasible: line 0 (1-4)")

    def test_no_draw_is_rejected_as_stalled(self, case30, case30_warm):
        """Draws at the edge of feasibility end in a converged solve, warm or cold:
        three are feasible, one is infeasible, with the same answer either way."""
        for seed, i in ((24, 8), (57, 7), (58, 8)):
            case = mutate(case30, MutationSpec(0.2, seed=seed), i)
            warm, cold = solve_opf(case, case30_warm), solve_opf(case)
            assert warm.feasible and cold.feasible, (seed, i, warm.message, cold.message)
            assert warm.objective_cost == pytest.approx(cold.objective_cost, rel=1e-6), (seed, i)
        case = mutate(case30, MutationSpec(0.2, seed=49), 5)
        warm, cold = solve_opf(case, case30_warm), solve_opf(case)
        for sol in (warm, cold):
            assert sol.message.startswith("infeasible: line 9 (6-8)"), sol.message
        assert warm.max_violation_pu == pytest.approx(cold.max_violation_pu, rel=1e-5)


def test_interior_point_iterations_are_bounded(case9, case30, monkeypatch):
    """One interior-point solve per feasible OPF, in a few tens of Newton steps."""
    base9 = solve_opf(case9)
    results = []
    minimize = solvers.optimize.minimize

    def recording(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers.optimize, "minimize", recording)
    solves = [
        (mutate(case9, MutationSpec(0.2, seed=0), 0), OpfOptions(x0=base9.controls), 15),
        (case30, OpfOptions(), 20),  # cold start
    ]
    for case, opts, cap in solves:
        results.clear()
        sol = solve_opf(case, opts)
        assert sol.feasible
        assert len(results) == 1 and results[0].message == "converged"
        assert results[0].nit <= cap
        assert results[0].kkt < OpfOptions.optimality_tol
        assert sol.stats == SolveStats(results[0].nit, results[0].nfev, "converged", results[0].kkt)


def test_warm_multipliers_shorten_draws_and_keep_their_optima(case9):
    """Draws started from the predictor at the base optimum's x and multipliers converge
    in a few steps, to the optimum of the same draws started from x alone."""
    base = solve_opf(case9)
    assert base.controls.lam is not None and base.controls.mu is not None
    primal_only = OpfOptions(x0=dataclasses.replace(base.controls, lam=None, mu=None))
    iterations = []
    for i in range(20):
        draw = mutate(case9, MutationSpec(0.2, seed=0), i)
        warm, primal = solve_opf(draw, OpfOptions(x0=base.controls)), solve_opf(draw, primal_only)
        assert warm.feasible and primal.feasible, i
        assert warm.stats.iterations <= 7 < primal.stats.iterations, i
        assert warm.objective_cost == pytest.approx(primal.objective_cost, rel=1e-6), i
        iterations.append(warm.stats.iterations)
    assert np.mean(iterations) <= 5.0  # 5.6 stepping from the base optimum itself


def test_predicted_starts_do_not_depend_on_the_draw_order(case30):
    """Each draw steps from a predictor built at zero load, not from the first draw's,
    so draws solved in either order give the same answers and hand on the same bytes."""
    warm = OpfOptions(x0=solve_opf(case30).controls)

    def solve_draws(order):
        solvers._grid_problem.cache_clear()
        return {i: solve_opf(mutate(case30, MutationSpec(0.2, seed=0), i), warm) for i in order}

    forward, reverse = solve_draws(range(6)), solve_draws(reversed(range(6)))
    assert [i for i in range(6) if not forward[i].feasible] == [0, 4]
    for i in range(6):
        assert forward[i] == reverse[i] and forward[i].stats == reverse[i].stats, i
        for part in ("x", "lam", "mu"):
            got, want = (getattr(sol[i].controls, part) for sol in (reverse, forward))
            assert (got is None and want is None) or got.tobytes() == want.tobytes(), (i, part)
    solvers._grid_problem.cache_clear()


def test_singular_predictor_starts_from_the_warm_x(case9, monkeypatch):
    """Without a predictor (its Newton matrix singular) a draw starts as from x alone."""
    base = solve_opf(case9)
    primal_only = OpfOptions(x0=dataclasses.replace(base.controls, lam=None, mu=None))
    draw = mutate(case9, MutationSpec(0.2, seed=0), 3)
    want = solve_opf(draw, primal_only)
    solve = np.linalg.solve

    def singular_for_many_columns(a, b):  # only the predictor solves for a matrix b
        if b.ndim == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(solvers.np.linalg, "solve", singular_for_many_columns)
    solvers._grid_problem.cache_clear()
    got = solve_opf(draw, OpfOptions(x0=base.controls))
    solvers._grid_problem.cache_clear()
    assert got.feasible and got == want and got.stats == want.stats
    assert got.controls.x.tobytes() == want.controls.x.tobytes()


def test_constraint_names_follow_g(case30):
    """Each name labels the g entry of its quantity, computed here from a plain PF."""
    prob = _OpfProblem(case30, OpfOptions())
    pf = solve_pf(case30)
    gen_p, gen_vm = prob.controls(prob.start().x)
    assert np.array_equal(gen_p[prob.free] * case30.base_mva, pf.gen_p_mw[prob.free])
    g = prob.power_flow(gen_p, gen_vm, pf.vm_pu * np.exp(1j * np.radians(pf.va_deg)))[2]
    named = dict(zip(prob.con_names, g))
    assert len(named) == len(g) == len(prob.con_names)
    base, ext = case30.base_mva, case30.external_bus_ids
    want = {}
    for gen, p, q in zip(case30.generators, pf.gen_p_mw, pf.gen_q_mvar):
        if gen is case30.slack_gen:
            want[f"slack gen {gen.id} P max"] = (p - gen.p_max_mw) / base
            want[f"slack gen {gen.id} P min"] = (gen.p_min_mw - p) / base
        want[f"gen {gen.id} Q max"] = (q - gen.q_max_mvar) / base
        want[f"gen {gen.id} Q min"] = (gen.q_min_mvar - q) / base
    for b in case30.buses:
        if b.bus_kind == BusKind.PQ:
            want[f"bus {ext[b.id]} Vm max"] = pf.vm_pu[b.id] - b.vm_max
            want[f"bus {ext[b.id]} Vm min"] = b.vm_min - pf.vm_pu[b.id]
    for lid, sf, st in line_loadings_mva(case30, pf.vm_pu, pf.va_deg):
        ln = case30.lines[lid]
        if ln.rate_mva > 0:
            span = f"line {lid} ({ext[ln.from_bus]}-{ext[ln.to_bus]})"
            want[f"{span} from-end rating"] = (sf - ln.rate_mva) / base
            want[f"{span} to-end rating"] = (st - ln.rate_mva) / base
    assert named.keys() == want.keys()
    for name, value in want.items():
        assert named[name] == pytest.approx(value, abs=1e-9), name


@pytest.mark.parametrize("case_name", ["case30", "case9_shared_buses"])
def test_evaluate_checks_the_soft_rows_of_g(request, case_name):
    """At a power-flow point with s = 0, power_flow's g is fun's g at its soft rows, in
    g's order, with each line row as |S| - rate; con_names names each soft row once."""
    prob = _OpfProblem(request.getfixturevalue(case_name), OpfOptions())
    x = prob.start().x
    x[-1] = 0.0
    g = prob.fun(x)[4]
    nf, rate = len(prob.rate), prob.rate
    # fun's line row is (|S|^2 - rate^2) / (2 rate) at s = 0
    over = np.concatenate([np.sqrt(2.0 * rate * g[:nf] + rate**2) - rate, g[nf:]])[prob.soft]
    checked = prob.power_flow(*prob.controls(x), prob.voltages(x))[2]
    assert len(prob.con_names) == prob.soft.sum() == len(checked)
    assert np.max(np.abs(checked - over)) <= 1e-9


@pytest.mark.parametrize("case_name", ["case30", "case9_shared_buses"])
def test_every_bound_row_of_g_follows_the_case(request, case_name):
    """At a random x, each bound row of g, hard rows included, is its x entry less the
    case's own bound (the bound less the entry for a lower one), less constraint_tol * s
    if soft. Hard: non-slack P, the |V| of PV and slack buses, s >= 0; soft: the rest."""
    case = request.getfixturevalue(case_name)
    prob = _OpfProblem(case, OpfOptions())
    n, base, ext = case.n_bus, case.base_mva, case.external_bus_ids
    x = np.random.default_rng(7).uniform(-2.0, 2.0, prob.nx)
    x[-1] = 0.5 + abs(x[-1])  # s > 0, so a soft row shows its relaxation
    g = prob.fun(x)[4]
    rated = 2 * sum(ln.rate_mva > 0 for ln in case.lines)
    # (name, x entry, lower bound, upper bound, soft) of each bounded entry of x, in x order
    entries = [
        (f"bus {ext[b.id]} Vm", x[n + b.id], b.vm_min, b.vm_max, b.bus_kind == BusKind.PQ)
        for b in case.buses
    ]
    for i, gen in enumerate(case.generators):
        slack = gen is case.slack_gen
        name = f"{'slack ' * slack}gen {gen.id} P"
        entries.append((name, x[prob.ip + i], gen.p_min_mw / base, gen.p_max_mw / base, slack))
    for i, gen in enumerate(case.generators):
        q = x[prob.iq + i]
        entries.append((f"gen {gen.id} Q", q, gen.q_min_mvar / base, gen.q_max_mvar / base, True))
    entries.append(("s", x[-1], 0.0, np.inf, False))
    want = [(f"{name} max", v - hi, soft) for name, v, _, hi, soft in entries if hi < np.inf]
    want += [(f"{name} min", lo - v, soft) for name, v, lo, _, soft in entries]
    assert len(g) == rated + len(want)
    assert [(lim.name, lim.soft) for lim in prob.limits[rated:]] == [w[::2] for w in want]
    machine_buses = sum(b.bus_kind != BusKind.PQ for b in case.buses)
    hard = sum(not soft for *_, soft in want)
    assert hard == 2 * (len(case.generators) - 1) + 2 * machine_buses + 1
    relax = OpfOptions.constraint_tol * x[-1]
    for (name, value, soft), row in zip(want, g[rated:]):
        assert row == pytest.approx(value - relax * soft, rel=1e-14, abs=1e-14), name
