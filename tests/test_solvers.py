import dataclasses

import numpy as np
import pytest

from gridprompt import solvers
from gridprompt.grid_model import BusKind, admittance_matrix
from gridprompt.scenario_gen import MutationSpec, mutate
from gridprompt.solvers import (
    OpfOptions,
    _newton_pf,
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

    def test_warm_start_converges_faster(self, case9):
        cold = solve_pf(case9)
        V = cold.vm_pu * np.exp(1j * np.radians(cold.va_deg))
        warm = solve_pf(case9, v0=V)
        assert warm.converged
        assert warm.iterations <= 1

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
        cut = solve_opf(tight, OpfOptions(max_outer=1))  # no stall seen, so no phase-1
        assert cut.message.startswith("max_outer: slack gen 0 P max over by")

    def test_solutions_compare_by_value(self, case9):
        assert solve_opf(case9) == solve_opf(case9)

    def test_options_compare_with_warm_start(self):
        assert OpfOptions(x0=np.zeros(2)) == OpfOptions(x0=np.zeros(2))


@pytest.fixture
def case9_shared_buses(case9):
    """case9 plus a dispatchable machine on the slack bus and a second one on bus 1."""
    g0, g1 = case9.generators[0], case9.generators[1]
    extra = (
        dataclasses.replace(g1, id=3, bus=g0.bus, p_mw=20.0, q_min_mvar=-50.0, q_max_mvar=50.0),
        dataclasses.replace(g1, id=4, p_mw=30.0, vm_setpoint_pu=1.02, q_max_mvar=100.0),
    )
    return dataclasses.replace(case9, generators=case9.generators + extra)


@pytest.mark.parametrize("case_name", ["case9", "case30", "case9_shared_buses"])
def test_exact_gradients_match_central_differences(case_name, request):
    """Reduced-space d(cost)/dx and dg/dx against central differences of tight PFs."""
    case = request.getfixturevalue(case_name)
    prob = _OpfProblem(case, OpfOptions(pf_tol=1e-12))
    lb, ub = prob.bounds.lb, prob.bounds.ub
    rng = np.random.default_rng(0)
    x = np.clip(prob.x0() + 0.02 * rng.standard_normal(len(lb)), lb, ub)
    V, conv, _ = prob.pf(x)
    assert conv
    cost, g, dcost, dg = prob.evaluate(x, V, prob.sensitivity(V))

    def at(xk):
        Vk, ok, _, _ = _newton_pf(prob.net, *prob.split(xk), 1e-12, 50, V)
        assert ok
        return prob.evaluate(xk, Vk)

    h = 1e-6
    fd_cost = np.zeros_like(dcost)
    fd_g = np.zeros_like(dg)
    for k in range(len(x)):
        step = np.zeros_like(x)
        step[k] = h
        (c_hi, g_hi), (c_lo, g_lo) = at(x + step), at(x - step)
        fd_cost[k] = (c_hi - c_lo) / (2 * h)
        fd_g[:, k] = (g_hi - g_lo) / (2 * h)
    assert np.max(np.abs(dcost - fd_cost)) <= 1e-6 * np.max(np.abs(fd_cost))
    assert np.max(np.abs(dg - fd_g)) <= 1e-6


@pytest.fixture(scope="module")
def case30_warm(case30):
    """Options warm-starting mutated case30 solves from the base optimum, as gen does."""
    return OpfOptions(x0=solve_opf(case30).controls)


class TestPhase1:
    spec = MutationSpec(0.2, seed=0)

    def test_infeasible_draw_rejected_without_running_out_the_al(
        self, case30, case30_warm, monkeypatch
    ):
        calls = []
        minimize = solvers.optimize.minimize

        def counting(*args, **kwargs):
            calls.append(kwargs["options"]["maxiter"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(solvers.optimize, "minimize", counting)
        sol = solve_opf(mutate(case30, self.spec, 0), case30_warm)
        assert not sol.feasible
        assert sol.message.startswith("infeasible: line 9 (6-8) from-end rating over by")
        assert sol.max_violation_pu > case30_warm.constraint_tol
        assert len(calls) < 5  # max_outer is 20

    @pytest.mark.parametrize(
        "index, cost",  # objectives of the same AL without a phase-1 step
        [(3, 598.2013507234817), (6, 532.0421132479913), (8, 579.0822134039978)],
        ids=["3", "6", "8"],  # stable names when the digits are re-derived
    )
    def test_feasible_verdict_leaves_the_al_path_unchanged(
        self, case30, case30_warm, monkeypatch, index, cost
    ):
        verdicts = []
        phase1 = _OpfProblem._phase1

        def recording(prob, *args):
            verdicts.append(phase1(prob, *args))
            return verdicts[-1]

        monkeypatch.setattr(_OpfProblem, "_phase1", recording)
        sol = solve_opf(mutate(case30, self.spec, index), case30_warm)
        assert verdicts == [None]
        assert sol.feasible and sol.message == ""
        assert sol.objective_cost == pytest.approx(cost, rel=1e-12)

    def test_case30_rejections_are_pinned(self, case30, case30_warm):
        """Which load patterns enter a case30 dataset does not hang on solver speed-ups."""
        sols = [solve_opf(mutate(case30, self.spec, i), case30_warm) for i in range(16)]
        rejected = [i for i, sol in enumerate(sols) if not sol.feasible]
        assert rejected == [0, 4, 9, 11, 12, 14]
        for i in rejected:
            assert sols[i].message.startswith("infeasible: line 9 (6-8)"), i


def test_power_flows_start_from_the_tangent_predictor(case9, case30, monkeypatch):
    """Each OPF power flow starts from V + dV/dx (x - x_last): under one NR iteration per PF."""
    base9 = solve_opf(case9)
    iterations = []
    newton_pf = solvers._newton_pf

    def counting(*args):
        out = newton_pf(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(solvers, "_newton_pf", counting)
    solves = [
        (mutate(case9, MutationSpec(0.2, seed=0), 0), OpfOptions(x0=base9.controls)),
        (case30, OpfOptions()),  # cold start
    ]
    for case, opts in solves:
        iterations.clear()
        assert solve_opf(case, opts).feasible
        assert np.mean(iterations) <= 1.0  # 1.53 and 1.67 from the last solution alone


def test_constraint_names_follow_g(case30):
    """Each name labels the g entry of its quantity, computed here from a plain PF."""
    prob = _OpfProblem(case30, OpfOptions())
    pf = solve_pf(case30)
    x = prob.x0()
    assert np.array_equal(prob.split(x)[0][prob.free] * case30.base_mva,
                          pf.gen_p_mw[prob.free])
    _, g = prob.evaluate(x, pf.vm_pu * np.exp(1j * np.radians(pf.va_deg)))
    named = dict(zip(prob.con_names, g))
    assert len(named) == len(g) == prob.n_con
    base, ext = case30.base_mva, case30.external_bus_ids
    want = {}
    for gen, p, q in zip(case30.generators, pf.gen_p_mw, pf.gen_q_mvar):
        if gen.is_slack:
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
