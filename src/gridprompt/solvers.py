"""Ground-truth solvers: Newton-Raphson AC power flow and AC optimal power flow.

The OPF works in the reduced space of control variables (non-slack generator
active power and generator-bus voltage setpoints). Every objective/constraint
evaluation runs an inner power flow, so the AC physics holds exactly along the
whole search path; inequality limits are handled with an augmented Lagrangian
and the inner minimization uses L-BFGS-B with exact reduced gradients: one
solve with the power-flow Jacobian at the solution gives the sensitivity of
the state to every control (Dommel & Tinney, 1968), so each evaluation costs
one power flow. That sensitivity dV/dx also warm-starts the next power flow
from the tangent predictor V + dV/dx (x' - x) of continuation power flow
(Ajjarapu & Christy, 1992): under one Newton iteration per power flow on
average. Grids in scope are small (tens of buses), so everything is dense
numpy.

The first time the augmented Lagrangian stalls (its violation fails to drop
to a quarter) with no feasible point found, a phase-1 solve minimizes the
constraint violation alone; if that converges above tolerance, the draw is
rejected there as locally infeasible instead of after ``max_outer`` outer
iterations. An infeasible solution's message starts with its termination
reason (``infeasible``, ``max_outer`` or ``pf_diverged``) and names the worst
constraint, e.g. ``infeasible: line 9 (6-8) from-end rating over by 1.94e-02 pu``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .grid_model import BusKind, GridCase, admittance_matrix


class SolverError(Exception):
    """Numerical failure that is not a plain non-convergence (e.g. singular Jacobian)."""


@dataclass(frozen=True)
class PfSolution:
    vm_pu: np.ndarray          # per bus
    va_deg: np.ndarray         # per bus, slack = 0
    gen_p_mw: np.ndarray       # per generator, case order (slack included)
    gen_q_mvar: np.ndarray
    converged: bool
    iterations: int
    max_mismatch_pu: float


@dataclass(frozen=True)
class OpfSolution:
    gen: tuple[tuple[int, float, float], ...]    # (id, p_mw, q_mvar), non-slack
    slack: tuple[int, float, float]              # (id, p_mw, q_mvar)
    bus: tuple[tuple[int, float, float], ...]    # (id, vm_pu, va_deg)
    objective_cost: float                        # $/h
    feasible: bool
    max_violation_pu: float
    controls: np.ndarray = field(compare=False)  # warm-start vector for related cases
    message: str = ""


@dataclass(frozen=True)
class OpfOptions:
    pf_tol: float = 1e-8
    pf_max_iter: int = 50
    optimality_tol: float = 1e-4     # relative cost
    constraint_tol: float = 1e-4     # per-unit
    penalty_growth: float = 10.0
    max_outer: int = 20
    mu0: float = 10.0
    inner_maxiter: int = 120
    x0: np.ndarray | None = field(default=None, compare=False)  # warm-start controls


class _Network:
    """Precomputed per-unit arrays for one GridCase."""

    def __init__(self, case: GridCase):
        self.case = case
        n = case.n_bus
        self.Y = admittance_matrix(case)
        self.base = case.base_mva
        kinds = [b.bus_kind for b in case.buses]
        self.slack_bus = kinds.index(BusKind.SLACK)
        self.pv = np.array([i for i, k in enumerate(kinds) if k == BusKind.PV], int)
        self.pq = np.array([i for i, k in enumerate(kinds) if k == BusKind.PQ], int)
        self.pvpq = np.concatenate([self.pv, self.pq])
        self.fixed = np.concatenate([[self.slack_bus], self.pv])  # |V| held at a setpoint
        self.n_state = len(self.pvpq) + len(self.pq)

        self.p_load = np.zeros(n)
        self.q_load = np.zeros(n)
        for ld in case.loads:
            self.p_load[ld.bus] += ld.p_mw / self.base
            self.q_load[ld.bus] += ld.q_mvar / self.base

        gens = case.generators
        self.gen_bus = np.array([g.bus for g in gens], dtype=int)
        self.gen_is_slack = np.array([g.is_slack for g in gens], dtype=bool)
        self.vm_min = np.array([b.vm_min for b in case.buses])
        self.vm_max = np.array([b.vm_max for b in case.buses])

        # bus <- machine incidence of active setpoints; the slack machine's
        # output is whatever closes the balance, so its column is zero
        self.gen_p_inc = np.zeros((n, len(gens)))
        self.gen_p_inc[self.gen_bus, np.arange(len(gens))] = ~self.gen_is_slack
        # fixed bus self.fixed[vm_set_pos[k]] takes the |V| setpoint of machine
        # vm_set_gen[k] (last machine wins on shared buses); others stay at 1 pu
        last = {g.bus: i for i, g in enumerate(gens)}
        self.vm_set_pos = np.array([k for k, b in enumerate(self.fixed) if b in last], int)
        self.vm_set_gen = np.array([last[b] for b in self.fixed if b in last], int)
        # a bus's reactive output splits among its machines in proportion to
        # their reactive range, equally if every range is zero
        q_range = np.array([g.q_max_mvar - g.q_min_mvar for g in gens])
        bus_range = np.bincount(self.gen_bus, q_range, n)[self.gen_bus]
        bus_count = np.bincount(self.gen_bus, minlength=n)[self.gen_bus]
        self.q_weight = np.where(
            bus_range > 0, q_range / np.where(bus_range > 0, bus_range, 1.0), 1.0 / bus_count
        )

        rated = [ln for ln in case.lines if ln.rate_mva > 0]
        self.line_id = np.array([ln.id for ln in rated], dtype=int)
        self.line_f, self.line_t, self.Yf, self.Yt = _branch_admittances(case, rated)
        self.rate = np.array([ln.rate_mva for ln in rated]) / self.base

        # Flat positions of the PF Jacobian in the stacked blocks
        # (dS/dVa.real, dS/dVm.real, dS/dVa.imag, dS/dVm.imag), n*n each.
        # Rows: P at pvpq, Q at pq. Columns: Va at pvpq, Vm at pq, then Vm at
        # the fixed buses, which give the sensitivity to the |V| setpoints.
        nn = n * n
        rows = np.concatenate([self.pvpq * n, 2 * nn + self.pq * n])
        cols = np.concatenate([self.pvpq, nn + self.pq, nn + self.fixed])
        self.jac_index = rows[:, None] + cols


def _branch_admittances(case: GridCase, lines):
    """From/to bus indices and the pi-model matrices giving each end's current.

    Row k of ``Yf @ V`` is the current entering ``lines[k]`` at its from bus
    (off-nominal tap on that side), row k of ``Yt @ V`` at its to bus.
    """
    f = np.array([ln.from_bus for ln in lines], dtype=int)
    t = np.array([ln.to_bus for ln in lines], dtype=int)
    ys = 1.0 / np.array([complex(ln.r_pu, ln.x_pu) for ln in lines])
    bc = 0.5j * np.array([ln.b_pu for ln in lines])
    tap = np.array([ln.tap_ratio for ln in lines])
    k = np.arange(len(lines))
    Yf = np.zeros((len(lines), case.n_bus), dtype=complex)
    Yt = np.zeros((len(lines), case.n_bus), dtype=complex)
    Yf[k, f] = (ys + bc) / (tap * tap)
    Yf[k, t] = -ys / tap
    Yt[k, f] = -ys / tap
    Yt[k, t] = ys + bc
    return f, t, Yf, Yt


def _jacobian(net: _Network, V: np.ndarray) -> np.ndarray:
    """PF Jacobian at V plus the |V| columns of the fixed buses (``net.jac_index``).

    MATPOWER's dSbus_dV in polar form, with broadcasting in place of diag().
    """
    Ibus = net.Y @ V
    Vnorm = V / np.abs(V)
    diag = np.arange(len(V))
    dS_dVa = -1j * V[:, None] * np.conj(net.Y * V)
    dS_dVa[diag, diag] += 1j * V * np.conj(Ibus)
    dS_dVm = V[:, None] * np.conj(net.Y * Vnorm)
    dS_dVm[diag, diag] += np.conj(Ibus) * Vnorm
    blocks = np.stack([dS_dVa.real, dS_dVm.real, dS_dVa.imag, dS_dVm.imag])
    return blocks.take(net.jac_index)


def _newton_pf(
    net: _Network,
    gen_p_pu: np.ndarray,
    gen_vm: np.ndarray,
    tol: float,
    max_iter: int,
    v0: np.ndarray | None = None,
):
    """Core NR loop; returns (V complex, converged, iterations, max_mismatch)."""
    n = net.case.n_bus
    vm_fixed = np.ones(len(net.fixed))
    vm_fixed[net.vm_set_pos] = gen_vm[net.vm_set_gen]

    if v0 is not None:
        V = v0.copy()
    else:
        V = np.ones(n, dtype=complex)
    # pin controlled magnitudes, keep warm-start angles
    fixed = net.fixed
    V[fixed] = vm_fixed * V[fixed] / np.abs(V[fixed])
    V[net.slack_bus] = vm_fixed[0]  # slack angle = 0

    p_spec = net.gen_p_inc @ gen_p_pu - net.p_load
    q_spec = -net.q_load

    pv, pq, pvpq = net.pv, net.pq, net.pvpq
    npv, npq = len(pv), len(pq)

    def mismatch(V):
        S = V * np.conj(net.Y @ V)
        dP = p_spec[pvpq] - S.real[pvpq]
        dQ = q_spec[pq] - S.imag[pq]
        return np.concatenate([dP, dQ])

    it = 0
    F = mismatch(V)
    norm = np.max(np.abs(F)) if F.size else 0.0
    while norm > tol and it < max_iter:
        J = _jacobian(net, V)[:, : net.n_state]
        try:
            dx = np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular power-flow Jacobian at iteration {it}") from exc

        va = np.angle(V)
        vm = np.abs(V)
        va[pvpq] += dx[: npv + npq]
        vm[pq] += dx[npv + npq :]
        V = vm * np.exp(1j * va)
        it += 1
        F = mismatch(V)
        norm = np.max(np.abs(F)) if F.size else 0.0

    return V, norm <= tol, it, norm


def _slack_p_pu(net: _Network, S: np.ndarray, gen_p_pu: np.ndarray) -> float:
    """Slack machine output: slack-bus injection S plus load, less co-located setpoints."""
    sb = net.slack_bus
    return S.real[sb] + net.p_load[sb] - net.gen_p_inc[sb] @ gen_p_pu


def _gen_q_pu(net: _Network, S: np.ndarray) -> np.ndarray:
    """Reactive output per machine: each bus's balance split by ``net.q_weight``."""
    return net.q_weight * (S.imag + net.q_load)[net.gen_bus]


def solve_pf(
    case: GridCase,
    tol: float = 1e-8,
    max_iter: int = 50,
    gen_p_mw: np.ndarray | None = None,
    gen_vm_pu: np.ndarray | None = None,
    v0: np.ndarray | None = None,
    net: "_Network | None" = None,
) -> PfSolution:
    """Newton-Raphson power flow from a flat start (or warm start ``v0``).

    ``gen_p_mw`` / ``gen_vm_pu`` override the case's generator setpoints
    (used by the OPF loop). Non-convergence is reported in the result, not
    raised; a singular Jacobian raises SolverError.
    """
    if net is None:
        net = _Network(case)
    gen_p = np.array(
        [g.p_mw for g in case.generators] if gen_p_mw is None else gen_p_mw, float
    ) / net.base
    gen_vm = np.array(
        [g.vm_setpoint_pu for g in case.generators] if gen_vm_pu is None else gen_vm_pu,
        float,
    )
    V, converged, it, norm = _newton_pf(net, gen_p, gen_vm, tol, max_iter, v0)

    S = V * np.conj(net.Y @ V)
    p_out = gen_p * net.base
    p_out[net.gen_is_slack] = _slack_p_pu(net, S, gen_p) * net.base
    q_out = _gen_q_pu(net, S) * net.base
    return PfSolution(
        vm_pu=np.abs(V),
        va_deg=np.degrees(np.angle(V)),
        gen_p_mw=p_out,
        gen_q_mvar=q_out,
        converged=converged,
        iterations=it,
        max_mismatch_pu=float(norm),
    )


def generation_cost(case: GridCase, gen_p_mw: np.ndarray) -> float:
    """Total polynomial production cost in $/h."""
    total = 0.0
    for g, p in zip(case.generators, gen_p_mw):
        total += g.cost_c2 * p * p + g.cost_c1 * p + g.cost_c0
    return total


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a[0], b[0], a[1], b[1], ... (the constraint order)."""
    out = np.empty((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _dabs(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Rows d|z_k|/dx = Re(conj(z_k) dz_k/dx) / |z_k|, 0 where z_k = 0."""
    mag = np.abs(z)
    return (np.conj(z)[:, None] * dz).real / np.where(mag > 0, mag, 1.0)[:, None]


class _OpfProblem:
    """Reduced-space OPF: controls are non-slack gen P (pu) and gen bus Vm."""

    def __init__(self, case: GridCase, opts: OpfOptions):
        self.case = case
        self.opts = opts
        self.net = _Network(case)
        self.gens = case.generators
        self.free = np.array([i for i, g in enumerate(self.gens) if not g.is_slack], int)
        self.slack_i = next(i for i, g in enumerate(self.gens) if g.is_slack)
        self.n_p = len(self.free)
        self.n_v = len(self.gens)
        # last converged (x, V, dV/dx or None); the next PF starts from V + dV (x' - x)
        self._warm: tuple | None = None
        self._pf_fail_streak = 0

        base = self.net.base
        lo = [self.gens[i].p_min_mw / base for i in self.free]
        hi = [self.gens[i].p_max_mw / base for i in self.free]
        for g in self.gens:
            b = case.buses[g.bus]
            lo.append(b.vm_min)
            hi.append(b.vm_max)
        self.bounds = optimize.Bounds(np.array(lo), np.array(hi))

        sg = self.gens[self.slack_i]
        self.slack_p_min, self.slack_p_max = sg.p_min_mw / base, sg.p_max_mw / base
        self.q_min = np.array([g.q_min_mvar for g in self.gens]) / base
        self.q_max = np.array([g.q_max_mvar for g in self.gens]) / base
        self.cost_c2 = np.array([g.cost_c2 for g in self.gens])
        self.cost_c1 = np.array([g.cost_c1 for g in self.gens])
        # a name per entry of g, in evaluate's order; bus numbers as in the source file
        ext = case.external_bus_ids
        self.con_names = [f"slack gen {sg.id} P {lim}" for lim in ("max", "min")]
        self.con_names += [f"gen {g.id} Q {lim}" for g in self.gens for lim in ("max", "min")]
        self.con_names += [f"bus {ext[b]} Vm {lim}" for b in self.net.pq for lim in ("max", "min")]
        self.con_names += [
            f"line {i} ({ext[f]}-{ext[t]}) {end}-end rating"
            for i, f, t in zip(self.net.line_id, self.net.line_f, self.net.line_t)
            for end in ("from", "to")
        ]
        self.n_con = len(self.con_names)

    def x0(self) -> np.ndarray:
        p = [self.gens[i].p_mw / self.net.base for i in self.free]
        vm = [g.vm_setpoint_pu for g in self.gens]
        x = np.array(p + vm)
        return np.clip(x, self.bounds.lb, self.bounds.ub)

    def split(self, x: np.ndarray):
        gen_p = np.zeros(len(self.gens))
        gen_p[self.free] = x[: self.n_p]
        gen_vm = x[self.n_p :]
        return gen_p, gen_vm

    def pf(self, x: np.ndarray):
        """Power flow at controls x, started from the predictor of ``self._warm``."""
        v0 = None
        if self._warm is not None:
            x_w, v0, dV = self._warm
            if dV is not None:
                v0 = v0 + dV @ (x - x_w)
        gen_p, gen_vm = self.split(x)
        V, conv, _, norm = _newton_pf(
            self.net, gen_p, gen_vm, self.opts.pf_tol, self.opts.pf_max_iter, v0
        )
        if conv:
            self._warm = (x.copy(), V, None)
            self._pf_fail_streak = 0
        else:
            self._pf_fail_streak += 1
            if self._pf_fail_streak > 3:
                self._warm = None  # warm start went sour, fall back to flat
        return V, conv, norm

    def sensitivity(self, V: np.ndarray) -> np.ndarray:
        """dV/dx at a power flow solution V (reduced gradient, Dommel & Tinney 1968).

        Differentiating the mismatch spec(x) - S(state, |V_fixed|(x)) = 0 gives
        J dstate/dx = dspec/dx - J_fixed d|V_fixed|/dx: one solve with the PF
        Jacobian and one right-hand side per control.
        """
        net = self.net
        ns, npvpq, n_p = net.n_state, len(net.pvpq), self.n_p
        J = _jacobian(net, V)
        rhs = np.zeros((ns, len(self.bounds.lb)))
        rhs[:npvpq, :n_p] = net.gen_p_inc[np.ix_(net.pvpq, self.free)]
        rhs[:, n_p + net.vm_set_gen] = -J[:, ns + net.vm_set_pos]
        try:
            d = np.linalg.solve(J[:, :ns], rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular power-flow Jacobian at the solution") from exc
        dva = np.zeros((len(V), rhs.shape[1]))
        dvm = np.zeros_like(dva)
        dva[net.pvpq] = d[:npvpq]
        dvm[net.pq] = d[npvpq:]
        dvm[net.fixed[net.vm_set_pos], n_p + net.vm_set_gen] = 1.0
        vm = np.abs(V)
        dV = (dvm + 1j * vm[:, None] * dva) * (V / vm)[:, None]
        if self._warm is not None and self._warm[1] is V:
            self._warm = (self._warm[0], V, dV)  # the tangent for the next pf
        return dV

    def evaluate(self, x: np.ndarray, V: np.ndarray, dV: np.ndarray | None = None):
        """Cost ($/h) and g(x) <= 0 at the power flow solution V of controls x.

        Every g entry is in per-unit so one tolerance fits all. Given
        ``dV = sensitivity(V)``, also returns d(cost)/dx and dg/dx.
        """
        net = self.net
        gen_p, _ = self.split(x)
        Ibus = net.Y @ V
        S = V * np.conj(Ibus)
        sp = _slack_p_pu(net, S, gen_p)
        q = _gen_q_pu(net, S)
        vm = np.abs(V[net.pq])
        If, It = net.Yf @ V, net.Yt @ V
        sf, st = V[net.line_f] * np.conj(If), V[net.line_t] * np.conj(It)

        p_mw = gen_p * net.base
        p_mw[self.slack_i] = sp * net.base
        cost = generation_cost(self.case, p_mw)
        # pairs (upper, lower) for slack P, each machine's Q and each PQ-bus
        # |V|, then (from end, to end) for each rated line
        g = _interleave(
            np.concatenate([[sp - self.slack_p_max], q - self.q_max,
                            vm - net.vm_max[net.pq], np.abs(sf) - net.rate]),
            np.concatenate([[self.slack_p_min - sp], self.q_min - q,
                            net.vm_min[net.pq] - vm, np.abs(st) - net.rate]),
        )
        if dV is None:
            return cost, g

        dS = np.conj(Ibus)[:, None] * dV + V[:, None] * np.conj(net.Y @ dV)
        dsp = dS.real[net.slack_bus].copy()  # a view of dS otherwise
        dsp[: self.n_p] -= net.gen_p_inc[net.slack_bus, self.free]
        dq = net.q_weight[:, None] * dS.imag[net.gen_bus]
        dvm = _dabs(V[net.pq], dV[net.pq])
        dsf = _dabs(sf, np.conj(If)[:, None] * dV[net.line_f]
                    + V[net.line_f, None] * np.conj(net.Yf @ dV))
        dst = _dabs(st, np.conj(It)[:, None] * dV[net.line_t]
                    + V[net.line_t, None] * np.conj(net.Yt @ dV))

        marginal = (2.0 * self.cost_c2 * p_mw + self.cost_c1) * net.base  # $/h per pu
        dcost = marginal[self.slack_i] * dsp
        dcost[: self.n_p] += marginal[self.free]
        dg = _interleave(
            np.concatenate([dsp[None], dq, dvm, dsf]),
            np.concatenate([-dsp[None], -dq, -dvm, dst]),
        )
        return cost, g, dcost, dg

    def solve(self) -> OpfSolution:
        opts = self.opts
        x = opts.x0.copy() if opts.x0 is not None else self.x0()
        x = np.clip(x, self.bounds.lb, self.bounds.ub)

        V0, conv, _ = self.pf(x)
        if not conv:
            self._warm = None
            return self._result(x, None, "pf_diverged: initial power flow diverged")
        f_scale = max(abs(self.evaluate(x, V0)[0]), 1.0)

        lam = np.zeros(self.n_con)
        mu = opts.mu0
        prev_cost = None
        prev_viol = np.inf
        best = (np.inf, x.copy())

        def auglag(xv: np.ndarray) -> tuple[float, np.ndarray]:
            V, conv, norm = self.pf(xv)
            if not conv:  # no gradient without a PF solution; the line search backs off on f
                return 1e3 * (1.0 + norm), np.zeros_like(xv)
            cost, gv, dcost, dg = self.evaluate(xv, V, self.sensitivity(V))
            t = np.maximum(0.0, lam + mu * gv)
            f = cost / f_scale + (np.sum(t * t) - np.sum(lam * lam)) / (2.0 * mu)
            return f, dcost / f_scale + t @ dg

        reason = "max_outer"
        phase1_done = False
        for outer in range(opts.max_outer):
            res = optimize.minimize(
                auglag,
                x,
                method="L-BFGS-B",
                jac=True,
                bounds=self.bounds,
                options={"maxiter": opts.inner_maxiter, "ftol": 1e-10, "gtol": 1e-7},
            )
            x = res.x
            V, conv, _ = self.pf(x)
            if not conv:
                reason = "pf_diverged"
                break
            cost, gv = self.evaluate(x, V)
            viol = float(np.max(gv)) if gv.size else 0.0

            if viol <= opts.constraint_tol and cost < best[0]:
                best = (cost, x.copy())
            done = (
                viol <= opts.constraint_tol
                and prev_cost is not None
                and abs(cost - prev_cost) <= opts.optimality_tol * max(abs(cost), 1.0)
            )
            if done:
                reason = "converged"
                break
            lam = np.maximum(0.0, lam + mu * gv)
            if viol > max(opts.constraint_tol, 0.25 * prev_viol):
                # the AL stalled: once, and only while no feasible point is
                # known, ask whether any nearby point is feasible at all
                if not phase1_done and best[0] == np.inf:
                    phase1_done = True
                    certificate = self._phase1(x, gv)
                    if certificate is not None:
                        return self._result(*certificate, "infeasible")
                mu *= opts.penalty_growth
            prev_cost, prev_viol = cost, viol

        if best[0] < np.inf:
            x = best[1]
        V, conv, _ = self.pf(x)
        if not conv:
            self._warm = None
            V, conv, _ = self.pf(x)
        if not conv:
            return self._result(x, None, "pf_diverged: final power flow diverged")
        return self._result(x, V, reason)

    def _phase1(self, x: np.ndarray, gv: np.ndarray):
        """Feasibility restoration from the AL iterate x, whose constraints are gv.

        Minimizes the violation alone, phi = 1/2 ||max(0, g - tol/2) / tol||^2
        (Waechter & Biegler, Math. Prog. 2006, sec. 3.3). phi is 0 inside the
        tolerance, so L-BFGS-B stops by itself once it finds a feasible point.
        Returns (x, V) where it converged with g still above tolerance, a local
        certificate of infeasibility; None when the verdict is feasible or
        inconclusive. The AL's PF warm-start state is left as it was.
        """
        tol = self.opts.constraint_tol

        def hinge(g):
            return np.maximum(0.0, g - 0.5 * tol) / tol

        h0 = hinge(gv)
        above = 1.0 + 0.5 * (h0 @ h0)  # phi never rises above its start value

        def phi(xv: np.ndarray) -> tuple[float, np.ndarray]:
            V, conv, norm = self.pf(xv)
            if not conv:  # as in auglag: no gradient, the line search backs off on f
                return above + norm, np.zeros_like(xv)
            _, g, _, dg = self.evaluate(xv, V, self.sensitivity(V))
            h = hinge(g)
            return 0.5 * (h @ h), (h / tol) @ dg

        saved = self._warm, self._pf_fail_streak
        res = optimize.minimize(
            phi,
            x,
            method="L-BFGS-B",
            jac=True,
            bounds=self.bounds,
            # converged verdicts on case30 took 91-275 iterations
            options={"maxiter": 4 * self.opts.inner_maxiter, "ftol": 1e-10, "gtol": 1e-7},
        )
        V, conv, _ = self.pf(res.x)
        self._warm, self._pf_fail_streak = saved
        if res.status == 0 and conv and np.max(self.evaluate(res.x, V)[1]) > tol:
            return res.x, V
        return None

    def _result(self, x, V, reason: str) -> OpfSolution:
        """The solution at controls x with power flow V (None: it diverged).

        An infeasible solution's message is the termination reason, then the
        worst constraint by name; a feasible one's is empty unless the loop
        stopped before the cost settled.
        """
        net = self.net
        if V is None:
            return OpfSolution(
                gen=(), slack=(self.gens[self.slack_i].id, float("nan"), float("nan")),
                bus=(), objective_cost=float("nan"), feasible=False,
                max_violation_pu=float("inf"), controls=x, message=reason,
            )
        gen_p, _ = self.split(x)
        S = V * np.conj(net.Y @ V)
        p_mw = gen_p * net.base
        p_mw[self.slack_i] = _slack_p_pu(net, S, gen_p) * net.base
        q_mvar = _gen_q_pu(net, S) * net.base
        cost, gv = self.evaluate(x, V)
        worst = int(np.argmax(gv))  # g always holds the slack P pair
        viol = float(gv[worst])
        feasible = viol <= self.opts.constraint_tol
        if feasible:
            message = "" if reason == "converged" else reason
        else:
            message = f"{reason}: {self.con_names[worst]} over by {viol:.2e} pu"
        gen = tuple(
            (self.gens[i].id, float(p_mw[i]), float(q_mvar[i])) for i in self.free
        )
        slack = (
            self.gens[self.slack_i].id,
            float(p_mw[self.slack_i]),
            float(q_mvar[self.slack_i]),
        )
        bus = tuple(
            (b.id, float(np.abs(V[b.id])), float(np.degrees(np.angle(V[b.id]))))
            for b in self.case.buses
        )
        return OpfSolution(
            gen=gen,
            slack=slack,
            bus=bus,
            objective_cost=cost,
            feasible=feasible,
            max_violation_pu=viol,
            controls=x.copy(),
            message=message,
        )


def line_loadings_mva(case: GridCase, vm_pu, va_deg) -> list[tuple[int, float, float]]:
    """Apparent power at both ends of every line, for limit reporting."""
    V = np.asarray(vm_pu) * np.exp(1j * np.radians(np.asarray(va_deg)))
    f, t, Yf, Yt = _branch_admittances(case, case.lines)
    sf = np.abs(V[f] * np.conj(Yf @ V)) * case.base_mva
    st = np.abs(V[t] * np.conj(Yt @ V)) * case.base_mva
    return [(ln.id, float(a), float(b)) for ln, a, b in zip(case.lines, sf, st)]


def solve_opf(case: GridCase, opts: OpfOptions | None = None) -> OpfSolution:
    """Minimize total generation cost subject to AC physics and limits.

    Infeasibility or non-convergence comes back as ``feasible=False`` with a
    diagnostic message; only a structurally broken problem raises.
    """
    if not case.generators:
        raise SolverError("case has no generators")
    return _OpfProblem(case, opts or OpfOptions()).solve()
