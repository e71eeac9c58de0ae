"""Ground-truth solvers: Newton-Raphson AC power flow and AC optimal power flow.

The OPF is solved in the full space of bus voltages (angle, magnitude) and
machine outputs (P, Q) by one dense primal-dual interior-point Newton loop,
MATPOWER's MIPS (Wang, Murillo-Sanchez, Zimmerman & Thomas, IEEE TPWRS 2007),
with exact derivatives (grids in scope have tens of buses). Equalities are the
P and Q balance at every bus, the slack angle and the shared-bus reactive split;
inequalities are the rated line-end flows and the variable bounds. The network
is ``grid_model``'s pi line model: a line end's power depends on the voltages at
its two buses alone, and a bus's injection is its line ends' summed, as in
``admittance_matrix``. So ``line_ends`` takes each end's derivatives in closed
form, a 4-vector and a 4 x 4 block that ``np.bincount`` sums into the Jacobians
and the Hessian, not MATPOWER's bus-wide complex matrices (Zimmerman, Tech. Note 2).

Each row of g is a named limit, an entry of the one list ``_OpfProblem.limits``;
each answer is checked against the soft ones (each rated line end, the bounds of
slack P, every Q and PQ-bus |V|). Every draw is one solve in elastic mode
(SNOPT's, Gill, Murray & Saunders, SIAM Review 2005; Curtis, Math. Prog.
Comp. 2012): one more variable s >= 0 lets every soft row exceed its limit by
t = constraint_tol * s pu, and s joins the scaled cost, a penalty of
1 / constraint_tol per pu of t. A feasible draw ends at s = 0 on the OPF
optimum; an infeasible one at its l-infinity minimum, the smallest worst
excess reachable near the start, with the soft row of largest multiplier
named.

One object, ``_OpfProblem``, is a grid's model (network arrays, bus roles,
bounds, limits), built once per grid and shared by its draws, which bring
only their loads, and by ``solve_pf``; ``validate_case`` has checked its bus
roles, and its slack machine is ``GridCase.slack_gen``. A converged solve
hands on its primal-dual point (``OpfSolution.controls``: x and the
multipliers of h and g). As ``OpfOptions.x0`` it starts a related draw from a
predictor (Fiacco, Math. Programming 1976; Zavala & Biegler, Automatica
2009): loads enter h alone, so the interior-point Newton system at that point
is the same for every draw but for h's P and Q rows, and is solved once per
warm start; a draw's first step is then one product with its loads. The draw
starts at the power flow of the stepped controls and at the stepped
multipliers: about 4.7 iterations per case9 draw and 8.4 per feasible case30
draw, against 5.7 and 10.0 from the warm point itself.

One method, ``_OpfProblem.power_flow``, is the module's one Newton-Raphson power
flow: at given controls (non-slack P, machine |V|) it returns the voltages, x
and, if converged, the soft rows as per-unit excesses. ``solve_pf`` is one call
of it at the case's setpoints or given ones; a solve's start runs it at the
predicted controls (or the setpoints) clipped to their bounds, and its check at
the answer's own controls, whose largest soft row is ``max_violation_pu``. A converged
solve within ``constraint_tol`` there is feasible; any other answer's message
names its reason (``infeasible`` for a converged one, else ``max_outer``,
``stalled`` or ``pf_diverged``) and a soft row, e.g.
``infeasible: line 9 (6-8) from-end rating over by 1.45e-02 pu``.

``_OpfProblem.solve`` calls ``_mips`` through one seam, this module's namespace
``optimize``, whose ``minimize`` is ``_mips`` itself and which solve counters replace:
perfbench's tracer sums each result's ``nit`` and ``nfev``, and two tests count calls.
"""
from __future__ import annotations

import copy
import functools
from collections import namedtuple
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from .grid_model import BusKind, GridCase, admittance_matrix, branch_admittances


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
class SolveStats:
    """One interior-point solve: Newton iterations, evaluations, termination reason and
    the scaled KKT residual of its last iterate (under ``optimality_tol`` if converged)."""
    iterations: int
    evaluations: int
    reason: str  # converged, max_outer or stalled
    kkt: float


@dataclass(frozen=True)
class PrimalDual:
    """A solve's full-space x and, for a converged OPF, the multipliers of h and g."""
    x: np.ndarray
    lam: np.ndarray | None = None
    mu: np.ndarray | None = None


@dataclass(frozen=True)
class OpfSolution:
    gen: tuple[tuple[int, float, float], ...]    # (id, p_mw, q_mvar), non-slack
    slack: tuple[int, float, float]              # (id, p_mw, q_mvar)
    bus: tuple[tuple[int, float, float], ...]    # (id, vm_pu, va_deg)
    objective_cost: float                        # $/h
    feasible: bool
    max_violation_pu: float
    controls: PrimalDual | None = field(default=None, compare=False)  # warm start of related cases
    message: str = ""
    stats: SolveStats | None = field(default=None, compare=False)  # None if never started


@dataclass(frozen=True)
class OpfOptions:
    pf_tol: ClassVar[float] = 1e-8
    pf_max_iter: ClassVar[int] = 50
    optimality_tol: ClassVar[float] = 1e-6  # scaled KKT conditions of the interior-point loop
    constraint_tol: ClassVar[float] = 1e-4  # per-unit
    max_outer: int = 50              # interior-point iterations per solve, at least 1
    x0: PrimalDual | None = field(default=None, compare=False)  # OpfSolution.controls

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")
        if self.x0 is not None and not isinstance(self.x0, PrimalDual):
            raise TypeError(f"x0 must be a PrimalDual or None, got {type(self.x0).__name__}")


def _check_length(name: str, values, want: int):
    """Raise ValueError, naming both lengths, unless values has want entries."""
    if values is not None and len(values) != want:
        raise ValueError(f"{name} has {len(values)} entries, expected {want}")


def solve_pf(
    case: GridCase,
    tol: float = OpfOptions.pf_tol,
    max_iter: int = OpfOptions.pf_max_iter,
    gen_p_mw: np.ndarray | None = None,
    gen_vm_pu: np.ndarray | None = None,
) -> PfSolution:
    """Newton-Raphson power flow from a flat start.

    ``gen_p_mw`` / ``gen_vm_pu`` override the case's generator setpoints, e.g.
    to check a predicted dispatch. Non-convergence is reported in the result,
    not raised; a singular Jacobian raises SolverError.
    """
    for name, values in (("gen_p_mw", gen_p_mw), ("gen_vm_pu", gen_vm_pu)):
        _check_length(name, values, len(case.generators))
    prob, base = _problem(case, OpfOptions()), case.base_mva
    gen_p = prob.gen_p0 if gen_p_mw is None else np.array(gen_p_mw, float) / base
    gen_vm = prob.gen_vm0 if gen_vm_pu is None else np.array(gen_vm_pu, float)
    pf = prob.power_flow(gen_p, gen_vm, None, tol, max_iter)
    return PfSolution(
        vm_pu=np.abs(pf.V), va_deg=np.degrees(np.angle(pf.V)),
        gen_p_mw=pf.x[prob.ip : prob.iq] * base, gen_q_mvar=pf.x[prob.iq : -1] * base,
        converged=pf.converged, iterations=pf.iterations, max_mismatch_pu=float(pf.mismatch),
    )


def generation_cost(case: GridCase, gen_p_mw: np.ndarray) -> float:
    """Total polynomial production cost in $/h."""
    total = 0.0
    for g, p in zip(case.generators, gen_p_mw):
        total += g.cost_c2 * p * p + g.cost_c1 * p + g.cost_c0
    return total


# floor of a start's multipliers mu and slacks z: a converged point's
# inactive mu and active z are near zero, where the Newton steps would stall
_WARM_FLOOR = 1e-4


def _ip_start(g: np.ndarray, mu0: np.ndarray):
    """_mips's start at constraint values g: mu and the slacks z = -g, each no lower
    than ``_WARM_FLOOR``, and the barrier parameter, a tenth of their mean product."""
    mu, z = np.maximum(mu0, _WARM_FLOOR), np.maximum(-g, _WARM_FLOOR)
    return mu, z, 0.1 * (z @ mu) / len(z)


def _newton_system(hess, x, lam, mu, z, gamma, lx, dh, g, dg):
    """_mips's Newton matrix at (x, lam, mu, z) and the x block of its right-hand side,
    lx being the gradient of the Lagrangian; the rest of the right-hand side is h."""
    nx, nh = len(x), len(dh)
    zinv = 1.0 / z
    k = np.zeros((nx + nh, nx + nh))
    np.add(hess(x, lam, mu), dg.T @ ((mu * zinv)[:, None] * dg), out=k[:nx, :nx])
    k[:nx, nx:], k[nx:, :nx] = dh.T, dh
    return k, lx + dg.T @ (zinv * (mu * g + gamma))


def _newton_step(d, x, lam, mu, z, g, dg, gamma):
    """_mips's step along the Newton direction d = (dx, dlam): x and z by the fraction
    to the boundary on z, lam and mu by that on mu. Returns (x, lam, mu, z, fractions)."""
    dx, dlam = d[: len(x)], d[len(x) :]
    dz = -g - z - dg @ dx
    dmu = -mu + (1.0 / z) * (gamma - mu * dz)
    step = (
        min(1.0, 0.99995 * (z[dz < 0] / -dz[dz < 0]).min(initial=np.inf)),
        min(1.0, 0.99995 * (mu[dmu < 0] / -dmu[dmu < 0]).min(initial=np.inf)),
    )
    return x + step[0] * dx, lam + step[1] * dlam, mu + step[1] * dmu, z + step[0] * dz, step


@dataclass(frozen=True)
class _MipsResult:
    """_mips's last iterate, KKT residual, iterations, evaluations and reason."""
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    kkt: float
    nit: int
    nfev: int
    message: str


def _mips(fun, x0, hess, maxiter, tol, lam0, mu0, scaled):
    """MATPOWER's primal-dual interior-point loop (MIPS), dense: ``optimize.minimize``,
    the seam of ``_OpfProblem.solve`` (see the module docstring).

    Minimizes f subject to h(x) = 0 and g(x) <= 0, where ``fun(x)`` returns
    (f, df, h, dh, g, dg) and ``hess(x, lam, mu)`` the Hessian of
    f + lam @ h + mu @ g. Converged when the feasibility, stationarity,
    complementarity and cost-change conditions, each scaled as in MIPS, are
    all under ``tol``, the feasibility and complementarity scales counting only
    the leading ``scaled = (nx, nz)`` entries of x and of the slacks z;
    max_outer is the cap of ``maxiter`` iterations, stalled a step under 1e-8,
    a singular system, a non-finite x or barrier parameter out of range.

    The duals start at ``lam0`` and ``mu0``, e.g. the multipliers of a related
    problem's solution (Yildirim & Wright, SIAM J. Optim. 2002), kept off zero
    by ``_ip_start``.
    """
    def norm(v):
        return np.abs(v).max(initial=0.0)

    x = np.array(x0, dtype=float)
    f, df, h, dh, g, dg = fun(x)
    lam, (mu, z, gamma) = lam0, _ip_start(g, mu0)
    nx, nz = scaled
    f_prev, nit, nfev, step = f, 0, 1, (1.0, 1.0)
    while True:
        lx = df + dh.T @ lam + dg.T @ mu
        kkt = max(
            max(norm(h), g.max(initial=0.0)) / (1.0 + max(norm(x[:nx]), norm(z[:nz]))),
            norm(lx) / (1.0 + max(norm(lam), norm(mu))),
            (z @ mu) / (1.0 + norm(x[:nx])),
            abs(f - f_prev) / (1.0 + abs(f_prev)),
        )
        if kkt < tol:
            message = "converged"
            break
        if nit == maxiter:
            message = "max_outer"
            break
        if min(step) < 1e-8 or not np.isfinite(x).all() or not 1e-16 < gamma < 1e16:
            message = "stalled"
            break
        nit += 1
        k, rx = _newton_system(hess, x, lam, mu, z, gamma, lx, dh, g, dg)
        try:
            d = np.linalg.solve(k, -np.concatenate([rx, h]))
        except np.linalg.LinAlgError:
            message = "stalled"
            break
        x, lam, mu, z, step = _newton_step(d, x, lam, mu, z, g, dg, gamma)
        gamma = 0.1 * (z @ mu) / len(z)
        f_prev = f
        f, df, h, dh, g, dg = fun(x)
        nfev += 1
    return _MipsResult(x, lam, mu, float(kkt), nit, nfev, message)


_Limit = namedtuple("_Limit", "name col sign bound soft")  # a row of g (see _OpfProblem)
_PowerFlow = namedtuple("_PowerFlow", "V x excess converged iterations mismatch")  # of power_flow


optimize = SimpleNamespace(minimize=_mips)  # the seam of _OpfProblem.solve (module docstring)


class _OpfProblem:
    """Full-space OPF in elastic mode over x = (Va, Vm, Pg, Qg, s), per unit,
    angles in radians; every soft row of g may exceed its limit by t = ctol * s pu,
    ctol being ``constraint_tol``, and the objective is the scaled cost plus s.

    h(x) = 0: P balance and Q balance at every bus, the slack angle, then the
    reactive split of every machine but the last on its bus. g(x) <= 0: a row per
    ``limits`` entry, in order: each rated line end's (|S|^2 - u^2) / (2u), u = bound + t,
    smooth where S = 0 (from ends, then to ends), then sign * (x[col] - bound) for each
    finite upper and each finite lower bound, in x order, a soft one less t (s >= 0 last).
    """

    COST_SCALE = 1e-4  # $/h to the interior-point objective, as in MATPOWER
    _at = (None,)  # (x bytes, V, line_ends(V)) of the last iterate; grid alone

    def __init__(self, case: GridCase, opts: OpfOptions):
        self._draw(case, opts)
        self._predicted = [(None, None)]  # (warm start, its _predictor), shared by for_draw
        n = case.n_bus
        self.Y = admittance_matrix(case)
        kinds = [b.bus_kind for b in case.buses]
        self.slack_bus = kinds.index(BusKind.SLACK)
        self.pv = np.array([i for i, k in enumerate(kinds) if k == BusKind.PV], int)
        self.pq = np.array([i for i, k in enumerate(kinds) if k == BusKind.PQ], int)
        self.pvpq = np.concatenate([self.pv, self.pq])
        self.fixed = np.concatenate([[self.slack_bus], self.pv])  # |V| held at a setpoint

        self.gens = gens = case.generators
        ng = len(gens)
        self.gen_bus = np.array([g.bus for g in gens], dtype=int)
        self.slack_i = gens.index(case.slack_gen)  # its P is whatever closes the balance
        self.free = np.delete(np.arange(ng), self.slack_i)
        self.gen_p0 = np.array([g.p_mw for g in gens]) / case.base_mva  # the case's setpoints
        self.gen_vm0 = np.array([g.vm_setpoint_pu for g in gens])
        self.nx, self.ip, self.iq = 2 * n + 2 * ng + 1, 2 * n, 2 * n + ng  # Pg, Qg start at ip, iq

        # bus -> its last machine, whose |V| setpoint wins on a shared bus:
        # fixed bus self.fixed[k] takes that of machine vm_set_gen[k]
        last = {g.bus: i for i, g in enumerate(gens)}
        self.vm_set_gen = np.array([last[b] for b in self.fixed], int)
        # a bus's reactive output splits among its machines in proportion to
        # their reactive range, equally if every range is zero
        q_range = np.array([g.q_max_mvar - g.q_min_mvar for g in gens])
        bus_range = np.bincount(self.gen_bus, q_range, n)[self.gen_bus]
        bus_count = np.bincount(self.gen_bus, minlength=n)[self.gen_bus]
        self.q_weight = np.where(
            bus_range > 0, q_range / np.where(bus_range > 0, bus_range, 1.0), 1.0 / bus_count
        )

        base = case.base_mva
        # every line end, from ends then to ends: its bus a, the far bus b and the two
        # admittances of its row; the limit rows are the rated ones
        a, Ybr = branch_admittances(case)
        b, r = a.reshape(2, -1)[::-1].ravel(), np.arange(len(a))
        self.ends, self.y_aa, self.y_ab = (a, b), Ybr[r, a], Ybr[r, b]
        # an end's columns (Va_a, Va_b, Vm_a, Vm_b), and the flat indices at which
        # np.bincount sums its terms into bus a's P and Q rows of the (2n, 2n) bus
        # Jacobian and into its 4 x 4 block of the (2n, 2n) Hessian
        cols = np.stack([a, b, n + a, n + b], 1)
        self.jac_at = ((a[:, None] + [0, n])[:, :, None] * 2 * n + cols[:, None, :]).ravel()
        self.hess_at = (cols[:, :, None] * 2 * n + cols[:, None, :]).ravel()

        # every machine but the last on its bus takes its q_weight share of the bus's Q
        split = [i for i, g in enumerate(gens) if last[g.bus] != i]
        self.a_eq = np.zeros((1 + len(split), self.nx))
        self.a_eq[0, self.slack_bus] = 1.0
        share = np.eye(ng) - self.q_weight[:, None] * (self.gen_bus[:, None] == self.gen_bus)
        self.a_eq[1:, self.iq : -1] = share[split]

        # the limits, in g's order; box lists x's columns n.. (Va is free) as (name,
        # lower, upper, soft flag), with bus numbers as in the source file
        ext, si = case.external_bus_ids, self.slack_i
        box = [
            (f"bus {ext[b.id]} Vm", b.vm_min, b.vm_max, b.bus_kind == BusKind.PQ)
            for b in case.buses
        ] + [
            (f"{'slack ' * (i == si)}gen {g.id} P", g.p_min_mw / base, g.p_max_mw / base, i == si)
            for i, g in enumerate(gens)
        ] + [(f"gen {g.id} Q", g.q_min_mvar / base, g.q_max_mvar / base, True) for g in gens]
        box += [("s", 0.0, np.inf, False)]
        sides = [(ln, side) for side in ("from", "to") for ln in case.lines]  # every line end
        self.rated = np.flatnonzero([ln.rate_mva > 0 for ln, _ in sides])
        self.limits = [
            _Limit(f"line {ln.id} ({ext[ln.from_bus]}-{ext[ln.to_bus]}) {side}-end rating",
                   None, 1.0, ln.rate_mva / base, True)
            for ln, side in (sides[k] for k in self.rated)
        ] + [
            _Limit(f"{name} {side}", j, sign, bounds[k], soft)
            for k, sign, side in ((1, 1.0, "max"), (0, -1.0, "min"))
            for j, (name, *bounds, soft) in enumerate(box, n) if np.isfinite(bounds[k])
        ]
        self.lb, self.ub = np.array([(-np.inf, np.inf)] * n + [c[1:3] for c in box], float).T
        # g's rows from them; a_bound stays dense: gemv's sum order sets every truth's bits
        nr = len(self.rated)
        _, col, sign, bound, self.soft = map(np.array, zip(*self.limits))
        self.rate, self.b_bound = bound[:nr], sign[nr:] * bound[nr:]
        self.lim_at = np.arange(nr)[:, None], cols[self.rated]  # in dg's limit rows
        self.a_bound = (col[nr:, None] == np.arange(self.nx)) * sign[nr:, None]
        self.a_bound[self.soft[nr:], -1] = -opts.constraint_tol
        self.con_names = [lim.name for lim in self.limits if lim.soft]
        # fun's dh and dg with their constant blocks set; fun fills copies
        self.dh0 = np.vstack([np.zeros((2 * n, self.nx)), self.a_eq])
        self.dh0[np.r_[self.gen_bus, n + self.gen_bus], self.ip + np.arange(2 * ng)] = -1.0
        self.dg0 = np.vstack([np.zeros((nr, self.nx)), self.a_bound])

        self.cost_c2 = np.array([g.cost_c2 for g in gens]) * base * base
        self.cost_c1 = np.array([g.cost_c1 for g in gens]) * base
        self.cost_c0 = sum(g.cost_c0 for g in gens)

    def _draw(self, case: GridCase, opts: OpfOptions):
        """Set case, opts and case's per-unit bus loads as new arrays, writing no shared one."""
        self.case, self.opts = case, opts
        bus = np.array([ld.bus for ld in case.loads], int)
        pq = np.array([[ld.p_mw, ld.q_mvar] for ld in case.loads]).reshape(-1, 2) / case.base_mva
        self.p_load, self.q_load = (np.bincount(bus, w, case.n_bus) for w in pq.T)

    def for_draw(self, case: GridCase, opts: OpfOptions) -> "_OpfProblem":
        """This grid's problem at case's loads and opts; every other array is shared."""
        prob = copy.copy(self)
        prob._draw(case, opts)
        return prob

    def voltages(self, x: np.ndarray) -> np.ndarray:
        n = self.case.n_bus
        return x[n : 2 * n] * np.exp(1j * x[:n])

    def controls(self, x: np.ndarray):
        """Non-slack P (slack entry 0) and |V| per machine: what the reduced PF takes."""
        gen_p = x[self.ip : self.iq].copy()
        gen_p[self.slack_i] = 0.0
        return gen_p, x[self.case.n_bus : self.ip][self.gen_bus]

    def line_ends(self, V: np.ndarray):
        """Each line end's power S = conj(y_aa) |V_a|^2 + T, T = conj(y_ab) V_a conj(V_b),
        a its bus and b the far one; d log T and dS = T d log T + (0, 0, 2 conj(y_aa) |V_a|,
        0) over the end's columns (Va_a, Va_b, Vm_a, Vm_b); and d(P, Q) / d(Va, Vm) of the
        bus injections, (2n, 2n), each bus row its line ends' summed as Ybus sums their
        rows. Returns (S, T, dlogT, dS, that Jacobian)."""
        (a, b), vm, n2 = self.ends, np.abs(V), 2 * len(V)
        T = np.conj(self.y_ab) * V[a] * np.conj(V[b])
        dlogT = np.stack([np.full(len(T), 1j), np.full(len(T), -1j), 1.0 / vm[a], 1.0 / vm[b]], 1)
        dS = T[:, None] * dlogT
        dS[:, 2] += 2.0 * np.conj(self.y_aa) * vm[a]
        jac = np.bincount(self.jac_at, np.stack([dS.real, dS.imag], 1).ravel(), n2 * n2)
        return np.conj(self.y_aa) * vm[a] ** 2 + T, T, dlogT, dS, jac.reshape(n2, n2)

    def fun(self, x: np.ndarray):
        """Scaled cost plus s, h, g and their Jacobians at x: the interior-point callback."""
        n, ctol = self.case.n_bus, self.opts.constraint_tol
        (V, (S_end, _, _, dS, jac)), pg, qg = self._branch(x), x[self.ip : self.iq], x[self.iq : -1]
        f = self.COST_SCALE * (((self.cost_c2 * pg + self.cost_c1) @ pg) + self.cost_c0) + x[-1]
        df = np.zeros(self.nx)
        df[self.ip : self.iq] = self.COST_SCALE * (2.0 * self.cost_c2 * pg + self.cost_c1)
        df[-1] = 1.0

        S = V * np.conj(self.Y @ V) + self.p_load + 1j * self.q_load
        inj = [np.bincount(self.gen_bus, w, n) for w in (pg, qg)]  # machines' output per bus
        h = np.concatenate([S.real - inj[0], S.imag - inj[1], self.a_eq @ x])
        dh = self.dh0.copy()
        dh[: 2 * n, : 2 * n] = jac

        Sbr = S_end[self.rated]
        flow2, u = (Sbr * np.conj(Sbr)).real, self.rate + ctol * x[-1]
        g = np.concatenate([(flow2 - u * u) / (2.0 * u), self.a_bound @ x - self.b_bound])
        dg = self.dg0.copy()
        dg[self.lim_at] = (np.conj(Sbr)[:, None] * dS[self.rated]).real / u[:, None]
        dg[: len(u), -1] = -ctol * (flow2 + u * u) / (2.0 * u * u)
        return f, df, h, dh, g, dg

    def _branch(self, x: np.ndarray):
        """Voltages V and ``line_ends(V)`` at x: computed once per iterate for fun and hess."""
        if self._at[0] != x.tobytes():
            V = self.voltages(x)
            self._at = (x.tobytes(), V, self.line_ends(V))
        return self._at[1:]

    def hess(self, x: np.ndarray, lam: np.ndarray, mu: np.ndarray):
        """Hessian of f + lam @ h + mu @ g (f, h and g as in ``fun``)."""
        n, ctol = self.case.n_bus, self.opts.constraint_tol
        H = np.zeros((self.nx, self.nx))
        p = np.arange(self.ip, self.iq)
        H[p, p] = self.COST_SCALE * 2.0 * self.cost_c2
        S, T, dlogT, dS, _ = self._branch(x)[1]
        u = self.rate + ctol * x[-1]
        m = np.zeros(len(S))
        m[self.rated] = mu[: len(u)] / u  # a line row is |S|^2 / (2u) - u / 2
        # a bus's injection is its line ends' powers summed, so lam @ (P, Q balance)
        # weighs each line end by lam at its bus; a rated one adds its limit row
        w = (lam[:n] - 1j * lam[n : 2 * n])[self.ends[0]] + m * np.conj(S)
        # Re(w d2S) per end, d2T being T (dlogT dlogT^T - diag(0, 0, 1/|V_a|^2, 1/|V_b|^2))
        wT = w * T
        block = (wT[:, None, None] * dlogT[:, :, None] * dlogT[:, None, :]).real
        block[:, [2, 3], [2, 3]] -= wT.real[:, None] * dlogT[:, 2:].real ** 2
        block[:, 2, 2] += 2.0 * (w * np.conj(self.y_aa)).real
        block += m[:, None, None] * (dS[:, :, None] * np.conj(dS[:, None, :])).real
        H[: 2 * n, : 2 * n] = np.bincount(self.hess_at, block.ravel(), 4 * n * n).reshape(2 * n, -1)
        Sbr, k = S[self.rated], m[self.rated] / u
        ds = k[:, None] * (np.conj(Sbr)[:, None] * dS[self.rated]).real  # the (s, x) terms
        H[-1, : 2 * n] = -ctol * np.bincount(self.lim_at[1].ravel(), ds.ravel(), 2 * n)
        H[: 2 * n, -1] = H[-1, : 2 * n]
        H[-1, -1] = ctol * ctol * (k / u) @ (Sbr * np.conj(Sbr)).real
        return H

    def start(self) -> PrimalDual | None:
        """_mips's start, None if its power flow diverges: x is the power flow at the
        controls of the warm start's predicted step (see ``_predictor``), of its x if it
        has no predictor, or of the case's setpoints, clipped to their bounds, with s
        at its worst soft excess (none below 0); the multipliers are the predicted ones,
        else lam = 0 and mu = 1."""
        opts, n = self.opts, self.case.n_bus
        warm, lam, mu = opts.x0, np.zeros(len(self.dh0)), np.ones(len(self.dg0))
        if warm is None:
            gen_p, gen_vm, v0 = self.gen_p0, self.gen_vm0, None
        else:
            x = warm.x
            for part, want in (("x", self.nx), ("lam", len(lam)), ("mu", len(mu))):
                _check_length(f"warm start {part}", getattr(warm, part), want)
            predictor = None if warm.lam is None else self._predictor(warm)
            if predictor is not None:
                d0, dload, mu, z, gamma, g, dg = predictor
                d = d0 + dload @ np.concatenate([self.p_load, self.q_load])
                x, lam, mu, _, _ = _newton_step(d, x, warm.lam, mu, z, g, dg, gamma)
            (gen_p, gen_vm), v0 = self.controls(x), self.voltages(x)
        gen_p = np.clip(gen_p, self.lb[self.ip : self.iq], self.ub[self.ip : self.iq])
        gen_vm = np.clip(gen_vm, self.lb[n + self.gen_bus], self.ub[n + self.gen_bus])
        pf = self.power_flow(gen_p, gen_vm, v0)
        if not pf.converged:
            return None
        x = pf.x
        x[-1] = max(pf.excess.max(), 0.0) / opts.constraint_tol
        # s >= 0's multiplier restarts at a cold share of s's unit cost, which at an
        # l-infinity minimum it splits with the soft rows
        mu[-1] = 1.0 / (self.soft.sum() + 1)
        return PrimalDual(x, lam, mu)

    def _predictor(self, warm: PrimalDual):
        """_mips's first Newton step from warm, as a function of the loads: its
        direction is d0 + dload @ (bus P loads, bus Q loads), taken from (mu, z, gamma)
        at g and dg; None if the Newton matrix is singular. Loads enter h alone, so this
        is built once per warm start, at zero load, and held in a slot that this grid's
        draws share: every draw steps from the same arrays, whichever came first."""
        held = self._predicted[0]
        if held[0] is not warm:
            zero = self.for_draw(self.case.with_loads(()), self.opts)
            _, df, h, dh, g, dg = zero.fun(warm.x)
            mu, z, gamma = _ip_start(g, warm.mu)
            lx = df + dh.T @ warm.lam + dg.T @ mu
            k, rx = _newton_system(zero.hess, warm.x, warm.lam, mu, z, gamma, lx, dh, g, dg)
            n2 = 2 * self.case.n_bus  # h's P and Q rows, where the loads enter
            rhs = np.zeros((len(k), 1 + n2))
            rhs[:, 0] = np.concatenate([rx, h])
            rhs[self.nx + np.arange(n2), 1 + np.arange(n2)] = 1.0
            try:
                d = np.linalg.solve(k, -rhs)
            except np.linalg.LinAlgError:
                held = warm, None
            else:
                held = warm, (d[:, 0], d[:, 1:], mu, z, gamma, g, dg)
            self._predicted[0] = held
        return held[1]

    def power_flow(self, gen_p: np.ndarray, gen_vm: np.ndarray, v0: np.ndarray | None,
                   tol: float = OpfOptions.pf_tol, max_iter: int = OpfOptions.pf_max_iter):
        """The Newton-Raphson power flow at controls (gen_p, gen_vm) from v0, else a flat
        start: its voltages V; its x with s = 0, the slack machine's P closing its bus's
        balance less co-located setpoints and each bus's Q split by ``q_weight``; if it
        converged (largest mismatch within tol in max_iter iterations), the soft rows of g
        there, in ``con_names``'s order, each a per-unit excess (a line row is |S| - rate,
        so one tolerance fits all), else None; then converged, iterations and mismatch."""
        n, pq, pvpq, sb = len(self.Y), self.pq, self.pvpq, self.slack_bus
        rc = np.concatenate([pvpq, n + pq])  # P at pvpq, Q at pq; Va at pvpq, Vm at pq
        vm_fixed = gen_vm[self.vm_set_gen]
        V = np.ones(n, dtype=complex) if v0 is None else v0.copy()
        # pin controlled magnitudes, keep warm-start angles
        V[self.fixed] = vm_fixed * V[self.fixed] / np.abs(V[self.fixed])
        V[sb] = vm_fixed[0]  # slack angle = 0
        sums = np.bincount(self.gen_bus[self.free], gen_p[self.free], n)  # slack's left out
        p_spec, q_spec = sums - self.p_load, -self.q_load

        def mismatch(V):  # S, and the mismatch's largest entry
            S = V * np.conj(self.Y @ V)
            F = np.concatenate([p_spec[pvpq] - S.real[pvpq], q_spec[pq] - S.imag[pq]])
            return S, F, np.abs(F).max(initial=0.0)

        it, (S, F, norm) = 0, mismatch(V)
        while norm > tol and it < max_iter:
            J = self.line_ends(V)[4][rc[:, None], rc]
            try:
                dx = np.linalg.solve(J, F)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular power-flow Jacobian at iteration {it}") from exc
            va, vm = np.angle(V), np.abs(V)
            va[pvpq] += dx[: len(pvpq)]
            vm[pq] += dx[len(pvpq) :]
            V = vm * np.exp(1j * va)
            it, (S, F, norm) = it + 1, mismatch(V)

        p = gen_p.copy()
        p[self.slack_i] = S.real[sb] + self.p_load[sb] - sums[sb]
        q = self.q_weight * (S.imag + self.q_load)[self.gen_bus]
        x = np.concatenate([np.angle(V), np.abs(V), p, q, [0.0]])
        converged = norm <= tol  # False for a NaN mismatch too
        if not converged:  # V may be far off: no line-end flows
            return _PowerFlow(V, x, None, converged, it, norm)
        flow = np.abs(self.line_ends(V)[0][self.rated])
        excess = np.concatenate([flow - self.rate, self.a_bound @ x - self.b_bound])[self.soft]
        return _PowerFlow(V, x, excess, converged, it, norm)

    def solve(self) -> OpfSolution:
        start = self.start()
        if start is None:
            return self._result(None, "pf_diverged: initial power flow diverged", None)
        res = optimize.minimize(
            self.fun, start.x, self.hess, maxiter=self.opts.max_outer,
            tol=self.opts.optimality_tol, lam0=start.lam, mu0=start.mu,
            # not s and its row's slack, last in x and g: at s ~ 50 on a rejected
            # draw they loosened the feasibility test ~20-fold
            scaled=(self.nx - 1, len(self.limits) - 1),
        )
        converged = res.message == "converged"
        point = PrimalDual(res.x, res.lam, res.mu) if converged else PrimalDual(res.x)
        return self._result(point, res.message, SolveStats(res.nit, res.nfev, res.message, res.kkt))

    def _result(
        self, point: PrimalDual | None, reason: str, stats: SolveStats | None
    ) -> OpfSolution:
        """The solution at point.x, checked by an independent power flow at its controls.

        Feasible only when the interior-point loop converged and the power
        flow meets every limit; otherwise the message is the reason, then by
        name a soft row and the largest violation. A converged answer over its
        limits is an l-infinity minimum, where several soft rows tie; it is
        ``infeasible``, naming the row whose multiplier is largest. Any other
        names its most violated row.
        """
        if point is not None:
            pf = self.power_flow(*self.controls(point.x), self.voltages(point.x))
        if point is None or not pf.converged:
            return OpfSolution(
                gen=(), slack=(self.gens[self.slack_i].id, float("nan"), float("nan")),
                bus=(), objective_cost=float("nan"), feasible=False,
                max_violation_pu=float("inf"), controls=point,
                message=reason if point is None else "pf_diverged: final power flow diverged",
                stats=stats,
            )
        V, x, gv = pf.V, pf.x, pf.excess
        base = self.case.base_mva
        p_mw, q_mvar = x[self.ip : self.iq] * base, x[self.iq : -1] * base
        # never empty: the parser refuses Inf, so slack P's bounds are finite soft rows
        viol = float(gv.max())
        converged = reason == "converged"
        feasible = converged and viol <= self.opts.constraint_tol
        worst = int(np.argmax(point.mu[self.soft] if converged else gv))
        reason = "infeasible" if converged else reason
        name = self.con_names[worst]
        where = (  # a stopped solve may meet every limit
            f"{name} over by {viol:.2e} pu" if viol > 0
            else f"within every limit (closest: {name}, {-viol:.2e} pu inside)"
        )
        message = "" if feasible else f"{reason}: {where}"
        gen = tuple((self.gens[i].id, float(p_mw[i]), float(q_mvar[i])) for i in self.free)
        si = self.slack_i
        slack = (self.gens[si].id, float(p_mw[si]), float(q_mvar[si]))
        vm, va = np.abs(V).tolist(), np.degrees(np.angle(V)).tolist()
        bus = tuple((b.id, vm[b.id], va[b.id]) for b in self.case.buses)
        cost = generation_cost(self.case, p_mw)
        return OpfSolution(gen, slack, bus, cost, feasible, viol, point, message, stats)


def line_loadings_mva(case: GridCase, vm_pu, va_deg) -> list[tuple[int, float, float]]:
    """Apparent power at both ends of every line, for limit reporting."""
    V = np.asarray(vm_pu) * np.exp(1j * np.radians(np.asarray(va_deg)))
    ends, Y = branch_admittances(case)
    sf, st = np.split(np.abs(V[ends] * np.conj(Y @ V)) * case.base_mva, 2)
    return [(ln.id, float(a), float(b)) for ln, a, b in zip(case.lines, sf, st)]


def solve_opf(case: GridCase, opts: OpfOptions | None = None) -> OpfSolution:
    """Minimize total generation cost subject to AC physics and limits.

    Infeasibility or non-convergence comes back as ``feasible=False`` with a
    diagnostic message; only a structurally broken problem raises.
    """
    return _problem(case, opts or OpfOptions()).solve()


def _problem(case: GridCase, opts: OpfOptions) -> _OpfProblem:
    """case's problem at its loads and opts, from the memo of its grid."""
    grid = {f.name: getattr(case, f.name) for f in fields(case) if f.name not in ("loads", "name")}
    return _grid_problem(**grid).for_draw(case, opts)


@functools.lru_cache(maxsize=1)
def _grid_problem(**grid) -> _OpfProblem:
    """The zero-load problem of one grid, kept for its next draw or power flow; nothing writes it.

    ``grid`` is every GridCase field but ``loads`` and ``name``: ``external_bus_ids`` too.
    """
    return _OpfProblem(GridCase(name="", loads=(), **grid), OpfOptions())
