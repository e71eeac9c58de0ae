"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS line with the measured
numbers once its assertions hold, so a -s run reads as a checklist.
"""
import json
import time

import numpy as np
import pytest

from gridprompt.dataset_export import export_finetune_jsonl, load_solved_dataset
from gridprompt.embedding import (
    EmbeddingFormat,
    embed_grid,
    encode_solution,
    parse_grid,
)
from gridprompt.evaluation import run_benchmark
from gridprompt.grid_model import from_hetero, to_hetero
from gridprompt.llm_protocol import (
    SYSTEM_PROMPT,
    FixedBackend,
    build_sequence,
    replay_backend,
    validate_sequence,
)
from gridprompt.matpower_io import load_case, parse_matpower, write_matpower
from gridprompt.scenario_gen import MutationSpec, generate_dataset, mutate
from gridprompt.solvers import (
    generation_cost,
    line_loadings_mva,
    solve_opf,
    solve_pf,
)

from conftest import CASES_DIR

REFERENCE_SYSTEM_PROMPT = (
    "You are a power grid operator running an Optimal Power Flow simulation, "
    "and you need to return a JSON-formatted response based on the provided "
    "input JSON. The input is the description of the components of the grid, "
    "including the buses, generators, loads, lines, and external grid. The "
    "output is the solution to the optimal power flow problem. You will get a "
    "few examples of Input and Output JSON. You need to return the correct "
    "Output for the last given Input."
)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


@pytest.fixture(scope="module")
def scale_dataset(tmp_path_factory):
    """660-entry solved dataset built through the CLI; build time recorded."""
    from gridprompt.cli import main

    out = tmp_path_factory.mktemp("scale") / "ds660"
    t0 = time.perf_counter()
    code = main(["gen", str(CASES_DIR / "case9.m"), "--n", "660", "--seed", "0",
                 "--format", "table", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return out, elapsed


def test_criterion_1_matpower_fixtures(case9, case30):
    t0 = time.perf_counter()
    assert (case9.n_bus, len(case9.generators), len(case9.lines)) == (9, 3, 9)
    assert case9.base_mva == 100.0
    assert (case30.n_bus, len(case30.lines)) == (30, 41)
    for case in (case9, case30):
        text = write_matpower(case)
        assert write_matpower(parse_matpower(text)) == text
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"case9 9/3/9, case30 30/41, byte-stable round trip, {elapsed:.2f}s")


def test_criterion_2_power_flow(case9, case30, reference_case9, reference_case30):
    t0 = time.perf_counter()
    for case, ref in ((case9, reference_case9), (case30, reference_case30)):
        sol = solve_pf(case, tol=1e-8)
        assert sol.converged and sol.iterations <= 10
        assert np.max(np.abs(sol.vm_pu - np.array(ref["pf"]["vm_pu"]))) < 1e-6
        assert np.max(np.abs(sol.va_deg - np.array(ref["pf"]["va_deg"]))) < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"case9/case30 converge <= 10 iters, vm/va within 1e-6/1e-4, {elapsed:.2f}s")


def test_criterion_3_opf(case9, case30, reference_case9, reference_case30):
    t0 = time.perf_counter()
    details = []
    for case, ref, rel_tol in (
        (case9, reference_case9, 0.005), (case30, reference_case30, 0.010),
    ):
        sol = solve_opf(case)
        assert sol.feasible
        gap = abs(sol.objective_cost - ref["opf"]["objective"]) / ref["opf"]["objective"]
        assert gap <= rel_tol
        assert sol.max_violation_pu <= 1e-4
        pf = _redispatch(case, sol)
        for g, q in zip(case.generators, pf.gen_q_mvar):
            assert g.q_min_mvar - 1e-2 <= q <= g.q_max_mvar + 1e-2
        for b in case.buses:
            assert b.vm_min - 1e-4 <= pf.vm_pu[b.id] <= b.vm_max + 1e-4
        for lid, sf, st in line_loadings_mva(case, pf.vm_pu, pf.va_deg):
            rate = case.lines[lid].rate_mva
            assert rate <= 0 or max(sf, st) <= rate + 1e-2
        _probe_local_optimality(case, sol)
        details.append(f"{case.name} gap {gap * 100:.3f}%")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"{', '.join(details)}, probes found no improvement, {elapsed:.1f}s")


def _redispatch(case, sol):
    """Plain power flow at the OPF operating point."""
    p = np.zeros(len(case.generators))
    vm = np.zeros(len(case.generators))
    sol_p = {gid: pg for gid, pg, _ in sol.gen}
    bus_vm = {bid: v for bid, v, _ in sol.bus}
    for i, g in enumerate(case.generators):
        p[i] = sol_p.get(g.id, 0.0)
        vm[i] = bus_vm[g.bus]
    pf = solve_pf(case, gen_p_mw=p, gen_vm_pu=vm)
    assert pf.converged
    return pf


def _probe_local_optimality(case, sol, delta_mw=0.5):
    base_cost = sol.objective_cost
    sol_p = {gid: pg for gid, pg, _ in sol.gen}
    bus_vm = {bid: v for bid, v, _ in sol.bus}
    for probe_gid in sol_p:
        for delta in (+delta_mw, -delta_mw):
            p = np.zeros(len(case.generators))
            vm = np.zeros(len(case.generators))
            for i, g in enumerate(case.generators):
                p[i] = sol_p.get(g.id, 0.0)
                vm[i] = bus_vm[g.bus]
                if g.id == probe_gid:
                    moved = p[i] + delta
                    if g.p_min_mw <= moved <= g.p_max_mw:
                        p[i] = moved
            pf = solve_pf(case, gen_p_mw=p, gen_vm_pu=vm)
            if not pf.converged or not _probe_feasible(case, pf):
                continue
            cost = generation_cost(case, pf.gen_p_mw)
            assert cost >= base_cost - 1e-4 * base_cost - delta_mw


def _probe_feasible(case, pf):
    for g, q in zip(case.generators, pf.gen_q_mvar):
        if not g.q_min_mvar - 1e-2 <= q <= g.q_max_mvar + 1e-2:
            return False
    for b in case.buses:
        if not b.vm_min - 1e-4 <= pf.vm_pu[b.id] <= b.vm_max + 1e-4:
            return False
    for lid, sf, st in line_loadings_mva(case, pf.vm_pu, pf.va_deg):
        rate = case.lines[lid].rate_mva
        if rate > 0 and max(sf, st) > rate + 1e-2:
            return False
    return True


def test_criterion_4_mutation_statistics(case9):
    t0 = time.perf_counter()
    spec = MutationSpec(relative_halfwidth=0.2, seed=123)
    n = 10_000
    sums_p = np.zeros(len(case9.loads))
    sums_q = np.zeros(len(case9.loads))
    for scenario in generate_dataset(case9, spec, n):
        for j, (base, load) in enumerate(zip(case9.loads, scenario.loads)):
            assert 0.8 * base.p_mw <= load.p_mw <= 1.2 * base.p_mw
            assert 0.8 * base.q_mvar <= load.q_mvar <= 1.2 * base.q_mvar
            sums_p[j] += load.p_mw
            sums_q[j] += load.q_mvar
    for j, base in enumerate(case9.loads):
        assert abs(sums_p[j] / n - base.p_mw) <= 0.01 * base.p_mw
        assert abs(sums_q[j] / n - base.q_mvar) <= 0.01 * base.q_mvar
    for i in (0, 137, n - 1):
        assert write_matpower(mutate(case9, spec, i)) == write_matpower(
            mutate(case9, spec, i)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"10,000 mutations in bounds, means within 1%, deterministic, {elapsed:.2f}s")


def test_criterion_5_embedding_round_trips(case9, case30):
    t0 = time.perf_counter()
    spec = MutationSpec(relative_halfwidth=0.2, seed=9)
    cases = [case9, case30] + [mutate(case9, spec, i) for i in range(100)]
    for case in cases:
        hg = to_hetero(case)
        graph_text = embed_grid(hg, EmbeddingFormat("graph"))
        table_text = embed_grid(hg, EmbeddingFormat("table"))
        # round trip is idempotent at the text level for any case ...
        assert embed_grid(parse_grid(graph_text), EmbeddingFormat("graph")) == graph_text
        assert embed_grid(parse_grid(table_text), EmbeddingFormat("table")) == table_text
        assert len(table_text) < len(graph_text)
    # ... and field-exact where every value fits in 4 decimals
    t9 = embed_grid(to_hetero(case9), EmbeddingFormat("graph"))
    assert from_hetero(parse_grid(t9)) == case9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f"{len(cases)} cases round-trip both forms, table always shorter, {elapsed:.2f}s")


def test_criterion_6_protocol_structure(scale_dataset):
    root, _ = scale_dataset
    ds = load_solved_dataset(root)
    pairs = [(e.grid_text, e.solution_text) for e in ds.entries[:65]]
    seq = build_sequence(pairs, ds.entries[65].grid_text)
    assert len(seq.messages) == 132
    assert seq.messages[0].content == REFERENCE_SYSTEM_PROMPT
    validate_sequence(seq)

    jsonl = export_finetune_jsonl(ds)
    lines = jsonl.read_text().splitlines()
    assert len(lines) == len(ds)
    for line in lines:
        doc = json.loads(line)
        assert doc["messages"][0]["content"] == SYSTEM_PROMPT
    report(6, f"65-pair sequence is 132 messages, {len(lines)} training lines parse")


def test_criterion_7_metric_path(scale_dataset, case9):
    root, _ = scale_dataset
    ds = load_solved_dataset(root)
    t0 = time.perf_counter()

    oracle, _ = run_benchmark(
        ds.entries, replay_backend("oracle", ds.truth_map()),
        trials=100, context_size=5, seed=1,
    )
    assert oracle.valid_fraction == 1.0
    assert oracle.mean_mse_gen <= 1e-12
    assert oracle.mean_mse_slack <= 1e-12
    assert oracle.mean_mse_bus <= 1e-12

    corrupt, _ = run_benchmark(
        ds.entries, replay_backend("corrupt"), trials=100, context_size=5, seed=1,
    )
    assert corrupt.valid_fraction == 0.0

    nearest, _ = run_benchmark(
        ds.entries, replay_backend("nearest_context"),
        trials=10, context_size=65, seed=1,
    )
    nominal = FixedBackend(encode_solution(solve_opf(case9), decimals=12))
    baseline, _ = run_benchmark(
        ds.entries, nominal, trials=10, context_size=65, seed=1,
    )
    assert nearest.valid_fraction == 1.0
    assert np.isfinite(nearest.mean_mse_gen) and nearest.mean_mse_gen > 0
    assert nearest.mean_mse_gen < baseline.mean_mse_gen

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        7,
        "oracle 100/100 valid mse<=1e-12, corrupt 0/100, nearest "
        f"{nearest.mean_mse_gen:.2e} < nominal {baseline.mean_mse_gen:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_networking():
    import threading
    from http.server import HTTPServer

    from test_http_client import MockHandler

    from gridprompt.llm_protocol import (
        AuthError,
        EndpointConfig,
        TransportError,
        complete,
    )

    t0 = time.perf_counter()
    MockHandler.script = []
    MockHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), MockHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    cfg = EndpointConfig(
        base_url=f"http://127.0.0.1:{server.server_port}", model="mock",
        max_retries=3, timeout_s=5.0, backoff_base_s=0.01,
    )
    try:
        seq = build_sequence([("g", "s")], "q")
        assert complete(seq, cfg) == "mock reply"

        MockHandler.script = ["429", "429", "ok"]
        MockHandler.requests_seen = []
        assert complete(seq, cfg) == "mock reply"
        assert len(MockHandler.requests_seen) == 3

        MockHandler.script = ["500"] * 10
        MockHandler.requests_seen = []
        with pytest.raises(TransportError):
            complete(seq, cfg)
        assert len(MockHandler.requests_seen) == 4

        MockHandler.script = ["401"]
        MockHandler.requests_seen = []
        with pytest.raises(AuthError):
            complete(seq, cfg)
        assert len(MockHandler.requests_seen) == 1
    finally:
        server.shutdown()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, f"success, 2-retry, 4-attempt exhaustion, 401 single-shot, {elapsed:.1f}s")


def test_criterion_9_scale_smoke(scale_dataset, capsys, tmp_path):
    from gridprompt.cli import main

    root, gen_elapsed = scale_dataset
    t0 = time.perf_counter()
    code = main(["bench", str(root), "--replay", "oracle",
                 "--trials", "10", "--context", "65", "--out", str(tmp_path)])
    bench_elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        rep = json.loads(out)
        assert rep["n_trials"] == 10
        assert rep["valid_fraction"] == 1.0
        total = gen_elapsed + bench_elapsed
        assert total < 600.0
        report(9, f"gen --n 660 {gen_elapsed:.0f}s + bench 10x65 {bench_elapsed:.1f}s, total {total:.0f}s")
