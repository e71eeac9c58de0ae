"""Command-line pipeline: solve / gen / bench / export-ft.

stdout carries machine-readable payloads only; diagnostics go to stderr.
Exit codes: 0 ok, 1 error, 2 infeasible (or benchmark with zero valid trials).
A JSON config file can preset any option; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dataset_export import (
    DatasetError,
    build_solved_dataset,
    export_finetune_jsonl,
    load_solved_dataset,
)
from .embedding import EmbeddingFormat, encode_solution, encode_triples
from .evaluation import run_benchmark
from .files import read_utf8, write_utf8
from .llm_protocol import EndpointConfig, HttpBackend, replay_backend
from .matpower_io import load_case
from .scenario_gen import MutationSpec
from .solvers import solve_opf, solve_pf

# each config key's JSON type, as (what it must be, the Python types json gives it)
_INT, _NUMBER, _STR = ("an integer", (int,)), ("a number", (int, float)), ("a string", (str,))
_CONFIG_KEYS = {
    **dict.fromkeys(["seed", "n", "decimals", "trials", "context", "concurrency"], _INT),
    "max_chars": ("an integer or null", (int, type(None))),
    "halfwidth": _NUMBER,
    **dict.fromkeys(["format", "replay", "endpoint", "model", "out"], _STR),
}


def _load_config(path: str | None) -> dict:
    try:
        cfg = json.loads(read_utf8(path)) if path else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the config is not a JSON object")
    if unknown := cfg.keys() - _CONFIG_KEYS.keys():
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        kind, types = _CONFIG_KEYS[key]
        if type(value) not in types:  # not isinstance: a bool is no integer here
            raise ValueError(f"{path}: config key {key!r} must be {kind}, got {json.dumps(value)}")
    return cfg


def _opt(args, cfg: dict, key: str, default):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    return cfg.get(key, default)


def _err(msg: str, code: int = 1) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _cmd_solve(args, cfg) -> int:
    case = load_case(args.case_path)
    if args.pf:
        sol = solve_pf(case)
        if not sol.converged:
            return _err("power flow did not converge", 2)
        machine = {g.id: (g.id, float(p), float(q))
                   for g, p, q in zip(case.generators, sol.gen_p_mw, sol.gen_q_mvar)}
        print(encode_triples(
            [machine[g.id] for g in case.nonslack_gens],
            machine[case.slack_gen.id],
            [(b.id, float(sol.vm_pu[b.id]), float(sol.va_deg[b.id])) for b in case.buses],
            decimals=6,
        ))
        return 0
    sol = solve_opf(case)
    if not sol.feasible:
        return _err(f"OPF infeasible ({sol.message})", 2)
    print(encode_solution(sol, decimals=6))
    print(f"objective_cost: {sol.objective_cost:.4f} $/h", file=sys.stderr)
    return 0


def _cmd_gen(args, cfg) -> int:
    case = load_case(args.case_path)
    spec = MutationSpec(
        relative_halfwidth=float(_opt(args, cfg, "halfwidth", 0.2)),
        seed=_opt(args, cfg, "seed", 0),
    )
    fmt = EmbeddingFormat(
        kind=_opt(args, cfg, "format", "graph"),
        decimals=_opt(args, cfg, "decimals", 4),
    )
    out = Path(_opt(args, cfg, "out", f"{case.name}_dataset"))
    n = _opt(args, cfg, "n", 66)
    try:
        ds = build_solved_dataset(case, spec, n, fmt, out)
    except DatasetError as exc:
        return _err(str(exc), 2)
    print(json.dumps({
        "dataset": str(out), "entries": len(ds), "rejected": ds.rejected,
    }, sort_keys=True))
    return 0


def _cmd_bench(args, cfg) -> int:
    ds = load_solved_dataset(args.dataset)
    trials = _opt(args, cfg, "trials", 100)
    context = _opt(args, cfg, "context", 65)
    seed = _opt(args, cfg, "seed", 0)
    concurrency = _opt(args, cfg, "concurrency", 4)
    max_chars = _opt(args, cfg, "max_chars", None)
    out = Path(_opt(args, cfg, "out", ds.root))  # made by run_benchmark once all is checked
    replay = _opt(args, cfg, "replay", None)
    endpoint = _opt(args, cfg, "endpoint", None)
    if (replay is None) == (endpoint is None):
        return _err("exactly one of --replay and --endpoint is required")
    if replay is not None:
        backend = replay_backend(replay, ds.truth_map() if replay == "oracle" else None)
        backend_echo = {"replay": replay}
    else:
        ecfg = EndpointConfig(base_url=endpoint, model=_opt(args, cfg, "model", "gpt-4o-mini"))
        backend = HttpBackend(ecfg)
        backend_echo = {"endpoint": endpoint, "model": ecfg.model}

    config_echo = {
        "dataset": str(ds.root),
        "concurrency": concurrency,
        "max_chars": max_chars,
        **backend_echo,
    }
    log_path = out / "trials.jsonl"
    report, records = run_benchmark(
        ds.entries, backend, trials=trials, context_size=context, seed=seed,
        concurrency=concurrency, max_chars=max_chars,
        log_path=log_path, config=config_echo,
    )
    write_utf8(out / "report.json", report.to_json() + "\n")
    print(report.to_json())
    print(f"log: {log_path}", file=sys.stderr)
    return 0 if report.valid_fraction > 0 else 2


def _cmd_export_ft(args, cfg) -> int:
    ds = load_solved_dataset(args.dataset)
    out = export_finetune_jsonl(ds, base_model=_opt(args, cfg, "model", ""))
    print(json.dumps({"jsonl": str(out), "lines": len(ds)}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridprompt", description=__doc__)
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one case and print the solution JSON")
    ps.add_argument("case_path")
    mode = ps.add_mutually_exclusive_group()
    mode.add_argument("--opf", action="store_true", default=True)
    mode.add_argument("--pf", action="store_true")
    ps.set_defaults(func=_cmd_solve)

    pg = sub.add_parser("gen", help="generate a solved scenario dataset")
    pg.add_argument("case_path")
    pg.add_argument("--n", type=int)
    pg.add_argument("--seed", type=int)
    pg.add_argument("--halfwidth", type=float)
    pg.add_argument("--format", choices=["graph", "table"])
    pg.add_argument("--decimals", type=int)
    pg.add_argument("--out")
    pg.set_defaults(func=_cmd_gen)

    pb = sub.add_parser("bench", help="run the in-context benchmark on a dataset")
    pb.add_argument("dataset")
    pb.add_argument("--replay", choices=["oracle", "nearest_context", "corrupt"])
    pb.add_argument("--endpoint", help="base URL of an OpenAI-compatible API")
    pb.add_argument("--model")
    pb.add_argument("--trials", type=int)
    pb.add_argument("--context", type=int)
    pb.add_argument("--seed", type=int)
    pb.add_argument("--concurrency", type=int)
    pb.add_argument("--max-chars", type=int)
    pb.add_argument("--out")
    pb.set_defaults(func=_cmd_bench)

    pf = sub.add_parser("export-ft", help="emit chat-format fine-tuning JSONL")
    pf.add_argument("dataset")
    pf.add_argument("--model", help="base model name recorded in the sidecar")
    pf.set_defaults(func=_cmd_export_ft)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except (OSError, ValueError, DatasetError) as exc:
        return _err(str(exc))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        return _err(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
