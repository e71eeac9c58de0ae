#!/usr/bin/env python3
"""gridprompt benchmark: `gen` and `bench` end to end, per-layer figures from a traced run.

    python3 perfbench/run.py --workload gen-case9 --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: gridprompt is imported from ./src,
scratch files go to ./.bench_work (removed at exit) and a record of each run
to ./.bench_out. Each workload is a closed loop of user-level operations in
this one process, with at most two threads and two connections (the machine
this was tuned on has two cores):

  gen-case9     `gridprompt gen` of 20 case9 entries (table format, h = 0.2),
                mutation seed derived from --seed, back to back.
  gen-case30    `gridprompt gen --n 1` on case30 (graph format, h = 0.2) with
                mutation seed 0: the cold base solve, draw 0 (rejected at
                max_outer) and draw 1 (feasible). The draws are fixed because a
                handful of seeded case30 draws varies 2x in cost with the
                number of rejections, more than any usable bound.
  bench-replay  per pass: `bench --replay nearest_context`, `bench --replay
                oracle` (2 trials each, context 65, trial seed from --seed) and
                `export-ft`, over a 132-entry case9 dataset built in set-up.
  bench-http    per pass: load the same dataset and run 2 trials at
                concurrency 2 through HttpBackend against mock_llm.py, a local
                endpoint in its own process (50 ms stand-in model delay,
                scheduled 429/503 refusals, replies wrapped in prose).

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the package's functions are wrapped (see
spans.py), a fixed number of operations is made so that work counters
repeat exactly for a seed, and it carries the per-layer metrics. The line
before it records machine facts, sample counts, raw timings, check failures
and the sha256 of every `gen` output directory. --smoke shrinks every
workload to one small operation.

End-to-end timings are given at a reference CPU speed (see SpeedProbe): the
shared machine this was tuned on changes speed by +-25% over 10-20 s, which
spread raw run medians by 20-40%. The raw figures are in the record.

Correctness checks, each failing the operation it belongs to: the base-case
OPF objective against tests/fixtures (0.5% case9, 1% case30), every truth
entry's max_violation_pu <= 1e-4, oracle and HTTP MSEs <= 1e-12 with every
trial valid, and reaggregate_log reproducing each report.
"""
import os

# One BLAS thread, set before numpy loads. The matrices are tiny, so a second
# OpenBLAS thread mostly spins: 100 case9 OPFs took 19.7 s of CPU for 9.3 s of
# wall with two threads, 11.6 s for 10.6 s with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "src" / "gridprompt" / "cases"
FIXTURES = ROOT / "tests" / "fixtures"
OBJECTIVE_TOL = {"case9": 0.005, "case30": 0.010}
MAX_VIOLATION_PU = 1e-4
ORACLE_MSE = 1e-12
CONTEXT = 65  # the paper's context size: ~185 KB prompts on case9
TRIALS = 2
BENCH_ENTRIES = TRIALS * (CONTEXT + 1)
GEN9_ENTRIES = 20
MOCK_DELAY_MS = 50.0
HTTP_BACKOFF_S = 0.02
REF_KERNEL_S = 0.003  # reference speed: the speed at which SpeedProbe's kernel takes 3 ms

gp = None  # the gridprompt package, imported in main()


def import_gridprompt():
    src = ROOT / "src"
    if not (src / "gridprompt" / "__init__.py").is_file():
        sys.exit(f"error: no gridprompt sources under {src}")
    sys.path.insert(0, str(src))
    import gridprompt
    import gridprompt.cli
    return gridprompt


def cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def dir_digest(root: Path) -> tuple[str, int]:
    """sha256 over sorted relative paths and file bytes, and the total bytes."""
    h = hashlib.sha256()
    n_bytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        n_bytes += len(data)
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), n_bytes


class SpeedProbe:
    """Samples the machine's speed: times a fixed kernel every PERIOD_S from SIGALRM.

    The kernel is a frozen miniature of gridprompt's own work: Newton-Raphson
    steps on a dense 30-bus network, a per-line Python loop of complex
    arithmetic, and JSON round trips of bus records. Over 10 s windows on a
    shared two-core machine, raw medians of a case9 OPF, a case30 OPF and a
    132-entry dataset load spread by 20-21%; divided by this kernel's time,
    by 6%, 7% and 3%. The handler runs in the main thread between bytecodes;
    its own time is taken out of every Stopwatch.
    """

    PERIOD_S = 0.2

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        n = 30
        g = rng.random((n, n)) * 0.1
        self._np = np
        self._y = (g + g.T) + 1j * (g - g.T + 10 * np.eye(n))
        self._lines = [(int(f), int(t), complex(0.01 + 0.01 * k, 0.05 + 0.01 * k))
                       for k, (f, t) in enumerate(rng.integers(0, n, (41, 2)))]
        self._doc = {"bus": [{"id": i, "p_mw": i * 1.5, "q_mvar": i * 0.3, "vm_pu": 1.0,
                              "name": f"bus{i}"} for i in range(60)]}
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.spent = 0.0

    def _kernel(self) -> None:
        np, y = self._np, self._y
        v = np.ones(len(y), complex)
        for _ in range(12):
            i = y @ v
            dv, di, dvn = np.diag(v), np.diag(i), np.diag(v / np.abs(v))
            ds_da = 1j * dv @ np.conj(di - y @ dv)
            ds_dm = dv @ np.conj(y @ dvn) + np.conj(di) @ dvn
            jac = np.block([[ds_da.real, ds_dm.real], [ds_da.imag, ds_dm.imag]])
            np.linalg.solve(jac + 50 * np.eye(len(jac)), np.concatenate([i.real, i.imag]))
            for f, t, z in self._lines:
                i_f = (v[f] - v[t]) / z
                abs(v[f] * i_f.conjugate())
        for _ in range(6):
            json.loads(json.dumps(self._doc, sort_keys=True))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Mean speed relative to the reference within [start, end] (and the samples next to it).

        Work done is the integral of speed over time, so an operation's time
        at reference speed is its time times the mean of REF_KERNEL_S / kernel
        time over samples evenly spread in wall time.
        """
        starts = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(starts, start) - 1, 0)
        hi = bisect.bisect_right(starts, end) + 1
        return statistics.fmean(REF_KERNEL_S / dt for _, dt in self.samples[lo:hi])


class Stopwatch:
    """Wall and CPU time of the timed parts of one operation, less the probe's own time."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.wall = self.cpu = 0.0
        self.start = self.end = None

    def __enter__(self):
        self._t0, self._c0, self._p0 = time.perf_counter(), cpu_s(), self.probe.spent
        if self.start is None:
            self.start = self._t0
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        probe = self.probe.spent - self._p0
        self.wall += self.end - self._t0 - probe
        self.cpu += cpu_s() - self._c0 - probe

    def at_reference_speed(self) -> tuple[float, float]:
        """(wall, cpu) with the CPU time and the busy part of the wall scaled to reference speed."""
        f = self.probe.factor(self.start, self.end)
        busy = min(self.cpu, self.wall)
        return self.wall - busy + busy * f, self.cpu * f


class Run:
    """One benchmark run: its operations, their timings, checks and counters."""

    def __init__(self, args, work: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        # A traced run makes a fixed number of operations, so that its work
        # counters repeat exactly for a seed; an untraced one runs for --seconds.
        self.max_ops = 1 if args.smoke else TRACED_OPS[args.workload] if args.trace else None
        self.work = work
        self.probe = SpeedProbe()
        self.setups: list[Stopwatch] = []
        self.ops: list[tuple[Stopwatch, int]] = []  # (timing, items made) per operation
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[dict] = []
        self.entries = 0
        self.rejected = 0
        self.bytes_written = 0
        self.trial_latency_ms: list[float] = []
        self.http_trials = 0
        self.http_stats: dict = {}
        self._op_ok = True

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self._op_ok = False
            self.failures.append(what)
        return ok

    def attempt(self, fn, *args):
        """Run one operation, counting it as failed if it raises or fails a check."""
        self.attempted += 1
        self._op_ok = True
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - one failed operation must not end the run
            self.check(False, f"{getattr(fn, '__name__', 'op')}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.failed += not self._op_ok

    def setup(self, step):
        """One timed set-up step: step(stopwatch) times its work and checks it untimed."""
        sw = Stopwatch(self.probe)
        result = self.attempt(step, sw)
        if sw.start is not None:
            self.setups.append(sw)
        return result

    def loop(self, op) -> None:
        """Closed loop: op(j, stopwatch) -> items, back to back for --seconds or max_ops."""
        deadline = time.perf_counter() + self.seconds
        j = 0
        while (j < self.max_ops) if self.max_ops else (j == 0 or time.perf_counter() < deadline):
            sw = Stopwatch(self.probe)
            items = self.attempt(op, j, sw)
            if items and self._op_ok:
                self.ops.append((sw, items))
            j += 1


def call_cli(*argv) -> tuple[int, str]:
    """Run the gridprompt CLI in-process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gp.cli.main([str(a) for a in argv])
    return code, out.getvalue()


# --- checks -----------------------------------------------------------------


def check_base_opf(run: Run, name: str, sol) -> None:
    ref = json.loads((FIXTURES / f"reference_{name}.json").read_text())["opf"]["objective"]
    gap = abs(sol.objective_cost - ref) / ref
    run.check(sol.feasible, f"{name} base OPF infeasible: {sol.message}")
    run.check(gap <= OBJECTIVE_TOL[name], f"{name} base objective off the reference by {gap:.2%}")
    run.check(sol.max_violation_pu <= MAX_VIOLATION_PU,
              f"{name} base violation {sol.max_violation_pu:.3e} pu")


def check_dataset(run: Run, root: Path, n: int, seed: int) -> None:
    """Entry count, truth feasibility; records the directory digest and size."""
    manifest = json.loads((root / "manifest.json").read_text())
    run.check(len(manifest["entries"]) == n, f"{root.name}: {len(manifest['entries'])} entries, want {n}")
    for meta in manifest["entries"]:
        truth = json.loads((root / "truth" / f"{meta['index']}.json").read_text())
        run.check(truth["feasible"] and truth["max_violation_pu"] <= MAX_VIOLATION_PU,
                  f"{root.name}: truth {meta['index']} violation {truth['max_violation_pu']:.3e} pu")
    digest, n_bytes = dir_digest(root)
    run.digests.append({"dir": root.name, "seed": seed, "n": n, "sha256": digest})
    run.entries += n
    run.rejected += len(manifest["rejected"])
    run.bytes_written += n_bytes


def check_bench_out(run: Run, out: Path, trials: int, exact: bool) -> list[dict]:
    """Report vs reaggregated log; with ``exact``, every trial valid and MSE ~ 0."""
    report = json.loads((out / "report.json").read_text())
    again = gp.evaluation.reaggregate_log(out / "trials.jsonl")
    for key in ("n_trials", "valid_fraction", "mean_mse_gen", "mean_mse_slack", "mean_mse_bus"):
        run.check(report[key] == getattr(again, key), f"{out.name}: reaggregated {key} differs")
    run.check(report["n_trials"] == trials, f"{out.name}: {report['n_trials']} trials logged, want {trials}")
    records = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
    if exact:
        run.check(report["valid_fraction"] == 1.0, f"{out.name}: valid fraction {report['valid_fraction']}")
        worst = max((r[k] or 0.0) for r in records for k in ("mse_gen", "mse_slack", "mse_bus"))
        run.check(worst <= ORACLE_MSE, f"{out.name}: MSE {worst:.3e} against the solver truth")
    return records


# --- workloads ----------------------------------------------------------------


def gen_op(run: Run, sw: Stopwatch, name: str, n: int, seed: int, fmt: str,
           halfwidth: float, out: Path) -> int:
    with sw:
        code, _ = call_cli("gen", CASES / f"{name}.m", "--n", n, "--seed", seed,
                           "--format", fmt, "--halfwidth", halfwidth, "--out", out)
    if run.check(code == 0, f"gen {name} seed {seed}: exit code {code}"):
        check_dataset(run, out, n, seed)
    return n


def base_opf_setup(run: Run, name: str, reps: int) -> None:
    def base_opf(sw):
        with sw:
            sol = gp.solvers.solve_opf(gp.load_case(CASES / f"{name}.m"))
        check_base_opf(run, name, sol)

    for _ in range(reps):
        run.setup(base_opf)


def gen_loop(run: Run, name: str, n: int, fmt: str, halfwidth: float, seed_of) -> None:
    def gen(j, sw):
        out = run.work / f"gen-{j}"
        try:
            return gen_op(run, sw, name, n, seed_of(j), fmt, halfwidth, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    run.loop(gen)


def gen_case9(run: Run) -> None:
    base_opf_setup(run, "case9", 1 if run.smoke else 3)
    gen_loop(run, "case9", 2 if run.smoke else GEN9_ENTRIES, "table", 0.2,
             lambda j: run.seed * 1000 + j)


def gen_case30(run: Run) -> None:
    base_opf_setup(run, "case30", 1 if run.smoke else 2)
    halfwidth = 0.0 if run.smoke else 0.2  # smoke: draw 0 equals the base case
    gen_loop(run, "case30", 1, "graph", halfwidth, lambda j: 0)


def build_bench_dataset(run: Run) -> Path:
    root = run.work / "dataset"
    n = 2 * TRIALS if run.smoke else BENCH_ENTRIES
    made = run.setup(lambda sw: gen_op(run, sw, "case9", n, run.seed, "table", 0.2, root))
    if made is None or run.failed:
        raise RuntimeError("set-up failed: " + "; ".join(run.failures))
    return root


def bench_replay(run: Run) -> None:
    ds = build_bench_dataset(run)
    context = 1 if run.smoke else CONTEXT

    def one_pass(j: int, sw: Stopwatch) -> int:
        out = run.work / f"pass-{j}"
        try:
            for mode in ("nearest_context", "oracle"):
                with sw:
                    code, _ = call_cli(
                        "bench", ds, "--replay", mode, "--trials", TRIALS, "--context", context,
                        "--seed", run.seed * 1000 + j, "--concurrency", 1, "--out", out / mode,
                    )
                if run.check(code == 0, f"bench {mode} pass {j}: exit code {code}"):
                    records = check_bench_out(run, out / mode, TRIALS, exact=mode == "oracle")
                    if mode == "nearest_context":
                        run.trial_latency_ms += [r["latency_ms"] for r in records]
            with sw:
                code, _ = call_cli("export-ft", ds)
            if run.check(code == 0, f"export-ft pass {j}: exit code {code}"):
                lines = (ds / "finetune.jsonl").read_text().count("\n")
                run.check(lines == run.entries, f"export-ft pass {j}: {lines} lines")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return 2 * TRIALS

    run.loop(one_pass)


@contextlib.contextmanager
def mock_endpoint(dataset: Path, delay_ms: float):
    """Start mock_llm.py in its own process; yield its base URL; stop and reap it."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("mock_llm.py")), str(dataset),
         "--delay-ms", str(delay_ms)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = proc.stdout.readline().strip()
        if not port.isdigit():
            raise RuntimeError("mock endpoint did not start")
        yield f"http://127.0.0.1:{port}"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def bench_http(run: Run) -> None:
    ds = build_bench_dataset(run)
    context = 1 if run.smoke else CONTEXT
    with mock_endpoint(ds, 5.0 if run.smoke else MOCK_DELAY_MS) as url:
        cfg = gp.EndpointConfig(base_url=url, model="mock", backoff_base_s=HTTP_BACKOFF_S)

        def one_pass(j: int, sw: Stopwatch) -> int:
            out = run.work / f"pass-{j}"
            out.mkdir(parents=True)
            try:
                with sw:
                    dataset = gp.load_solved_dataset(ds)
                    report, _ = gp.run_benchmark(
                        dataset.entries, gp.llm_protocol.HttpBackend(cfg), trials=TRIALS,
                        context_size=context, seed=run.seed * 1000 + j, concurrency=2,
                        log_path=out / "trials.jsonl", config={"endpoint": url},
                    )
                    (out / "report.json").write_text(report.to_json() + "\n")
                records = check_bench_out(run, out, TRIALS, exact=True)
                run.trial_latency_ms += [r["latency_ms"] for r in records]
                run.http_trials += TRIALS
            finally:
                shutil.rmtree(out, ignore_errors=True)
            return TRIALS

        run.loop(one_pass)
        with urllib.request.urlopen(url + "/stats", timeout=10) as resp:
            run.http_stats = json.loads(resp.read())


WORKLOADS = {
    "gen-case9": gen_case9,
    "gen-case30": gen_case30,
    "bench-replay": bench_replay,
    "bench-http": bench_http,
}
# operations in a traced run: about as many as an untraced run makes in 16 s
TRACED_OPS = {"gen-case9": 8, "gen-case30": 1, "bench-replay": 50, "bench-http": 60}


# --- tracing and metrics ------------------------------------------------------


def install_tracer():
    """Wrap each public function where its caller binds it; count minimize() work."""
    from spans import Tracer

    cli, de, ev, lp = gp.cli, gp.dataset_export, gp.evaluation, gp.llm_protocol
    t = Tracer()

    def opf_kind(span, args, sol):
        opts = args[1] if len(args) > 1 and args[1] is not None else gp.OpfOptions()
        span.info["kind"] = (
            "base" if opts.x0 is None else "feasible" if sol.feasible else "rejected"
        )
        span.info["max_outer"] = opts.max_outer

    def n_entries(span, args, ds):
        span.info["entries"] = len(ds)

    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "load_case", "matpower_io.load_case")
    t.wrap(cli, "build_solved_dataset", "dataset_export.build_solved_dataset", on_exit=n_entries)
    for owner in (cli, gp):
        t.wrap(owner, "load_solved_dataset", "dataset_export.load_solved_dataset", on_exit=n_entries)
        t.wrap(owner, "run_benchmark", "evaluation.run_benchmark")
    t.wrap(cli, "export_finetune_jsonl", "dataset_export.export_finetune_jsonl",
           on_exit=lambda span, args, path: span.info.update(lines=len(args[0])))
    t.wrap(de, "solve_opf", "solvers.solve_opf", on_exit=opf_kind)
    t.wrap(de, "mutate", "scenario_gen.mutate", item_of=lambda case, spec, index: index, sticky=True)
    t.wrap(de, "to_hetero", "grid_model.to_hetero")
    t.wrap(de, "embed_grid", "embedding.embed_grid")
    t.wrap(de, "encode_solution", "embedding.encode_solution")
    t.wrap(de, "write_matpower", "matpower_io.write_matpower")
    t.wrap(de, "parse_matpower", "matpower_io.parse_matpower")
    t.wrap(ev, "make_trials", "evaluation.make_trials")
    t.wrap(ev, "run_trial", "evaluation.run_trial", item_of=lambda trial, *rest: trial.trial_id,
           on_exit=lambda span, args, rec: span.info.update(valid=rec.valid))
    t.wrap(ev, "build_sequence", "llm_protocol.build_sequence",
           on_exit=lambda span, args, seq: span.info.update(chars=seq.char_count()))
    t.wrap(ev, "validate_sequence", "llm_protocol.validate_sequence")
    t.wrap(ev, "parse_solution_doc", "embedding.parse_solution_doc")
    t.wrap(ev, "score", "evaluation.score")
    t.wrap(ev, "aggregate", "evaluation.aggregate")
    for backend in (lp.OracleBackend, lp.NearestContextBackend, lp.HttpBackend):
        t.wrap(backend, "complete", "llm_protocol.backend.complete")
    t.wrap(lp, "complete", "llm_protocol.complete")
    t.count_minimize(gp.solvers)
    return t


def end_to_end_metrics(run: Run, reference_speed: bool) -> dict:
    """The timings at reference speed, or as measured."""
    def times(sw):
        return sw.at_reference_speed() if reference_speed else (sw.wall, sw.cpu)

    setups = [times(sw)[0] for sw in run.setups]
    ops = [times(sw) for sw, _ in run.ops]
    items = sum(n for _, n in run.ops)
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": items / sum(wall for wall, _ in ops),
        "cpu_ms_per_item": 1000.0 * sum(cpu for _, cpu in ops) / items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run: Run, tracer, traced_wall_s: float) -> dict:
    from spans import span_cost_s

    def ms(name):
        return [s.ms for s in tracer.named(name)]

    def per(name, key):
        spans = tracer.named(name)
        count = sum(s.info.get(key, 0) for s in spans)
        return sum(s.ms for s in spans) / count if count else 0.0

    opf = tracer.named("solvers.solve_opf")
    by_kind = {k: [s for s in opf if s.info["kind"] == k] for k in ("base", "feasible", "rejected")}
    draws = by_kind["feasible"] + by_kind["rejected"]
    opf_ms = sum(s.ms for s in opf)
    fevals = sum(s.info.get("nfev", 0) for s in opf)
    trials = tracer.named("evaluation.run_trial")
    passes = tracer.named("evaluation.run_benchmark")
    n_entries = sum(s.info["entries"] for s in tracer.named("dataset_export.build_solved_dataset"))
    n_calls = len(tracer.spans) + sum(s.info.get("outer", 0) for s in opf)
    http = run.http_stats
    return {
        "solvers.fevals_per_opf.feasible": mean([s.info["nfev"] for s in by_kind["feasible"]]),
        "solvers.outer_per_opf.feasible": mean([s.info["outer"] for s in by_kind["feasible"]]),
        "solvers.lbfgs_iters_per_opf": mean([s.info["nit"] for s in draws]),
        "solvers.us_per_feval": 1000.0 * opf_ms / fevals if fevals else 0.0,
        "solvers.opf_ms.feasible.p50": percentile([s.ms for s in by_kind["feasible"]], 0.5),
        "solvers.opf_ms.feasible.p90": percentile([s.ms for s in by_kind["feasible"]], 0.9),
        "solvers.opf_ms.rejected.p50": percentile([s.ms for s in by_kind["rejected"]], 0.5),
        "solvers.fevals_per_opf.rejected": mean([s.info["nfev"] for s in by_kind["rejected"]]),
        "solvers.outer_per_opf.rejected": mean([s.info["outer"] for s in by_kind["rejected"]]),
        "solvers.max_outer_hits": sum(s.info["outer"] >= s.info["max_outer"] for s in opf),
        "solvers.wasted_share": sum(s.ms for s in by_kind["rejected"]) / opf_ms if opf_ms else 0.0,
        "solvers.opf_ms.base": percentile([s.ms for s in by_kind["base"]], 0.5),
        "dataset_export.rejected_fraction": run.rejected / (run.entries + run.rejected),
        "scenario_gen.mutate_ms": mean(ms("scenario_gen.mutate")),
        "grid_model.to_hetero_ms": mean(ms("grid_model.to_hetero")),
        "embedding.embed_ms": mean(ms("embedding.embed_grid")),
        "embedding.encode_ms": mean(ms("embedding.encode_solution")),
        "matpower_io.write_ms": mean(ms("matpower_io.write_matpower")),
        "dataset_export.build_self_ms_per_entry":
            tracer.self_ms("dataset_export.build_solved_dataset") / n_entries if n_entries else 0.0,
        "dataset_export.bytes_written_per_entry": run.bytes_written / run.entries,
        "matpower_io.parse_ms": mean(ms("matpower_io.parse_matpower")),
        "dataset_export.load_ms_per_entry": per("dataset_export.load_solved_dataset", "entries"),
        "dataset_export.export_ft_ms_per_line": per("dataset_export.export_finetune_jsonl", "lines"),
        "llm_protocol.build_sequence_ms": mean(ms("llm_protocol.build_sequence")),
        "llm_protocol.prompt_chars":
            mean([s.info["chars"] for s in tracer.named("llm_protocol.build_sequence")]),
        "llm_protocol.complete_ms": mean(ms("llm_protocol.backend.complete")),
        "embedding.parse_solution_ms": mean(ms("embedding.parse_solution_doc")),
        "evaluation.score_ms": mean(ms("evaluation.score")),
        "evaluation.make_trials_ms": mean(ms("evaluation.make_trials")),
        "evaluation.run_trial_ms.p50": percentile([s.ms for s in trials], 0.5),
        "evaluation.valid_fraction": mean([float(s.info["valid"]) for s in trials]),
        "evaluation.run_self_ms":
            tracer.self_ms("evaluation.run_benchmark") / len(passes) if passes else 0.0,
        "evaluation.trial_latency_ms.p50": percentile(run.trial_latency_ms, 0.5),
        "evaluation.trial_latency_ms.p90": percentile(run.trial_latency_ms, 0.9),
        "llm_protocol.http.requests_per_trial":
            http.get("requests", 0) / run.http_trials if run.http_trials else 0.0,
        "llm_protocol.http.retries_per_trial":
            http.get("errors", 0) / run.http_trials if run.http_trials else 0.0,
        "llm_protocol.http.request_bytes":
            http.get("request_bytes", 0) / http["requests"] if http.get("requests") else 0.0,
        "trace.overhead_share": n_calls * span_cost_s() / traced_wall_s,
    }


# --- run record ---------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "blas_threads_pinned": True,
        "git_commit": commit,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one operation")
    args = p.parse_args()

    global gp
    gp = import_gridprompt()
    random.seed(args.seed)  # HTTP backoff jitter
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    record_dir = ROOT / ".bench_out"
    record_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    run = Run(args, work)
    # The probe samples only untraced runs: traced spans report raw times.
    tracer = install_tracer() if args.trace else None
    t0 = time.perf_counter()
    try:
        with run.probe if tracer is None else contextlib.nullcontext():
            WORKLOADS[args.workload](run)
    finally:
        traced_wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "machine": machine_facts(),
        "samples": {"setups": len(run.setups), "ops": len(run.ops),
                    "items": sum(n for _, n in run.ops),
                    "trial_latencies": len(run.trial_latency_ms),
                    "speed_probes": len(run.probe.samples)},
        "digests": run.digests, "failures": run.failures[:20],
    }
    if tracer is None:
        values, declared = end_to_end_metrics(run, reference_speed=True), spec["end_to_end"]
        info["raw"] = end_to_end_metrics(run, reference_speed=False)
        info["speed_factor"] = run.probe.factor(t0, time.perf_counter())
    else:
        values, declared = per_layer_metrics(run, tracer, traced_wall_s), spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (record_dir / f"{name}.json").write_text(json.dumps({**info, "metrics": metrics}, indent=1))
    if tracer is not None:
        with open(record_dir / f"{name}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
