"""Scoring of predicted OPF solutions and the benchmark loop around it.

Errors are computed in per-unit (powers divided by the system base) and
radians, so the three MSE figures are dimensionless and comparable across
grid sizes. Invalid trials (unparseable or ill-typed responses) are excluded
from the MSE means and reported through the valid fraction instead.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .embedding import InvalidResponse, SolutionDoc, parse_solution_doc
from .files import read_utf8, write_utf8
from .llm_protocol import (
    ProtocolError, SequenceError, TransportError, build_sequence, validate_sequence,
)
from .solvers import OpfSolution

REPORT_SCHEMA = "gridprompt/report/v1"
LOG_SCHEMA = "gridprompt/trial/v1"


class ScoringError(Exception):
    """Prediction does not cover the case's components id-for-id."""


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    valid: bool
    mse_gen: float | None
    mse_slack: float | None
    mse_bus: float | None
    response_chars: int
    latency_ms: float
    reason: str = ""


@dataclass(frozen=True)
class EvalReport:
    n_trials: int
    valid_fraction: float
    mean_mse_gen: float | None
    mean_mse_slack: float | None
    mean_mse_bus: float | None
    config: dict

    def to_json(self) -> str:
        doc = {"schema": REPORT_SCHEMA, **asdict(self)}
        return json.dumps(doc, sort_keys=True, indent=1)


def _pairs_mse(pred, truth, scale_a: float, scale_b: float, what: str) -> float:
    """Mean squared error over id-matched (a, b) value pairs; one past the float
    range raises ScoringError, so a huge predicted value fails its trial alone."""
    pred_by_id = {i: (a, b) for i, a, b in pred}
    if len(pred_by_id) != len(pred):
        raise ScoringError(f"duplicate ids in predicted {what}")
    errs = []
    for i, a, b in truth:
        if i not in pred_by_id:
            raise ScoringError(f"missing or invalid values: {what} id {i}")
        pa, pb = pred_by_id.pop(i)
        try:
            errs += [((pa - a) / scale_a) ** 2, ((pb - b) / scale_b) ** 2]
        except OverflowError:
            errs.append(math.inf)
    if pred_by_id:
        raise ScoringError(f"missing or invalid values: unknown {what} ids {sorted(pred_by_id)}")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, refused below
        mse = float(np.mean(errs)) if errs else 0.0
    if not math.isfinite(mse):
        raise ScoringError(f"{what} error is not finite")
    return mse


def score(
    pred: SolutionDoc, truth: OpfSolution, base_mva: float
) -> tuple[float, float, float]:
    """(mse_gen, mse_slack, mse_bus): powers in per-unit, angles in radians."""
    deg = 180.0 / np.pi
    mse_gen = _pairs_mse(pred.gen, truth.gen, base_mva, base_mva, "gen")
    mse_slack = _pairs_mse(pred.slack, (truth.slack,), base_mva, base_mva, "slack")
    mse_bus = _pairs_mse(pred.bus, truth.bus, 1.0, deg, "bus")
    return mse_gen, mse_slack, mse_bus


@dataclass(frozen=True)
class BenchmarkTrial:
    """One trial's inputs: context pairs, query text, and the query's truth."""
    trial_id: int
    context: list[tuple[str, str]]
    query_text: str
    truth: OpfSolution
    base_mva: float


def make_trials(entries, trials: int, context_size: int, seed: int) -> list[BenchmarkTrial]:
    """Partition solved entries into disjoint per-trial context + query sets.

    ``entries`` is a sequence of objects with .grid_text, .solution_text,
    .solution (ground truth) and .case; only each query's .solution and
    .case are read, so a loaded dataset reads no other entry's truth or
    scenario file. The split is a seeded permutation so runs are
    reproducible from (dataset, seed) alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if context_size < 0:
        raise ValueError(f"context_size must be >= 0, got {context_size}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    need = trials * (context_size + 1)
    if len(entries) < need:
        raise ValueError(
            f"dataset has {len(entries)} solved entries, "
            f"{need} needed for {trials} trials with context {context_size}"
        )
    order = np.random.default_rng(seed).permutation(len(entries))
    out = []
    for t in range(trials):
        chunk = [entries[i] for i in order[t * (context_size + 1) : (t + 1) * (context_size + 1)]]
        query = chunk[-1]
        out.append(
            BenchmarkTrial(
                trial_id=t,
                context=[(e.grid_text, e.solution_text) for e in chunk[:-1]],
                query_text=query.grid_text,
                truth=query.solution,
                base_mva=query.case.base_mva,
            )
        )
    return out


def run_trial(trial: BenchmarkTrial, backend, max_chars: int | None = None) -> TrialRecord:
    try:
        seq = build_sequence(trial.context, trial.query_text, max_chars=max_chars)
        validate_sequence(seq)
    except SequenceError as exc:  # e.g. over the char budget: fails this trial, sends nothing
        return TrialRecord(trial.trial_id, False, None, None, None, 0, 0.0, f"SequenceError: {exc}")
    start = time.monotonic()
    response, reason, mse = "", "", (None, None, None)
    try:
        response = backend.complete(seq)
    except (TransportError, ProtocolError) as exc:  # fails this trial, not the run
        reason = f"{type(exc).__name__}: {exc}"
    latency_ms = (time.monotonic() - start) * 1000.0
    if not reason:
        try:
            mse = score(parse_solution_doc(response), trial.truth, trial.base_mva)
        except (InvalidResponse, ScoringError) as exc:
            reason = str(exc)
    return TrialRecord(trial.trial_id, not reason, *mse, len(response), latency_ms, reason)


def aggregate(records: list[TrialRecord], config: dict) -> EvalReport:
    n = len(records)
    valid = [r for r in records if r.valid]

    def mean(attr):
        if not valid:
            return None
        values = np.array([getattr(r, attr) for r in valid])
        with np.errstate(over="ignore"):
            m = np.mean(values)
        # a sum of finite MSEs can overflow, their mean cannot: over the largest, each is <= 1
        return float(m if np.isfinite(m) else values.max() * np.mean(values / values.max()))

    return EvalReport(
        n_trials=n,
        valid_fraction=len(valid) / n if n else 0.0,
        mean_mse_gen=mean("mse_gen"),
        mean_mse_slack=mean("mse_slack"),
        mean_mse_bus=mean("mse_bus"),
        config=config,
    )


def run_benchmark(
    entries,
    backend,
    trials: int,
    context_size: int,
    seed: int = 0,
    concurrency: int = 4,
    max_chars: int | None = None,
    log_path: str | Path | None = None,
    config: dict | None = None,
) -> tuple[EvalReport, list[TrialRecord]]:
    """Run all trials (possibly concurrently) and aggregate.

    The per-trial log is written fresh, in trial order through a single
    writer, so the file bytes are deterministic regardless of completion order.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    plan = make_trials(entries, trials, context_size, seed)
    if log_path is not None:  # once the plan is sound, so a refused run leaves no directory
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            records = list(pool.map(lambda t: run_trial(t, backend, max_chars), plan))
    else:
        records = [run_trial(t, backend, max_chars) for t in plan]

    if log_path is not None:
        write_utf8(log_path, "".join(
            json.dumps({"schema": LOG_SCHEMA, **asdict(r)}, sort_keys=True) + "\n" for r in records
        ))

    echo = dict(config or {})
    echo.update({"trials": trials, "context_size": context_size, "seed": seed})
    return aggregate(records, echo), records


def reaggregate_log(log_path: str | Path, config: dict | None = None) -> EvalReport:
    """Rebuild the report from a JSONL trial log; it must match the original. A line
    that is not a trial record raises ValueError naming the file and the line."""
    records = []
    for lineno, line in enumerate(read_utf8(log_path).splitlines(), 1):
        try:
            doc = json.loads(line)
            records.append(TrialRecord(**{k: v for k, v in doc.items() if k != "schema"}))
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"{log_path}: line {lineno}: {type(exc).__name__}: {exc}") from exc
    return aggregate(records, dict(config or {}))
