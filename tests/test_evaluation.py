import json

import pytest

from gridprompt.embedding import EmbeddingFormat, SolutionDoc, encode_solution
from gridprompt.dataset_export import build_solved_dataset
from gridprompt.evaluation import (
    ScoringError,
    make_trials,
    reaggregate_log,
    run_benchmark,
    score,
)
from gridprompt.llm_protocol import (
    AuthError, FixedBackend, ProtocolError, TransportError, build_sequence, replay_backend,
)
from gridprompt.scenario_gen import MutationSpec
from gridprompt.solvers import OpfSolution
import numpy as np


def _toy_truth():
    return OpfSolution(
        gen=((1, 100.0, 20.0), (2, 50.0, -5.0)),
        slack=(0, 71.95, 10.0),
        bus=tuple((i, 1.0, 0.0) for i in range(9)),
        objective_cost=0.0, feasible=True, max_violation_pu=0.0,
    )


def solution_doc_from_opf(sol):
    """Exact (unrounded) doc for ground-truth comparisons."""
    return SolutionDoc(gen=tuple(sol.gen), slack=(sol.slack,), bus=tuple(sol.bus))


def _doc_from(truth, **overrides):
    doc = solution_doc_from_opf(truth)
    return SolutionDoc(**{**doc.__dict__, **overrides})


class TestScore:
    def test_exact_match_is_zero(self):
        truth = _toy_truth()
        assert score(solution_doc_from_opf(truth), truth, 100.0) == (0.0, 0.0, 0.0)

    def test_slack_hand_value(self):
        truth = _toy_truth()
        pred = _doc_from(truth, slack=((0, 81.95, 10.0),))
        _, mse_slack, _ = score(pred, truth, 100.0)
        assert mse_slack == pytest.approx(((10 / 100) ** 2 + 0) / 2)  # 0.005

    def test_bus_hand_value(self):
        truth = _toy_truth()
        bus = list(truth.bus)
        bus[3] = (3, 1.01, 0.0)
        pred = _doc_from(truth, bus=tuple(bus))
        _, _, mse_bus = score(pred, truth, 100.0)
        assert mse_bus == pytest.approx(0.0001 / 18)

    def test_angle_errors_scored_in_radians(self):
        truth = _toy_truth()
        bus = list(truth.bus)
        bus[0] = (0, 1.0, 1.0)  # one degree off
        pred = _doc_from(truth, bus=tuple(bus))
        _, _, mse_bus = score(pred, truth, 100.0)
        assert mse_bus == pytest.approx(np.radians(1.0) ** 2 / 18)

    def test_id_keyed_not_positional(self):
        truth = _toy_truth()
        pred = _doc_from(truth, gen=(truth.gen[1], truth.gen[0]))
        assert score(pred, truth, 100.0) == (0.0, 0.0, 0.0)

    def test_missing_id_raises(self):
        truth = _toy_truth()
        pred = _doc_from(truth, gen=(truth.gen[0],))
        with pytest.raises(ScoringError, match="missing or invalid values"):
            score(pred, truth, 100.0)

    def test_duplicate_predicted_id_raises(self):
        truth = _toy_truth()
        pred = _doc_from(truth, gen=truth.gen + (truth.gen[0],))
        with pytest.raises(ScoringError) as err:
            score(pred, truth, 100.0)
        assert str(err.value) == "duplicate ids in predicted gen"

    def test_unknown_id_raises(self):
        truth = _toy_truth()
        pred = _doc_from(truth, gen=truth.gen + ((9, 1.0, 1.0),))
        with pytest.raises(ScoringError, match="unknown"):
            score(pred, truth, 100.0)


@pytest.fixture(scope="module")
def dataset9(case9, tmp_path_factory):
    return build_solved_dataset(
        case9, MutationSpec(0.2, seed=31), 20, EmbeddingFormat("table"),
        tmp_path_factory.mktemp("ds"),
    )


class TestRunBenchmark:
    def test_oracle_all_valid_zero_mse(self, dataset9, tmp_path):
        report, records = run_benchmark(
            dataset9.entries, replay_backend("oracle", dataset9.truth_map()),
            trials=4, context_size=4, seed=1, log_path=tmp_path / "log.jsonl",
        )
        assert report.valid_fraction == 1.0
        assert report.mean_mse_gen <= 1e-12
        assert report.mean_mse_slack <= 1e-12
        assert report.mean_mse_bus <= 1e-12

    def test_corrupt_all_invalid(self, dataset9):
        report, records = run_benchmark(
            dataset9.entries, replay_backend("corrupt"), trials=4, context_size=4,
        )
        assert report.valid_fraction == 0.0
        assert report.mean_mse_gen is None
        assert all(not r.valid and r.reason for r in records)

    def test_valid_plus_invalid_is_one(self, dataset9):
        class FlakyBackend:
            n = 0

            def complete(self, seq):
                FlakyBackend.n += 1
                if FlakyBackend.n % 2:
                    return "no json here"
                return dataset9.entries[0].solution_text

        report, records = run_benchmark(
            dataset9.entries, FlakyBackend(), trials=4, context_size=3, concurrency=1,
        )
        invalid_fraction = sum(not r.valid for r in records) / len(records)
        assert report.valid_fraction + invalid_fraction == 1.0

    @pytest.mark.parametrize("error", [TransportError, ProtocolError])
    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_endpoint_failure_is_an_invalid_trial(self, dataset9, tmp_path, error, concurrency):
        """An endpoint error fails its trial only: the run still logs every trial."""
        failing = make_trials(dataset9.entries, 2, 3, seed=4)[0].query_text

        class FailingOnce:
            def complete(self, seq):
                if seq.messages[-1].content.endswith(failing):
                    raise error("gave up after 4 attempts (HTTP 503)")
                return dataset9.entries[0].solution_text

        log = tmp_path / "trials.jsonl"
        report, records = run_benchmark(
            dataset9.entries, FailingOnce(), trials=2, context_size=3, seed=4,
            concurrency=concurrency, log_path=log,
        )
        assert [r.valid for r in records] == [False, True]
        assert records[0].reason == f"{error.__name__}: gave up after 4 attempts (HTTP 503)"
        assert len(log.read_text().splitlines()) == 2
        assert reaggregate_log(log, report.config).to_json() == report.to_json()

    def test_oracle_without_a_truth_fails_only_that_trial(self, dataset9, tmp_path):
        """An oracle holding half the truths fails the other half's trials and logs the run."""
        half = dict(list(dataset9.truth_map().items())[::2])
        log = tmp_path / "trials.jsonl"
        report, records = run_benchmark(
            dataset9.entries, replay_backend("oracle", half), trials=2, context_size=3,
            seed=0, log_path=log,
        )
        assert [r.valid for r in records] == [True, False]
        assert records[0].mse_gen <= 1e-12
        assert records[1].reason == "ProtocolError: oracle has no ground truth for this query"
        assert records[1].mse_gen is None and records[1].response_chars == 0
        assert len(log.read_text().splitlines()) == 2
        assert reaggregate_log(log, report.config).to_json() == report.to_json()

    def test_over_budget_prompt_fails_only_that_trial(self, dataset9, tmp_path):
        """A trial over max_chars is an invalid record, sent to no backend; the run goes on."""
        plan = make_trials(dataset9.entries, trials=2, context_size=2, seed=0)
        chars = [build_sequence(t.context, t.query_text).char_count() for t in plan]
        assert chars[0] < chars[1]
        oracle, sent = replay_backend("oracle", dataset9.truth_map()), []

        class Recording:
            def complete(self, seq):
                sent.append(seq)
                return oracle.complete(seq)

        log = tmp_path / "trials.jsonl"
        report, records = run_benchmark(
            dataset9.entries, Recording(), trials=2, context_size=2, seed=0,
            max_chars=chars[0], log_path=log,
        )
        assert [r.valid for r in records] == [True, False]
        assert len(sent) == 1
        assert records[1].reason == (
            f"SequenceError: sequence is {chars[1]} chars, budget is {chars[0]}"
        )
        assert records[1].mse_gen is None and records[1].response_chars == 0
        assert len(log.read_text().splitlines()) == 2
        assert reaggregate_log(log, report.config).to_json() == report.to_json()

    def test_rejected_credentials_abort_the_run(self, dataset9, tmp_path):
        class Unauthorized:
            def complete(self, seq):
                raise AuthError("endpoint rejected credentials (HTTP 401)")

        with pytest.raises(AuthError):
            run_benchmark(dataset9.entries, Unauthorized(), trials=2, context_size=3)

    def test_mismatched_solution_counts_invalid(self, dataset9, case30, tmp_path):
        from gridprompt.solvers import solve_opf
        from gridprompt.embedding import encode_solution

        wrong = encode_solution(solve_opf(case30))
        report, records = run_benchmark(
            dataset9.entries, FixedBackend(wrong), trials=2, context_size=2,
        )
        assert report.valid_fraction == 0.0
        assert "missing or invalid values" in records[0].reason

    @pytest.mark.parametrize("table, field, value, rows", [
        ("gen", "p_mw", 1e200, 1),  # its square is past the float range
        ("bus", "vm_pu", 1.3e154, 2),  # each square fits, their sum does not
    ])
    def test_out_of_range_reply_fails_only_its_trial(
        self, dataset9, tmp_path, table, field, value, rows
    ):
        doc = json.loads(encode_solution(dataset9.entries[0].solution))
        for row in doc[table][:rows]:
            row[field] = value
        log = tmp_path / "trials.jsonl"
        report, records = run_benchmark(
            dataset9.entries, FixedBackend(json.dumps(doc)), trials=2, context_size=2,
            log_path=log,
        )
        assert [r.reason for r in records] == [f"{table} error is not finite"] * 2
        assert report.valid_fraction == 0.0 and "Infinity" not in report.to_json()
        assert len(log.read_text().splitlines()) == 2

    def test_mean_of_finite_errors_stays_finite(self, dataset9, tmp_path):
        doc = json.loads(encode_solution(dataset9.entries[0].solution))
        doc["slack"][0]["p_mw"] = 1.3e156  # each trial's mse_slack fits, three of them do not sum
        log = tmp_path / "trials.jsonl"
        report, records = run_benchmark(
            dataset9.entries, FixedBackend(json.dumps(doc)), trials=3, context_size=1,
            log_path=log,
        )
        assert report.valid_fraction == 1.0
        assert all(r.mse_slack > 8e307 for r in records)
        assert np.isfinite(report.mean_mse_slack)
        assert min(r.mse_slack for r in records) <= report.mean_mse_slack
        assert report.mean_mse_slack <= max(r.mse_slack for r in records)
        assert "Infinity" not in report.to_json()
        assert reaggregate_log(log, report.config).to_json() == report.to_json()

    def test_sizing_error_before_any_request(self, dataset9):
        class Exploding:
            def complete(self, seq):
                raise AssertionError("should never be called")

        with pytest.raises(ValueError, match="solved entries"):
            run_benchmark(dataset9.entries, Exploding(), trials=10, context_size=65)

    def test_disjoint_partitions(self, dataset9):
        trials = make_trials(dataset9.entries, trials=4, context_size=4, seed=7)
        seen = set()
        for t in trials:
            texts = {g for g, _ in t.context} | {t.query_text}
            assert len(texts) == 5
            assert not (seen & texts)
            seen |= texts

    def test_reproducible_from_seed(self, dataset9):
        a = make_trials(dataset9.entries, 3, 4, seed=5)
        b = make_trials(dataset9.entries, 3, 4, seed=5)
        c = make_trials(dataset9.entries, 3, 4, seed=6)
        assert [t.query_text for t in a] == [t.query_text for t in b]
        assert [t.query_text for t in a] != [t.query_text for t in c]

    def test_log_reaggregation_matches(self, dataset9, tmp_path):
        log = tmp_path / "trials.jsonl"
        report, _ = run_benchmark(
            dataset9.entries, replay_backend("nearest_context"),
            trials=4, context_size=3, seed=2, log_path=log,
        )
        again = reaggregate_log(log, report.config)
        assert again.n_trials == report.n_trials
        assert again.valid_fraction == report.valid_fraction
        assert again.mean_mse_gen == report.mean_mse_gen
        assert again.mean_mse_bus == report.mean_mse_bus

    @pytest.mark.parametrize("bad, want", [
        ("not json", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        ('{"trial_id": 9, "valid": false}', "TypeError: TrialRecord.__init__() missing 5"),
        ("[1, 2]", "AttributeError: 'list' object has no attribute 'items'"),
    ], ids=["not_json", "missing_fields", "not_an_object"])
    def test_bad_log_line_is_named_by_file_and_line(self, dataset9, tmp_path, bad, want):
        log = tmp_path / "trials.jsonl"
        report, _ = run_benchmark(
            dataset9.entries, replay_backend("corrupt"), trials=2, context_size=2, log_path=log,
        )
        lines = log.read_text().splitlines()
        log.write_text("\n".join([lines[0], bad, lines[1]]) + "\n")
        with pytest.raises(ValueError) as info:
            reaggregate_log(log, report.config)
        assert str(info.value).startswith(f"{log}: line 2: {want}")

    def test_log_is_schema_tagged_jsonl(self, dataset9, tmp_path):
        log = tmp_path / "t.jsonl"
        run_benchmark(
            dataset9.entries, replay_backend("corrupt"), trials=3, context_size=2,
            log_path=log,
        )
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert json.loads(line)["schema"] == "gridprompt/trial/v1"

    def test_nearest_context_beats_nominal_baseline(self, dataset9, case9):
        """The metric discriminates: nearest-context < answering the base case."""
        from gridprompt.embedding import encode_solution
        from gridprompt.solvers import solve_opf

        # wide context: the nearest example is close enough to beat nominal
        nearest, _ = run_benchmark(
            dataset9.entries, replay_backend("nearest_context"),
            trials=1, context_size=15, seed=1,
        )
        nominal = FixedBackend(encode_solution(solve_opf(case9), decimals=12))
        baseline, _ = run_benchmark(
            dataset9.entries, nominal, trials=1, context_size=15, seed=1,
        )
        assert nearest.valid_fraction == 1.0 and baseline.valid_fraction == 1.0
        assert 0 < nearest.mean_mse_gen < baseline.mean_mse_gen
