import dataclasses
import filecmp
import json
import re
import shutil

import pytest

from gridprompt import dataset_export
from gridprompt.dataset_export import (
    MAX_LINE_CHARS,
    DatasetError,
    SolvedDataset,
    build_solved_dataset,
    export_finetune_jsonl,
    load_solved_dataset,
)
from gridprompt.embedding import EmbeddingFormat, encode_solution, parse_solution_doc
from gridprompt.evaluation import make_trials, run_benchmark, score
from gridprompt.llm_protocol import SYSTEM_PROMPT, build_sequence, replay_backend
from gridprompt.scenario_gen import MutationSpec


@pytest.fixture(scope="module")
def dataset9(case9, tmp_path_factory):
    return build_solved_dataset(
        case9, MutationSpec(0.2, seed=17), 15, EmbeddingFormat("table"),
        tmp_path_factory.mktemp("ds"),
    )


class TestBuildSolvedDataset:
    def test_entry_count_and_layout(self, dataset9):
        assert len(dataset9) == 15
        root = dataset9.root
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["schema"] == "gridprompt/dataset/v1"
        assert len(manifest["entries"]) == 15
        for meta in manifest["entries"]:
            i = meta["index"]
            for sub, ext in (("scenarios", "m"), ("embeddings", "json"),
                             ("solutions", "json"), ("truth", "json")):
                assert (root / sub / f"{i}.{ext}").exists()

    def test_deterministic_bytes_across_runs(self, case9, tmp_path):
        spec = MutationSpec(0.2, seed=99)
        a = build_solved_dataset(case9, spec, 8, EmbeddingFormat("graph"), tmp_path / "a")
        b = build_solved_dataset(case9, spec, 8, EmbeddingFormat("graph"), tmp_path / "b")
        cmp = filecmp.dircmp(a.root, b.root)

        def assert_same(d):
            assert not d.diff_files and not d.left_only and not d.right_only
            for sub in d.subdirs.values():
                assert_same(sub)

        assert_same(cmp)

    def test_reload_matches(self, dataset9):
        again = load_solved_dataset(dataset9.root)
        assert len(again) == len(dataset9)
        for x, y in zip(dataset9.entries, again.entries):
            assert x.grid_text == y.grid_text
            assert x.solution_text == y.solution_text
            assert x.solution == y.solution

    def test_loaded_case_is_parsed_on_first_use(self, dataset9):
        again = load_solved_dataset(dataset9.root)
        for x, y in zip(dataset9.entries, again.entries):
            assert "case" not in vars(y)
            assert y.case == x.case
            assert y.case is y.case

    def test_solutions_are_feasible(self, dataset9):
        for e in dataset9.entries:
            assert e.solution.feasible
            assert e.solution.max_violation_pu <= 1e-4

    def test_infeasible_base_case_aborts(self, case9, tmp_path):
        crippled = dataclasses.replace(
            case9,
            generators=tuple(
                dataclasses.replace(g, p_max_mw=40.0, p_mw=min(g.p_mw, 40.0))
                for g in case9.generators
            ),
        )
        with pytest.raises(DatasetError, match="base case OPF is infeasible"):
            build_solved_dataset(
                crippled, MutationSpec(0.2, seed=0), 3, EmbeddingFormat("table"),
                tmp_path / "bad",
            )

    def test_infeasible_draw_is_recorded_and_replaced(self, case30, tmp_path):
        """case30's draw 0 under seed 0 overloads line 9: it gets a rejected/ record and
        no entry files, and draws 1 and 2 make up the two entries."""
        ds = build_solved_dataset(case30, MutationSpec(0.2, seed=0), 2, EmbeddingFormat(),
                                  tmp_path / "ds")
        assert ds.rejected == [0] and [e.index for e in ds.entries] == [1, 2]
        doc = json.loads((ds.root / "rejected" / "0.json").read_text())
        assert sorted(doc) == ["index", "max_violation_pu", "reason"] and doc["index"] == 0
        assert doc["reason"].startswith("infeasible: line 9 (6-8) from-end rating over by")
        for sub, ext in (("scenarios", "m"), ("embeddings", "json"),
                         ("solutions", "json"), ("truth", "json")):
            assert not (ds.root / sub / f"0.{ext}").exists()

    def test_draws_are_capped(self, case9, tmp_path, monkeypatch):
        """With every warm draw rejected, n=1 stops after max(3n, n+10) = 11 draws."""
        base = dataset_export.solve_opf(case9)
        draws = []

        def reject_warm(case, opts=None):
            if opts is None:
                return base
            draws.append(case)
            return dataclasses.replace(base, feasible=False, message="infeasible: forced")

        monkeypatch.setattr(dataset_export, "solve_opf", reject_warm)
        with pytest.raises(DatasetError, match=r"^only 0 feasible scenarios after 11 draws$"):
            build_solved_dataset(case9, MutationSpec(0.2, seed=0), 1, EmbeddingFormat(),
                                 tmp_path / "ds")
        assert len(draws) == 11
        assert len(list((tmp_path / "ds" / "rejected").iterdir())) == 11

    def test_rounded_context_scores_within_rounding(self, dataset9, case9):
        # assistant text parses back and scores ~0 against stored truth
        for e in dataset9.entries[:5]:
            pred = parse_solution_doc(e.solution_text)
            mse_gen, mse_slack, mse_bus = score(pred, e.solution, case9.base_mva)
            rounding = (0.5 * 10 ** -4) ** 2  # 4 decimals
            assert mse_gen <= rounding and mse_slack <= rounding and mse_bus <= rounding


class TestExportFinetune:
    def test_jsonl_lines_parse_independently(self, dataset9):
        path = export_finetune_jsonl(dataset9)
        lines = path.read_text().splitlines()
        assert len(lines) == len(dataset9)
        for line in lines:
            doc = json.loads(line)
            roles = [m["role"] for m in doc["messages"]]
            assert roles == ["system", "user", "assistant"]

    def test_line_is_a_prompts_system_message_and_one_example(self, dataset9):
        """The fine-tuning transcript is the in-context one: system message, then the
        entry as an example pair, as build_sequence writes it."""
        path = export_finetune_jsonl(dataset9)
        for e, line in zip(dataset9.entries, path.read_text().splitlines(), strict=True):
            prompt = build_sequence([(e.grid_text, e.solution_text)], "query")
            assert json.loads(line) == {"messages": prompt.chat()[:3]}

    def test_system_prompt_byte_exact(self, dataset9):
        path = export_finetune_jsonl(dataset9)
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            assert doc["messages"][0]["content"] == SYSTEM_PROMPT

    def test_sidecar_defaults(self, dataset9):
        path = export_finetune_jsonl(dataset9)
        assert path.with_name("finetune_config.json").read_text() == (
            '{\n "alpha": 16.0,\n "base_model": "",\n "notes": "",\n "rank": 8\n}'
        )

    def test_assistant_text_round_trips(self, dataset9, case9):
        path = export_finetune_jsonl(dataset9)
        line = json.loads(path.read_text().splitlines()[0])
        text = line["messages"][2]["content"]
        assert text.startswith("Example Output JSON: ")
        pred = parse_solution_doc(text)
        assert len(pred.bus) == case9.n_bus

    def test_line_budget_enforced(self, dataset9, tmp_path):
        """A line of exactly MAX_LINE_CHARS is written; one char more is refused."""
        e = dataset9.entries[0]
        short = export_finetune_jsonl(SolvedDataset(tmp_path, [e])).read_text()

        def padded(extra):  # e's line at MAX_LINE_CHARS + extra chars
            text = e.grid_text + " " * (MAX_LINE_CHARS - len(short) + 1 + extra)
            return SolvedDataset(tmp_path, [dataclasses.replace(e, grid_text=text)])

        assert len(export_finetune_jsonl(padded(0)).read_text()) == MAX_LINE_CHARS + 1  # + "\n"
        with pytest.raises(DatasetError, match=f"is {MAX_LINE_CHARS + 1} chars, budget is"):
            export_finetune_jsonl(padded(1))


@pytest.fixture
def dataset9_copy(dataset9, tmp_path):
    root = tmp_path / "ds"
    shutil.copytree(dataset9.root, root)
    return root


@pytest.fixture
def count_parses(monkeypatch):
    parsed = []
    real = dataset_export.parse_matpower

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(dataset_export, "parse_matpower", counting)
    return parsed


class TestLazyScenarios:
    def test_load_and_export_read_no_scenario(self, dataset9, dataset9_copy, count_parses):
        shutil.rmtree(dataset9_copy / "scenarios")
        shutil.rmtree(dataset9_copy / "truth")
        ds = load_solved_dataset(dataset9_copy)
        assert len(ds.truth_map()) == len(ds)
        path = export_finetune_jsonl(ds)
        intact = export_finetune_jsonl(dataset9, dataset9_copy / "intact.jsonl")
        assert path.read_text() == intact.read_text()
        assert count_parses == []
        missing = str(ds.entries[0].scenario_path)
        with pytest.raises(DatasetError, match=f"^{re.escape(missing)}: No such file"):
            ds.entries[0].case

    def test_bench_parses_one_scenario_per_trial(self, dataset9_copy, count_parses, case9):
        trials, context, seed = 3, 4, 2
        first = load_solved_dataset(dataset9_copy)
        queries = {t.query_text for t in make_trials(first.entries, trials, context, seed)}
        for e in first.entries:
            if e.grid_text not in queries:
                (dataset9_copy / "scenarios" / f"{e.index}.m").unlink()
        assert len(list((dataset9_copy / "scenarios").iterdir())) == trials
        del count_parses[:]

        ds = load_solved_dataset(dataset9_copy)
        assert count_parses == []
        plan = make_trials(ds.entries, trials, context, seed)
        assert len(count_parses) == trials
        assert [t.base_mva for t in plan] == [case9.base_mva] * trials
        make_trials(ds.entries, trials, context, seed)
        assert len(count_parses) == trials  # cached on the entries

        fresh = load_solved_dataset(dataset9_copy)
        report, records = run_benchmark(
            fresh.entries, replay_backend("oracle", fresh.truth_map()),
            trials=trials, context_size=context, seed=seed, concurrency=1,
        )
        assert len(count_parses) == 2 * trials
        assert report.valid_fraction == 1.0
        assert report.mean_mse_gen <= 1e-12

    def test_malformed_query_scenario_named_on_first_use(self, dataset9_copy):
        ds = load_solved_dataset(dataset9_copy)
        query = make_trials(ds.entries, 1, 4, seed=0)[0].query_text
        bad = next(e for e in ds.entries if e.grid_text == query)
        bad.scenario_path.write_text("function mpc = broken\nmpc.version = '2';\n")
        ds = load_solved_dataset(dataset9_copy)
        with pytest.raises(DatasetError, match=re.escape(str(bad.scenario_path))):
            make_trials(ds.entries, 1, 4, seed=0)


def v1(fields: str) -> str:
    """A manifest of the current schema with the given JSON fields."""
    return '{"schema": "gridprompt/dataset/v1", ' + fields + "}"


@pytest.mark.parametrize("text", [
    "{not json", "[]", v1('"rejected": []'), v1('"entries": []'),
    v1('"entries": [{}], "rejected": []'), v1('"entries": [], "rejected": 3'), None,
    v1('"entries": [{"index": true}], "rejected": []'),
    v1('"entries": [{"index": "3"}], "rejected": []'),
    v1('"entries": [{"index": "../truth/0"}], "rejected": []'),
    v1('"entries": [{"index": 2.0}], "rejected": []'),
    v1('"entries": [{"index": -1}], "rejected": []'),
    v1('"entries": [{"index": 1}, {"index": 2}, {"index": 1}], "rejected": []'),
    '{"entries": [], "rejected": []}',
    '{"schema": "gridprompt/dataset/v0", "entries": [], "rejected": []}',
], ids=["not-json", "list", "no-entries", "no-rejected", "no-index", "rejected-not-a-list",
        "missing", "index-bool", "index-str", "index-path", "index-float", "index-negative",
        "index-repeated", "no-schema", "schema-v0"])
def test_bad_manifest_named(dataset9_copy, text):
    path = dataset9_copy / "manifest.json"
    if text is None:
        path.unlink()
    else:
        path.write_text(text)
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: "):
        load_solved_dataset(dataset9_copy)


@pytest.mark.parametrize("schema, detail", [
    (None, "KeyError: 'schema'"),
    ("gridprompt/dataset/v0", "schema 'gridprompt/dataset/v0' is not gridprompt/dataset/v1"),
])
def test_manifest_of_another_schema_refused(dataset9_copy, schema, detail):
    """A dataset that another version wrote is refused before any entry is read,
    naming the manifest and the schema found there."""
    path = dataset9_copy / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest.pop("schema")
    if schema is not None:
        manifest["schema"] = schema
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError) as err:
        load_solved_dataset(dataset9_copy)
    assert str(err.value) == f"{path}: {detail}"


@pytest.mark.parametrize("sub", ["embeddings", "solutions"])
@pytest.mark.parametrize("damage", ["missing", "undecodable"])
def test_bad_entry_text_named_at_load(dataset9_copy, sub, damage):
    index = json.loads((dataset9_copy / "manifest.json").read_text())["entries"][3]["index"]
    path = dataset9_copy / sub / f"{index}.json"
    if damage == "missing":
        path.unlink()
    else:
        path.write_bytes(b'{"bus": "\xff\xfe"}')
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: "):
        load_solved_dataset(dataset9_copy)


class TestLazyTruth:
    def test_build_and_load_read_truth_on_first_use(self, case9, tmp_path):
        built = build_solved_dataset(
            case9, MutationSpec(0.2, seed=5), 2, EmbeddingFormat("table"), tmp_path / "ds",
        )
        loaded = load_solved_dataset(f"{built.root}/")
        for x, y in zip(built.entries, loaded.entries):
            assert "solution" not in vars(x) and "solution" not in vars(y)
            assert x.truth_path == y.truth_path == built.root / "truth" / f"{x.index}.json"
            assert x.scenario_path == y.scenario_path == built.root / "scenarios" / f"{x.index}.m"
            assert y.solution == x.solution and y.solution.feasible
            assert y.solution is y.solution

    def test_load_and_export_read_no_truth(self, dataset9_copy):
        shutil.rmtree(dataset9_copy / "truth")
        ds = load_solved_dataset(dataset9_copy)
        truth = ds.truth_map()
        assert len(truth) == len(ds) and list(truth) == [e.grid_text for e in ds.entries]
        assert all(e.grid_text in truth for e in ds.entries) and "no such grid" not in truth
        path = export_finetune_jsonl(ds)
        assert len(path.read_text().splitlines()) == len(ds)
        assert not any("solution" in vars(e) for e in ds.entries)

    def test_truth_map_reads_only_the_entries_looked_up(self, dataset9_copy):
        ds = load_solved_dataset(dataset9_copy)
        truth = ds.truth_map()
        with pytest.raises(TypeError):
            truth["x"] = "y"  # read-only
        with pytest.raises(KeyError):
            truth["no such grid"]
        picked = ds.entries[3]
        assert truth[picked.grid_text] == encode_solution(picked.solution, decimals=12)
        assert [e.index for e in ds.entries if "solution" in vars(e)] == [picked.index]
        assert dict(truth.items()) == {
            e.grid_text: encode_solution(e.solution, decimals=12) for e in ds.entries
        }

    @pytest.mark.parametrize("text", [
        None, "", "{not json", '{"gen": []}', "[1, 2]", '{"gen": [[1, 2]], "slack": [0], "bus": []}',
    ], ids=["missing", "empty", "not-json", "no-slack", "list", "short-rows"])
    def test_bad_truth_named_on_first_use(self, dataset9_copy, text):
        ds = load_solved_dataset(dataset9_copy)
        bad = ds.entries[2]
        if text is None:
            bad.truth_path.unlink()
        else:
            bad.truth_path.write_text(text)
        ds = load_solved_dataset(dataset9_copy)
        with pytest.raises(DatasetError, match=re.escape(str(bad.truth_path))):
            ds.entries[2].solution
        with pytest.raises(DatasetError, match=re.escape(str(bad.truth_path))):
            ds.truth_map()[bad.grid_text]
        assert ds.entries[1].solution.feasible
