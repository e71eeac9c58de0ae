import dataclasses
import json
import os
import subprocess
import sys

import pytest

from gridprompt.cli import main
from gridprompt.dataset_export import load_solved_dataset
from gridprompt.embedding import parse_solution_doc
from gridprompt.evaluation import make_trials, reaggregate_log
from gridprompt.matpower_io import load_case, write_matpower

from conftest import CASES_DIR

CASE9 = str(CASES_DIR / "case9.m")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_opf_solution_on_stdout(self, capsys, reference_case9):
        code, out, err = run_cli(capsys, "solve", CASE9, "--opf")
        assert code == 0
        doc = parse_solution_doc(out)
        assert len(doc.bus) == 9
        slack_p = doc.slack[0][1]
        assert abs(slack_p - reference_case9["opf"]["gen_p_mw"][0]) < 1.0

    def test_pf_solution(self, capsys, reference_case9):
        code, out, err = run_cli(capsys, "solve", CASE9, "--pf")
        assert code == 0
        doc = parse_solution_doc(out)
        assert doc.slack[0][1] == pytest.approx(
            reference_case9["pf"]["gen_p_mw"][0], abs=1e-2
        )

    def test_missing_file_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", "/nope/missing.m")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_pf_that_does_not_converge_exits_2(self, capsys, tmp_path):
        case = load_case(CASE9)
        heavy = case.with_loads(tuple(
            dataclasses.replace(ld, p_mw=8 * ld.p_mw, q_mvar=8 * ld.q_mvar) for ld in case.loads
        ))
        path = tmp_path / "heavy.m"
        path.write_text(write_matpower(heavy))
        code, out, err = run_cli(capsys, "solve", str(path), "--pf")
        assert (code, out, err) == (2, "", "error: power flow did not converge\n")

    def test_infeasible_case_exits_2_from_solve_and_gen(self, capsys, tmp_path):
        case = load_case(CASE9)
        weak = dataclasses.replace(case, generators=tuple(
            dataclasses.replace(g, p_max_mw=40.0) for g in case.generators
        ))
        path = tmp_path / "weak.m"
        path.write_text(write_matpower(weak))
        why = "infeasible: slack gen 0 P max over by 1.99e+00 pu"
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out, err) == (2, "", f"error: OPF infeasible ({why})\n")
        code, out, err = run_cli(capsys, "gen", str(path), "--out", str(tmp_path / "ds"))
        assert (code, out) == (2, "")
        assert err == (f"error: base case OPF is infeasible ({why}); "
                       "refusing to generate a dataset from it\n")


class TestGenBench:
    @pytest.fixture(scope="class")
    @staticmethod
    def dataset_dir(tmp_path_factory):
        out = tmp_path_factory.mktemp("cli_ds") / "ds"
        code = main(["gen", CASE9, "--n", "12", "--seed", "7",
                     "--format", "table", "--out", str(out)])
        assert code == 0
        return out

    def test_gen_layout(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert len(manifest["entries"]) == 12

    def test_gen_repeat_identical(self, capsys, tmp_path, dataset_dir):
        out2 = tmp_path / "ds2"
        code, _, _ = run_cli(capsys, "gen", CASE9, "--n", "12", "--seed", "7",
                             "--format", "table", "--out", str(out2))
        assert code == 0
        assert (out2 / "manifest.json").read_text() == (
            dataset_dir / "manifest.json"
        ).read_text()
        for i in json.loads((out2 / "manifest.json").read_text())["rejected"]:
            raise AssertionError(f"unexpected rejection {i}")
        for p in sorted((out2 / "embeddings").iterdir()):
            assert p.read_text() == (dataset_dir / "embeddings" / p.name).read_text()

    def test_gen_zero_halfwidth(self, capsys, tmp_path):
        out = tmp_path / "flat"
        code, _, _ = run_cli(capsys, "gen", CASE9, "--n", "3", "--halfwidth", "0",
                             "--out", str(out))
        assert code == 0
        texts = {(out / "scenarios" / f"{i}.m").read_text().split("\n", 1)[1]
                 for i in range(3)}
        assert len(texts) == 1  # identical but for the case name

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_gen_refuses_non_positive_n(self, capsys, tmp_path, n):
        out = tmp_path / "empty"
        code, stdout, err = run_cli(capsys, "gen", CASE9, "--n", n, "--out", str(out))
        assert code == 1
        assert stdout == "" and f"n must be >= 1, got {n}" in err
        assert not out.exists()

    def test_gen_refuses_a_directory_that_holds_files(self, capsys, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()  # an empty directory is fine
        code, _, _ = run_cli(capsys, "gen", CASE9, "--n", "3", "--seed", "0", "--out", str(out))
        assert code == 0
        first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        code, stdout, err = run_cli(capsys, "gen", CASE9, "--n", "2", "--seed", "1",
                                    "--out", str(out))
        assert code == 1
        assert stdout == "" and f"{out} is not empty" in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first

    def test_gen_refuses_a_negative_seed_before_writing(self, capsys, tmp_path):
        out = tmp_path / "ds"
        code, stdout, err = run_cli(capsys, "gen", CASE9, "--n", "2", "--seed", "-1",
                                    "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: seed must be >= 0, got -1\n")
        assert not out.exists()
        code, _, err = run_cli(capsys, "gen", CASE9, "--n", "2", "--seed", "0", "--out", str(out))
        assert code == 0, err  # the corrected rerun finds no leftovers in its way

    def test_bench_oracle(self, capsys, dataset_dir, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", str(dataset_dir), "--replay", "oracle",
            "--trials", "3", "--context", "3", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["valid_fraction"] == 1.0
        assert report["mean_mse_gen"] <= 1e-12
        assert (tmp_path / "trials.jsonl").exists()
        assert (tmp_path / "report.json").exists()

    def test_bench_rerun_rewrites_the_trial_log(self, capsys, dataset_dir, tmp_path):
        for seed in ("1", "2"):
            code, out, err = run_cli(
                capsys, "bench", str(dataset_dir), "--replay", "oracle", "--trials", "3",
                "--context", "3", "--seed", seed, "--out", str(tmp_path),
            )
            assert code == 0
        log = tmp_path / "trials.jsonl"
        assert len(log.read_text().splitlines()) == 3
        report_text = (tmp_path / "report.json").read_text()
        again = reaggregate_log(log, json.loads(report_text)["config"])
        assert again.to_json() + "\n" == report_text
        assert json.loads(report_text)["config"]["seed"] == 2

    def test_bench_report_records_the_prompt_budget(self, capsys, dataset_dir, tmp_path):
        for budget in (None, "1000000"):
            flags = () if budget is None else ("--max-chars", budget)
            code, out, err = run_cli(
                capsys, "bench", str(dataset_dir), "--replay", "oracle", "--trials", "2",
                "--context", "3", "--out", str(tmp_path), *flags,
            )
            assert code == 0
            report_text = (tmp_path / "report.json").read_text()
            config = json.loads(report_text)["config"]
            assert config["max_chars"] == (None if budget is None else int(budget))
            again = reaggregate_log(tmp_path / "trials.jsonl", config)
            assert again.to_json() + "\n" == report_text

    def test_bench_corrupt_exits_2(self, capsys, dataset_dir, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", str(dataset_dir), "--replay", "corrupt",
            "--trials", "3", "--context", "3", "--out", str(tmp_path),
        )
        assert code == 2
        assert json.loads(out)["valid_fraction"] == 0.0

    @pytest.mark.parametrize("concurrency", ["0", "-3"])
    def test_bench_refuses_non_positive_concurrency(
        self, capsys, dataset_dir, tmp_path, concurrency
    ):
        code, out, err = run_cli(
            capsys, "bench", str(dataset_dir), "--replay", "oracle", "--trials", "3",
            "--context", "3", "--concurrency", concurrency, "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert out == "" and f"concurrency must be >= 1, got {concurrency}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "trials must be >= 1, got 0"),
        ("--trials", "-2", "trials must be >= 1, got -2"),
        ("--context", "-1", "context_size must be >= 0, got -1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ], ids=["trials=0", "trials=-2", "context=-1", "seed=-1"])
    def test_bench_refuses_a_bad_trial_count_or_context(
        self, capsys, dataset_dir, tmp_path, flag, value, message
    ):
        sizes = {"--trials": "3", "--context": "3", flag: value}
        code, out, err = run_cli(
            capsys, "bench", str(dataset_dir), "--replay", "oracle",
            *(arg for pair in sizes.items() for arg in pair), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert out == "" and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        ((), "exactly one of --replay and --endpoint is required"),
        (("--replay", "oracle", "--endpoint", "http://127.0.0.1:1"), "exactly one of"),
        (("--endpoint", "ftp://x"), "base_url must be an http:// or https:// URL"),
    ], ids=["no-backend", "both-backends", "ftp-endpoint"])
    def test_bench_refuses_before_making_its_out_directory(
        self, capsys, dataset_dir, tmp_path, flags, message
    ):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "bench", str(dataset_dir), *flags,
                                    "--trials", "3", "--context", "3", "--out", str(out))
        assert code == 1
        assert stdout == "" and message in err
        assert not out.exists()

    def test_bench_requires_backend_choice(self, capsys, dataset_dir):
        code, out, err = run_cli(capsys, "bench", str(dataset_dir))
        assert code == 1
        assert "replay" in err and "endpoint" in err

    def test_export_ft(self, capsys, dataset_dir):
        code, out, err = run_cli(capsys, "export-ft", str(dataset_dir))
        assert code == 0
        info = json.loads(out)
        assert info["lines"] == 12
        assert (dataset_dir / "finetune.jsonl").exists()
        assert (dataset_dir / "finetune_config.json").exists()

    def test_export_ft_reads_the_model_from_the_config(self, capsys, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "llama-3"}))
        sidecar = dataset_dir / "finetune_config.json"
        for flags, want in (((), "llama-3"), (("--model", "m1"), "m1")):  # the flag wins
            code, _, err = run_cli(capsys, "--config", str(cfg), "export-ft",
                                   str(dataset_dir), *flags)
            assert code == 0, err
            assert json.loads(sidecar.read_text())["base_model"] == want

    def test_bench_and_export_read_only_the_query_truths(self, capsys, tmp_path):
        """Corrupt non-query truths change no output; a corrupt query truth is named."""
        ds = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "gen", CASE9, "--n", "12", "--seed", "11",
                             "--format", "table", "--out", str(ds))
        assert code == 0
        sizes = ("--trials", "3", "--context", "3", "--seed", "5")

        def outputs(tag, concurrency):
            got = {}
            for mode in ("nearest_context", "oracle"):
                out = tmp_path / f"{tag}-{mode}"
                code, _, err = run_cli(capsys, "bench", str(ds), "--replay", mode, *sizes,
                                       "--concurrency", concurrency, "--out", str(out))
                assert code == 0, err
                got[mode, "trials"] = [
                    {k: v for k, v in json.loads(line).items() if k != "latency_ms"}
                    for line in (out / "trials.jsonl").read_text().splitlines()
                ]
                got[mode, "report"] = (out / "report.json").read_text().replace(
                    f'"concurrency": {concurrency}', '"concurrency": 1')
            assert run_cli(capsys, "export-ft", str(ds))[0] == 0
            got["finetune"] = (ds / "finetune.jsonl").read_text()
            return got

        clean = outputs("clean", "1")
        entries = load_solved_dataset(ds).entries
        plan = make_trials(entries, 3, 3, seed=5)
        queries = {t.query_text for t in plan}
        truth = {e.grid_text: ds / "truth" / f"{e.index}.json" for e in entries}
        for e in entries:
            if e.grid_text not in queries:
                if e.index % 2:
                    truth[e.grid_text].unlink()
                else:
                    truth[e.grid_text].write_text('{"gen": [[0, 1.5')
        assert len(list((ds / "truth").iterdir())) < len(entries)
        assert outputs("corrupt-serial", "1") == clean
        assert outputs("corrupt-threads", "4") == clean

        bad = truth[plan[1].query_text]
        bad.write_text("{not json")
        for mode in ("nearest_context", "oracle"):
            code, out, err = run_cli(capsys, "bench", str(ds), "--replay", mode, *sizes,
                                     "--out", str(tmp_path / f"bad-{mode}"))
            assert code == 1
            assert out == "" and err.startswith("error: ") and str(bad) in err
            assert not (tmp_path / f"bad-{mode}" / "trials.jsonl").exists()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "seed": 4, "halfwidth": 0.1}))
        out = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "--config", str(cfg), "gen", CASE9,
                             "--n", "5", "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["entries"]) == 5  # flag beat config
        assert manifest["mutation"]["seed"] == 4
        assert manifest["mutation"]["relative_halfwidth"] == 0.1

    def test_config_takes_an_integer_halfwidth_and_a_null_budget(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "halfwidth": 0, "max_chars": None}))
        out = tmp_path / "ds"
        code, _, err = run_cli(capsys, "--config", str(cfg), "gen", CASE9, "--out", str(out))
        assert code == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert repr(manifest["mutation"]["relative_halfwidth"]) == "0.0"  # as --halfwidth 0 writes

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"banana": 1}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "gen", CASE9)
        assert code == 1
        assert "unknown config keys" in err


class TestBenchHttp:
    def test_bench_against_mock_endpoint(self, capsys, tmp_path):
        import threading
        from http.server import HTTPServer

        from test_http_client import MockHandler

        out_ds = tmp_path / "ds"
        assert main(["gen", CASE9, "--n", "8", "--seed", "3", "--out", str(out_ds)]) == 0
        capsys.readouterr()

        MockHandler.script = []
        MockHandler.requests_seen = []
        MockHandler.reply_content = "no json in this reply"
        server = HTTPServer(("127.0.0.1", 0), MockHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            code, out, err = run_cli(
                capsys, "bench", str(out_ds),
                "--endpoint", f"http://127.0.0.1:{server.server_port}",
                "--trials", "2", "--context", "2", "--out", str(tmp_path / "rep"),
            )
        finally:
            server.shutdown()
            server.server_close()
            MockHandler.reply_content = "mock reply"
        assert code == 2  # replies carried no JSON -> all invalid
        log = (tmp_path / "rep" / "trials.jsonl").read_text().splitlines()
        assert len(log) == 2
        assert len(MockHandler.requests_seen) == 2


# Run the CLI in a fresh interpreter where importing scipy or requests fails.
WITHOUT_SCIPY_AND_REQUESTS = (
    "import sys\n"
    "sys.modules['scipy'] = sys.modules['requests'] = None\n"
    "from gridprompt.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def subprocess_env(**extra) -> dict:
    """This environment, with extra variables and gridprompt's source on PYTHONPATH."""
    src = str(CASES_DIR.parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def assert_same_files(a, b):
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files and files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_runs_without_scipy_and_requests(capsys, tmp_path):
    """solve, gen, bench --replay, bench --endpoint and export-ft need neither scipy nor
    requests, and gen writes the same bytes as a run that may import them."""
    env = subprocess_env()

    def blocked(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY_AND_REQUESTS, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)

    ds, unblocked = tmp_path / "ds", tmp_path / "unblocked"
    blocked("solve", CASE9)
    blocked("gen", CASE9, "--n", "3", "--seed", "0", "--out", str(ds))
    assert run_cli(capsys, "gen", CASE9, "--n", "3", "--seed", "0", "--out", str(unblocked))[0] == 0
    assert_same_files(ds, unblocked)
    for mode in ("oracle", "nearest_context"):
        blocked("bench", str(ds), "--replay", mode, "--trials", "1", "--context", "2",
                "--out", str(tmp_path / mode))
    blocked("export-ft", str(ds))

    import threading
    from http.server import HTTPServer

    from test_http_client import MockHandler

    truth = load_solved_dataset(ds).truth_map()
    MockHandler.script, MockHandler.requests_seen = [], []
    MockHandler.reply_content = truth[next(iter(truth))]  # a valid, if wrong, answer
    server = HTTPServer(("127.0.0.1", 0), MockHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        blocked("bench", str(ds), "--endpoint", f"http://127.0.0.1:{server.server_port}",
                "--trials", "1", "--context", "2", "--out", str(tmp_path / "http"))
    finally:
        server.shutdown()
        server.server_close()
        MockHandler.reply_content = "mock reply"
    assert len(MockHandler.requests_seen) == 1


def case9_with_comment(path, comment: bytes) -> str:
    path.write_bytes(comment + b"\n" + (CASES_DIR / "case9.m").read_bytes())
    return str(path)


def test_files_are_read_as_utf8_under_an_ascii_locale(capsys, tmp_path):
    """Under the C locale with UTF-8 mode off, a UTF-8 case file and config file are
    read as UTF-8, and gen writes the same bytes as a run in this process."""
    env = subprocess_env(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    case = case9_with_comment(tmp_path / "case9.m", "% contributed by José".encode())
    cfg = tmp_path / "run.json"
    cfg.write_bytes(json.dumps({"n": 2, "model": "José"}, ensure_ascii=False).encode())

    def ascii_locale(*argv):
        proc = subprocess.run([sys.executable, "-m", "gridprompt.cli", *argv],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.decode()

    assert ascii_locale("solve", case) == run_cli(capsys, "solve", CASE9)[1]
    ascii_locale("--config", str(cfg), "gen", case, "--out", str(tmp_path / "ascii"))
    assert run_cli(capsys, "--config", str(cfg), "gen", case, "--out", str(tmp_path / "here"))[0] == 0
    assert_same_files(tmp_path / "ascii", tmp_path / "here")


def test_case_file_that_is_not_utf8_is_refused_by_name(capsys, tmp_path):
    case = case9_with_comment(tmp_path / "case9.m", b"% contributed by Jos\xe9")
    code, out, err = run_cli(capsys, "solve", case)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {case}: 'utf-8' codec can't decode byte 0xe9 in position 20")


@pytest.mark.parametrize("row, edited, want", [
    ("1\t3\t0\t0", "1\t3\tx\t0", "MatpowerParseError: {}: line 15: 'x' in mpc.bus is not a number"),
    ("2\t2\t0\t0", "2\t1\t0\t0", "GridError: {}: pq bus 2 has a machine"),
], ids=["bad_number", "pq_bus_with_machine"])
def test_case_file_errors_name_the_file(capsys, tmp_path, row, edited, want):
    text = (CASES_DIR / "case9.m").read_text()
    assert text.count(f"\n\t{row}\t") == 1
    case = tmp_path / "case9.m"
    case.write_text(text.replace(f"\n\t{row}\t", f"\n\t{edited}\t"))
    code, out, err = run_cli(capsys, "solve", str(case))
    assert (code, out, err) == (1, "", f"error: {want.format(case)}\n")


@pytest.mark.parametrize("text, want", [
    ('{"seed": 1,\n', "Expecting property name enclosed in double quotes: line 2 column 1 (char 12)"),
    ('{"banana": 1}', "unknown config keys: ['banana']"),
    ('"n"', "the config is not a JSON object"),
    ("[[1]]", "the config is not a JSON object"),
    ("null", "the config is not a JSON object"),
    ('{"n": "abc"}', "config key 'n' must be an integer, got \"abc\""),
    ('{"trials": 2.7}', "config key 'trials' must be an integer, got 2.7"),
    ('{"seed": true}', "config key 'seed' must be an integer, got true"),
    ('{"max_chars": "9"}', "config key 'max_chars' must be an integer or null, got \"9\""),
    ('{"halfwidth": "0.1"}', "config key 'halfwidth' must be a number, got \"0.1\""),
    ('{"model": 3}', "config key 'model' must be a string, got 3"),
], ids=["truncated", "unknown_key", "string", "list", "null", "int_as_string", "int_as_float",
        "int_as_bool", "int_or_null_as_string", "number_as_string", "string_as_int"])
def test_config_file_errors_name_the_file(capsys, tmp_path, text, want):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(cfg), "gen", CASE9, "--out", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: {cfg}: {want}\n")
