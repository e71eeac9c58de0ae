import numpy as np
import pytest

from gridprompt.embedding import EmbeddingFormat, embed_grid, encode_solution, parse_grid
from gridprompt.grid_model import to_hetero
from gridprompt.llm_protocol import (
    SYSTEM_PROMPT,
    ChatMessage,
    PromptSequence,
    SequenceError,
    _load_vector,
    build_sequence,
    replay_backend,
    validate_sequence,
)
from gridprompt.scenario_gen import MutationSpec, mutate
from gridprompt.solvers import solve_opf

EXPECTED_SYSTEM_PROMPT = (
    "You are a power grid operator running an Optimal Power Flow simulation, "
    "and you need to return a JSON-formatted response based on the provided "
    "input JSON. The input is the description of the components of the grid, "
    "including the buses, generators, loads, lines, and external grid. The "
    "output is the solution to the optimal power flow problem. You will get a "
    "few examples of Input and Output JSON. You need to return the correct "
    "Output for the last given Input."
)


class TestBuildSequence:
    def test_system_prompt_is_fixed_verbatim(self):
        assert SYSTEM_PROMPT == EXPECTED_SYSTEM_PROMPT

    def test_65_pairs_gives_132_messages(self):
        ctx = [(f"grid{i}", f"sol{i}") for i in range(65)]
        seq = build_sequence(ctx, "query-grid")
        assert len(seq.messages) == 132
        validate_sequence(seq)

    def test_empty_context(self):
        seq = build_sequence([], "query-grid")
        assert len(seq.messages) == 2
        assert [m.role for m in seq.messages] == ["system", "user"]
        validate_sequence(seq)

    def test_one_pair_structure(self):
        seq = build_sequence([("g", "s")], "q")
        assert [m.role for m in seq.messages] == ["system", "user", "assistant", "user"]
        assert seq.messages[0].content == SYSTEM_PROMPT
        assert seq.messages[1].content == "Example Input JSON: g"
        assert seq.messages[2].content == "Example Output JSON: s"
        assert seq.messages[3].content == "Query Input JSON: q"

    def test_context_pairs_recoverable(self):
        ctx = [("g1", "s1"), ("g2", "s2")]
        seq = build_sequence(ctx, "q")
        assert seq.context_pairs() == ctx
        assert seq.query_text == "q"

    def test_char_budget_rejected_before_network(self):
        with pytest.raises(SequenceError, match="budget"):
            build_sequence([("x" * 100, "y" * 100)], "q", max_chars=150)

    def test_char_count(self):
        seq = build_sequence([], "q")
        assert seq.char_count() == len(SYSTEM_PROMPT) + len("Query Input JSON: q")


class TestValidateSequence:
    def test_rejects_missing_system(self):
        seq = PromptSequence((ChatMessage("user", "q"), ChatMessage("user", "q")))
        with pytest.raises(SequenceError, match="system"):
            validate_sequence(seq)

    def test_rejects_trailing_assistant(self):
        seq = PromptSequence(
            (ChatMessage("system", "s"), ChatMessage("user", "u"),
             ChatMessage("assistant", "a"), ChatMessage("assistant", "a"))
        )
        with pytest.raises(SequenceError):
            validate_sequence(seq)

    def test_rejects_broken_alternation(self):
        seq = PromptSequence(
            (ChatMessage("system", "s"), ChatMessage("assistant", "a"),
             ChatMessage("user", "u"), ChatMessage("user", "q"))
        )
        with pytest.raises(SequenceError, match="message 1"):
            validate_sequence(seq)

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_odd_message_count(self, count):
        roles = ["system", "user", "assistant"][:count]
        seq = PromptSequence(tuple(ChatMessage(role, "m") for role in roles))
        with pytest.raises(SequenceError) as err:
            validate_sequence(seq)
        assert str(err.value) == f"expected an even message count >= 2, got {count}"

    def test_rejects_unknown_role(self):
        with pytest.raises(SequenceError) as err:
            ChatMessage("tool", "t")
        assert str(err.value) == "unknown role 'tool'"

    def test_rejects_empty_content(self):
        with pytest.raises(SequenceError, match="empty"):
            ChatMessage("user", "")


class TestReplayBackends:
    @pytest.fixture(scope="class")
    @staticmethod
    def solved_pairs(case9):
        fmt = EmbeddingFormat("table")
        pairs = []
        for i in range(4):
            scenario = mutate(case9, MutationSpec(0.2, seed=5), i)
            sol = solve_opf(scenario)
            pairs.append((embed_grid(to_hetero(scenario), fmt), encode_solution(sol)))
        return pairs

    def test_oracle_returns_stored_truth(self, solved_pairs):
        truth = {g: s for g, s in solved_pairs}
        backend = replay_backend("oracle", truth)
        seq = build_sequence(solved_pairs[:3], solved_pairs[3][0])
        assert backend.complete(seq) == solved_pairs[3][1]

    def test_oracle_requires_truth_map(self):
        with pytest.raises(ValueError):
            replay_backend("oracle")

    def test_corrupt_has_no_json(self):
        backend = replay_backend("corrupt")
        seq = build_sequence([], "q")
        assert "{" not in backend.complete(seq)

    def test_nearest_context_zero_distance_is_verbatim(self, solved_pairs):
        backend = replay_backend("nearest_context")
        # query equals context example 1 -> its solution comes back verbatim
        seq = build_sequence(solved_pairs[:3], solved_pairs[1][0])
        assert backend.complete(seq) == solved_pairs[1][1]

    @pytest.mark.parametrize("where", ["the query", "example 1"])
    @pytest.mark.parametrize("damage, why", [
        ('{"schema":"gridprompt/v1","kind":"graph"}', "ValueError('substring not found')"),
        ('{"load": []}', "JSONDecodeError"),
        ('{"load":[{"id":0,"p_mw":1.0}]}', "KeyError('q_mvar')"),
        ('{"load":[{"id":0,"p_mw":"one","q_mvar":1.0}]}', "ValueError"),
        ('{"load":{"id":0}}', "TypeError"),
    ], ids=["no-load-table", "not-canonical", "missing-field", "not-a-number", "not-a-list"])
    def test_nearest_context_refuses_a_grid_it_cannot_read(self, solved_pairs, where, damage, why):
        context = list(solved_pairs[:3])
        query = solved_pairs[3][0]
        if where == "the query":
            query = damage
        else:
            context[1] = (damage, context[1][1])
        with pytest.raises(SequenceError) as err:
            replay_backend("nearest_context").complete(build_sequence(context, query))
        assert str(err.value).startswith(f"nearest_context found no load table in {where}: {why}")

    @pytest.mark.parametrize("keep", [1, 2], ids=["one-load", "two-loads"])
    def test_nearest_context_refuses_an_example_with_another_load_count(self, solved_pairs, keep):
        # one load would broadcast against the query's three and give a wrong distance
        grid = parse_grid(solved_pairs[0][0])
        grid["load"] = grid["load"][:keep]
        context = [solved_pairs[1], (embed_grid(grid, EmbeddingFormat("table")), solved_pairs[0][1])]
        seq = build_sequence(context, solved_pairs[3][0])
        with pytest.raises(SequenceError) as err:
            replay_backend("nearest_context").complete(seq)
        assert str(err.value) == f"example 1 has {keep} loads, the query 3"

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown replay mode"):
            replay_backend("telepathy")


@pytest.mark.parametrize("decimals", [2, 4, 6])
@pytest.mark.parametrize("kind", ["graph", "table"])
@pytest.mark.parametrize("case_name", ["case9", "case30"])
def test_load_vector_equals_the_full_parse(request, case_name, kind, decimals):
    case = request.getfixturevalue(case_name)
    fmt = EmbeddingFormat(kind, decimals)
    for i in range(3):
        text = embed_grid(to_hetero(mutate(case, MutationSpec(0.2, seed=11), i)), fmt)
        loads = sorted(parse_grid(text)["load"], key=lambda r: r["id"])
        want = np.array([(r["p_mw"], r["q_mvar"]) for r in loads])
        got = _load_vector(text, "the query")
        assert got.shape == (len(case.loads), 2) and got.dtype == np.float64
        assert np.array_equal(got, want)
