"""Power-grid scenario generation, AC-OPF ground truth, and LLM OPF benchmarking."""

from .grid_model import (
    Bus,
    BusKind,
    Generator,
    GridCase,
    GridError,
    Line,
    Load,
    admittance_matrix,
    from_hetero,
    to_hetero,
)
from .matpower_io import load_case, parse_matpower, write_matpower
from .scenario_gen import MutationSpec, mutate
from .solvers import OpfOptions, OpfSolution, PfSolution, solve_opf, solve_pf
from .embedding import (
    EmbeddingFormat,
    InvalidResponse,
    SolutionDoc,
    embed_grid,
    encode_solution,
    parse_grid,
    parse_solution_doc,
)
from .llm_protocol import (
    SYSTEM_PROMPT,
    ChatMessage,
    EndpointConfig,
    PromptSequence,
    build_sequence,
    complete,
    replay_backend,
    validate_sequence,
)
from .evaluation import EvalReport, TrialRecord, run_benchmark, score
from .dataset_export import (
    FinetuneConfig,
    SolvedDataset,
    build_solved_dataset,
    export_finetune_jsonl,
    load_solved_dataset,
)

__version__ = "0.1.0"
