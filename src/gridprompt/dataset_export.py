"""Dataset orchestration: mutate -> solve -> embed, plus fine-tuning export.

A solved dataset is a directory:

    manifest.json            run parameters, per-entry metadata, rejections
    scenarios/{i}.m          mutated MATPOWER case (read only when needed)
    embeddings/{i}.json      grid embedding text (graph or table form)
    solutions/{i}.json       rounded solution text shown to the LLM
    truth/{i}.json           full-precision solver output
    rejected/{i}.json        infeasible scenarios with diagnostics

Scenario indices that fail the OPF are recorded under rejected/ and further
indices are drawn until n feasible entries exist, so entry count is exact and
a rerun with the same seed reproduces the directory byte for byte.

Loading reads the manifest, embeddings and solutions of every entry but no
scenario or truth file: an entry's ``case`` and ``solution`` are read from
``scenarios/{i}.m`` and ``truth/{i}.json`` the first time each is used.
``bench`` uses both for each trial's query entry only (the truth it scores
against and the case's ``base_mva``), and the oracle's ``truth_map`` reads a
truth only when that query is looked up; ``export-ft`` reads neither. Manifest
indices must be distinct integers >= 0, and a missing or undecodable file
raises DatasetError naming it (at load for embedding and solution texts).
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .embedding import EmbeddingFormat, embed_grid, encode_solution
from .files import read_utf8, write_utf8
from .grid_model import GridCase, GridError, to_hetero
from .llm_protocol import SYSTEM_MESSAGE, PromptSequence, example_pair
from .matpower_io import MatpowerParseError, parse_matpower, write_matpower
from .scenario_gen import MutationSpec, mutate
from .solvers import OpfOptions, OpfSolution, solve_opf

MANIFEST_SCHEMA = "gridprompt/dataset/v1"
MAX_LINE_CHARS = 500_000  # per fine-tuning line


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class SolvedEntry:
    """One solved scenario of the dataset under ``root``; ``case`` and ``solution``
    (the full-precision truth) are read from ``scenario_path`` and ``truth_path``
    on first use. A missing or malformed one raises DatasetError naming the file.
    """
    index: int
    grid_text: str
    solution_text: str
    root: str

    @property
    def scenario_path(self) -> Path:
        return Path(self.root, "scenarios", f"{self.index}.m")

    @property
    def truth_path(self) -> Path:
        return Path(self.root, "truth", f"{self.index}.json")

    @cached_property
    def case(self) -> GridCase:
        try:
            return parse_matpower(read_utf8(self.scenario_path, DatasetError))
        except (MatpowerParseError, GridError) as exc:
            raise DatasetError(f"{self.scenario_path}: {exc}") from exc

    @cached_property
    def solution(self) -> OpfSolution:
        try:
            return _truth_from_doc(json.loads(read_utf8(self.truth_path, DatasetError)))
        except (ValueError, LookupError, TypeError) as exc:
            raise DatasetError(f"{self.truth_path}: {type(exc).__name__}: {exc}") from exc


class TruthMap(Mapping):
    """Read-only grid embedding text -> full-precision solution text (oracle backend).

    Deliberately not the rounded context text: the oracle must score a true
    zero against the unrounded solver truth. An entry's truth is read and
    encoded only when its grid text is looked up; ``in`` reads none.
    """

    def __init__(self, entries: list[SolvedEntry]):
        self._entries = {e.grid_text: e for e in entries}

    def __getitem__(self, grid_text: str) -> str:
        return encode_solution(self._entries[grid_text].solution, decimals=12)

    def __contains__(self, grid_text: object) -> bool:
        return grid_text in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class SolvedDataset:
    root: Path
    entries: list[SolvedEntry]
    rejected: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def truth_map(self) -> TruthMap:
        return TruthMap(self.entries)


_TRUTH_KEYS = ("gen", "slack", "bus", "objective_cost", "feasible", "max_violation_pu")


def _truth_doc(sol: OpfSolution) -> dict:
    return {key: getattr(sol, key) for key in _TRUTH_KEYS}  # json writes triples as lists


def _triple(row) -> tuple[int, float, float]:
    i, a, b = row
    return int(i), float(a), float(b)


def _truth_from_doc(doc: dict) -> OpfSolution:
    gen, slack, bus, cost, feasible, violation = (doc[key] for key in _TRUTH_KEYS)
    return OpfSolution(tuple(map(_triple, gen)), _triple(slack), tuple(map(_triple, bus)),
                       float(cost), bool(feasible), float(violation))


def build_solved_dataset(
    case: GridCase,
    spec: MutationSpec,
    n: int,
    fmt: EmbeddingFormat,
    out_dir: str | Path,
) -> SolvedDataset:
    """Generate n feasible solved scenarios under out_dir, which must not exist or be empty."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    root = Path(out_dir)
    if root.is_dir() and any(root.iterdir()):
        raise FileExistsError(f"{root} is not empty; refusing to mix two datasets in it")
    base_solution = solve_opf(case)
    if not base_solution.feasible:
        raise DatasetError(
            f"base case OPF is infeasible ({base_solution.message}); "
            "refusing to generate a dataset from it"
        )

    for sub in ("scenarios", "embeddings", "solutions", "truth", "rejected"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    warm_opts = OpfOptions(x0=base_solution.controls)  # every draw starts at the base optimum

    entries: list[SolvedEntry] = []
    rejected: list[int] = []
    manifest_entries = []
    index = 0
    max_draws = max(n * 3, n + 10)
    while len(entries) < n:
        if index >= max_draws:
            raise DatasetError(
                f"only {len(entries)} feasible scenarios after {index} draws"
            )
        scenario = mutate(case, spec, index)
        solution = solve_opf(scenario, warm_opts)
        verdict = {"index": index, "max_violation_pu": solution.max_violation_pu}
        if not solution.feasible:
            rejected.append(index)
            doc = {**verdict, "reason": solution.message}
            write_utf8(root / "rejected" / f"{index}.json", json.dumps(doc, sort_keys=True))
            index += 1
            continue

        grid_text = embed_grid(to_hetero(scenario), fmt)
        solution_text = encode_solution(solution, fmt.decimals)
        entry = SolvedEntry(index, grid_text, solution_text, str(root))
        write_utf8(entry.scenario_path, write_matpower(scenario))
        write_utf8(root / "embeddings" / f"{index}.json", grid_text)
        write_utf8(root / "solutions" / f"{index}.json", solution_text)
        write_utf8(entry.truth_path, json.dumps(_truth_doc(solution), sort_keys=True))
        manifest_entries.append({**verdict, "objective_cost": solution.objective_cost})
        entries.append(entry)
        index += 1

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "case": case.name,
        "n": n,
        "format": {"kind": fmt.kind, "decimals": fmt.decimals},
        "mutation": {
            "distribution": "uniform",
            "relative_halfwidth": spec.relative_halfwidth,
            "targets": "loads_p_and_q",
            "seed": spec.seed,
        },
        "entries": manifest_entries,
        "rejected": rejected,
    }
    write_utf8(root / "manifest.json", json.dumps(manifest, sort_keys=True, indent=1))
    return SolvedDataset(root=root, entries=entries, rejected=rejected)


def load_solved_dataset(root: str | Path) -> SolvedDataset:
    """Read a dataset directory; no scenario or truth file is opened (see ``SolvedEntry``)."""
    root = Path(root)
    path = root / "manifest.json"
    try:
        manifest = json.loads(read_utf8(path, DatasetError))
        if manifest["schema"] != MANIFEST_SCHEMA:
            raise DatasetError(f"{path}: schema {manifest['schema']!r} is not {MANIFEST_SCHEMA}")
        indices = [meta["index"] for meta in manifest["entries"]]
        rejected = list(manifest["rejected"])
    except (ValueError, LookupError, TypeError) as exc:
        raise DatasetError(f"{path}: {type(exc).__name__}: {exc}") from exc
    seen = set()
    for i in indices:  # an index names the entry's files, so it must be a new integer >= 0
        if type(i) is not int or i < 0 or i in seen:
            what = "is repeated" if type(i) is int and i in seen else "is not an integer >= 0"
            raise DatasetError(f"{path}: entry index {i!r} {what}")
        seen.add(i)
    base = str(root)

    def text(sub: str, i: int) -> str:
        return read_utf8(f"{base}/{sub}/{i}.json", DatasetError)

    entries = [SolvedEntry(i, text("embeddings", i), text("solutions", i), base) for i in indices]
    return SolvedDataset(root=root, entries=entries, rejected=rejected)


def export_finetune_jsonl(
    dataset: SolvedDataset,
    out_path: str | Path | None = None,
    base_model: str = "",
) -> Path:
    """One chat-format training line per solved entry, plus the LoRA sidecar (rank 8,
    alpha 16, base_model): a line is a prompt's system message and the entry as one
    in-context example, refused over ``MAX_LINE_CHARS``."""
    out_path = Path(out_path) if out_path else dataset.root / "finetune.jsonl"
    lines = []
    for e in dataset.entries:
        seq = PromptSequence((SYSTEM_MESSAGE, *example_pair(e.grid_text, e.solution_text)))
        line = json.dumps({"messages": seq.chat()}, sort_keys=True)
        if len(line) > MAX_LINE_CHARS:
            raise DatasetError(f"entry {e.index}: training line is {len(line)} chars, "
                               f"budget is {MAX_LINE_CHARS}")
        lines.append(line)
    write_utf8(out_path, "\n".join(lines) + "\n")
    doc = {"rank": 8, "alpha": 16.0, "base_model": base_model, "notes": ""}
    write_utf8(out_path.parent / "finetune_config.json", json.dumps(doc, sort_keys=True, indent=1))
    return out_path
