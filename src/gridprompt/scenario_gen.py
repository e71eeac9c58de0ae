"""Mutated grid scenarios: uniform +/- h load perturbations, fully deterministic.

Each random draw is keyed on (seed, scenario index, load id, field), so a
scenario's bytes never depend on how many scenarios were generated before it
and generation can be parallelized or resumed at any index.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .grid_model import GridCase, Load

_FIELD_CODE = {"p_mw": 0, "q_mvar": 1}


@dataclass(frozen=True)
class MutationSpec:
    relative_halfwidth: float = 0.20
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.relative_halfwidth < 1:
            raise ValueError(
                f"relative_halfwidth must be in [0, 1), got {self.relative_halfwidth}"
            )
        if self.seed < 0:  # SeedSequence's own error names no option
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _draw(spec: MutationSpec, index: int, load_id: int, field: str) -> float:
    """One Uniform[1-h, 1+h] factor from a counter-keyed stream."""
    ss = np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(index, load_id, _FIELD_CODE[field])
    )
    u = np.random.Generator(np.random.PCG64(ss)).random()
    h = spec.relative_halfwidth
    return 1.0 - h + 2.0 * h * u


def mutate(case: GridCase, spec: MutationSpec, index: int) -> GridCase:
    """Scale every load's P and Q by independent Uniform[1-h, 1+h] factors."""
    loads = tuple(
        Load(
            id=ld.id,
            bus=ld.bus,
            p_mw=ld.p_mw * _draw(spec, index, ld.id, "p_mw"),
            q_mvar=ld.q_mvar * _draw(spec, index, ld.id, "q_mvar"),
        )
        for ld in case.loads
    )
    return replace(case, loads=loads, name=f"{case.name}_s{index}")


def generate_dataset(case: GridCase, spec: MutationSpec, n: int) -> Iterator[GridCase]:
    """Scenarios 0..n-1 as a lazy, reproducible stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for index in range(n):
        yield mutate(case, spec, index)

