import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprompt.matpower_io import write_matpower
from gridprompt.scenario_gen import MutationSpec, generate_dataset, mutate


def test_zero_halfwidth_is_identity(case9):
    m = mutate(case9, MutationSpec(0.0, seed=1), 0)
    assert m.loads == case9.loads


def test_spec_rejects_bad_halfwidth():
    with pytest.raises(ValueError):
        MutationSpec(relative_halfwidth=1.0)
    with pytest.raises(ValueError):
        MutationSpec(relative_halfwidth=-0.1)


def test_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        MutationSpec(seed=-1)


@given(seed=st.integers(0, 2**63 - 1), index=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_bounds_property(case9, seed, index):
    m = mutate(case9, MutationSpec(0.2, seed=seed), index)
    for orig, mut in zip(case9.loads, m.loads):
        assert 0.8 * orig.p_mw <= mut.p_mw <= 1.2 * orig.p_mw
        assert 0.8 * orig.q_mvar <= mut.q_mvar <= 1.2 * orig.q_mvar


def test_determinism_and_distinctness(case9):
    spec = MutationSpec(0.2, seed=42)
    a = mutate(case9, spec, 7)
    b = mutate(case9, spec, 7)
    c = mutate(case9, spec, 8)
    assert a == b
    assert a != c


def test_only_load_pq_changes(case9):
    m = mutate(case9, MutationSpec(0.2, seed=5), 3)
    assert dataclasses.replace(m, loads=case9.loads, name=case9.name) == case9
    for orig, mut in zip(case9.loads, m.loads):
        assert (orig.id, orig.bus) == (mut.id, mut.bus)


def test_order_independence(case9):
    # scenario k is the same whether or not earlier scenarios were generated
    spec = MutationSpec(0.2, seed=9)
    from_stream = list(generate_dataset(case9, spec, 5))[4]
    direct = mutate(case9, spec, 4)
    assert from_stream == direct


def test_dataset_sizes(case9):
    spec = MutationSpec(0.2, seed=0)
    assert len(list(generate_dataset(case9, spec, 1))) == 1
    cases = list(generate_dataset(case9, spec, 66))
    assert len(cases) == 66
    assert len({write_matpower(c) for c in cases}) == 66  # all distinct


def test_dataset_byte_determinism(case9):
    spec = MutationSpec(0.2, seed=123)
    a = [write_matpower(c) for c in generate_dataset(case9, spec, 20)]
    b = [write_matpower(c) for c in generate_dataset(case9, spec, 20)]
    assert a == b


def test_sample_mean_converges(case9):
    spec = MutationSpec(0.2, seed=2024)
    sums = np.zeros(len(case9.loads))
    n = 10_000
    for m in generate_dataset(case9, spec, n):
        sums += [ld.p_mw for ld in m.loads]
    for mean, orig in zip(sums / n, case9.loads):
        assert abs(mean - orig.p_mw) / orig.p_mw < 0.01


def test_rejects_nonpositive_n(case9):
    with pytest.raises(ValueError):
        list(generate_dataset(case9, MutationSpec(0.2, seed=0), 0))
