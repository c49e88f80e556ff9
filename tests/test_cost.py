"""Work per CLI path, pinned as the states the engine seals.

Every state the engine builds passes through PureState._seal once, so the
number of sealed states, their stored entries and the largest support count
a path's work exactly and free of host noise. The cost model says that work
follows stored entries, not 2^(2n); these pins state it per path and per n.
A change that alters a path's work on purpose re-pins the entry it names.
"""

import pytest

from ghzpurify import harness, protocol, states
from ghzpurify.errors import ConfigError
from ghzpurify.harness import ExperimentConfig, run_correct, run_sweep
from ghzpurify.noise import ErrorKind, ErrorModel, apply_error_model
from ghzpurify.protocol import (
    BASES,
    PurifyConfig,
    correct_physical_bitflip,
    purify_round,
    round_table,
)
from ghzpurify.states import Ensemble, make_logic_bell

KINDS = {"bit": ErrorKind.LOGIC_BITFLIP, "phase": ErrorKind.LOGIC_PHASEFLIP}

# (states, entries, largest support) that one call seals
COLD_ROW = {"bit": (38, 92, 4), "phase": (40, 96, 4)}
WARM_ROW = (16, 32, 2)
TABLE_BUILD = (20, 40, 2)
SAMPLED_ROW = (0, 0, 0)
CORRECT_ROW = {None: (6, 12, 2), 0.7: (9, 18, 2)}
# the correction alone, on the pair run_correct builds at fidelity 0 or 0.7
DESTRUCTIVE_CORRECTION = {0.0: (5, 10, 2), 0.7: (8, 16, 2)}


@pytest.fixture
def sealed(monkeypatch):
    """The support of every state sealed while the test runs, in order."""
    sizes: list[int] = []
    seal = states.PureState._seal

    def counting(self, register, idx, vals):
        sizes.append(len(idx))
        seal(self, register, idx, vals)

    monkeypatch.setattr(states.PureState, "_seal", counting)
    return sizes


def _work(sizes: list[int], call, *args) -> tuple[int, int, int]:
    sizes.clear()
    call(*args)
    return len(sizes), sum(sizes), max(sizes, default=0)


def _sweep_row(n: int, basis: str, shots: int = 0, rounds: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        mode="sweep", n=n, error=KINDS[basis], f_min=0.7, f_max=0.7, steps=1, shots=shots,
        rounds=rounds,
    )


@pytest.mark.parametrize("n", range(2, 12))
@pytest.mark.parametrize("basis", BASES)
def test_exact_row_work(sealed, n, basis):
    cfg = _sweep_row(n, basis)
    protocol._staged.cache_clear()
    states.make_logic_bell.cache_clear()
    assert _work(sealed, run_sweep, cfg) == COLD_ROW[basis]
    assert _work(sealed, run_sweep, cfg) == WARM_ROW


@pytest.mark.parametrize("n", range(2, 12))
def test_warm_three_round_row_work_is_three_warm_rounds(sealed, n):
    cfg = _sweep_row(n, "bit", rounds=3)
    run_sweep(cfg)
    # the work per round is constant
    count, entries, largest = WARM_ROW
    assert _work(sealed, run_sweep, cfg) == (3 * count, 3 * entries, largest)


@pytest.mark.parametrize("n", range(2, 12))
@pytest.mark.parametrize("basis", BASES)
def test_round_table_and_sampled_row_work(sealed, n, basis):
    run_sweep(_sweep_row(n, basis))
    round_table.cache_clear()
    harness._shot_tables.cache_clear()
    assert _work(sealed, round_table, n, basis) == TABLE_BUILD
    assert _work(sealed, run_sweep, _sweep_row(n, basis, shots=100)) == SAMPLED_ROW


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("fidelity", CORRECT_ROW)
def test_correct_row_work(sealed, n, fidelity):
    cfg = ExperimentConfig(
        mode="correct", n=n, error=ErrorKind.PHYS_BITFLIP, fidelity=fidelity, flip_position=2
    )
    run_correct(cfg)
    assert _work(sealed, run_correct, cfg) == CORRECT_ROW[fidelity]


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("fidelity", DESTRUCTIVE_CORRECTION)
def test_destructive_correction_work(sealed, n, fidelity):
    model = ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=fidelity, target="A", position=1)
    pair = apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), model, n)
    assert _work(
        sealed, correct_physical_bitflip, pair, "A", "destructive", 1
    ) == DESTRUCTIVE_CORRECTION[fidelity]


def test_refused_block_size_builds_no_state(sealed):
    with pytest.raises(ConfigError, match="purify at n=12 needs 26 qubits"):
        purify_round(PurifyConfig(n=12, error_basis="bit", input_fidelity=0.8))
    with pytest.raises(ConfigError, match="sweep at n=12 needs 26 qubits"):
        _sweep_row(12, "bit").validate()
    assert sealed == []
