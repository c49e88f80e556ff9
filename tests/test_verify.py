from dataclasses import replace

import numpy as np
import pytest

import ghzpurify.verify
from ghzpurify.protocol import (
    PurifyConfig,
    correct_physical_bitflip,
    iterate_rounds,
    purify_round,
    round_table,
)
from ghzpurify.states import to_density_matrix
from ghzpurify.verify import (
    CHECK_FUNCS,
    CheckResult,
    check_bell_orthonormal,
    check_bennett_maps,
    check_bitflip_correction,
    check_improvement_region,
    check_iteration_composes,
    check_logic_bell_orthonormal,
    check_logic_phaseflip_operator,
    check_physical_phase_is_logic_bitflip,
    check_oracle_round_agreement,
    check_purify_map_grid,
    check_recovery_inverts_reduction,
    check_reduction_concentrates,
    check_round_table_independent_of_n,
    run_verify,
)

# the stdout contract: one line per check, in this order
CHECK_NAMES = (
    "bell_states_orthonormal",
    "logic_bell_orthonormal",
    "gates_preserve_norm",
    "gates_self_inverse",
    "reduction_concentrates",
    "recovery_inverts_reduction",
    "bennett_maps",
    "purify_map_grid",
    "round_table_independent_of_n",
    "improvement_strictly_above_half",
    "iteration_composes",
    "bitflip_correction_deterministic",
    "phase_flip_equals_logic_bitflip",
    "logic_phaseflip_operator",
)


def test_all_checks_pass_at_default_size():
    results = run_verify(max_n=3)
    assert results
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_check_names_unique_and_stable():
    results = run_verify(max_n=2)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(results) == len(CHECK_FUNCS)
    assert tuple(names) == CHECK_NAMES


def test_oracle_flag_appends_cross_check():
    base = run_verify(max_n=2)
    with_oracle = run_verify(max_n=2, oracle=True)
    assert len(with_oracle) == len(base) + 1
    assert with_oracle[-1].name == "oracle_round_agreement"
    assert tuple(r.name for r in with_oracle) == (*CHECK_NAMES, "oracle_round_agreement")
    assert with_oracle[-1].passed


def test_oracle_check_covers_every_n_up_to_5(monkeypatch):
    # the engine's own answer stands in for the dense round; only the n the
    # check asks for are recorded
    asked = []

    def engine_round(n, basis, f):
        asked.append(n)
        cfg = PurifyConfig(n=n, error_basis=basis, input_fidelity=f, rounds=1)
        out = purify_round(cfg)
        return out.success_probability, out.fidelity, to_density_matrix(out.output)

    monkeypatch.setattr(ghzpurify.verify, "oracle_purify_round", engine_round)
    assert check_oracle_round_agreement((2, 3, 4, 5, 6)).passed
    assert sorted(set(asked)) == [2, 3, 4, 5]


def test_purify_map_check_covers_every_n_whose_round_fits(monkeypatch):
    # 2n + 2 round qubits fit under the 24-qubit cap up to n = 11
    asked = []

    def recorded_round(cfg):
        asked.append(cfg.n)
        return purify_round(cfg)

    monkeypatch.setattr(ghzpurify.verify, "purify_round", recorded_round)
    assert check_purify_map_grid(tuple(range(2, 13))).passed
    assert sorted(set(asked)) == list(range(2, 12))


def test_round_table_check_covers_every_n_whose_round_fits(monkeypatch):
    asked = []

    def recorded_table(n, basis):
        asked.append((n, basis))
        return round_table(n, basis)

    monkeypatch.setattr(ghzpurify.verify, "round_table", recorded_table)
    assert check_round_table_independent_of_n(tuple(range(2, 13))).passed
    assert sorted(set(asked)) == [(n, b) for n in range(2, 12) for b in ("bit", "phase")]


@pytest.mark.parametrize(
    "drift", [lambda fid: np.nextafter(fid, 2.0), lambda fid: fid * np.nan], ids=["ulp", "nan"]
)
def test_round_table_check_fails_when_one_n_differs(monkeypatch, drift):
    def drifted_table(n, basis):
        probs, fid = round_table(n, basis)
        return probs, (drift(fid) if n == 3 else fid)

    monkeypatch.setattr(ghzpurify.verify, "round_table", drifted_table)
    result = check_round_table_independent_of_n((2, 3, 4))
    assert not result.passed and not result.max_deviation <= 0.0


def _nan_outcome(out):
    return replace(out, fidelity=np.nan, success_probability=np.nan)


NAN_ENGINES = {
    "purify_round": lambda cfg: _nan_outcome(purify_round(cfg)),
    "compare": lambda e, dm: np.nan,
    "overlap": lambda s1, s2: complex(np.nan, np.nan),
    "iterate_rounds": lambda cfg: [_nan_outcome(out) for out in iterate_rounds(cfg)],
    "correct_physical_bitflip": lambda *a, **kw: _nan_outcome(correct_physical_bitflip(*a, **kw)),
}


@pytest.mark.parametrize(
    "engine, check",
    [
        ("purify_round", check_purify_map_grid),
        ("purify_round", check_improvement_region),
        ("purify_round", check_oracle_round_agreement),
        ("compare", check_oracle_round_agreement),
        ("overlap", check_bell_orthonormal),
        ("overlap", check_logic_bell_orthonormal),
        ("overlap", check_reduction_concentrates),
        ("overlap", check_recovery_inverts_reduction),
        ("overlap", check_bennett_maps),
        ("overlap", check_physical_phase_is_logic_bitflip),
        ("overlap", check_logic_phaseflip_operator),
        ("iterate_rounds", check_iteration_composes),
        ("correct_physical_bitflip", check_bitflip_correction),
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_a_nan_from_the_engine_fails_the_check(monkeypatch, engine, check):
    # the builtin max(0.0, nan) is 0.0; a check must not drop a NaN that way
    monkeypatch.setattr(ghzpurify.verify, engine, NAN_ENGINES[engine])
    result = check((2, 3))
    assert not result.passed and np.isnan(result.max_deviation)
    assert result.line().startswith(f"FAIL {result.name}: max deviation nan")


def test_improvement_check_runs_the_engine(monkeypatch):
    # an engine round that leaves every fidelity where it was must fail it
    def idle_round(cfg):
        return replace(purify_round(cfg), fidelity=cfg.input_fidelity)

    monkeypatch.setattr(ghzpurify.verify, "purify_round", idle_round)
    result = check_improvement_region((2, 3))
    assert not result.passed and result.max_deviation >= 1.0


def test_run_verify_rejects_small_n():
    with pytest.raises(ValueError):
        run_verify(max_n=1)


def test_result_line_format():
    line = CheckResult("sample_check", True, 1.2e-15, 1e-12).line()
    assert line.startswith("PASS sample_check")
    assert "1.200e-15" in line
    bad = CheckResult("sample_check", False, 0.5, 1e-12).line()
    assert bad.startswith("FAIL")
