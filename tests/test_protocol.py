import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.errors import ConfigError, RegisterError, UnsupportedInputError
from ghzpurify.gates import (
    OUTCOME_EPS,
    apply_h,
    apply_x,
    discard,
    measure_ensemble,
    outcome_probability,
)
from ghzpurify.harness import ExperimentConfig, run_sweep
from ghzpurify.noise import ErrorKind, ErrorModel, apply_error_model
from ghzpurify.protocol import (
    BASES,
    SACRIFICED,
    PurifyConfig,
    _staged,
    bennett_step,
    canonical_pair,
    canonical_round,
    compare_copies,
    correct_physical_bitflip,
    iterate_rounds,
    lift_kept,
    one_round_fidelity_map,
    one_round_success_probability,
    postselect_equal,
    prepare_copy,
    purify_pair,
    purify_round,
    recover_logic,
    reduce_copy,
    register_width,
    round_bases,
    round_table,
)
from ghzpurify.states import (
    BELL_KINDS,
    EXACT_TOL,
    MAX_QUBITS,
    Ensemble,
    PureState,
    Register,
    basis_state,
    fidelity,
    make_bell,
    make_logic_bell,
    map_branches,
    overlap,
    permute,
    tensor,
    with_labels,
)

from circuits import register


def _reduced_expectation(kind, n):
    bell = make_bell(kind, ("a1", "b1"))
    rest = tuple(f"{p}{i}" for p in "ab" for i in range(2, n + 1))
    zeros = basis_state(Register(rest), [0] * len(rest))
    return tensor(bell, zeros)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", BELL_KINDS)
def test_reduce_concentrates_each_kind(n, kind):
    got = reduce_copy(make_logic_bell(n, kind))
    expected = permute(_reduced_expectation(kind, n), got.register.labels)
    assert overlap(expected, got) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reduce_leaves_ancillas_in_zero(n):
    ancillas = tuple(f"{p}{i}" for p in "ab" for i in range(2, n + 1))
    for kind in BELL_KINDS:
        got = reduce_copy(make_logic_bell(n, kind))
        for anc in ancillas:
            assert outcome_probability(got, anc, 1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", BELL_KINDS)
def test_recover_inverts_reduce(n, kind):
    original = make_logic_bell(n, kind)
    back = recover_logic(Ensemble.pure(reduce_copy(original)))
    (_, s), = back.branches
    assert overlap(original, s) == pytest.approx(1.0, abs=1e-12)


def test_recover_rejects_dirty_ancilla():
    reduced = reduce_copy(make_logic_bell(2, "phi+"))
    dirty = apply_x(reduced, "a2")
    with pytest.raises(UnsupportedInputError):
        recover_logic(Ensemble.pure(dirty))


def test_recover_rejects_ancillas_dirty_only_jointly():
    # reduced phi+ at n = 4 plus 0.9e-12 on each of the six single-ancilla
    # kets: no ancilla reads 1 above OUTCOME_EPS, all six together do
    reduced = reduce_copy(make_logic_bell(4, "phi+"))
    ancillas = ("a2", "a3", "a4", "b2", "b3", "b4")
    amps = reduced.amps.copy()
    for anc in ancillas:
        amps[int(reduced.register.mask([anc]))] = np.sqrt(0.9e-12)
    dirty = PureState(reduced.register, amps / np.linalg.norm(amps))
    assert all(outcome_probability(dirty, anc, 1) < OUTCOME_EPS for anc in ancillas)
    with pytest.raises(UnsupportedInputError, match="are not all in"):
        recover_logic(Ensemble.pure(dirty))


@pytest.mark.parametrize("n_qubits", [2, 3])
@pytest.mark.parametrize(
    "stage",
    [
        reduce_copy,
        lambda s: recover_logic(Ensemble.pure(s)),
        lambda s: prepare_copy(s, "bit"),
        correct_physical_bitflip,
    ],
    ids=["reduce_copy", "recover_logic", "prepare_copy", "correct_physical_bitflip"],
)
def test_stage_refuses_register_without_two_logic_qubits(stage, n_qubits):
    # 2 qubits split into one-mode logic qubits; 3 cannot be split in half
    s = basis_state(register([("q", n_qubits)]), [0] * n_qubits)
    with pytest.raises(RegisterError):
        stage(s)


@pytest.mark.parametrize("kind", BELL_KINDS)
def test_reduce_reads_logic_qubits_from_any_labels(kind):
    n = 3
    relabelled = tuple(f"{p}{i}" for p in "xy" for i in range(1, n + 1))
    original = make_logic_bell(n, kind)
    got = reduce_copy(with_labels(original, relabelled))
    want = with_labels(reduce_copy(original), relabelled)
    assert got.register.labels == relabelled
    assert overlap(want, got) == pytest.approx(1.0, abs=1e-12)


BENNETT_CASES = {
    ("phi+", "phi+"): ("phi+", "phi+"),
    ("phi+", "psi+"): ("phi+", "psi+"),
    ("psi+", "phi+"): ("psi+", "psi+"),
    ("psi+", "psi+"): ("psi+", "phi+"),
}


def _bennett_outcomes(system, kept_pair):
    cnot = map_branches(system, lambda s: bennett_step(s, kept_pair))
    return measure_ensemble(cnot, list(SACRIFICED))


@pytest.mark.parametrize("case", sorted(BENNETT_CASES))
def test_bennett_outcome_statistics(case):
    k1, k2 = case
    w1, w2 = BENNETT_CASES[case]
    system = Ensemble.pure(
        tensor(make_bell(k1, ("a1", "b1")), make_bell(k2, ("c1", "d1")))
    )
    outcomes = _bennett_outcomes(system, ("a1", "b1"))
    # the sacrificed pair ends up phi+ or psi+: equal outcomes for phi+,
    # unequal for psi+, each side 1/2
    expect_equal = w2 == "phi+"
    keys = {(0, 0), (1, 1)} if expect_equal else {(0, 1), (1, 0)}
    assert set(outcomes) == keys
    for prob, kept in outcomes.values():
        assert prob == pytest.approx(0.5)
        (_, s), = kept.branches
        marg = abs(
            overlap(make_bell(w1, ("a1", "b1")), _strip_sacrificed(s, ("a1", "b1")))
        )
        assert marg == pytest.approx(1.0, abs=1e-12)


def _strip_sacrificed(s, keep):
    from ghzpurify.gates import discard

    return discard(s, [lab for lab in s.register.labels if lab not in keep])


def test_bennett_rejects_shared_labels():
    system = tensor(make_bell("phi+", ("a1", "b1")), make_bell("phi+", ("c1", "d1")))
    with pytest.raises(RegisterError):
        bennett_step(system, ("a1", "c1"))


def test_postselect_equal_merges_and_renormalizes():
    system = Ensemble.pure(
        tensor(make_bell("phi+", ("a1", "b1")), make_bell("phi+", ("c1", "d1")))
    )
    outcomes = _bennett_outcomes(system, ("a1", "b1"))
    p, kept = postselect_equal(outcomes)
    assert p == pytest.approx(1.0)
    assert kept.weight_sum == pytest.approx(1.0)


def test_postselect_equal_impossible():
    system = Ensemble.pure(
        tensor(make_bell("psi+", ("a1", "b1")), make_bell("phi+", ("c1", "d1")))
    )
    # kept pair psi+, sacrificed psi+: outcomes always differ, and a round
    # that keeps nothing raises, as an empty Ensemble does
    outcomes = _bennett_outcomes(system, ("a1", "b1"))
    with pytest.raises(ValueError, match="at least one branch"):
        postselect_equal(outcomes)


def test_fidelity_map_formulas():
    assert one_round_fidelity_map(0.8) == pytest.approx(16 / 17, abs=1e-15)
    assert one_round_success_probability(0.8) == pytest.approx(0.68, abs=1e-15)
    assert one_round_fidelity_map(0.5) == pytest.approx(0.5)
    assert one_round_fidelity_map(1.0) == 1.0
    with pytest.raises(ValueError):
        one_round_fidelity_map(1.5)


def test_canonical_pair_branches():
    e = canonical_pair(2, "bit", 0.7)
    assert [w for w, _ in e.branches] == pytest.approx([0.7, 0.3])
    assert fidelity(e, make_logic_bell(2, "psi+")) == pytest.approx(0.3)
    phase = canonical_pair(2, "phase", 0.7)
    assert fidelity(phase, make_logic_bell(2, "phi-")) == pytest.approx(0.3)
    assert len(canonical_pair(2, "bit", 1.0).branches) == 1
    assert len(canonical_pair(2, "bit", 0.0).branches) == 1
    # value by value: (f, phi+) and (1 - f, psi+ or phi-), no zero-weight branch
    for n, basis, f in itertools.product(range(2, 12), BASES, (0.0, 0.3, 0.8, 1.0)):
        good = make_logic_bell(n, "phi+")
        bad = make_logic_bell(n, "psi+" if basis == "bit" else "phi-")
        expected = [(w, s) for w, s in ((f, good), (1.0 - f, bad)) if w > 0.0]
        got = canonical_pair(n, basis, f).branches
        assert [w for w, _ in got] == [w for w, _ in expected]
        for (_, s), (_, t) in zip(got, expected):
            assert s.register == t.register
            assert np.array_equal(s.idx, t.idx)
            assert np.array_equal(s.vals, t.vals)


@pytest.mark.parametrize("basis", ["bit", "phase"])
@pytest.mark.parametrize("f", [0.0, 0.3, 0.5, 0.68, 0.8, 0.95, 1.0])
def test_single_round_matches_map(basis, f):
    cfg = PurifyConfig(n=2, error_basis=basis, input_fidelity=f, rounds=1)
    out = purify_round(cfg)
    assert out.success_probability == pytest.approx(
        one_round_success_probability(f), abs=1e-12
    )
    assert out.fidelity == pytest.approx(one_round_fidelity_map(f), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_single_round_larger_blocks(n):
    cfg = PurifyConfig(n=n, error_basis="bit", input_fidelity=0.8, rounds=1)
    out = purify_round(cfg)
    assert out.fidelity == pytest.approx(16 / 17, abs=1e-12)
    assert out.success_probability == pytest.approx(0.68, abs=1e-12)


def test_round_output_is_normalized_logic_pair():
    cfg = PurifyConfig(n=2, error_basis="bit", input_fidelity=0.8, rounds=1)
    out = purify_round(cfg)
    assert out.output.register.labels == ("a1", "a2", "b1", "b2")
    assert out.output.weight_sum == pytest.approx(1.0)


def test_two_rounds_compose():
    cfg = PurifyConfig(n=2, error_basis="bit", input_fidelity=0.8, rounds=2)
    outs = iterate_rounds(cfg)
    assert outs[0].fidelity == pytest.approx(16 / 17, abs=1e-12)
    assert outs[1].fidelity == pytest.approx(256 / 257, abs=1e-12)
    assert len(outs) == 2
    f1 = outs[0].fidelity
    assert outs[1].success_probability == pytest.approx(
        one_round_success_probability(f1), abs=1e-12
    )


# (fidelity, success) of rounds 1, 2 and 3 by float.hex, per (basis, f). They
# are the same at every n. Pinned from the engine as it was before it summed
# equal kept states, so a change in the order of a round's arithmetic shows.
ROUND_HEX = {
    ("bit", 0.0): (
        ("0x0.0p+0", "0x1.ffffffffffffap-1"),
        ("0x0.0p+0", "0x1.ffffffffffffap-1"),
        ("0x0.0p+0", "0x1.ffffffffffffap-1"),
    ),
    ("bit", 0.3): (
        ("0x1.3dcb08d3dcb06p-3", "0x1.28f5c28f5c28bp-1"),
        ("0x1.0b587f125c005p-5", "0x1.79c282e44cb53p-1"),
        ("0x1.2a02b3a2261a6p-10", "0x1.dfac21d55c674p-1"),
    ),
    ("bit", 0.55): (
        ("0x1.32b16cfd7720cp-1", "0x1.028f5c28f5c26p-1"),
        ("0x1.618f83f8f2d63p-1", "0x1.0a09c98ae76e3p-1"),
        ("0x1.aa606e5ff9706p-1", "0x1.252e12775c2e2p-1"),
    ),
    ("bit", 0.8): (
        ("0x1.e1e1e1e1e1e17p-1", "0x1.5c28f5c28f5c0p-1"),
        ("0x1.fe01fe01fe01ap-1", "0x1.c74ed65de56bdp-1"),
        ("0x1.fffe0001fffdap-1", "0x1.fc07f40fec16cp-1"),
    ),
    ("bit", 1.0): (
        ("0x1.ffffffffffffap-1", "0x1.ffffffffffffap-1"),
        ("0x1.ffffffffffffap-1", "0x1.fffffffffffeep-1"),
        ("0x1.ffffffffffffap-1", "0x1.fffffffffffeep-1"),
    ),
    ("phase", 0.0): (
        ("0x0.0p+0", "0x1.ffffffffffff8p-1"),
        ("0x0.0p+0", "0x1.ffffffffffffap-1"),
        ("0x0.0p+0", "0x1.ffffffffffffap-1"),
    ),
    ("phase", 0.3): (
        ("0x1.3dcb08d3dcb05p-3", "0x1.28f5c28f5c28ap-1"),
        ("0x1.0b587f125c002p-5", "0x1.79c282e44cb54p-1"),
        ("0x1.2a02b3a2261a0p-10", "0x1.dfac21d55c674p-1"),
    ),
    ("phase", 0.55): (
        ("0x1.32b16cfd7720cp-1", "0x1.028f5c28f5c25p-1"),
        ("0x1.618f83f8f2d63p-1", "0x1.0a09c98ae76e3p-1"),
        ("0x1.aa606e5ff9706p-1", "0x1.252e12775c2e2p-1"),
    ),
    ("phase", 0.8): (
        ("0x1.e1e1e1e1e1e18p-1", "0x1.5c28f5c28f5bep-1"),
        ("0x1.fe01fe01fe019p-1", "0x1.c74ed65de56bfp-1"),
        ("0x1.fffe0001fffdap-1", "0x1.fc07f40fec16ap-1"),
    ),
    ("phase", 1.0): (
        ("0x1.ffffffffffffap-1", "0x1.ffffffffffff8p-1"),
        ("0x1.ffffffffffffap-1", "0x1.fffffffffffeep-1"),
        ("0x1.ffffffffffffap-1", "0x1.fffffffffffeep-1"),
    ),
}


@pytest.mark.parametrize("basis, f", sorted(ROUND_HEX))
def test_round_floats_match_pinned_hex(basis, f):
    for n in range(2, 7):
        outs = iterate_rounds(PurifyConfig(n=n, error_basis=basis, input_fidelity=f, rounds=3))
        got = tuple((o.fidelity.hex(), o.success_probability.hex()) for o in outs)
        assert got == ROUND_HEX[basis, f], n


# every n whose round fits the register cap
ROUND_NS = list(
    itertools.takewhile(lambda n: register_width("purify", n) <= MAX_QUBITS, itertools.count(2))
)
# Exact rows lie within ROW_ULPS of the correctly rounded closed forms. Over
# 5000 input fidelities from 5e-324 to 1, at n = 2 in both bases, the largest
# deviation was 8 ulps (fidelity) and 9 (success probability); a round's
# floats do not depend on n (test_exact_round_does_not_depend_on_n).
ROW_ULPS = 9
ULP_GRID = [
    0.0, 5e-324, 2.0**-537, 1e-300, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
    1.0 - 2.0**-53, 1.0, *np.random.default_rng(15).random(5).tolist(),
]


def _closed_forms(f: float) -> tuple[float, float]:
    """F^2 / s and s = F^2 + (1 - F)^2 in exact rationals, each rounded once."""
    exact = Fraction(f)
    success = exact**2 + (1 - exact) ** 2
    return float(exact**2 / success), float(success)


def _ulps(got: float, want: float) -> float:
    """|got - want| in units of math.ulp of the larger magnitude."""
    return float(abs(Fraction(got) - Fraction(want)) / Fraction(math.ulp(max(got, want))))


@pytest.mark.parametrize("basis", BASES)
def test_exact_rows_lie_within_row_ulps_of_the_exact_closed_forms(basis):
    kind = ErrorKind.LOGIC_BITFLIP if basis == "bit" else ErrorKind.LOGIC_PHASEFLIP
    for n, f in itertools.product(ROUND_NS, ULP_GRID):
        out = purify_pair(canonical_pair(n, basis, f), basis)
        rows = run_sweep(
            ExperimentConfig(mode="sweep", n=n, error=kind, f_min=f, f_max=f, steps=1, rounds=2)
        )
        # each row, round 2 included, is checked against its own float input
        for f_in, fid, p in [
            (f, out.fidelity, out.success_probability),
            *((r.input_fidelity, r.output_fidelity, r.success_probability) for r in rows),
        ]:
            want_fid, want_p = _closed_forms(f_in)
            assert _ulps(fid, want_fid) <= ROW_ULPS, (n, f_in, fid.hex())
            assert _ulps(p, want_p) <= ROW_ULPS, (n, f_in, p.hex())


# the paper's reduction: after the fan-out a logic pair purifies as the
# physical pair on its first modes, so nothing a round gives depends on n
@pytest.mark.parametrize("n", range(2, 12))
@pytest.mark.parametrize("basis", BASES)
def test_round_table_does_not_depend_on_n(n, basis):
    for got, want in zip(round_table(n, basis), round_table(2, basis)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 12))
@pytest.mark.parametrize("basis", BASES)
def test_exact_round_does_not_depend_on_n(n, basis):
    for f in (0.0, 2.0**-537, 0.3, 0.5, 0.8, 1.0 - 2.0**-53, 1.0):
        got = purify_pair(canonical_pair(n, basis, f), basis)
        want = purify_pair(canonical_pair(2, basis, f), basis)
        assert got.fidelity == want.fidelity, f
        assert got.success_probability == want.success_probability, f


def _assert_same_round(out, want):
    assert out.fidelity == want.fidelity
    assert out.success_probability == want.success_probability
    assert len(out.output.branches) == len(want.output.branches)
    for (w, s), (w_want, s_want) in zip(out.output.branches, want.output.branches):
        assert w == w_want and s.register == s_want.register
        assert s.idx.tobytes() == s_want.idx.tobytes()
        assert s.vals.tobytes() == s_want.vals.tobytes()


# canonical_round is purify_pair, the stage-by-stage round, on the canonical
# pair, with the weight-free staging cached per (n, basis); it must give
# every float and every output branch the uncached round gives, cold and warm
@pytest.mark.parametrize("n", range(2, 12))
@pytest.mark.parametrize("basis", BASES)
def test_purify_pair_matches_stage_by_stage_composition(n, basis):
    for f in (0.0, 5e-324, 2.0**-537, 0.3, 0.5, 0.8, 1.0 - 2.0**-53, 1.0):
        want = purify_pair(canonical_pair(n, basis, f), basis)
        _staged.cache_clear()
        _assert_same_round(canonical_round(n, basis, f), want)
        _assert_same_round(canonical_round(n, basis, f), want)


def test_round_table_is_cached_and_read_only():
    tables = round_table(3, "phase")
    assert round_table(3, "phase") is tables
    assert [table.shape for table in tables] == [(4, 4), (4, 4)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("f, distinct", [(0.0, 1), (0.3, 2), (0.8, 2), (1.0, 1)])
def test_lift_keeps_one_branch_per_distinct_kept_state(basis, f, distinct):
    first = map_branches(canonical_pair(3, basis, f), lambda s: prepare_copy(s, basis))
    p, kept = postselect_equal(compare_copies(first, first))
    dropped = [discard(s, SACRIFICED) for _, s in kept.branches]
    keys = {(s.idx.tobytes(), s.vals.tobytes()) for s in dropped}
    assert len(kept.branches) == 2 * distinct and len(keys) == distinct
    lifted, fid = lift_kept(kept)
    assert len(lifted.branches) == distinct
    assert lifted.weight_sum == pytest.approx(kept.weight_sum, abs=1e-12)
    out = purify_round(PurifyConfig(n=3, error_basis=basis, input_fidelity=f))
    assert len(out.output.branches) == distinct and out.fidelity == fid


def test_phase_round_residual_is_bit_type():
    # the phase-basis round converts the error, so the kept pair holds a
    # psi+ admixture rather than phi-
    cfg = PurifyConfig(n=2, error_basis="phase", input_fidelity=0.8, rounds=1)
    out = purify_round(cfg)
    residual = 1.0 - out.fidelity
    assert fidelity(out.output, make_logic_bell(2, "psi+")) == pytest.approx(
        residual, abs=1e-12
    )
    assert fidelity(out.output, make_logic_bell(2, "phi-")) == pytest.approx(
        0.0, abs=1e-12
    )


def test_round_bases_switch_to_bit_after_round_one():
    assert round_bases("phase", 3) == ["phase", "bit", "bit"]
    assert round_bases("bit", 2) == ["bit", "bit"]
    assert round_bases("phase", 1) == ["phase"]
    assert round_bases("phase", 0) == []


def test_phase_round_chained_purifies():
    cfg = PurifyConfig(n=2, error_basis="phase", input_fidelity=0.8, rounds=2)
    outs = iterate_rounds(cfg)
    assert outs[1].fidelity == pytest.approx(256 / 257, abs=1e-12)


def test_run_single_round_register_check():
    foreign = with_labels(make_logic_bell(2, "phi+"), ("x1", "x2", "y1", "y2"))
    pair = Ensemble.pure(foreign)
    with pytest.raises(RegisterError):
        purify_pair(pair, "bit")


@pytest.mark.parametrize("gate", [apply_h, apply_x], ids=["h", "x"])
def test_round_rejects_dirty_ancilla_input(gate):
    pair = Ensemble.pure(gate(make_logic_bell(3, "phi+"), "a2"))
    size = _staged.cache_info().currsize
    # a raise is never cached, so the second call raises as well
    for _ in range(2):
        with pytest.raises(UnsupportedInputError, match="mode 'a2' is not in"):
            purify_pair(pair, "bit")
    assert _staged.cache_info().currsize == size


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_correct_bitflip_every_position(n):
    target = make_logic_bell(n, "phi+")
    for position in range(1, n):
        model = ErrorModel(
            kind=ErrorKind.PHYS_BITFLIP, fidelity=0.0, target="A", position=position
        )
        flipped = apply_error_model(Ensemble.pure(target), model, n)
        for path in ("qnd", "destructive"):
            out = correct_physical_bitflip(
                flipped, suspected_logic_qubit="A", path=path, flip_position=position
            )
            assert out.success_probability == 1.0
            assert out.fidelity == pytest.approx(1.0, abs=1e-12)


def test_correct_bitflip_on_b_side():
    model = ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=0.0, target="B", position=1)
    flipped = apply_error_model(Ensemble.pure(make_logic_bell(3, "phi+")), model, 3)
    out = correct_physical_bitflip(flipped, suspected_logic_qubit="B")
    assert out.fidelity == pytest.approx(1.0, abs=1e-12)


def test_correct_bitflip_mixture_input():
    model = ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=0.6, target="A", position=1)
    mixed = apply_error_model(Ensemble.pure(make_logic_bell(2, "phi+")), model, 2)
    out = correct_physical_bitflip(mixed, suspected_logic_qubit="A")
    assert out.fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.success_probability == 1.0


def test_correct_clean_input_is_identity():
    out = correct_physical_bitflip(Ensemble.pure(make_logic_bell(2, "phi+")))
    assert out.fidelity == pytest.approx(1.0, abs=1e-12)


def test_correct_rejects_control_mode_flip():
    pair = Ensemble.pure(make_logic_bell(2, "phi+"))
    with pytest.raises(UnsupportedInputError):
        correct_physical_bitflip(pair, flip_position=0)


def test_correct_rejects_out_of_range_position():
    pair = Ensemble.pure(make_logic_bell(2, "phi+"))
    with pytest.raises(RegisterError):
        correct_physical_bitflip(pair, flip_position=5)


def test_correct_rejects_double_flip():
    s = make_logic_bell(3, "phi+")
    s = apply_x(apply_x(s, "a2"), "a3")
    with pytest.raises(UnsupportedInputError):
        correct_physical_bitflip(Ensemble.pure(s), suspected_logic_qubit="A")


def test_correct_path_argument_checked():
    pair = Ensemble.pure(make_logic_bell(2, "phi+"))
    with pytest.raises(ValueError):
        correct_physical_bitflip(pair, path="noisy")
    with pytest.raises(ValueError, match="suspected logic qubit must be 'A' or 'B'"):
        correct_physical_bitflip(pair, suspected_logic_qubit="C")


def test_routing_table():
    # phys phase flips turn phi+ into psi+ as logic bit flips do; phys bit
    # flips are corrected, not purified
    assert ErrorKind.LOGIC_BITFLIP.basis == "bit"
    assert ErrorKind.LOGIC_PHASEFLIP.basis == "phase"
    assert ErrorKind.PHYS_PHASEFLIP.basis == "bit"
    assert ErrorKind.PHYS_BITFLIP.basis is None


def _routed_pair(model, n):
    return apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), model, n)


def test_run_routed_purifies_phys_phaseflip():
    model = ErrorModel(
        kind=ErrorKind.PHYS_PHASEFLIP, fidelity=0.8, target="B", position=1
    )
    out = purify_pair(_routed_pair(model, 2), model.kind.basis)
    assert out.fidelity == pytest.approx(16 / 17, abs=1e-12)
    assert out.success_probability == pytest.approx(0.68, abs=1e-12)


def test_run_routed_corrects_phys_bitflip():
    model = ErrorModel(
        kind=ErrorKind.PHYS_BITFLIP, fidelity=0.0, target="A", position=1
    )
    assert model.kind.basis is None
    out = correct_physical_bitflip(
        _routed_pair(model, 3),
        suspected_logic_qubit=model.target,
        path="qnd",
        flip_position=model.position,
    )
    assert out.fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.success_probability == 1.0


@pytest.mark.parametrize("basis", ["Phase", "", "bits"])
def test_prepare_copy_refuses_an_unknown_basis(basis):
    with pytest.raises(ValueError, match="basis must be one of"):
        prepare_copy(make_logic_bell(2, "phi+"), basis)
    with pytest.raises(ValueError, match="basis must be one of"):
        canonical_pair(2, basis, 0.8)
    with pytest.raises(ValueError, match="basis must be one of"):
        canonical_round(2, basis, 0.8)


@pytest.mark.parametrize("f", [-0.1, 1.5, float("nan")])
def test_canonical_round_refuses_a_fidelity_outside_the_unit_interval(f):
    for make in (canonical_pair, canonical_round):
        with pytest.raises(ValueError, match="fidelity must lie in"):
            make(2, "bit", f)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from(BASES),
    st.lists(st.integers(0, 1000), min_size=4, max_size=4).filter(any),
)
def test_purify_pair_keeps_at_least_half_of_any_bell_mixture(n, basis, weights):
    # two identical copies agree with probability q^2 + (1 - q)^2 >= 1/2,
    # so a round always keeps some branch
    total = sum(weights)
    pair = Ensemble(tuple(
        (w / total, make_logic_bell(n, kind)) for w, kind in zip(weights, BELL_KINDS) if w
    ))
    out = purify_pair(pair, basis)
    assert out.success_probability >= 0.5 - EXACT_TOL
    assert 0.0 <= out.fidelity <= 1.0 + EXACT_TOL


def test_purify_config_validation():
    with pytest.raises(ValueError, match="n must be at least 2, got 1"):
        PurifyConfig(n=1, error_basis="bit", input_fidelity=0.8)
    with pytest.raises(
        ConfigError, match="purify at n=12 needs 26 qubits; registers are capped at 24"
    ):
        PurifyConfig(n=12, error_basis="bit", input_fidelity=0.8)
    with pytest.raises(ValueError):
        PurifyConfig(n=2, error_basis="weird", input_fidelity=0.8)
    with pytest.raises(ValueError):
        PurifyConfig(n=2, error_basis="bit", input_fidelity=1.5)
    with pytest.raises(ValueError):
        PurifyConfig(n=2, error_basis="bit", input_fidelity=0.8, rounds=0)
