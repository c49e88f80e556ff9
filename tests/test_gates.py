import numpy as np
import pytest

from ghzpurify import gates
from ghzpurify.errors import RegisterError
from ghzpurify.gates import (
    OUTCOME_EPS,
    apply_cnot,
    apply_fan_outs,
    apply_h,
    apply_pauli,
    apply_x,
    apply_z,
    discard,
    measure_ensemble,
    outcome_probability,
    project,
    reset_qubit,
)
from ghzpurify.states import (
    BELL_KINDS,
    EXACT_TOL,
    Ensemble,
    PureState,
    Register,
    basis_state,
    make_bell,
    make_logic_bell,
    overlap,
)

import dense
from circuits import apply_circuit
from dense import amplitude

SQRT_HALF = 1.0 / np.sqrt(2.0)


def _random_state(rng, labels):
    dim = 2 ** len(labels)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(Register(tuple(labels)), v / np.linalg.norm(v))


def test_h_on_basis_states():
    reg = Register(("q1",))
    plus = apply_h(basis_state(reg, "0"), "q1")
    assert plus.amps == pytest.approx([SQRT_HALF, SQRT_HALF])
    minus = apply_h(basis_state(reg, "1"), "q1")
    assert minus.amps == pytest.approx([SQRT_HALF, -SQRT_HALF])


def test_x_and_z_on_basis_states():
    reg = Register(("q1",))
    assert amplitude(apply_x(basis_state(reg, "0"), "q1"), "1") == 1.0
    flipped = apply_z(basis_state(reg, "1"), "q1")
    assert amplitude(flipped, "1") == -1.0


def test_cnot_truth_table():
    reg = Register(("c", "t"))
    for cin, tin, tout in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        s = apply_cnot(basis_state(reg, [cin, tin]), "c", "t")
        assert amplitude(s, [cin, tout]) == 1.0


def test_cnot_target_left_of_control():
    # register order (t, c): axis bookkeeping must still flip the right qubit
    reg = Register(("t", "c"))
    s = apply_cnot(basis_state(reg, [0, 1]), "c", "t")
    assert amplitude(s, [1, 1]) == 1.0


def test_cnot_rejects_equal_labels():
    s = basis_state(Register(("q1", "q2")), "00")
    with pytest.raises(RegisterError):
        apply_cnot(s, "q1", "q1")


def test_bell_circuit_from_descriptors():
    s = basis_state(Register(("q1", "q2")), "00")
    s = apply_circuit(s, [("h", "q1"), ("cnot", "q1", "q2")])
    assert abs(overlap(make_bell("phi+"), s)) == pytest.approx(1.0)


def test_apply_circuit_rejects_unknown_op():
    s = basis_state(Register(("q1",)), "0")
    with pytest.raises(ValueError):
        apply_circuit(s, [("swap", "q1")])


def test_pauli_string_application():
    s = make_bell("phi+")
    flipped = apply_pauli(s, {"q2": "X"})
    assert abs(overlap(make_bell("psi+"), flipped)) == pytest.approx(1.0)
    phase = apply_pauli(s, {"q1": "Z"})
    assert abs(overlap(make_bell("phi-"), phase)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "ops",
    [
        {"q1": "X", "q3": "X", "q6": "X"},
        {"q2": "Z", "q4": "Z", "q5": "Z"},
        {"q6": "X", "q1": "Z", "q2": "X", "q3": "Z", "q5": "X"},
        {},
    ],
)
def test_pauli_string_equals_its_factors_one_label_at_a_time(ops):
    s = _random_state(np.random.default_rng(914), [f"q{k}" for k in range(1, 7)])
    ref = s
    for lab, name in ops.items():
        ref = dense.apply_single(ref, lab, dense.PAULI[name])
    assert np.array_equal(apply_pauli(s, ops).amps, ref.amps)


def test_pauli_string_rejects_unknown_op():
    with pytest.raises(ValueError):
        apply_pauli(make_bell("phi+"), {"q1": "Q"})


def test_gates_preserve_norm_random():
    rng = np.random.default_rng(905)
    labels = ("q1", "q2", "q3", "q4")
    for _ in range(30):
        s = _random_state(rng, labels)
        for _ in range(6):
            q = labels[rng.integers(0, 4)]
            t = labels[rng.integers(0, 4)]
            pick = rng.integers(0, 4)
            if pick == 0:
                s = apply_h(s, q)
            elif pick == 1:
                s = apply_x(s, q)
            elif pick == 2:
                s = apply_z(s, q)
            elif t != q:
                s = apply_cnot(s, q, t)
        assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-12)


def test_gates_commute_on_disjoint_qubits():
    rng = np.random.default_rng(906)
    for _ in range(20):
        s = _random_state(rng, ("q1", "q2", "q3"))
        ab = apply_x(apply_h(s, "q1"), "q2")
        ba = apply_h(apply_x(s, "q2"), "q1")
        assert np.allclose(ab.amps, ba.amps, atol=1e-12)


def test_outcome_probability_marginals():
    s = make_bell("psi+")
    assert outcome_probability(s, "q1", 0) == pytest.approx(0.5)
    assert outcome_probability(s, "q1", 1) == pytest.approx(0.5)
    fixed = basis_state(Register(("q1", "q2")), "10")
    assert outcome_probability(fixed, "q1", 1) == 1.0
    assert outcome_probability(fixed, "q2", 1) == 0.0


def test_project_renormalizes_and_keeps_qubit():
    s = make_bell("phi+")
    p, post = project(s, "q1", 0)
    assert p == pytest.approx(0.5)
    assert post.register.labels == ("q1", "q2")
    assert amplitude(post, "00") == pytest.approx(1.0)


def test_project_impossible_outcome():
    s = basis_state(Register(("q1",)), "0")
    p, post = project(s, "q1", 1)
    assert p == 0.0 and post is None
    with pytest.raises(ValueError, match="outcome must be 0 or 1, got 2"):
        project(s, "q1", 2)


def test_measure_ensemble_probabilities():
    e = Ensemble(((0.8, make_bell("phi+")), (0.2, make_bell("psi+"))))
    outcomes = measure_ensemble(e, ["q1", "q2"])
    assert set(outcomes) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert outcomes[(0, 0)][0] == pytest.approx(0.4)
    assert outcomes[(0, 1)][0] == pytest.approx(0.1)
    assert outcomes[(1, 0)][0] == pytest.approx(0.1)
    assert outcomes[(1, 1)][0] == pytest.approx(0.4)
    assert sum(p for p, _ in outcomes.values()) == pytest.approx(1.0)
    for _, ens in outcomes.values():
        assert ens.weight_sum == pytest.approx(1.0)


def test_measure_ensemble_skips_outcomes_whose_weight_underflows():
    # 5e-324 * 1/2 rounds to 0, so the |1+> branch's outcomes carry nothing
    tiny = apply_h(basis_state(Register(("q1", "q2")), "10"), "q2")
    e = Ensemble(((1.0, basis_state(Register(("q1", "q2")), "00")), (5e-324, tiny)))
    outcomes = measure_ensemble(e, ["q1", "q2"])
    assert list(outcomes) == [(0, 0)]
    assert outcomes[(0, 0)][0] == 1.0


def test_measure_ensemble_outcome_keys_sorted():
    e = Ensemble.pure(make_bell("phi+"))
    keys = list(measure_ensemble(e, ["q1"]))
    assert keys == sorted(keys)


def test_discard_definite_qubits():
    s = basis_state(Register(("q1", "q2", "q3")), "010")
    trimmed = discard(s, ["q2"])
    assert trimmed.register.labels == ("q1", "q3")
    assert amplitude(trimmed, "00") == pytest.approx(1.0)
    assert discard(s, []) is s
    with pytest.raises(RegisterError, match="cannot discard every qubit"):
        discard(s, ["q3", "q1", "q2"])


def test_discard_rejects_entangled_qubit():
    with pytest.raises(RegisterError):
        discard(make_bell("phi+"), ["q1"])


def test_discard_rejects_unknown_label():
    s = basis_state(Register(("q1", "q2")), "00")
    with pytest.raises(RegisterError):
        discard(s, ["q9"])


def test_reset_qubit():
    s = basis_state(Register(("q1", "q2")), "10")
    reset = reset_qubit(s, "q1")
    assert amplitude(reset, "00") == pytest.approx(1.0)
    assert reset_qubit(reset, "q1") is reset
    with pytest.raises(RegisterError):
        reset_qubit(apply_h(s, "q1"), "q1")


def test_projection_chain_consistency():
    # sequential projections reproduce joint outcome probabilities
    rng = np.random.default_rng(907)
    for _ in range(10):
        s = _random_state(rng, ("q1", "q2", "q3"))
        total = 0.0
        for o1 in (0, 1):
            p1, after1 = project(s, "q1", o1)
            if after1 is None:
                continue
            for o2 in (0, 1):
                p2, _ = project(after1, "q2", o2)
                total += p1 * p2
        assert total == pytest.approx(1.0, abs=1e-12)


# Reference formulas the long way: a marginal summed over every other axis,
# and a projection that copies the state and zeroes the other half.


def _marginal_probability(s, label, outcome):
    q = s.register.index_of(label)
    t = np.abs(s.amps.reshape((2,) * s.n_qubits)) ** 2
    axes = tuple(i for i in range(s.n_qubits) if i != q)
    return float(t.sum(axis=axes)[outcome])


def _copy_and_zero_projection(s, label, outcome):
    q = s.register.index_of(label)
    arr = s.amps.reshape((2,) * s.n_qubits).copy()
    sel = [slice(None)] * s.n_qubits
    sel[q] = 1 - outcome
    arr[tuple(sel)] = 0.0
    return arr.reshape(-1) / np.sqrt(_marginal_probability(s, label, outcome))


@pytest.mark.parametrize(
    "control, targets",
    [
        ("q1", ("q2", "q4", "q5")),  # control before the targets
        ("q3", ("q1", "q5", "q2")),  # control between them, targets unsorted
        ("q5", ("q1", "q2", "q3", "q4")),  # control after them
        ("q2", ("q4",)),
    ],
)
def test_cnot_fan_out_matches_sequential_cnots(control, targets):
    rng = np.random.default_rng(908)
    for _ in range(10):
        s = _random_state(rng, ("q1", "q2", "q3", "q4", "q5"))
        fused = apply_cnot(s, control, *targets)
        sequential = s
        for t in targets:
            sequential = apply_cnot(sequential, control, t)
        assert np.max(np.abs(fused.amps - sequential.amps)) <= EXACT_TOL
        described = apply_circuit(s, [("cnot", control, *targets)])
        assert np.array_equal(described.amps, fused.amps)


@pytest.mark.parametrize(
    "control, targets",
    [("q1", ("q2", "q1")), ("q1", ("q2", "q3", "q2")), ("q1", ())],
)
def test_cnot_fan_out_rejects_bad_targets(control, targets):
    s = basis_state(Register(("q1", "q2", "q3")), "100")
    with pytest.raises(RegisterError):
        apply_cnot(s, control, *targets)


@pytest.mark.parametrize(
    "groups",
    [(("q1", ("q2",)), ("q3", ("q3",))), (("q1", ("q2",)), ("q2", ())), (("q1", ("q9",)),)],
)
def test_fan_out_layer_rejects_any_bad_group(groups):
    s = basis_state(Register(("q1", "q2", "q3")), "100")
    with pytest.raises(RegisterError):
        apply_fan_outs(s, *groups)


def test_outcome_probability_and_project_match_reference_formulas():
    rng = np.random.default_rng(909)
    labels = ("q1", "q2", "q3", "q4")
    for _ in range(10):
        s = _random_state(rng, labels)
        for lab in labels:
            for outcome in (0, 1):
                p = outcome_probability(s, lab, outcome)
                assert p == pytest.approx(
                    _marginal_probability(s, lab, outcome), abs=EXACT_TOL
                )
                p_proj, post = project(s, lab, outcome)
                assert p_proj == p
                reference = _copy_and_zero_projection(s, lab, outcome)
                assert np.max(np.abs(post.amps - reference)) <= EXACT_TOL


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", BELL_KINDS)
def test_logic_bell_matches_kron_construction(n, kind):
    gp, gm = np.zeros(2**n), np.zeros(2**n)
    gp[0], gp[-1] = SQRT_HALF, SQRT_HALF
    gm[0], gm[-1] = SQRT_HALF, -SQRT_HALF
    sign = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("phi"):
        expected = (np.kron(gp, gp) + sign * np.kron(gm, gm)) / np.sqrt(2.0)
    else:
        expected = (np.kron(gp, gm) + sign * np.kron(gm, gp)) / np.sqrt(2.0)
    assert np.array_equal(make_logic_bell(n, kind).amps, expected)


def test_pure_state_copies_caller_arrays_and_adopted_arrays_are_read_only():
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    s = PureState(Register(("q1", "q2")), amps)
    amps[0], amps[3] = 0.0, 1.0
    assert amplitude(s, "00") == 1.0 and amplitude(s, "11") == 0.0
    assert not s.amps.flags.writeable
    built = (
        apply_cnot(apply_h(s, "q1"), "q1", "q2"),
        project(make_bell("phi+"), "q1", 1)[1],
        make_logic_bell(3, "psi-"),
        discard(basis_state(Register(("q1", "q2")), "01"), ["q2"]),
    )
    for state in built:
        assert not state.amps.flags.writeable
        with pytest.raises(ValueError):
            state.amps[0] = 0.0


# Reference kernels the long way: a single-qubit gate by tensordot and the
# moveaxis copy, and a joint measurement as a tree of one-qubit projections.


def _tensordot_single(s, label, mat):
    q = s.register.index_of(label)
    t = np.tensordot(mat, s.amps.reshape((2,) * s.n_qubits), axes=([1], [q]))
    return np.moveaxis(t, 0, q).reshape(-1)


def _measure_by_projection_tree(e, labels):
    total = e.weight_sum
    collected = {}
    for w, s in e.branches:
        partial = [((), w, s)]
        for lab in labels:
            nxt = []
            for prefix, wp, sp in partial:
                for outcome in (0, 1):
                    p, post = project(sp, lab, outcome)
                    if post is not None:
                        nxt.append((prefix + (outcome,), wp * p, post))
            partial = nxt
        for bits, wp, sp in partial:
            collected.setdefault(bits, []).append((wp, sp))
    out = {}
    for bits in sorted(collected):
        branches = collected[bits]
        prob = sum(w for w, _ in branches) / total
        out[bits] = (prob, [(w / (prob * total), s) for w, s in branches])
    return out


def _assert_measurements_agree(e, labels):
    joint = measure_ensemble(e, labels)
    tree = _measure_by_projection_tree(e, labels)
    assert list(joint) == list(tree)
    for bits, (prob, ens) in joint.items():
        ref_prob, ref_branches = tree[bits]
        assert abs(prob - ref_prob) <= EXACT_TOL
        assert len(ens.branches) == len(ref_branches)
        for (w, s), (ref_w, ref_s) in zip(ens.branches, ref_branches):
            assert abs(w - ref_w) <= EXACT_TOL
            assert s.register == ref_s.register
            assert np.max(np.abs(s.amps - ref_s.amps)) <= EXACT_TOL


_SINGLE_GATES = {
    "h": (apply_h, dense.H),
    "x": (apply_x, dense.X),
    "z": (apply_z, dense.Z),
}


@pytest.mark.parametrize("name", sorted(_SINGLE_GATES))
def test_single_qubit_gates_match_tensordot_at_every_position(name):
    # seven qubits leave 64 down to 1 trailing amplitudes behind the gated
    # qubit, so both the batched and the narrow product are exercised
    gate, mat = _SINGLE_GATES[name]
    rng = np.random.default_rng(910)
    labels = tuple(f"q{k}" for k in range(1, 8))
    for _ in range(3):
        s = _random_state(rng, labels)
        for lab in labels:
            ref = _tensordot_single(s, lab, mat)
            assert np.max(np.abs(gate(s, lab).amps - ref)) <= EXACT_TOL


@pytest.mark.parametrize("k", range(1, 6))
def test_joint_measurement_matches_projection_tree(k):
    rng = np.random.default_rng(911)
    labels = ("q1", "q2", "q3", "q4", "q5")
    for _ in range(4):
        e = Ensemble(
            ((0.7, _random_state(rng, labels)), (0.3, _random_state(rng, labels)))
        )
        picked = [labels[i] for i in rng.permutation(5)[:k]]
        _assert_measurements_agree(e, picked)  # in a random order
        _assert_measurements_agree(e, sorted(picked))


def test_joint_measurement_of_every_qubit():
    # each kept slice is a single amplitude
    rng = np.random.default_rng(912)
    s = _random_state(rng, ("q1", "q2", "q3"))
    _assert_measurements_agree(Ensemble.pure(s), ["q2", "q3", "q1"])
    outcomes = measure_ensemble(Ensemble.pure(s), ["q2", "q3", "q1"])
    assert len(outcomes) == 8
    prob, ens = outcomes[(1, 0, 1)]
    assert prob == pytest.approx(abs(amplitude(s, "110")) ** 2, abs=EXACT_TOL)
    assert abs(amplitude(ens.branches[0][1], "110")) == pytest.approx(1.0)


def test_joint_measurement_drops_outcome_below_eps():
    tiny = 1e-7  # probability 1e-14, below OUTCOME_EPS
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000], amps[0b110] = np.sqrt(1.0 - tiny**2), tiny
    s = PureState(Register(("q1", "q2", "q3")), amps)
    assert tiny**2 < OUTCOME_EPS
    outcomes = measure_ensemble(Ensemble.pure(s), ["q1", "q2"])
    assert list(outcomes) == [(0, 0)]
    _assert_measurements_agree(Ensemble.pure(s), ["q1", "q2"])


def test_outcome_keys_follow_label_order():
    s = basis_state(Register(("q1", "q2", "q3")), "011")
    e = Ensemble.pure(s)
    assert list(measure_ensemble(e, ["q1", "q3"])) == [(0, 1)]
    assert list(measure_ensemble(e, ["q3", "q1"])) == [(1, 0)]


@pytest.mark.parametrize("labels", [["q1", "q1"], ["q2", "q9"], []])
def test_measure_ensemble_rejects_bad_labels_before_array_work(monkeypatch, labels):
    def no_array_work(*args):
        raise AssertionError("array work before the label check")

    # the sparse engine's grouping, and the dense reference's reduction
    monkeypatch.setattr(gates, "_group_by_bits", no_array_work)
    monkeypatch.setattr(dense, "joint_probabilities", no_array_work)
    e = Ensemble.pure(basis_state(Register(("q1", "q2")), "00"))
    for measure in (measure_ensemble, dense.measure_ensemble):
        with pytest.raises(RegisterError if labels else ValueError):
            measure(e, labels)


def test_discard_keeps_the_definite_block_and_names_the_offender():
    rng = np.random.default_rng(913)
    core = _random_state(rng, ("q2", "q4"))
    # register q1 q2 q3 q4 with q1 in |1> and q3 in |0> around the core
    full = np.einsum("a,bd,c->abcd", [0, 1], core.amps.reshape(2, 2), [1, 0])
    s = PureState(Register(("q1", "q2", "q3", "q4")), full.reshape(-1))
    kept = discard(s, ["q3", "q1"])
    assert kept.register.labels == ("q2", "q4")
    assert np.max(np.abs(kept.amps - core.amps)) <= EXACT_TOL
    with pytest.raises(RegisterError, match="qubit 'q2' is not in a definite"):
        discard(s, ["q1", "q2"])


def test_discard_refuses_readings_spread_below_eps_on_each_qubit():
    # each dropped qubit alone reads 1 with e <= OUTCOME_EPS, yet 2e lies on
    # readings other than the kept |00>
    e = 0.9e-12
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000], amps[0b100], amps[0b010] = np.sqrt(1 - 2 * e), np.sqrt(e), np.sqrt(e)
    s = PureState(Register(("x", "y", "z")), amps)
    assert e <= OUTCOME_EPS < 2 * e
    for drop in (discard, dense.discard):
        with pytest.raises(RegisterError, match=r"qubits \['x', 'y'\] are not"):
            drop(s, ["x", "y"])
