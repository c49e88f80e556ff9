"""The sparse engine against the dense reference kernels, and its memory use
at the largest blocks the register cap accepts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify import gates
from ghzpurify.errors import RegisterError
from ghzpurify.noise import ErrorKind, ErrorModel, apply_error_model
from ghzpurify.protocol import (
    PurifyConfig,
    correct_physical_bitflip,
    one_round_fidelity_map,
    one_round_success_probability,
    purify_round,
)
from ghzpurify.states import (
    EXACT_TOL,
    Ensemble,
    PureState,
    Register,
    basis_state,
    make_logic_bell,
    permute,
    tensor,
)

import dense

MAX_N = 7
_EXAMPLES = settings(max_examples=40, deadline=None)


def _random_state(rng, labels):
    dim = 2 ** len(labels)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(Register(tuple(labels)), v / np.linalg.norm(v))


def _labels(n, prefix="q"):
    return tuple(f"{prefix}{k}" for k in range(1, n + 1))


def _assert_same_state(got, want):
    assert got.register == want.register
    assert np.max(np.abs(got.amps - want.amps)) <= EXACT_TOL


@st.composite
def _state(draw, min_n=1):
    """A random full-support state of min_n..MAX_N qubits, drawn from a seed."""
    n = draw(st.integers(min_n, MAX_N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_state(rng, _labels(n))


@_EXAMPLES
@given(_state(), st.data())
def test_single_qubit_gates_match_dense(s, data):
    label = data.draw(st.sampled_from(s.register.labels))
    for gate, mat in ((gates.apply_h, dense.H), (gates.apply_x, dense.X), (gates.apply_z, dense.Z)):
        _assert_same_state(gate(s, label), dense.apply_single(s, label, mat))


@_EXAMPLES
@given(_state(min_n=2), st.data())
def test_cnot_fan_out_matches_dense(s, data):
    labels = data.draw(st.permutations(s.register.labels))
    k = data.draw(st.integers(1, len(labels) - 1))
    control, targets = labels[0], labels[1 : 1 + k]
    _assert_same_state(
        gates.apply_cnot(s, control, *targets), dense.apply_cnot(s, control, *targets)
    )


@_EXAMPLES
@given(_state(), st.data())
def test_h_layer_equals_chained_h_and_dense(s, data):
    labels = data.draw(st.lists(st.sampled_from(s.register.labels), min_size=1, max_size=4))
    layer = gates.apply_h(s, *labels)
    chained = ref = s
    for label in labels:
        chained = gates.apply_h(chained, label)
        ref = dense.apply_single(ref, label, dense.H)
    assert np.array_equal(layer.idx, chained.idx)
    assert np.array_equal(layer.vals, chained.vals)
    _assert_same_state(layer, ref)


@_EXAMPLES
@given(_state(min_n=2), st.data())
def test_fan_out_layer_equals_sequential_cnots_and_dense(s, data):
    groups = []
    for _ in range(data.draw(st.integers(1, 3))):
        labels = data.draw(st.permutations(s.register.labels))
        k = data.draw(st.integers(1, len(labels) - 1))
        groups.append((labels[0], tuple(labels[1 : 1 + k])))
    layer = gates.apply_fan_outs(s, *groups)
    sequential = ref = s
    for control, targets in groups:
        sequential = gates.apply_cnot(sequential, control, *targets)
        ref = dense.apply_cnot(ref, control, *targets)
    assert np.array_equal(layer.idx, sequential.idx)
    assert np.array_equal(layer.vals, sequential.vals)
    _assert_same_state(layer, ref)


@_EXAMPLES
@given(_state(), st.data())
def test_pauli_string_matches_dense(s, data):
    ops = data.draw(st.dictionaries(st.sampled_from(s.register.labels), st.sampled_from("XZ")))
    _assert_same_state(gates.apply_pauli(s, ops), dense.apply_pauli(s, ops))


@_EXAMPLES
@given(_state(), st.data())
def test_outcome_probability_and_project_match_dense(s, data):
    label = data.draw(st.sampled_from(s.register.labels))
    for outcome in (0, 1):
        p = gates.outcome_probability(s, label, outcome)
        assert abs(p - dense.outcome_probability(s, label, outcome)) <= EXACT_TOL
        p_proj, post = gates.project(s, label, outcome)
        ref_p, ref_post = dense.project(s, label, outcome)
        assert abs(p_proj - ref_p) <= EXACT_TOL
        _assert_same_state(post, ref_post)


@_EXAMPLES
@given(st.integers(1, MAX_N), st.integers(0, 2**32 - 1), st.data())
def test_measure_ensemble_matches_dense(n, seed, data):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=data.draw(st.integers(1, 3)))
    weights /= weights.sum()
    e = Ensemble(tuple((w, _random_state(rng, _labels(n))) for w in weights))
    picked = data.draw(st.permutations(e.register.labels))
    picked = picked[: data.draw(st.integers(1, n))]
    got = gates.measure_ensemble(e, picked)
    want = dense.measure_ensemble(e, picked)
    assert list(got) == list(want)
    for bits, (prob, ens) in got.items():
        ref_prob, ref_ens = want[bits]
        assert abs(prob - ref_prob) <= EXACT_TOL
        assert len(ens.branches) == len(ref_ens.branches)
        for (w, branch), (ref_w, ref_branch) in zip(ens.branches, ref_ens.branches):
            assert abs(w - ref_w) <= EXACT_TOL
            _assert_same_state(branch, ref_branch)


@_EXAMPLES
@given(st.integers(1, MAX_N - 1), st.integers(1, MAX_N - 1), st.integers(0, 2**32 - 1), st.data())
def test_discard_matches_dense(kept, dropped, seed, data):
    # a random core tensored with definite qubits, in a random register order
    if kept + dropped > MAX_N:
        dropped = MAX_N - kept
    rng = np.random.default_rng(seed)
    bits = "".join(str(b) for b in rng.integers(0, 2, size=dropped))
    definite = basis_state(Register(_labels(dropped, "d")), bits)
    full = tensor(_random_state(rng, _labels(kept)), definite)
    s = permute(full, data.draw(st.permutations(full.register.labels)))
    drop = data.draw(st.permutations(definite.register.labels))
    _assert_same_state(gates.discard(s, drop), dense.discard(s, drop))
    # a core qubit is in superposition: both refuse, naming the same qubit
    with_core = list(drop) + [data.draw(st.sampled_from(_labels(kept)))]
    if len(with_core) < s.n_qubits:
        messages = []
        for discard in (gates.discard, dense.discard):
            with pytest.raises(RegisterError) as err:
                discard(s, with_core)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


@_EXAMPLES
@given(st.integers(1, MAX_N - 1), st.integers(1, MAX_N - 1), st.integers(0, 2**32 - 1))
def test_tensor_matches_dense(n1, n2, seed):
    rng = np.random.default_rng(seed)
    s1 = _random_state(rng, _labels(n1, "a"))
    s2 = _random_state(rng, _labels(min(n2, MAX_N - n1), "b"))
    _assert_same_state(tensor(s1, s2), dense.tensor(s1, s2))


@_EXAMPLES
@given(_state(), st.data())
def test_permute_matches_dense(s, data):
    order = data.draw(st.permutations(s.register.labels))
    _assert_same_state(permute(s, order), dense.permute(s, order))


# A dense 24-qubit vector alone is 256 MiB; the sparse engine's states at
# these sizes hold a handful of entries.
_PEAK_BYTES = 1 << 20


def _peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("basis", ["bit", "phase"])
def test_round_at_n11_stays_under_1_mib(basis):
    f = 0.8
    cfg = PurifyConfig(n=11, error_basis=basis, input_fidelity=f)
    out, peak = _peak(lambda: purify_round(cfg))
    assert peak < _PEAK_BYTES
    assert abs(out.success_probability - one_round_success_probability(f)) <= EXACT_TOL
    assert abs(out.fidelity - one_round_fidelity_map(f)) <= EXACT_TOL


@pytest.mark.parametrize("path", ["qnd", "destructive"])
def test_correction_at_n12_stays_under_1_mib(path):
    n = 12
    model = ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=0.7, target="A", position=5)

    def run():
        pair = apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), model, n)
        return correct_physical_bitflip(pair, "A", path=path, flip_position=5)

    out, peak = _peak(run)
    assert peak < _PEAK_BYTES
    assert abs(out.success_probability - 1.0) <= EXACT_TOL
    assert abs(out.fidelity - 1.0) <= EXACT_TOL
