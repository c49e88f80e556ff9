import math

import numpy as np
import pytest

from ghzpurify.errors import RegisterError
from ghzpurify.gates import discard
from ghzpurify.states import (
    MAX_QUBITS,
    BELL_KINDS,
    DensityMatrix,
    Ensemble,
    PureState,
    Register,
    basis_state,
    fidelity,
    make_bell,
    logic_register,
    make_logic_bell,
    map_branches,
    overlap,
    permute,
    shared_register,
    tensor,
    tensor_ensembles,
    to_density_matrix,
    with_labels,
)

from circuits import register
from dense import amplitude

SQRT_HALF = 1.0 / np.sqrt(2.0)


def test_register_basics():
    reg = Register(("a1", "a2", "b1"))
    assert reg.n_qubits == 3
    assert reg.index_of("a2") == 1
    assert reg.positions(["b1", "a1"]) == [2, 0]


def test_register_rejects_duplicates():
    with pytest.raises(RegisterError):
        Register(("q1", "q1"))


def test_register_unknown_label():
    reg = Register(("q1",))
    with pytest.raises(RegisterError):
        reg.index_of("q2")


def test_register_mask_is_checked():
    reg = Register(("a1", "a2", "b1"))
    assert reg.mask(["a1", "b1"]) == 0b101
    assert reg.mask(["a2", "a2"]) == 0b010  # a repeated label is one bit
    assert reg == Register(("a1", "a2", "b1"))
    for _ in range(2):  # an unknown label is refused, every time
        with pytest.raises(RegisterError):
            reg.mask(["a1", "q9"])


@pytest.mark.parametrize("n", [2, 3, 11])
def test_logic_register_layout(n):
    labels = logic_register(n).labels
    assert labels[:n] == tuple(f"a{i}" for i in range(1, n + 1))
    assert labels[n:] == tuple(f"b{i}" for i in range(1, n + 1))
    assert make_logic_bell(n, "phi+").register.labels == labels


def test_basis_state_amplitude_convention():
    reg = Register(("q1", "q2", "q3"))
    s = basis_state(reg, "011")
    # leftmost bit belongs to q1 and is the most significant index bit
    assert s.amps[0b011] == 1.0
    assert amplitude(s, "011") == 1.0
    assert amplitude(s, [0, 1, 1]) == 1.0
    with pytest.raises(ValueError, match="need 3 bits"):
        basis_state(reg, "012")


def test_pure_state_requires_normalization():
    reg = Register(("q1",))
    with pytest.raises(ValueError):
        PureState(reg, np.array([1.0, 1.0]))
    with pytest.raises(RegisterError, match="does not match 1-qubit register"):
        PureState(reg, np.array([1.0, 0.0, 0.0, 0.0]))


def test_pure_state_refuses_nan_and_inf_amplitudes():
    # a NaN or inf amplitude makes the norm NaN, which no comparison with
    # the tolerance may let through
    with pytest.raises(ValueError, match="not normalized"):
        PureState(Register(("q1", "q2")), [np.nan, 0, 0, 0])
    idx = np.array([0, 3], dtype=np.uint64)
    vals = np.array([np.inf, 0.5], dtype=np.complex128)
    with pytest.raises(ValueError, match="not normalized"):
        PureState._adopt(Register(("q1", "q2")), idx, vals)


def test_bell_state_amplitudes():
    phi_plus = make_bell("phi+")
    assert amplitude(phi_plus, "00") == pytest.approx(SQRT_HALF)
    assert amplitude(phi_plus, "11") == pytest.approx(SQRT_HALF)
    psi_minus = make_bell("psi-")
    assert amplitude(psi_minus, "01") == pytest.approx(SQRT_HALF)
    assert amplitude(psi_minus, "10") == pytest.approx(-SQRT_HALF)


def test_bell_states_orthonormal():
    states = [make_bell(k) for k in BELL_KINDS]
    gram = np.array([[overlap(s1, s2) for s2 in states] for s1 in states])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_logic_bell_closed_forms(n):
    # cross terms of the GHZ expansion cancel, leaving two kets per state
    zeros = "0" * n
    ones = "1" * n
    phi_plus = make_logic_bell(n, "phi+")
    assert amplitude(phi_plus, zeros + zeros) == pytest.approx(SQRT_HALF)
    assert amplitude(phi_plus, ones + ones) == pytest.approx(SQRT_HALF)
    assert np.count_nonzero(np.abs(phi_plus.amps) > 1e-15) == 2

    phi_minus = make_logic_bell(n, "phi-")
    assert amplitude(phi_minus, zeros + ones) == pytest.approx(SQRT_HALF)
    assert amplitude(phi_minus, ones + zeros) == pytest.approx(SQRT_HALF)

    psi_plus = make_logic_bell(n, "psi+")
    assert amplitude(psi_plus, zeros + zeros) == pytest.approx(SQRT_HALF)
    assert amplitude(psi_plus, ones + ones) == pytest.approx(-SQRT_HALF)

    psi_minus = make_logic_bell(n, "psi-")
    assert amplitude(psi_minus, ones + zeros) == pytest.approx(SQRT_HALF)
    assert amplitude(psi_minus, zeros + ones) == pytest.approx(-SQRT_HALF)


@pytest.mark.parametrize("n", [2, 3])
def test_logic_bell_orthonormal(n):
    states = [make_logic_bell(n, k) for k in BELL_KINDS]
    gram = np.array([[overlap(s1, s2) for s2 in states] for s1 in states])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_logic_bell_needs_two_modes():
    with pytest.raises(ValueError):
        make_logic_bell(1, "phi+")


def test_bell_builders_refuse_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown Bell kind 'chi"):
        make_bell("chi+")
    with pytest.raises(ValueError, match="unknown logic Bell kind 'chi"):
        make_logic_bell(2, "chi+")


def test_overlap_register_mismatch():
    with pytest.raises(RegisterError):
        overlap(make_bell("phi+", ("q1", "q2")), make_bell("phi+", ("q3", "q4")))


def test_tensor_order_and_labels():
    s = tensor(basis_state(Register(("q1",)), "1"), basis_state(Register(("q2",)), "0"))
    assert s.register.labels == ("q1", "q2")
    assert amplitude(s, "10") == 1.0
    with pytest.raises(RegisterError):
        tensor(s, basis_state(Register(("q1",)), "0"))


def test_with_labels_renames():
    s = with_labels(make_bell("phi+"), ("x", "y"))
    assert s.register.labels == ("x", "y")
    assert amplitude(s, "00") == pytest.approx(SQRT_HALF)
    with pytest.raises(RegisterError, match="label count mismatch"):
        with_labels(s, ("x", "y", "z"))


def test_permute_reorders_axes():
    rng = np.random.default_rng(11)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    s = PureState(Register(("q1", "q2", "q3")), v)
    p = permute(s, ("q3", "q1", "q2"))
    for bits in range(8):
        b = [(bits >> 2) & 1, (bits >> 1) & 1, bits & 1]
        assert amplitude(p, [b[2], b[0], b[1]]) == pytest.approx(amplitude(s, b))
    back = permute(p, ("q1", "q2", "q3"))
    assert np.allclose(back.amps, s.amps)


def test_permute_requires_same_labels():
    s = make_bell("phi+")
    with pytest.raises(RegisterError):
        permute(s, ("q1", "q9"))


def test_ensemble_weights():
    s = make_bell("phi+")
    e = Ensemble(((0.25, s), (0.75, s)))
    assert e.weight_sum == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Ensemble(((0.0, s),))
    with pytest.raises(ValueError):
        Ensemble(((0.8, s), (0.8, s)))


def test_ensemble_leaves_out_zero_weights():
    # a weight that underflowed to 0 carries no probability
    s, t = make_bell("phi+"), make_bell("psi+")
    e = Ensemble(((0.0, s), (1.0, t)))
    assert e.branches == ((1.0, t),)
    for bad in (-0.25, math.nan):
        with pytest.raises(ValueError, match="must be positive"):
            Ensemble(((bad, s), (0.75, t)))


def test_ensemble_needs_a_branch():
    # a round that keeps nothing has no state to carry on, so it raises
    with pytest.raises(ValueError, match="at least one branch"):
        Ensemble(())


def test_ensemble_scaled_and_map():
    e = Ensemble.pure(make_bell("phi+"))
    half = e.scaled(0.5)
    assert half.weight_sum == pytest.approx(0.5)
    relabeled = map_branches(e, lambda s: with_labels(s, ("x", "y")))
    assert relabeled.register.labels == ("x", "y")


def test_tensor_ensembles_weights_multiply():
    a = Ensemble(
        ((0.6, basis_state(Register(("q1",)), "0")),
         (0.4, basis_state(Register(("q1",)), "1")))
    )
    b = Ensemble.pure(basis_state(Register(("q2",)), "1"))
    prod = tensor_ensembles(a, b)
    assert [w for w, _ in prod.branches] == pytest.approx([0.6, 0.4])
    assert prod.register.labels == ("q1", "q2")


def test_fidelity_of_mixture():
    good = make_bell("phi+")
    bad = make_bell("psi+")
    e = Ensemble(((0.8, good), (0.2, bad)))
    assert fidelity(e, good) == pytest.approx(0.8)
    assert fidelity(e, bad) == pytest.approx(0.2)


def test_density_matrix_roundtrip():
    e = Ensemble(((0.8, make_bell("phi+")), (0.2, make_bell("psi+"))))
    dm = to_density_matrix(e)
    assert dm.matrix.shape == (4, 4)
    assert np.trace(dm.matrix) == pytest.approx(1.0)
    phi = make_bell("phi+").amps
    assert np.vdot(phi, dm.matrix @ phi).real == pytest.approx(0.8)


def test_density_matrix_qubit_cap():
    reg = register([("q", 13)])
    with pytest.raises(RegisterError, match="capped at 12 qubits"):
        DensityMatrix(reg, np.eye(2, dtype=np.complex128) / 2)


def test_density_matrix_shape_must_match_register():
    with pytest.raises(RegisterError, match=r"matrix shape \(2, 2\) does not match"):
        DensityMatrix(Register(("q1", "q2")), np.eye(2, dtype=np.complex128) / 2)


def test_equal_label_tuples_share_one_register():
    s = make_logic_bell(3, "phi+")
    labels = s.register.labels
    renamed = with_labels(s, labels)
    back = permute(permute(s, labels[::-1]), labels)
    reg = logic_register(3)
    assert s.register is reg
    assert renamed.register is reg and back.register is reg
    assert tensor(basis_state(Register(("x",)), "0"), s).register is tensor(
        basis_state(Register(("x",)), "1"), s
    ).register
    wider = tensor(s, basis_state(Register(("c1", "d1")), "00"))
    assert discard(wider, ["c1", "d1"]).register is reg
    # a direct construction still builds and validates its own register
    assert Register(labels) is not reg and Register(labels) == reg


@pytest.mark.parametrize(
    "labels", [(), ("q1", "q1"), ("q1", ""), tuple(f"q{k}" for k in range(MAX_QUBITS + 1))]
)
def test_bad_label_tuples_raise_on_every_call(labels):
    for _ in range(2):
        for build in (Register, shared_register):
            with pytest.raises(RegisterError):
                build(labels)


def test_engine_functions_refuse_bad_registers_on_every_call():
    s = basis_state(Register(("q1", "q2")), "00")
    widest = basis_state(Register(tuple(f"a{k}" for k in range(MAX_QUBITS))), "0" * MAX_QUBITS)
    for _ in range(2):
        with pytest.raises(RegisterError, match="duplicate"):
            with_labels(s, ("q1", "q1"))
        with pytest.raises(RegisterError, match="duplicate"):
            make_bell("phi+", ("q1", "q1"))
        with pytest.raises(RegisterError, match="at least one"):
            make_bell("phi+", ())
        with pytest.raises(RegisterError, match="cap"):
            tensor(widest, basis_state(Register(("x",)), "0"))
