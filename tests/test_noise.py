import numpy as np
import pytest

from ghzpurify.errors import RegisterError
from ghzpurify.noise import ErrorKind, ErrorModel, apply_error_model, error_operator
from ghzpurify.states import Ensemble, fidelity, make_logic_bell, overlap

from dense import amplitude


def test_error_kind_values_and_physical_flag():
    assert ErrorKind("logic-bitflip") is ErrorKind.LOGIC_BITFLIP
    assert not ErrorKind.LOGIC_BITFLIP.is_physical
    assert not ErrorKind.LOGIC_PHASEFLIP.is_physical
    assert ErrorKind.PHYS_BITFLIP.is_physical
    assert ErrorKind.PHYS_PHASEFLIP.is_physical


def test_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=1.2)
    with pytest.raises(ValueError):
        ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=0.5, target="C")
    with pytest.raises(ValueError):
        ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=0.5)
    with pytest.raises(ValueError):
        ErrorModel(kind=ErrorKind.PHYS_PHASEFLIP, fidelity=0.5, position=-1)


def test_model_accepts_string_kind():
    m = ErrorModel(kind="phys-bitflip", fidelity=0.9, position=1)
    assert m.kind is ErrorKind.PHYS_BITFLIP


def test_operator_logic_bitflip_is_single_z():
    m = ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=0.5)
    op = error_operator(m, 3)
    assert op == {"b1": "Z"}
    shifted = ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=0.5, position=2)
    assert error_operator(shifted, 3) == {"b3": "Z"}


def test_operator_logic_phaseflip_is_x_on_all_modes():
    m = ErrorModel(kind=ErrorKind.LOGIC_PHASEFLIP, fidelity=0.5, target="A")
    op = error_operator(m, 3)
    assert op == {"a1": "X", "a2": "X", "a3": "X"}


def test_operator_physical_kinds():
    bit = ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=0.5, target="A", position=1)
    assert error_operator(bit, 2) == {"a2": "X"}
    phase = ErrorModel(kind=ErrorKind.PHYS_PHASEFLIP, fidelity=0.5, position=0)
    assert error_operator(phase, 2) == {"b1": "Z"}


def test_operator_position_range_checks():
    m = ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=0.5, position=5)
    with pytest.raises(RegisterError):
        error_operator(m, 3)
    shifted = ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=0.5, position=3)
    with pytest.raises(RegisterError):
        error_operator(shifted, 3)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("position", [0, 1])
def test_logic_bitflip_position_independent(n, position):
    # Z anywhere in one GHZ block turns phi+ into exactly psi+
    m = ErrorModel(
        kind=ErrorKind.LOGIC_BITFLIP, fidelity=0.0, target="B", position=position
    )
    e = apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), m, n)
    (w, s), = e.branches
    assert w == pytest.approx(1.0)
    assert abs(overlap(make_logic_bell(n, "psi+"), s)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("target", ["A", "B"])
def test_phys_phaseflip_and_logic_bitflip_are_one_operator(n, target):
    for position in range(n):
        logic, phys = (
            error_operator(ErrorModel(kind, 0.5, target, position), n)
            for kind in (ErrorKind.LOGIC_BITFLIP, ErrorKind.PHYS_PHASEFLIP)
        )
        assert logic == phys


@pytest.mark.parametrize("n", [2, 3])
def test_phys_phaseflip_equals_logic_bitflip(n):
    for position in range(n):
        m = ErrorModel(
            kind=ErrorKind.PHYS_PHASEFLIP, fidelity=0.0, target="A", position=position
        )
        e = apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), m, n)
        (_, s), = e.branches
        assert abs(overlap(make_logic_bell(n, "psi+"), s)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("target", ["A", "B"])
def test_logic_phaseflip_turns_phi_plus_into_phi_minus(n, target):
    m = ErrorModel(kind=ErrorKind.LOGIC_PHASEFLIP, fidelity=0.0, target=target)
    e = apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), m, n)
    (_, s), = e.branches
    assert abs(overlap(make_logic_bell(n, "phi-"), s)) == pytest.approx(1.0)


def test_phys_bitflip_produces_local_flip():
    m = ErrorModel(kind=ErrorKind.PHYS_BITFLIP, fidelity=0.0, target="A", position=1)
    e = apply_error_model(Ensemble.pure(make_logic_bell(2, "phi+")), m, 2)
    (_, s), = e.branches
    # (|0100> + |1011>)/sqrt2: the a2 mode is flipped against the block
    assert amplitude(s, "0100") == pytest.approx(1 / np.sqrt(2))
    assert amplitude(s, "1011") == pytest.approx(1 / np.sqrt(2))


def test_mixture_weights_and_fidelity():
    m = ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=0.8)
    e = apply_error_model(Ensemble.pure(make_logic_bell(2, "phi+")), m, 2)
    assert len(e.branches) == 2
    assert e.weight_sum == pytest.approx(1.0)
    assert fidelity(e, make_logic_bell(2, "phi+")) == pytest.approx(0.8)
    assert fidelity(e, make_logic_bell(2, "psi+")) == pytest.approx(0.2)


def test_fidelity_limits_keep_branch_count():
    e = Ensemble.pure(make_logic_bell(2, "phi+"))
    clean = apply_error_model(
        e, ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=1.0), 2
    )
    assert clean is e
    errored = apply_error_model(
        e, ErrorModel(kind=ErrorKind.LOGIC_BITFLIP, fidelity=0.0), 2
    )
    assert len(errored.branches) == 1
