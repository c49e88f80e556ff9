"""Gate application and projective measurement on pure states and ensembles.

Kernels reshape the amplitude vector to (2,)*n so register position k is
tensor axis k. Each makes one pass into a fresh array, which the new state
adopts uncopied; a CNOT fans out to all its targets in that one pass.
Measured qubits stay in the register, projected onto the observed outcome;
use discard() to drop spectator qubits that sit in a definite basis state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import RegisterError
from .states import Ensemble, PureState, Register

# outcomes below this probability are treated as impossible
OUTCOME_EPS = 1e-12

_SQRT2 = np.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_PAULI = {"I": np.eye(2, dtype=np.complex128), "X": _X, "Y": _Y, "Z": _Z}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, keyed by label. Identity implied."""

    ops: Mapping[str, str]

    def __post_init__(self) -> None:
        ops = dict(self.ops)
        for lab, p in ops.items():
            if p not in _PAULI:
                raise ValueError(f"unknown Pauli {p!r} on {lab!r}")
        object.__setattr__(self, "ops", ops)


def _apply_single(s: PureState, label: str, mat: np.ndarray) -> PureState:
    q = s.register.index_of(label)
    n = s.n_qubits
    t = s.amps.reshape((2,) * n)
    t = np.tensordot(mat, t, axes=([1], [q]))
    t = np.moveaxis(t, 0, q)
    return PureState._adopt(s.register, t.reshape(-1))


def apply_h(s: PureState, label: str) -> PureState:
    return _apply_single(s, label, _H)


def apply_x(s: PureState, label: str) -> PureState:
    return _apply_single(s, label, _X)


def apply_z(s: PureState, label: str) -> PureState:
    return _apply_single(s, label, _Z)


def apply_pauli(s: PureState, p: PauliString) -> PureState:
    for lab, name in p.ops.items():
        if name != "I":
            s = _apply_single(s, lab, _PAULI[name])
    return s


def apply_cnot(s: PureState, control: str, *targets: str) -> PureState:
    """Flip every target where the control reads 1, in one pass."""
    c = s.register.index_of(control)
    ts = s.register.positions(targets)
    if not ts or c in ts or len(set(ts)) != len(ts):
        raise RegisterError("need distinct targets that differ from the control")
    n = s.n_qubits
    src = s.amps.reshape((2,) * n)
    out = np.empty_like(src)
    sel: list[slice | int] = [slice(None)] * n
    sel[c] = 0
    out[tuple(sel)] = src[tuple(sel)]
    sel[c] = 1
    axes = tuple(t - 1 if t > c else t for t in ts)
    out[tuple(sel)] = np.flip(src[tuple(sel)], axis=axes)
    return PureState._adopt(s.register, out.reshape(-1))


def apply_circuit(s: PureState, ops: Iterable[tuple]) -> PureState:
    """Run ("h", q), ("x", q), ("z", q), ("cnot", c, t1, ...) descriptors in order."""
    for op in ops:
        kind = op[0]
        if kind == "h":
            s = apply_h(s, op[1])
        elif kind == "x":
            s = apply_x(s, op[1])
        elif kind == "z":
            s = apply_z(s, op[1])
        elif kind == "cnot":
            s = apply_cnot(s, op[1], *op[2:])
        else:
            raise ValueError(f"unknown op {op!r}")
    return s


def outcome_probability(s: PureState, label: str, outcome: int) -> float:
    q = s.register.index_of(label)
    v = s.amps.reshape(2**q, 2, -1)[:, outcome]
    return float(np.vdot(v, v).real)


def project(s: PureState, label: str, outcome: int) -> tuple[float, PureState | None]:
    """Project one qubit onto |outcome>. Returns (probability, renormalized state).

    The qubit stays in the register. Probability below OUTCOME_EPS yields
    (0.0, None).
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    q = s.register.index_of(label)
    p = outcome_probability(s, label, outcome)
    if p <= OUTCOME_EPS:
        return 0.0, None
    src = s.amps.reshape(2**q, 2, -1)
    out = np.zeros_like(src)
    np.divide(src[:, outcome], np.sqrt(p), out=out[:, outcome])
    return p, PureState._adopt(s.register, out.reshape(-1))


def measure_ensemble(
    e: Ensemble, labels: Sequence[str]
) -> dict[tuple[int, ...], tuple[float, Ensemble]]:
    """Joint measurement of several qubits across all branches.

    Returns {outcome tuple: (probability, renormalized ensemble)} with
    probabilities weighted by branch weights. Outcome keys are sorted.
    """
    if not labels:
        raise ValueError("need at least one label")
    total = e.weight_sum
    collected: dict[tuple[int, ...], list[tuple[float, PureState]]] = {}
    for w, s in e.branches:
        partial: list[tuple[tuple[int, ...], float, PureState]] = [((), w, s)]
        for lab in labels:
            nxt = []
            for outcome_prefix, wp, sp in partial:
                for outcome in (0, 1):
                    p, post = project(sp, lab, outcome)
                    if post is not None:
                        nxt.append((outcome_prefix + (outcome,), wp * p, post))
            partial = nxt
        for outcome_bits, wp, sp in partial:
            collected.setdefault(outcome_bits, []).append((wp, sp))
    out: dict[tuple[int, ...], tuple[float, Ensemble]] = {}
    for outcome_bits in sorted(collected):
        branches = collected[outcome_bits]
        prob = sum(w for w, _ in branches) / total
        ens = Ensemble(tuple((w / (prob * total), s) for w, s in branches))
        out[outcome_bits] = (prob, ens)
    return out


def discard(s: PureState, labels: Sequence[str]) -> PureState:
    """Drop qubits that sit in a definite computational basis state.

    Rejects qubits still in superposition or entangled with the rest, since
    discarding those would not leave a pure state.
    """
    drop = set(labels)
    if not drop:
        return s
    sel: list[slice | int] = []
    for lab in s.register.labels:
        if lab not in drop:
            sel.append(slice(None))
            continue
        p1 = outcome_probability(s, lab, 1)
        if OUTCOME_EPS < p1 < 1.0 - OUTCOME_EPS:
            raise RegisterError(f"qubit {lab!r} is not in a definite basis state")
        sel.append(int(p1 > OUTCOME_EPS))
    missing = drop - set(s.register.labels)
    if missing:
        raise RegisterError(f"labels {sorted(missing)} not in register")
    keep = tuple(lab for lab in s.register.labels if lab not in drop)
    if not keep:
        raise RegisterError("cannot discard every qubit")
    sub = s.amps.reshape((2,) * s.n_qubits)[tuple(sel)].reshape(-1)
    return PureState._adopt(Register(keep), sub / np.linalg.norm(sub))


def reset_qubit(s: PureState, label: str) -> PureState:
    """Re-prepare a qubit that is in a definite basis state as |0>."""
    p1 = outcome_probability(s, label, 1)
    if p1 >= 1.0 - OUTCOME_EPS:
        return apply_x(s, label)
    if p1 <= OUTCOME_EPS:
        return s
    raise RegisterError(f"qubit {label!r} is not in a definite basis state")
