"""Dense statevector kernels, the reference for the sparse engine in gates.py.

Each kernel reads the whole big-endian amplitude vector (`PureState.amps`)
reshaped to (2,)*n, so register position k is tensor axis k, and builds the
result state from a new dense vector. A CNOT fans out to all its targets in
one pass, a single-qubit gate is one matrix product, and a joint measurement
reads every outcome's probability in one reduction, then writes each kept
outcome's slice, scaled, into one zeroed array.
"""

from typing import Sequence

import numpy as np

from ghzpurify.errors import RegisterError
from ghzpurify.gates import OUTCOME_EPS
from ghzpurify.states import Ensemble, PureState, Register, _bits_to_index

SQRT2 = np.sqrt(2.0)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / SQRT2
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = {"X": X, "Z": Z}
# up to this many trailing amplitudes, one product with mat (x) identity
# beats a batched matmul, whose per-batch overhead then dominates
NARROW_REST = 16


def amplitude(s, bits):
    """Amplitude of one computational basis ket, leftmost bit first."""
    return complex(s.vals[s.idx == _bits_to_index(bits, s.n_qubits)].sum())


def apply_single(s, label, mat):
    q = s.register.index_of(label)
    rest = 2 ** (s.n_qubits - 1 - q)
    if rest > NARROW_REST:
        out = np.matmul(mat, s.amps.reshape(2**q, 2, rest))
    else:
        out = s.amps.reshape(-1, 2 * rest) @ np.kron(mat.T, np.eye(rest))
    return PureState(s.register, out.reshape(-1))


def apply_pauli(s, p):
    """Every X and Z factor in one pass: one flip over the X axes, then one
    sign multiply over the Z axes."""
    xs = s.register.positions([lab for lab, name in p.items() if name == "X"])
    zs = s.register.positions([lab for lab, name in p.items() if name == "Z"])
    if not xs and not zs:
        return s
    n = s.n_qubits
    out = np.flip(s.amps.reshape((2,) * n), axis=tuple(xs))
    if zs:
        # (-1)^(sum of the Z bits), broadcast from 2 entries per Z axis
        sign = np.ones([2 if q in zs else 1 for q in range(n)])
        for q in zs:
            np.moveaxis(sign, q, 0)[1] *= -1.0
        out = out * sign
    return PureState(s.register, np.ascontiguousarray(out).reshape(-1))


def apply_cnot(s, control, *targets):
    """Flip every target where the control reads 1, in one pass."""
    c = s.register.index_of(control)
    ts = s.register.positions(targets)
    if not ts or c in ts or len(set(ts)) != len(ts):
        raise RegisterError("need distinct targets that differ from the control")
    n = s.n_qubits
    src = s.amps.reshape((2,) * n)
    out = np.empty_like(src)
    sel = [slice(None)] * n
    sel[c] = 0
    out[tuple(sel)] = src[tuple(sel)]
    sel[c] = 1
    axes = tuple(t - 1 if t > c else t for t in ts)
    out[tuple(sel)] = np.flip(src[tuple(sel)], axis=axes)
    return PureState(s.register, out.reshape(-1))


def outcome_probability(s, label, outcome):
    q = s.register.index_of(label)
    v = s.amps.reshape(2**q, 2, -1)[:, outcome]
    return float(np.vdot(v, v).real)


def project(s, label, outcome):
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    q = s.register.index_of(label)
    p = outcome_probability(s, label, outcome)
    if p <= OUTCOME_EPS:
        return 0.0, None
    src = s.amps.reshape(2**q, 2, -1)
    out = np.zeros_like(src)
    np.divide(src[:, outcome], np.sqrt(p), out=out[:, outcome])
    return p, PureState(s.register, out.reshape(-1))


def joint_probabilities(amps: np.ndarray, qs: Sequence[int]) -> np.ndarray:
    """Joint outcome probabilities on positions qs, one axis each, from one
    einsum over the float64 view: no |amps|^2 array is built. The re/im axis
    is summed afterwards if the last position is measured, so that no inner
    loop runs over just two entries."""
    n = amps.size.bit_length() - 1
    ordered = sorted(qs)
    tail = ordered[-1] == n - 1
    v = amps.view(np.float64).reshape((2,) * (n + 1))
    probs = np.einsum(v, range(n + 1), v, range(n + 1), ordered + [n] * tail)
    if tail:
        probs = probs.sum(axis=-1)
    return probs.transpose([ordered.index(q) for q in qs])


def measure_ensemble(e, labels):
    if not labels:
        raise ValueError("need at least one label")
    qs = e.register.positions(labels)
    if len(set(qs)) != len(qs):
        raise RegisterError(f"repeated label in {list(labels)}")
    total = e.weight_sum
    collected = {}
    for w, s in e.branches:
        amps = s.amps
        probs = joint_probabilities(amps, qs)
        src = amps.reshape((2,) * s.n_qubits)
        for bits in zip(*np.nonzero(probs > OUTCOME_EPS)):
            at = dict(zip(qs, bits))
            # the trailing ... keeps the slice a view when every qubit is measured
            sel = tuple(at.get(q, slice(None)) for q in range(s.n_qubits)) + (...,)
            p = float(probs[bits])
            kept = np.zeros_like(src)
            np.divide(src[sel], np.sqrt(p), out=kept[sel])
            post = PureState(s.register, kept.reshape(-1))
            collected.setdefault(tuple(map(int, bits)), []).append((w * p, post))
    out = {}
    for outcome_bits in sorted(collected):
        branches = collected[outcome_bits]
        prob = sum(w for w, _ in branches) / total
        ens = Ensemble(tuple((w / (prob * total), s) for w, s in branches))
        out[outcome_bits] = (prob, ens)
    return out


def discard(s, labels):
    """Drop qubits in a definite basis state; one reduction tests them all."""
    drop = set(labels)
    if not drop:
        return s
    missing = drop - set(s.register.labels)
    if missing:
        raise RegisterError(f"labels {sorted(missing)} not in register")
    keep = tuple(lab for lab in s.register.labels if lab not in drop)
    if not keep:
        raise RegisterError("cannot discard every qubit")
    labs = [lab for lab in s.register.labels if lab in drop]
    probs = joint_probabilities(s.amps, s.register.positions(labs))
    bits = np.unravel_index(np.argmax(probs), probs.shape)
    if probs.sum() - probs[bits] > OUTCOME_EPS:
        for lab in labs:  # only to name the offender
            if OUTCOME_EPS < outcome_probability(s, lab, 1) < 1.0 - OUTCOME_EPS:
                raise RegisterError(f"qubit {lab!r} is not in a definite basis state")
        raise RegisterError(f"qubits {labs} are not in a definite basis state")
    picked = dict(zip(labs, map(int, bits)))
    sel = tuple(picked.get(lab, slice(None)) for lab in s.register.labels)
    sub = s.amps.reshape((2,) * s.n_qubits)[sel].reshape(-1)
    return PureState(Register(keep), sub / np.linalg.norm(sub))


def tensor(s1, s2):
    return PureState(Register(s1.register.labels + s2.register.labels), np.kron(s1.amps, s2.amps))


def permute(s, labels):
    src = s.register.positions(labels)
    t = s.amps.reshape((2,) * s.n_qubits).transpose(src)
    return PureState(Register(tuple(labels)), t.reshape(-1))
