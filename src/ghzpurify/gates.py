"""Gate application and projective measurement on pure states and ensembles.

Kernels work on a state's sparse form (states.PureState), so each costs in
proportion to the number of nonzero amplitudes, never to 2^n. X and CNOT
fan-outs XOR the index, which is then re-sorted once per call however many
fan-outs it applies, and Z is a sign. H sends every entry to both halves of
each of its qubits in turn and sums the entries that meet; only sums that
cancel to exactly 0 are dropped. A joint measurement groups each
branch's entries by the measured bits. Measured qubits stay in the register;
use discard() to drop qubits that sit in a definite basis state.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import RegisterError
from .states import Ensemble, PureState, Register, gather_bits, shared_register

# outcomes below this probability are treated as impossible
OUTCOME_EPS = 1e-12

_H_AMP = 1 / np.sqrt(2.0)


def _sorted(register: Register, idx: np.ndarray, vals: np.ndarray) -> PureState:
    order = np.argsort(idx)
    return PureState._adopt(register, idx[order], vals[order])


def _runs(keys: np.ndarray) -> np.ndarray:
    """Start of every run of equal keys in a sorted key array."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def apply_h(s: PureState, *labels: str) -> PureState:
    """H on each label in turn, merging after each one, with one seal."""
    idx, vals = s.idx, s.vals
    for label in labels:
        m = s.register.mask([label])
        half = _H_AMP * vals
        low = idx & ~m
        vals = np.concatenate((half, np.where(idx & m, -half, half)))
        idx = np.concatenate((low, low | m))
        # at most two entries meet at an index, and a two-term sum is the
        # same in either order, so an unstable sort is enough
        order = np.argsort(idx)
        idx, vals = idx[order], vals[order]
        starts = _runs(idx)
        vals = np.add.reduceat(vals, starts)
        keep = vals != 0
        idx, vals = idx[starts][keep], vals[keep]
    return PureState._adopt(s.register, idx, vals)


def apply_x(s: PureState, label: str) -> PureState:
    return _sorted(s.register, s.idx ^ s.register.mask([label]), s.vals)


def apply_z(s: PureState, label: str) -> PureState:
    signed = np.where(s.idx & s.register.mask([label]), -s.vals, s.vals)
    return PureState._adopt(s.register, s.idx, signed)


def apply_pauli(s: PureState, ops: Mapping[str, str]) -> PureState:
    """Apply the Pauli string {label: "X" or "Z"}, identity elsewhere: every
    Z factor as a sign, then every X factor in one XOR."""
    for lab, name in ops.items():
        if name not in ("X", "Z"):
            raise ValueError(f"unknown Pauli {name!r} on {lab!r}")
        if name == "Z":
            s = apply_z(s, lab)
    xs = [lab for lab, name in ops.items() if name == "X"]
    return _sorted(s.register, s.idx ^ s.register.mask(xs), s.vals) if xs else s


def apply_fan_outs(s: PureState, *groups: tuple[str, Sequence[str]]) -> PureState:
    """CNOT fan-outs in order, each (control, targets) flipping every target
    where its control reads 1, as one XOR per group and one re-sort."""
    idx = s.idx
    for control, targets in groups:
        c = s.register.index_of(control)
        ts = s.register.positions(targets)
        if not ts or c in ts or len(set(ts)) != len(ts):
            raise RegisterError("need distinct targets that differ from the control")
        flipped = idx ^ s.register.mask(targets)
        idx = np.where(idx & s.register.mask([control]), flipped, idx)
    return _sorted(s.register, idx, s.vals)


def apply_cnot(s: PureState, control: str, *targets: str) -> PureState:
    """Flip every target where the control reads 1, in one XOR."""
    return apply_fan_outs(s, (control, targets))


def _reads(s: PureState, label: str, outcome: int) -> np.ndarray:
    """Which entries have the qubit at the given outcome."""
    return ((s.idx & s.register.mask([label])) != 0) == bool(outcome)


def outcome_probability(s: PureState, label: str, outcome: int) -> float:
    v = s.vals[_reads(s, label, outcome)]
    return float(np.vdot(v, v).real)


def project(s: PureState, label: str, outcome: int) -> tuple[float, PureState | None]:
    """Project one qubit onto |outcome>. Returns (probability, renormalized state).

    The qubit stays in the register. Probability below OUTCOME_EPS yields
    (0.0, None).
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    p = outcome_probability(s, label, outcome)
    if p <= OUTCOME_EPS:
        return 0.0, None
    sel = _reads(s, label, outcome)
    return p, PureState._adopt(s.register, s.idx[sel], s.vals[sel] / np.sqrt(p))


def _group_by_bits(
    s: PureState, qs: Sequence[int]
) -> list[tuple[int, float, np.ndarray]]:
    """(outcome, probability, entry positions) of every joint outcome on
    positions qs that has support, sorted by outcome. Bit i of an outcome,
    from the top, is qubit qs[i]; positions are in index order."""
    key = gather_bits(s.idx, s.n_qubits, qs)
    order = np.argsort(key, kind="stable")
    starts = _runs(key[order])
    probs = np.add.reduceat((s.vals.real**2 + s.vals.imag**2)[order], starts)
    groups = np.split(order, starts[1:])
    return [(int(key[g[0]]), float(p), g) for g, p in zip(groups, probs)]


def measure_ensemble(
    e: Ensemble, labels: Sequence[str]
) -> dict[tuple[int, ...], tuple[float, Ensemble]]:
    """Joint measurement of several qubits across all branches.

    Returns {outcome tuple: (probability, renormalized ensemble)} with
    probabilities weighted by branch weights. Bit i of a key is the outcome
    of labels[i], and keys are sorted. OUTCOME_EPS cuts the joint
    probability of an outcome within each branch. A repeated or unknown
    label raises RegisterError.
    """
    if not labels:
        raise ValueError("need at least one label")
    qs = e.register.positions(labels)
    if len(set(qs)) != len(qs):
        raise RegisterError(f"repeated label in {list(labels)}")
    total = e.weight_sum
    collected: dict[tuple[int, ...], list[tuple[float, PureState]]] = {}
    for w, s in e.branches:
        for outcome, p, at in _group_by_bits(s, qs):
            # a joint weight that underflows to 0 carries no probability
            if p <= OUTCOME_EPS or w * p == 0.0:
                continue
            post = PureState._adopt(s.register, s.idx[at], s.vals[at] / np.sqrt(p))
            bits = tuple((outcome >> (len(qs) - 1 - i)) & 1 for i in range(len(qs)))
            collected.setdefault(bits, []).append((w * p, post))
    out: dict[tuple[int, ...], tuple[float, Ensemble]] = {}
    for outcome_bits in sorted(collected):
        branches = collected[outcome_bits]
        prob = sum(w for w, _ in branches) / total
        ens = Ensemble(tuple((w / (prob * total), s) for w, s in branches))
        out[outcome_bits] = (prob, ens)
    return out


def discard(s: PureState, labels: Sequence[str]) -> PureState:
    """Drop qubits that sit in a definite computational basis state.

    Keeps the most likely reading of the dropped qubits, which is usually
    the only one, and packs the kept qubits' bits into a smaller index.
    Rejects qubits still in superposition or entangled with the rest (other
    readings above OUTCOME_EPS), since discarding those would not leave a
    pure state.
    """
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
    dropped = s.idx & s.register.mask(labs)
    at = np.flatnonzero(dropped == dropped[0])
    if len(at) < len(dropped):
        groups = _group_by_bits(s, s.register.positions(labs))
        _, best, at = max(groups, key=lambda g: g[1])
        if sum(g[1] for g in groups) - best > OUTCOME_EPS:
            for lab in labs:  # only to name the offender
                if OUTCOME_EPS < outcome_probability(s, lab, 1) < 1.0 - OUTCOME_EPS:
                    raise RegisterError(f"qubit {lab!r} is not in a definite basis state")
            raise RegisterError(f"qubits {labs} are not in a definite basis state")
    sub = s.vals[at]
    idx = gather_bits(s.idx[at], s.n_qubits, s.register.positions(keep))
    return PureState._adopt(shared_register(keep), idx, sub / np.linalg.norm(sub))


def reset_qubit(s: PureState, label: str) -> PureState:
    """Re-prepare a qubit that is in a definite basis state as |0>."""
    p1 = outcome_probability(s, label, 1)
    if p1 >= 1.0 - OUTCOME_EPS:
        return apply_x(s, label)
    if p1 <= OUTCOME_EPS:
        return s
    raise RegisterError(f"qubit {label!r} is not in a definite basis state")
