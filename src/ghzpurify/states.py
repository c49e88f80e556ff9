"""Registers, pure states, ensembles, and density matrices.

States live on named qubit registers (mode labels such as a1, a2, b1, ...).
Basis indices are big-endian: the qubit at register position k maps to
bit (n_qubits - 1 - k) of the basis index, so the leftmost label is the most
significant bit and basis index i spells the ket left to right.

A pure state is stored sparsely, as the sorted uint64 basis indices of its
nonzero amplitudes and their complex128 values, so building, tensoring,
permuting and comparing states costs in proportion to the support size, not
to 2^n. The dense amplitude vector is built only when something asks for
`PureState.amps`.

Mixed states are represented as ensembles of weighted pure branches; dense
density matrices exist only as a cross-check representation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import RegisterError

MAX_QUBITS = 24
DENSITY_MAX_QUBITS = 12

# exact branch algebra vs density-matrix cross-checks
EXACT_TOL = 1e-12
ORACLE_TOL = 1e-10

_NORM_TOL = 1e-9
_SQRT2 = np.sqrt(2.0)

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True)
class Register:
    """Ordered collection of unique qubit labels."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) == 0:
            raise RegisterError("register needs at least one qubit")
        if len(labels) > MAX_QUBITS:
            raise RegisterError(f"register exceeds the {MAX_QUBITS}-qubit cap")
        index = {}
        for k, lab in enumerate(labels):
            if not lab:
                raise RegisterError("empty label")
            if lab in index:
                raise RegisterError(f"duplicate label {lab!r}")
            index[lab] = k
        object.__setattr__(self, "_index", index)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise RegisterError(f"label {label!r} not in register") from None

    def positions(self, labels: Iterable[str]) -> list[int]:
        return [self.index_of(lab) for lab in labels]

    def mask(self, labels: Iterable[str]) -> np.uint64:
        """Basis-index bits of the given qubits, cached per label tuple."""
        key = tuple(labels)
        if key not in self._masks:
            bits = {1 << (self.n_qubits - 1 - self.index_of(lab)) for lab in key}
            self._masks[key] = np.uint64(sum(bits))
        return self._masks[key]


@functools.lru_cache(maxsize=1024)
def shared_register(labels: tuple[str, ...]) -> Register:
    """The engine's one Register per label tuple, validated when first built;
    a tuple that fails validation raises on every call."""
    return Register(labels)


def logic_register(n: int) -> Register:
    """A logic pair's register: a1..an (logic qubit A), then b1..bn (B)."""
    return shared_register(tuple(f"{p}{i}" for p in "ab" for i in range(1, n + 1)))


@dataclass(frozen=True, eq=False, init=False)
class PureState:
    """Normalized state on a register, treated as immutable: the sorted,
    unique uint64 basis indices `idx` of its nonzero amplitudes and their
    values `vals`, both read-only."""

    register: Register
    idx: np.ndarray
    vals: np.ndarray

    def __init__(self, register: Register, amps: np.ndarray) -> None:
        """Build from a dense amplitude vector, which is copied."""
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (2**register.n_qubits,):
            raise RegisterError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{register.n_qubits}-qubit register"
            )
        idx = np.flatnonzero(amps)
        self._seal(register, idx.astype(np.uint64), amps[idx])

    @classmethod
    def _adopt(cls, register: Register, idx: np.ndarray, vals: np.ndarray) -> PureState:
        """Wrap the arrays that a kernel has just built, without a copy."""
        s = object.__new__(cls)
        s._seal(register, idx, vals)
        return s

    def _seal(self, register: Register, idx: np.ndarray, vals: np.ndarray) -> None:
        norm2 = float(np.vdot(vals, vals).real)
        if not abs(norm2 - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state is not normalized (norm^2 = {norm2})")
        idx.flags.writeable = vals.flags.writeable = False
        for name, value in (("register", register), ("idx", idx), ("vals", vals)):
            object.__setattr__(self, name, value)

    @property
    def n_qubits(self) -> int:
        return self.register.n_qubits

    @property
    def amps(self) -> np.ndarray:
        """Dense big-endian amplitude vector, read-only, built on each access."""
        amps = np.zeros(2**self.n_qubits, dtype=np.complex128)
        amps[self.idx] = self.vals
        amps.flags.writeable = False
        return amps


def _bits_to_index(bits: str | Sequence[int], n: int) -> int:
    vals = [int(b) for b in bits]
    if len(vals) != n or any(v not in (0, 1) for v in vals):
        raise ValueError(f"need {n} bits, got {bits!r}")
    idx = 0
    for v in vals:
        idx = (idx << 1) | v
    return idx


def basis_state(register: Register, bits: str | Sequence[int]) -> PureState:
    idx = np.array([_bits_to_index(bits, register.n_qubits)], dtype=np.uint64)
    return PureState._adopt(register, idx, np.ones(1, dtype=np.complex128))


def make_bell(kind: str, labels: tuple[str, str] = ("q1", "q2")) -> PureState:
    """Physical two-qubit Bell state: phi+/- = (|00> +- |11>)/sqrt2, psi+/- = (|01> +- |10>)/sqrt2."""
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell kind {kind!r}")
    sign = 1.0 if kind.endswith("+") else -1.0
    idx = np.array([0b00, 0b11] if kind.startswith("phi") else [0b01, 0b10], dtype=np.uint64)
    vals = np.array([1 / _SQRT2, sign / _SQRT2], dtype=np.complex128)
    return PureState._adopt(shared_register(tuple(labels)), idx, vals)


@functools.lru_cache(maxsize=256)
def make_logic_bell(n: int, kind: str) -> PureState:
    """Logic Bell state on 2n qubits, each logic qubit an n-qubit GHZ block.

    The first n register qubits, a1..an, form logic qubit A, the last n,
    b1..bn, logic qubit B:
        phi+/- = (G+ G+ +- G- G-)/sqrt2
        psi+/- = (G+ G- +- G- G+)/sqrt2
    with G+- the n-qubit GHZ states. Cached: the state is immutable.
    """
    if n < 2:
        raise ValueError("logic qubits need n >= 2 physical qubits")
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown logic Bell kind {kind!r}")
    h = 1 / _SQRT2
    g = np.array([[h, h], [h, -h]])  # rows G+, G-; columns |0...0>, |1...1>
    x, y = (0, 0) if kind.startswith("phi") else (0, 1)
    sign = 1.0 if kind.endswith("+") else -1.0
    corner = np.outer(g[x], g[y]) + sign * np.outer(g[1 - x], g[1 - y])
    vals = (corner / _SQRT2).astype(np.complex128).ravel()
    # non-zero only where each block reads all 0 or all 1
    block = np.array([0, 2**n - 1], dtype=np.uint64)
    idx = ((block[:, None] << np.uint64(n)) | block).ravel()
    return PureState._adopt(logic_register(n), idx[vals != 0], vals[vals != 0])


def _check_same_register(a: Register, b: Register) -> None:
    if a.labels != b.labels:
        raise RegisterError(f"register mismatch: {a.labels} vs {b.labels}")


def overlap(s1: PureState, s2: PureState) -> complex:
    """Signed inner product <s1|s2>; registers must match exactly."""
    _check_same_register(s1.register, s2.register)
    at = np.searchsorted(s2.idx, s1.idx)
    hit = at < len(s2.idx)
    hit[hit] = s2.idx[at[hit]] == s1.idx[hit]
    # not np.vdot: BLAS picks its zdotc kernel from the CPU, and a fused
    # multiply-add there leaves <phi+|psi+> = a - a at one product's rounding
    return complex((s1.vals[hit].conj() * s2.vals[at[hit]]).sum())


def tensor(s1: PureState, s2: PureState) -> PureState:
    """Kronecker product; s1's qubits become the leading register positions."""
    common = set(s1.register.labels) & set(s2.register.labels)
    if common:
        raise RegisterError(f"overlapping labels {sorted(common)}")
    reg = shared_register(s1.register.labels + s2.register.labels)
    idx = (s1.idx[:, None] << np.uint64(s2.n_qubits)) | s2.idx
    return PureState._adopt(reg, idx.ravel(), np.multiply.outer(s1.vals, s2.vals).ravel())


def with_labels(s: PureState, labels: Sequence[str]) -> PureState:
    """Same amplitudes on a renamed register (order preserved)."""
    if len(labels) != s.n_qubits:
        raise RegisterError("label count mismatch")
    return PureState._adopt(shared_register(tuple(labels)), s.idx, s.vals)


def permute(s: PureState, labels: Sequence[str]) -> PureState:
    """Reorder the register qubits into the given label order."""
    new = tuple(labels)
    if sorted(new) != sorted(s.register.labels):
        raise RegisterError(
            f"permutation must use exactly the labels {s.register.labels}"
        )
    if new == s.register.labels:
        return s
    idx = gather_bits(s.idx, s.n_qubits, s.register.positions(new))
    order = np.argsort(idx)
    return PureState._adopt(shared_register(new), idx[order], s.vals[order])


def gather_bits(idx: np.ndarray, n: int, src: Sequence[int]) -> np.ndarray:
    """Indices on the qubits at positions src of an n-qubit register, in the
    order of src. Each run of adjacent positions moves as one masked shift."""
    out = np.zeros_like(idx)
    for _, run in itertools.groupby(enumerate(src), lambda jq: jq[1] - jq[0]):
        last = [j for j, _ in run]
        block = (idx >> np.uint64(n - 1 - src[last[-1]])) & np.uint64((1 << len(last)) - 1)
        out |= block << np.uint64(len(src) - 1 - last[-1])
    return out


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted mixture of pure branches on a common register.

    Weights normally sum to 1. A weight that underflowed to exactly 0 leaves
    its branch out; every other weight must be positive. Post-selection
    intermediates are sub-normalized: their weight sum is the probability
    of reaching them. An ensemble holds at least one branch.
    """

    branches: tuple[tuple[float, PureState], ...]

    def __post_init__(self) -> None:
        branches = tuple((float(w), s) for w, s in self.branches if w != 0.0)
        object.__setattr__(self, "branches", branches)
        if not branches:
            raise ValueError("an ensemble needs at least one branch")
        reg = branches[0][1].register
        for w, s in branches:
            if not w > 0.0:
                raise ValueError(f"branch weight must be positive, got {w}")
            _check_same_register(reg, s.register)
        if self.weight_sum > 1.0 + _NORM_TOL:
            raise ValueError(f"weights sum to {self.weight_sum} > 1")

    @staticmethod
    def pure(state: PureState) -> Ensemble:
        return Ensemble(((1.0, state),))

    @property
    def register(self) -> Register:
        return self.branches[0][1].register

    @property
    def weight_sum(self) -> float:
        return float(sum(w for w, _ in self.branches))

    def scaled(self, factor: float) -> Ensemble:
        return Ensemble(tuple((w * factor, s) for w, s in self.branches))


def map_branches(e: Ensemble, fn: Callable[[PureState], PureState]) -> Ensemble:
    return Ensemble(tuple((w, fn(s)) for w, s in e.branches))


def tensor_ensembles(e1: Ensemble, e2: Ensemble) -> Ensemble:
    branches = tuple(
        (w1 * w2, tensor(s1, s2)) for w1, s1 in e1.branches for w2, s2 in e2.branches
    )
    return Ensemble(branches)


def fidelity(e: Ensemble, target: PureState) -> float:
    """Sum over branches of weight times squared overlap with the target."""
    return float(
        sum(w * abs(overlap(target, s)) ** 2 for w, s in e.branches)
    )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense density operator, used only for cross-checking the branch engine."""

    register: Register
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.register.n_qubits > DENSITY_MAX_QUBITS:
            raise RegisterError(
                f"density matrices are capped at {DENSITY_MAX_QUBITS} qubits"
            )
        dim = 2**self.register.n_qubits
        # a complex128 array is taken without a copy; its owner must not write to it
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise RegisterError(f"matrix shape {mat.shape} does not match register")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n_qubits(self) -> int:
        return self.register.n_qubits


def to_density_matrix(e: Ensemble) -> DensityMatrix:
    """Sum of weighted branch projectors; trace equals the weight sum."""
    dim = 2**e.register.n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for w, s in e.branches:
        mat[np.ix_(s.idx, s.idx)] += w * np.outer(s.vals, s.vals.conj())
    return DensityMatrix(e.register, mat)
