"""Self-check suite: invariants the simulator must satisfy exactly.

Each check is a generator of deviations; `_check` reduces them to a
CheckResult, the one place that decides PASS or FAIL. The CLI prints one
line per check and fails the run if any check fails. Randomized checks use a
fixed seed so a given build either always passes or always fails.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .gates import apply_cnot, apply_h, apply_x, apply_z
from .noise import ErrorKind, ErrorModel, apply_error_model
from .oracle import ORACLE_MAX_N, compare, oracle_purify_round
from .protocol import (
    BASES,
    PurifyConfig,
    check_block_size,
    correct_physical_bitflip,
    iterate_rounds,
    one_round_fidelity_map,
    one_round_success_probability,
    purify_round,
    recover_logic,
    reduce_copy,
    register_width,
    round_table,
)
from .states import (
    BELL_KINDS,
    EXACT_TOL,
    MAX_QUBITS,
    ORACLE_TOL,
    Ensemble,
    PureState,
    Register,
    basis_state,
    logic_register,
    make_bell,
    make_logic_bell,
    overlap,
    permute,
    tensor,
)

VERIFY_SEED = 20240917


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: max deviation {self.max_deviation:.3e}"
            f" (tolerance {self.tolerance:.1e})"
        )


Check = Callable[[tuple[int, ...]], CheckResult]


def _check(name: str, tol: float) -> Callable[[Callable[..., Iterator[float]]], Check]:
    """Make a generator of deviations over ns into the check `name`.

    It passes when the largest deviation (0 if none) is at most tol. np.max
    keeps a NaN, where the builtin max would drop it, so a NaN fails.
    """
    def wrap(deviations: Callable[..., Iterator[float]]) -> Check:
        @functools.wraps(deviations)
        def check(ns: tuple[int, ...]) -> CheckResult:
            dev = float(np.max(np.fromiter(deviations(ns), float), initial=0.0))
            return CheckResult(name, dev <= tol, dev, tol)
        return check
    return wrap


def _random_state(rng: np.random.Generator, labels: tuple[str, ...]) -> PureState:
    dim = 2 ** len(labels)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(Register(labels), v / np.linalg.norm(v))


def _gram_deviations(states: list[PureState]) -> Iterator[float]:
    """Each entry of |<s_i|s_j> - delta_ij| over a list of states."""
    return (abs(overlap(s1, s2) - (s1 is s2)) for s1 in states for s2 in states)


@_check("bell_states_orthonormal", EXACT_TOL)
def check_bell_orthonormal(ns: tuple[int, ...]) -> Iterator[float]:
    yield from _gram_deviations([make_bell(k) for k in BELL_KINDS])


@_check("logic_bell_orthonormal", EXACT_TOL)
def check_logic_bell_orthonormal(ns: tuple[int, ...]) -> Iterator[float]:
    for n in ns:
        yield from _gram_deviations([make_logic_bell(n, k) for k in BELL_KINDS])


@_check("gates_preserve_norm", EXACT_TOL)
def check_gates_preserve_norm(ns: tuple[int, ...]) -> Iterator[float]:
    rng = np.random.default_rng(VERIFY_SEED)
    labels = tuple(f"q{i}" for i in range(1, 6))
    for _ in range(40):
        s = _random_state(rng, labels)
        for _ in range(8):
            pick = rng.integers(0, 4)
            q = labels[rng.integers(0, len(labels))]
            if pick < 3:
                s = (apply_h, apply_x, apply_z)[pick](s, q)
            else:
                t = labels[rng.integers(0, len(labels))]
                if t != q:
                    s = apply_cnot(s, q, t)
        yield abs(np.linalg.norm(s.amps) - 1.0)


@_check("gates_self_inverse", EXACT_TOL)
def check_gates_self_inverse(ns: tuple[int, ...]) -> Iterator[float]:
    rng = np.random.default_rng(VERIFY_SEED + 1)
    labels = ("q1", "q2", "q3")
    for _ in range(25):
        s = _random_state(rng, labels)
        for twice in (
            lambda t: apply_h(apply_h(t, "q2"), "q2"),
            lambda t: apply_x(apply_x(t, "q1"), "q1"),
            lambda t: apply_z(apply_z(t, "q3"), "q3"),
            lambda t: apply_cnot(apply_cnot(t, "q1", "q3"), "q1", "q3"),
        ):
            yield from np.abs(twice(s).amps - s.amps)


@_check("reduction_concentrates", EXACT_TOL)
def check_reduction_concentrates(ns: tuple[int, ...]) -> Iterator[float]:
    """reduce_copy must send each logic Bell kind to the matching physical
    Bell pair on the first modes, all other modes exactly |0>."""
    for n in ns:
        labels = logic_register(n).labels
        rest = labels[1:n] + labels[n + 1:]
        zeros = basis_state(Register(rest), [0] * len(rest))
        for kind in BELL_KINDS:
            got = reduce_copy(make_logic_bell(n, kind))
            bell = make_bell(kind, ("a1", "b1"))
            expected = permute(tensor(bell, zeros), got.register.labels)
            yield abs(overlap(expected, got) - 1.0)


@_check("recovery_inverts_reduction", EXACT_TOL)
def check_recovery_inverts_reduction(ns: tuple[int, ...]) -> Iterator[float]:
    for n, kind in itertools.product(ns, BELL_KINDS):
        original = make_logic_bell(n, kind)
        back = recover_logic(Ensemble.pure(reduce_copy(original)))
        for _, branch in back.branches:
            yield abs(overlap(original, branch) - 1.0)


@_check("bennett_maps", EXACT_TOL)
def check_bennett_maps(ns: tuple[int, ...]) -> Iterator[float]:
    """Bilateral CNOT between two physical Bell pairs: the four golden maps."""
    cases = {
        ("phi+", "phi+"): ("phi+", "phi+"),
        ("phi+", "psi+"): ("phi+", "psi+"),
        ("psi+", "phi+"): ("psi+", "psi+"),
        ("psi+", "psi+"): ("psi+", "phi+"),
    }
    for (k1, k2), (w1, w2) in cases.items():
        kept = make_bell(k1, ("a1", "b1"))
        sac = make_bell(k2, ("c1", "d1"))
        s = tensor(kept, sac)
        s = apply_cnot(s, "a1", "c1")
        s = apply_cnot(s, "b1", "d1")
        want = tensor(make_bell(w1, ("a1", "b1")), make_bell(w2, ("c1", "d1")))
        yield abs(overlap(want, s) - 1.0)


def _round_ns(ns: tuple[int, ...]) -> list[int]:
    """The n in ns whose round's register_width fits under MAX_QUBITS."""
    return [k for k in ns if register_width("purify", k) <= MAX_QUBITS]


@_check("purify_map_grid", EXACT_TOL)
def check_purify_map_grid(ns: tuple[int, ...]) -> Iterator[float]:
    """Engine output must match f^2/(f^2+(1-f)^2) and the success formula,
    at every n in ns whose round fits (_round_ns); larger n are skipped."""
    grid = [0.0, 0.25, 0.5, 0.55, 0.6, 0.68, 0.75, 0.8, 0.9, 0.95, 1.0]
    for n, basis, f in itertools.product(_round_ns(ns), BASES, grid):
        out = purify_round(PurifyConfig(n=n, error_basis=basis, input_fidelity=f))
        yield abs(out.success_probability - one_round_success_probability(f))
        if out.success_probability > 0:
            yield abs(out.fidelity - one_round_fidelity_map(f))


@_check("round_table_independent_of_n", 0.0)
def check_round_table_independent_of_n(ns: tuple[int, ...]) -> Iterator[float]:
    """The paper's reduction: purifying the logic pair is purifying the
    physical pair on the first modes, so a round's outcome law at every n in
    ns whose round fits (_round_ns) equals the n = 2 law bit for bit, in
    both bases."""
    for n, basis in itertools.product(_round_ns(ns), BASES):
        for got, want in zip(round_table(n, basis), round_table(2, basis)):
            yield from np.abs(got - want).ravel()


@_check("improvement_strictly_above_half", EXACT_TOL)
def check_improvement_region(ns: tuple[int, ...]) -> Iterator[float]:
    """One engine round, at the smallest n in ns and in both bases, strictly
    improves fidelity exactly when f > 1/2 and leaves f = 1/2 in place; a
    wrong direction counts as a deviation above 1."""
    for basis, f in itertools.product(BASES, [*np.linspace(0.02, 0.98, 49).tolist(), 0.5]):
        fp = purify_round(PurifyConfig(n=min(ns), error_basis=basis, input_fidelity=f)).fidelity
        if f == 0.5:
            yield abs(fp - f)
        elif np.sign(fp - f) != np.sign(f - 0.5):
            yield abs(fp - f) + 1.0


@_check("iteration_composes", EXACT_TOL)
def check_iteration_composes(ns: tuple[int, ...]) -> Iterator[float]:
    """Multi-round engine fidelities equal the composed one-round map."""
    f = 0.8
    for out in iterate_rounds(PurifyConfig(n=2, error_basis="bit", input_fidelity=f, rounds=3)):
        f = one_round_fidelity_map(f)
        yield abs(out.fidelity - f)


@_check("bitflip_correction_deterministic", EXACT_TOL)
def check_bitflip_correction(ns: tuple[int, ...]) -> Iterator[float]:
    """Both correction paths restore phi+ deterministically for every
    non-control flip position."""
    for n in ns:
        target = make_logic_bell(n, "phi+")
        for position in range(1, n):
            model = ErrorModel(
                kind=ErrorKind.PHYS_BITFLIP,
                fidelity=0.0,
                target="A",
                position=position,
            )
            flipped = apply_error_model(Ensemble.pure(target), model, n)
            for path in ("qnd", "destructive"):
                out = correct_physical_bitflip(
                    flipped, suspected_logic_qubit="A", path=path,
                    flip_position=position,
                )
                yield abs(out.fidelity - 1.0)
                yield abs(out.success_probability - 1.0)
        clean = correct_physical_bitflip(
            Ensemble.pure(target), suspected_logic_qubit="A", path="qnd"
        )
        yield abs(clean.fidelity - 1.0)


def _error_image_deviations(n: int, model: ErrorModel, kind: str) -> Iterator[float]:
    """How far each errored branch of phi+ is from the logic Bell `kind`,
    up to a global phase."""
    errored = apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), model, n)
    target = make_logic_bell(n, kind)
    return (abs(abs(overlap(target, branch)) - 1.0) for _, branch in errored.branches)


@_check("phase_flip_equals_logic_bitflip", EXACT_TOL)
def check_physical_phase_is_logic_bitflip(ns: tuple[int, ...]) -> Iterator[float]:
    """A single-mode phase flip turns phi+ into exactly psi+, any position."""
    for n, target in itertools.product(ns, ("A", "B")):
        for position in range(n):
            model = ErrorModel(ErrorKind.PHYS_PHASEFLIP, 0.0, target, position)
            yield from _error_image_deviations(n, model, "psi+")


@_check("logic_phaseflip_operator", EXACT_TOL)
def check_logic_phaseflip_operator(ns: tuple[int, ...]) -> Iterator[float]:
    """X on every mode of one logic qubit turns phi+ into exactly phi-."""
    for n, target in itertools.product(ns, ("A", "B")):
        model = ErrorModel(ErrorKind.LOGIC_PHASEFLIP, 0.0, target)
        yield from _error_image_deviations(n, model, "phi-")


@_check("oracle_round_agreement", ORACLE_TOL)
def check_oracle_round_agreement(ns: tuple[int, ...]) -> Iterator[float]:
    """Branch engine vs the dense density-matrix engine, one full round at
    every n in ns up to ORACLE_MAX_N = 5; larger n are skipped."""
    for n, basis, f in itertools.product(
        [k for k in ns if k <= ORACLE_MAX_N], BASES, (0.3, 0.68, 0.8, 0.95)
    ):
        out = purify_round(PurifyConfig(n=n, error_basis=basis, input_fidelity=f, rounds=1))
        p_or, f_or, dm = oracle_purify_round(n, basis, f)
        yield abs(out.success_probability - p_or)
        yield abs(out.fidelity - f_or)
        yield compare(out.output, dm)


CHECK_FUNCS: list[Check] = [
    check_bell_orthonormal,
    check_logic_bell_orthonormal,
    check_gates_preserve_norm,
    check_gates_self_inverse,
    check_reduction_concentrates,
    check_recovery_inverts_reduction,
    check_bennett_maps,
    check_purify_map_grid,
    check_round_table_independent_of_n,
    check_improvement_region,
    check_iteration_composes,
    check_bitflip_correction,
    check_physical_phase_is_logic_bitflip,
    check_logic_phaseflip_operator,
]


def run_verify(max_n: int = 3, oracle: bool = False) -> list[CheckResult]:
    """Run every check for n = 2 .. max_n once check_block_size accepts
    max_n; oracle adds the dense cross-check."""
    check_block_size("verify", max_n)
    ns = tuple(range(2, max_n + 1))
    results = [func(ns) for func in CHECK_FUNCS]
    if oracle:
        results.append(check_oracle_round_agreement(ns))
    return results
