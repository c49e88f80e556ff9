"""Purification and correction procedures for logic Bell pairs.

One protocol round takes two identically prepared noisy pairs. Each copy is
first reduced on its own 2n modes: within every logic qubit the first mode
controls a CNOT onto each of the other modes, then the first mode gets a
Hadamard. That leaves the pair's Bell content on the two first modes (phi+/-
and psi+/- map to their physical counterparts) and every other mode in |0>;
an input whose reduced ancillas are not in |0> is rejected here. The second
copy's ancillas are then dropped, so only its two first modes (c1, d1) join
the first copy. The two kept modes of the first copy control CNOTs onto c1
and d1, those are measured, and runs with unequal outcomes are thrown away.
After post-selection c1 and d1 are dropped as well, and each distinct
surviving 2n-mode state is lifted back to a logic Bell pair by the inverse of
the reduction. Every state on the way has a handful of nonzero amplitudes,
and the engine's cost follows them, not 2^(2n); each gate layer is one
kernel call. These three stages are prepare_copy, compare_copies and
lift_kept. Each stage reads the logic qubits from its input's register: the
first n modes are A, the last n are B.

Every round the program runs starts from the canonical pair: phi+ with
weight f, else the basis's logic error on B. No weight enters a round before
c1 and d1 are measured, so its two copies depend only on (n, basis), and
_staged prepares and joins them once per (n, basis): the preparation, the
drop of the second copy's ancillas, the tensor and the bilateral CNOT of
each of the four branch pairs. canonical_round measures those states at the
row's weights, the products tensor_ensembles forms, then post-selects and
lifts, so every float is the one the uncached stages give; a weight that
underflows to 0 leaves its branch pair out, as Ensemble does. round_table
reads the same staged states for the outcome law that the Monte Carlo
sampler reads. purify_pair runs the same stages on any pair, uncached.

Bit-type errors (psi+ admixtures) purify directly. Phase-type errors (phi-
admixtures) are first converted to bit type by Hadamards on the kept modes
after reduction. A single physical bit flip inside one logic qubit is not
purified but corrected outright: the intra-logic CNOT fan-out is applied, the
non-control modes are measured, and a flagged mode is flipped back (or
re-prepared) before the fan-out re-entangles the block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError, RegisterError, UnsupportedInputError
from .gates import (
    OUTCOME_EPS,
    apply_cnot,
    apply_fan_outs,
    apply_h,
    apply_x,
    discard,
    measure_ensemble,
    outcome_probability,
    reset_qubit,
)
from .noise import ErrorKind, ErrorModel, apply_error_model
from .states import (
    MAX_QUBITS,
    Ensemble,
    PureState,
    fidelity,
    make_logic_bell,
    map_branches,
    tensor,
    with_labels,
)

BASES = ("bit", "phase")
SACRIFICED = ("c1", "d1")
# the sacrificed measurements' (c1, d1) readings that keep a run: they agree
KEPT_OUTCOMES = ((0, 0), (1, 1))
# whether outcome o = 2*o1 + o2 keeps its run
KEEP_MASK = tuple(key in KEPT_OUTCOMES for key in np.ndindex(2, 2))
# a state's content, which decides its equality: labels, idx bytes, vals bytes
_Content = tuple[tuple[str, ...], bytes, bytes]


def register_width(command: str, n: int) -> int:
    """Qubits `command` holds at block size n: 2n, plus c1 and d1 in a round (purify, sweep)."""
    return 2 * n + {"purify": 2, "sweep": 2, "correct": 0, "verify": 0}[command]


def check_block_size(command: str, n: int) -> None:
    """Refuse, with ConfigError, an n below 2 or a register_width past MAX_QUBITS."""
    if n < 2:
        raise ConfigError(f"n must be at least 2, got {n}")
    width = register_width(command, n)
    if width > MAX_QUBITS:
        raise ConfigError(
            f"{command} at n={n} needs {width} qubits; registers are capped at {MAX_QUBITS}"
        )


def _logic_modes(pair: PureState | Ensemble) -> tuple[tuple[str, ...], ...]:
    """The pair's two logic qubits: the first and the last n register modes;
    a register of odd size or with n < 2 holds no logic Bell pair."""
    labels = pair.register.labels
    n = len(labels) // 2
    if len(labels) % 2 != 0 or n < 2:
        raise RegisterError("expected a 2n-qubit logic Bell pair register")
    return labels[:n], labels[n:]


def reduce_copy(s: PureState) -> PureState:
    """Concentrate one copy's Bell content onto its two first modes.

    Applies the intra-logic CNOT fan-out (first mode controls) in both logic
    qubits, read from the register, then a Hadamard on each first mode. Logic
    phi+/- map to physical phi+/- on the first modes and psi+/- to psi+/-,
    with all other modes left in |0>.
    """
    modes = _logic_modes(s)
    s = apply_fan_outs(s, *((group[0], group[1:]) for group in modes))
    return apply_h(s, *(group[0] for group in modes))


def _require_clear_ancillas(s: PureState) -> None:
    """Reject a reduced state whose non-first modes are not all in |0>.

    One norm of the entries where some ancilla reads 1 clears the usual case;
    only a state that fails it is checked mode by mode, to name the offender,
    and ancillas that read 1 only jointly are named together.
    """
    ancillas = [anc for group in _logic_modes(s) for anc in group[1:]]
    stray = s.vals[(s.idx & s.register.mask(ancillas)) != 0]
    if np.vdot(stray, stray).real > OUTCOME_EPS:
        for anc in ancillas:
            if outcome_probability(s, anc, 1) > OUTCOME_EPS:
                raise UnsupportedInputError(f"mode {anc!r} is not in |0>")
        raise UnsupportedInputError(f"modes {ancillas} are not all in |0>")


def recover_logic(e: Ensemble) -> Ensemble:
    """Inverse of reduce_copy, lifting a physical Bell pair back to a logic pair.

    Every non-first mode must be in |0>; anything else is rejected because
    the lift is only defined on reduced states.
    """
    def lift(s: PureState) -> PureState:
        _require_clear_ancillas(s)
        modes = _logic_modes(s)
        s = apply_h(s, *(group[0] for group in modes))
        return apply_fan_outs(s, *((group[0], group[1:]) for group in modes))

    return map_branches(e, lift)


def bennett_step(s: PureState, kept_pair: tuple[str, str]) -> PureState:
    """Bilateral CNOT from the kept Bell pair onto the SACRIFICED one."""
    if len(set(kept_pair) | set(SACRIFICED)) != 4:
        raise RegisterError("kept and sacrificed pairs must use four distinct modes")
    return apply_fan_outs(
        s, *((control, (target,)) for control, target in zip(kept_pair, SACRIFICED))
    )


def postselect_equal(
    outcomes: dict[tuple[int, ...], tuple[float, Ensemble]]
) -> tuple[float, Ensemble]:
    """Keep the KEPT_OUTCOMES events and renormalize.

    The merged sub-normalized ensemble carries the success probability as
    its weight sum; it is renormalized explicitly and the probability
    returned alongside. Outcomes with no kept event raise ValueError, as
    an empty Ensemble does.
    """
    sub: list[tuple[float, PureState]] = []
    for key in KEPT_OUTCOMES:
        if key in outcomes:
            prob, ens = outcomes[key]
            sub.extend((prob * w, s) for w, s in ens.branches)
    subnorm = Ensemble(tuple(sub))
    p = subnorm.weight_sum
    return p, subnorm.scaled(1.0 / p)


def one_round_fidelity_map(f: float) -> float:
    """Post-selected fidelity after one round on a fidelity-f pair."""
    success = one_round_success_probability(f)
    return f**2 / success


def one_round_success_probability(f: float) -> float:
    """Probability that the sacrificed-pair outcomes agree."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    return f**2 + (1.0 - f) ** 2


@dataclass(frozen=True)
class PurifyConfig:
    """Parameters of an exact purification run."""

    n: int
    error_basis: str
    input_fidelity: float
    rounds: int = 1

    def __post_init__(self) -> None:
        check_block_size("purify", self.n)
        if self.error_basis not in BASES:
            raise ValueError(f"error_basis must be one of {BASES}")
        if not 0.0 <= self.input_fidelity <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.input_fidelity}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")


@dataclass(frozen=True)
class ProtocolOutcome:
    success_probability: float
    output: Ensemble
    fidelity: float


def canonical_pair(n: int, basis: str, f: float) -> Ensemble:
    """Noisy pair: phi+ with weight f, else the basis's logic error on B."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}")
    kind = ErrorKind.LOGIC_BITFLIP if basis == "bit" else ErrorKind.LOGIC_PHASEFLIP
    return apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), ErrorModel(kind, f), n)


def prepare_copy(s: PureState, basis: str) -> PureState:
    """Reduce one copy, check its ancillas, and turn phase errors into bit
    errors with Hadamards on the two first modes."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}")
    s = reduce_copy(s)
    _require_clear_ancillas(s)
    if basis == "phase":
        a, b = _logic_modes(s)
        s = apply_h(s, a[0], b[0])
    return s


def _content(s: PureState) -> _Content:
    return s.register.labels, s.idx.tobytes(), s.vals.tobytes()


def _join(first: PureState, second: PureState) -> PureState:
    """Two prepared copies before the sacrificed pair is measured.

    Only the second copy's two first modes join, relabelled (c1, d1) after
    the first copy's register; its ancillas are |0> after preparation and
    are dropped. The first copy's two first modes then run bennett_step.
    """
    a, b = _logic_modes(first)
    second = with_labels(discard(second, a[1:] + b[1:]), SACRIFICED)
    return bennett_step(tensor(first, second), (a[0], b[0]))


def compare_copies(
    first: Ensemble, second: Ensemble
) -> dict[tuple[int, ...], tuple[float, Ensemble]]:
    """Bennett comparison of two prepared copies, on the first copy's register:
    c1 and d1 measured on every branch pair in tensor_ensembles order and weight."""
    joined = tuple(
        (w1 * w2, _join(s1, s2)) for w1, s1 in first.branches for w2, s2 in second.branches
    )
    return measure_ensemble(Ensemble(joined), list(SACRIFICED))


def lift_kept(kept: Ensemble) -> tuple[Ensemble, float]:
    """Drop c1 and d1, recover the logic pair, and give its fidelity to phi+.
    Equal states are merged first, their weights summed, and lifted once."""
    merged: dict[_Content, list] = {}
    for w, s in kept.branches:
        s = discard(s, SACRIFICED)
        merged.setdefault(_content(s), [0.0, s])[0] += w
    kept = recover_logic(Ensemble(tuple((w, s) for w, s in merged.values())))
    n = kept.register.n_qubits // 2
    return kept, fidelity(kept, make_logic_bell(n, "phi+"))


def _kept_outcome(outcomes: dict[tuple[int, ...], tuple[float, Ensemble]]) -> ProtocolOutcome:
    p, kept = postselect_equal(outcomes)
    kept, fid = lift_kept(kept)
    return ProtocolOutcome(p, kept, fid)


def purify_pair(pair: Ensemble, basis: str) -> ProtocolOutcome:
    """One round on two identical copies of `pair`, whose logic qubits are
    read from its register. With q the chance that one prepared copy reads
    equal bits on its two first modes, the copies' outcomes agree with
    probability q^2 + (1 - q)^2 >= 1/2, so a round always keeps a branch."""
    first = map_branches(pair, lambda s: prepare_copy(s, basis))
    return _kept_outcome(compare_copies(first, first))


@functools.cache
def _staged(n: int, basis: str) -> tuple[PureState, ...]:
    """The canonical pair's two copies, prepared and joined, one state per
    branch pair b = 2*s1 + s2 (s = 0 clean, 1 errored). No weight enters, so
    every fidelity shares them."""
    # at f = 1 the canonical pair is the clean state alone, at f = 0 the errored one
    prepared = [
        prepare_copy(canonical_pair(n, basis, f).branches[0][1], basis) for f in (1.0, 0.0)
    ]
    return tuple(_join(s1, s2) for s1 in prepared for s2 in prepared)


def canonical_round(n: int, basis: str, f: float) -> ProtocolOutcome:
    """purify_pair(canonical_pair(n, basis, f), basis), float for float, with
    only the measurement, post-selection and lift run per call; see _staged."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    weights = (w1 * w2 for w1 in (f, 1.0 - f) for w2 in (f, 1.0 - f))
    joined = Ensemble(tuple(zip(weights, _staged(n, basis))))
    return _kept_outcome(measure_ensemble(joined, list(SACRIFICED)))


@functools.cache
def round_table(n: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """A round's outcome law as two read-only 4 x 4 arrays, cached per (n, basis):
    probs[b, o], the chance of sacrificed outcome o = 2*o1 + o2 on branch pair
    b = 2*s1 + s2 (s = 0 clean, 1 errored), from the copies _staged holds for
    canonical_round, and fid[b, o], the fidelity lift_kept gives a kept
    outcome (0 where KEEP_MASK[o] is false). By the reduction neither depends on n.
    """
    probs, fid = np.zeros((4, 4)), np.zeros((4, 4))
    for b, joined in enumerate(_staged(n, basis)):
        outcomes = measure_ensemble(Ensemble.pure(joined), list(SACRIFICED))
        for o, key in enumerate(np.ndindex(2, 2)):
            if key in outcomes:
                probs[b, o], kept = outcomes[key]
                if KEEP_MASK[o]:
                    fid[b, o] = lift_kept(kept)[1]
    probs.flags.writeable = fid.flags.writeable = False
    return probs, fid


def round_bases(basis: str, rounds: int) -> list[str]:
    """Each round's basis: `basis` in round 1, then bit, because a phase round's
    conversion Hadamards turn phi- into psi+, a bit-type residual."""
    return [basis][:rounds] + ["bit"] * (rounds - 1)


def iterate_rounds(cfg: PurifyConfig) -> list[ProtocolOutcome]:
    """Run the configured number of rounds, one outcome per round.

    Surviving pairs are assumed re-prepared i.i.d. between rounds, so each
    round starts from the canonical two-branch mixture at the previous
    round's output fidelity, in the basis round_bases gives it.
    """
    results: list[ProtocolOutcome] = []
    f = cfg.input_fidelity
    for basis in round_bases(cfg.error_basis, cfg.rounds):
        out = canonical_round(cfg.n, basis, f)
        results.append(out)
        f = out.fidelity
    return results


def purify_round(cfg: PurifyConfig) -> ProtocolOutcome:
    """Run all configured rounds and return the final round's outcome."""
    return iterate_rounds(cfg)[-1]


def correct_physical_bitflip(
    state: Ensemble,
    suspected_logic_qubit: str = "A",
    path: str = "qnd",
    flip_position: int | None = None,
) -> ProtocolOutcome:
    """Detect and undo a single physical bit flip inside one logic qubit of
    the pair `state` (a pure pair enters as Ensemble.pure).

    The first mode of the suspected logic qubit controls a CNOT onto each of
    its other modes, the non-control modes are measured, and a mode reading 1
    locates the flip. The flip is undone either by a classically controlled X
    on the flagged mode (path="qnd") or by re-preparing that mode in |0>
    (path="destructive"); both yield the same state here. The CNOT fan-out is
    then re-applied to restore the logic pair. Deterministic: no runs are
    discarded.

    A flip on the control mode itself is outside the corrected domain and is
    rejected, as is any flag pattern showing more than one flip.
    """
    if path not in ("qnd", "destructive"):
        raise ValueError(f"path must be 'qnd' or 'destructive', got {path!r}")
    if suspected_logic_qubit not in ("A", "B"):
        raise ValueError("suspected logic qubit must be 'A' or 'B'")
    a, b = _logic_modes(state)
    n = len(a)
    modes = a if suspected_logic_qubit == "A" else b
    if flip_position is not None:
        if flip_position == 0:
            raise UnsupportedInputError(
                "a flip on the control mode cannot be corrected by this circuit"
            )
        if not 0 < flip_position < n:
            raise RegisterError(f"flip position {flip_position} out of range for n={n}")
    control, ancillas = modes[0], modes[1:]

    outcomes = measure_ensemble(
        map_branches(state, lambda s: apply_cnot(s, control, *ancillas)), list(ancillas)
    )
    corrected: list[tuple[float, PureState]] = []
    for bits, (prob, ens) in outcomes.items():
        flagged = [anc for anc, bit in zip(ancillas, bits) if bit == 1]
        if len(flagged) > 1:
            raise UnsupportedInputError(
                f"flag pattern {bits} shows more than one flip"
            )
        for w, s in ens.branches:
            for anc in flagged:
                s = apply_x(s, anc) if path == "qnd" else reset_qubit(s, anc)
            corrected.append((prob * w, apply_cnot(s, control, *ancillas)))
    output = Ensemble(tuple(corrected))
    target = with_labels(make_logic_bell(n, "phi+"), a + b)
    return ProtocolOutcome(1.0, output, fidelity(output, target))
