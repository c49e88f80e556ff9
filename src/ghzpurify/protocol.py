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
kernel call. These three stages are
prepare_copy, compare_copies and lift_kept; the Monte Carlo sampler builds
its outcome tables from the same functions. Each stage reads the logic qubits
from its input's register: the first n modes are A, the last n are B.

Bit-type errors (psi+ admixtures) purify directly. Phase-type errors (phi-
admixtures) are first converted to bit type by Hadamards on the kept modes
after reduction. A single physical bit flip inside one logic qubit is not
purified but corrected outright: the intra-logic CNOT fan-out is applied, the
non-control modes are measured, and a flagged mode is flipped back (or
re-prepared) before the fan-out re-entangles the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegisterError, UnsupportedInputError
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
    Ensemble,
    PureState,
    fidelity,
    logic_register,
    make_logic_bell,
    map_branches,
    tensor_ensembles,
    with_labels,
)

BASES = ("bit", "phase")


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
    only a state that fails it is checked mode by mode, to name the offender.
    """
    ancillas = [anc for group in _logic_modes(s) for anc in group[1:]]
    stray = s.vals[(s.idx & s.register.mask(ancillas)) != 0]
    if np.vdot(stray, stray).real > OUTCOME_EPS:
        for anc in ancillas:
            if outcome_probability(s, anc, 1) > OUTCOME_EPS:
                raise UnsupportedInputError(f"mode {anc!r} is not in |0>")


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


def bennett_step(
    e: Ensemble,
    kept_pair: tuple[str, str],
    sacrificed_pair: tuple[str, str],
) -> dict[tuple[int, ...], tuple[float, Ensemble]]:
    """Bilateral CNOT from the kept Bell pair onto the sacrificed one, then
    measurement of the sacrificed modes.

    Returns the outcome map of measure_ensemble keyed by (alice, bob) bits.
    """
    labels = set(kept_pair) | set(sacrificed_pair)
    if len(labels) != 4:
        raise RegisterError("kept and sacrificed pairs must use four distinct modes")
    groups = [(control, (target,)) for control, target in zip(kept_pair, sacrificed_pair)]
    e = map_branches(e, lambda s: apply_fan_outs(s, *groups))
    return measure_ensemble(e, list(sacrificed_pair))


def postselect_equal(
    outcomes: dict[tuple[int, ...], tuple[float, Ensemble]]
) -> tuple[float, Ensemble]:
    """Keep the equal-outcome events (00 and 11) and renormalize.

    The merged sub-normalized ensemble carries the success probability as
    its weight sum; it is renormalized explicitly and the probability
    returned alongside. Impossible post-selection gives (0.0, empty).
    """
    sub: list[tuple[float, PureState]] = []
    for key in ((0, 0), (1, 1)):
        if key in outcomes:
            prob, ens = outcomes[key]
            sub.extend((prob * w, s) for w, s in ens.branches)
    subnorm = Ensemble(tuple(sub))
    p = subnorm.weight_sum
    if p <= OUTCOME_EPS:
        return 0.0, Ensemble(())
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
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
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


SACRIFICED = ("c1", "d1")


def prepare_copy(s: PureState, basis: str) -> PureState:
    """Reduce one copy, check its ancillas, and turn phase errors into bit
    errors with Hadamards on the two first modes."""
    s = reduce_copy(s)
    _require_clear_ancillas(s)
    if basis == "phase":
        a, b = _logic_modes(s)
        s = apply_h(s, a[0], b[0])
    return s


def compare_copies(
    first: Ensemble, second: Ensemble
) -> dict[tuple[int, ...], tuple[float, Ensemble]]:
    """Bennett comparison of two prepared copies, on the first copy's register.

    Only the second copy's two first modes join, relabelled (c1, d1); its
    ancillas are |0> after preparation and are dropped.
    """
    a, b = _logic_modes(first)
    second = map_branches(
        second, lambda s: with_labels(discard(s, a[1:] + b[1:]), SACRIFICED)
    )
    return bennett_step(tensor_ensembles(first, second), (a[0], b[0]), SACRIFICED)


def lift_kept(kept: Ensemble) -> tuple[Ensemble, float]:
    """Drop c1 and d1, recover the logic pair, and give its fidelity to phi+.
    Equal states are merged first, their weights summed, and lifted once."""
    merged: dict[tuple[bytes, bytes], list] = {}
    for w, s in kept.branches:
        s = discard(s, SACRIFICED)
        merged.setdefault((s.idx.tobytes(), s.vals.tobytes()), [0.0, s])[0] += w
    kept = recover_logic(Ensemble(tuple((w, s) for w, s in merged.values())))
    n = kept.register.n_qubits // 2
    return kept, fidelity(kept, make_logic_bell(n, "phi+"))


def _run_single_round(n: int, basis: str, pair: Ensemble) -> ProtocolOutcome:
    expected = logic_register(n).labels
    if pair.register.labels != expected:
        raise RegisterError(
            f"input pair must live on {expected}, got {pair.register.labels}"
        )
    first = map_branches(pair, lambda s: prepare_copy(s, basis))
    # The second copy is the same ensemble, so its preparation is the first's.
    p, kept = postselect_equal(compare_copies(first, first))
    if p == 0.0:
        return ProtocolOutcome(0.0, kept, 0.0)
    kept, fid = lift_kept(kept)
    return ProtocolOutcome(p, kept, fid)


def iterate_rounds(
    cfg: PurifyConfig, input_pair: Ensemble | None = None
) -> list[ProtocolOutcome]:
    """Run the configured number of rounds, one outcome per round.

    Surviving pairs are assumed re-prepared i.i.d. between rounds, so each
    round starts from the canonical two-branch mixture at the previous
    round's output fidelity. A phase-basis round leaves a bit-type residual
    (the conversion Hadamards turn phi- into psi+), so later rounds always
    purify in the bit basis.
    """
    results: list[ProtocolOutcome] = []
    f = cfg.input_fidelity
    for r in range(cfg.rounds):
        basis = cfg.error_basis if r == 0 else "bit"
        if r == 0 and input_pair is not None:
            pair = input_pair
        else:
            pair = canonical_pair(cfg.n, basis, f)
        out = _run_single_round(cfg.n, basis, pair)
        results.append(out)
        f = out.fidelity
    return results


def purify_round(
    cfg: PurifyConfig, input_pair: Ensemble | None = None
) -> ProtocolOutcome:
    """Run all configured rounds and return the final round's outcome."""
    return iterate_rounds(cfg, input_pair)[-1]


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
