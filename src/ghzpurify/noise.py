"""Single-error channels on logic Bell pairs.

Each channel leaves the state untouched with probability `fidelity` and
applies one Pauli realization of the error otherwise:

  logic-bitflip    Z on one physical qubit of the target logic qubit
                   (position-independent; the canonical choice is the first)
  logic-phaseflip  X on every physical qubit of the target logic qubit
  phys-bitflip     X on the addressed physical qubit
  phys-phaseflip   Z on the addressed physical qubit

A logic bit flip and a physical phase flip are one operator: Z on one mode of
a GHZ block swaps G+ and G-, the logic X. `error_operator` builds both in one
branch, on the first mode unless a position is given.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import RegisterError
from .gates import apply_pauli
from .states import Ensemble, logic_register, map_branches


class ErrorKind(str, enum.Enum):
    LOGIC_BITFLIP = "logic-bitflip"
    LOGIC_PHASEFLIP = "logic-phaseflip"
    PHYS_BITFLIP = "phys-bitflip"
    PHYS_PHASEFLIP = "phys-phaseflip"

    @property
    def is_physical(self) -> bool:
        return self in (ErrorKind.PHYS_BITFLIP, ErrorKind.PHYS_PHASEFLIP)

    @property
    def basis(self) -> str | None:
        """Purification basis, or None for the kind that is corrected outright.

        Logic bit flips and physical phase flips both turn phi+ into psi+, so
        both purify in the bit basis; logic phase flips purify in the phase
        basis; a physical bit flip is corrected directly.
        """
        if self is ErrorKind.PHYS_BITFLIP:
            return None
        return "phase" if self is ErrorKind.LOGIC_PHASEFLIP else "bit"


# CLI names of the error kinds: each value without its "flip", then the values
ERROR_ALIASES = {k.value.removesuffix("flip"): k for k in ErrorKind}
ERROR_ALIASES.update((k.value, k) for k in ErrorKind)


@dataclass(frozen=True)
class ErrorModel:
    """One error kind with its no-error probability and placement.

    `target` names the logic qubit ("A" or "B"); `position` is the 0-based
    physical qubit index within it, required for physical kinds.
    """

    kind: ErrorKind
    fidelity: float
    target: str = "B"
    position: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ErrorKind(self.kind))
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.fidelity}")
        if self.target not in ("A", "B"):
            raise ValueError(f"target must be 'A' or 'B', got {self.target!r}")
        if self.kind.is_physical:
            if self.position is None:
                raise ValueError(f"{self.kind.value} needs a physical position")
            if self.position < 0:
                raise ValueError(f"position must be non-negative, got {self.position}")


def error_operator(model: ErrorModel, n: int) -> dict[str, str]:
    """Concrete Pauli realization of the model on an n-per-logic-qubit
    register, as {label: "X" or "Z"}."""
    labels = logic_register(n).labels
    block = labels[:n] if model.target == "A" else labels[n:]
    if model.kind is ErrorKind.LOGIC_PHASEFLIP:
        return {lab: "X" for lab in block}
    pos = 0 if model.position is None else model.position
    if pos >= n:
        raise RegisterError(f"position {pos} out of range for n={n}")
    pauli = "X" if model.kind is ErrorKind.PHYS_BITFLIP else "Z"
    return {block[pos]: pauli}


def apply_error_model(e: Ensemble, model: ErrorModel, n: int) -> Ensemble:
    """Mix the untouched ensemble with its errored image.

    Output weights are fidelity and (1 - fidelity); a fidelity of exactly
    0 or 1 keeps the branch count unchanged.
    """
    f = model.fidelity
    if f == 1.0:
        return e
    op = error_operator(model, n)
    errored = map_branches(e, lambda s: apply_pauli(s, op))
    if f == 0.0:
        return errored
    return Ensemble(e.scaled(f).branches + errored.scaled(1.0 - f).branches)
