"""Test helpers: registers built from (prefix, count) groups, and gate-list
descriptors run on the statevector engine as references."""

from ghzpurify.gates import apply_cnot, apply_h, apply_x, apply_z
from ghzpurify.states import Register


def register(groups):
    """Register from (prefix, count) groups: ("a", 2) -> a1, a2."""
    return Register(tuple(f"{p}{i}" for p, count in groups for i in range(1, count + 1)))


def apply_circuit(s, ops):
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
