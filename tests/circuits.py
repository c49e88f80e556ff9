"""Gate-list descriptors run on the statevector engine, as references for tests."""

from ghzpurify.gates import apply_cnot, apply_h, apply_x, apply_z


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
