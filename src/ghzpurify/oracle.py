"""Brute-force density-matrix engine used to cross-check the branch engine.

Everything here works on dense matrices: gates are applied by conjugation
using slice arithmetic on the matrix reshaped to (2,)*(2k) (ket axes first,
then bra axes), measurements are diagonal projectors. The kernels change
the array they are given in place, through views of its axis halves. The
purification round below rebuilds the whole protocol from scratch on this
representation, so the two engines share no evolution code. It holds one
copy's 2n-qubit matrix head-major: 16 rows, one per ket and bra reading of
the heads a1 and b1, each row the rest of the matrix. Each stage is then
one contiguous pass:
- the fan-outs with the move into that layout are one gather, and the
  recovery's fan-outs with the move back are another. Both index maps
  depend on n alone and are built once per n, by the CNOT kernel run on an
  index array;
- the head Hadamards, ket and bra, are one 16 x 16 Walsh product;
- the Bennett step scales each row by one entry of a 4 x 4 table from the
  second copy, and the trace sums the diagonal positions.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import RegisterError, UnsupportedInputError
from .states import (
    DENSITY_MAX_QUBITS,
    DensityMatrix,
    Ensemble,
    Register,
    logic_register,
    make_logic_bell,
    to_density_matrix,
)

_SQRT2 = np.sqrt(2.0)
# outcome probabilities at or below this are treated as impossible
_IMPOSSIBLE = 1e-15
# a half swap moves blocks of 2**_SWAP_AXES entries: 256 KiB temporaries
_SWAP_AXES = 14
# largest n whose 2n + 2-qubit round circuit fits; its largest matrix has 2n
ORACLE_MAX_N = (DENSITY_MAX_QUBITS - 2) // 2
# H on a1 and b1, ket and bra: its four 1/sqrt2 factors make one exact 1/4
_WALSH = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * 4) / 4.0
# the coarse axes a1, a2..an, b1, b2..bn (ket, then bra) with the heads first
_HEADS_FIRST = (0, 2, 4, 6, 1, 3, 5, 7)


def _halves(t: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the 0 and 1 halves of one axis; writes go to t itself."""
    sel: list[slice | int] = [slice(None)] * t.ndim
    sel[axis] = 0
    lo = t[tuple(sel)]
    sel[axis] = 1
    return lo, t[tuple(sel)]


def _h_axis(t: np.ndarray, axis: int) -> None:
    lo, hi = _halves(t, axis)
    lo += hi
    lo /= _SQRT2  # (lo + hi) / sqrt2
    hi *= -_SQRT2
    hi += lo  # (lo - hi) / sqrt2


def _x_axis(t: np.ndarray, axis: int) -> None:
    # swap the halves block by block, so the temporary stays in cache
    lo, hi = _halves(t, axis)
    for idx in itertools.product((0, 1), repeat=max(lo.ndim - _SWAP_AXES, 0)):
        a, b = lo[idx], hi[idx]
        a[...], b[...] = b, a.copy()


def _z_axis(t: np.ndarray, axis: int) -> None:
    _, hi = _halves(t, axis)
    hi *= -1.0


def _cnot_axes(t: np.ndarray, control_axis: int, target_axis: int) -> None:
    # X on the target inside the control-1 half
    _, hi = _halves(t, control_axis)
    _x_axis(hi, target_axis - 1 if target_axis > control_axis else target_axis)


def _apply_ops(t: np.ndarray, n: int, ops: Iterable[tuple], reg: Register) -> None:
    """Conjugate in place: each gate hits the ket axis, then the bra axis.

    All gates used here have real matrices, so the bra side needs no
    conjugation.
    """
    for op in ops:
        kind = op[0]
        if kind == "cnot":
            c, tq = reg.index_of(op[1]), reg.index_of(op[2])
            _cnot_axes(t, c, tq)
            _cnot_axes(t, n + c, n + tq)
            continue
        q = reg.index_of(op[1])
        fn = {"h": _h_axis, "x": _x_axis, "z": _z_axis}.get(kind)
        if fn is None:
            raise ValueError(f"unknown op {op!r}")
        fn(t, q)
        fn(t, n + q)


def evolve_density(dm: DensityMatrix, ops: Sequence[tuple]) -> DensityMatrix:
    """Apply ("h", q) / ("x", q) / ("z", q) / ("cnot", c, t) descriptors."""
    n = dm.n_qubits
    t = dm.matrix.reshape((2,) * (2 * n)).copy()
    _apply_ops(t, n, ops, dm.register)
    return DensityMatrix(dm.register, t.reshape(2**n, 2**n))


def _diag_probability(mat: np.ndarray, n: int, q: int, outcome: int) -> float:
    diag = np.einsum("ii->i", mat).real.reshape((2,) * n)
    return float(np.take(diag, outcome, axis=q).sum())


def _zero_block(t: np.ndarray, bits: dict[int, int]) -> None:
    """Zero, in place, the block where each given axis reads the given bit."""
    sel: list[slice | int] = [slice(None)] * t.ndim
    for axis, bit in bits.items():
        sel[axis] = bit
    t[tuple(sel)] = 0.0


def postselect_density(
    dm: DensityMatrix, label: str, outcome: int
) -> tuple[float, DensityMatrix | None]:
    """Project one qubit onto |outcome| and renormalize.

    Returns (probability, state); an impossible outcome gives (0.0, None).
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    n = dm.n_qubits
    q = dm.register.index_of(label)
    p = _diag_probability(dm.matrix, n, q, outcome)
    if p <= _IMPOSSIBLE:
        return 0.0, None
    t = dm.matrix.reshape((2,) * (2 * n)).copy()
    _zero_block(t, {q: 1 - outcome})
    _zero_block(t, {n + q: 1 - outcome})
    t /= p
    return p, DensityMatrix(dm.register, t.reshape(2**n, 2**n))


def compare(e: Ensemble, dm: DensityMatrix) -> float:
    """Largest entrywise deviation between an ensemble and a density matrix."""
    own = to_density_matrix(e)
    if own.register.labels != dm.register.labels:
        raise RegisterError("register mismatch")
    return float(np.max(np.abs(own.matrix - dm.matrix)))


def _logic_pair_density(n: int, f: float, error_kind: str) -> np.ndarray:
    """The pair f |phi+><phi+| + (1 - f) |error><error|; only the two
    branches' nonzero entries are written."""
    good, bad = make_logic_bell(n, "phi+"), make_logic_bell(n, error_kind)
    return to_density_matrix(Ensemble(((f, good), (1.0 - f, bad)))).matrix


@functools.cache
def _head_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int32 gather maps into and out of the head-major layout.

    The head-major matrix is (16, 4**(2n - 2)): a row per ket and bra
    reading of (a1, b1), each row the ket and bra readings of a2..an,
    b2..bn. Slot i of the fanned-out head-major matrix reads entry into[i]
    of the flat register-order pair. The fan-outs permute basis states, so
    they are the CNOT kernel run once on an index array, and they are their
    own inverse, so the recovery's fan-outs with the move back to register
    order are into's inverse: entry j reads slot back[j]. At n = 5 each map
    is 4 MiB.
    """
    dim, rest = 4**n, 2 ** (n - 1)
    reg = logic_register(n)
    perm = np.arange(dim, dtype=np.int32).reshape((2,) * (2 * n))
    for p, k in itertools.product("ab", range(2, n + 1)):
        _cnot_axes(perm, reg.index_of(f"{p}1"), reg.index_of(f"{p}{k}"))
    perm = perm.ravel()
    into = (perm[:, None] * dim + perm).reshape((2, rest) * 4)
    into = into.transpose(_HEADS_FIRST).reshape(16, -1)
    # into's inverse, built by gathers: a scatter raised the peak RSS of
    # verify --n 5 --oracle by about 8 MiB
    slots = np.arange(dim * dim, dtype=np.int32).reshape((2,) * 4 + (rest,) * 4)
    back = slots.transpose(np.argsort(_HEADS_FIRST)).reshape(dim, dim)[np.ix_(perm, perm)]
    into.flags.writeable = back.flags.writeable = False
    return into, back


def _h_heads(x: np.ndarray) -> np.ndarray:
    """H on a1 and b1, ket and bra, of a C-contiguous head-major (16, m)
    complex array; the Walsh matrix is real, so one real product covers
    both parts."""
    return (_WALSH @ x.view(np.float64)).view(np.complex128)


def _bennett_step(x: np.ndarray) -> float:
    """Scale a reduced head-major copy by K in place; return the trace left.

    Rows 0, 5, 10, 15 read equal ket and bra heads, the diagonal of each
    row's square is where the rest reads equal, and rest 0 is the clean
    block. rho is positive semidefinite, so no diagonal weight off that
    block means no entry off it either. Its views of x go when it returns,
    so that x can be freed after the next stage.
    """
    side = math.isqrt(x.shape[1])
    diag = x.reshape(16, side, side)[::5].diagonal(axis1=1, axis2=2)
    if np.abs(diag[:, 1:]).sum() > _IMPOSSIBLE:
        raise UnsupportedInputError("the reduced ancillas are not all in |0>")
    s = x[:, 0].reshape(4, 4)
    x *= (s + s[::-1, ::-1]).reshape(16, 1)
    return float(diag.sum().real)


def oracle_purify_round(
    n: int, basis: str, f: float
) -> tuple[float, float, DensityMatrix]:
    """One full purification round computed entirely on density matrices.

    Returns (success probability, output fidelity, kept-pair density matrix
    after tracing out the sacrificed copy). Independent of the branch
    engine: the circuit is spelled out here and evolution is conjugation.

    The local stages act on each factor of rho (x) rho on its own, so one
    copy is reduced as a 2n-qubit matrix, and its whole trace must then sit
    where every ancilla reads 0 (else UnsupportedInputError). The second
    copy enters only as that block's 4 x 4 (a1, b1) corner s, on (c1, d1).
    The bilateral CNOTs map |x, u, c> to |x, u, c ^ u>, with u the (a1, b1)
    and c the (c1, d1) bits, so they conjugate rho (x) s to entries
    rho[xu, yv] s[c ^ u, d ^ v]. Keeping c = d in {00, 11} and tracing c out
    scales each entry of rho by K[u, v] = s[u, v] + s[u ^ 3, v ^ 3].
    """
    if basis not in ("bit", "phase"):
        raise ValueError(f"basis must be 'bit' or 'phase', got {basis!r}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    if n > ORACLE_MAX_N:
        raise RegisterError(
            f"oracle round at n={n} needs {2 * n + 2} qubits;"
            f" density matrices are capped at {DENSITY_MAX_QUBITS} qubits"
        )
    into, back = _head_maps(n)
    x = np.take(_logic_pair_density(n, f, "psi+" if basis == "bit" else "phi-"), into)
    # the reduction's H on a1 and b1; in the phase basis the conversion H undoes it
    if basis == "bit":
        x = _h_heads(x)
    p_total = _bennett_step(x)
    x /= p_total
    # the recovery's H, then its fan-outs back to register order; one stage
    # per statement, so that each stage's input is freed once it has run
    x = _h_heads(x)
    x = np.take(x, back)
    target = make_logic_bell(n, "phi+").amps
    fid = float(np.vdot(target, x @ target).real)
    return p_total, fid, DensityMatrix(logic_register(n), x)
