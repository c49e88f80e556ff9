import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify import oracle
from ghzpurify.errors import RegisterError, UnsupportedInputError
from ghzpurify.gates import apply_x, project
from ghzpurify.oracle import (
    compare,
    evolve_density,
    oracle_purify_round,
    postselect_density,
)
from ghzpurify.protocol import PurifyConfig, purify_round
from ghzpurify.states import (
    ORACLE_TOL,
    Ensemble,
    PureState,
    Register,
    make_logic_bell,
    map_branches,
    to_density_matrix,
    with_labels,
)

from circuits import apply_circuit, register


def _random_state(rng, labels):
    dim = 2 ** len(labels)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(Register(tuple(labels)), v / np.linalg.norm(v))


def _random_ops(rng, labels, count):
    ops = []
    while len(ops) < count:
        pick = rng.integers(0, 4)
        q = labels[rng.integers(0, len(labels))]
        if pick == 3:
            t = labels[rng.integers(0, len(labels))]
            if t == q:
                continue
            ops.append(("cnot", q, t))
        else:
            ops.append((("h", "x", "z")[pick], q))
    return ops


def test_evolution_matches_statevector_engine():
    # conjugation kernels against the pure-state engine on random circuits
    rng = np.random.default_rng(314)
    labels = ("q1", "q2", "q3", "q4")
    for _ in range(15):
        s = _random_state(rng, labels)
        ops = _random_ops(rng, labels, 10)
        expected = to_density_matrix(Ensemble.pure(apply_circuit(s, ops)))
        got = evolve_density(to_density_matrix(Ensemble.pure(s)), ops)
        assert np.max(np.abs(expected.matrix - got.matrix)) < 1e-12


def test_evolution_preserves_mixtures():
    rng = np.random.default_rng(315)
    labels = ("q1", "q2")
    s1, s2 = _random_state(rng, labels), _random_state(rng, labels)
    e = Ensemble(((0.3, s1), (0.7, s2)))
    ops = [("h", "q1"), ("cnot", "q1", "q2"), ("z", "q2")]
    evolved = evolve_density(to_density_matrix(e), ops)
    branches = Ensemble(
        ((0.3, apply_circuit(s1, ops)), (0.7, apply_circuit(s2, ops)))
    )
    assert compare(branches, evolved) < 1e-12


@st.composite
def _ensemble_and_circuit(draw):
    n = draw(st.integers(1, 6))
    labels = tuple(f"q{k}" for k in range(1, n + 1))
    gate = st.tuples(st.sampled_from(("h", "x", "z")), st.sampled_from(labels))
    if n > 1:
        # one control fanning out to the next k modes of a permutation
        fan_out = st.tuples(st.permutations(labels), st.integers(1, n - 1))
        gate = gate | fan_out.map(lambda pk: ("cnot", *pk[0][: pk[1] + 1]))
    ops = draw(st.lists(gate, min_size=1, max_size=32))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = sum(weights)
    ensemble = Ensemble(
        tuple((w / total, _random_state(rng, labels)) for w in weights)
    )
    return ensemble, ops


@settings(max_examples=300, deadline=None)
@given(_ensemble_and_circuit())
def test_engines_agree_on_random_circuits(case):
    # the branch engine per branch against conjugation of the dense matrix,
    # which takes each fan-out as its single-target CNOTs
    ensemble, ops = case
    branches = map_branches(ensemble, lambda s: apply_circuit(s, ops))
    single = []
    for op in ops:
        if op[0] == "cnot":
            single.extend(("cnot", op[1], t) for t in op[2:])
        else:
            single.append(op)
    evolved = evolve_density(to_density_matrix(ensemble), single)
    assert compare(branches, evolved) < ORACLE_TOL


def test_evolve_rejects_unknown_op():
    dm = to_density_matrix(Ensemble.pure(make_logic_bell(2, "phi+")))
    with pytest.raises(ValueError):
        evolve_density(dm, [("swap", "a1")])


def test_postselect_density_matches_projection():
    rng = np.random.default_rng(316)
    labels = ("q1", "q2", "q3")
    for _ in range(10):
        s = _random_state(rng, labels)
        for outcome in (0, 1):
            p_ref, post = project(s, "q2", outcome)
            p_dm, dm = postselect_density(
                to_density_matrix(Ensemble.pure(s)), "q2", outcome
            )
            assert p_dm == pytest.approx(p_ref, abs=1e-12)
            if post is not None:
                assert compare(Ensemble.pure(post), dm) < 1e-12


def test_postselect_density_impossible_outcome():
    e = Ensemble.pure(make_logic_bell(2, "phi+"))
    dm = to_density_matrix(e)
    # a1 and a2 agree in phi+, so projecting a1 to 0 then a2 to 1 is impossible
    _, dm0 = postselect_density(dm, "a1", 0)
    p, after = postselect_density(dm0, "a2", 1)
    assert p == 0.0 and after is None


def test_postselect_density_validates_outcome():
    dm = to_density_matrix(Ensemble.pure(make_logic_bell(2, "phi+")))
    with pytest.raises(ValueError):
        postselect_density(dm, "a1", 2)


def test_compare_register_mismatch():
    e = Ensemble.pure(make_logic_bell(2, "phi+"))
    foreign = with_labels(make_logic_bell(2, "phi+"), ("x1", "x2", "y1", "y2"))
    other = to_density_matrix(Ensemble.pure(foreign))
    with pytest.raises(RegisterError):
        compare(e, other)


@pytest.mark.parametrize("basis", ["bit", "phase"])
@pytest.mark.parametrize("f", [0.3, 0.68, 0.8, 0.95])
def test_oracle_round_matches_formulas(basis, f):
    p, fid, _ = oracle_purify_round(2, basis, f)
    assert p == pytest.approx(f**2 + (1 - f) ** 2, abs=1e-10)
    assert fid == pytest.approx(f**2 / (f**2 + (1 - f) ** 2), abs=1e-10)


@pytest.mark.parametrize("basis", ["bit", "phase"])
@pytest.mark.parametrize(
    "n", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
)
def test_oracle_agrees_with_branch_engine(n, basis):
    for f in (0.3, 0.8):
        cfg = PurifyConfig(n=n, error_basis=basis, input_fidelity=f, rounds=1)
        out = purify_round(cfg)
        p, fid, dm = oracle_purify_round(n, basis, f)
        assert out.success_probability == pytest.approx(p, abs=1e-10)
        assert out.fidelity == pytest.approx(fid, abs=1e-10)
        assert compare(out.output, dm) < 1e-10


def _postselect_equal(t, n, qc, qd):
    """Zero every block whose ket or bra reads unequal bits on (qc, qd), or
    whose ket and bra read different bits, and return the remaining trace."""
    for bits in itertools.product((0, 1), repeat=4):
        if len(set(bits)) > 1:
            oracle._zero_block(t, dict(zip((qc, qd, n + qc, n + qd), bits)))
    return float(np.trace(t.reshape(2**n, 2**n)).real)


def _oracle_round_4n(n, basis, f):
    """Reference spelling of the round on all 4n qubits of rho (x) rho."""
    reg = register([("a", n), ("b", n), ("c", n), ("d", n)])
    pair = oracle._logic_pair_density(n, f, "psi+" if basis == "bit" else "phi-")
    size = reg.n_qubits
    t = np.kron(pair, pair).reshape((2,) * (2 * size))
    ops = []
    for pa, pb in (("a", "b"), ("c", "d")):
        for k in range(2, n + 1):
            ops.append(("cnot", f"{pa}1", f"{pa}{k}"))
        for k in range(2, n + 1):
            ops.append(("cnot", f"{pb}1", f"{pb}{k}"))
        ops.append(("h", f"{pa}1"))
        ops.append(("h", f"{pb}1"))
    if basis == "phase":
        ops.extend([("h", "a1"), ("h", "b1"), ("h", "c1"), ("h", "d1")])
    ops.extend([("cnot", "a1", "c1"), ("cnot", "b1", "d1")])
    oracle._apply_ops(t, size, ops, reg)
    p_total = _postselect_equal(t, size, reg.index_of("c1"), reg.index_of("d1"))
    recover = [("h", "a1"), ("h", "b1")]
    for k in range(2, n + 1):
        recover.append(("cnot", "a1", f"a{k}"))
    for k in range(2, n + 1):
        recover.append(("cnot", "b1", f"b{k}"))
    oracle._apply_ops(t, size, recover, reg)
    dim = len(pair)
    reduced = np.einsum("icjc->ij", t.reshape(dim, dim, dim, dim)) / p_total
    target = make_logic_bell(n, "phi+").amps
    return p_total, float(np.vdot(target, reduced @ target).real), reduced


@pytest.mark.parametrize("basis", ["bit", "phase"])
@pytest.mark.parametrize("f", [0.0, 0.3, 0.8, 1.0])
def test_oracle_staging_agrees_with_4n_reference(basis, f):
    p_ref, fid_ref, ref = _oracle_round_4n(2, basis, f)
    p, fid, dm = oracle_purify_round(2, basis, f)
    assert abs(p - p_ref) <= ORACLE_TOL
    assert abs(fid - fid_ref) <= ORACLE_TOL
    assert np.max(np.abs(dm.matrix - ref)) <= ORACLE_TOL


def _oracle_round_kron(n, basis, f):
    """Reference spelling of the 2n + 2 staging: rho (x) the second copy's
    (a1, b1) corner, with the bilateral CNOTs conjugated gate by gate."""
    reg_ab = register([("a", n), ("b", n)])
    rho = oracle._logic_pair_density(n, f, "psi+" if basis == "bit" else "phi-")
    dim = len(rho)
    t1 = rho.reshape((2,) * (4 * n))
    fan_out = [("cnot", f"{p}1", f"{p}{k}") for p in "ab" for k in range(2, n + 1)]
    heads = [("h", "a1"), ("h", "b1")]
    oracle._apply_ops(
        t1, 2 * n, fan_out + heads * (2 if basis == "phase" else 1), reg_ab
    )
    corner = [slice(None)] * (4 * n)
    for q in range(2 * n):
        if q not in (0, n):
            corner[q] = corner[2 * n + q] = 0
    sacrificed = t1[tuple(corner)].reshape(4, 4)
    size = 2 * n + 2
    reg = register([("a", n), ("b", n), ("c", 1), ("d", 1)])
    t = np.kron(rho, sacrificed).reshape((2,) * (2 * size))
    oracle._apply_ops(t, size, [("cnot", "a1", "c1"), ("cnot", "b1", "d1")], reg)
    t4 = t.reshape(dim, 4, dim, 4)
    kept = t4[:, 0, :, 0] + t4[:, 3, :, 3]
    p_total = float(np.trace(kept).real)
    kept /= p_total
    oracle._apply_ops(kept.reshape((2,) * (4 * n)), 2 * n, heads + fan_out, reg_ab)
    target = make_logic_bell(n, "phi+").amps
    return p_total, float(np.vdot(target, kept @ target).real), kept


@pytest.mark.parametrize("basis", ["bit", "phase"])
@pytest.mark.parametrize(
    "n", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
)
def test_oracle_agrees_with_kron_staging(n, basis):
    for f in (0.0, 0.3, 0.8, 1.0):
        p_ref, fid_ref, ref = _oracle_round_kron(n, basis, f)
        p, fid, dm = oracle_purify_round(n, basis, f)
        assert abs(p - p_ref) <= ORACLE_TOL
        assert abs(fid - fid_ref) <= ORACLE_TOL
        assert np.max(np.abs(dm.matrix - ref)) <= ORACLE_TOL


@pytest.mark.parametrize("basis", ["bit", "phase"])
def test_oracle_rejects_dirty_ancilla(monkeypatch, basis):
    # a physical bit flip on any ancilla leaves it in |1> after the reduction
    for flipped in ("a2", "a3", "b2", "b3"):
        def flipped_pair(n, f, error_kind):
            amps = apply_x(make_logic_bell(n, "phi+"), flipped).amps
            return np.outer(amps, amps.conj())

        monkeypatch.setattr(oracle, "_logic_pair_density", flipped_pair)
        with pytest.raises(UnsupportedInputError, match="ancillas"):
            oracle_purify_round(3, basis, 0.8)


@pytest.mark.parametrize("f", [1.5, -0.2, float("nan")])
def test_oracle_rejects_fidelity_outside_unit_interval(monkeypatch, f):
    def no_pair(*args):
        raise AssertionError("the pair was built before the fidelity check")

    monkeypatch.setattr(oracle, "_logic_pair_density", no_pair)
    with pytest.raises(ValueError, match=r"fidelity must lie in \[0, 1\], got"):
        oracle_purify_round(2, "bit", f)


@pytest.mark.slow
def test_oracle_n5_round_builds_no_2n_plus_2_matrix():
    # the 12-qubit kron alone would be 256 MiB
    tracemalloc.start()
    try:
        oracle_purify_round(5, "phase", 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_oracle_output_is_valid_state():
    _, _, dm = oracle_purify_round(2, "bit", 0.8)
    assert dm.register.labels == ("a1", "a2", "b1", "b2")
    m = dm.matrix
    assert np.max(np.abs(m - m.conj().T)) <= 1e-10
    assert abs(np.trace(m) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_oracle_handles_pure_limits():
    p, fid, _ = oracle_purify_round(2, "bit", 1.0)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert fid == pytest.approx(1.0, abs=1e-12)
    p, fid, _ = oracle_purify_round(2, "bit", 0.0)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert fid == pytest.approx(0.0, abs=1e-12)


def test_oracle_refuses_registers_past_the_density_cap(monkeypatch):
    # n = 6 needs a 12-qubit matrix for its 14-qubit circuit, and the cap
    # counts the circuit; it must be refused before any allocation
    def no_pair(*args):
        raise AssertionError("the pair was built before the cap check")

    monkeypatch.setattr(oracle, "_logic_pair_density", no_pair)
    with pytest.raises(RegisterError, match="capped at 12 qubits") as refused:
        oracle_purify_round(6, "bit", 0.8)
    assert "n=6" in str(refused.value)


def test_oracle_rejects_bad_basis():
    with pytest.raises(ValueError):
        oracle_purify_round(2, "diagonal", 0.8)
