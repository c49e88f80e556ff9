"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every criterion is asserted at its stated tolerance; timing bounds are part
of the assertion where given.
"""

import math
import time
from dataclasses import asdict

import numpy as np

from ghzpurify.gates import apply_cnot, apply_x, measure_ensemble, outcome_probability
from ghzpurify.harness import ExperimentConfig, render_csv, run_purify, sample_purify, write_results
from ghzpurify.noise import ErrorKind
from ghzpurify.oracle import compare, oracle_purify_round
from ghzpurify.protocol import (
    PurifyConfig,
    correct_physical_bitflip,
    iterate_rounds,
    one_round_fidelity_map,
    one_round_success_probability,
    purify_round,
    reduce_copy,
)
from ghzpurify.states import (
    BELL_KINDS,
    Ensemble,
    Register,
    basis_state,
    make_bell,
    make_logic_bell,
    overlap,
    permute,
    tensor,
    to_density_matrix,
)

GRID = [float(f) for f in np.linspace(0.55, 0.95, 9)]
EXACT = 1e-12
ORACLE = 1e-10


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {title} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_fidelity_map():
    started = time.perf_counter()
    dev_engine = 0.0
    dev_oracle = 0.0
    for f in GRID:
        cfg = PurifyConfig(n=2, error_basis="bit", input_fidelity=f, rounds=1)
        out = purify_round(cfg)
        dev_engine = max(dev_engine, abs(out.fidelity - one_round_fidelity_map(f)))
        _, f_or, _ = oracle_purify_round(2, "bit", f)
        dev_oracle = max(dev_oracle, abs(out.fidelity - f_or))
    elapsed = time.perf_counter() - started
    ok = dev_engine <= EXACT and dev_oracle <= ORACLE and elapsed < 1.0
    _report(
        1,
        "one-round fidelity map F'=F^2/(F^2+(1-F)^2), n=2 bit grid",
        ok,
        f"engine dev {dev_engine:.2e} <= 1e-12, oracle dev {dev_oracle:.2e}"
        f" <= 1e-10, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_success_probability():
    dev_engine = 0.0
    dev_oracle = 0.0
    for f in GRID:
        cfg = PurifyConfig(n=2, error_basis="bit", input_fidelity=f, rounds=1)
        out = purify_round(cfg)
        dev_engine = max(
            dev_engine,
            abs(out.success_probability - one_round_success_probability(f)),
        )
        p_or, _, _ = oracle_purify_round(2, "bit", f)
        dev_oracle = max(dev_oracle, abs(out.success_probability - p_or))
    ok = dev_engine <= EXACT and dev_oracle <= ORACLE
    _report(
        2,
        "post-selection success probability F^2+(1-F)^2 on the same grid",
        ok,
        f"engine dev {dev_engine:.2e} <= 1e-12, oracle dev {dev_oracle:.2e} <= 1e-10",
    )


def test_criterion_3_phase_basis_equivalence():
    dev = 0.0
    for n in (2, 3):
        for f in GRID:
            bit = purify_round(
                PurifyConfig(n=n, error_basis="bit", input_fidelity=f, rounds=1)
            )
            phase = purify_round(
                PurifyConfig(n=n, error_basis="phase", input_fidelity=f, rounds=1)
            )
            dev = max(dev, abs(bit.fidelity - phase.fidelity))
            dev = max(dev, abs(bit.success_probability - phase.success_probability))
    _report(
        3,
        "phase-flip purification matches bit-flip (F', success), n in {2,3}",
        dev <= EXACT,
        f"max |bit - phase| dev {dev:.2e} <= 1e-12",
    )


def test_criterion_4_arbitrary_block_size():
    started = time.perf_counter()
    dev_anc = 0.0
    dev_map = 0.0
    for n in (3, 4, 5):
        ancillas = tuple(f"{p}{i}" for p in "ab" for i in range(2, n + 1))
        assert len(ancillas) == 2 * (n - 1)
        for kind in BELL_KINDS:
            reduced = reduce_copy(make_logic_bell(n, kind))
            for anc in ancillas:
                dev_anc = max(dev_anc, outcome_probability(reduced, anc, 1))
        for f in GRID:
            out = purify_round(
                PurifyConfig(n=n, error_basis="bit", input_fidelity=f, rounds=1)
            )
            dev_map = max(dev_map, abs(out.fidelity - one_round_fidelity_map(f)))
            dev_map = max(
                dev_map,
                abs(out.success_probability - one_round_success_probability(f)),
            )
    # dense cross-check; n = 5 reaches the 12-qubit cap
    dev_oracle = 0.0
    for n in (3, 4, 5):
        out = purify_round(
            PurifyConfig(n=n, error_basis="bit", input_fidelity=0.8, rounds=1)
        )
        p_or, f_or, dm = oracle_purify_round(n, "bit", 0.8)
        dev_oracle = max(
            dev_oracle,
            abs(out.fidelity - f_or),
            abs(out.success_probability - p_or),
            compare(out.output, dm),
        )
    elapsed = time.perf_counter() - started
    ok = (
        dev_anc <= EXACT
        and dev_map <= EXACT
        and dev_oracle <= ORACLE
        and elapsed < 30.0
    )
    _report(
        4,
        "n in {3,4,5}: ancillas disentangle, the map holds and the oracle agrees",
        ok,
        f"ancilla dev {dev_anc:.2e}, map dev {dev_map:.2e} <= 1e-12,"
        f" oracle dev {dev_oracle:.2e} <= 1e-10, {elapsed:.1f}s < 30s",
    )


def test_criterion_5_bitflip_correction():
    dev_fid = 0.0
    dev_paths = 0.0
    deterministic = True
    for n in (2, 3, 4, 5):
        clean = make_logic_bell(n, "phi+")
        modes = clean.register.labels[:n]
        control, ancillas = modes[0], modes[1:]
        for position in range(1, n):
            flipped = apply_x(clean, modes[position])
            detect = flipped
            for anc in ancillas:
                detect = apply_cnot(detect, control, anc)
            outcomes = measure_ensemble(Ensemble.pure(detect), list(ancillas))
            expected_flags = tuple(
                1 if k == position else 0 for k in range(1, n)
            )
            deterministic = (
                deterministic
                and set(outcomes) == {expected_flags}
                and abs(outcomes[expected_flags][0] - 1.0) <= EXACT
            )
            outs = {}
            for path in ("qnd", "destructive"):
                out = correct_physical_bitflip(
                    Ensemble.pure(flipped),
                    suspected_logic_qubit="A",
                    path=path,
                    flip_position=position,
                )
                dev_fid = max(dev_fid, abs(out.fidelity - 1.0))
                outs[path] = to_density_matrix(out.output)
            dev_paths = max(
                dev_paths,
                float(np.max(np.abs(outs["qnd"].matrix - outs["destructive"].matrix))),
            )
    ok = deterministic and dev_fid <= EXACT and dev_paths <= EXACT
    _report(
        5,
        "physical bit flips at every non-control position corrected to fidelity 1",
        ok,
        f"deterministic flags {deterministic}, fidelity dev {dev_fid:.2e},"
        f" qnd-vs-destructive dev {dev_paths:.2e} <= 1e-12",
    )


def test_criterion_6_physical_phaseflip_purifies_as_bitflip():
    def purified(n, f, position):
        cfg = ExperimentConfig(
            mode="purify", n=n, error=ErrorKind.PHYS_PHASEFLIP, fidelity=f,
            flip_position=position,
        )
        return run_purify(cfg)[0].output_fidelity

    dev = 0.0
    for n in (2, 3):
        for f in GRID:
            dev = max(dev, abs(purified(n, f, 1) - one_round_fidelity_map(f)))
        for position in range(1, n + 1):
            dev = max(dev, abs(purified(n, 0.8, position) - one_round_fidelity_map(0.8)))
    _report(
        6,
        "phys phase-flip routes to bit-basis purification with the same map",
        dev <= EXACT,
        f"map dev {dev:.2e} <= 1e-12 over n in {{2,3}}, all positions",
    )


def test_criterion_7_two_round_composition():
    outs = iterate_rounds(
        PurifyConfig(n=2, error_basis="bit", input_fidelity=0.8, rounds=2)
    )
    _, f_or, _ = oracle_purify_round(2, "bit", 0.8)
    anchor_dev = abs(outs[0].fidelity - f_or)
    dev = abs(outs[1].fidelity - 256 / 257)
    ok = anchor_dev <= ORACLE and dev <= EXACT
    _report(
        7,
        "two rounds at F=0.8 give 256/257, round 1 oracle-anchored",
        ok,
        f"round-2 dev {dev:.2e} <= 1e-12, round-1 oracle dev {anchor_dev:.2e} <= 1e-10",
    )


def test_criterion_8_monte_carlo_consistency(tmp_path):
    shots = 100_000
    seed = 2026
    est = sample_purify(2, "bit", 0.8, shots=shots, seed=seed)
    p = one_round_success_probability(0.8)
    fid = one_round_fidelity_map(0.8)
    se_p = math.sqrt(p * (1 - p) / shots)
    se_f = math.sqrt(fid * (1 - fid) / round(est.success_probability * shots))
    z_p = abs(est.success_probability - p) / se_p
    z_f = abs(est.fidelity - fid) / se_f
    cfg = ExperimentConfig(
        mode="purify", n=2, fidelity=0.8, shots=shots, seed=seed,
        out=str(tmp_path / "mc.csv"),
    )
    rows_a = run_purify(cfg)
    write_results(rows_a, cfg.out, asdict(cfg))
    first = (tmp_path / "mc.csv").read_bytes()
    rows_b = run_purify(cfg)
    write_results(rows_b, cfg.out, asdict(cfg))
    identical = (tmp_path / "mc.csv").read_bytes() == first
    identical = identical and render_csv(rows_a) == render_csv(rows_b)
    ok = z_p <= 3.0 and z_f <= 3.0 and identical
    _report(
        8,
        "100k-shot sampling within 3 standard errors, identical CSV bytes",
        ok,
        f"z(success) {z_p:.2f} <= 3, z(fidelity) {z_f:.2f} <= 3,"
        f" bytes identical {identical}",
    )


def test_criterion_9_circuit_algebra_golden():
    dev = 0.0
    bennett = {
        ("phi+", "phi+"): ("phi+", "phi+"),
        ("phi+", "psi+"): ("phi+", "psi+"),
        ("psi+", "phi+"): ("psi+", "psi+"),
        ("psi+", "psi+"): ("psi+", "phi+"),
    }
    for (k1, k2), (w1, w2) in bennett.items():
        s = tensor(make_bell(k1, ("a1", "b1")), make_bell(k2, ("c1", "d1")))
        s = apply_cnot(apply_cnot(s, "a1", "c1"), "b1", "d1")
        want = tensor(make_bell(w1, ("a1", "b1")), make_bell(w2, ("c1", "d1")))
        dev = max(dev, abs(abs(overlap(want, s)) - 1.0))
    for n in (2, 3):
        rest = tuple(f"{p}{i}" for p in "ab" for i in range(2, n + 1))
        for kind in BELL_KINDS:
            reduced = reduce_copy(make_logic_bell(n, kind))
            bell = make_bell(kind, ("a1", "b1"))
            zeros = basis_state(Register(rest), [0] * len(rest))
            want = permute(tensor(bell, zeros), reduced.register.labels)
            dev = max(dev, abs(abs(overlap(want, reduced)) - 1.0))
    _report(
        9,
        "four Bennett maps and all reductions as |overlap|=1 golden assertions",
        dev <= EXACT,
        f"max |overlap|-1 dev {dev:.2e} <= 1e-12",
    )
