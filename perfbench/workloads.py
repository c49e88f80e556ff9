"""The benchmark's workloads: inputs drawn from the seed, one op, its check.

An op is the unit the timing metrics count. Each workload cycles through a
fixed list of op kinds, so a run that measures whole cycles does the same mix
of work for every seed; the seed picks where the cycle starts and every
fidelity, flip position and sampling seed. The program sees only the inputs
built here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

from ghzpurify import harness, noise, oracle, protocol, states

import checks

N_EXACT = 5
N_CORRECT = 8
N_ORACLE = 3
N_MC = 2
MC_SHOTS = 20_000
MC_ROUNDS = 2
AMP_BYTES = 16


@dataclass(frozen=True)
class Outcome:
    """What an op produced, reduced to a digest of its bytes and its problems."""

    digest: str
    problems: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]
    draw: Callable[[random.Random, str], dict]
    run: Callable[[dict], Any]
    inspect: Callable[[dict, Any], Outcome]
    # (largest array, whole working state) in bytes, from the register widths
    working_set: tuple[int, int]
    shots_per_op: int = 0
    # block size of the untimed warm-up op when the full size would only
    # repeat the timed work (see NOTES.md); None warms up at full size
    warm_n: int | None = None

    def op_input(self, seed: int, i: int) -> dict:
        offset = random.Random(f"{self.name}/{seed}").randrange(len(self.kinds))
        rng = random.Random(f"{self.name}/{seed}/{i}")
        return self.draw(rng, self.kinds[(offset + i) % len(self.kinds)])

    def warm_input(self, seed: int) -> dict:
        inp = self.op_input(seed, 0)
        return inp if self.warm_n is None else dict(inp, n=self.warm_n)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _config(inp: dict, mode: str, **extra) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig(
        mode=mode, n=inp["n"], error=harness.ERROR_ALIASES[inp["kind"]], **extra
    )
    cfg.validate()
    return cfg


# exact-sweep: one grid point of `harness.run_sweep` at n = 5, rendered as CSV.

def _exact_draw(rng: random.Random, kind: str) -> dict:
    inp = {"n": N_EXACT, "kind": kind, "f": rng.uniform(0.55, 0.95)}
    if kind == "phys-phase":
        inp["flip_position"] = rng.randint(1, N_EXACT)
    return inp


def _exact_run(inp: dict):
    f = inp["f"]
    cfg = _config(
        inp, "sweep", f_min=f, f_max=f, steps=1, rounds=1,
        flip_position=inp.get("flip_position"),
    )
    rows = harness.run_sweep(cfg)
    return rows, harness.render_csv(rows)


def _exact_inspect(inp: dict, out) -> Outcome:
    rows, csv = out
    if len(rows) != 1 or rows[0].input_fidelity != inp["f"]:
        return Outcome(_sha(csv.encode()), [f"unexpected rows {rows!r}"])
    row = rows[0]
    problems = checks.check_exact(inp["f"], row.output_fidelity, row.success_probability)
    return Outcome(_sha(csv.encode()), problems)


# correct-flip: one physical bit-flip correction at n = 8, alternating the qnd
# path through the harness with the destructive path through the protocol.

def _correct_draw(rng: random.Random, kind: str) -> dict:
    return {
        "n": N_CORRECT,
        "kind": "phys-bit",
        "path": kind,
        "f": rng.uniform(0.55, 0.95),
        "flip_position": rng.randint(2, N_CORRECT),
    }


def _correct_run(inp: dict):
    n, f, pos = inp["n"], inp["f"], inp["flip_position"]
    if inp["path"] == "qnd":
        cfg = _config(inp, "correct", fidelity=f, flip_position=pos)
        rows = harness.run_correct(cfg)
        row = rows[0]
        return row.output_fidelity, row.success_probability, harness.render_csv(rows).encode()
    model = noise.ErrorModel(
        kind=noise.ErrorKind.PHYS_BITFLIP, fidelity=f, target="A", position=pos - 1
    )
    pair = noise.apply_error_model(
        states.Ensemble.pure(states.make_logic_bell(n, "phi+")), model, n
    )
    out = protocol.correct_physical_bitflip(
        pair, suspected_logic_qubit="A", path="destructive", flip_position=pos - 1
    )
    state = b"".join(s.amps.tobytes() for _, s in out.output.branches)
    return out.fidelity, out.success_probability, state


def _correct_inspect(inp: dict, out) -> Outcome:
    fidelity, success, payload = out
    digest = _sha(repr((fidelity, success)).encode(), payload)
    return Outcome(digest, checks.check_correction(fidelity, success))


# oracle-xcheck: one n = 3 round on the engine, the same round on the dense
# oracle, and their entrywise comparison.

def _oracle_draw(rng: random.Random, kind: str) -> dict:
    return {"n": N_ORACLE, "basis": kind, "f": rng.uniform(0.55, 0.95)}


def _oracle_run(inp: dict):
    n, basis, f = inp["n"], inp["basis"], inp["f"]
    out = protocol.purify_round(
        protocol.PurifyConfig(n=n, error_basis=basis, input_fidelity=f)
    )
    p, fid, dm = oracle.oracle_purify_round(n, basis, f)
    deviation = oracle.compare(out.output, dm)
    return (out.fidelity, out.success_probability), (fid, p), deviation, dm.matrix.tobytes()


def _oracle_inspect(inp: dict, out) -> Outcome:
    engine, dense, deviation, matrix = out
    digest = _sha(repr((engine, dense, deviation)).encode(), matrix)
    return Outcome(digest, checks.check_oracle(inp["f"], engine, dense, deviation))


# monte-carlo: one two-round sampled config through `harness.run_purify`.

def _mc_draw(rng: random.Random, kind: str) -> dict:
    return {
        "n": N_MC,
        "kind": kind,
        "f": rng.uniform(0.6, 0.9),
        "seed": rng.randrange(2**32),
    }


def _mc_run(inp: dict):
    cfg = _config(
        inp, "purify", fidelity=inp["f"], shots=MC_SHOTS, rounds=MC_ROUNDS,
        seed=inp["seed"],
    )
    rows = harness.run_purify(cfg)
    return rows, harness.render_csv(rows)


def _mc_inspect(inp: dict, out) -> Outcome:
    rows, csv = out
    digest = _sha(csv.encode())
    if len(rows) != MC_ROUNDS or rows[0].input_fidelity != inp["f"]:
        return Outcome(digest, [f"unexpected rows {rows!r}"])
    problems = []
    for prev, row in zip([None] + rows, rows):
        if prev is not None and row.input_fidelity != prev.output_fidelity:
            problems.append(f"round {row.round} does not start from round {prev.round}")
        problems += checks.check_sampled(
            row.input_fidelity, row.output_fidelity, row.success_probability, row.shots
        )
    return Outcome(digest, problems)


def _bytes(qubits: int) -> int:
    return AMP_BYTES * 2**qubits


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-sweep", ("logic-bit", "logic-phase", "phys-phase"),
            _exact_draw, _exact_run, _exact_inspect,
            # 4n-qubit branches; two noisy copies tensor into four branches
            (_bytes(4 * N_EXACT), 4 * _bytes(4 * N_EXACT)),
        ),
        Workload(
            "correct-flip", ("qnd", "destructive"),
            _correct_draw, _correct_run, _correct_inspect,
            (_bytes(2 * N_CORRECT), 2 * _bytes(2 * N_CORRECT)),
        ),
        Workload(
            "oracle-xcheck", ("bit", "phase"),
            _oracle_draw, _oracle_run, _oracle_inspect,
            # one dense 4n-qubit matrix; a round holds several (see peak_rss_mb)
            (_bytes(8 * N_ORACLE), _bytes(8 * N_ORACLE)),
            warm_n=2,
        ),
        Workload(
            "monte-carlo", ("logic-bit", "logic-phase"),
            _mc_draw, _mc_run, _mc_inspect,
            (_bytes(4 * N_MC), 4 * _bytes(4 * N_MC)),
            shots_per_op=MC_SHOTS * MC_ROUNDS,
        ),
    )
}
