"""The benchmark's output checks must pass real outputs and flag perturbed ones.

Each test runs one workload op at a small block size, hands the result to the
workload's checker, then hands it a perturbed copy. Only the checker's input
is perturbed, never the program.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from ghzpurify.states import EXACT_TOL, ORACLE_TOL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _flagged(name, inp, out):
    return WORKLOADS[name].inspect(inp, out).problems


def test_exact_row_checked_against_closed_forms():
    inp = {"n": 2, "kind": "logic-phase", "f": 0.8}
    rows, csv = WORKLOADS["exact-sweep"].run(inp)
    assert _flagged("exact-sweep", inp, (rows, csv)) == []
    for field, value in (
        ("output_fidelity", rows[0].output_fidelity + 10 * EXACT_TOL),
        ("success_probability", rows[0].success_probability - 10 * EXACT_TOL),
        ("output_fidelity", math.nan),
        ("input_fidelity", 0.81),
    ):
        bad = [dataclasses.replace(rows[0], **{field: value})]
        assert _flagged("exact-sweep", inp, (bad, csv)), field


@pytest.mark.parametrize("path", ["qnd", "destructive"])
def test_correction_must_restore_fidelity_one(path):
    inp = {"n": 3, "kind": "phys-bit", "path": path, "f": 0.7, "flip_position": 2}
    fidelity, success, payload = WORKLOADS["correct-flip"].run(inp)
    assert _flagged("correct-flip", inp, (fidelity, success, payload)) == []
    assert _flagged("correct-flip", inp, (fidelity - 10 * EXACT_TOL, success, payload))
    assert _flagged("correct-flip", inp, (fidelity, 0.5, payload))
    assert _flagged("correct-flip", inp, (math.inf, success, payload))


def test_oracle_checked_against_engine_and_closed_forms():
    inp = {"n": 2, "basis": "phase", "f": 0.7}
    engine, dense, deviation, matrix = WORKLOADS["oracle-xcheck"].run(inp)
    assert _flagged("oracle-xcheck", inp, (engine, dense, deviation, matrix)) == []
    off = 10 * ORACLE_TOL
    for bad in (
        (engine, dense, deviation + off, matrix),
        (engine, (dense[0] + off, dense[1]), deviation, matrix),
        (engine, (dense[0], dense[1] - off), deviation, matrix),
        ((engine[0] + 10 * EXACT_TOL, engine[1]), dense, deviation, matrix),
        (engine, dense, math.nan, matrix),
    ):
        assert _flagged("oracle-xcheck", inp, bad)


def test_sampled_rounds_checked_in_standard_errors():
    inp = {"n": 2, "kind": "logic-bit", "f": 0.8, "seed": 11}
    rows, csv = WORKLOADS["monte-carlo"].run(inp)
    assert _flagged("monte-carlo", inp, (rows, csv)) == []
    first = rows[0]
    p = first.success_probability
    se = math.sqrt(p * (1 - p) / first.shots)
    for bad in (
        [dataclasses.replace(first, success_probability=p + 6 * se), rows[1]],
        [dataclasses.replace(first, output_fidelity=math.nan), rows[1]],
        [first, dataclasses.replace(rows[1], input_fidelity=0.5)],
        rows[:1],
    ):
        assert _flagged("monte-carlo", inp, (bad, csv))
