"""Output checks behind the benchmark's fail counts.

Every checker returns a list of problems; an empty list means the output
passed. The closed forms are spelled out here rather than taken from
ghzpurify, so a wrong map in the program cannot also make the check pass.
Tolerances are the program's own.
"""

from __future__ import annotations

import math

from ghzpurify.states import EXACT_TOL, ORACLE_TOL

# Monte Carlo estimates may sit this many standard errors from the closed form.
MC_Z_MAX = 5.0


def fidelity_map(f: float) -> float:
    """F' = F^2 / (F^2 + (1-F)^2): kept-pair fidelity after one round."""
    return f * f / (f * f + (1.0 - f) ** 2)


def success_probability(f: float) -> float:
    """F^2 + (1-F)^2: probability that the sacrificed outcomes agree."""
    return f * f + (1.0 - f) ** 2


def _off(name: str, got: float, want: float, tol: float) -> list[str]:
    if not math.isfinite(got):
        return [f"{name} is {got}"]
    if abs(got - want) > tol:
        return [f"{name} {got!r} differs from {want!r} by {abs(got - want):.3g} > {tol:g}"]
    return []


def check_exact(f: float, fidelity: float, success: float) -> list[str]:
    """One exact purification round at input fidelity f."""
    return _off("fidelity", fidelity, fidelity_map(f), EXACT_TOL) + _off(
        "success probability", success, success_probability(f), EXACT_TOL
    )


def check_correction(fidelity: float, success: float) -> list[str]:
    """A physical bit-flip correction must restore the pair exactly."""
    return _off("fidelity", fidelity, 1.0, EXACT_TOL) + _off(
        "success probability", success, 1.0, EXACT_TOL
    )


def check_oracle(
    f: float,
    engine: tuple[float, float],
    oracle: tuple[float, float],
    deviation: float,
) -> list[str]:
    """Engine and oracle (fidelity, success) pairs plus their state deviation.

    The engine meets the closed forms to EXACT_TOL; the oracle meets both the
    closed forms and the engine to ORACLE_TOL, and the two output states agree
    entrywise to ORACLE_TOL.
    """
    problems = check_exact(f, *engine)
    problems += _off("oracle fidelity", oracle[0], fidelity_map(f), ORACLE_TOL)
    problems += _off("oracle success", oracle[1], success_probability(f), ORACLE_TOL)
    problems += _off("oracle - engine fidelity", oracle[0], engine[0], ORACLE_TOL)
    problems += _off("oracle - engine success", oracle[1], engine[1], ORACLE_TOL)
    problems += _off("state deviation", deviation, 0.0, ORACLE_TOL)
    return problems


def check_sampled(
    f: float, fidelity: float, success: float, shots: int
) -> list[str]:
    """One sampled round: estimates within MC_Z_MAX standard errors."""
    if not (math.isfinite(fidelity) and math.isfinite(success)):
        return [f"non-finite estimate: fidelity {fidelity}, success {success}"]
    p = success_probability(f)
    kept = round(success * shots)
    if kept < 1:
        return [f"no kept shots out of {shots}"]
    fid = fidelity_map(f)
    problems = []
    for name, got, want, se in (
        ("success probability", success, p, math.sqrt(p * (1.0 - p) / shots)),
        ("fidelity", fidelity, fid, math.sqrt(fid * (1.0 - fid) / kept)),
    ):
        if abs(got - want) > MC_Z_MAX * se:
            problems.append(
                f"sampled {name} {got!r} is {abs(got - want) / se:.1f} standard"
                f" errors from {want!r}"
            )
    return problems
