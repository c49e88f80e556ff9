"""Experiment harness: configs, parameter sweeps, sampling, CSV output.

Output rows are fully deterministic for a fixed config and seed. Monte Carlo
randomness is counter-based: shot i of stream s draws from a Philox4x64-10
generator keyed by the seed with counter (s << 128) + (i << 64), so every
shot's randomness is a pure function of (seed, stream, shot) regardless of
execution order. numpy's Philox bumps the counter before its first block, so
a shot's three uniforms come from the one block with counter words
(1, i, s mod 2**64, s >> 64) and key words (seed mod 2**64, seed >> 64); the
uniform from output word w is (w >> 11) * 2**-53. `sample_purify` evaluates
that block for a chunk of shots at once in numpy, reproducing `shot_rng`
bit for bit, so seed and stream must lie in [0, 2**128). Counter words 0, 2
and 3 are the same for every shot of a call, so the products of the lanes
they feed (both in round 1, M1's in round 2, M0's in round 3) are computed
once per call as Python ints. A branch draw compares the shot's uniform
with f: a uniform below f draws the clean state. Exact and sampled rows run
one loop, where every round starts from protocol's canonical pair at its
input fidelity: the exact engine runs that pair with purify_round, and each
shot looks its outcome up in tables that protocol's own prepare, compare and
lift stages build from it, so both run the same circuit. The tables depend
only on (n, basis) and are built once each. The wall_time_ms column reads 0
for byte-reproducible files; timing goes to stderr.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .noise import ERROR_ALIASES, ErrorKind, ErrorModel, apply_error_model
from .protocol import (
    PurifyConfig,
    canonical_pair,
    compare_copies,
    correct_physical_bitflip,
    lift_kept,
    prepare_copy,
    purify_round,
)
from .states import MAX_QUBITS, Ensemble, make_logic_bell, map_branches

# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: the seed
# fills the two key words and the stream two counter words, so both must be
# below _KEY_LIMIT. Shots are drawn in chunks of _SHOT_CHUNK so that the
# uint64 temporaries stay small.
_KEY_LIMIT = 1 << 128
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_LOW32, _SHIFT32, _SHIFT11 = np.uint64(_MASK32), np.uint64(32), np.uint64(11)
_PHILOX_ROUNDS = 10
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_SHOT_CHUNK = 4096

# Rows per run; each costs about 660 B as a ResultRow plus its CSV text.
MAX_ROWS = 10**6
_MODES = ("purify", "sweep", "correct")
_PURIFYING = ("purify", "sweep")


class ConfigKey(NamedTuple):
    """One config-file key, which is also the option --key of every mode that reads it."""

    type: type
    modes: tuple[str, ...]
    needed_by: tuple[str, ...]
    help: str


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class ResultRow:
    """One sweep point and round, as written to CSV."""

    n: int
    error_kind: str
    round: int
    input_fidelity: float
    output_fidelity: float
    success_probability: float
    shots: int
    seed: int

    def to_csv(self) -> str:
        """Each field by its declared type, then the wall_time_ms column's 0."""
        return ",".join([cell(getattr(self, name)) for name, cell in _CELLS] + ["0"])


# (name, formatter) per field; under PEP 563 a field's type is its annotation string
_CELLS = tuple((f.name, _fmt if f.type == "float" else str) for f in fields(ResultRow))
CSV_COLUMNS = (*(name for name, _ in _CELLS), "wall_time_ms")


def render_csv(rows: list[ResultRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(row.to_csv() for row in rows)
    return "\n".join(lines) + "\n"


def write_results(rows: list[ResultRow], out: str, config: dict) -> None:
    """Write the CSV plus a JSON sidecar holding the resolved config."""
    path = Path(out)
    path.write_text(render_csv(rows), encoding="utf-8", newline="")
    sidecar = path.with_suffix(".json")
    sidecar.write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _key(default, type: type, modes: tuple[str, ...], help: str, needed_by: tuple[str, ...] = ()):
    """A config field whose metadata holds its ConfigKey."""
    return field(default=default, metadata={"key": ConfigKey(type, modes, needed_by, help)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one harness invocation; each field but mode is a config key."""

    mode: str
    error: ErrorKind = _key(
        ErrorKind.LOGIC_BITFLIP, str, _PURIFYING,
        "Error kind mixed into the input pair (default logic-bit).",
    )
    fidelity: float | None = _key(
        None, float, ("purify", "correct"),
        "Input fidelity: the clean pair's weight (correct defaults to 0).", ("purify",),
    )
    f_min: float | None = _key(None, float, ("sweep",), "Grid start fidelity.", ("sweep",))
    f_max: float | None = _key(None, float, ("sweep",), "Grid end fidelity.", ("sweep",))
    steps: int | None = _key(None, int, ("sweep",), "Number of grid points.", ("sweep",))
    rounds: int = _key(1, int, _PURIFYING, "Purification rounds.")
    shots: int = _key(
        0, int, _PURIFYING, "Monte Carlo shots per round; 0 (default) runs exactly."
    )
    flip_position: int | None = _key(
        None, int, _MODES,
        "1-based mode of the physical error (on B; on A for correct).", ("correct",),
    )
    n: int = _key(2, int, _MODES, "Physical qubits per logic qubit (>= 2).")
    seed: int = _key(0, int, _MODES, "Sampling seed.")
    out: str | None = _key(
        None, str, _MODES, "Write CSV here (plus a .json config sidecar) instead of stdout."
    )

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n < 2:
            raise ConfigError(f"n must be at least 2, got {self.n}")
        qubits = 2 * self.n + (0 if self.mode == "correct" else 2)
        if qubits > MAX_QUBITS:
            raise ConfigError(
                f"{self.mode} at n={self.n} needs {qubits} qubits;"
                f" registers are capped at {MAX_QUBITS}"
            )
        if self.rounds < 1:
            raise ConfigError(f"rounds must be at least 1, got {self.rounds}")
        if self.shots < 0:
            raise ConfigError(f"shots must be non-negative, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.shots > 0 and self.seed >= _KEY_LIMIT:
            raise ConfigError(
                f"seed {self.seed} is too large: sampled runs need a seed below 2**128"
            )
        if self.fidelity is not None and not 0.0 <= self.fidelity <= 1.0:
            raise ConfigError(f"fidelity {self.fidelity} outside [0, 1]")
        needed = [key for key, spec in CONFIG_KEYS.items() if self.mode in spec.needed_by]
        if any(getattr(self, key.replace("-", "_")) is None for key in needed):
            *rest, last = [f"--{key}" for key in needed]
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise ConfigError(f"{self.mode} needs {listed}")
        if self.mode == "sweep":
            if not 0.0 <= self.f_min <= self.f_max <= 1.0:
                raise ConfigError(
                    f"need 0 <= f-min <= f-max <= 1, got [{self.f_min}, {self.f_max}]"
                )
            if self.steps < 1:
                raise ConfigError(f"steps must be at least 1, got {self.steps}")
        steps = self.steps or 1
        if steps * self.rounds > MAX_ROWS:
            raise ConfigError(
                f"steps x rounds = {steps} x {self.rounds} rows; at most {MAX_ROWS} are allowed"
            )
        if (self.mode == "correct") != (self.error.basis is None):
            raise ConfigError(
                "correct only handles phys-bit errors" if self.mode == "correct"
                else "phys-bit is handled by the correct command"
            )
        if self.flip_position is not None and not 1 <= self.flip_position <= self.n:
            raise ConfigError(
                f"flip-position must name a mode 1..{self.n}, got {self.flip_position}"
            )
        if self.out:
            out = Path(self.out)
            # Path drops a trailing separator or "/.", leaving the directory's name
            if not self.out.endswith(out.name):
                raise ConfigError(f"out {self.out} does not end in a file name")
            # write_results puts the sidecar at out with a .json suffix
            if out.suffix == ".json":
                raise ConfigError(f"out {out} would be overwritten by its .json sidecar")
            if not out.parent.is_dir():
                raise ConfigError(f"out {out}: directory {out.parent} does not exist")
            if out.is_dir():
                raise ConfigError(f"out {out} is a directory")
            sidecar = out.with_suffix(".json")
            if sidecar.is_dir():
                raise ConfigError(f"out {out}: its sidecar {sidecar} is a directory")


# The whole config surface, in ExperimentConfig's field order, which is CLI
# option order: parse_config_file, resolve_config, ExperimentConfig.validate
# and every CLI option read it.
CONFIG_KEYS = {
    f.name.replace("_", "-"): f.metadata["key"] for f in fields(ExperimentConfig) if f.metadata
}


def parse_config_file(path: str) -> dict:
    """Read flat `key = value` lines; '#' starts a comment, blanks skipped."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set")
        try:
            values[key] = CONFIG_KEYS[key].type(val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {val!r} for {key}") from None
    return values


def resolve_config(mode: str, flag_values: dict, config_path: str | None) -> ExperimentConfig:
    """Merge config-file values with flags; explicitly given flags win.

    A config-file key that the mode does not read is refused, not ignored.
    """
    merged: dict = {}
    if config_path is not None:
        merged.update(parse_config_file(config_path))
        foreign = [key for key in merged if mode not in CONFIG_KEYS[key].modes]
        if foreign:
            raise ConfigError(
                f"{config_path}: key {foreign[0]!r} is not used by {mode}"
            )
    for key, val in flag_values.items():
        if val is not None:
            merged[key] = val
    if "error" in merged:
        name = str(merged["error"])
        if name not in ERROR_ALIASES:
            raise ConfigError(f"unknown error kind {name!r}")
        merged["error"] = ERROR_ALIASES[name]
    kwargs = {k.replace("-", "_"): v for k, v in merged.items()}
    try:
        cfg = ExperimentConfig(mode=mode, **kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


def shot_rng(seed: int, stream: int, shot: int) -> np.random.Generator:
    """Counter-based per-shot generator; see the module docstring."""
    counter = (stream << 128) + (shot << 64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@dataclass(frozen=True)
class SampleEstimate:
    success_probability: float
    fidelity: float


@functools.cache
def _shot_tables(
    n: int, basis: str
) -> tuple[tuple[np.ndarray, tuple[bool, ...], tuple[float, ...]], ...]:
    """Per branch combination: outcome CDF, keep flags, kept-state fidelity.

    Branch combinations are indexed 2*s1 + s2 with s = 0 for the clean state
    and 1 for the errored one. Outcomes are indexed 2*o1 + o2. Each entry is
    one run of protocol's compare and lift stages on the two prepared copies.
    The tables are cached per (n, basis), so they are immutable: tuples and
    read-only CDF arrays.
    """
    prepared = [
        map_branches(canonical_pair(n, basis, f), lambda s: prepare_copy(s, basis))
        for f in (1.0, 0.0)
    ]
    tables = []
    for first in prepared:
        for second in prepared:
            outcomes = compare_copies(first, second)
            probs, keeps, fids = [], [], []
            for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
                prob, kept = outcomes.get(key, (0.0, None))
                keep = key[0] == key[1]
                probs.append(prob)
                keeps.append(keep)
                fids.append(lift_kept(kept)[1] if keep and prob else 0.0)
            cdf = np.cumsum(probs)
            cdf.flags.writeable = False
            tables.append((cdf, tuple(keeps), tuple(fids)))
    return tuple(tables)


def _mulhilo(a: int, b: int | np.ndarray):
    """High and low 64-bit words of the 128-bit product a * b.

    A Python-int b gives Python ints: that is a lane whose counter word is
    the same for every shot. An array b takes Knuth's carry form on 32-bit
    halves, where no partial sum wraps.
    """
    if isinstance(b, int):
        p = a * b
        return p >> 64, p & _MASK64
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo = b & _LOW32
    b_hi = b >> _SHIFT32
    u = a_hi * b_lo
    b_lo *= a_lo
    b_lo >>= _SHIFT32
    u += b_lo
    v = a_lo * b_hi
    np.bitwise_and(u, _LOW32, out=b_lo)
    v += b_lo
    hi = b_hi
    hi *= a_hi
    u >>= _SHIFT32
    hi += u
    v >>= _SHIFT32
    hi += v
    return hi, np.uint64(a) * b


def _shot_words(seed: int, stream: int, first: int, count: int) -> list[np.ndarray]:
    """The three output words of the Philox block of shots first .. first +
    count - 1 that shot_rng(seed, stream, shot).random(3) reads.

    A counter word that is the same for every shot stays a Python int, so
    its products are computed once: both in round 1, M1's in round 2 and
    M0's in round 3. The shot index enters round 1 only through an XOR.
    """
    ctr = [
        1,
        np.arange(count, dtype=np.uint64) + np.uint64(first),
        stream & _MASK64,
        stream >> 64,
    ]
    k0, k1 = seed & _MASK64, seed >> 64
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        hi1 ^= ctr[1] ^ k0
        hi0 ^= ctr[3] ^ k1
        ctr = [hi1, lo1, hi0, lo0]
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    return ctr[:3]


def _uniforms(w: np.ndarray) -> np.ndarray:
    """numpy's double from a raw output word: (w >> 11) * 2**-53."""
    return (w >> _SHIFT11) * 2.0**-53


def sample_purify(
    n: int, basis: str, f: float, shots: int, seed: int, stream: int = 0
) -> SampleEstimate:
    """Monte Carlo estimate of one round's success probability and fidelity.

    Each shot draws both copies' branches, then the sacrificed-pair outcome,
    and keeps the shot when the outcomes agree. A round that keeps no shot
    has no fidelity estimate and raises ConfigError.
    """
    if shots < 1:
        raise ValueError("sampling needs at least one shot")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < _KEY_LIMIT:
            raise ValueError(f"{name} must lie in [0, 2**128), got {value}")
    tables = _shot_tables(n, basis)
    # cdf_at[j][b] is branch b's CDF at outcome j; cell 4*b + o indexes the rest
    cdf_at = np.array([cdf for cdf, _, _ in tables]).T
    keeps = np.array([keep for _, keep, _ in tables]).ravel()
    fids = np.array([fid for _, _, fid in tables]).ravel()
    kept = 0
    fid_sum = 0.0
    for first in range(0, shots, _SHOT_CHUNK):
        w0, w1, w2 = _shot_words(seed, stream, first, min(_SHOT_CHUNK, shots - first))
        branch = 2 * (_uniforms(w0) >= f)
        branch += _uniforms(w1) >= f
        # per shot, min(searchsorted(cdf, u2 * cdf[3], side="right"), 3); the
        # CDF never decreases, so counting entries 0..2 alone gives the cap
        x = _uniforms(w2)
        x *= cdf_at[3].take(branch)
        cell = 4 * branch
        for column in cdf_at[:3]:
            cell += column.take(branch) <= x
        keep = keeps.take(cell)
        kept += int(np.count_nonzero(keep))
        # a left-to-right running sum in shot order; np.sum adds pairwise,
        # which can change the last bit and tie it to the chunk size
        fid_sum = float(
            np.add.accumulate(np.append(fid_sum, fids.take(cell[keep])))[-1]
        )
    if not kept:
        raise ConfigError(
            f"no shot of {shots} was kept at n={n}, f={f}; use more shots"
        )
    return SampleEstimate(kept / shots, fid_sum / kept)


def run_purify(cfg: ExperimentConfig) -> list[ResultRow]:
    return _sweep_rows(cfg, [cfg.fidelity])


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    grid = [float(x) for x in np.linspace(cfg.f_min, cfg.f_max, cfg.steps)]
    return _sweep_rows(cfg, grid)


def _row(
    cfg: ExperimentConfig, r: int, f_in: float, f_out: float, p: float, shots: int
) -> ResultRow:
    return ResultRow(cfg.n, cfg.error.value, r, f_in, f_out, p, shots, cfg.seed)


def _sweep_rows(cfg: ExperimentConfig, grid: list[float]) -> list[ResultRow]:
    """Rows of every round at every grid point; exact when shots is 0.

    Every round starts from the canonical pair at its input fidelity and
    purifies in the configured error's basis in round 1, in the bit basis
    after that. A physical phase flip on any mode of B is the logic bit flip
    of the canonical pair, so flip_position does not change a row. Grid point
    i samples round r on stream i*rounds + r.
    """
    rows: list[ResultRow] = []
    for i, f in enumerate(grid):
        for r in range(cfg.rounds):
            basis = cfg.error.basis if r == 0 else "bit"
            if cfg.shots == 0:
                out = purify_round(PurifyConfig(cfg.n, basis, f))
            else:
                out = sample_purify(cfg.n, basis, f, cfg.shots, cfg.seed, i * cfg.rounds + r)
            rows.append(_row(cfg, r + 1, f, out.fidelity, out.success_probability, cfg.shots))
            f = out.fidelity
    return rows


def run_correct(cfg: ExperimentConfig) -> list[ResultRow]:
    """Build the flipped pair and run the deterministic correction circuit.

    With --fidelity the input is the two-branch mixture at that fidelity;
    without it the definite single-flip state is used. Correction is exact
    and deterministic, so rows always carry shots = 0.
    """
    f = 0.0 if cfg.fidelity is None else cfg.fidelity
    position = cfg.flip_position - 1
    model = ErrorModel(kind=cfg.error, fidelity=f, target="A", position=position)
    pair = apply_error_model(Ensemble.pure(make_logic_bell(cfg.n, "phi+")), model, cfg.n)
    outcome = correct_physical_bitflip(
        pair, suspected_logic_qubit="A", path="qnd", flip_position=position
    )
    return [_row(cfg, 1, f, outcome.fidelity, outcome.success_probability, 0)]
