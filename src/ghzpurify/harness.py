"""Experiment harness: configs, parameter sweeps, sampling, CSV output.

Output rows are fully deterministic for a fixed config and seed. Monte Carlo
randomness is counter-based: shot i of stream s draws the first three doubles
of shot_rng(seed, s, i), so every shot's randomness is a pure function of
(seed, stream, shot) regardless of execution order, and sample_purify reads
them, four per shot, from shot_rng(seed, s, 0). A branch draw compares the
shot's uniform with f: a uniform below f draws the clean state. Exact and
sampled rows run one loop, where every round starts from protocol's
canonical pair at its input fidelity. protocol.canonical_round runs that
pair exactly, and each shot looks its outcome up in protocol.round_table;
both read the copies that protocol stages once per (n, basis). The
wall_time_ms column reads 0 for byte-reproducible files; timing goes to
stderr.
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
    KEEP_MASK,
    canonical_round,
    check_block_size,
    correct_physical_bitflip,
    round_bases,
    round_table,
)
from .states import Ensemble, make_logic_bell

# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it: the seed
# fills the two key words and the stream the top two counter words, so both
# must be below _KEY_LIMIT. Shots are drawn in chunks of _SHOT_CHUNK so that
# the float64 temporaries stay small.
_KEY_LIMIT = 1 << 128
_SHOT_CHUNK = 4096
# whether cell 4*b + o of the shot tables keeps its shot, whatever branch pair b
_KEEP = np.tile(KEEP_MASK, 4)
_KEEP.flags.writeable = False

# Rows per run. Under tracemalloc, an exact 10^4-row n = 2 sweep holds about
# 210 B per ResultRow, and render_csv's peak adds about 260 B per row.
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


@dataclass(frozen=True, slots=True)
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
        None, int, ("correct",), "1-based mode of the flipped qubit on A.", ("correct",)
    )
    n: int = _key(2, int, _MODES, "Physical qubits per logic qubit (>= 2).")
    seed: int = _key(0, int, _PURIFYING, "Sampling seed.")
    out: str | None = _key(
        None, str, _MODES, "Write CSV here (plus a .json config sidecar) instead of stdout."
    )

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        check_block_size(self.mode, self.n)
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
    unknown = [key for key in merged if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    if "error" in merged:
        name = str(merged["error"])
        if name not in ERROR_ALIASES:
            raise ConfigError(f"unknown error kind {name!r}")
        merged["error"] = ERROR_ALIASES[name]
    cfg = ExperimentConfig(mode=mode, **{k.replace("-", "_"): v for k, v in merged.items()})
    cfg.validate()
    return cfg


def shot_rng(seed: int, stream: int, shot: int) -> np.random.Generator:
    """The generator of shot `shot` of stream `stream`.

    Its counter starts at (stream << 128) + shot, and numpy bumps it before
    each four-double block, so the shot's three uniforms are the first three
    doubles; the fourth goes unused, and draws past it run into the next
    shot's block. sample_purify reads a whole stream from shot 0's generator.
    """
    counter = (stream << 128) + shot
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@dataclass(frozen=True)
class SampleEstimate:
    success_probability: float
    fidelity: float


@functools.cache
def _shot_tables(n: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """protocol.round_table with each row of probabilities as a CDF; read-only, cached."""
    probs, fid = round_table(n, basis)
    cdf = np.cumsum(probs, axis=1)
    cdf.flags.writeable = False
    return cdf, fid


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
    cdf, fid = _shot_tables(n, basis)
    # cdf_at[j][b] is branch b's CDF at outcome j; cell 4*b + o indexes the rest
    cdf_at, fids = cdf.T, fid.ravel()
    # shot i reads row i: the first three doubles of shot_rng(seed, stream, i)
    rng = shot_rng(seed, stream, 0)
    kept = 0
    fid_sum = 0.0
    for first in range(0, shots, _SHOT_CHUNK):
        count = min(_SHOT_CHUNK, shots - first)
        u0, u1, x, _ = rng.random((count, 4)).T
        branch = 2 * (u0 >= f)
        branch += u1 >= f
        # per shot, min(searchsorted(cdf, u2 * cdf[3], side="right"), 3); the
        # CDF never decreases, so counting entries 0..2 alone gives the cap
        x *= cdf_at[3].take(branch)
        cell = 4 * branch
        for column in cdf_at[:3]:
            cell += column.take(branch) <= x
        keep = _KEEP.take(cell)
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
    purifies in the basis round_bases gives it. A physical phase flip on any
    mode of B is the logic bit flip of the canonical pair, so no row depends
    on the flipped mode. Grid point i samples round r on stream i*rounds + r.
    """
    rows: list[ResultRow] = []
    for i, f in enumerate(grid):
        for r, basis in enumerate(round_bases(cfg.error.basis, cfg.rounds)):
            if cfg.shots == 0:
                out = canonical_round(cfg.n, basis, f)
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
