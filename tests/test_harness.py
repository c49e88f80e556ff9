import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from ghzpurify.errors import ConfigError
from ghzpurify.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    _SHOT_CHUNK,
    _shot_tables,
    _shot_words,
    _uniforms,
    parse_config_file,
    render_csv,
    resolve_config,
    run_correct,
    run_purify,
    run_sweep,
    sample_purify,
    shot_rng,
    write_results,
)
import ghzpurify
from ghzpurify.noise import ErrorKind, ErrorModel, apply_error_model
from ghzpurify.protocol import (
    PurifyConfig,
    iterate_rounds,
    one_round_fidelity_map,
    one_round_success_probability,
)
from ghzpurify.states import EXACT_TOL, Ensemble, make_logic_bell


def _purify_cfg(**overrides):
    base = dict(mode="purify", n=2, fidelity=0.8)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_render_csv_layout():
    row = ResultRow(2, "logic-bitflip", 1, 0.8, 16 / 17, 0.68, 0, 0)
    text = render_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("2,logic-bitflip,1,0.8,")
    assert text.endswith("\n")


def test_float_formatting_is_stable():
    row = ResultRow(2, "logic-bitflip", 1, 1 / 3, 16 / 17, 0.68, 0, 0)
    assert "0.333333333333" in row.to_csv()
    assert "0.941176470588" in row.to_csv()


def test_csv_line_formats_floats_and_nothing_else():
    row = ResultRow(3, "phys-phaseflip", 2, 1, 1 / 3, 16 / 17, 4096, 2**128 - 1)
    assert row.to_csv() == (
        "3,phys-phaseflip,2,1,0.333333333333,0.941176470588,4096,"
        "340282366920938463463374607431768211455,0"
    )


def test_exactly_max_rows_passes_validation():
    # validated only: running either config would write a million rows
    _purify_cfg(rounds=10**6).validate()
    ExperimentConfig(
        mode="sweep", n=2, f_min=0.0, f_max=1.0, steps=1000, rounds=1000
    ).validate()
    with pytest.raises(ConfigError, match="steps x rounds = 1001 x 1000 rows"):
        ExperimentConfig(
            mode="sweep", n=2, f_min=0.0, f_max=1.0, steps=1001, rounds=1000
        ).validate()


def test_config_validation_messages():
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="purify", n=2).validate()
    with pytest.raises(ConfigError):
        _purify_cfg(n=1).validate()
    with pytest.raises(ConfigError):
        _purify_cfg(fidelity=1.4).validate()
    with pytest.raises(ConfigError):
        _purify_cfg(rounds=0).validate()
    with pytest.raises(ConfigError):
        _purify_cfg(shots=-1).validate()
    with pytest.raises(ConfigError):
        _purify_cfg(error=ErrorKind.PHYS_BITFLIP).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="warp", n=2).validate()
    with pytest.raises(ConfigError, match=f"seed {2**128} is too large"):
        _purify_cfg(shots=10, seed=2**128).validate()
    _purify_cfg().validate()
    _purify_cfg(shots=10, seed=2**128 - 1).validate()
    _purify_cfg(shots=0, seed=2**128).validate()


def test_sweep_config_validation():
    good = ExperimentConfig(mode="sweep", n=2, f_min=0.5, f_max=0.9, steps=5)
    good.validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="sweep", n=2, f_min=0.5, f_max=0.9).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="sweep", n=2, f_min=0.9, f_max=0.5, steps=5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="sweep", n=2, f_min=0.5, f_max=1.2, steps=5).validate()


def test_correct_config_validation():
    good = ExperimentConfig(
        mode="correct", n=3, error=ErrorKind.PHYS_BITFLIP, flip_position=2
    )
    good.validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="correct", n=3, error=ErrorKind.PHYS_BITFLIP).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(
            mode="correct", n=3, error=ErrorKind.PHYS_BITFLIP, flip_position=4
        ).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="correct", n=3, flip_position=2).validate()


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sweep setup\n"
        "n = 2\n"
        "error = logic-bit  # short alias\n"
        "f-min = 0.6\n"
        "f-max= 0.8\n"
        "steps =3\n"
        "\n"
    )
    values = parse_config_file(str(path))
    assert values == {
        "n": 2,
        "error": "logic-bit",
        "f-min": 0.6,
        "f-max": 0.8,
        "steps": 3,
    }


def test_parse_config_file_rejects_bad_lines(tmp_path):
    for text in ("volume = 11\n", "oracle = true\n"):
        bad_key = tmp_path / "a.cfg"
        bad_key.write_text(text)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(bad_key))
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("steps = many\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad_value))
    no_eq = tmp_path / "c.cfg"
    no_eq.write_text("steps\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(no_eq))
    repeated = tmp_path / "d.cfg"
    repeated.write_text("n = 2\n# again\nn = 3\n")
    with pytest.raises(ConfigError, match=re.escape(f"{repeated}:3: key 'n' is already set")):
        parse_config_file(str(repeated))


def test_resolve_config_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 2\nfidelity = 0.7\nerror = logic-phase\n")
    cfg = resolve_config("purify", {"fidelity": 0.9, "n": None}, str(path))
    assert cfg.fidelity == 0.9
    assert cfg.n == 2
    assert cfg.error is ErrorKind.LOGIC_PHASEFLIP


def test_resolve_config_error_aliases():
    cfg = resolve_config("purify", {"error": "logic-bitflip", "fidelity": 0.8}, None)
    assert cfg.error is ErrorKind.LOGIC_BITFLIP
    with pytest.raises(ConfigError):
        resolve_config("purify", {"error": "gremlins", "fidelity": 0.8}, None)


def test_run_purify_exact_row():
    cfg = _purify_cfg()
    rows = run_purify(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.round == 1
    assert row.input_fidelity == 0.8
    assert row.output_fidelity == pytest.approx(16 / 17, abs=1e-12)
    assert row.success_probability == pytest.approx(0.68, abs=1e-12)
    assert row.shots == 0


def test_run_purify_multi_round_chains_fidelity():
    cfg = _purify_cfg(rounds=2)
    rows = run_purify(cfg)
    assert len(rows) == 2
    assert rows[1].input_fidelity == pytest.approx(rows[0].output_fidelity)
    assert rows[1].output_fidelity == pytest.approx(256 / 257, abs=1e-12)


def test_run_purify_phys_phaseflip_matches_map():
    cfg = _purify_cfg(error=ErrorKind.PHYS_PHASEFLIP, flip_position=2)
    rows = run_purify(cfg)
    assert rows[0].output_fidelity == pytest.approx(16 / 17, abs=1e-12)
    assert rows[0].success_probability == pytest.approx(0.68, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rows_do_not_depend_on_flip_position(n):
    # every round starts from the canonical pair; the engine on the pair with
    # Z on b_k must give the same floats at every k
    for rounds, f in itertools.product((1, 2), (0.0, 0.3, 0.5, 0.8, 1.0)):
        sampled = set()
        for k in range(1, n + 1):
            cfg = _purify_cfg(
                n=n, error=ErrorKind.PHYS_PHASEFLIP, fidelity=f, rounds=rounds,
                flip_position=k,
            )
            model = ErrorModel(ErrorKind.PHYS_PHASEFLIP, f, "B", k - 1)
            pair = apply_error_model(Ensemble.pure(make_logic_bell(n, "phi+")), model, n)
            engine = iterate_rounds(PurifyConfig(n, "bit", f, rounds), input_pair=pair)
            rows = run_purify(cfg)
            assert [(row.output_fidelity, row.success_probability) for row in rows] == [
                (out.fidelity, out.success_probability) for out in engine
            ]
            sampled.add(render_csv(run_purify(replace(cfg, shots=500, seed=11))))
        assert len(sampled) == 1


def test_run_sweep_grid_order_and_values():
    cfg = ExperimentConfig(
        mode="sweep", n=2, f_min=0.6, f_max=0.9, steps=4, rounds=2
    )
    rows = run_sweep(cfg)
    assert len(rows) == 8
    grid = [0.6, 0.7, 0.8, 0.9]
    for i, f in enumerate(grid):
        first, second = rows[2 * i], rows[2 * i + 1]
        assert first.round == 1 and second.round == 2
        assert first.input_fidelity == pytest.approx(f)
        assert first.output_fidelity == pytest.approx(
            one_round_fidelity_map(f), abs=1e-12
        )
        assert second.input_fidelity == pytest.approx(first.output_fidelity)


def test_run_correct_row():
    cfg = ExperimentConfig(
        mode="correct", n=3, error=ErrorKind.PHYS_BITFLIP, flip_position=2
    )
    rows = run_correct(cfg)
    assert len(rows) == 1
    assert rows[0].output_fidelity == pytest.approx(1.0, abs=1e-12)
    assert rows[0].success_probability == 1.0
    assert rows[0].input_fidelity == 0.0
    assert rows[0].shots == 0


def test_write_results_sidecar(tmp_path):
    cfg = _purify_cfg(out=str(tmp_path / "rows.csv"))
    rows = run_purify(cfg)
    write_results(rows, cfg.out, asdict(cfg))
    text = (tmp_path / "rows.csv").read_text()
    assert text == render_csv(rows)
    sidecar = json.loads((tmp_path / "rows.json").read_text())
    assert sidecar["mode"] == "purify"
    assert sidecar["fidelity"] == 0.8
    assert sidecar["error"] == "logic-bitflip"
    assert "oracle" not in sidecar


def test_shot_rng_is_order_independent():
    a = [shot_rng(9, 0, i).random() for i in range(5)]
    b = [shot_rng(9, 0, i).random() for i in reversed(range(5))]
    assert a == list(reversed(b))
    assert shot_rng(9, 1, 0).random() != shot_rng(9, 0, 0).random()
    assert shot_rng(8, 0, 0).random() != shot_rng(9, 0, 0).random()


def test_sample_purify_is_deterministic():
    e1 = sample_purify(2, "bit", 0.8, shots=2000, seed=5)
    e2 = sample_purify(2, "bit", 0.8, shots=2000, seed=5)
    assert e1 == e2
    e3 = sample_purify(2, "bit", 0.8, shots=2000, seed=6)
    assert e1 != e3


def test_sample_purify_needs_shots():
    with pytest.raises(ValueError):
        sample_purify(2, "bit", 0.8, shots=0, seed=1)


@pytest.mark.parametrize(
    "seed, stream",
    [(-1, 0), (2**128, 0), (0, -1), (0, 2**128)],
)
def test_sample_purify_refuses_keys_outside_128_bits(seed, stream):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
        sample_purify(2, "bit", 0.8, shots=10, seed=seed, stream=stream)


def _shot_uniforms(seed, stream, first, count):
    """Uniforms of shots first .. first + count - 1, shape (3, count)."""
    return np.stack([_uniforms(w) for w in _shot_words(seed, stream, first, count)])


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**64 + 5, 2**128 - 1])
@pytest.mark.parametrize("stream", [0, 1, 2**70 + 3])
def test_shot_uniforms_match_shot_rng_bit_for_bit(seed, stream):
    want = np.array(
        [shot_rng(seed, stream, i).random(3) for i in range(_SHOT_CHUNK + 1)]
    ).T
    for count in (_SHOT_CHUNK - 1, _SHOT_CHUNK, _SHOT_CHUNK + 1):
        assert np.array_equal(_shot_uniforms(seed, stream, 0, count), want[:, :count])
    assert np.array_equal(_shot_uniforms(seed, stream, _SHOT_CHUNK, 1), want[:, -1:])
    # shot indices past 32 bits and up to the last 64-bit counter word
    for first in (2**32 - 3, 2**63 + 11, 2**64 - 6):
        far = [shot_rng(seed, stream, first + k).random(3) for k in range(6)]
        assert np.array_equal(_shot_uniforms(seed, stream, first, 6), np.array(far).T)


@pytest.mark.parametrize("f", [0.0, 0.5, 1.0, 2**-60, 0.3, 0.8, 1.0 - 2**-53])
def test_integer_branch_threshold_agrees_with_the_uniform_on_ties(f):
    # uniforms on the 2**-53 grid at f, one step below it and one above it,
    # each with the 11 discarded low bits all clear and all set
    k = math.floor(f * 2**53)
    grid = {g for g in (k - 1, k, k + 1) if 0 <= g < 2**53}
    words = np.array(
        [(g << 11) | low for g in sorted(grid) for low in (0, 2**11 - 1)], np.uint64
    )
    uniforms = [int(w >> 11) * 2**-53 for w in words]
    assert any(u < f for u in uniforms) or f == 0.0
    assert any(u >= f for u in uniforms) or f == 1.0
    want = np.array([u >= f for u in uniforms])
    assert np.array_equal(_uniforms(words) >= f, want)


def test_shot_tables_are_cached_and_read_only():
    tables = _shot_tables(2, "bit")
    assert _shot_tables(2, "bit") is tables
    cdf, keeps, fids = tables[0]
    assert isinstance(tables, tuple)
    assert isinstance(keeps, tuple) and isinstance(fids, tuple)
    with pytest.raises(ValueError, match="read-only"):
        cdf[0] = 0.5


def _reference_sample(n, basis, f, shots, seed, stream):
    """The per-shot loop the vectorized sampler must reproduce exactly."""
    tables = _shot_tables(n, basis)
    kept, fid_sum = 0, 0.0
    for i in range(shots):
        u = shot_rng(seed, stream, i).random(3)
        s1 = 0 if u[0] < f else 1
        s2 = 0 if u[1] < f else 1
        cdf, keeps, fids = tables[2 * s1 + s2]
        outcome = min(int(np.searchsorted(cdf, u[2] * cdf[-1], side="right")), 3)
        if keeps[outcome]:
            kept += 1
            fid_sum += fids[outcome]
    return kept / shots, fid_sum / kept


@pytest.mark.parametrize("shots", [_SHOT_CHUNK - 1, _SHOT_CHUNK, _SHOT_CHUNK + 1])
def test_sample_purify_equals_per_shot_loop_at_chunk_edges(shots):
    seed, stream = 2**64 + 5, 2**70 + 3
    est = sample_purify(3, "phase", 0.7, shots=shots, seed=seed, stream=stream)
    got = (est.success_probability, est.fidelity)
    assert got == _reference_sample(3, "phase", 0.7, shots, seed, stream)
    assert [type(x) for x in got] == [float, float]


@pytest.mark.parametrize("f", [0.0, 1.0, 2**-60, 0.5, 1.0 - 2**-53])
def test_sample_purify_equals_per_shot_loop_at_pure_inputs(f):
    # at 0 and 1 every branch draw sits on one side of f; 2**-60 lies between
    # the two smallest uniforms, and 0.5 and 1 - 2**-53 are uniforms themselves
    est = sample_purify(2, "bit", f, shots=700, seed=2**64 + 5, stream=3)
    got = (est.success_probability, est.fidelity)
    assert got == _reference_sample(2, "bit", f, 700, 2**64 + 5, 3)


@pytest.mark.parametrize("f", [-0.1, 1.5, math.nan])
def test_sample_purify_refuses_fidelity_outside_0_1(f):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sample_purify(2, "bit", f, shots=10, seed=1)


@pytest.mark.parametrize("basis", ["bit", "phase"])
def test_sample_purify_tracks_exact_values(basis):
    shots = 40000
    f = 0.8
    est = sample_purify(2, basis, f, shots=shots, seed=11)
    p = one_round_success_probability(f)
    se_p = math.sqrt(p * (1 - p) / shots)
    assert abs(est.success_probability - p) < 4 * se_p
    fid = one_round_fidelity_map(f)
    kept = round(est.success_probability * shots)
    se_f = math.sqrt(fid * (1 - fid) / kept)
    assert abs(est.fidelity - fid) < 4 * se_f


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("basis", ["bit", "phase"])
def test_shot_tables_and_sampler_at_block_size(n, basis):
    # branch pairs are indexed 2*s1 + s2, s = 0 clean and 1 errored
    for index, (cdf, keeps, fids) in enumerate(_shot_tables(n, basis)):
        probs = np.diff(cdf, prepend=0.0)
        kept = sum(p for p, keep in zip(probs, keeps) if keep)
        s1, s2 = divmod(index, 2)
        assert abs(kept - (1.0 if s1 == s2 else 0.0)) < EXACT_TOL
        if s1 == s2:
            for p, keep, fid in zip(probs, keeps, fids):
                if keep and p > 0.0:
                    assert abs(fid - (1.0 - s1)) < EXACT_TOL
    shots, f = 4000, 0.8
    est = sample_purify(n, basis, f, shots=shots, seed=29)
    p = one_round_success_probability(f)
    assert abs(est.success_probability - p) < 5 * math.sqrt(p * (1 - p) / shots)
    fid = one_round_fidelity_map(f)
    kept = round(est.success_probability * shots)
    assert abs(est.fidelity - fid) < 5 * math.sqrt(fid * (1 - fid) / kept)


def test_sample_purify_pure_limits():
    est = sample_purify(2, "bit", 1.0, shots=500, seed=3)
    assert est.success_probability == 1.0
    assert est.fidelity == pytest.approx(1.0, abs=1e-12)
    est0 = sample_purify(2, "bit", 0.0, shots=500, seed=3)
    assert est0.success_probability == 1.0
    assert est0.fidelity == pytest.approx(0.0, abs=1e-12)


def test_sampled_sweep_rows_are_reproducible():
    cfg = ExperimentConfig(
        mode="sweep", n=2, f_min=0.7, f_max=0.8, steps=2, rounds=2, shots=300, seed=21
    )
    rows1 = run_sweep(cfg)
    rows2 = run_sweep(cfg)
    assert render_csv(rows1) == render_csv(rows2)
    assert all(r.shots == 300 for r in rows1)
    # distinct streams per (grid point, round): rows differ in general
    assert rows1[1].input_fidelity == rows1[0].output_fidelity


@pytest.mark.parametrize(
    "flags, digest",
    [
        (
            {"n": 2, "error": "logic-bit", "fidelity": 0.8, "shots": 20000,
             "rounds": 2, "seed": 2026},
            "e6a16fd067a0b89bb81c268d5c16b8f6850815cc47b3aabe803a77b6e1c597c8",
        ),
        (
            {"n": 3, "error": "logic-phase", "fidelity": 0.7, "shots": 4097,
             "rounds": 2, "seed": 2**64 + 5},
            "1b90ee666ea5ecf9df6b1ca0491db10241a352c2ea88edd5f9a4234644df1c7d",
        ),
        (
            {"n": 5, "error": "logic-phase", "fidelity": 0.7, "rounds": 3},
            "d63e627aabc9cb9f59f2cbb21f0eba1feb6b8d3e3ce311f17069d7e757a48072",
        ),
        (
            {"n": 7, "error": "phys-phase", "fidelity": 0.66, "flip-position": 4,
             "rounds": 2},
            "9963601eebb40c659e4f991497623e20ef27c552aa32d5d42aca86725ac1da42",
        ),
    ],
    ids=["n2-bit", "n3-phase-seed-past-64-bits", "n5-phase-exact", "n7-phys-exact"],
)
def test_sampled_csv_bytes_match_pinned_digests(flags, digest):
    # pinned from the per-shot shot_rng sampler, so any change to the draws
    # shows, and from two exact runs, so any change to the engine's arithmetic
    # that reaches the printed digits shows too
    csv = render_csv(run_purify(resolve_config("purify", flags, None)))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def test_csv_bytes_identical_across_processes(tmp_path):
    cfg = ExperimentConfig(
        mode="sweep", n=2, f_min=0.6, f_max=0.8, steps=3, shots=500, seed=13,
        out=str(tmp_path / "a.csv"),
    )
    rows = run_sweep(cfg)
    write_results(rows, cfg.out, asdict(cfg))
    first = (tmp_path / "a.csv").read_bytes()
    rows_again = run_sweep(cfg)
    write_results(rows_again, cfg.out, asdict(cfg))
    assert (tmp_path / "a.csv").read_bytes() == first
    assert b"wall_time_ms" in first
    for line in first.decode().splitlines()[1:]:
        assert line.rsplit(",", 1)[1] == "0"
    # separate interpreters under different hash seeds, so that a dependence
    # on set or dict order shows; exact and sampled phys-phase sweeps
    src = str(Path(ghzpurify.__file__).resolve().parents[1])
    for shots in ("0", "500"):
        args = [
            sys.executable, "-m", "ghzpurify.cli", "sweep", "--n", "3",
            "--error", "phys-phase", "--flip-position", "2", "--f-min", "0.6",
            "--f-max", "0.9", "--steps", "4", "--rounds", "2", "--shots", shots,
            "--seed", "13", "--out", "rows.csv",
        ]
        outputs = []
        for hash_seed in ("1", "2"):
            cwd = tmp_path / f"shots{shots}-hash{hash_seed}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run(args, cwd=cwd, env=env, check=True, capture_output=True)
            outputs.append([(cwd / name).read_bytes() for name in ("rows.csv", "rows.json")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") == 9
