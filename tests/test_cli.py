import importlib.metadata
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import ghzpurify
import ghzpurify.harness
import ghzpurify.protocol
import ghzpurify.states
import ghzpurify.verify
from ghzpurify.cli import main
from ghzpurify.harness import CONFIG_KEYS, CSV_COLUMNS, ERROR_ALIASES, ExperimentConfig
from ghzpurify.noise import ErrorKind
from ghzpurify.verify import CheckResult


@pytest.fixture
def runner():
    return CliRunner()


def test_purify_writes_csv_to_stdout(runner):
    result = runner.invoke(
        main, ["purify", "--n", "2", "--error", "logic-bit", "--fidelity", "0.8"]
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("2,logic-bitflip,1,0.8,0.941176470588,0.68,")
    assert "done in" in result.stderr


def test_purify_missing_fidelity_exits_2(runner):
    result = runner.invoke(main, ["purify", "--n", "2"])
    assert result.exit_code == 2
    assert "fidelity" in result.stderr


def test_purify_rejects_phys_bit_kind(runner):
    result = runner.invoke(
        main, ["purify", "--n", "2", "--error", "phys-bit", "--fidelity", "0.8"]
    )
    assert result.exit_code == 2
    assert "correct" in result.stderr


def test_purify_bad_flag_value_exits_2(runner):
    result = runner.invoke(main, ["purify", "--fidelity", "high"])
    assert result.exit_code == 2


def test_purify_multi_round_rows(runner):
    result = runner.invoke(
        main, ["purify", "--fidelity", "0.8", "--rounds", "2"]
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[2] == "2"


def test_sweep_row_count_and_order(runner):
    result = runner.invoke(
        main,
        ["sweep", "--f-min", "0.55", "--f-max", "0.95", "--steps", "9"],
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 10
    fs = [float(line.split(",")[3]) for line in lines[1:]]
    assert fs == sorted(fs)
    assert fs[0] == pytest.approx(0.55)
    assert fs[-1] == pytest.approx(0.95)


def test_sweep_requires_grid(runner):
    result = runner.invoke(main, ["sweep", "--f-min", "0.5"])
    assert result.exit_code == 2


def test_correct_outputs_unit_fidelity(runner):
    result = runner.invoke(main, ["correct", "--n", "2", "--flip-position", "2"])
    assert result.exit_code == 0
    fields = result.stdout.splitlines()[1].split(",")
    assert fields[1] == "phys-bitflip"
    assert float(fields[4]) == 1.0
    assert float(fields[5]) == 1.0


def test_correct_control_mode_exits_3(runner):
    result = runner.invoke(main, ["correct", "--n", "2", "--flip-position", "1"])
    assert result.exit_code == 3
    assert "control mode" in result.stderr


_SWEEP_GRID = ["--f-min", "0.6", "--f-max", "0.8", "--steps", "2"]


@pytest.mark.parametrize("command", ["purify", "sweep", "correct"])
@pytest.mark.parametrize("position", ["0", "-1", "-5", "3"])
def test_flip_position_outside_the_modes_exits_2(runner, command, position):
    grid = {"purify": ["--fidelity", "0.8"], "sweep": _SWEEP_GRID, "correct": []}[command]
    result = runner.invoke(
        main, [command, "--n", "2", "--flip-position", position] + grid
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    if command == "correct":
        assert f"flip-position must name a mode 1..2, got {position}" in result.stderr
    else:
        # only correct takes the option; click's wording differs between versions
        assert "No such option" in result.stderr and "--flip-position" in result.stderr


def test_correct_refuses_a_seed(runner, monkeypatch):
    # correct is deterministic, so no row of it reads a sampling seed
    _forbid_building_a_state(monkeypatch, "a state was built before the refusal")
    result = runner.invoke(main, ["correct", "--n", "3", "--flip-position", "2", "--seed", "5"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "No such option" in result.stderr and "--seed" in result.stderr


@pytest.mark.parametrize(
    "args", [["purify", "--fidelity", "0.8"], ["sweep"] + _SWEEP_GRID], ids=["purify", "sweep"]
)
def test_purifying_commands_refuse_a_flip_position(runner, monkeypatch, args):
    # no purify or sweep row depends on the flipped mode, so neither command
    # takes the option
    _forbid_building_a_state(monkeypatch, "a state was built before the refusal")
    result = runner.invoke(
        main, args + ["--n", "2", "--error", "phys-phase", "--flip-position", "2"]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    # click's wording of the refusal differs between its versions
    assert "No such option" in result.stderr and "--flip-position" in result.stderr


def _forbid_building_a_state(monkeypatch, message):
    """Make every module that builds a logic Bell pair raise `message`."""
    def fail(*_args, **_kwargs):
        raise AssertionError(message)

    for module in (
        ghzpurify.states, ghzpurify.protocol, ghzpurify.verify, ghzpurify.harness
    ):
        monkeypatch.setattr(module, "make_logic_bell", fail)


@pytest.mark.parametrize(
    "args, message",
    [
        (["purify", "--n", "12", "--fidelity", "0.8"], "purify at n=12 needs 26 qubits"),
        (
            ["sweep", "--n", "12", "--f-min", "0.6", "--f-max", "0.8", "--steps", "2"],
            "sweep at n=12 needs 26 qubits",
        ),
        (["correct", "--n", "13", "--flip-position", "2"], "correct at n=13 needs 26 qubits"),
        (["verify", "--n", "13"], "verify at n=13 needs 26 qubits"),
    ],
)
def test_oversize_block_refused_before_any_state_is_built(
    runner, monkeypatch, args, message
):
    _forbid_building_a_state(monkeypatch, "a state was built before the size check")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"{message}; registers are capped at 24" in result.stderr


def test_largest_blocks_pass_the_size_check():
    ExperimentConfig(mode="purify", n=11, fidelity=0.8).validate()
    ExperimentConfig(
        mode="correct", n=12, error=ErrorKind.PHYS_BITFLIP, flip_position=2
    ).validate()


def test_correct_position_out_of_range_exits_2(runner):
    result = runner.invoke(main, ["correct", "--n", "2", "--flip-position", "7"])
    assert result.exit_code == 2


def test_correct_requires_position(runner):
    result = runner.invoke(main, ["correct", "--n", "2"])
    assert result.exit_code == 2


def test_out_writes_files(runner, tmp_path):
    out = tmp_path / "rows.csv"
    result = runner.invoke(
        main, ["purify", "--fidelity", "0.8", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert result.stdout == ""
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    assert (tmp_path / "rows.json").exists()


@pytest.mark.parametrize(
    "out, dirs, message",
    [
        ("rows.json", (), "would be overwritten by its .json sidecar"),
        ("missing/rows.csv", (), "does not exist"),
        ("", (), "is a directory"),
        ("x", ("x.json",), "its sidecar"),
        ("new/", (), "does not end in a file name"),
        ("a" * 300 + ".csv", (), "File name too long"),
    ],
    ids=[
        "json-suffix", "missing-directory", "directory", "sidecar-directory",
        "trailing-separator", "name-too-long",
    ],
)
def test_out_that_cannot_be_written_exits_2_before_any_state_is_built(
    runner, monkeypatch, tmp_path, out, dirs, message
):
    made = [tmp_path / d for d in dirs]
    for d in made:
        d.mkdir()
    _forbid_building_a_state(monkeypatch, "a state was built before the out check")
    # tmp_path / "new/" drops the trailing separator, so it is added back
    path = str(tmp_path / out) + (os.sep if out.endswith("/") else "")
    result = runner.invoke(main, ["purify", "--fidelity", "0.8", "--out", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert message in result.stderr
    assert list(tmp_path.iterdir()) == made


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_fails_to_write_exits_2(runner):
    result = runner.invoke(main, ["purify", "--fidelity", "0.8", "--out", "/dev/full"])
    # an uncaught OSError would exit 1 with a traceback
    assert result.exit_code == 2
    assert "error: [Errno" in result.stderr and "No space left on device" in result.stderr


def test_sampled_round_with_no_kept_shot_exits_2(runner, tmp_path):
    args = [
        "purify", "--n", "2", "--error", "logic-bit", "--fidelity", "0.5",
        "--shots", "1", "--rounds", "3", "--seed", "3",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "n=2" in result.stderr and "of 1 " in result.stderr
    out = tmp_path / "rows.csv"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists() and not (tmp_path / "rows.json").exists()


def test_sampled_seed_past_the_philox_key_exits_2(runner):
    seed = str(2**128)
    args = [
        "purify", "--n", "2", "--error", "logic-bit", "--fidelity", "0.8",
        "--shots", "10", "--seed", seed,
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"seed {seed} is too large" in result.stderr
    assert "below 2**128" in result.stderr


def test_sampled_runs_are_byte_identical(runner, tmp_path):
    args = [
        "sweep", "--f-min", "0.6", "--f-max", "0.8", "--steps", "3",
        "--shots", "400", "--seed", "17",
    ]
    first = runner.invoke(main, args + ["--out", str(tmp_path / "a.csv")])
    second = runner.invoke(main, args + ["--out", str(tmp_path / "b.csv")])
    assert first.exit_code == 0 and second.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# Runs exact commands, then a sampled one, through the CLI in one interpreter
# and prints after each group whether numpy.random is loaded; the sampled run
# shows that the check sees the import.
_RANDOM_LOADED = """
import sys
from click.testing import CliRunner
from ghzpurify.cli import main

def loaded_after(*commands):
    for args in commands:
        assert CliRunner().invoke(main, args).exit_code == 0, args
    return "numpy.random" in sys.modules

print(loaded_after(
    ["purify", "--n", "2", "--fidelity", "0.8"],
    ["sweep", "--n", "3", "--f-min", "0", "--f-max", "1", "--steps", "3", "--rounds", "2"],
    ["correct", "--n", "3", "--flip-position", "2"],
))
print(loaded_after(["purify", "--n", "2", "--fidelity", "0.8", "--shots", "10"]))
"""


def test_numpy_random_loads_only_for_sampled_rounds():
    # exact rows and correct keep numpy.random's import cost out; verify is
    # not among them, as its random-state checks draw from numpy.random
    src = str(Path(ghzpurify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _RANDOM_LOADED], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


_FRONT_END_LOADED = """
import sys
from click.testing import CliRunner
from ghzpurify.cli import main

for args in (
    ["purify", "--n", "2", "--fidelity", "0.8"],
    ["sweep", "--n", "3", "--f-min", "0", "--f-max", "1", "--steps", "3"],
    ["correct", "--n", "3", "--flip-position", "2"],
):
    assert CliRunner().invoke(main, args).exit_code == 0, args
print(*(m in sys.modules for m in ("ghzpurify.verify", "ghzpurify.oracle", "importlib.metadata")))
assert CliRunner().invoke(main, ["verify", "--n", "2"]).exit_code == 0
assert CliRunner().invoke(main, ["--version"]).exit_code == 0
print(*(m in sys.modules for m in ("ghzpurify.verify", "ghzpurify.oracle", "importlib.metadata")))
"""


def test_only_verify_and_version_load_their_modules():
    # purify, sweep and correct leave out verify with its dense oracle, and
    # importlib.metadata, which only --version reads
    src = str(Path(ghzpurify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _FRONT_END_LOADED], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"] * 3 + ["True"] * 3


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fidelity = 0.7\nn = 2\nrounds = 1\n")
    result = runner.invoke(
        main, ["purify", "--config", str(cfg), "--fidelity", "0.8"]
    )
    assert result.exit_code == 0
    assert result.stdout.splitlines()[1].split(",")[3] == "0.8"


def test_missing_config_file_exits_2(runner, tmp_path):
    result = runner.invoke(
        main, ["purify", "--fidelity", "0.8", "--config", str(tmp_path / "nofile.cfg")]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "nofile.cfg" in result.stderr and "does not exist" in result.stderr


def test_config_file_unknown_key_exits_2(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("speed = 9\n")
    result = runner.invoke(main, ["purify", "--config", str(cfg)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, line",
    [
        (["purify", "--fidelity", "0.8"], "steps = 3"),
        (["purify", "--fidelity", "0.8"], "f-min = 0.1"),
        (["correct", "--flip-position", "2"], "shots = 5"),
        (["purify", "--fidelity", "0.8"], "flip-position = 2"),
        (["sweep"] + _SWEEP_GRID, "flip-position = 2"),
        (["correct", "--flip-position", "2"], "seed = 5"),
    ],
    ids=["purify-steps", "purify-f-min", "correct-shots", "purify-flip-position",
         "sweep-flip-position", "correct-seed"],
)
def test_config_file_key_the_command_does_not_use_exits_2(
    runner, tmp_path, command, line
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 2\n{line}\n")
    result = runner.invoke(main, command + ["--config", str(cfg)])
    assert result.exit_code == 2
    assert result.stdout == ""
    key = line.split(" = ")[0]
    assert f"key '{key}' is not used by {command[0]}" in result.stderr


# every option of purify, sweep and correct but --config, with its type
_OPTION_TYPES = {
    "error": click.Choice(tuple(ERROR_ALIASES)),
    "fidelity": click.FLOAT,
    "f-min": click.FLOAT,
    "f-max": click.FLOAT,
    "steps": click.INT,
    "rounds": click.INT,
    "shots": click.INT,
    "flip-position": click.INT,
    "n": click.INT,
    "seed": click.INT,
    "out": click.STRING,
}


@pytest.mark.parametrize(
    "command, keys",
    [
        ("purify", ["error", "fidelity", "rounds", "shots", "n", "seed", "out"]),
        ("sweep", ["error", "f-min", "f-max", "steps", "rounds", "shots", "n", "seed", "out"]),
        ("correct", ["fidelity", "flip-position", "n", "out"]),
    ],
)
def test_command_options_are_config_plus_the_keys_the_mode_reads(command, keys):
    params = {p.opts[0]: p for p in main.commands[command].params if p.opts != ["--help"]}
    assert [key for key, spec in CONFIG_KEYS.items() if command in spec.modes] == keys
    assert list(params) == [f"--{key}" for key in keys] + ["--config"]
    for key in keys:
        param = params[f"--{key}"]
        assert param.default is None
        assert param.type.to_info_dict() == _OPTION_TYPES[key].to_info_dict()
    assert params["--config"].default is None


def test_csv_columns_and_error_aliases_are_todays_tables():
    assert CSV_COLUMNS == (
        "n", "error_kind", "round", "input_fidelity", "output_fidelity",
        "success_probability", "shots", "seed", "wall_time_ms",
    )
    assert list(ERROR_ALIASES) == [
        "logic-bit", "logic-phase", "phys-bit", "phys-phase",
        "logic-bitflip", "logic-phaseflip", "phys-bitflip", "phys-phaseflip",
    ]
    assert all(ERROR_ALIASES[name] is ErrorKind(name) for name in list(ERROR_ALIASES)[4:])


_HELP = {
    "--error": "Error kind mixed into the input pair (default logic-bit).",
    "--fidelity": "Input fidelity: the clean pair's weight (correct defaults to 0).",
    "--f-min": "Grid start fidelity.",
    "--f-max": "Grid end fidelity.",
    "--steps": "Number of grid points.",
    "--rounds": "Purification rounds.",
    "--shots": "Monte Carlo shots per round; 0 (default) runs exactly.",
    "--flip-position": "1-based mode of the flipped qubit on A.",
    "--n": "Physical qubits per logic qubit (>= 2).",
    "--seed": "Sampling seed.",
    "--out": "Write CSV here (plus a .json config sidecar) instead of stdout.",
    "--config": "Flat key=value config file; explicit flags win.",
}


@pytest.mark.parametrize("command", ["purify", "sweep", "correct"])
def test_option_help_is_todays_text(command):
    params = [p for p in main.commands[command].params if p.opts != ["--help"]]
    assert {p.opts[0]: p.help for p in params} == {
        p.opts[0]: _HELP[p.opts[0]] for p in params
    }


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["sweep", "--n", "2", "--f-min", "0", "--f-max", "1", "--steps", "10000000000000"],
            "steps x rounds = 10000000000000 x 1 rows; at most 1000000 are allowed",
        ),
        (
            ["purify", "--fidelity", "0.8", "--rounds", "10000001"],
            "steps x rounds = 1 x 10000001 rows; at most 1000000 are allowed",
        ),
    ],
    ids=["sweep-steps", "purify-rounds"],
)
def test_oversize_row_count_refused_before_any_grid_or_state(runner, monkeypatch, args, message):
    def fail(*_args, **_kwargs):
        raise AssertionError("rows were built before the row-count check")

    monkeypatch.setattr(ghzpurify.harness.np, "linspace", fail)
    monkeypatch.setattr(ghzpurify.harness, "_sweep_rows", fail)
    _forbid_building_a_state(monkeypatch, "a state was built before the row-count check")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"error: {message}" in result.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["purify", "--fidelity", "0.8", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["sweep", "--f-min", "0.6", "--f-max", "0.8", "--steps", "0"], "steps must be at least 1, got 0"),
    ],
    ids=["purify-seed", "sweep-steps"],
)
def test_value_out_of_range_exits_2_before_any_state_is_built(runner, monkeypatch, args, message):
    _forbid_building_a_state(monkeypatch, "a state was built before the value check")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"error: {message}" in result.stderr


def test_verify_passes_and_prints_lines(runner):
    result = runner.invoke(main, ["verify", "--n", "2"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)
    assert "checks passed" in result.stderr


def test_verify_failure_exits_1(runner, monkeypatch):
    def broken(ns):
        return CheckResult("always_broken", False, 1.0, 1e-12)

    monkeypatch.setattr(
        ghzpurify.verify, "CHECK_FUNCS", [broken]
    )
    result = runner.invoke(main, ["verify", "--n", "2"])
    assert result.exit_code == 1
    assert "FAIL always_broken" in result.stdout


def test_verify_rejects_small_n(runner):
    result = runner.invoke(main, ["verify", "--n", "1"])
    assert result.exit_code == 2


def test_unknown_subcommand_exits_2(runner):
    result = runner.invoke(main, ["distill"])
    assert result.exit_code == 2


def test_version_of_an_installed_package(runner, monkeypatch):
    versions = {"ghzpurify": "1.2.3"}
    monkeypatch.setattr(importlib.metadata, "version", versions.__getitem__)
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout.endswith(", version 1.2.3\n")


def test_version_from_a_source_tree_that_is_not_installed(runner, monkeypatch):
    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout.endswith(
        ", version unknown (ghzpurify is not installed)\n"
    )
