"""The CLI's output bytes over a wide grid, one pinned sha256 per family.

A family is (command, n, error, exact or sampled). Its digest covers, for
every run of the family in order: the arguments, the exit code, stdout,
stderr without the `done in ... ms` timing line, and the bytes of the --out
CSV and its .json sidecar when the run writes them. The runs cover n in
{2, 5, 11}, every purifiable error, --rounds 1 and 3, exact runs and 1, 2000
and 4097 shots, seeds 0, 2^64 + 5 and 2^128 - 1, and input fidelities from 0
and subnormal values up to 1 - 2^-53 and 1; sweeps of 2 or more steps read
streams past 0. A change that alters output on purpose re-pins only the
families it names.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from ghzpurify.cli import main

NS = (2, 5, 11)
ERRORS = ("logic-bit", "logic-phase", "phys-phase")
SEEDS = (0, 2**64 + 5, 2**128 - 1)
SHOTS = (1, 2000, 4097)
FIDELITIES = (0.0, 5e-324, 2.0**-537, 0.5, 0.8, 1.0 - 2.0**-53, 1.0)
# (f-min, f-max, steps)
SWEEPS = (
    (0.0, 5e-324, 2),
    (2.0**-537, 0.5, 3),
    (0.5, 0.8, 2),
    (0.8, 1.0 - 2.0**-53, 3),
    (1.0 - 2.0**-53, 1.0, 2),
    (0.0, 1.0, 5),
)
OUT = "out.csv"

GOLDEN = {
    "purify-n2-logic-bit-exact": "2d63c0a84c94b009dd9260ba1ec4c675d715cbd9192d59362218b7e205ad72dd",
    "purify-n2-logic-bit-sampled": "e9300d67081167ce0cc070f82f25d5642332b9250185c719c2ef6a84502d269f",
    "purify-n2-logic-phase-exact": "db53b879bd823f62bd5a337b61f7d88a066d87f7d51f75cf74ea9dc2b8de4e92",
    "purify-n2-logic-phase-sampled": "1afb017df13f895f490efd13ab246ca90784f43b8b4e4a929838aa21a7e83718",
    "purify-n2-phys-phase-exact": "913f187a889605a48616c4a6de9f71129b229a298a35884e1f36f689d566241f",
    "purify-n2-phys-phase-sampled": "8a55ad9200d04132056fcae36ba3ecf0ca472227efd83c671db0e491aeefdd0b",
    "purify-n5-logic-bit-exact": "28582291f0e6b5c415142c9f32c3c15f8224b1b05cf2e3dc7ca50e2ba6cc2ac9",
    "purify-n5-logic-bit-sampled": "92782956e8f883714dbf03369bced6ebcc8c4f4ff940763dd73a4e8f3e6ba7a7",
    "purify-n5-logic-phase-exact": "c44b52f4909e1b38b812f9a745a8ec45a4b01f4cc2fec5350966f0b99dae9f74",
    "purify-n5-logic-phase-sampled": "e17dde5cb561a6458ab1bf9d92da2124128aafe20e4c175fbb21af9bd574be29",
    "purify-n5-phys-phase-exact": "aeb71244f171d63f3618c94d44eb10beb81497087de36dd695129a44b78ec228",
    "purify-n5-phys-phase-sampled": "bb37706bbc40c7e60f36e4d9ae4b51a7799f3a3cd152ae46895204e19891f3f4",
    "purify-n11-logic-bit-exact": "6b37908d0adf89952310f66cb93f7557babf54e2cc61c86f88cbb193303ea06b",
    "purify-n11-logic-bit-sampled": "1fa4d400d41a640171c16ccf21ba4fd1e88db235bf42b10f49646a44184c1146",
    "purify-n11-logic-phase-exact": "ea7329ddcb18ea40ecce0dc2a27d4ba7ea7c501917bde4fad006ea41d31738e9",
    "purify-n11-logic-phase-sampled": "ec9370259cdacd8348c61f346b2a9a00e75b10fe73f03d11cdf12b31b60cacfe",
    "purify-n11-phys-phase-exact": "48c43c6ef8bbaf04ea2cdb5571b6ee89909d5b64a352c8a2e7ed6d97f50ddf9b",
    "purify-n11-phys-phase-sampled": "3dd9688719a1a9dc25b374c9595a677a22cea53b539a420221b3995e75a85bd1",
    "sweep-n2-logic-bit-exact": "2a119997859e64d5b83252875b4bbbdfe8bf952327adae5d7fac696c67b4982c",
    "sweep-n2-logic-bit-sampled": "72f605b3fcf458bbca25778245ec84f8a3d8737d72c51668fa44b903c78d27f0",
    "sweep-n2-logic-phase-exact": "effce839cd167ab7f9fd50e876176e6ae2af96f26e37557ae920cc82c481f134",
    "sweep-n2-logic-phase-sampled": "3ebfa62b64cbccdbbf54a592916ee52c138b69ee099e4d148d0d7187356ed8e6",
    "sweep-n2-phys-phase-exact": "8964d1df05db3ec4dbe79fffab4e3b5cb082cee23442c2804700b2cf8517d1c4",
    "sweep-n2-phys-phase-sampled": "4513c166f5fab85ab6469343eb7d4bdff1ab22097dbfafd85e7c1c8588c9a8aa",
    "sweep-n5-logic-bit-exact": "047dcc02da9588bdf2ba259f764582dacc8027a3ee348a3e92a808cdb49db1aa",
    "sweep-n5-logic-bit-sampled": "fb5ab2954be4fe79b78b4682dc37045906fb08f9e1f0a57a7859f9947ddac1d9",
    "sweep-n5-logic-phase-exact": "ca7f936ee8439fb2bf1324078261511ba23d549783bb7baf0db115e793b5747f",
    "sweep-n5-logic-phase-sampled": "767a3b14fc1ca6cbc5d2d1a3be0cced3ebf56d9e907b434eb72083445e9e2e50",
    "sweep-n5-phys-phase-exact": "b519e75c9b447734357a65fcad21358ac8e0836bd80fdf29362192626f64cada",
    "sweep-n5-phys-phase-sampled": "d8ffaba6944ee4331920bc8019bdd5de8a6ae3d0a186706bfffbab417b44168c",
    "sweep-n11-logic-bit-exact": "f607772a63eb2f6ae2fbd934f1c442b018b8b944b4584d4e64e889a30d9950b9",
    "sweep-n11-logic-bit-sampled": "6dc72da2f2df85cb2f797c667d954fbf82b85f66f58a4c4f0baef9ce48d9aeb7",
    "sweep-n11-logic-phase-exact": "8ec2113492f43fc65ccd7c8045e6218aebfc3f6c72168da11363c00b880d4976",
    "sweep-n11-logic-phase-sampled": "8cbe0eb67d7036b8a8da82ff59e40d733d4d3f5d5c12f1f0a6a51eceae311cc7",
    "sweep-n11-phys-phase-exact": "315ac3c881c8330cf309d14e9211d59babc39668a10adfb348e5505159794c07",
    "sweep-n11-phys-phase-sampled": "31b62b42ad4cd0d87dfb146bc9415032fa95c4259cd3bcc968fb70d31658f957",
}


def _runs(command: str, n: int, error: str, sampled: bool) -> list[list[str]]:
    """The argument lists of one family, in order; 0 shots runs exactly."""
    if command == "purify":
        # a sampled purify family runs every shot count at every fidelity
        counts = SHOTS if sampled else (0,)
        points = [(["--fidelity", repr(f)], shots) for f in FIDELITIES for shots in counts]
    else:
        # a sampled sweep family takes the shot counts in turn
        points = [
            (["--f-min", repr(lo), "--f-max", repr(hi), "--steps", str(steps)],
             SHOTS[i % len(SHOTS)] if sampled else 0)
            for i, (lo, hi, steps) in enumerate(SWEEPS)
        ]
    runs = []
    for k, (grid, shots) in enumerate(points):
        args = [command, "--n", str(n), "--error", error, *grid, "--rounds", str((1, 3)[k % 2])]
        # k + k // 3 pairs each shot count of a purify family with every
        # seed, and n's place in NS turns the seeds between families
        args += ["--seed", str(SEEDS[(k + k // 3 + NS.index(n)) % len(SEEDS)])]
        if shots:
            args += ["--shots", str(shots)]
        if k // 2 % 2:
            args += ["--out", OUT]
        runs.append(args)
    return runs


def _family_digest(command: str, n: int, error: str, sampled: bool) -> str:
    """sha256 over every run of the family; --out lands in the working directory."""
    runner = CliRunner()
    digest = hashlib.sha256()
    for args in _runs(command, n, error, sampled):
        result = runner.invoke(main, args)
        stderr = [line for line in result.stderr.splitlines() if not line.startswith("done in ")]
        digest.update(repr((args, result.exit_code, result.stdout, stderr)).encode())
        if "--out" in args:
            for path in (Path(OUT), Path(OUT).with_suffix(".json")):
                digest.update(path.read_bytes() if path.exists() else b"<none>")
                path.unlink(missing_ok=True)
    return digest.hexdigest()


FAMILIES = [
    (command, n, error, sampled)
    for command in ("purify", "sweep")
    for n in NS
    for error in ERRORS
    for sampled in (False, True)
]


def _family_id(family) -> str:
    command, n, error, sampled = family
    return f"{command}-n{n}-{error}-{'sampled' if sampled else 'exact'}"


@pytest.mark.parametrize("family", FAMILIES, ids=[_family_id(f) for f in FAMILIES])
def test_cli_bytes_match_pinned_digests(family, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _family_digest(*family) == GOLDEN[_family_id(family)]
