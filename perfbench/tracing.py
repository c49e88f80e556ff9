"""Spans around the public functions of the ghzpurify layers, from outside.

`Tracer.install` replaces each wrapped function on every layer module that
holds it, because `protocol` and `harness` import gate functions by name: a
call inside `protocol` goes through `protocol.apply_cnot`, not through
`gates.apply_cnot`. `uninstall` puts the originals back.

A span is (name, start_ns, end_ns, parent, op, qubits, items_in, items_out).
Spans stay in memory until `write_jsonl`. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from ghzpurify import gates, harness, noise, oracle, protocol, states

LAYERS = (states, gates, noise, protocol, oracle, harness)

# Functions wrapped per layer. `cli`, `verify` and `errors` are front ends and
# get no spans. `harness._shot_tables` is private but is the engine work under
# `sample_purify`, reported as harness.table_build.
WRAPPED = {
    states: ("tensor_ensembles", "fidelity", "to_density_matrix"),
    gates: (
        "apply_cnot", "apply_h", "apply_x", "apply_z", "apply_pauli", "project",
        "outcome_probability", "reset_qubit", "measure_ensemble", "discard",
    ),
    noise: ("apply_error_model",),
    protocol: (
        "reduce_copy", "bennett_step", "postselect_equal", "recover_logic",
        "correct_physical_bitflip", "iterate_rounds", "purify_round",
    ),
    oracle: ("oracle_purify_round", "evolve_density", "postselect_density", "compare"),
    harness: (
        "run_sweep", "run_correct", "run_purify", "sample_purify", "shot_rng",
        "_shot_tables", "render_csv",
    ),
}
RENAMED = {"harness._shot_tables": "harness.table_build"}

# Gate functions that read or write a statevector themselves; their calls make
# up gates.calls.q*, gates.amp_bytes and gates.ns_per_amp.
KERNELS = frozenset(
    f"gates.{name}"
    for name in (
        "apply_cnot", "apply_h", "apply_x", "apply_z", "apply_pauli", "project",
        "outcome_probability", "discard",
    )
)
KERNEL_WIDTHS = (8, 12, 16, 20)
AMP_BYTES = 16
ORACLE_MATRIX = "oracle.DensityMatrix"


def _width(obj) -> int | None:
    """Register width of a state, an ensemble or a measurement outcome map."""
    if isinstance(obj, states.PureState):
        return obj.n_qubits
    if isinstance(obj, states.Ensemble):
        return obj.register.n_qubits if obj.branches else None
    if isinstance(obj, dict) and obj:
        return _width(next(iter(obj.values()))[1])
    return None


def _outcome_branches(outcomes: dict) -> int:
    return sum(len(ens.branches) for _, ens in outcomes.values())


def _measure_items(args, result):
    return len(args[0].branches), _outcome_branches(result)


def _postselect_items(args, result):
    return _outcome_branches(args[0]), len(result[1].branches)


def _matrix_items(args, result):
    return 0, result.matrix.nbytes


ITEMS = {
    "gates.measure_ensemble": _measure_items,
    "protocol.postselect_equal": _postselect_items,
    ORACLE_MATRIX: _matrix_items,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, record_width: bool):
        spans, stack = self.spans, self._stack
        items = ITEMS.get(name)
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None, 0, 0]
            if record_width and args:
                rec[5] = _width(args[0])
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if items is not None:
                rec[6], rec[7] = items(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, names in WRAPPED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in names:
                fn = getattr(module, attr)
                name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                record_width = layer in ("gates", "protocol")
                wrappers[id(fn)] = self.span(name, fn, record_width)
        for module in LAYERS:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._saved.append((oracle, "DensityMatrix", oracle.DensityMatrix))
        oracle.DensityMatrix = self.span(ORACLE_MATRIX, states.DensityMatrix, False)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def root(self, op: int, name: str, fn, *args):
        """Run one benchmark op as the root span that its calls hang from."""
        self.op = op
        return self.span(name, fn, False)(*args)

    def self_times(self) -> list[int]:
        own = [end - start for _, start, end, *_ in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def write_jsonl(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "qubits", "items_in", "items_out")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec)), separators=(",", ":")) + "\n")

    def layer_metrics(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics per traced op, keyed by BENCHMARK.json names."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        items_in: dict[str, int] = defaultdict(int)
        items_out: dict[str, int] = defaultdict(int)
        width_calls: dict[int, int] = defaultdict(int)
        amps = kernel_ns = 0
        max_width = {"gates": 0, "protocol": 0}
        for rec, own in zip(self.spans, self.self_times()):
            name, start, end, _, _, width, n_in, n_out = rec
            calls[name] += 1
            self_ns[name] += own
            total_ns[name] += end - start
            items_in[name] += n_in
            items_out[name] += n_out
            layer = name.split(".", 1)[0]
            if width is not None and layer in max_width:
                max_width[layer] = max(max_width[layer], width)
            if name in KERNELS:
                width_calls[width] += 1
                amps += 2**width
                kernel_ns += own

        def per_op(x: float) -> float:
            return x / ops

        def ms(ns: int) -> float:
            return per_op(ns / 1e6)

        m: dict[str, float] = {}
        for name in ("states.tensor_ensembles", "states.fidelity", "states.to_density_matrix"):
            m[f"{name}.ms"] = ms(self_ns[name])
        for op in ("apply_cnot", "apply_h", "project", "outcome_probability"):
            m[f"gates.{op}.calls"] = per_op(calls[f"gates.{op}"])
            m[f"gates.{op}.ms"] = ms(self_ns[f"gates.{op}"])
        for op in ("apply_x", "reset_qubit", "measure_ensemble", "discard"):
            m[f"gates.{op}.ms"] = ms(self_ns[f"gates.{op}"])
        for w in KERNEL_WIDTHS:
            m[f"gates.calls.q{w}"] = per_op(width_calls[w])
        m["gates.amp_bytes"] = per_op(AMP_BYTES * amps)
        m["gates.ns_per_amp"] = kernel_ns / amps if amps else 0.0
        m["gates.max_qubits"] = max_width["gates"]
        m["noise.apply_error_model.ms"] = ms(self_ns["noise.apply_error_model"])
        for stage in (
            "reduce_copy", "bennett_step", "postselect_equal", "recover_logic",
            "correct_physical_bitflip",
        ):
            m[f"protocol.{stage}.ms"] = ms(self_ns[f"protocol.{stage}"])
        m["protocol.branches_measured"] = per_op(items_out["gates.measure_ensemble"])
        produced = items_in["protocol.postselect_equal"]
        m["protocol.kept_branch_ratio"] = (
            items_out["protocol.postselect_equal"] / produced if produced else 0.0
        )
        m["protocol.max_qubits"] = max_width["protocol"]
        m["oracle.evolve_density.ms"] = ms(self_ns["oracle.evolve_density"])
        m["oracle.compare.ms"] = ms(self_ns["oracle.compare"])
        m["oracle.postselect_density.calls"] = per_op(calls["oracle.postselect_density"])
        m["oracle.postselect_density.ms"] = ms(self_ns["oracle.postselect_density"])
        m["oracle.purify_round.self_ms"] = ms(self_ns["oracle.oracle_purify_round"])
        m["oracle.dense_matrices"] = per_op(calls[ORACLE_MATRIX])
        m["oracle.dense_bytes"] = per_op(items_out[ORACLE_MATRIX])
        m["oracle.dense_copy.ms"] = ms(self_ns[ORACLE_MATRIX])
        # inclusive times: the self time of sample_purify is the shot loop
        m["harness.sample_purify.ms"] = ms(total_ns["harness.sample_purify"])
        m["harness.shot_loop.self_ms"] = ms(self_ns["harness.sample_purify"])
        m["harness.shot_rng.calls"] = per_op(calls["harness.shot_rng"])
        m["harness.shot_rng.ms"] = ms(self_ns["harness.shot_rng"])
        m["harness.table_build.ms"] = ms(total_ns["harness.table_build"])
        m["harness.render_csv.ms"] = ms(self_ns["harness.render_csv"])
        m["trace.overhead_ratio"] = overhead_ratio
        return m

