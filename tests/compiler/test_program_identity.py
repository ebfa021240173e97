"""The compile stage's oracle: every compiled program is bytes that may not move.

``fixtures/program_digests.json`` was written by the commit *before* the
one-lowering refactor of ``compiler/mapper.py`` (regenerate with ``python
tests/compiler/test_program_identity.py``; only ever do that on purpose — a
moved digest means stale cache entries unless ``__version__`` moves too).
It covers four sets, 2,476 programs:

* ``fig7`` — the full 260-workload synthetic suite × the six ladder steps;
* ``table3`` — the 92 representative crops of the benchmark networks;
* ``serve_pool`` — the 24-workload replay pool;
* ``generated`` — 400 seeded generator draws × features all on / all off.

Per program the fixture holds one 64-hex string: the 32-bit head of a sha256
over each of the eight fields below, in order, so a mismatch names the field.
Per set it also holds the full sha256 over every field of every program.
``metadata`` and any field added to ``ReadbackSpec`` are deliberately not
hashed: they describe the program, they are not what the system executes.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.analysis.network_perf import representative_crop
from repro.compiler import compile_workload
from repro.core import FeatureSet
from repro.core.params import ablation_feature_sets
from repro.serve.replay import default_pool
from repro.system import datamaestro_evaluation_system
from repro.workloads import WorkloadGenerator, benchmark_networks, synthetic_suite

FIXTURE = Path(__file__).parent / "fixtures" / "program_digests.json"
DESIGN = datamaestro_evaluation_system()
FIELDS = ("job", "configs", "csr", "loads", "prepasses", "quant", "readbacks", "oracle")
HEAD = 8  # hex characters kept per field


def program_sets():
    """Set name -> [(program key, workload, features)], in a fixed order."""
    full, off = FeatureSet.all_enabled(), FeatureSet.all_disabled()
    generator = WorkloadGenerator(seed=20)
    return {
        "fig7": [
            (f"{workload.name}|{step}", workload, features)
            for group in synthetic_suite().values()
            for workload in group
            for step, features in ablation_feature_sets().items()
        ],
        "table3": [
            (crop.name, crop, full)
            for model in benchmark_networks().values()
            for crop in (representative_crop(layer.workload) for layer in model.layers)
        ],
        "serve_pool": [(w.name, w, full) for w in default_pool(24)],
        "generated": [
            (f"{workload.name}|{label}", workload, features)
            for workload in (generator.draw() for _ in range(400))
            for label, features in (("on", full), ("off", off))
        ],
    }


def _array(array):
    array = np.ascontiguousarray(array)
    return (str(array.dtype), array.shape, array.tobytes())


def field_values(program):
    """What the system executes and checks, field by field (see FIELDS)."""
    ports = program.active_ports()
    quant = program.quant_config
    return (
        dataclasses.astuple(program.job),
        [(port, dataclasses.astuple(program.streamer_configs[port])) for port in ports],
        [(port, program.csr_writes[port]) for port in ports],
        [
            (load.name, load.base_address, load.group_size, _array(load.data))
            for load in program.tensor_loads
        ],
        [dataclasses.astuple(prepass) for prepass in program.prepasses],
        None if quant is None else dataclasses.astuple(quant),
        [
            (r.name, r.base_address, r.size_bytes, r.group_size)
            for r in program.readbacks.values()
        ],
        [(name, _array(value)) for name, value in program.expected_outputs.items()],
    )


def set_digests(entries):
    """(full sha256 of the set, {program key: eight field heads})."""
    whole = hashlib.sha256()
    programs = {}
    for key, workload, features in entries:
        assert key not in programs, f"duplicate program key {key}"
        program = compile_workload(workload, DESIGN, features)
        digests = [
            hashlib.sha256(repr(value).encode()).hexdigest()
            for value in field_values(program)
        ]
        whole.update("".join(digests).encode())
        programs[key] = "".join(digest[:HEAD] for digest in digests)
    return whole.hexdigest(), programs


def test_every_compiled_program_is_byte_identical_to_the_fixture():
    golden = json.loads(FIXTURE.read_text())
    sets = program_sets()
    assert list(sets) == list(golden)
    assert sum(len(entries) for entries in sets.values()) == 2476
    for name, entries in sets.items():
        sha, programs = set_digests(entries)
        assert list(programs) == list(golden[name]["programs"]), f"{name}: program list moved"
        for key, heads in programs.items():
            want = golden[name]["programs"][key]
            for index, field in enumerate(FIELDS):
                span = slice(index * HEAD, (index + 1) * HEAD)
                assert heads[span] == want[span], (
                    f"{name}: program {key!r} differs in field {field!r}"
                )
        assert sha == golden[name]["sha256"], f"{name}: set digest moved"


def test_the_oracle_sees_every_lowering_path():
    """The sets reach every branch a program can take, so identity means something."""
    seen = set()
    for entries in program_sets().values():
        for _, workload, features in entries:
            kind = type(workload).__name__
            seen.add((kind, "quantize", workload.quantize))
            seen.add((kind, "bias", workload.with_bias))
            seen.add((kind, "broadcaster", features.broadcaster))
            seen.add((kind, "mode_switching", features.addressing_mode_switching))
            if kind == "GemmWorkload":
                seen.add((kind, "transposed", workload.transposed_a, features.transposer))
            else:
                seen.add((kind, "ragged_x", workload.out_width % DESIGN.gemm_mu != 0))
                seen.add((kind, "implicit_im2col", features.implicit_im2col))
    for kind in ("GemmWorkload", "ConvWorkload"):
        for flag in ("quantize", "bias", "broadcaster", "mode_switching"):
            assert {(kind, flag, True), (kind, flag, False)} <= seen, (kind, flag)
    assert {("GemmWorkload", "transposed", True, on) for on in (True, False)} <= seen
    assert {("ConvWorkload", "ragged_x", ragged) for ragged in (True, False)} <= seen
    assert {("ConvWorkload", "implicit_im2col", on) for on in (True, False)} <= seen


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {}
    for name, entries in program_sets().items():
        sha, programs = set_digests(entries)
        golden[name] = {"sha256": sha, "programs": programs}
    FIXTURE.write_text(json.dumps(golden, indent=0) + "\n")
    print(f"wrote {sum(len(s['programs']) for s in golden.values())} digests to {FIXTURE}")
