"""Job identity is bytes on disk: cache file names, journal keys, fixtures.

Three angles on "the encoder may change, the digest may not":

* ``fixtures/job_hashes.json`` — hashes of named jobs written by the
  commit *before* the single-pass encoder (regenerate with ``python
  tests/runtime/test_job_identity.py``; only ever do that on purpose);
* a copy of that commit's double-walk ``canonical_encode`` /
  ``stable_digest`` kept here as an oracle, compared on seeded random
  workloads x designs x feature sets and on the two ``explore`` digests;
* the memo: per instance, invisible to ``==`` / ``replace`` / pickle.
"""

import dataclasses
import enum
import hashlib
import json
import pickle
import random
import threading
from pathlib import Path

from repro.core import FeatureSet
from repro.core.params import ablation_feature_sets
from repro.explore import ExplorationEngine, GridStrategy
from repro.explore.space import default_search_space, feature_space
from repro.runtime import SimJob, canonical_encode, stable_digest
from repro.system import datamaestro_evaluation_system
from repro.workloads import ConvWorkload, GemmWorkload
from repro.workloads.generate import WorkloadGenerator

FIXTURE = Path(__file__).parent / "fixtures" / "job_hashes.json"


def golden_jobs():
    """Name -> job, one per way a job's identity can differ."""
    gemm = GemmWorkload(name="golden_gemm", m=32, n=32, k=32)
    ladder = ablation_feature_sets()
    space = default_search_space()
    explored, explored_features = space.build(next(iter(space.enumerate())))

    def conv(kernel, **extra):
        return ConvWorkload(
            name=f"golden_conv{kernel}",
            in_height=8,
            in_width=8,
            in_channels=8,
            out_channels=16,
            kernel_h=kernel,
            kernel_w=kernel,
            **extra,
        )

    return {
        "gemm": SimJob(workload=gemm),
        "gemm_transposed": SimJob(
            workload=GemmWorkload(name="golden_t", m=16, n=24, k=40, transposed_a=True)
        ),
        "gemm_quantized": SimJob(
            workload=GemmWorkload(name="golden_q", m=8, n=8, k=64, quantize=True)
        ),
        "conv3x3": SimJob(workload=conv(3, padding=1)),
        "conv1x1": SimJob(workload=conv(1)),
        "conv7x7": SimJob(workload=conv(7, stride=2, padding=3)),
        "features_1_baseline": SimJob(workload=gemm, features=ladder["1_baseline"]),
        "features_3_transposer": SimJob(workload=gemm, features=ladder["3_transposer"]),
        "features_5_im2col": SimJob(workload=conv(3, padding=1), features=ladder["5_im2col"]),
        "design_32_banks": SimJob(
            workload=gemm, design=datamaestro_evaluation_system(num_banks=32)
        ),
        "design_explored": SimJob(
            workload=gemm, design=explored, features=explored_features
        ),
        "baseline_backend": SimJob(workload=gemm, backend="baseline:feather"),
        "lockstep_engine": SimJob(workload=gemm, engine="lockstep"),
        "seed_7": SimJob(workload=gemm, seed=7),
        "max_cycles_1000": SimJob(workload=gemm, max_cycles=1000),
        "labelled": SimJob(workload=gemm, label="ignored by the hash"),
    }


# ----------------------------------------------------------------------
# The oracle: the encoder as it stood before the single-pass rewrite.
# ----------------------------------------------------------------------
def oracle_encode(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [[f.name, oracle_encode(getattr(obj, f.name))] for f in dataclasses.fields(obj)],
        ]
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if isinstance(obj, (tuple, list)):
        return [oracle_encode(item) for item in obj]
    if isinstance(obj, dict):
        return [[oracle_encode(k), oracle_encode(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot canonically encode {type(obj)!r}")


def oracle_digest(obj):
    encoded = json.dumps(oracle_encode(obj), separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def oracle_job_hash(job):
    return oracle_digest(
        {
            "workload": oracle_encode(job.workload),
            "design": oracle_encode(job.design),
            "features": oracle_encode(job.features),
            "backend": job.backend,
            "seed": job.seed,
            "max_cycles": job.max_cycles,
            "engine": job.engine,
        }
    )


class TestGoldenHashes:
    def test_fixture_covers_every_named_job(self):
        recorded = json.loads(FIXTURE.read_text())["hashes"]
        assert recorded.keys() == golden_jobs().keys()
        assert len(recorded) >= 12

    def test_every_hash_is_byte_identical_to_the_parents(self):
        recorded = json.loads(FIXTURE.read_text())["hashes"]
        computed = {name: job.job_hash() for name, job in golden_jobs().items()}
        assert computed == recorded

    def test_the_label_never_reaches_the_hash(self):
        recorded = json.loads(FIXTURE.read_text())["hashes"]
        assert recorded["labelled"] == recorded["gemm"]


class TestOracle:
    def test_random_jobs_match_the_double_walk(self, fuzz_seed):
        rng = random.Random(fuzz_seed)
        generator = WorkloadGenerator(seed=fuzz_seed)
        space = default_search_space()
        designs = [space.build(candidate)[0] for candidate in space.enumerate()]
        switches = feature_space()
        features = [switches.build(candidate)[1] for candidate in switches.enumerate()]
        for _ in range(60):
            job = SimJob(
                workload=generator.draw(),
                design=rng.choice(designs),
                features=rng.choice(features),
                backend=rng.choice(["datamaestro", "baseline:feather"]),
                seed=rng.randrange(1 << 20),
                max_cycles=rng.randrange(1, 1 << 24),
                engine=rng.choice(["event", "lockstep"]),
            )
            assert job.job_hash() == oracle_job_hash(job)
            assert canonical_encode(job) == oracle_encode(job)

    def test_public_encoder_output_is_unchanged(self):
        samples = [
            {"b": 1, "a": [2.5, None, True, ("x", 3)]},
            [FeatureSet.all_disabled(), datamaestro_evaluation_system().memory],
            GemmWorkload(name="oracle", m=8, n=8, k=8).group,
            {1: {"nested": -0.0}, 2: float("inf")},
        ]
        for sample in samples:
            assert canonical_encode(sample) == oracle_encode(sample)
            assert stable_digest(sample) == oracle_digest(sample)

    def test_explore_digests_match(self):
        space = default_search_space()
        payload = {
            "name": space.name,
            "axes": [[axis.name, list(axis.values)] for axis in space.axes],
            "constraints": [constraint.name for constraint in space.constraints],
            "builder": "datamaestro",
        }
        assert space.digest() == oracle_digest(payload)
        workloads = [GemmWorkload(name="oracle", m=8, n=8, k=8)]
        engine = ExplorationEngine(space, GridStrategy(), workloads=workloads)
        assert engine.journal_header(4)["workloads"] == oracle_digest(
            [oracle_encode(workload) for workload in workloads]
        )


class TestMemo:
    def test_replace_recomputes(self):
        job = golden_jobs()["gemm"]
        first = job.job_hash()
        assert job.with_updates(seed=7).job_hash() == golden_jobs()["seed_7"].job_hash()
        assert job.with_updates(seed=7).job_hash() != first
        assert job.with_updates(label="x").job_hash() == first

    def test_memo_is_invisible_to_equality_repr_and_fields(self):
        hashed, fresh = golden_jobs()["gemm"], golden_jobs()["gemm"]
        hashed.job_hash()
        assert hashed == fresh and hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert dataclasses.asdict(hashed) == dataclasses.asdict(fresh)

    def test_pickle_bytes_do_not_carry_the_memo(self):
        job = golden_jobs()["conv3x3"]
        before = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        key = job.job_hash()
        assert pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL) == before
        clone = pickle.loads(before)
        assert "_job_hash" not in vars(clone)
        assert clone == job and clone.job_hash() == key

    def test_a_foreign_pickle_cannot_inject_a_key(self):
        job = golden_jobs()["gemm"]
        forged = SimJob.__new__(SimJob)
        forged.__setstate__({**vars(job), "_job_hash": "0" * 64})
        assert forged.job_hash() == job.job_hash()

    def test_threads_hashing_one_instance_agree(self):
        job = golden_jobs()["design_explored"]
        barrier = threading.Barrier(2)
        seen = []

        def work():
            barrier.wait(timeout=10)
            seen.append(job.job_hash())

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert seen == [oracle_job_hash(job)] * 2


if __name__ == "__main__":
    from repro import __version__

    FIXTURE.write_text(
        json.dumps(
            {
                "note": "written by the parent of PR 16 (double-walk encoder)",
                "package_version": __version__,
                "hashes": {name: job.job_hash() for name, job in golden_jobs().items()},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
