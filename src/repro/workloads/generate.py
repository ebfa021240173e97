"""Seeded generative workload sampler: random *legal* kernels + a shrinker.

The hand-written suites (:mod:`repro.workloads.synthetic`, the network layer
tables) cover the paper's evaluation grid, but property-based testing needs
the opposite: arbitrary shapes nobody thought of.  :class:`WorkloadGenerator`
materialises random workloads that are always *legal* — they satisfy the spec
validators, fit the 128 KiB scratchpad of the evaluation system, and stay
small enough that a pure-Python cycle simulation finishes in milliseconds —
via constraint-aware rejection sampling.

Beyond the classic conv/GeMM shapes the generator knows the transformer-era
families ROADMAP asks for:

``gemm`` / ``transposed_gemm`` / ``conv``
    uniform draws over the tractable shape box (dimension mix per family);
``prefill``
    the long-sequence half of LLM serving: GeMMs with M ≫ N (many tokens
    through a narrow projection slice);
``decode``
    the autoregressive half: M ∈ {1..4} token GeMMs, the skinny-matrix
    corner the streamers' padding logic must get right;
``ragged_gemm``
    a *bundle* of grouped GeMMs sharing (N, K) with ragged per-group M —
    variable-length batch members through one projection;
``moe``
    a *bundle* of per-expert GeMMs whose token counts follow a Zipf-skewed
    dispatch — a few hot experts, a long tail of nearly idle ones.

Failing cases found by fuzzing are minimised with :func:`shrink`, a greedy
descent over per-field reduction moves that preserves legality at every step,
and :func:`regression_snippet` renders the survivor as a ready-to-paste
pytest function.

Determinism contract: one ``WorkloadGenerator(seed)`` instance replays the
identical draw sequence on every platform (it uses :mod:`random`'s portable
Mersenne Twister, never the process-global RNG).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .spec import ConvWorkload, GemmWorkload, Workload

__all__ = [
    "FAMILIES",
    "BUNDLE_FAMILIES",
    "GeneratedCase",
    "WorkloadGenerator",
    "regression_snippet",
    "shrink",
    "workload_fits",
    "zipf_weights",
]

#: Every family :meth:`WorkloadGenerator.draw_case` can sample.
FAMILIES = (
    "gemm",
    "transposed_gemm",
    "conv",
    "prefill",
    "decode",
    "ragged_gemm",
    "moe",
)

#: Families whose cases are bundles (several GeMMs submitted together).
BUNDLE_FAMILIES = ("ragged_gemm", "moe")

#: Scratchpad budget (bytes) every generated and synthetic-suite kernel must
#: fit: the 128 KiB evaluation-system scratchpad with headroom for the
#: fully-materialised operands of the feature-disabled configurations
#: (expanded init tiles when the Broadcaster is off).
_SCRATCHPAD_BUDGET_BYTES = 120 * 1024

#: Rejection-sampling attempts before the generator gives up.  The shape
#: boxes below make rejections rare; hitting this means the limits were
#: reconfigured into an infeasible region, which should be loud.
_MAX_ATTEMPTS = 200


def _gemm_fits(m: int, n: int, k: int) -> bool:
    """Scratchpad-fit model for GeMM (the synthetic suite's too)."""
    footprint = m * k + k * n + 8 * m * n + 4 * n
    return footprint <= _SCRATCHPAD_BUDGET_BYTES


def _conv_fits(height, width, cin, cout, kh, kw, stride) -> bool:
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        return False
    tiles_m = out_h * -(-out_w // 8)
    tiles_n = -(-cout // 8)
    footprint = (
        height * (width + 8) * max(cin, 8)
        + kh * kw * max(cin, 8) * max(cout, 8)
        + 2 * tiles_m * tiles_n * 256
    )
    return footprint <= _SCRATCHPAD_BUDGET_BYTES


def workload_fits(workload: Workload) -> bool:
    """True when ``workload`` fits the generator's scratchpad model."""
    if isinstance(workload, GemmWorkload):
        return _gemm_fits(workload.m, workload.n, workload.k)
    return _conv_fits(
        workload.in_height,
        workload.in_width,
        workload.in_channels,
        workload.out_channels,
        workload.kernel_h,
        workload.kernel_w,
        workload.stride,
    )


def zipf_weights(count: int, exponent: float = 1.2) -> List[float]:
    """Normalised Zipf weights ``1/rank^exponent`` for ``count`` ranks."""
    if count <= 0:
        raise ValueError("count must be positive")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


@dataclass(frozen=True)
class GeneratedCase:
    """One sampled scenario: a family tag plus its workload bundle.

    Scalar families carry exactly one workload; the bundle families
    (``ragged_gemm``, ``moe``) carry one GeMM per group/expert.
    """

    family: str
    seed: int
    workloads: Tuple[Workload, ...]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.workloads:
            raise ValueError("a generated case needs at least one workload")


class WorkloadGenerator:
    """Seeded sampler of random legal workloads across the scenario families.

    Parameters
    ----------
    seed:
        Deterministic replay seed; two generators with the same seed and
        limits produce identical sequences.
    families:
        Subset of :data:`FAMILIES` to sample from (default: all).
    max_gemm_m / max_gemm_n / max_gemm_k:
        Upper bounds of the GeMM shape box.  The defaults keep one
        simulation in the low-millisecond range so a fuzz run of dozens of
        cases × three engine configurations stays CI-friendly.
    max_conv_fmap / max_conv_channels:
        Upper bounds of the convolution feature-map edge and channel counts.
    """

    def __init__(
        self,
        seed: int = 0,
        families: Optional[Sequence[str]] = None,
        max_gemm_m: int = 32,
        max_gemm_n: int = 32,
        max_gemm_k: int = 48,
        max_conv_fmap: int = 12,
        max_conv_channels: int = 16,
    ) -> None:
        chosen = tuple(families) if families is not None else FAMILIES
        unknown = [f for f in chosen if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown families: {unknown!r}")
        if not chosen:
            raise ValueError("families must not be empty")
        if min(max_gemm_m, max_gemm_n, max_gemm_k) < 4:
            raise ValueError("GeMM limits must be at least 4")
        if max_conv_fmap < 3 or max_conv_channels < 1:
            raise ValueError("convolution limits too small to sample legally")
        self.seed = seed
        self.families = chosen
        self.max_gemm_m = max_gemm_m
        self.max_gemm_n = max_gemm_n
        self.max_gemm_k = max_gemm_k
        self.max_conv_fmap = max_conv_fmap
        self.max_conv_channels = max_conv_channels
        self._rng = random.Random(seed)
        self._case_index = 0
        self._samplers: Dict[str, Callable[[str], Tuple[Workload, ...]]] = {
            "gemm": self._sample_gemm,
            "transposed_gemm": self._sample_transposed_gemm,
            "conv": self._sample_conv,
            "prefill": self._sample_prefill,
            "decode": self._sample_decode,
            "ragged_gemm": self._sample_ragged,
            "moe": self._sample_moe,
        }

    # ------------------------------------------------------------------
    # Public draws.
    # ------------------------------------------------------------------
    def draw_case(self, family: Optional[str] = None) -> GeneratedCase:
        """Sample one scenario (family chosen uniformly unless given)."""
        if family is None:
            family = self._rng.choice(self.families)
        elif family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        index = self._case_index
        self._case_index += 1
        tag = f"fuzz_{self.seed}_{index}_{family}"
        workloads = self._samplers[family](tag)
        return GeneratedCase(family=family, seed=self.seed, workloads=workloads)

    def draw(self, family: Optional[str] = None) -> Workload:
        """Sample one workload (bundle families yield their first member)."""
        return self.draw_case(family).workloads[0]

    def draw_many(self, count: int, family: Optional[str] = None) -> List[GeneratedCase]:
        """Sample ``count`` independent cases."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.draw_case(family) for _ in range(count)]

    def workload_pool(self, size: int) -> List[Workload]:
        """``size`` distinct scalar workloads — the replay harness's key space."""
        if size <= 0:
            raise ValueError("size must be positive")
        scalar = [f for f in self.families if f not in BUNDLE_FAMILIES] or ["gemm"]
        pool: List[Workload] = []
        seen = set()
        attempts = 0
        while len(pool) < size:
            attempts += 1
            if attempts > _MAX_ATTEMPTS * size:
                raise RuntimeError("could not sample enough distinct workloads")
            workload = self.draw(self._rng.choice(scalar))
            shape_key = replace(workload, name="pool")
            if shape_key in seen:
                continue
            seen.add(shape_key)
            pool.append(workload)
        return pool

    # ------------------------------------------------------------------
    # Family samplers.  Every sampler rejection-loops against the fit model
    # so each returned workload is legal by construction.
    # ------------------------------------------------------------------
    def _reject(self, build: Callable[[], Workload]) -> Workload:
        for _ in range(_MAX_ATTEMPTS):
            try:
                workload = build()
            except ValueError:
                continue
            if workload_fits(workload):
                return workload
        raise RuntimeError(
            "rejection sampling failed; the configured shape limits leave "
            "no legal workloads"
        )

    def _gemm_flags(self) -> Dict[str, bool]:
        return {
            "with_bias": self._rng.random() < 0.8,
            "quantize": self._rng.random() < 0.25,
        }

    def _sample_gemm(self, tag: str) -> Tuple[Workload, ...]:
        rng = self._rng

        def build():
            return GemmWorkload(
                name=tag,
                m=rng.randint(1, self.max_gemm_m),
                n=rng.randint(1, self.max_gemm_n),
                k=rng.randint(1, self.max_gemm_k),
                **self._gemm_flags(),
            )

        return (self._reject(build),)

    def _sample_transposed_gemm(self, tag: str) -> Tuple[Workload, ...]:
        rng = self._rng

        def build():
            return GemmWorkload(
                name=tag,
                m=rng.randint(1, self.max_gemm_m),
                n=rng.randint(1, self.max_gemm_n),
                k=rng.randint(1, self.max_gemm_k),
                transposed_a=True,
                **self._gemm_flags(),
            )

        return (self._reject(build),)

    def _sample_conv(self, tag: str) -> Tuple[Workload, ...]:
        rng = self._rng

        def build():
            kernel = rng.choice((1, 3, 5))
            fmap_low = max(3, kernel)
            return ConvWorkload(
                name=tag,
                in_height=rng.randint(fmap_low, self.max_conv_fmap),
                in_width=rng.randint(fmap_low, self.max_conv_fmap),
                in_channels=rng.randint(1, self.max_conv_channels),
                out_channels=rng.randint(1, self.max_conv_channels),
                kernel_h=kernel,
                kernel_w=kernel,
                stride=rng.choice((1, 1, 2)),
                with_bias=rng.random() < 0.8,
                quantize=rng.random() < 0.25,
            )

        return (self._reject(build),)

    def _sample_prefill(self, tag: str) -> Tuple[Workload, ...]:
        """Long-sequence projection: M ≫ N, the streaming-heavy corner."""
        rng = self._rng

        def build():
            m = rng.randint(max(4, self.max_gemm_m // 2), self.max_gemm_m)
            n = rng.randint(1, max(1, self.max_gemm_n // 4))
            return GemmWorkload(
                name=tag,
                m=m,
                n=n,
                k=rng.randint(4, self.max_gemm_k),
                **self._gemm_flags(),
            )

        return (self._reject(build),)

    def _sample_decode(self, tag: str) -> Tuple[Workload, ...]:
        """Autoregressive step: 1–4 tokens through a full projection."""
        rng = self._rng

        def build():
            return GemmWorkload(
                name=tag,
                m=rng.randint(1, 4),
                n=rng.randint(4, self.max_gemm_n),
                k=rng.randint(4, self.max_gemm_k),
                **self._gemm_flags(),
            )

        return (self._reject(build),)

    def _sample_ragged(self, tag: str) -> Tuple[Workload, ...]:
        """Grouped GeMMs sharing (N, K) with ragged per-group M."""
        rng = self._rng
        groups = rng.randint(2, 4)
        n = rng.randint(4, self.max_gemm_n)
        k = rng.randint(4, self.max_gemm_k)
        flags = self._gemm_flags()
        bundle = []
        for index in range(groups):
            def build(index=index):
                return GemmWorkload(
                    name=f"{tag}_g{index}",
                    m=rng.randint(1, self.max_gemm_m),
                    n=n,
                    k=k,
                    **flags,
                )

            bundle.append(self._reject(build))
        return tuple(bundle)

    def _sample_moe(self, tag: str) -> Tuple[Workload, ...]:
        """MoE dispatch: per-expert GeMMs with Zipf-skewed token counts."""
        rng = self._rng
        experts = rng.randint(2, 4)
        tokens = rng.randint(experts, self.max_gemm_m)
        n = rng.randint(4, self.max_gemm_n)
        k = rng.randint(4, self.max_gemm_k)
        flags = self._gemm_flags()
        weights = zipf_weights(experts)
        # Deterministic largest-remainder split of the token budget so every
        # expert keeps at least one token (empty experts are not dispatched).
        counts = [max(1, int(tokens * weight)) for weight in weights]
        bundle = []
        for index, count in enumerate(counts):
            def build(index=index, count=count):
                return GemmWorkload(
                    name=f"{tag}_e{index}",
                    m=min(count, self.max_gemm_m),
                    n=n,
                    k=k,
                    **flags,
                )

            bundle.append(self._reject(build))
        return tuple(bundle)


# ----------------------------------------------------------------------
# Shrinking: greedy descent to the smallest still-failing workload.
# ----------------------------------------------------------------------
#: Integer fields the shrinker reduces, per workload kind.
_GEMM_DIMS = ("m", "n", "k")
_CONV_DIMS = (
    "in_height",
    "in_width",
    "in_channels",
    "out_channels",
    "kernel_h",
    "kernel_w",
    "stride",
    "padding",
)
#: Flag fields the shrinker tries to switch off (False is "smaller").
_FLAGS = ("transposed_a", "quantize", "with_bias")


def _candidate_values(value: int, floor: int) -> List[int]:
    """Reduction ladder for one integer field: big halving jumps first,
    then the decrement, so shrinking is O(log value) when jumps succeed."""
    candidates = []
    for smaller in (floor, value // 2, value - 1):
        if floor <= smaller < value and smaller not in candidates:
            candidates.append(smaller)
    return candidates


def _shrink_moves(workload: Workload) -> List[Workload]:
    """Legal single-field reductions of ``workload``, biggest jumps first."""
    if isinstance(workload, GemmWorkload):
        dims, floors = _GEMM_DIMS, {"m": 1, "n": 1, "k": 1}
    else:
        dims = _CONV_DIMS
        floors = {name: 1 for name in _CONV_DIMS}
        floors["padding"] = 0
    moves: List[Workload] = []
    for dim in dims:
        value = getattr(workload, dim)
        for smaller in _candidate_values(value, floors[dim]):
            try:
                moves.append(replace(workload, **{dim: smaller}))
            except ValueError:
                continue
    for flag in _FLAGS:
        if getattr(workload, flag, False):
            moves.append(replace(workload, **{flag: False}))
    return moves


def shrink(
    workload: Workload,
    predicate: Callable[[Workload], bool],
    max_steps: int = 1000,
) -> Workload:
    """Greedy minimisation: repeatedly apply the first reduction move that
    keeps ``predicate`` true (i.e. still failing), until no move does.

    ``predicate`` must be true for ``workload`` itself — shrinking a passing
    case is a caller bug and raises ``ValueError``.  The result is *1-minimal*
    under the move set: no single halving/decrement/flag-drop reproduces.
    """
    if not predicate(workload):
        raise ValueError("shrink() needs a failing workload to start from")
    current = workload
    for _ in range(max_steps):
        for move in _shrink_moves(current):
            if predicate(move):
                current = move
                break
        else:
            return current
    return current


def regression_snippet(workload: Workload, seed: int = 0) -> str:
    """Render a shrunken counterexample as a ready-to-paste pytest function.

    The emitted test calls the parity helper from
    ``tests/engine/test_parity.py`` so a paste into that file (or any module
    importing ``assert_parity``) reproduces the failure standalone.
    """
    kind = type(workload).__name__
    fields = [f"name={workload.name!r}"]
    if isinstance(workload, GemmWorkload):
        fields += [f"m={workload.m}", f"n={workload.n}", f"k={workload.k}"]
        if workload.transposed_a:
            fields.append("transposed_a=True")
    else:
        fields += [
            f"in_height={workload.in_height}",
            f"in_width={workload.in_width}",
            f"in_channels={workload.in_channels}",
            f"out_channels={workload.out_channels}",
            f"kernel_h={workload.kernel_h}",
            f"kernel_w={workload.kernel_w}",
            f"stride={workload.stride}",
        ]
        if workload.padding:
            fields.append(f"padding={workload.padding}")
    if not workload.with_bias:
        fields.append("with_bias=False")
    if workload.quantize:
        fields.append("quantize=True")
    arglist = ",\n        ".join(fields)
    return (
        f"def test_regression_{workload.name}():\n"
        f"    # Shrunken fuzz counterexample (REPRO_FUZZ_SEED={seed}).\n"
        f"    workload = {kind}(\n"
        f"        {arglist},\n"
        f"    )\n"
        f"    assert_parity(workload, seed={seed})\n"
    )
