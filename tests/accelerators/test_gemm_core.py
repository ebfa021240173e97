"""Unit tests for the GeMM core datapath (stream-fed MAC array)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import GemmCore, GemmJob
from repro.utils import bytes_to_tile, tile_to_bytes


class FakeSource:
    """Scripted read-stream stand-in delivering pre-packed words."""

    def __init__(self, words, valid_pattern=None):
        self.words = list(words)
        self.index = 0
        self.valid_pattern = valid_pattern
        self.cycle = 0

    def output_valid(self):
        if self.index >= len(self.words):
            return False
        if self.valid_pattern is None:
            return True
        return self.valid_pattern(self.cycle)

    def pop_word(self):
        word = self.words[self.index]
        self.index += 1
        return word

    def tick(self):
        self.cycle += 1


class FakeSink:
    """Collects output words; can be made intermittently unavailable."""

    def __init__(self, ready=True):
        self.words = []
        self.ready = ready

    def input_ready(self):
        return self.ready

    def push_input(self, word):
        if not self.ready:
            raise RuntimeError("pushed while not ready")
        self.words.append(np.asarray(word))


def make_tiles(rng, tiles_m, tiles_n, tiles_k, mu=8, nu=8, ku=8):
    """Generate tile streams plus the expected accumulated outputs."""
    a_words, b_words, c_words, expected = [], [], [], []
    for m2 in range(tiles_m):
        for n2 in range(tiles_n):
            acc = rng.integers(-100, 100, size=(mu, nu)).astype(np.int32)
            c_words.append(tile_to_bytes(acc))
            acc = acc.copy()
            for _ in range(tiles_k):
                a = rng.integers(-64, 64, size=(mu, ku)).astype(np.int8)
                b = rng.integers(-64, 64, size=(ku, nu)).astype(np.int8)
                a_words.append(tile_to_bytes(a))
                b_words.append(tile_to_bytes(b))
                acc = acc + a.astype(np.int32) @ b.astype(np.int32)
            expected.append(acc)
    return a_words, b_words, c_words, expected


def run_core(core, job, a_words, b_words, c_words, sink, max_cycles=10_000):
    core.bind(
        a_stream=FakeSource(a_words),
        b_stream=FakeSource(b_words),
        output_sink=sink,
        c_stream=FakeSource(c_words) if c_words is not None else None,
    )
    core.configure(job)
    cycles = 0
    while core.busy and cycles < max_cycles:
        core.step()
        cycles += 1
    assert core.done, "core did not finish"
    return cycles


class TestGemmCoreFunctional:
    def test_single_tile_single_k(self):
        rng = np.random.default_rng(0)
        a_words, b_words, c_words, expected = make_tiles(rng, 1, 1, 1)
        core = GemmCore()
        sink = FakeSink()
        run_core(core, GemmJob(1, 1, 1), a_words, b_words, c_words, sink)
        result = bytes_to_tile(sink.words[0], (8, 8), np.int32)
        assert np.array_equal(result, expected[0])

    def test_multi_tile_accumulation(self):
        rng = np.random.default_rng(1)
        a_words, b_words, c_words, expected = make_tiles(rng, 2, 3, 4)
        core = GemmCore()
        sink = FakeSink()
        cycles = run_core(core, GemmJob(2, 3, 4), a_words, b_words, c_words, sink)
        assert len(sink.words) == 6
        for word, exp in zip(sink.words, expected):
            assert np.array_equal(bytes_to_tile(word, (8, 8), np.int32), exp)
        assert core.mac_cycles == 2 * 3 * 4
        assert cycles == core.mac_cycles  # no stalls with always-valid streams

    def test_zero_init_without_c_stream(self):
        rng = np.random.default_rng(2)
        a_words, b_words, _, _ = make_tiles(rng, 1, 1, 2)
        core = GemmCore()
        sink = FakeSink()
        job = GemmJob(1, 1, 2, use_init_stream=False)
        run_core(core, job, a_words, b_words, None, sink)
        a0 = bytes_to_tile(a_words[0], (8, 8), np.int8).astype(np.int32)
        b0 = bytes_to_tile(b_words[0], (8, 8), np.int8).astype(np.int32)
        a1 = bytes_to_tile(a_words[1], (8, 8), np.int8).astype(np.int32)
        b1 = bytes_to_tile(b_words[1], (8, 8), np.int8).astype(np.int32)
        expected = a0 @ b0 + a1 @ b1
        assert np.array_equal(bytes_to_tile(sink.words[0], (8, 8), np.int32), expected)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_numpy_for_random_tiles(self, seed):
        rng = np.random.default_rng(seed)
        tiles_m, tiles_n, tiles_k = 1, 2, 3
        a_words, b_words, c_words, expected = make_tiles(rng, tiles_m, tiles_n, tiles_k)
        core = GemmCore()
        sink = FakeSink()
        run_core(core, GemmJob(tiles_m, tiles_n, tiles_k), a_words, b_words, c_words, sink)
        for word, exp in zip(sink.words, expected):
            assert np.array_equal(bytes_to_tile(word, (8, 8), np.int32), exp)


class TestGemmCoreWraparound:
    def test_per_cycle_tile_matches_the_batch_and_an_int64_reference(self):
        """int32 wraps the same way per cycle, batched and mod 2**32."""
        rng = np.random.default_rng(6)
        tiles_k = 3
        init = np.full((8, 8), np.iinfo(np.int32).max - 100, dtype=np.int32)
        a = [np.full((8, 8), 127, dtype=np.int8) for _ in range(tiles_k)]
        b = [
            rng.integers(100, 128, size=(8, 8)).astype(np.int8) for _ in range(tiles_k)
        ]
        a_words = [tile_to_bytes(tile) for tile in a]
        b_words = [tile_to_bytes(tile) for tile in b]
        core = GemmCore()
        sink = FakeSink()
        job = GemmJob(1, 1, tiles_k)
        run_core(core, job, a_words, b_words, [tile_to_bytes(init)], sink)

        reference = init.astype(np.int64)
        for a_tile, b_tile in zip(a, b):
            reference += a_tile.astype(np.int64) @ b_tile.astype(np.int64)
        assert reference.max() > np.iinfo(np.int32).max  # it does wrap
        wrapped = (reference % 2**32).astype(np.uint32).view(np.int32)
        batch = core.compute_tiles_batch(
            1, np.stack(a_words), np.stack(b_words), tile_to_bytes(init)[None]
        )
        assert np.array_equal(np.asarray(sink.words[0]), batch[0])
        assert np.array_equal(bytes_to_tile(sink.words[0], (8, 8), np.int32), wrapped)

    @pytest.mark.parametrize("mu, nu, ku", [(8, 8, 8), (4, 8, 2)])
    def test_a_multi_tile_batch_matches_an_int64_reference(self, mu, nu, ku):
        """Each tile of a batch reduces over its own ``tiles_k`` words only,
        in pop order, and wraps mod 2**32 from its own init word."""
        rng = np.random.default_rng(42)
        count, tiles_k = 5, 3
        a = rng.integers(-128, 128, size=(count, tiles_k, mu, ku)).astype(np.int8)
        b = rng.integers(-128, 128, size=(count, tiles_k, ku, nu)).astype(np.int8)
        init = rng.integers(-(2**31), 2**31, size=(count, mu, nu)).astype(np.int32)
        init[::2] = np.iinfo(np.int32).max - 10
        core = GemmCore(mu, nu, ku)
        core.configure(GemmJob(count, 1, tiles_k, use_init_stream=False))
        batch = core.compute_tiles_batch(
            count,
            a.view(np.uint8).reshape(count * tiles_k, -1),
            b.view(np.uint8).reshape(count * tiles_k, -1),
            init.view(np.uint8).reshape(count, -1),
        )

        reference = init.astype(np.int64) + np.einsum(
            "tkij,tkjl->til", a.astype(np.int64), b.astype(np.int64)
        )
        assert reference.max() > np.iinfo(np.int32).max  # it does wrap
        wrapped = (reference % 2**32).astype(np.uint32).view(np.int32)
        assert batch.shape == (count, mu * nu * 4)
        assert np.array_equal(batch.view(np.int32).reshape(count, mu, nu), wrapped)

    @pytest.mark.parametrize("port, mac", [("A", 1), ("B", 4), ("C", 0), ("C", 3)])
    def test_a_wrong_width_word_raises_at_the_mac_that_pops_it(self, port, mac):
        """Mid-tile too: two short words must not join into one tile."""
        tiles_k = 3
        rng = np.random.default_rng(7)
        a_words, b_words, c_words, _ = make_tiles(rng, 1, 2, tiles_k)
        words = {"A": a_words, "B": b_words, "C": c_words}[port]
        victim = mac // tiles_k if port == "C" else mac
        words[victim] = words[victim][:-4]
        core = GemmCore()
        core.bind(
            FakeSource(a_words), FakeSource(b_words), FakeSink(), FakeSource(c_words)
        )
        core.configure(GemmJob(1, 2, tiles_k))
        for _ in range(mac):
            assert core.step()
        expected = 256 if port == "C" else 64
        message = f"port {port}: word of {expected - 4} bytes, expected {expected}"
        with pytest.raises(ValueError, match=message):
            core.step()
        assert core.mac_cycles == mac


class TestGemmCoreTiming:
    def test_stalls_when_inputs_missing(self):
        rng = np.random.default_rng(3)
        a_words, b_words, c_words, _ = make_tiles(rng, 1, 1, 2)
        core = GemmCore()
        sink = FakeSink()
        # A stream only valid every other cycle.
        core.bind(
            a_stream=FakeSource(a_words, valid_pattern=lambda c: c % 2 == 0),
            b_stream=FakeSource(b_words),
            output_sink=sink,
            c_stream=FakeSource(c_words),
        )
        core.configure(GemmJob(1, 1, 2))
        cycles = 0
        while core.busy and cycles < 100:
            fired = core.step()
            core.a_stream.tick()
            cycles += 1
        assert core.done
        assert core.stall_cycles > 0
        assert core.mac_cycles == 2

    def test_stalls_when_sink_not_ready(self):
        rng = np.random.default_rng(4)
        a_words, b_words, c_words, _ = make_tiles(rng, 1, 1, 1)
        core = GemmCore()
        sink = FakeSink(ready=False)
        core.bind(FakeSource(a_words), FakeSource(b_words), sink, FakeSource(c_words))
        core.configure(GemmJob(1, 1, 1))
        for _ in range(5):
            assert not core.step()
        assert core.stall_cycles == 5
        sink.ready = True
        assert core.step()
        assert core.done

    def test_progress_property(self):
        rng = np.random.default_rng(5)
        a_words, b_words, c_words, _ = make_tiles(rng, 1, 1, 4)
        core = GemmCore()
        sink = FakeSink()
        core.bind(FakeSource(a_words), FakeSource(b_words), sink, FakeSource(c_words))
        core.configure(GemmJob(1, 1, 4))
        assert core.progress == 0.0
        core.step()
        assert core.progress == pytest.approx(0.25)
        while core.busy:
            core.step()
        assert core.progress == 1.0


class TestGemmCoreValidation:
    def test_invalid_job(self):
        with pytest.raises(ValueError):
            GemmJob(0, 1, 1)

    def test_invalid_array_dims(self):
        with pytest.raises(ValueError):
            GemmCore(mu=0)

    def test_init_stream_required_when_requested(self):
        core = GemmCore()
        core.bind(FakeSource([]), FakeSource([]), FakeSink(), c_stream=None)
        with pytest.raises(ValueError):
            core.configure(GemmJob(1, 1, 1, use_init_stream=True))

    def test_step_before_bind_raises(self):
        core = GemmCore()
        core.configure(GemmJob(1, 1, 1, use_init_stream=False))  # unbound
        with pytest.raises(RuntimeError):
            core.step()

    def test_ideal_cycles_and_word_sizes(self):
        core = GemmCore(mu=8, nu=8, ku=8)
        assert core.num_pes == 512
        assert core.a_word_bytes == 64
        assert core.b_word_bytes == 64
        assert core.acc_word_bytes == 256
        assert GemmJob(2, 3, 4).ideal_compute_cycles == 24
