"""Tests for datapath extensions: transposer, broadcaster, registry, cascade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Broadcaster,
    DatapathExtension,
    ExtensionPipeline,
    ExtensionSpec,
    Transposer,
    create_extension,
    register_extension,
    registered_extensions,
)


class TestTransposer:
    def test_transposes_square_int8_tile(self):
        tile = np.arange(64, dtype=np.uint8)
        transposer = Transposer(rows=8, cols=8, element_bytes=1)
        out = transposer.apply(tile)
        expected = tile.reshape(8, 8).T.reshape(-1)
        assert np.array_equal(out, expected)

    def test_transposes_rectangular_tile(self):
        tile = np.arange(2 * 4, dtype=np.uint8)
        transposer = Transposer(rows=2, cols=4, element_bytes=1)
        out = transposer.apply(tile)
        assert np.array_equal(out, tile.reshape(2, 4).T.reshape(-1))

    def test_transposes_multibyte_elements(self):
        tile = np.arange(4 * 4, dtype=np.int32)
        raw = tile.view(np.uint8)
        transposer = Transposer(rows=4, cols=4, element_bytes=4)
        out = transposer.apply(raw)
        recovered = out.view(np.int32).reshape(4, 4)
        assert np.array_equal(recovered, tile.reshape(4, 4).T)

    def test_double_transpose_is_identity(self):
        tile = np.arange(64, dtype=np.uint8)
        transposer = Transposer(rows=8, cols=8, element_bytes=1)
        assert np.array_equal(transposer.apply(transposer.apply(tile)), tile)

    def test_bypass_when_disabled(self):
        tile = np.arange(64, dtype=np.uint8)
        transposer = Transposer(rows=8, cols=8, element_bytes=1)
        transposer.set_enabled(False)
        assert np.array_equal(transposer.apply(tile), tile)
        assert transposer.words_bypassed == 1
        assert transposer.words_processed == 0

    def test_wrong_size_raises(self):
        transposer = Transposer(rows=8, cols=8, element_bytes=1)
        with pytest.raises(ValueError):
            transposer.apply(np.zeros(63, dtype=np.uint8))

    @given(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        element_bytes=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_transpose_matches_numpy(self, rows, cols, element_bytes, seed):
        rng = np.random.default_rng(seed)
        word = rng.integers(0, 256, size=rows * cols * element_bytes, dtype=np.uint8)
        transposer = Transposer(rows=rows, cols=cols, element_bytes=element_bytes)
        out = transposer.apply(word)
        expected = (
            word.reshape(rows, cols, element_bytes).transpose(1, 0, 2).reshape(-1)
        )
        assert np.array_equal(out, expected)


class TestBroadcaster:
    def test_duplicates_word(self):
        broadcaster = Broadcaster(factor=4)
        word = np.array([1, 2, 3], dtype=np.uint8)
        out = broadcaster.apply(word)
        assert np.array_equal(out, np.tile(word, 4))

    def test_factor_one_is_identity(self):
        broadcaster = Broadcaster(factor=1)
        word = np.arange(8, dtype=np.uint8)
        assert np.array_equal(broadcaster.apply(word), word)

    def test_expansion_factor(self):
        word = np.arange(4, dtype=np.uint8)
        broadcaster = Broadcaster(factor=8)
        assert broadcaster.apply(word).size == 8 * word.size
        broadcaster.set_enabled(False)
        assert broadcaster.apply(word).size == word.size

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            Broadcaster(factor=0)

    def test_runtime_reconfiguration(self):
        broadcaster = Broadcaster(factor=2)
        broadcaster.configure(factor=3)
        out = broadcaster.apply(np.array([7], dtype=np.uint8))
        assert out.size == 3


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_extensions()
        assert "transposer" in kinds
        assert "broadcaster" in kinds
        assert "identity" in kinds

    def test_create_from_spec(self):
        spec = ExtensionSpec.make("transposer", rows=4, cols=4, element_bytes=1)
        extension = create_extension(spec)
        assert isinstance(extension, Transposer)
        assert extension.params["rows"] == 4

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            create_extension(ExtensionSpec.make("does_not_exist"))

    def test_custom_extension_registration(self):
        @register_extension
        class NegateExtension(DatapathExtension):
            kind = "test_negate"

            def process(self, word):
                return (255 - word).astype(np.uint8)

        extension = create_extension(ExtensionSpec.make("test_negate"))
        out = extension.apply(np.array([0, 255, 10], dtype=np.uint8))
        assert list(out) == [255, 0, 245]


class TestPipeline:
    def test_cascade_applies_in_order(self):
        pipeline = ExtensionPipeline(
            [Transposer(rows=2, cols=2, element_bytes=1), Broadcaster(factor=2)]
        )
        word = np.array([1, 2, 3, 4], dtype=np.uint8)
        out = pipeline.apply(word)
        transposed = np.array([1, 3, 2, 4], dtype=np.uint8)
        assert np.array_equal(out, np.tile(transposed, 2))

    def test_from_specs(self):
        pipeline = ExtensionPipeline.from_specs(
            [ExtensionSpec.make("broadcaster", factor=2)]
        )
        assert len(pipeline) == 1
        assert pipeline.stage("broadcaster") is not None
        assert pipeline.stage("transposer") is None

    def test_set_enables_bypasses_stage(self):
        pipeline = ExtensionPipeline([Transposer(rows=2, cols=2, element_bytes=1)])
        pipeline.set_enables([False])
        word = np.array([1, 2, 3, 4], dtype=np.uint8)
        assert np.array_equal(pipeline.apply(word), word)

    def test_configure_stage(self):
        pipeline = ExtensionPipeline([Broadcaster(factor=2)])
        pipeline.configure_stage("broadcaster", factor=4)
        assert pipeline.apply(np.zeros(4, dtype=np.uint8)).size == 16

    def test_configure_missing_stage_raises(self):
        pipeline = ExtensionPipeline([])
        with pytest.raises(KeyError):
            pipeline.configure_stage("transposer", rows=8)

    def test_statistics(self):
        pipeline = ExtensionPipeline([Broadcaster(factor=2)])
        pipeline.apply(np.zeros(4, dtype=np.uint8))
        stats = pipeline.statistics()
        assert stats["broadcaster_0_processed"] == 1
        assert stats["broadcaster_0_bypassed"] == 0


class TestApplyBatch:
    """apply_batch must equal per-word apply, counters included."""

    def _pair(self, make):
        return make(), make()

    def test_transposer_batch_matches_scalar(self):
        import numpy as np

        scalar, batched = self._pair(
            lambda: Transposer(rows=4, cols=4, element_bytes=1)
        )
        words = np.arange(3 * 16, dtype=np.uint8).reshape(3, 16)
        expected = np.stack([scalar.apply(word) for word in words])
        result = batched.apply_batch(words)
        assert np.array_equal(result, expected)
        assert batched.words_processed == scalar.words_processed == 3

    def test_broadcaster_batch_matches_scalar(self):
        import numpy as np

        scalar, batched = self._pair(lambda: Broadcaster(factor=4))
        words = np.arange(2 * 8, dtype=np.uint8).reshape(2, 8)
        expected = np.stack([scalar.apply(word) for word in words])
        assert np.array_equal(batched.apply_batch(words), expected)
        assert batched.words_processed == 2

    def test_disabled_stage_counts_bypasses(self):
        import numpy as np

        stage = Transposer(rows=2, cols=2, element_bytes=1)
        stage.set_enabled(False)
        words = np.zeros((5, 4), dtype=np.uint8)
        out = stage.apply_batch(words)
        assert np.array_equal(out, words)
        assert stage.words_bypassed == 5
        assert stage.words_processed == 0

    def test_custom_extension_falls_back_to_per_word(self):
        import numpy as np

        class Reverser(DatapathExtension):
            kind = "reverser"

            def process(self, word):
                return word[::-1]

        stage = Reverser()
        words = np.arange(2 * 4, dtype=np.uint8).reshape(2, 4)
        out = stage.apply_batch(words)
        assert np.array_equal(out, words[:, ::-1])
        assert stage.words_processed == 2

    def test_pipeline_batch_matches_scalar_cascade(self):
        import numpy as np

        def build():
            pipeline = ExtensionPipeline(
                [Broadcaster(factor=2), Transposer(rows=4, cols=4, element_bytes=1)]
            )
            return pipeline

        scalar, batched = build(), build()
        words = np.arange(3 * 8, dtype=np.uint8).reshape(3, 8)
        expected = np.stack([scalar.apply(word) for word in words])
        assert np.array_equal(batched.apply_batch(words), expected)
        assert batched.statistics() == scalar.statistics()
