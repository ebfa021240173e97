"""RuntimeConfig: env parsing, the bool convention, pinning and overrides."""

from pathlib import Path

import pytest

from repro.config import (
    ENV_CACHE_DIR,
    ENV_FULL_SUITE,
    ENV_FUZZ_SEED,
    ENV_JOURNAL_DIR,
    ENV_METRICS_PORT,
    ENV_SERVE_SHARDS,
    RuntimeConfig,
    get_config,
    override,
    reset_config,
    set_config,
)
from repro.config import _parse_bool


@pytest.fixture(autouse=True)
def _unpinned():
    """Every test starts and ends with no pinned configuration."""
    reset_config()
    yield
    reset_config()


class TestFromEnv:
    def test_defaults_with_empty_environ(self):
        config = RuntimeConfig.from_env({})
        assert config.cache_dir == Path.home() / ".cache" / "repro-datamaestro"
        assert config.journal_dir == config.cache_dir / "journal"
        assert config.full_suite is False
        assert config.serve_shards == 0
        assert config.fuzz_seed == 0

    def test_reads_every_knob(self, tmp_path):
        config = RuntimeConfig.from_env(
            {
                ENV_CACHE_DIR: str(tmp_path / "cache"),
                ENV_JOURNAL_DIR: str(tmp_path / "journal"),
                ENV_FULL_SUITE: "1",
                ENV_SERVE_SHARDS: "4",
                ENV_FUZZ_SEED: "1234",
            }
        )
        assert config.cache_dir == tmp_path / "cache"
        assert config.journal_dir == tmp_path / "journal"
        assert config.full_suite is True
        assert config.serve_shards == 4
        assert config.fuzz_seed == 1234

    def test_journal_dir_defaults_under_cache_dir(self, tmp_path):
        config = RuntimeConfig.from_env({ENV_CACHE_DIR: str(tmp_path)})
        assert config.journal_dir == tmp_path / "journal"

    @pytest.mark.parametrize(
        "name", [ENV_SERVE_SHARDS, ENV_METRICS_PORT, ENV_FUZZ_SEED]
    )
    def test_a_non_integer_is_a_typed_error(self, name):
        with pytest.raises(ValueError, match=f"^{name}='many' is not an integer$"):
            RuntimeConfig.from_env({name: "many"})

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(serve_shards=-1)

    def test_negative_fuzz_seed_is_legal(self):
        # Any int seeds random.Random; only non-ints are rejected.
        config = RuntimeConfig.from_env({ENV_FUZZ_SEED: "-3"})
        assert config.fuzz_seed == -3


class TestBoolConvention:
    """The historical scattered readers all used this exact convention."""

    @pytest.mark.parametrize("value", [None, "", "0", "false", "False"])
    def test_falsy(self, value):
        assert _parse_bool(value) is False

    @pytest.mark.parametrize("value", ["1", "true", "True", "yes", "anything"])
    def test_truthy(self, value):
        assert _parse_bool(value) is True


class TestProcessWideAccess:
    def test_get_config_rereads_env(self, monkeypatch, tmp_path):
        """monkeypatch.setenv keeps working because nothing is cached."""
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "a"))
        assert get_config().cache_dir == tmp_path / "a"
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "b"))
        assert get_config().cache_dir == tmp_path / "b"

    def test_pinning_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_SERVE_SHARDS, "8")
        set_config(RuntimeConfig(serve_shards=2))
        assert get_config().serve_shards == 2
        reset_config()
        assert get_config().serve_shards == 8

    def test_override_context_manager_restores(self):
        before = get_config()
        with override(full_suite=True, serve_shards=3) as pinned:
            assert pinned.full_suite is True
            assert get_config().serve_shards == 3
        assert get_config().full_suite == before.full_suite

    def test_with_overrides_returns_new_frozen_copy(self):
        base = RuntimeConfig()
        changed = base.with_overrides(full_suite=True)
        assert changed is not base
        assert changed.full_suite and not base.full_suite
        with pytest.raises(Exception):
            changed.full_suite = False  # frozen

    def test_cache_dir_override_moves_a_derived_journal_dir(self, tmp_path):
        base = RuntimeConfig(cache_dir=tmp_path / "a")
        moved = base.with_overrides(cache_dir=tmp_path / "b")
        assert moved.journal_dir == tmp_path / "b" / "journal"
        # ... and keeps doing so through a second override.
        again = moved.with_overrides(serve_shards=2).with_overrides(cache_dir=tmp_path / "c")
        assert again.journal_dir == tmp_path / "c" / "journal"
        with override(cache_dir=tmp_path / "d") as pinned:
            assert pinned.journal_dir == tmp_path / "d" / "journal"

    def test_cache_dir_override_keeps_an_explicit_journal_dir(self, tmp_path):
        explicit = RuntimeConfig(cache_dir=tmp_path / "a", journal_dir=tmp_path / "j")
        moved = explicit.with_overrides(cache_dir=tmp_path / "b")
        assert moved.journal_dir == tmp_path / "j"
        from_env = RuntimeConfig.from_env({ENV_JOURNAL_DIR: str(tmp_path / "j")})
        assert from_env.with_overrides(cache_dir=tmp_path / "b").journal_dir == tmp_path / "j"

    def test_as_dict_stringifies_paths(self, tmp_path):
        config = RuntimeConfig(cache_dir=tmp_path, trace_path=tmp_path / "trace.json")
        summary = config.as_dict()
        assert summary["cache_dir"] == str(tmp_path)
        assert summary["trace_path"] == str(tmp_path / "trace.json")
        assert summary["full_suite"] is False
