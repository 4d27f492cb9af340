"""Tests for the content-addressed result cache."""

from repro.exec.cache import ResultCache, code_version, default_cache_dir
from repro.experiments.base import ExperimentConfig, ExperimentResult


def make_result(experiment_id="E2", factor=2.0):
    return ExperimentResult(
        experiment_id=experiment_id,
        title="t",
        paper_claim="c",
        rows=[{"k": 1}],
        headline={"factor": factor},
    )


class TestKeying:
    def test_key_depends_on_config(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        a = ExperimentConfig("E1")
        assert cache.key(a) == cache.key(ExperimentConfig("e1"))
        assert cache.key(a) != cache.key(ExperimentConfig("E1", seed=1))
        assert cache.key(a) != cache.key(ExperimentConfig("E1", full=True))
        assert cache.key(a) != cache.key(ExperimentConfig("E1", params={"x": 1}))

    def test_key_depends_on_code_version(self, tmp_path):
        config = ExperimentConfig("E1")
        old = ResultCache(tmp_path, version="v1")
        new = ResultCache(tmp_path, version="v2")
        assert old.key(config) != new.key(config)

    def test_code_version_is_stable_hex(self):
        version = code_version()
        assert version == code_version()
        int(version, 16)
        assert len(version) == 16


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        config = ExperimentConfig("E2")
        assert cache.get(config) is None
        cache.put(config, make_result())
        got = cache.get(config)
        assert got == make_result()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        cache.put(ExperimentConfig("E2"), make_result())
        assert cache.get(ExperimentConfig("E2", seed=1)) is None
        assert cache.get(ExperimentConfig("E2", full=True)) is None

    def test_code_version_bump_invalidates(self, tmp_path):
        config = ExperimentConfig("E2")
        ResultCache(tmp_path, version="v1").put(config, make_result())
        assert ResultCache(tmp_path, version="v1").get(config) is not None
        assert ResultCache(tmp_path, version="v2").get(config) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        config = ExperimentConfig("E2")
        cache.put(config, make_result())
        cache.path(config).write_text("{not json")
        assert cache.get(config) is None

    def test_wrong_experiment_id_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        config = ExperimentConfig("E2")
        cache.put(config, make_result(experiment_id="E3"))
        assert cache.get(config) is None


class TestDefaultDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ZNS_REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("ZNS_REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "zns-repro"
