"""Tests for the ExperimentConfig/ExperimentResult API and the entry point."""

import json

import pytest

from repro.experiments.base import (
    SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentResult,
    experiment,
)


class TestConfigNormalization:
    def test_id_upper_cased(self):
        assert ExperimentConfig("e1").experiment_id == "E1"

    def test_full_and_seed_coerced(self):
        cfg = ExperimentConfig("E1", full=1, seed="7")
        assert cfg.full is True
        assert cfg.seed == 7

    def test_quick_is_not_full(self):
        assert ExperimentConfig("E1").quick is True
        assert ExperimentConfig("E1", full=True).quick is False

    def test_params_dict_frozen_and_hashable(self):
        cfg = ExperimentConfig("E1", params={"b": [2, 1], "a": {"x": 1}})
        hash(cfg)  # must not raise
        assert cfg.param("b") == [2, 1]
        assert cfg.param("a") == [["x", 1]]  # dicts freeze to sorted pairs
        assert cfg.param("missing", 42) == 42

    def test_params_order_insensitive(self):
        a = ExperimentConfig("E1", params={"x": 1, "y": 2})
        b = ExperimentConfig("E1", params={"y": 2, "x": 1})
        assert a == b
        assert a.content_hash() == b.content_hash()


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = ExperimentConfig("A1", full=True, seed=3, params={"policies": ["greedy"]})
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.content_hash() == cfg.content_hash()

    def test_round_trip_through_json(self):
        cfg = ExperimentConfig("E9", params={"policies": ["none", "oracle"]})
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg

    def test_schema_version_stamped(self):
        assert ExperimentConfig("E1").to_dict()["schema_version"] == SCHEMA_VERSION

    def test_unsupported_schema_rejected(self):
        payload = ExperimentConfig("E1").to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            ExperimentConfig.from_dict(payload)

    def test_content_hash_distinguishes_configs(self):
        base = ExperimentConfig("E1")
        assert base.content_hash() != ExperimentConfig("E1", seed=1).content_hash()
        assert base.content_hash() != ExperimentConfig("E1", full=True).content_hash()
        assert base.content_hash() != ExperimentConfig("E2").content_hash()
        assert (
            base.content_hash()
            != ExperimentConfig("E1", params={"k": 1}).content_hash()
        )


class TestResultSerialization:
    def _result(self):
        return ExperimentResult(
            experiment_id="E1",
            title="t",
            paper_claim="c",
            rows=[{"op_pct": 0.0, "wa": 1.5}],
            headline={"factor": 2.0},
            notes="n",
        )

    def test_round_trip(self):
        result = self._result()
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone == result

    def test_round_trip_through_json(self):
        result = self._result()
        clone = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_unsupported_schema_rejected(self):
        payload = self._result().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            ExperimentResult.from_dict(payload)

    def test_metrics_omitted_when_empty(self):
        assert "metrics" not in self._result().to_dict()

    def test_metrics_round_trip(self):
        result = self._result()
        result.metrics = {"flash_ops": {"flash.nand": {"read": 2}}}
        clone = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.metrics == result.metrics


@experiment("X1")
def _demo_run(config):
    return ExperimentResult(
        experiment_id="X1",
        title="demo",
        paper_claim="",
        headline={"full": config.full, "seed": config.seed, "knob": config.param("knob")},
    )


class TestExperimentDecorator:
    def test_config_call(self):
        result = _demo_run(ExperimentConfig("X1", full=True, seed=5))
        assert result.headline == {"full": True, "seed": 5, "knob": None}

    def test_params_flow_through_config(self):
        result = _demo_run(ExperimentConfig("X1", params={"knob": 3}))
        assert result.headline["knob"] == 3

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            _demo_run(quick=False, seed=5)

    def test_legacy_positional_quick_rejected(self):
        with pytest.raises(TypeError, match="ExperimentConfig"):
            _demo_run(False)

    def test_missing_config_rejected(self):
        with pytest.raises(TypeError):
            _demo_run()

    def test_non_config_positional_rejected(self):
        with pytest.raises(TypeError, match="ExperimentConfig"):
            _demo_run({"experiment_id": "X1"})

    def test_wrong_experiment_id_rejected(self):
        with pytest.raises(ValueError, match="X1"):
            _demo_run(ExperimentConfig("E1"))

    def test_wrapper_metadata(self):
        assert _demo_run.experiment_id == "X1"
        assert callable(_demo_run.__wrapped_config_fn__)
