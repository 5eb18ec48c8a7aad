"""Tests for the declarative experiment spec model."""

import pytest

from repro.cpu import simulator
from repro.errors import ConfigurationError
from repro.experiments import spec as spec_module
from repro.experiments.spec import ExperimentSpec, Trial, canonical_json


def make_spec(**overrides):
    kwargs = dict(
        name="demo",
        version="1",
        axes={"a": [1, 2], "b": ["x", "y", "z"]},
        fixed={"c": 7},
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestExpansion:
    def test_cross_product_size_and_order(self):
        spec = make_spec()
        trials = spec.trials()
        assert len(trials) == spec.num_trials == 6
        # Last axis varies fastest; indices follow expansion order.
        assert [t.params["a"] for t in trials] == [1, 1, 1, 2, 2, 2]
        assert [t.params["b"] for t in trials] == ["x", "y", "z"] * 2
        assert [t.index for t in trials] == list(range(6))

    def test_fixed_params_merged_into_every_trial(self):
        assert all(t.params["c"] == 7 for t in make_spec().trials())

    def test_axis_value_overrides_nothing(self):
        with pytest.raises(ConfigurationError):
            make_spec(fixed={"a": 9})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(axes={"a": []})

    def test_no_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(axes={})

    def test_non_json_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(fixed={"c": object()})


class TestCacheKeys:
    def test_key_is_stable_across_expansions(self):
        first = make_spec()
        second = make_spec()
        for a, b in zip(first.trials(), second.trials()):
            assert first.cache_key(a) == second.cache_key(b)

    def test_key_ignores_dict_insertion_order(self):
        spec = make_spec()
        forward = Trial(experiment="demo", index=0, params={"a": 1, "b": "x", "c": 7})
        backward = Trial(experiment="demo", index=0, params={"c": 7, "b": "x", "a": 1})
        assert spec.cache_key(forward) == spec.cache_key(backward)

    def test_key_depends_on_params_version_and_name(self, monkeypatch):
        spec = make_spec()
        trials = spec.trials()
        assert spec.cache_key(trials[0]) != spec.cache_key(trials[1])
        bumped = make_spec(version="2")
        assert spec.cache_key(trials[0]) != bumped.cache_key(trials[0])
        renamed = make_spec(name="other")
        assert spec.cache_key(trials[0]) != renamed.cache_key(trials[0])
        # One simulator model bump invalidates every trial row as well as the
        # simblocks store: the key reads the simulator's own constant.
        assert spec_module.SIMULATOR_MODEL_VERSION is simulator.SIMULATOR_MODEL_VERSION
        before = spec.cache_key(trials[0])
        monkeypatch.setattr(
            spec_module, "SIMULATOR_MODEL_VERSION", simulator.SIMULATOR_MODEL_VERSION + "+1"
        )
        assert spec.cache_key(trials[0]) != before

    def test_key_looks_like_sha256(self):
        spec = make_spec()
        key = spec.cache_key(spec.trials()[0])
        assert len(key) == 64 and int(key, 16) >= 0


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_rejects_unserializable(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"a": object()})
