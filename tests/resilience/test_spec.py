"""ResilienceSpec construction, validation and (de)serialization."""

import pytest

from repro.exceptions import ConfigurationError
from repro.resilience import ResilienceSpec, parse_resilience


class TestSpec:
    def test_defaults_are_inert(self):
        spec = ResilienceSpec()
        assert not spec.checkpointing

    def test_checkpointing_property(self):
        assert ResilienceSpec(checkpoint_dir="/tmp/x").checkpointing

    def test_doc_roundtrip(self):
        spec = ResilienceSpec(checkpoint_dir="d", checkpoint_sim_interval=5.0,
                              checkpoint_wall_interval=0.25)
        assert ResilienceSpec.from_doc(spec.to_doc()) == spec

    def test_from_doc_ignores_unknown_fields(self):
        doc = dict(ResilienceSpec().to_doc(), future_knob=1)
        assert ResilienceSpec.from_doc(doc) == ResilienceSpec()

    @pytest.mark.parametrize("kw", [
        {"checkpoint_sim_interval": 0.0},
        {"checkpoint_sim_interval": -1.0},
        {"checkpoint_wall_interval": -0.5},
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigurationError):
            ResilienceSpec(**kw)


class TestParse:
    def test_nothing_requested_is_none(self):
        assert parse_resilience() is None
        assert parse_resilience(checkpoint=None) is None

    def test_checkpoint_dir(self):
        spec = parse_resilience(checkpoint="ck")
        assert spec.checkpoint_dir == "ck" and spec.checkpointing

    def test_intervals(self):
        spec = parse_resilience(checkpoint="ck", checkpoint_every=7.5,
                                checkpoint_wall=30.0)
        assert spec.checkpoint_sim_interval == 7.5
        assert spec.checkpoint_wall_interval == 30.0
