"""Wire-protocol units: spec validation, codecs, stream events.

The load-bearing invariant is *campaign identity*: a service spec must
derive exactly the tasks, task keys and campaign key the one-shot
``sweep()`` path derives from the same inputs, or the service would
address a parallel universe of cache entries and ``attach`` could
never resume a one-shot campaign.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.analysis.sweeps import sweep_tasks
from repro.runner import campaign_key, task_keys
from repro.service import protocol
from repro.service.protocol import (
    SPEC_SCHEMA,
    ProtocolError,
    config_from_dict,
    config_to_dict,
    decode_line,
    encode_line,
    normalize_spec,
    spec_campaign,
    spec_tasks,
    stream_event,
    stream_header,
    sweep_spec,
)

from .conftest import SERVICE, SIZES, small_config

GRID = (0.3, 0.4, 0.5)


class TestConfigCodec:
    @pytest.mark.parametrize("policy", ["GS", "LS", "LP", "SC"])
    def test_round_trip(self, policy):
        config = small_config(policy)
        assert config_from_dict(config_to_dict(config)) == config

    def test_tuple_fields_restored(self):
        payload = config_to_dict(small_config("GS"))
        # JSON transport turns tuples into lists.
        payload["capacities"] = list(payload["capacities"])
        payload["routing_weights"] = list(payload["routing_weights"])
        restored = config_from_dict(payload)
        assert isinstance(restored.capacities, tuple)
        assert restored == small_config("GS")

    def test_unknown_field_rejected(self):
        payload = config_to_dict(small_config())
        payload["frobnication"] = 3
        with pytest.raises(ProtocolError, match="unknown config field"):
            config_from_dict(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            config_from_dict([1, 2, 3])


class TestNormalizeSpec:
    def test_canonical_form_carries_defaults(self):
        spec = normalize_spec({
            "label": "x",
            "cells": [{"config": config_to_dict(small_config()),
                       "offered_gross": 0.4}],
        })
        assert spec["schema"] == SPEC_SCHEMA
        assert spec["kind"] == "sweep"
        assert spec["workload"] == "das-s-128"
        assert spec["backend"] == "scalar"
        assert spec["stop_after_saturation"] is None

    def test_normalization_is_idempotent(self):
        spec = sweep_spec("x", small_config(), GRID)
        assert normalize_spec(spec) == spec

    @pytest.mark.parametrize("mutation, message", [
        (dict(schema="repro.service/spec/999"), "schema"),
        (dict(label=""), "label"),
        (dict(kind=7), "kind"),
        (dict(workload="das-s-1024"), "unknown workload"),
        (dict(backend="gpu"), "unknown backend"),
        (dict(stop_after_saturation=0), "stop_after_saturation"),
        (dict(stop_after_saturation=True), "stop_after_saturation"),
        (dict(cells=[]), "cells"),
    ])
    def test_malformed_specs_rejected(self, mutation, message):
        spec = dict(sweep_spec("x", small_config(), GRID))
        spec.update(mutation)
        with pytest.raises(ProtocolError, match=message):
            normalize_spec(spec)

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ProtocolError, match="duplicates"):
            sweep_spec("x", small_config(), (0.4, 0.4))

    @pytest.mark.parametrize("weights", [
        (math.nan, 1.0, 1.0, 1.0),
        (math.inf, 1.0, 1.0, 1.0),
        (-1.0, 1.0, 1.0, 1.0),
    ])
    def test_bad_routing_weights_rejected(self, weights):
        # The run's QueueRouter would refuse them; the spec must fail at
        # submission, not as a failed campaign, also behind a good cell.
        good = small_config("LS")
        bad = small_config("LS", routing_weights=weights)
        with pytest.raises(ProtocolError, match="bad config: weights"):
            normalize_spec({"label": "x",
                            "cells": [{"config": config_to_dict(config),
                                       "offered_gross": 0.4}
                                      for config in (good, bad)]})


class TestCampaignIdentity:
    def test_spec_tasks_match_one_shot_sweep_tasks(self):
        config = small_config("LS")
        spec = sweep_spec("LS", config, GRID)
        built = spec_tasks(spec)
        expected = sweep_tasks(config, SIZES, SERVICE, GRID, "scalar")
        assert [(t.config, t.offered_gross, t.backend) for t in built] \
            == [(t.config, t.offered_gross, t.backend) for t in expected]
        # Content-hash identity covers the distributions too.
        assert task_keys(built) == task_keys(expected)

    def test_campaign_key_matches_one_shot_campaign(self):
        config = small_config("GS")
        spec = sweep_spec("GS", config, GRID)
        campaign, tasks, keys = spec_campaign(spec)
        expected_keys = task_keys(
            sweep_tasks(config, SIZES, SERVICE, GRID, "scalar"))
        assert keys == expected_keys
        assert campaign == campaign_key("sweep", "GS", expected_keys)

    def test_backend_resolves_before_keys(self):
        # The backend never reaches a key: every backend a spec may
        # name addresses the same cache entries (and the spec keeps
        # the field, so old clients and ledgers still parse).
        config = small_config("GS")
        keys = {backend: spec_campaign(sweep_spec(
                    "GS", config, GRID, backend=backend))[2]
                for backend in ("scalar", "batch", "auto")}
        assert keys["auto"] == keys["batch"] == keys["scalar"]


class TestWireFraming:
    def test_line_round_trip(self):
        payload = {"op": "submit", "spec": {"a": [1, 2.5, None]}}
        raw = encode_line(payload)
        assert raw.endswith(b"\n") and b"\n" not in raw[:-1]
        assert decode_line(raw) == payload

    def test_garbage_line_rejected(self):
        with pytest.raises(ProtocolError, match="bad protocol line"):
            decode_line(b"{nope\n")

    def test_non_object_line_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            decode_line(b"[1, 2]\n")


class TestStreamEvents:
    def test_header_shape(self):
        header = stream_header("deadbeef")
        assert header["schema"] == protocol.EVENT_SCHEMA
        assert header["stream"] == protocol.STREAM_SCHEMA
        assert header["campaign"] == "deadbeef"

    def test_sequence_numbers_are_per_stream_monotone(self):
        seq = itertools.count()
        first = stream_event(seq, "error", message="a")
        second = stream_event(seq, "error", message="b")
        assert (first["t"], second["t"]) == (0.0, 1.0)

    def test_unregistered_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unregistered"):
            stream_event(itertools.count(), "departure", job=1)

    def test_payload_keys_checked_against_registry(self):
        with pytest.raises(ProtocolError, match="payload keys"):
            stream_event(itertools.count(), "point", key="k")
