"""Wire versioning regression: every to_dict stamps, every from_dict
tolerates.

The policy (see :mod:`repro.core.wire`): producers stamp
``schema_version`` into every wire payload; consumers ignore unknown
keys, read a missing version as the pre-versioning v0 form, and never
reject a higher version.  These tests pin the policy for the three
long-lived wire forms — :class:`EngineConfig`, :class:`RoundReport`,
:class:`ExperimentResult` — plus the service-plane forms built on the
same machinery.
"""

import json
import math

import pytest

from repro.api import EngineConfig
from repro.core.estimators.base import RoundReport
from repro.core.wire import SCHEMA_VERSION, stamp, wire_version
from repro.errors import WireFormatError
from repro.experiments.metrics import ExperimentResult
from repro.service.governor import GovernorConfig
from repro.service.protocol import RoundRequest, TaskRequest


def _report() -> RoundReport:
    return RoundReport(
        round_index=3,
        estimates={"count": 1234.5, "bad": math.inf},
        variances={"count": 42.0, "bad": math.nan},
        queries_used=77,
        drilldowns_updated=5,
        drilldowns_new=2,
        leaf_overflows=1,
        active_drilldowns=9,
    )


def _result() -> ExperimentResult:
    result = ExperimentResult("exp", ["RS"], ["count"])
    result.start_trial()
    result.record_truth(1, {"count": 100.0})
    result.record_report("RS", {"count": 99.5}, 30, 4)
    return result


class TestStamping:
    def test_engine_config_is_stamped(self):
        assert EngineConfig().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_round_report_is_stamped(self):
        assert _report().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_experiment_result_is_stamped(self):
        assert _result().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_service_forms_are_stamped(self):
        assert TaskRequest("t").to_wire()["schema_version"] == SCHEMA_VERSION
        assert GovernorConfig().to_wire()["schema_version"] == SCHEMA_VERSION

    def test_stamped_payloads_are_strict_json(self):
        for payload in (
            EngineConfig().to_dict(), _report().to_dict(),
            _result().to_dict(),
        ):
            rebuilt = json.loads(json.dumps(payload, allow_nan=False))
            assert rebuilt["schema_version"] == SCHEMA_VERSION


class TestRoundTrip:
    """to_dict → json → from_dict restores the object exactly."""

    def test_engine_config(self):
        config = EngineConfig(
            k=17, budget_per_round=99, seed=5, report_log_limit=10,
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert EngineConfig.from_dict(payload) == config

    def test_round_report(self):
        report = _report()
        payload = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        rebuilt = RoundReport.from_dict(payload)
        assert rebuilt.round_index == report.round_index
        assert rebuilt.queries_used == report.queries_used
        assert rebuilt.estimates["count"] == report.estimates["count"]
        assert math.isinf(rebuilt.estimates["bad"])
        assert math.isnan(rebuilt.variances["bad"])
        assert rebuilt.active_drilldowns == report.active_drilldowns

    def test_experiment_result(self):
        result = _result()
        payload = json.loads(json.dumps(result.to_dict(), allow_nan=False))
        rebuilt = ExperimentResult.from_dict(payload)
        assert rebuilt.to_dict() == result.to_dict()


class TestForwardTolerance:
    """Payloads from a *newer* producer load on this consumer."""

    def test_engine_config_ignores_unknown_keys(self):
        config = EngineConfig.from_dict({
            "k": 7, "schema_version": 99, "a_future_knob": True,
        })
        assert config.k == 7
        # Knobs older builds wrote (scale-out modes since removed) are
        # unknown keys too.
        retired = {
            "shards": 4, "parallelism": 2, "round_executor": "fork",
            "auto": True,
        }
        payload = {**EngineConfig(k=9).to_dict(), **retired}
        assert EngineConfig.from_dict(payload) == EngineConfig(k=9)
        # A complete payload from a build that still had the index-engine
        # knobs: ``backend`` and ``block_size`` decode and are ignored.
        engine_knobs = {
            "backend": "packed", "data_plane": None, "k": 9,
            "budget_per_round": 300, "seed": 0, "seed_policy": "per-task",
            "block_size": 512, "overlap": False, "report_log_limit": None,
            "store_dir": None, "observability": None, "schema_version": 1,
        }
        assert EngineConfig.from_dict(engine_knobs) == EngineConfig(k=9)

    def test_round_report_ignores_unknown_keys(self):
        payload = _report().to_dict()
        payload["schema_version"] = 99
        payload["a_future_counter"] = 123
        rebuilt = RoundReport.from_dict(payload)
        assert rebuilt.queries_used == 77

    def test_experiment_result_ignores_unknown_keys(self):
        payload = _result().to_dict()
        payload["schema_version"] = 99
        payload["a_future_section"] = {"x": 1}
        assert ExperimentResult.from_dict(payload).to_dict() == (
            _result().to_dict()
        )

    def test_service_request_forms_ignore_unknown_keys(self):
        request = TaskRequest.from_wire({
            "name": "t", "schema_version": 99, "future": 1,
        })
        assert request.name == "t"
        rounds = RoundRequest.from_wire({"rounds": 3, "future": True})
        assert rounds.rounds == 3
        # ``parallel`` is a key older clients still send.
        rounds = RoundRequest.from_wire({"rounds": 1, "parallel": 4})
        assert rounds == RoundRequest(rounds=1)

    def test_missing_version_reads_as_v0(self):
        payload = _report().to_dict()
        del payload["schema_version"]
        assert wire_version(payload) == 0
        assert RoundReport.from_dict(payload).queries_used == 77
        config_payload = {"k": 5}
        assert wire_version(config_payload) == 0
        assert EngineConfig.from_dict(config_payload).k == 5

    def test_tolerance_never_admits_invalid_fields(self):
        with pytest.raises(Exception):
            EngineConfig.from_dict({"k": 0, "future": 1})


class TestVersionHelpers:
    def test_stamp_returns_its_argument(self):
        payload = {"x": 1}
        assert stamp(payload) is payload
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_wire_version_rejects_non_int(self):
        with pytest.raises(WireFormatError):
            wire_version({"schema_version": "two"})
