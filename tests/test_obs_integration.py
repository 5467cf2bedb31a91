"""Integration tests for the observability plane across the stack.

The tentpole acceptance criteria: estimates are **bit-identical** with
observability on vs off, ``Engine.metrics()``
is a stamped strict-JSON document, the config precedence chain resolves as
documented, the service embeds the snapshot in ``/v1/telemetry`` and
serves Prometheus text at ``/v1/metrics``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import HiddenDatabase
from repro.api import Engine, EngineConfig, EstimationTask
from repro.core.aggregates import count_all
from repro.data.synthetic import skewed_source
from repro.errors import ExperimentError
from repro.obs import OBS, set_default_observability
from repro.service import BudgetGovernor, GovernorConfig, ServiceApp

from test_service_http import _Service, _engine

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(autouse=True)
def _pristine_obs():
    OBS.reset()
    OBS.disable()
    previous = set_default_observability(None)
    yield
    OBS.reset()
    OBS.disable()
    set_default_observability(previous)


def _run_estimates(observability: bool, rounds: int = 3) -> list[dict]:
    source = skewed_source([8, 10, 6, 4], exponent=0.4, seed=3)
    config = EngineConfig(
        k=8,
        budget_per_round=40,
        seed=3,
        observability=observability,
    )
    db = HiddenDatabase(source.schema)
    db.insert_many(source.batch_columns(600))
    engine = Engine(config, db=db)
    engine.submit(EstimationTask("t", [count_all()], "RS"))
    estimates = []
    for _ in range(rounds):
        estimates.append(engine.run_round()["t"].estimates)
        engine.advance_round()
    return estimates


# ----------------------------------------------------------------------
# Bit identity
# ----------------------------------------------------------------------
# Case ids are kept stable across releases so per-case results compare.
@pytest.mark.parametrize("rounds", [3], ids=["vectorized-blocked"])
def test_estimates_bit_identical_on_vs_off(rounds):
    off = _run_estimates(False, rounds)
    OBS.reset()
    OBS.disable()
    on = _run_estimates(True, rounds)
    assert off == on


# ----------------------------------------------------------------------
# Engine.metrics()
# ----------------------------------------------------------------------
def test_engine_metrics_stamped_strict_json():
    engine = _engine()
    OBS.enable()
    engine.submit(EstimationTask("t", [count_all()], "RS"))
    engine.run_round()
    metrics = engine.metrics()
    json.dumps(metrics, allow_nan=False)  # strict JSON, never raises
    assert metrics["schema_version"] >= 1
    assert metrics["enabled"] is True
    assert metrics["backend"] == "blocked"
    assert metrics["tasks"]["t"]["rounds"] == 1
    assert metrics["tasks"]["t"]["queries_total"] == 40
    interface = metrics["tasks"]["t"]["interface"]
    assert interface["queries"] == 40
    assert (
        interface["underflow"] + interface["valid"] + interface["overflow"]
        == interface["queries"]
    )
    names = {c["name"] for c in metrics["registry"]["counters"]}
    assert "repro_rounds_total" in names
    assert "repro_budget_spent_total" in names
    assert metrics["summary"]["queries"]["total"] == 40


def test_engine_metrics_disabled_still_reports_tasks():
    engine = _engine()
    engine.submit(EstimationTask("t", [count_all()], "RS"))
    engine.run_round()
    metrics = engine.metrics()
    assert metrics["enabled"] is False
    assert metrics["tasks"]["t"]["queries_total"] == 40
    # Registry counters stayed silent while disabled.
    assert metrics["summary"]["queries"]["total"] == 0


# ----------------------------------------------------------------------
# Config precedence
# ----------------------------------------------------------------------
def test_explicit_config_beats_default_and_env(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    set_default_observability(True)
    assert EngineConfig(observability=False).resolved_observability() is False
    monkeypatch.setenv("REPRO_OBS", "0")
    set_default_observability(False)
    assert EngineConfig(observability=True).resolved_observability() is True


def test_none_defers_to_default_then_env(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert EngineConfig().resolved_observability() is False
    monkeypatch.setenv("REPRO_OBS", "yes")
    assert EngineConfig().resolved_observability() is True
    set_default_observability(False)  # programmatic beats env
    assert EngineConfig().resolved_observability() is False


def test_observability_must_be_bool_or_none():
    with pytest.raises(ExperimentError):
        EngineConfig(observability="on")


def test_engine_enables_but_never_disables():
    _engine()  # observability=None resolves off
    assert OBS.enabled is False
    source = skewed_source([8, 10, 6, 4], exponent=0.4, seed=3)
    config = EngineConfig(k=8, budget_per_round=40, seed=3,
                          observability=True)
    Engine(config, schema=source.schema)
    assert OBS.enabled is True
    # A later observability=False engine must not switch it back off.
    Engine(EngineConfig(k=8, budget_per_round=40, seed=3,
                        observability=False), schema=source.schema)
    assert OBS.enabled is True


def test_config_apply_scopes_registry():
    config = EngineConfig(observability=True)
    assert OBS.enabled is False
    with config.apply():
        assert OBS.enabled is True
    assert OBS.enabled is False


# ----------------------------------------------------------------------
# Service plane
# ----------------------------------------------------------------------
def test_telemetry_embeds_metrics_and_v1_metrics_scrapes():
    OBS.enable()
    app = ServiceApp(
        _engine(),
        BudgetGovernor(GovernorConfig(queries_per_window=500)),
    )
    with _Service(app) as client:
        client.submit(name="t", specs=[{"kind": "count"}], budget=20)
        client.run_rounds(rounds=1)

        telemetry = client.telemetry()
        # Pre-PR-9 governor keys survive alongside the new metrics field.
        assert "governor" in telemetry
        assert telemetry["governor"]["policy"]["queries_per_window"] == 500
        metrics = telemetry["metrics"]
        assert metrics["enabled"] is True
        assert metrics["tasks"]["t"]["queries_total"] == 20

        text = client.metrics_text()
        assert text.endswith("\n")
        assert "# TYPE repro_http_requests_total counter" in text
        sample = re.compile(
            r"^repro_[a-z0-9_]+(_bucket|_sum|_count)?"
            r"(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"
            r" [0-9eE.+-]+$"
        )
        comment = re.compile(r"^# (HELP|TYPE) repro_[a-z0-9_]+ .+$")
        for line in text.splitlines():
            assert sample.match(line) or comment.match(line), line
        # The round the service ran shows up in the scraped counters.
        assert "repro_rounds_total 1" in text
        assert 'repro_queries_total{status=' in text
        # Request latency is labeled by endpoint, cardinality-bounded.
        endpoints = set(
            re.findall(r'repro_http_requests_total\{endpoint="([^"]+)"', text)
        )
        assert endpoints <= {
            "/v1/healthz", "/v1/ledger", "/v1/telemetry", "/v1/tasks",
            "/v1/rounds", "/v1/shutdown", "/v1/tasks/{name}/reports",
            "other",
        }
