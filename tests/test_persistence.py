"""Durability tests: atomic snapshots, torn-write recovery, bit-identical
kill-and-restore across snapshot writers, including scalar-era snapshots.

The contract under test (normative spec: ``docs/format.md``): a snapshot
commits atomically via the ``MANIFEST.json`` rename, a crash anywhere in
the write protocol leaves the previous committed snapshot in force, and a
restored engine/service continues the interrupted run bit-identically —
same estimates, RNG streams, histories, ledgers, governor counters.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.api import (
    Engine,
    EngineConfig,
    EstimationTask,
    has_snapshot,
    load_engine,
)
from repro.api.persistence import (
    MANIFEST_NAME,
    commit_manifest,
    write_epoch,
)
from repro.core.aggregates import count_all, count_where, sum_measure
from repro.errors import (
    AdmissionError,
    EstimationError,
    ExperimentError,
    ReproError,
    WireFormatError,
)
from repro.hiddendb.schema import boolean_schema
from repro.service.app import ServiceApp
from repro.service.cli import build_app, build_parser
from repro.service.governor import BudgetGovernor, GovernorConfig
from repro.service.protocol import RoundRequest, TaskRequest
from tests.oracle import plane


# ----------------------------------------------------------------------
# Deterministic churn driver shared by the parity tests
# ----------------------------------------------------------------------
def _build_engine(store_dir=None):
    config = EngineConfig(
        k=20, budget_per_round=60,
        seed=7, store_dir=None if store_dir is None else str(store_dir),
    )
    engine = Engine(config, schema=boolean_schema(6, measures=("price",)))
    rng = random.Random(3)
    engine.load(_rows(rng, 600))
    engine.submit(EstimationTask(
        "t1",
        [count_all(), sum_measure(engine.db.schema, "price")],
        "RS",
    ))
    engine.submit(EstimationTask(
        "t2", [count_where(engine.db.schema, {"A0": "1"})], "REISSUE",
    ))
    return engine, rng


def _rows(rng, count):
    return [
        ([rng.randrange(2) for _ in range(6)], [rng.random() * 100])
        for _ in range(count)
    ]


def _churn_round(engine, rng):
    """One round of inserts + deletes + estimation, driven by ``rng``."""
    engine.load(_rows(rng, 40))
    victims = engine.db.store.random_tids(rng, 15)
    engine.apply_updates(lambda db: db.bulk_delete(victims))
    engine.advance_round()
    return engine.run_round()


def _round_dicts(reports):
    return {name: report.to_dict() for name, report in reports.items()}


# ----------------------------------------------------------------------
# Kill-and-restore bit-identity
# ----------------------------------------------------------------------
def _rewrite_as_packed_build(tmp_path, manifest):
    """Rewrite a committed ``state.json`` the way a build whose index ran
    on the ``packed`` engine wrote it."""
    state_path = tmp_path / manifest["directory"] / "state.json"
    state = json.loads(state_path.read_text())
    state["backend"] = "packed"
    state["config"].update(backend="packed", block_size=512)
    state["store"]["block_size"] = 512
    state_path.write_text(json.dumps(state))


@pytest.mark.parametrize("writer", ("blocked", "packed"))
def test_kill_and_restore_is_bit_identical(writer, tmp_path):
    reference, ref_rng = _build_engine()
    expected = [_round_dicts(_churn_round(reference, ref_rng))
                for _ in range(6)]

    durable, rng = _build_engine(tmp_path)
    for _ in range(3):
        _churn_round(durable, rng)
    manifest = durable.save()
    del durable  # the "kill": nothing after the snapshot survives
    if writer == "packed":
        # Indexes are rebuilt from the heap, so the engine and block size
        # a snapshot names do not change what it restores to.
        _rewrite_as_packed_build(tmp_path, manifest)

    restored = Engine.load(str(tmp_path))
    got = [_round_dicts(_churn_round(restored, rng)) for _ in range(3)]
    assert got == expected[3:]
    assert restored.budget_ledger() == reference.budget_ledger()
    assert [
        (name, report.to_dict())
        for name, report in restored.stream_reports()
    ] == [
        (name, report.to_dict())
        for name, report in reference.stream_reports()
    ]


@pytest.mark.parametrize("data_plane", ("vectorized", "scalar"))
def test_kill_and_restore_parity_across_planes(data_plane, tmp_path):
    # The scalar row is a snapshot a scalar-plane build left: the reference
    # run and the snapshotted rounds run under the per-tuple oracle, so
    # every row lives in the per-tuple dict, and the committed config
    # names the retired ``data_plane`` knob.  It restores in production.
    with plane(data_plane):
        reference, ref_rng = _build_engine()
        expected = [_round_dicts(_churn_round(reference, ref_rng))
                    for _ in range(4)]

        durable, rng = _build_engine(tmp_path)
        for _ in range(2):
            _churn_round(durable, rng)
        manifest = durable.save()
    if data_plane == "scalar":
        assert durable.db.store._blocks == []
        state_path = tmp_path / manifest["directory"] / "state.json"
        state = json.loads(state_path.read_text())
        state["config"]["data_plane"] = "scalar"
        state_path.write_text(json.dumps(state))
    restored = Engine.load(str(tmp_path))
    got = [_round_dicts(_churn_round(restored, rng)) for _ in range(2)]
    assert got == expected[2:]


def test_restore_preserves_store_shape_and_round_clock(tmp_path):
    engine, rng = _build_engine(tmp_path)
    for _ in range(2):
        _churn_round(engine, rng)
    engine.save()
    restored = Engine.load(str(tmp_path))
    assert restored.current_round == engine.current_round
    assert restored.db._next_tid == engine.db._next_tid
    assert len(restored.db) == len(engine.db)
    # Exact heap segmentation, not a compaction: random_tids and batch
    # routing depend on it.
    assert [
        (b.tid_lo, b.tid_hi, b.alive_count)
        for b in restored.db.store._blocks
    ] == [
        (b.tid_lo, b.tid_hi, b.alive_count)
        for b in engine.db.store._blocks
    ]
    assert restored.db.store._epoch == engine.db.store._epoch
    assert restored.db.store.index_orders() == engine.db.store.index_orders()


# ----------------------------------------------------------------------
# Atomic commit protocol
# ----------------------------------------------------------------------
def test_torn_snapshot_without_commit_is_invisible(tmp_path):
    engine, rng = _build_engine(tmp_path)
    _churn_round(engine, rng)
    engine.save()
    committed = load_engine(str(tmp_path))[0].budget_ledger()

    # Simulate a crash between write-new and rename: the fresh epoch is
    # fully written but the manifest never commits.
    _churn_round(engine, rng)
    write_epoch(engine, str(tmp_path))
    restored, _ = load_engine(str(tmp_path))
    assert restored.budget_ledger() == committed  # previous snapshot wins
    # The torn epoch directory is pruned by the next successful save.
    assert len([e for e in os.listdir(tmp_path)
                if e.startswith("epoch-")]) == 2
    engine.save()
    assert len([e for e in os.listdir(tmp_path)
                if e.startswith("epoch-")]) == 1


def test_commit_is_the_flip_point(tmp_path):
    engine, rng = _build_engine(tmp_path)
    _churn_round(engine, rng)
    manifest = write_epoch(engine, str(tmp_path))
    assert not has_snapshot(str(tmp_path))
    with pytest.raises(ExperimentError):
        load_engine(str(tmp_path))
    commit_manifest(str(tmp_path), manifest)
    assert has_snapshot(str(tmp_path))
    assert load_engine(str(tmp_path))[0].current_round == engine.current_round


def test_snapshot_files_stay_immutable_after_restore(tmp_path):
    engine, rng = _build_engine(tmp_path)
    _churn_round(engine, rng)
    engine.save()
    manifest = json.load(open(tmp_path / MANIFEST_NAME))
    epoch_dir = tmp_path / manifest["directory"]
    before = {
        name: (epoch_dir / name).read_bytes()
        for name in os.listdir(epoch_dir)
    }
    restored = Engine.load(str(tmp_path))
    # Measure updates mutate block columns in place — restored blocks are
    # copy-on-write mappings, so the committed epoch must not change.
    victim = next(iter(restored.db.tuples())).tid
    restored.apply_updates(
        lambda db: db.update_measures(victim, (123.0,))
    )
    _churn_round(restored, rng)
    after = {
        name: (epoch_dir / name).read_bytes()
        for name in os.listdir(epoch_dir)
    }
    assert before == after


def test_corrupt_manifest_raises_wire_error(tmp_path):
    engine, rng = _build_engine(tmp_path)
    engine.save()
    (tmp_path / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(WireFormatError):
        load_engine(str(tmp_path))


def test_newer_format_is_refused(tmp_path):
    engine, _ = _build_engine(tmp_path)
    manifest = engine.save()
    manifest["format"] = 999
    commit_manifest(str(tmp_path), manifest)
    with pytest.raises(WireFormatError):
        load_engine(str(tmp_path))


#: Storage backends earlier builds shipped and this one does not, with
#: the factory options their snapshots recorded in ``store``.
RETIRED_BACKENDS = {
    "sharded": {"shards": 4, "workers": 2},
    "mapped": {"path": "runs"},
}


@pytest.mark.parametrize("backend", sorted(RETIRED_BACKENDS))
def test_snapshot_naming_a_retired_backend_is_refused(backend, tmp_path):
    engine, _ = _build_engine(tmp_path)
    manifest = engine.save()
    state_path = tmp_path / manifest["directory"] / "state.json"
    state = json.loads(state_path.read_text())
    # Rewrite the committed state the way an older build wrote it.
    state["backend"] = backend
    state["config"].update(
        backend=backend, shards=4 if backend == "sharded" else None,
        parallelism=2, round_executor="thread", auto=False,
    )
    state["store"]["backend_options"] = RETIRED_BACKENDS[backend]
    state_path.write_text(json.dumps(state))
    with pytest.raises(ReproError) as caught:
        Engine.load(str(tmp_path))
    assert caught.value.code == ExperimentError.code
    assert repr(backend) in str(caught.value)


# ----------------------------------------------------------------------
# Refusals: state that cannot cross a snapshot fails loudly
# ----------------------------------------------------------------------
def test_custom_spec_callable_cannot_be_snapshot(tmp_path):
    engine, _ = _build_engine(tmp_path)
    engine.submit(EstimationTask(
        "odd",
        [count_where(engine.db.schema, {"A0": "1"},
                     selection=lambda t: t.tid % 2 == 0)],
        "RESTART",
    ))
    with pytest.raises(WireFormatError):
        engine.save()


def test_custom_estimator_factory_cannot_be_snapshot(tmp_path):
    from repro.core.estimators.rs import RsEstimator

    engine, _ = _build_engine(tmp_path)
    engine.submit(EstimationTask("factory", [count_all()], RsEstimator))
    with pytest.raises(ExperimentError):
        engine.save()


def test_on_query_hook_cannot_be_snapshot(tmp_path):
    engine, _ = _build_engine(tmp_path)
    engine["t1"].estimator.on_query = lambda session: None
    with pytest.raises(EstimationError):
        engine.save()


def test_save_without_store_dir_or_path_raises(tmp_path):
    engine, _ = _build_engine()
    with pytest.raises(ExperimentError):
        engine.save()
    engine.save(str(tmp_path))  # explicit path still works
    assert has_snapshot(str(tmp_path))


def test_engine_load_keeps_its_bulk_load_face(tmp_path):
    engine, rng = _build_engine(tmp_path)
    n = len(engine.db)
    assert engine.load(_rows(rng, 10)) == 10  # instance: bulk loader
    assert len(engine.db) == n + 10
    engine.save()
    assert isinstance(Engine.load(str(tmp_path)), Engine)  # class: restore


# ----------------------------------------------------------------------
# Governor state round-trip
# ----------------------------------------------------------------------
def test_governor_state_round_trip():
    governor = BudgetGovernor(GovernorConfig(
        queries_per_window=100, window_rounds=4, max_deferrals=1,
    ))
    governor.admit("a", 60, 1)
    governor.commit("a", 60, 1)
    governor.admit("a", 60, 2)  # shrink (40 left)
    governor.commit("a", 34, 2)
    twin = BudgetGovernor(governor.config)
    twin.restore_state(governor.state_to_wire())
    assert twin.snapshot()["tenants"] == governor.snapshot()["tenants"]
    # Continued decisions agree exactly: 6 queries left in the window, no
    # shrink step fits, so one deferral is granted and the next refuses.
    for g in (governor, twin):
        assert not g.admit("a", 60, 3).runs  # widen_rounds
        with pytest.raises(AdmissionError):
            g.admit("a", 60, 3)
    assert twin.snapshot() == governor.snapshot()


# ----------------------------------------------------------------------
# Service plane: snapshot cadence + restore via the CLI seam
# ----------------------------------------------------------------------
def _service_args(extra=()):
    return build_parser().parse_args([
        "--rows", "2000", "--budget-per-round", "60",
        "--queries-per-window", "400", "--window-rounds", "4", *extra,
    ])


def test_service_kill_and_restore_bit_identical(tmp_path):
    request = TaskRequest(
        name="t", estimator="RS",
        specs=[{"kind": "count"}, {"kind": "avg", "measure": "price"}],
    )
    reference = build_app(_service_args())
    reference.submit(request)
    expected = reference.run_rounds(
        RoundRequest(rounds=6, advance=True)
    ).to_wire()

    durable_args = _service_args(
        ("--store-dir", str(tmp_path), "--snapshot-every", "2"),
    )
    app = build_app(durable_args)
    app.submit(request)
    app.run_rounds(RoundRequest(rounds=4, advance=True))
    del app  # killed; the auto-snapshot at round 4 is the recovery point

    restored = build_app(durable_args)  # build_app restores when possible
    assert restored.health().backend == "blocked"
    assert restored.engine.tasks() == ("t",)
    restored.engine.advance_round()
    got = restored.run_rounds(RoundRequest(rounds=2, advance=True)).to_wire()
    assert got["results"] == expected["results"][4:]
    assert (
        restored.telemetry().to_wire()["governor"]["tenants"]
        == reference.telemetry().to_wire()["governor"]["tenants"]
    )


def test_snapshot_cadence(tmp_path):
    args = _service_args(("--store-dir", str(tmp_path),
                          "--snapshot-every", "3"))
    app = build_app(args)
    app.submit(TaskRequest(name="t", specs=[{"kind": "count"}]))
    app.run_rounds(RoundRequest(rounds=2, advance=True))
    assert not has_snapshot(str(tmp_path))  # cadence not reached yet
    app.run_rounds(RoundRequest(rounds=1, advance=True))
    assert has_snapshot(str(tmp_path))


def test_snapshot_every_requires_store_dir():
    engine, _ = _build_engine()
    with pytest.raises(ExperimentError):
        ServiceApp(engine, snapshot_every=2)


def test_manual_snapshot_returns_manifest(tmp_path):
    engine, rng = _build_engine(tmp_path)
    app = ServiceApp(engine)
    assert app.store_dir == str(tmp_path)  # inherited from the config
    manifest = app.snapshot()
    assert manifest["tuples"] == len(engine.db)
    restored = ServiceApp.restore(str(tmp_path))
    assert restored.engine.tasks() == engine.tasks()


def test_cli_durability_flags_exist():
    text = build_parser().format_help()
    assert "--store-dir" in text and "--snapshot-every" in text
