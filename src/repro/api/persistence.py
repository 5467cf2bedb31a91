"""Atomic epoch snapshots: save a live engine, restore it bit-identically.

The durability layer of the engine.  A *store directory* holds at most
one committed snapshot::

    <store>/MANIFEST.json        # the commit point (atomic rename target)
    <store>/epoch-<N>/           # the committed epoch's payload
        state.json               # config, schema, tasks, RNGs, histories
        block-00000.values.u8    # one file per heap-block column
        block-00000.measures.f64
        block-00000.tids.i64
        block-00000.scores.f64
        block-00000.alive.u8
        ...

The write protocol (normative spec: ``docs/format.md``) is
write-new-then-rename: a fresh ``epoch-<N+1>/`` directory is fully written
and fsynced *before* ``MANIFEST.json`` is atomically replaced to point at
it, so a crash at any instant leaves either the previous committed
snapshot or the new one — never a torn mixture.  A reader only ever
follows the manifest; epoch directories without a committed manifest entry
are invisible garbage (pruned by the next successful save).

Restore is exact: :func:`load_engine` rebuilds the heap's block structure
(per-block batches and liveness masks, not a compaction — ``random_tids``
and batch routing depend on the exact segmentation), the per-task
estimator RNG streams, drill-down records, report histories, budget
ledgers, and the ranking policy's RNG, so the next ``run_round()`` on the
restored engine is bit-identical to the run the snapshot interrupted.
Block columns are mapped copy-on-write (``mmap`` mode ``"c"``): restored
engines read directly from the snapshot files, and in-place measure
updates (``store.replace``) stay private to the process — the committed
epoch is immutable once written.

What cannot be snapshot raises instead of silently dropping state: tasks
whose estimator is a non-registry callable, estimators carrying an
``on_query`` hook or an attached archive, rankings or spec selections that
are custom callables.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
from typing import Mapping

import numpy as np

from ..core.wire import decode_float, encode_float, stamp, wire_version
from ..errors import ExperimentError, WireFormatError
from ..hiddendb.database import HiddenDatabase
from ..hiddendb.ranking import MeasureScore, RandomScore, RecencyScore
from ..hiddendb.schema import Attribute, Schema
from ..hiddendb.store import DEFAULT_BLOCK_SIZE, INDEX_ENGINE, _HeapBlock
from ..hiddendb.tuples import HiddenTuple, TupleBatch
from .config import EngineConfig

#: On-disk snapshot format version (independent of the wire
#: ``schema_version`` each JSON payload also carries).  Bumped only for
#: layout changes a version-1 reader cannot tolerate.
FORMAT_VERSION = 1

#: File name of the commit point inside a store directory.
MANIFEST_NAME = "MANIFEST.json"

#: ``backend`` names a snapshot may carry and still restore.  Indexes are
#: rebuilt from the heap, so snapshots written by older builds under the
#: ``packed`` engine load as well as ``blocked`` ones.
RESTORABLE_ENGINES = ("blocked", "packed")

_EPOCH_DIR = re.compile(r"^epoch-(\d+)$")

#: ``(suffix, little-endian dtype)`` of the per-block column files, in
#: the order ``docs/format.md`` lists them.
_BLOCK_COLUMNS = (
    ("values.u8", "<u1"),
    ("measures.f64", "<f8"),
    ("tids.i64", "<i8"),
    ("scores.f64", "<f8"),
    ("alive.u8", "<u1"),
)


# ----------------------------------------------------------------------
# fsync discipline
# ----------------------------------------------------------------------
def _write_file(path: str, data: bytes) -> None:
    """Write ``data`` and force it to stable storage before returning."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_dir(path: str) -> None:
    """Force a directory entry update to stable storage (POSIX; platforms
    that cannot open directories skip silently — the rename itself is
    still atomic there)."""
    with contextlib.suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


# ----------------------------------------------------------------------
# Ranking policies over the wire
# ----------------------------------------------------------------------
def _ranking_to_wire(policy) -> dict:
    """The JSON description that rebuilds a stock ranking policy exactly
    (including the Mersenne stream position of :class:`RandomScore`)."""
    kind = type(policy)
    if kind is RandomScore:
        version, internal, gauss = policy._rng.getstate()
        return {
            "kind": "random",
            "rng": [
                int(version),
                [int(word) for word in internal],
                None if gauss is None else encode_float(float(gauss)),
            ],
        }
    if kind is MeasureScore:
        return {
            "kind": "measure",
            "measure": policy.measure,
            "descending": bool(policy.descending),
        }
    if kind is RecencyScore:
        return {"kind": "recency"}
    raise ExperimentError(
        f"ranking policy {policy!r} cannot be snapshot; only the stock "
        "RandomScore/MeasureScore/RecencyScore policies serialize"
    )


def _ranking_from_wire(payload: Mapping):
    kind = payload.get("kind")
    if kind == "random":
        policy = RandomScore()
        version, internal, gauss = payload["rng"]
        policy._rng.setstate((
            int(version),
            tuple(int(word) for word in internal),
            None if gauss is None else decode_float(gauss),
        ))
        return policy
    if kind == "measure":
        return MeasureScore(
            payload["measure"], descending=bool(payload["descending"])
        )
    if kind == "recency":
        return RecencyScore()
    raise WireFormatError(f"unknown ranking kind {kind!r}")


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def _existing_epochs(path: str) -> list[int]:
    try:
        entries = os.listdir(path)
    except FileNotFoundError:
        return []
    epochs = []
    for entry in entries:
        match = _EPOCH_DIR.match(entry)
        if match is not None:
            epochs.append(int(match.group(1)))
    return epochs


def _task_state(engine, name: str, handle) -> dict:
    """One task's full wire state (request + estimator + handle counters)."""
    from ..service.protocol import specs_to_wire

    task = handle.task
    if not isinstance(task.estimator, str):
        raise ExperimentError(
            f"task {name!r} cannot be snapshot: its estimator is a custom "
            "factory callable, not a registry name"
        )
    return {
        "request": {
            "name": task.name,
            "estimator": task.estimator,
            "specs": specs_to_wire(task.specs),
            "budget": task.budget,
            "budget_share": task.budget_share,
            "seed": task.seed,
            "options": dict(task.options),
        },
        "estimator": handle.estimator.state_to_wire(),
        "handle": {
            "budget_per_round": handle.budget_per_round,
            "rounds_run": handle.rounds_run,
            "queries_total": handle.queries_total,
        },
    }


def _engine_state(engine, extra) -> dict:
    """The ``state.json`` payload, minus the block column files."""
    store = engine.db.store
    return stamp({
        "format": FORMAT_VERSION,
        "config": engine.config.to_dict(),
        "backend": INDEX_ENGINE,
        "schema": {
            "attributes": [
                {"name": a.name, "values": list(a.values)}
                for a in engine.db.schema.attributes
            ],
            "measures": list(engine.db.schema.measures),
        },
        "ranking": _ranking_to_wire(engine.db.ranking),
        "db": {
            "round": engine.db._round,
            "next_tid": engine.db._next_tid,
        },
        "store": {
            # Kept in format 1 for readers that expect them; fixed values.
            "block_size": DEFAULT_BLOCK_SIZE,
            "backend_options": {},
            "epoch": store._epoch,
            "blocks": [
                {"rows": len(block.batch), "alive": block.alive_count}
                for block in store._blocks
            ],
            "dict_tuples": [
                {
                    "tid": t.tid,
                    "values": list(t.values),
                    "measures": [encode_float(m) for m in t.measures],
                    "score": encode_float(t.score),
                }
                for t in store._tuples.values()
            ],
            "index_orders": [list(order) for order in store.index_orders()],
        },
        "tasks": [
            _task_state(engine, name, handle)
            for name, handle in engine._tasks.items()
        ],
        "log": {
            "start": engine._log_start,
            "entries": [
                [name, report.to_dict()] for name, report in engine._log
            ],
        },
        "extra": extra,
    })


def write_epoch(engine, path: str, extra=None) -> dict:
    """Write (but do NOT commit) a fresh epoch directory; returns the
    manifest payload that would commit it.

    Everything under ``epoch-<N>/`` is fully written and fsynced when this
    returns, but :func:`load_engine` still resolves the *previous*
    snapshot until :func:`commit_manifest` publishes the returned payload
    — this split is exactly the crash window the torn-snapshot tests
    exercise.  Callers hold the engine's locks via :meth:`Engine.save`.
    """
    os.makedirs(path, exist_ok=True)
    manifest = _read_manifest(path)
    epoch = max(
        _existing_epochs(path) + (
            [manifest["epoch"]] if manifest is not None else []
        ),
        default=-1,
    ) + 1
    directory = f"epoch-{epoch}"
    epoch_path = os.path.join(path, directory)
    os.makedirs(epoch_path, exist_ok=True)
    state = _engine_state(engine, extra)
    for position, block in enumerate(engine.db.store._blocks):
        batch = block.batch
        columns = (
            batch.values, batch.measures, batch.tids, batch.scores,
            block.alive,
        )
        for (suffix, dtype), column in zip(_BLOCK_COLUMNS, columns):
            _write_file(
                os.path.join(epoch_path, f"block-{position:05d}.{suffix}"),
                np.ascontiguousarray(column, dtype=dtype).tobytes(),
            )
    try:
        encoded = json.dumps(
            state, allow_nan=False, separators=(",", ":"), sort_keys=True
        )
    except (TypeError, ValueError) as exc:
        raise ExperimentError(
            f"engine state is not JSON-expressible ({exc}); task options "
            "must hold only JSON values to be snapshot"
        ) from None
    _write_file(os.path.join(epoch_path, "state.json"), encoded.encode())
    _fsync_dir(epoch_path)
    _fsync_dir(path)
    return stamp({
        "format": FORMAT_VERSION,
        "epoch": epoch,
        "directory": directory,
        "round": engine.db._round,
        "blocks": len(engine.db.store._blocks),
        "tuples": len(engine.db.store),
    })


def commit_manifest(path: str, manifest: Mapping) -> None:
    """Atomically publish a manifest: the snapshot commit point.

    ``MANIFEST.json`` is replaced via write-temp + ``os.replace`` +
    directory fsync, so readers observe either the old manifest or the
    new one in full — never a partial write.
    """
    tmp = os.path.join(path, MANIFEST_NAME + ".tmp")
    _write_file(
        tmp,
        json.dumps(
            dict(manifest), allow_nan=False, separators=(",", ":"),
            sort_keys=True,
        ).encode(),
    )
    os.replace(tmp, os.path.join(path, MANIFEST_NAME))
    _fsync_dir(path)


def _prune_epochs(path: str, keep: str) -> None:
    """Drop every uncommitted/superseded epoch directory except ``keep``."""
    for entry in os.listdir(path):
        if _EPOCH_DIR.match(entry) and entry != keep:
            shutil.rmtree(os.path.join(path, entry), ignore_errors=True)
    with contextlib.suppress(OSError):
        os.remove(os.path.join(path, MANIFEST_NAME + ".tmp"))


def save_engine(engine, path: str, extra=None) -> dict:
    """Snapshot an engine into a store directory; returns the manifest.

    ``extra`` rides along verbatim (JSON values only) and comes back from
    :func:`load_engine` — the service plane stores its governor state
    there.  The previous committed snapshot stays valid until the new one
    commits; superseded epochs are pruned afterwards.
    """
    manifest = write_epoch(engine, path, extra)
    commit_manifest(path, manifest)
    _prune_epochs(path, keep=manifest["directory"])
    return manifest


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _read_manifest(path: str) -> dict | None:
    """The committed manifest, or ``None`` when no snapshot committed yet
    (missing or empty/torn manifest files count as absent — the atomic
    rename protocol means a real commit is never partial)."""
    try:
        with open(os.path.join(path, MANIFEST_NAME), "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    if not raw:
        return None
    try:
        manifest = json.loads(raw)
    except ValueError:
        raise WireFormatError(
            f"corrupt snapshot manifest in {path!r}"
        ) from None
    if not isinstance(manifest, dict):
        raise WireFormatError(f"corrupt snapshot manifest in {path!r}")
    return manifest


def has_snapshot(path: str) -> bool:
    """True when ``path`` holds a committed snapshot to restore from."""
    return _read_manifest(path) is not None


def _map_column(path: str, dtype: str, shape: tuple) -> np.ndarray:
    """A copy-on-write mapping of one snapshot column file.

    Mode ``"c"``: reads come straight from the snapshot file, in-place
    measure/score updates stay private pages, and the committed epoch is
    never dirtied.  Zero-size columns (a schema without measures writes
    empty files, which ``mmap`` refuses) come back as empty arrays.
    """
    if 0 in shape:
        return np.zeros(shape, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="c", shape=shape)


def _restore_store(store, state: Mapping, epoch_path: str) -> None:
    """Rebuild the heap exactly: same block segmentation, same liveness
    masks, same dict remainder, same mutation epoch."""
    num_measures = len(store.schema.measures)
    num_attributes = store.schema.num_attributes
    for position, meta in enumerate(state["blocks"]):
        rows = int(meta["rows"])
        prefix = os.path.join(epoch_path, f"block-{position:05d}")
        values = _map_column(
            f"{prefix}.values.u8", "<u1", (rows, num_attributes)
        )
        measures = _map_column(
            f"{prefix}.measures.f64", "<f8", (rows, num_measures)
        )
        tids = _map_column(f"{prefix}.tids.i64", "<i8", (rows,))
        scores = _map_column(f"{prefix}.scores.f64", "<f8", (rows,))
        alive = np.fromfile(f"{prefix}.alive.u8", dtype="<u1").astype(bool)
        if len(alive) != rows:
            raise WireFormatError(
                f"snapshot block {position} is torn: {len(alive)} alive "
                f"flags for {rows} rows"
            )
        block = _HeapBlock(TupleBatch(values, measures, tids, scores))
        block.alive = alive
        block.alive_count = int(meta["alive"])
        if block.alive_count != int(np.count_nonzero(alive)):
            raise WireFormatError(
                f"snapshot block {position} liveness mismatch"
            )
        store._blocks.append(block)
        store._block_los.append(block.tid_lo)
    for entry in state["dict_tuples"]:
        t = HiddenTuple(
            int(entry["tid"]),
            bytes(entry["values"]),
            tuple(decode_float(m) for m in entry["measures"]),
            decode_float(entry["score"]),
        )
        store._tuples[t.tid] = t
    store._size = sum(b.alive_count for b in store._blocks) + len(
        store._tuples
    )
    store._epoch = int(state["epoch"])


def load_engine(path: str):
    """Restore ``(engine, extra)`` from the committed snapshot in ``path``.

    The restored engine resumes bit-identically: same estimates, same RNG
    stream positions, same report histories and ledgers as the engine
    :func:`save_engine` captured.  Prefix indexes are rebuilt from the
    restored heap (their *contents* are a pure function of the live
    tuples; estimators only observe query results, so rebuild equals
    recovery), so a snapshot restores whichever index engine in
    :data:`RESTORABLE_ENGINES` wrote it.  Raises
    :class:`~repro.errors.ExperimentError` when no snapshot has ever
    committed at ``path``, or when the snapshot names any other engine.
    """
    from ..core.estimators.base import RoundReport
    from ..service.protocol import specs_from_wire
    from .engine import Engine, EstimationTask

    manifest = _read_manifest(path)
    if manifest is None:
        raise ExperimentError(f"no committed snapshot in {path!r}")
    if int(manifest.get("format", 0)) > FORMAT_VERSION:
        raise WireFormatError(
            f"snapshot format {manifest.get('format')} is newer than this "
            f"reader (supports up to {FORMAT_VERSION})"
        )
    epoch_path = os.path.join(path, manifest["directory"])
    with open(os.path.join(epoch_path, "state.json"), "rb") as handle:
        state = json.loads(handle.read())
    wire_version(state)  # malformed version markers fail loudly
    if state["backend"] not in RESTORABLE_ENGINES:
        raise ExperimentError(
            f"snapshot in {path!r} uses storage backend "
            f"{state['backend']!r}, which this build does not restore "
            f"(restorable: {', '.join(RESTORABLE_ENGINES)})"
        )
    config = EngineConfig.from_dict(state["config"])
    schema = Schema(
        [
            Attribute(entry["name"], entry["values"])
            for entry in state["schema"]["attributes"]
        ],
        measures=state["schema"]["measures"],
    )
    db = HiddenDatabase(schema, ranking=_ranking_from_wire(state["ranking"]))
    _restore_store(db.store, state["store"], epoch_path)
    db._round = int(state["db"]["round"])
    db._next_tid = int(state["db"]["next_tid"])
    engine = Engine(config, db=db)
    # Index orders registered before the crash are rebuilt eagerly so the
    # first restored round pays no surprise backfill.
    for order in state["store"]["index_orders"]:
        db.store.ensure_index(tuple(order))
    for entry in state["tasks"]:
        request = entry["request"]
        task = EstimationTask(
            request["name"],
            specs_from_wire(schema, request["specs"]),
            estimator=request["estimator"],
            budget=request["budget"],
            budget_share=request["budget_share"],
            seed=request["seed"],
            options=request["options"],
        )
        handle = engine.submit(task)
        handle.estimator.restore_state(entry["estimator"])
        counters = entry["handle"]
        handle.budget_per_round = int(counters["budget_per_round"])
        handle.rounds_run = int(counters["rounds_run"])
        handle.queries_total = int(counters["queries_total"])
        history = handle.estimator.history
        limit = handle._history_limit
        handle._reports = list(
            history if limit is None else history[-limit:]
        )
    engine._log = [
        (name, RoundReport.from_dict(payload))
        for name, payload in state["log"]["entries"]
    ]
    engine._log_start = int(state["log"]["start"])
    return engine, state.get("extra")
