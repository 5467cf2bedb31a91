"""``repro.api`` — the unified public facade.

One config object (:class:`EngineConfig`), one service boundary
(:class:`Engine`), and an estimator registry.  The CLI, the experiment
harness, and the figure drivers are thin clients of this module;
everything here is importable as::

    from repro.api import Engine, EngineConfig, EstimationTask

Extension point: :func:`register_estimator` ships a new estimation
algorithm under a public name (see :mod:`repro.extensions.counts` for a
worked example that adapts the interface before constructing its
estimator).
"""

from ..core.estimators.registry import (
    available_estimators,
    register_estimator,
    resolve_estimator,
)
from ..obs import OBS
from .config import SEED_POLICIES, EngineConfig
from .engine import GAP_TASK, Engine, EstimationTask, ReportGap, TaskHandle
from .persistence import has_snapshot, load_engine, save_engine

__all__ = [
    "Engine",
    "EngineConfig",
    "EstimationTask",
    "GAP_TASK",
    "ReportGap",
    "SEED_POLICIES",
    "TaskHandle",
    "OBS",
    "has_snapshot",
    "load_engine",
    "save_engine",
    "available_estimators",
    "register_estimator",
    "resolve_estimator",
]
