"""The experiment runner: trials, rounds, estimators, ground truth.

An :class:`Experiment` wires together an environment factory (database +
update schedule, built fresh per trial), an engine configuration, a set of
estimator factories, the tracked aggregates, and the round/trial counts.
Execution routes through the :class:`repro.api.Engine` facade — one engine
per trial environment, one :class:`~repro.api.engine.EstimationTask` per
estimator — and is bit-identical to the pre-facade runner (see
``tests/test_api_parity.py``).  Two update models are supported:

* round mode (default): all of a round's mutations apply at the boundary;
* intra-round mode (§5.2 / Figure 4): each estimator gets its *own* copy of
  the environment and the round's mutations are interleaved with its query
  traffic via :class:`~repro.data.schedules.IntraRoundDriver`.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from ..api.config import EngineConfig
from ..api.engine import Engine, EstimationTask
from ..core.aggregates import AnySpec, base_specs_of
from ..core.estimators.registry import EstimatorFactory as RegistryFactory
from ..core.estimators.registry import resolve_estimator
from ..data.schedules import IntraRoundDriver, UpdateSchedule, apply_round
from ..errors import EstimationError, ExperimentError
from ..hiddendb.database import HiddenDatabase
from ..hiddendb.schema import Schema
from ..obs import OBS
from .ground_truth import GroundTruthTracker
from .metrics import ExperimentResult

#: Environment per trial: the database plus its update schedule.
Env = tuple[HiddenDatabase, UpdateSchedule]

#: Builds a fresh environment for a trial seed.
EnvFactory = Callable[[int], Env]

#: Builds the tracked aggregates once the schema is known.
SpecsFactory = Callable[[Schema], Sequence[AnySpec]]


class EstimatorFactory:
    """Named constructor for one estimator configuration.

    ``cls`` is a registry name (``"RESTART"`` / ``"REISSUE"`` / ``"RS"`` /
    anything registered via :func:`repro.api.register_estimator`) or a
    factory callable; extra kwargs are forwarded to it.
    """

    def __init__(self, name: str, cls: type | RegistryFactory | str, **kwargs):
        self.name = name
        if isinstance(cls, str):
            try:
                cls = resolve_estimator(cls)
            except EstimationError:
                raise ExperimentError(f"unknown estimator {cls!r}") from None
        self.cls = cls
        self.kwargs = dict(kwargs)

    def task(
        self, specs: Sequence[AnySpec], seed: int, budget: int | None = None
    ) -> EstimationTask:
        """The engine task this factory describes."""
        return EstimationTask(
            self.name,
            specs,
            estimator=self.cls,
            seed=seed,
            budget=budget,
            options=self.kwargs,
        )

    def build(self, interface, specs: Sequence[AnySpec], budget: int,
              seed: int):
        """Construct the estimator directly (pre-facade entry point)."""
        return self.cls(
            interface, specs, budget_per_round=budget, seed=seed, **self.kwargs
        )


def default_estimators() -> list[EstimatorFactory]:
    """The paper's three algorithms with default settings."""
    return [
        EstimatorFactory("RESTART", "RESTART"),
        EstimatorFactory("REISSUE", "REISSUE"),
        EstimatorFactory("RS", "RS"),
    ]


class Experiment:
    """A repeatable multi-round, multi-trial estimator comparison.

    Every engine knob comes from ``config`` (an
    :class:`~repro.api.EngineConfig`); trial seeding starts from
    ``config.seed``.
    """

    def __init__(
        self,
        name: str,
        env_factory: EnvFactory,
        specs_factory: SpecsFactory,
        config: EngineConfig | None = None,
        rounds: int = 1,
        trials: int = 1,
        estimators: Sequence[EstimatorFactory] | None = None,
        intra_round: bool = False,
    ):
        if rounds < 1 or trials < 1:
            raise ExperimentError("rounds and trials must be positive")
        self.name = name
        self.env_factory = env_factory
        self.specs_factory = specs_factory
        self.config = config if config is not None else EngineConfig()
        self.rounds = rounds
        self.trials = trials
        self.estimators = (
            list(estimators) if estimators is not None else default_estimators()
        )
        self.intra_round = intra_round

    def _build_env(self, seed: int) -> Env:
        with self.config.apply(), OBS.span("experiment.env_build"):
            return self.env_factory(seed)

    def _engine(self, db: HiddenDatabase) -> Engine:
        return Engine(self.config, db=db)

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute all trials and return the collected result."""
        result: ExperimentResult | None = None
        for trial in range(self.trials):
            seed = self.config.seed + 1000 * trial
            with OBS.span("experiment.trial"):
                if self.intra_round:
                    trial_result = self._run_trial_intra(seed, trial, result)
                else:
                    trial_result = self._run_trial_round(seed, trial, result)
            result = trial_result
        assert result is not None
        return result

    # ------------------------------------------------------------------
    def _make_result(self, specs: Sequence[AnySpec]) -> ExperimentResult:
        spec_names = [spec.name for spec in specs]
        spec_names += [
            base.name
            for base in base_specs_of(specs)
            if base.name not in spec_names
        ]
        return ExperimentResult(
            self.name, [factory.name for factory in self.estimators], spec_names
        )

    def _submit_all(
        self, engine: Engine, specs: Sequence[AnySpec], seed: int
    ) -> None:
        """One engine task per estimator factory, legacy seed schedule."""
        for index, factory in enumerate(self.estimators):
            engine.submit(factory.task(specs, seed + 17 + index))

    def _run_trial_round(
        self, seed: int, trial: int, result: ExperimentResult | None
    ) -> ExperimentResult:
        db, schedule = self._build_env(seed)
        specs = list(self.specs_factory(db.schema))
        if result is None:
            result = self._make_result(specs)
        engine = self._engine(db)
        tracker = GroundTruthTracker(db, specs)
        self._submit_all(engine, specs, seed)
        schedule_rng = random.Random(seed + 5)
        result.start_trial()
        for position in range(self.rounds):
            if position > 0:
                engine.apply_updates(
                    lambda db: apply_round(db, schedule, schedule_rng)
                )
                engine.advance_round()
            round_index = engine.current_round
            result.record_truth(round_index, tracker.record_round(round_index))
            for name, report in engine.run_round().items():
                result.record_report(
                    name,
                    report.estimates,
                    report.queries_used,
                    report.drilldowns_updated + report.drilldowns_new,
                )
        return result

    def _run_trial_intra(
        self, seed: int, trial: int, result: ExperimentResult | None
    ) -> ExperimentResult:
        """Intra-round mode: independent environment per estimator."""
        snapshots: dict[str, dict[int, dict[str, float]]] = {}
        reports: dict[str, list] = {}
        specs_for_result: Sequence[AnySpec] | None = None
        round_ids: list[int] = []
        for index, factory in enumerate(self.estimators):
            db, schedule = self._build_env(seed)
            specs = list(self.specs_factory(db.schema))
            specs_for_result = specs
            engine = self._engine(db)
            tracker = GroundTruthTracker(db, specs)
            handle = engine.submit(factory.task(specs, seed + 17 + index))
            driver = IntraRoundDriver(
                db, schedule, self.config.budget_per_round,
                random.Random(seed + 5),
            )
            handle.estimator.on_query = driver.on_query
            snapshots[factory.name] = {}
            reports[factory.name] = []
            round_ids = []
            for position in range(self.rounds):
                if position > 0:
                    engine.advance_round()
                    driver.start_round()
                report = engine.run_round()[factory.name]
                if position > 0:
                    driver.finish_round()
                round_index = engine.current_round
                round_ids.append(round_index)
                snapshots[factory.name][round_index] = tracker.record_round(
                    round_index
                )
                reports[factory.name].append(report)
        assert specs_for_result is not None
        if result is None:
            result = self._make_result(specs_for_result)
        result.start_trial()
        # Truth differs per estimator in intra-round mode only through query
        # interleaving; environments share seeds so the planned mutations are
        # identical and the first estimator's truth serves as the reference.
        reference = self.estimators[0].name
        for round_index in round_ids:
            result.record_truth(round_index, snapshots[reference][round_index])
        for factory in self.estimators:
            for report in reports[factory.name]:
                result.record_report(
                    factory.name,
                    report.estimates,
                    report.queries_used,
                    report.drilldowns_updated + report.drilldowns_new,
                )
        return result
