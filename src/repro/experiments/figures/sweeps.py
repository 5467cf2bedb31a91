"""Figures 8–13: parameter sweeps (k, G, churn, m, |D1|, selection SUMs).

Each sweep reports the trial-mean relative error over the final rounds of
a tracking run, per estimator, per sweep point — the paper's
"error after N rounds" y-axis.
"""

from __future__ import annotations

from ...core.aggregates import count_all, sum_measure
from ...data.schedules import SnapshotPoolSchedule
from ...data.synthetic import skewed_source
from ...hiddendb.database import HiddenDatabase
from .common import (
    DEFAULT_SCALE,
    DEFAULT_TRIALS,
    FigureResult,
    autos_env_factory,
    run_three_way,
    scaled_k,
)


def _count_specs(schema):
    return [count_all()]


def _sweep_figure(
    figure_id: str,
    title: str,
    x_label: str,
    xs,
    results,
    spec: str = "count",
    notes: str = "",
    tail: int = 5,
    log_y: bool = False,
) -> FigureResult:
    estimators = results[0].estimator_names
    series = {
        estimator: [r.tail_rel_error(estimator, spec, tail=tail) for r in results]
        for estimator in estimators
    }
    return FigureResult(
        figure_id, title, x_label, "relative error", xs, series,
        notes=notes, log_y=log_y,
    )


def run_fig08(
    scale: float = DEFAULT_SCALE,
    trials: int = DEFAULT_TRIALS,
    rounds: int = 30,
    budget: int = 500,
    seed: int = 0,
    k_values=(200, 400, 600, 800, 1000),
) -> FigureResult:
    """Figure 8: effect of the interface page size k."""
    results = [
        run_three_way(
            f"fig08_k{k}",
            autos_env_factory(scale=scale),
            _count_specs,
            k=scaled_k(scale, paper_k=k),
            budget=budget,
            rounds=rounds,
            trials=trials,
            seed=seed,
        )
        for k in k_values
    ]
    return _sweep_figure(
        "fig08",
        "Error after tracking vs interface page size k",
        "k",
        list(k_values),
        results,
        notes="Bigger k = shallower drill-downs = cheaper rounds = lower "
        "error, for every algorithm.",
    )


def run_fig09(
    scale: float = DEFAULT_SCALE,
    trials: int = DEFAULT_TRIALS,
    rounds: int = 30,
    seed: int = 0,
    budgets=(100, 200, 300, 400, 500, 600),
) -> FigureResult:
    """Figure 9: effect of the per-round query budget G."""
    results = [
        run_three_way(
            f"fig09_g{budget}",
            autos_env_factory(scale=scale),
            _count_specs,
            k=scaled_k(scale),
            budget=budget,
            rounds=rounds,
            trials=trials,
            seed=seed,
        )
        for budget in budgets
    ]
    return _sweep_figure(
        "fig09",
        "Error after tracking vs per-round query budget G",
        "G",
        list(budgets),
        results,
        notes="RS stays best throughout; its edge over REISSUE narrows as "
        "G grows (updates then take a small budget share anyway).",
    )


def run_fig10(
    trials: int = DEFAULT_TRIALS,
    rounds: int = 60,
    budget: int = 100,
    seed: int = 0,
    net_inserts=(-30, -15, 0, 15, 30),
    k: int = 50,
) -> FigureResult:
    """Figure 10: net insertions/deletions per round on a 5,000-tuple DB."""
    results = []
    for net in net_inserts:
        inserts = max(net, 0)
        deletes = max(-net, 0)

        def factory(seed_: int, inserts=inserts, deletes=deletes):
            # A large snapshot leaves a deep pool for 60 rounds of inserts.
            from ...data.autos import autos_snapshot

            schema, payloads = autos_snapshot(10_000, seed_)
            db = HiddenDatabase(schema)
            db.insert_many(payloads[:5_000])
            schedule = SnapshotPoolSchedule(
                payloads[5_000:],
                inserts_per_round=inserts,
                deletes_per_round=deletes,
            )
            return db, schedule

        results.append(
            run_three_way(
                f"fig10_net{net}",
                factory,
                _count_specs,
                k=k,
                budget=budget,
                rounds=rounds,
                trials=trials,
                seed=seed,
            )
        )
    return _sweep_figure(
        "fig10",
        "Error vs per-round net insertion count (5k-tuple database)",
        "net inserts/round",
        list(net_inserts),
        results,
        notes="REISSUE suffers most on the deletion-heavy side (Theorem "
        "3.2's worst case); RS stays ahead of RESTART everywhere.",
    )


def run_fig11(
    scale: float = DEFAULT_SCALE,
    trials: int = DEFAULT_TRIALS,
    rounds: int = 30,
    budget: int = 500,
    seed: int = 0,
    attribute_counts=(34, 36, 38),
) -> FigureResult:
    """Figure 11: effect of the attribute count m (expected: flat)."""
    results = [
        run_three_way(
            f"fig11_m{m}",
            autos_env_factory(scale=scale, num_attributes=m),
            _count_specs,
            k=scaled_k(scale),
            budget=budget,
            rounds=rounds,
            trials=trials,
            seed=seed,
        )
        for m in attribute_counts
    ]
    return _sweep_figure(
        "fig11",
        "Error vs number of attributes m",
        "m",
        list(attribute_counts),
        results,
        notes="Drill-downs rarely reach the lowest levels, so extra "
        "attributes change nothing (matches the paper).",
    )


def run_fig12(
    trials: int = DEFAULT_TRIALS,
    rounds: int = 10,
    budget: int = 500,
    seed: int = 0,
    sizes=(10_000, 100_000, 1_000_000),
    k: int = 100,
) -> FigureResult:
    """Figure 12: scalability in the starting database size (m=50).

    The paper sweeps to 10^7; pure-Python tuple storage caps the default at
    10^6 (pass a larger ``sizes`` with ~3 GB of RAM to go further).  The
    trend is established over three decades: RESTART's error grows with
    the database, ours stays flat.
    """
    domain_sizes = [2 + (i % 7) for i in range(50)]
    results = []
    for n in sizes:
        def factory(seed_: int, n=n):
            source = skewed_source(domain_sizes, exponent=0.4, seed=seed_)
            db = HiddenDatabase(source.schema)
            # Columnar load: the batch goes straight into heap blocks
            # without materializing per-tuple payloads.
            db.insert_many(source.batch_columns(n))
            from ...data.schedules import FreshTupleSchedule

            schedule = FreshTupleSchedule(
                source,
                inserts_per_round=max(1, n // 500),
                delete_fraction=0.001,
            )
            return db, schedule

        results.append(
            run_three_way(
                f"fig12_n{n}",
                factory,
                _count_specs,
                k=k,
                budget=budget,
                rounds=rounds,
                trials=trials,
                seed=seed,
            )
        )
    return _sweep_figure(
        "fig12",
        "Error vs starting database size (m=50)",
        "|D1|",
        list(sizes),
        results,
        tail=3,
        notes="RESTART worsens with scale; REISSUE/RS stay flat and the "
        "gap widens (paper Fig. 12).",
    )


def run_fig13(
    scale: float = DEFAULT_SCALE,
    trials: int = DEFAULT_TRIALS,
    rounds: int = 40,
    budget: int = 500,
    seed: int = 0,
) -> FigureResult:
    """Figure 13: SUM(price) with 0–3 conjunctive selection predicates.

    Predicates are pushed into the query tree (§3.3), so more selective
    aggregates drill a *smaller* subtree and get lower errors.
    """
    condition_sets = [
        {},
        {"certified": "certified_0"},
        {"certified": "certified_0", "one_owner": "one_owner_0"},
        {
            "certified": "certified_0",
            "one_owner": "one_owner_0",
            "warranty": "warranty_0",
        },
    ]
    results = []
    for conditions in condition_sets:
        def specs_factory(schema, conditions=conditions):
            return [
                sum_measure(schema, "price", where=conditions or None,
                            name="sum_price")
            ]

        results.append(
            run_three_way(
                f"fig13_c{len(conditions)}",
                autos_env_factory(scale=scale),
                specs_factory,
                k=scaled_k(scale),
                budget=budget,
                rounds=rounds,
                trials=trials,
                seed=seed,
            )
        )
    return _sweep_figure(
        "fig13",
        "SUM(price) error vs number of conjunctive selection predicates",
        "#predicates",
        [0, 1, 2, 3],
        results,
        spec="sum_price",
        notes="More selective aggregates restrict the drill-down subtree "
        "and get more accurate (paper Fig. 13).",
    )
