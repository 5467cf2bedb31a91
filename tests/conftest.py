"""Shared fixtures: small, fully-inspectable hidden databases.

Also implements the ``slow`` marker policy: many-trial statistical tests
are skipped in the default (tier-1) run and selected explicitly with
``pytest -m slow`` or ``REPRO_RUN_SLOW=1`` (the CI coverage job sets the
latter so coverage includes them), and restores the process-global
observability switch after every test.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import Attribute, HiddenDatabase, Schema, TopKInterface
from repro.hiddendb.session import QuerySession
from repro.obs import OBS


def pytest_collection_modifyitems(config, items):
    run_slow = os.environ.get("REPRO_RUN_SLOW", "").lower() not in (
        "", "0", "false", "no",
    )
    if config.option.markexpr or run_slow:
        return  # an explicit -m expression (or the env knob) decides
    skip_slow = pytest.mark.skip(
        reason="slow statistical test; run with -m slow or REPRO_RUN_SLOW=1"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(autouse=True)
def _restore_observability_switch():
    """Leave ``OBS.enabled`` as the test found it: ``build_app`` and other
    callers switch the process-global registry on, and later modules must
    not run in a mode that depends on file order."""
    enabled = OBS.enabled
    yield
    if enabled:
        OBS.enable()
    else:
        OBS.disable()


@pytest.fixture
def small_schema() -> Schema:
    """3 categorical attributes (2*3*4 = 24 leaves) + one measure."""
    return Schema(
        [
            Attribute("color", ("red", "blue")),
            Attribute("size", ("s", "m", "l")),
            Attribute("kind", ("a", "b", "c", "d")),
        ],
        measures=("price",),
    )


def fill_random(
    db: HiddenDatabase, count: int, seed: int = 0, price_range=(1.0, 100.0)
) -> None:
    """Insert ``count`` random tuples (duplicates on values allowed)."""
    rng = random.Random(seed)
    sizes = db.schema.domain_sizes
    for _ in range(count):
        values = bytes(rng.randrange(s) for s in sizes)
        price = round(rng.uniform(*price_range), 2)
        db.insert(values, (price,))


@pytest.fixture
def small_db(small_schema) -> HiddenDatabase:
    db = HiddenDatabase(small_schema)
    fill_random(db, 60, seed=1)
    return db


@pytest.fixture
def small_interface(small_db) -> TopKInterface:
    return TopKInterface(small_db, k=5)


@pytest.fixture
def open_session(small_interface) -> QuerySession:
    """A session with no budget limit."""
    return QuerySession(small_interface, budget=None)
