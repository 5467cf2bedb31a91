"""Hidden web database simulator: the substrate the paper's estimators query.

Public surface: schemas and tuples, the dynamic database, its restrictive
top-k search interface, and budgeted query sessions.
"""

from .backends import mod_many
from .database import HiddenDatabase
from .interface import TopKInterface
from .query import ConjunctiveQuery
from .ranking import MeasureScore, RandomScore, RecencyScore
from .result import QueryResult, QueryStatus
from .schema import Attribute, Schema, boolean_schema
from .session import QuerySession
from .store import (
    KeyCodec,
    PrefixIndex,
    SortedKeyList,
    TupleStore,
    get_data_plane,
    overriding_data_plane,
    set_data_plane,
    using_data_plane,
)
from .tuples import HiddenTuple, TupleBatch, make_tuple

__all__ = [
    "Attribute",
    "ConjunctiveQuery",
    "HiddenDatabase",
    "HiddenTuple",
    "KeyCodec",
    "MeasureScore",
    "PrefixIndex",
    "QueryResult",
    "QuerySession",
    "QueryStatus",
    "RandomScore",
    "RecencyScore",
    "Schema",
    "SortedKeyList",
    "TopKInterface",
    "TupleBatch",
    "TupleStore",
    "boolean_schema",
    "get_data_plane",
    "make_tuple",
    "mod_many",
    "overriding_data_plane",
    "set_data_plane",
    "using_data_plane",
]
