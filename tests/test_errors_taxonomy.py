"""The typed error taxonomy: stable codes, wire mapping, rehydration.

Satellite contract of the service PR: every exception class carries a
stable machine-readable ``code`` and an HTTP status class, the
exception→wire mapping lives in exactly one place
(:func:`repro.errors.wire_error`), and clients rebuild the original
class from the wire payload (:func:`repro.errors.error_from_wire`).
"""

import pytest

from repro.errors import (
    ERROR_CLASSES,
    AdmissionError,
    DuplicateTaskError,
    EstimationError,
    ExperimentError,
    QueryBudgetExhausted,
    ReproError,
    SchemaError,
    StaleResultError,
    UnknownTaskError,
    WireFormatError,
    error_code,
    error_from_wire,
    http_status_of,
    wire_error,
)

#: The stable code/status table.  Changing any entry is a wire break and
#: must bump SCHEMA_VERSION — this test is the tripwire.
EXPECTED = {
    SchemaError: ("SCHEMA_INVALID", 400),
    QueryBudgetExhausted: ("BUDGET_EXHAUSTED", 429),
    StaleResultError: ("STALE_RESULT", 409),
    EstimationError: ("ESTIMATION_FAILED", 500),
    ExperimentError: ("CONFIG_INVALID", 400),
    UnknownTaskError: ("UNKNOWN_TASK", 404),
    DuplicateTaskError: ("DUPLICATE_TASK", 409),
    WireFormatError: ("WIRE_INVALID", 400),
    AdmissionError: ("ADMISSION_REJECTED", 429),
}


class TestCodes:
    @pytest.mark.parametrize(
        "cls,expected", EXPECTED.items(),
        ids=[cls.__name__ for cls in EXPECTED],
    )
    def test_code_and_status_are_stable(self, cls, expected):
        code, status = expected
        assert cls.code == code
        assert cls.http_status == status
        assert ERROR_CLASSES[code] is cls

    def test_codes_are_unique(self):
        codes = [cls.code for cls in EXPECTED]
        assert len(set(codes)) == len(codes)

    def test_unclassified_exceptions_map_to_internal(self):
        assert error_code(RuntimeError("boom")) == "INTERNAL"
        assert http_status_of(RuntimeError("boom")) == 500
        assert error_code(ReproError("x")) == "INTERNAL"


class TestBackwardCompatibility:
    """The migration contract: old except clauses keep working."""

    def test_task_errors_are_experiment_errors(self):
        assert issubclass(UnknownTaskError, ExperimentError)
        assert issubclass(DuplicateTaskError, ExperimentError)

    def test_everything_is_a_repro_error(self):
        for cls in EXPECTED:
            assert issubclass(cls, ReproError)


class TestWireMapping:
    def test_wire_error_payload_shape(self):
        payload = wire_error(UnknownTaskError("ghost"))
        assert payload == {
            "code": "UNKNOWN_TASK",
            "error_type": "UnknownTaskError",
            "message": payload["message"],
            "details": {"task": "ghost"},
        }
        assert "ghost" in payload["message"]

    def test_budget_details_carry_the_budget(self):
        exc = QueryBudgetExhausted(57)
        assert wire_error(exc)["details"] == {"budget": 57}

    def test_admission_details(self):
        exc = AdmissionError(
            "window exhausted", tenant="t1", retry_after_rounds=5,
            remaining=3,
        )
        details = wire_error(exc)["details"]
        assert details == {
            "tenant": "t1", "retry_after_rounds": 5, "remaining": 3,
        }

    def test_foreign_exception_payload(self):
        payload = wire_error(KeyError("oops"))
        assert payload["code"] == "INTERNAL"
        assert payload["error_type"] == "KeyError"


class TestRehydration:
    """error_from_wire rebuilds the typed exception a client should raise."""

    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError("bad attribute"),
            QueryBudgetExhausted(12),
            UnknownTaskError("ghost"),
            DuplicateTaskError("task 'x' already submitted"),
            WireFormatError("not json"),
            AdmissionError("nope", tenant="t", retry_after_rounds=2,
                           remaining=0),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_round_trip_preserves_class_and_details(self, exc):
        rebuilt = error_from_wire(wire_error(exc))
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)
        assert wire_error(rebuilt)["details"] == wire_error(exc)["details"]

    def test_rehydrated_attributes_are_usable(self):
        rebuilt = error_from_wire(wire_error(QueryBudgetExhausted(9)))
        assert rebuilt.budget == 9
        rebuilt = error_from_wire(wire_error(UnknownTaskError("ghost")))
        assert rebuilt.name == "ghost"
        rebuilt = error_from_wire(wire_error(
            AdmissionError("x", tenant="t9", retry_after_rounds=4,
                           remaining=1)
        ))
        assert (rebuilt.tenant, rebuilt.retry_after_rounds,
                rebuilt.remaining) == ("t9", 4, 1)

    def test_unknown_code_degrades_to_repro_error(self):
        rebuilt = error_from_wire({
            "code": "FROM_THE_FUTURE", "error_type": "NewError",
            "message": "??", "details": {},
        })
        assert type(rebuilt) is ReproError
        assert "??" in str(rebuilt)

    def test_rehydrated_errors_are_catchable_as_before(self):
        with pytest.raises(ExperimentError):
            raise error_from_wire(wire_error(UnknownTaskError("x")))
        rebuilt = error_from_wire(wire_error(WireFormatError("x")))
        with pytest.raises(ReproError) as caught:
            raise rebuilt
        assert caught.value.code == "WIRE_INVALID"
        assert not isinstance(rebuilt, ValueError)
