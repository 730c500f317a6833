"""The typed service-error taxonomy and its backward compatibility."""

import math

import pytest

from repro.cloud.errors import (
    DuplicateTenantError,
    EventValidationError,
    InvariantViolation,
    ServiceError,
    SimulatedCrash,
    UnknownTenantError,
)
from repro.cloud.service import AllocationService, Event, TenantRequest
from repro.economics.utility import UTILITY2


def tenant(name, budget=24.0):
    return TenantRequest(name=name, benchmark="gcc",
                         utility=UTILITY2, budget=budget)


def service():
    return AllocationService(slice_supply=64.0, bank_supply=64.0)


class TestTaxonomy:
    def test_reason_slugs(self):
        assert UnknownTenantError("x").reason == "unknown_tenant"
        assert DuplicateTenantError("x").reason == "duplicate_tenant"
        assert EventValidationError("x").reason == "invalid_event"
        assert InvariantViolation("x").reason == "invariant_violation"

    def test_all_are_service_errors(self):
        for cls in (UnknownTenantError, DuplicateTenantError,
                    EventValidationError, InvariantViolation):
            assert issubclass(cls, ServiceError)

    def test_simulated_crash_is_not_absorbed_as_service_error(self):
        # Lenient mode must never swallow a crash.
        assert not issubclass(SimulatedCrash, ServiceError)
        assert SimulatedCrash(42).index == 42

    def test_tenant_attribute(self):
        err = UnknownTenantError("no tenant 'bob'", tenant="bob")
        assert err.tenant == "bob"

    def test_str_is_prose_not_keyerror_repr(self):
        # Plain KeyError would render as "'no tenant bob'" (quoted).
        err = UnknownTenantError("no tenant 'bob' registered")
        assert str(err) == "no tenant 'bob' registered"


class TestBackwardCompat:
    """Old call sites catch KeyError/ValueError; they must keep working."""

    def test_unknown_tenant_is_keyerror(self):
        svc = service()
        with pytest.raises(KeyError):
            svc.depart("ghost")
        with pytest.raises(UnknownTenantError):
            svc.resize("ghost", 10.0)
        with pytest.raises(KeyError):
            svc.tenant("ghost")

    def test_duplicate_is_valueerror(self):
        svc = service()
        svc.submit(tenant("a"))
        with pytest.raises(ValueError):
            svc.submit(tenant("a"))
        with pytest.raises(DuplicateTenantError) as exc:
            svc.submit(tenant("a"))
        assert exc.value.tenant == "a"

    def test_bad_event_is_valueerror(self):
        with pytest.raises(ValueError):
            Event(kind="arrive")
        with pytest.raises(EventValidationError):
            Event(kind="submit")
        for budget in (-1.0, math.nan, math.inf):
            with pytest.raises(EventValidationError):
                TenantRequest(name="a", benchmark="gcc",
                              utility=UTILITY2, budget=budget)

    def test_bad_resize_is_valueerror(self):
        svc = service()
        svc.submit(tenant("a"))
        with pytest.raises(ValueError):
            svc.resize("a", -5.0)
        for budget in (0.0, math.nan, math.inf):
            with pytest.raises(EventValidationError):
                svc.resize("a", budget)

    def test_lenient_stream_dead_letters_nan_resize(self):
        svc = service()
        events = [
            Event(kind="submit", tenant=tenant("a")),
            Event(kind="resize", tenant_id="a", budget=math.nan),
            Event(kind="submit", tenant=tenant("b")),
        ]
        outcomes = [svc.process(event, index, strict=False)
                    for index, event in enumerate(events)]
        assert outcomes[1] is None
        assert svc.summary().admitted == 2
        assert svc.dead_letter_counts == {"invalid_event": 1}
        assert svc.tenant("a").budget == 24.0


class TestEventSubject:
    def test_subject_names_the_tenant(self):
        assert Event(kind="submit",
                     tenant=tenant("a")).subject == "a"
        assert Event(kind="depart", tenant_id="b").subject == "b"
        assert Event(kind="resize", tenant_id="c",
                     budget=10.0).subject == "c"
