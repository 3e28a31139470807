"""The error taxonomy: one base class, and a subclass only where a caller
catches it by type or reads a field from it."""

from __future__ import annotations

from sosage.errors import LimitExceeded, ParseError, SosageError, ValidationError, VerifyFailed


def test_only_the_caught_subclasses_exist():
    assert set(SosageError.__subclasses__()) == {ParseError, ValidationError, LimitExceeded, VerifyFailed}
