"""Shared fixtures."""

from __future__ import annotations

import pytest

from sosage.hyperstruct import Universe
from sosage.rng import Stream

from support import stream


@pytest.fixture
def universe() -> Universe:
    return Universe()


@pytest.fixture
def rng() -> Stream:
    return stream(0)
