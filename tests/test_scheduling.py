"""Load factor."""

from __future__ import annotations

import math

import pytest

from loadcap.scheduling import load_factor


def test_load_factor_values() -> None:
    assert load_factor([1.0, 2.0, 3.0, 2.0]) == pytest.approx(2.0 / 3.0)
    assert load_factor([4.0, 4.0, 4.0]) == 1.0
    assert load_factor([0.0, 2.0]) == 0.5


def test_load_factor_scale_invariance() -> None:
    series = [1.0, 5.0, 2.0, 4.0]
    scaled = [10.0 * x for x in series]
    assert load_factor(series) == pytest.approx(load_factor(scaled))


def test_load_factor_undefined_cases() -> None:
    for series in ([], [0.0, 0.0], [-1.0, 0.0], [1.0, float("nan")], [1.0, float("inf")]):
        assert math.isnan(load_factor(series))
