"""Shared number-formatting helpers (CLI summary == bench report shapes)."""

import math

import pytest

from repro.telemetry import format_percent, format_seconds


class TestFormatPercent:
    @pytest.mark.parametrize(
        "fraction, expected",
        [(0.6842, "68.4%"), (0.0, "0.0%"), (1.0, "100.0%"), (0.005, "0.5%")],
    )
    def test_basic(self, fraction, expected):
        assert format_percent(fraction) == expected

    def test_decimals(self):
        assert format_percent(0.12345, decimals=2) == "12.35%"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        assert format_percent(bad) == "n/a"


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "seconds, expected",
        [
            (0.0000042, "4µs"),
            (0.0042, "4.2ms"),
            (0.5, "500.0ms"),
            (3.14159, "3.14s"),
            (59.99, "59.99s"),
            (61.5, "1m01.5s"),
            (3600.0, "60m00.0s"),
        ],
    )
    def test_unit_ladder(self, seconds, expected):
        assert format_seconds(seconds) == expected

    def test_negative_prefixed(self):
        assert format_seconds(-0.5) == "-500.0ms"

    def test_non_finite(self):
        assert format_seconds(math.inf) == "n/a"
