"""Shared number formatting for CLI summaries and trace reports.

One place to format rates and durations so the CLI's engine
summary and ``tools/trace_view.py`` print the same shapes — previously
each call site interpolated raw floats with ad-hoc precision.
"""

from __future__ import annotations

import math

__all__ = ["format_percent", "format_seconds"]


def format_percent(fraction: float, decimals: int = 1) -> str:
    """A 0-1 fraction as a percentage string: ``0.6842 -> '68.4%'``."""
    if not math.isfinite(fraction):
        return "n/a"
    return f"{100.0 * fraction:.{decimals}f}%"


def format_seconds(seconds: float) -> str:
    """A duration with sub-second/minute awareness: ``0.0042 -> '4.2ms'``."""
    if not math.isfinite(seconds):
        return "n/a"
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60.0:
        return f"{seconds:.2f}s"
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rest:04.1f}s"
