"""The CPUs this process may run on: one rule for every caller that sizes work by them."""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs in this process's affinity mask, or the machine's count where the OS keeps none.

    ``os.cpu_count()`` counts the machine; a container or ``taskset``
    that pins the process to fewer CPUs leaves it that many to run on.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
