"""The Python runtime layer: collector pauses, peak memory, environment."""

from __future__ import annotations

import gc
import os
import platform
import resource
import time

import numpy


class GCWatch:
    """Collector pauses seen through ``gc.callbacks`` (installed in every run;
    the collector's thresholds are left as the program has them)."""

    def __init__(self) -> None:
        self._started = 0.0
        #: (perf_counter at stop, generation, pause seconds)
        self.pauses: list[tuple[float, int, float]] = []

    def _callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._started = now
        else:
            self.pauses.append((now, info["generation"], now - self._started))

    def __enter__(self) -> "GCWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)

    def within(self, start: float, end: float) -> tuple[float, int]:
        """(total pause seconds, gen-2 collections) that ended in [start, end]."""
        inside = [(gen, pause) for at, gen, pause in self.pauses if start <= at <= end]
        return sum(pause for _, pause in inside), sum(1 for gen, _ in inside if gen == 2)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, from ``/proc/stat``;
    steal is time the hypervisor gave this machine's CPUs to someone else."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "gc_thresholds": gc.get_threshold(),
    }
