"""Wall time scaled to a fixed host speed.

The reference host is a 2-core 2.0 GHz Xeon VM shared with other tenants.
Its speed for pure-Python work moves between levels about 1.6 times apart:
every 0.1 s to several seconds between a fast and a slow level, and over
half an hour the levels themselves drifted by about a fifth. A 30 s run
therefore measures the host about as much as the program. Repeating the
work inside a run and keeping the fastest repeat did not help, because
consecutive runs sat at different levels.

``HostClock`` times a fixed pure-Python probe loop at every mark and scales
the wall time between two marks by ``REF_PROBE_S`` over the mean of the two
probes, leaving the probes' own time out. The result reads as seconds on a
host where the probe takes ``REF_PROBE_S``, and it moves with the program's
own cost, not with the host's level. Marks are set at every generation (in
the ``progress`` callback) and around every checkpoint read, so a segment
spans at most one generation or one read.

The scaling holds only while the measured process does its work in one
thread, the one that runs the probe: work done beside the probe would slow
the probe, shrink the scaled span and never be timed itself. So each mark
also checks that the process has one thread and no child process, and that
the CPU time since the previous mark is not more than the wall time. A
clock that saw otherwise lists it in ``problems``, and the run that owns the
clock is not correct.
"""

from __future__ import annotations

import os
import threading
import time

PROBE_ITERATIONS = 5_000
# about the probe's median time on the reference host (a 2-core 2.0 GHz Xeon
# VM, Python 3.11), where it ranged from 0.39 to 0.5 ms; it only sets the scale
REF_PROBE_S = 0.5e-3


def probe_s(iterations: int = PROBE_ITERATIONS) -> float:
    """Time of one run of the fixed probe loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(iterations):
        s += i * i % 7
    return time.perf_counter() - t0


def scale(raw_s: float, probe_before: float, probe_after: float) -> float:
    return raw_s * REF_PROBE_S * 2.0 / (probe_before + probe_after)


_TASKS = "/proc/self/task"


def concurrency() -> str | None:
    """What, besides this thread, could run alongside it; None if nothing."""
    threads = threading.active_count()
    if os.path.isdir(_TASKS):  # Linux: also count threads started outside Python
        threads = max(threads, len(os.listdir(_TASKS)))
    if threads > 1:
        return f"{threads} threads"
    try:
        with open(f"{_TASKS}/{threading.get_native_id()}/children", encoding="ascii") as f:
            children = f.read().split()
    except OSError:
        return None  # not Linux, or the kernel does not list children
    return f"child processes {children}" if children else None


# CPU time may exceed wall time by this much before it counts as parallel work
CPU_SLACK_S = 1e-3


class HostClock:
    """Sums scaled (and raw) time between consecutive ``mark()`` calls."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.problems: list[str] = []
        # (probe time, wall clock and CPU clock at the end of the probe)
        self._last: tuple[float, float, float] | None = None

    def _problem(self, what: str) -> None:
        if what not in self.problems:
            self.problems.append(what)

    def mark(self) -> float:
        """Set a mark; return the scaled time since the previous one (0.0 at
        the first mark)."""
        start = time.perf_counter()
        found = concurrency()
        if found is not None:
            self._problem(f"time scaling needs one thread and no child process; saw {found}")
        probe = probe_s()
        # CPU clock read before the wall clock, so the wall span encloses it
        cpu = time.process_time()
        end = time.perf_counter()
        segment = 0.0
        if self._last is not None:
            last_probe, last_end, last_cpu = self._last
            segment = scale(start - last_end, last_probe, probe)
            self.raw_s += start - last_end
            self.scaled_s += segment
            if cpu - last_cpu > end - last_end + CPU_SLACK_S:
                self._problem(f"CPU time {cpu - last_cpu:.4f} s over a wall span of "
                              f"{end - last_end:.4f} s: work ran in parallel")
        self._last = (probe, end, cpu)
        return segment
