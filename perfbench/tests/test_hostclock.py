"""The host clock refuses to scale time while other work runs beside it."""

import hashlib
import threading
import time

import hostclock


def burn(seconds: float, data: bytes) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        hashlib.sha256(data).digest()


def test_single_thread_passes():
    clock = hostclock.HostClock()
    clock.mark()
    burn(0.2, b"x" * (1 << 20))
    clock.mark()
    assert clock.problems == []
    assert clock.scaled_s > 0.0


def test_second_thread_is_caught():
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        clock = hostclock.HostClock()
        clock.mark()
        clock.mark()
    finally:
        stop.set()
        worker.join()
    assert any("threads" in p for p in clock.problems)


def test_parallel_cpu_time_is_caught(monkeypatch):
    # with the thread count hidden, CPU time running at twice the wall time
    # (two threads busy on two cores) is still caught
    monkeypatch.setattr(hostclock, "concurrency", lambda: None)
    monkeypatch.setattr(hostclock.time, "process_time", lambda: 2.0 * time.perf_counter())
    clock = hostclock.HostClock()
    clock.mark()
    burn(0.05, b"x" * (1 << 20))
    clock.mark()
    assert any("in parallel" in p for p in clock.problems)
