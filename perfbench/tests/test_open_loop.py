"""Open-loop timing counts the time a stall makes later requests wait."""

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import pytest

from perfbench.bench import _program_cpu
from perfbench.inputs import Op, Request
from perfbench.loadgen import RequestLog, WriteLog, run_closed_loop, run_open_loop


@dataclass
class FakeResult:
    ok: bool = True
    error: None = None
    cache_hit: bool = True
    plan_cache_hit: bool = False
    queue_seconds: float = 0.0
    total_seconds: float = 0.0
    explanation: None = None


class StallingService:
    """Answers every request at once, except that one ``submit`` call blocks
    for ``stall`` seconds, the way a collector pause or a held interpreter
    lock stops the caller."""

    def __init__(self, stall_at: int, stall: float):
        self.stall_at, self.stall, self.calls = stall_at, stall, 0

    def submit(self, sql):
        if self.calls == self.stall_at:
            time.sleep(self.stall)
        self.calls += 1
        future = Future()
        future.set_result(FakeResult())
        return future


def test_latency_is_timed_from_the_scheduled_send_time():
    interval, stall = 0.01, 0.2
    ops = [Op(n * interval, request=Request(f"q{n}")) for n in range(40)]
    log = RequestLog()
    run_open_loop(ops, StallingService(stall_at=5, stall=stall).submit, None, log, WriteLog.empty())

    assert len(log) == 40
    # The stalled call itself is slow from when it was due.
    assert log.latency(5) >= stall
    # The next request was due 10 ms into the stall: it could only be sent
    # once the stall ended, and that wait is counted against it...
    assert log.latency(6) >= stall - interval - 0.005
    assert log.sent[6] - log.due[6] >= stall - interval - 0.005
    # ...although the service answered it at once, which timing from the
    # actual send (coordinated omission) would have reported.
    assert log.completion(6) - log.sent[6] < 0.005
    # Requests due after the stall are unaffected.
    assert log.latency(39) < 0.05


class SlowWorkerService:
    """Completes each request on a worker thread after ``delay`` seconds."""

    def __init__(self, delay: float):
        self.delay = delay
        self.in_flight = self.max_in_flight = 0
        self.lock = threading.Lock()
        self.threads = []

    def submit(self, sql):
        future = Future()
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)

        def complete():
            time.sleep(self.delay)
            with self.lock:
                self.in_flight -= 1
            future.set_result(FakeResult(cache_hit=False, total_seconds=self.delay))

        thread = threading.Thread(target=complete)
        self.threads.append(thread)
        thread.start()
        return future


def test_closed_loop_keeps_a_fixed_number_outstanding():
    service = SlowWorkerService(delay=0.01)
    log = RequestLog()
    requests = (Request(f"q{n}") for n in range(100_000))
    start, end = run_closed_loop(requests, service.submit, log, outstanding=4, seconds=0.3)
    for thread in service.threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    assert end - start == pytest.approx(0.3)
    assert service.max_in_flight == 4
    assert all(outcome.ok for outcome in log.outcome)
    # Four at a time, 10 ms each: at most ~120 complete in 0.3 s.
    assert 40 <= len(log) <= 140
    # Completion is observed on the worker thread, after the service delay.
    assert all(log.completion(i) - log.sent[i] >= 0.009 for i in range(len(log)))


def test_answers_to_keep_are_chosen_on_the_generator_thread_in_send_order():
    calls = []

    def keep(index, request):
        calls.append((index, threading.get_ident()))
        return index % 2 == 0, False

    service = SlowWorkerService(delay=0.005)
    log = RequestLog(keep)
    for n in range(6):
        log.send(service.submit, Request(f"q{n}"), time.perf_counter())
    log.drain()
    for thread in service.threads:
        thread.join(timeout=5.0)

    assert calls == [(n, threading.get_ident()) for n in range(6)]
    assert log.kept == [(n % 2 == 0, False) for n in range(6)]


def _burn(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


class BurningService:
    """Answers at once after using ``cpu`` seconds of CPU in ``submit``."""

    def __init__(self, cpu: float):
        self.cpu = cpu

    def submit(self, sql):
        _burn(self.cpu)
        future = Future()
        future.set_result(FakeResult())
        return future


def test_program_cpu_leaves_out_the_generators_own_work():
    log = RequestLog()
    clocks = time.process_time(), time.thread_time()
    for n in range(5):
        _burn(0.03)  # the generator's own work between sends
        log.send(BurningService(cpu=0.02).submit, Request(f"q{n}"), time.perf_counter())
    program = _program_cpu(*clocks, log.submit_cpu)

    assert log.submit_cpu == pytest.approx(0.1, abs=0.02)
    assert program == pytest.approx(0.1, abs=0.03)
