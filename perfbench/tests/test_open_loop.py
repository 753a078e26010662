"""Open-loop generator: latency is timed from each query's due time."""

import pytest

from perfbench.workloads import latency_from_due, open_loop
from repro.serve import OverloadError


class FakeClock:
    def __init__(self):
        self.t = 100.0
        self.sleeps = []

    def __call__(self):
        return self.t

    def sleep(self, dt):
        self.sleeps.append(dt)
        self.t += dt


class FakeTicket:
    def __init__(self, accepted_at):
        self.accepted_at = accepted_at


class FakeResult:
    latency = 0.1  # the service's own admission-to-delivery time


def test_late_generator_keeps_due_times_and_charges_the_lag():
    clock = FakeClock()

    def slow_submit(q):  # each submission stalls the generator 50 ms
        clock.t += 0.05
        return FakeTicket(clock.t)

    sent = open_loop(slow_submit, list(range(5)), 100.0, clock=clock, sleep=clock.sleep)
    assert clock.sleeps == []  # always behind schedule: never sleeps
    for i, s in enumerate(sent):
        assert s.due == pytest.approx(100.0 + 0.01 * i)  # schedule does not slip
        assert s.sent_at - s.due == pytest.approx(0.04 * i)  # lag grows
        # due -> delivery: generator lag + submit stall + service latency
        assert latency_from_due(s, FakeResult()) == pytest.approx(0.04 * i + 0.05 + 0.1)


def test_on_time_generator_sleeps_to_due_and_counts_refusals():
    clock = FakeClock()

    def submit(q):
        if q == 2:
            raise OverloadError(queue_depth=4, capacity=4, retry_after=0.01)
        return FakeTicket(clock.t)

    sent = open_loop(submit, list(range(4)), 10.0, clock=clock, sleep=clock.sleep)
    assert [s.sent_at for s in sent] == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert [s.ticket is None for s in sent] == [False, False, True, False]
    assert latency_from_due(sent[3], FakeResult()) == pytest.approx(0.1)
