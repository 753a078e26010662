"""Tracing must not perturb results: exact counts match untraced runs.

Each workload runs its exact-count ops once untraced and once traced on
the same seed, without warm-up and with the fewest ops that still cover
every code path (a crash and recovery on ``embed-pubmed``, the influence
replay on ``serve-mixed``).  The counts read off the program's results
must be identical, and every answer must pass the workload's check.
"""

import pytest

from perfbench import report, workloads
from perfbench.trace import traced

# (workload, exact ops, run seconds) small enough for the test suite
SMALL = {
    "tsgemm-uk": (2, 0.0),
    "msbfs-uk": (1, 0.0),
    "embed-pubmed": (1, 0.0),
    "serve-mixed": (None, 0.3),
}


@pytest.fixture(autouse=True)
def no_warmup(monkeypatch):
    monkeypatch.setattr(workloads, "WARMUP_S", 0.0)


def _workload(name, monkeypatch):
    exact_ops, seconds = SMALL[name]
    cls = workloads.WORKLOADS[name]
    if exact_ops is not None:
        monkeypatch.setattr(cls, "exact_ops", exact_ops)
    else:
        monkeypatch.setattr(cls, "replay", {"bfs": 8, "influence": 4})
    return cls(7), seconds


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_repeats_exact_counts(name, monkeypatch):
    w, seconds = _workload(name, monkeypatch)
    plain = w.run(seconds)
    with traced() as tracer:
        ph = w.run(seconds, tracer)
    assert plain.failed == 0 and ph.failed == 0
    assert plain.exact_units == ph.exact_units > 0
    assert plain.counts == ph.counts  # modelled_ms, bytes, rounds, levels, recoveries
    assert plain.counts["modelled_ms"] > 0
    if name == "embed-pubmed":
        assert ph.counts["recoveries"] == 1  # exactly one crash per training run
    if name in ("msbfs-uk", "serve-mixed"):
        assert ph.counts["levels"] > 0

    metrics = report.per_layer(tracer.spans, ph, 0.0)
    assert [m for m, _, _ in report.PER_LAYER] == list(metrics)
    assert metrics["sparse.kernel_flops"] > 0
    assert metrics["mpi.comm_bytes"] == ph.counts["comm_bytes"] / ph.exact_units
    rows, op_ms, n, modelled, phases = report.attribution(tracer.spans, ph)
    assert n > 0 and "unattributed" in rows
    assert sum(rows.values()) == pytest.approx(op_ms)


def test_kernel_flops_repeat_between_traced_runs(monkeypatch):
    w, seconds = _workload("tsgemm-uk", monkeypatch)
    flops = []
    for _ in range(2):
        with traced() as tracer:
            ph = w.run(seconds, tracer)
        flops.append(report.per_layer(tracer.spans, ph, 0.0)["sparse.kernel_flops"])
    assert flops[0] == flops[1] > 0


def test_tracing_restores_every_patched_function():
    from repro.core import TsSession
    from repro.mpi.executor import SpmdSession
    import repro.core.tiled as tiled

    before = (TsSession.multiply, SpmdSession.run, tiled.dispatch_spgemm, tiled.replan)
    with traced():
        assert TsSession.multiply is not before[0]
    assert (TsSession.multiply, SpmdSession.run, tiled.dispatch_spgemm, tiled.replan) == before
