"""Span recorder and self-time arithmetic."""

import json
import threading
import types

import pytest

from perfbench.report import SpanIndex
from perfbench.trace import Span, Tracer, covered


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    # clipped to the parent interval; disjoint intervals outside count 0
    assert covered(2, 6, [(0, 3), (5, 9), (10, 12)]) == pytest.approx(2)
    assert covered(0, 10, [(0, 10), (2, 3)]) == pytest.approx(10)


def _span(sid, name, parent, thread, start, end, cpu=0.0):
    return Span(sid, name, parent, thread, start, end, cpu)


def test_self_time_with_overlapping_rank_threads():
    # A driver-side task whose two rank programs overlap on two threads;
    # rank 1's program contains a kernel call.
    spans = [
        _span(1, "mpi.task", None, "main", 0.0, 10.0),
        _span(2, "core.rank_program", 1, "rank-0", 1.0, 8.0),
        _span(3, "core.rank_program", 1, "rank-1", 2.0, 9.0),
        _span(4, "sparse.kernel", 3, "rank-1", 3.0, 6.0),
    ]
    idx = SpanIndex(spans)
    # union of the children is [1, 9]: each covered instant counts once
    assert idx.self_time(spans[0]) == pytest.approx(2.0)
    assert idx.self_time(spans[2]) == pytest.approx(4.0)
    assert idx.root(spans[3]) is spans[0]

    out = {"mpi": 0.0, "core": 0.0, "sparse": 0.0}
    idx.blocking(spans[0], out)
    # the task waits on the program that ended last (rank 1): dispatch is
    # task wall minus that program's wall, and only rank 1 is followed
    assert out == pytest.approx({"mpi": 3.0, "core": 4.0, "sparse": 3.0})
    assert sum(out.values()) == pytest.approx(spans[0].dur)


def test_spans_record_parents_across_threads():
    tracer = Tracer()
    with tracer.span("mpi.task") as task:

        def rank():
            with tracer.span("core.rank_program", parent=task.sid) as prog:
                with tracer.span("sparse.kernel"):
                    pass
            assert prog.thread == "rank-7"

        t = threading.Thread(target=rank, name="rank-7")
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["core.rank_program"].parent == task.sid
    assert by_name["sparse.kernel"].parent == by_name["core.rank_program"].sid
    assert by_name["mpi.task"].parent is None
    for s in tracer.spans:
        assert s.end >= s.start and s.cpu >= 0


def test_patch_restores_own_and_inherited_attributes():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    mod = types.SimpleNamespace(fn=lambda x: x + 1)
    tracer = Tracer()
    orig_fn = mod.fn
    tracer.patch(mod, "fn", tracer.wrap(mod.fn, "sparse.kernel"))
    tracer.patch(Child, "run", tracer.wrap(Child.run, "core.multiply"))
    assert mod.fn(1) == 2 and Child().run() == "base"
    assert [s.name for s in tracer.spans] == ["sparse.kernel", "core.multiply"]
    tracer.restore()
    assert mod.fn is orig_fn
    assert "run" not in vars(Child) and Child().run() == "base"


def test_write_emits_jsonl_and_chrome_trace(tmp_path):
    tracer = Tracer()
    with tracer.span("bench.op", idx=0):
        with tracer.span("sparse.kernel", flops=12, report=object()):
            pass
    tracer.write(tmp_path / "s.jsonl", tmp_path / "s.json")
    lines = [json.loads(x) for x in (tmp_path / "s.jsonl").read_text().splitlines()]
    assert [x["name"] for x in lines] == ["sparse.kernel", "bench.op"]
    assert lines[0]["attrs"] == {"flops": 12}  # non-plain attributes are dropped
    assert lines[0]["parent"] == lines[1]["id"]
    chrome = json.loads((tmp_path / "s.json").read_text())
    complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 2 and all(e["dur"] >= 0 for e in complete)
