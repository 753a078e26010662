"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of each layer *at their import
sites* for the duration of one traced phase and restores them afterwards;
nothing under ``src/`` changes.  Import sites matter: ``tiled.py``,
``plan.py``, ``spmm.py`` and ``naive.py`` bind ``dispatch_spgemm`` /
``dispatch_spmm`` by name, and ``apps.embedding`` binds
``force2vec_coefficients`` by name, so patching only the defining module
would miss every call.

Each span records name, start, end, thread, thread-CPU and parent.  Rank
programs run on the session's worker threads, so the wrapper around
``SpmdSession.run`` also wraps the program argument and parents each
rank's span under the driver-side task span explicitly.  Spans stay in
memory and are written at the end as JSONL and Chrome trace-event JSON
with the stdlib ``json`` module only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    thread: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Children on different rank threads overlap each other; the union
    counts each covered instant once.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Collects spans from every thread; ``patch`` installs wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, parent: Optional[int] = None, **attrs):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        s = Span(
            next(self._ids), name, parent, threading.current_thread().name,
            time.perf_counter(), attrs=attrs,
        )
        cpu0 = time.thread_time()
        stack.append(s)
        try:
            yield s
        finally:
            s.cpu = time.thread_time() - cpu0
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)  # list.append is atomic under the GIL

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(s, args, out)
                return out

        return wrapper

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig, own = self._patches.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- export -------------------------------------------------------
    def write(self, jsonl_path, chrome_path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(jsonl_path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "thread": s.thread, "start": s.start - t0,
                    "end": s.end - t0, "cpu": s.cpu, "attrs": _plain(s.attrs),
                }) + "\n")
        tids: Dict[str, int] = {}
        events = [
            {
                "name": s.name, "ph": "X", "pid": 0,
                "tid": tids.setdefault(s.thread, len(tids)),
                "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
                "args": {"id": s.sid, "parent": s.parent, "cpu_us": s.cpu * 1e6},
            }
            for s in self.spans
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
            for name, tid in tids.items()
        ]
        with open(chrome_path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def _plain(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in attrs.items() if isinstance(v, (int, float, str, bool))}


COLLECTIVES = ("alltoall", "alltoallv", "alltoall_fused", "allreduce", "allgather", "bcast")


def instrument(tracer: Tracer) -> None:
    """Install span wrappers around every layer's public entry points."""
    # import_module: some package namespaces re-export a function under
    # the same name as the submodule (``repro.sparse.spgemm``).
    (embedding, msbfs, driver, naive, plan, spmm, tiled, collectives, executor,
     service, spgemm) = (importlib.import_module(f"repro.{m}") for m in (
        "apps.embedding", "apps.msbfs", "core.driver", "core.naive", "core.plan",
        "core.spmm", "core.tiled", "mpi.collectives", "mpi.executor",
        "serve.service", "sparse.spgemm"))

    def kernel_flops(span, args, out):
        span.attrs["flops"] = int(out[1])

    for mod in (tiled, plan, naive, spgemm):
        tracer.patch(mod, "dispatch_spgemm", tracer.wrap(mod.dispatch_spgemm, "sparse.kernel", kernel_flops))
    tracer.patch(spmm, "dispatch_spmm", tracer.wrap(spmm.dispatch_spmm, "sparse.kernel", kernel_flops))
    tracer.patch(embedding, "force2vec_coefficients",
                 tracer.wrap(embedding.force2vec_coefficients, "sparse.sddmm"))

    for mod in (driver, tiled):
        tracer.patch(mod, "prepare_multiply", tracer.wrap(mod.prepare_multiply, "core.prepare"))
    tracer.patch(tiled, "replan", tracer.wrap(tiled.replan, "core.replan"))

    def source_bytes(span, args, out):
        a = args[1]  # the operand whose row blocks a checkpoint protects
        span.attrs["source_bytes"] = int(a.indptr.nbytes + a.indices.nbytes + a.data.nbytes)

    session = driver.TsSession
    tracer.patch(session, "__init__", tracer.wrap(session.__init__, "core.session", source_bytes))
    tracer.patch(session, "multiply", tracer.wrap(session.multiply, "core.multiply"))
    tracer.patch(session, "update_operand",
                 tracer.wrap(session.update_operand, "core.update_operand", source_bytes))
    tracer.patch(session, "derive_edge_subset", tracer.wrap(session.derive_edge_subset, "core.derive"))

    def levels(span, args, out):
        span.attrs["levels"] = out.levels

    tracer.patch(msbfs, "msbfs", tracer.wrap(msbfs.msbfs, "apps.msbfs", levels))
    for mod in (msbfs, service):
        tracer.patch(mod, "msbfs_on_session",
                     tracer.wrap(mod.msbfs_on_session, "apps.msbfs", levels))
    tracer.patch(embedding, "train_sparse_embedding",
                 tracer.wrap(embedding.train_sparse_embedding, "apps.embedding"))
    for name in ("sample_keep_mask", "embedding_rows"):
        tracer.patch(service, name, tracer.wrap(getattr(service, name), f"apps.{name}"))

    for name in COLLECTIVES:
        fn = getattr(collectives.CollectivesMixin, name)
        tracer.patch(collectives.CollectivesMixin, name, tracer.wrap(fn, f"mpi.collective.{name}"))

    run = executor.SpmdSession.run

    @functools.wraps(run)
    def traced_run(self, fn, *args, **kwargs):
        with tracer.span("mpi.task") as task:

            @functools.wraps(fn)
            def rank_program(comm, *a, **k):
                with tracer.span("core.rank_program", parent=task.sid):
                    return fn(comm, *a, **k)

            result = run(self, rank_program, *args, **kwargs)
            task.attrs["report"] = result.report
            return result

    tracer.patch(executor.SpmdSession, "run", traced_run)


@contextmanager
def traced():
    """A :class:`Tracer` with every layer instrumented, restored on exit."""
    tracer = Tracer()
    try:
        instrument(tracer)
        yield tracer
    finally:
        tracer.restore()
