"""Metric definitions, and the arithmetic that turns a phase into them.

End-to-end metrics come from an untraced phase.  Per-layer metrics come
from a traced phase's spans plus the exact counts read off results.
Every per-layer quantity is *per op*: per multiply, traversal or epoch,
or per query sent on ``serve-mixed``.  README.md lists what each one
should move.
"""

from __future__ import annotations

import resource
import statistics
from bisect import bisect_left
from collections import defaultdict
from typing import Dict, List

from .trace import Span, covered
from .workloads import Phase, pct

#: (name, unit, better) — the order BENCHMARK.json lists them in.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("goodput_frac", "frac", "higher"),
    ("modelled_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

MODELLED_PHASES = (
    "prepare", "fused-round", "fetch-B", "send-C", "sddmm-fetch",
    "refresh-values", "checkpoint", "recover", "frontier-sync",
)

PER_LAYER = [
    ("sparse.kernel_calls", "count", "lower"),
    ("sparse.kernel_cpu_s", "s", "lower"),
    ("sparse.kernel_wall_s", "s", "lower"),
    ("sparse.kernel_flops", "flop", "lower"),
    ("sparse.kernel_mflops_per_cpu_s", "Mflop/s", "higher"),
    ("sparse.sddmm_calls", "count", "lower"),
    ("sparse.sddmm_cpu_s", "s", "lower"),
    ("core.multiply_calls", "count", "lower"),
    ("core.multiply_wall_s", "s", "lower"),
    ("core.multiply_self_s", "s", "lower"),
    ("core.prepare_calls", "count", "lower"),
    ("core.prepare_wall_s", "s", "lower"),
    ("core.replan_calls", "count", "lower"),
    ("core.replan_wall_s", "s", "lower"),
    ("core.update_operand_wall_s", "s", "lower"),
    ("core.derive_calls", "count", "lower"),
    ("core.derive_wall_s", "s", "lower"),
    ("core.checkpoint_bytes", "B", "lower"),
    ("core.checkpoint_source_ratio", "ratio", "lower"),
    ("core.recover_bytes", "B", "lower"),
    ("core.recoveries", "count", "lower"),
    ("core.retries", "count", "lower"),
    ("mpi.tasks", "count", "lower"),
    ("mpi.task_wall_s", "s", "lower"),
    ("mpi.dispatch_s", "s", "lower"),
    ("mpi.rank_wait_s", "s", "lower"),
    ("mpi.collective_calls", "count", "lower"),
    ("mpi.collective_wall_s", "s", "lower"),
    ("mpi.comm_bytes", "B", "lower"),
    ("mpi.alltoall_rounds", "count", "lower"),
    *[(f"mpi.modelled.{ph}_ms", "ms", "lower") for ph in MODELLED_PHASES],
    ("apps.levels", "count", "lower"),
    ("apps.self_s", "s", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.exec_p50_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.gen_lag_max_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
LAYERS = ("sparse", "core", "mpi", "apps", "serve")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ph: Phase, setup_times: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": pct(ph.op_walls, 50) * 1e3,
        "ops_per_s": ph.units / ph.busy_s if ph.busy_s else 0.0,
        "latency_p50_ms": pct(ph.latencies, 50) * 1e3,
        "latency_p99_ms": pct(ph.latencies, 99) * 1e3,
        "goodput_frac": ph.good / ph.attempted if ph.attempted else 0.0,
        "modelled_ms": ph.counts["modelled_ms"] / max(ph.exact_units, 1),
        "peak_rss_mb": peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "unattributed"


class SpanIndex:
    """Parent/child links, roots and self times over one span list."""

    def __init__(self, spans: List[Span]):
        self.by_id = {s.sid: s for s in spans}
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for s in spans:
            if s.parent in self.by_id:
                self.children[s.parent].append(s)
        self._root: Dict[int, Span] = {}

    def root(self, s: Span) -> Span:
        path = []
        while s.sid not in self._root and s.parent in self.by_id:
            path.append(s)
            s = self.by_id[s.parent]
        top = self._root.get(s.sid, s)
        for p in path + [s]:
            self._root[p.sid] = top
        return top

    def self_time(self, s: Span) -> float:
        """Duration minus the part of it that any child covers."""
        return s.dur - covered(s.start, s.end, [(c.start, c.end) for c in self.children[s.sid]])

    def blocking(self, s: Span, out: Dict[str, float]) -> None:
        """Add each layer's self time along the path that ``s`` waits on.

        A task waits for its slowest rank program only, so below an
        ``mpi.task`` the walk follows the rank program that ended last;
        the task's own share is its wall minus that program's wall (the
        dispatch overhead).  Elsewhere children run one after another on
        the same thread and all of them are followed.
        """
        kids = self.children[s.sid]
        if s.name == "mpi.task" and kids:
            kids = [max(kids, key=lambda c: c.end)]
        out[layer_of(s.name)] += s.dur - covered(
            s.start, s.end, [(c.start, c.end) for c in kids]
        )
        for c in kids:
            self.blocking(c, out)


def _scopes(idx: SpanIndex, spans: List[Span], ph: Phase):
    """Split spans into op work, exact-count work and set-up work.

    On ``serve-mixed`` op work is whatever the dispatcher thread ran
    after the measured window opened (the warm-up's batches precede it).
    """
    op, exact, setup = [], [], []
    for s in spans:
        r = idx.root(s)
        if r.name == "bench.op" or (
            r.parent is None and r.thread.startswith("serve-dispatch") and r.start >= ph.since
        ):
            op.append(s)
            if r.attrs.get("exact"):
                exact.append(s)
        elif r.name == "bench.replay":
            exact.append(s)
        elif r.name == "bench.setup":
            setup.append(s)
    return op, exact, setup


def _phase_modelled(tasks: List[Span]) -> Dict[str, float]:
    """Modelled seconds per phase (slowest rank), summed over tasks."""
    out: Dict[str, float] = defaultdict(float)
    for t in tasks:
        per_phase: Dict[str, float] = defaultdict(float)
        for rs in t.attrs["report"].rank_stats:
            for name, ps in rs.phases.items():
                per_phase[name] = max(per_phase[name], ps.comm_time + ps.compute_time)
        for name, v in per_phase.items():
            out[name] += v
    return out


def per_layer(spans: List[Span], ph: Phase, overhead_frac: float) -> Dict[str, float]:
    idx = SpanIndex(spans)
    op, exact, setup = _scopes(idx, spans, ph)
    ops = max(ph.attempted if ph.serve else ph.units, 1)
    xu = max(ph.exact_units, 1)

    def named(pool, name):
        return [s for s in pool if s.name == name]

    def dur(pool):
        return sum(s.dur for s in pool)

    m: Dict[str, float] = {}
    kern = named(op, "sparse.kernel")
    kern_cpu = sum(s.cpu for s in kern)
    m["sparse.kernel_calls"] = len(kern) / ops
    m["sparse.kernel_cpu_s"] = kern_cpu / ops
    m["sparse.kernel_wall_s"] = dur(kern) / ops
    m["sparse.kernel_flops"] = sum(s.attrs.get("flops", 0) for s in named(exact, "sparse.kernel")) / xu
    m["sparse.kernel_mflops_per_cpu_s"] = (
        sum(s.attrs.get("flops", 0) for s in kern) / kern_cpu / 1e6 if kern_cpu else 0.0
    )
    sddmm = named(op, "sparse.sddmm")
    m["sparse.sddmm_calls"] = len(sddmm) / ops
    m["sparse.sddmm_cpu_s"] = sum(s.cpu for s in sddmm) / ops

    mult = named(op, "core.multiply")
    m["core.multiply_calls"] = len(mult) / ops
    m["core.multiply_wall_s"] = dur(mult) / ops
    m["core.multiply_self_s"] = sum(idx.self_time(s) for s in mult) / ops
    # prepare runs in set-up on the resident workloads; count it there too
    prep = named(op + setup, "core.prepare")
    m["core.prepare_calls"] = len(prep) / ops
    m["core.prepare_wall_s"] = dur(prep) / ops
    replan = named(op, "core.replan")
    m["core.replan_calls"] = len(replan) / ops
    m["core.replan_wall_s"] = dur(replan) / ops
    m["core.update_operand_wall_s"] = dur(named(op, "core.update_operand")) / ops
    derive = named(op, "core.derive")
    m["core.derive_calls"] = len(derive) / ops
    m["core.derive_wall_s"] = dur(derive) / ops

    exact_tasks = [s for s in named(exact, "mpi.task") if "report" in s.attrs]
    phase_bytes: Dict[str, int] = defaultdict(int)
    for t in exact_tasks:
        for name, b in t.attrs["report"].phase_bytes().items():
            phase_bytes[name] += b
    source = sum(
        s.attrs.get("source_bytes", 0)
        for s in exact if s.name in ("core.session", "core.update_operand")
    )
    m["core.checkpoint_bytes"] = phase_bytes["checkpoint"] / xu
    m["core.checkpoint_source_ratio"] = phase_bytes["checkpoint"] / source if source else 0.0
    m["core.recover_bytes"] = phase_bytes["recover"] / xu
    m["core.recoveries"] = ph.counts["recoveries"] / xu
    m["core.retries"] = ph.counts["retries"] / xu

    tasks = named(op, "mpi.task")
    m["mpi.tasks"] = len(tasks) / ops
    m["mpi.task_wall_s"] = dur(tasks) / ops
    m["mpi.dispatch_s"] = sum(
        t.dur - max((c.dur for c in idx.children[t.sid]), default=0.0) for t in tasks
    ) / ops
    m["mpi.rank_wait_s"] = sum(s.dur - s.cpu for s in named(op, "core.rank_program")) / ops
    coll = [
        s for s in op
        if s.name.startswith("mpi.collective")
        and not idx.by_id.get(s.parent, s).name.startswith("mpi.collective")
    ]
    m["mpi.collective_calls"] = len(coll) / ops
    m["mpi.collective_wall_s"] = dur(coll) / ops
    m["mpi.comm_bytes"] = ph.counts["comm_bytes"] / xu
    m["mpi.alltoall_rounds"] = ph.counts["alltoall_rounds"] / xu
    modelled = _phase_modelled(exact_tasks)
    for name in MODELLED_PHASES:
        m[f"mpi.modelled.{name}_ms"] = modelled.get(name, 0.0) * 1e3 / xu

    m["apps.levels"] = ph.counts["levels"] / xu
    m["apps.self_s"] = sum(idx.self_time(s) for s in op if s.name.startswith("apps.")) / ops
    for name, unit, _ in PER_LAYER:
        if name.startswith("serve."):
            m[name] = float(ph.serve.get(name[len("serve."):], 0.0))
    m["trace.overhead_frac"] = overhead_frac
    return m


# ----------------------------------------------------------------------
# modelled-vs-measured table
# ----------------------------------------------------------------------
def attribution(spans: List[Span], ph: Phase):
    """Per-op measured self time per layer along the blocking path.

    Closed loops attribute each ``bench.op`` span; ``serve-mixed``
    attributes each query's latency from due to its queue wait plus its
    batch's execution window on the dispatcher thread.  Returns
    ``(rows, op_ms, n, modelled, phases)``: ``rows`` maps layer -> ms per
    op and includes ``unattributed``, op wall minus every layer's share;
    ``modelled`` gives the model's compute (sparse) and communication
    (mpi) time per op and ``phases`` its per-phase time.
    """
    idx = SpanIndex(spans)
    op, _, _ = _scopes(idx, spans, ph)
    rows: Dict[str, float] = defaultdict(float)
    tasks = [s for s in op if s.name == "mpi.task" and "report" in s.attrs]
    comp = sum(max(t.attrs["report"].compute_times, default=0.0) for t in tasks)
    comm = sum(max(t.attrs["report"].comm_times, default=0.0) for t in tasks)
    phases = _phase_modelled(tasks)
    if not ph.serve:
        roots = [s for s in op if s.name == "bench.op"]
        for r in roots:
            idx.blocking(r, rows)
        n = max(sum(r.attrs["units"] for r in roots), 1)
        op_s = sum(r.dur for r in roots) / n
    else:
        roots = sorted(
            (s for s in op if s.parent is None and s.thread.startswith("serve-dispatch")),
            key=lambda s: s.start,
        )
        starts = [r.start for r in roots]
        n = max(ph.units, 1)
        for start, end, nq in ph.batches:
            inside = [
                r for r in roots[bisect_left(starts, start - 1e-4):]
                if r.start < end and r.end <= end + 1e-4
            ]
            per: Dict[str, float] = defaultdict(float)
            for r in inside:
                idx.blocking(r, per)
            # the dispatcher's own share of the batch: take, split, resolve
            per["serve"] += (end - start) - covered(start, end, [(r.start, r.end) for r in inside])
            for k, v in per.items():
                rows[k] += v * nq
        rows["serve"] += ph.queue_wait_s
        op_s = sum(ph.latencies) / n
    per_op = {k: v / n * 1e3 for k, v in rows.items()}
    attributed = sum(v for k, v in per_op.items() if k != "unattributed")
    per_op["unattributed"] = op_s * 1e3 - attributed
    modelled = {"sparse": comp / n * 1e3, "mpi": comm / n * 1e3}
    return per_op, op_s * 1e3, n, modelled, {k: v / n * 1e3 for k, v in sorted(phases.items())}


def format_table(workload: str, spans: List[Span], ph: Phase) -> str:
    rows, op_ms, n, modelled, phases = attribution(spans, ph)
    unit, units = ("query", "queries") if ph.serve else ("op", "ops")
    lines = [
        f"modelled vs measured: {workload}, ms per {unit} over {n} traced {units} "
        f"(mean {unit} wall {op_ms:.3f} ms)",
        f"  {'row':<14}{'measured':>12}{'share':>9}{'modelled':>12}{'measured/modelled':>20}",
    ]
    for layer in LAYERS + ("unattributed",):
        ms = rows.get(layer, 0.0)
        mod = modelled.get(layer)
        lines.append(
            f"  {layer:<14}{ms:>12.3f}{100 * ms / op_ms if op_ms else 0:>8.1f}%"
            f"{f'{mod:.4f}' if mod is not None else '-':>12}"
            f"{f'{ms / mod:.1f}x' if mod else '-':>20}"
        )
    lines.append(
        "  modelled per phase: "
        + ", ".join(f"{k} {v:.4f}" for k, v in phases.items() if v)
    )
    return "\n".join(lines)
