"""The benchmark's four workloads and the loops that measure them.

Every input is a pure function of the workload seed: the graph stand-ins
are the repository's fixed dataset generators, and each op's operand
(``B``, source set, training seed, query stream) is drawn from
``SeedSequence([seed, op_index])``.  The program receives only those
generated inputs.

A phase runs in two parts.  The first ``exact_ops`` ops always run, so
the counts read off their results (modelled time, bytes, rounds,
levels, recoveries) repeat bit-for-bit for a seed however fast the
machine is; further ops run until ``seconds`` have passed and feed the
timing statistics only.  Outputs are checked after each op, outside its
timed region.  See README.md for why each workload exists.
"""

from __future__ import annotations

import importlib
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from repro.apps.influence import sample_keep_mask, sample_rng
from repro.apps.msbfs import reference_reachability
from repro.core import TsConfig, TsSession
from repro.data import load, tall_skinny
from repro.serve import OverloadError, QueryService, TrafficMix, make_queries
from repro.sparse import BOOL_AND_OR

# Called through their modules so the traced run's wrappers apply;
# ``repro.apps.msbfs`` names the function, not the module.
msbfs_mod = importlib.import_module("repro.apps.msbfs")
embedding_mod = importlib.import_module("repro.apps.embedding")

#: A query or op answered later than this (from its due time) is a miss.
LATENCY_LIMIT_S = 1.0
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 31
#: Untimed warm-up before each measured phase.  The first second or so
#: of ops in a fresh process runs ~30% slower (allocator and cache
#: warm-up), which would otherwise swing the medians.
WARMUP_S = 4.0
#: First op index of the warm-up inputs (disjoint from measured ones).
WARMUP = 1 << 30


def child_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def to_scipy(m) -> sp.csr_matrix:
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


class NoTrace:
    """Stands in for a tracer in untraced phases."""

    def span(self, name, **attrs):
        return nullcontext()


@dataclass
class Phase:
    """What one measured phase observed."""

    #: Per-op wall seconds (closed loops), per-batch execution seconds (serve).
    op_walls: List[float] = field(default_factory=list)
    #: Per-op seconds (closed loops), per-query seconds from due (serve).
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0  # errored, wrong, or (serve) not answered ok
    wrong: int = 0  # answered, but the answer failed its check
    good: int = 0  # correct within LATENCY_LIMIT_S
    units: int = 0  # ops completed (serve: queries answered ok)
    busy_s: float = 0.0  # wall those ops took (serve: first due to last delivery)
    #: Totals over the exact ops, and how many op units they cover.
    counts: Counter = field(default_factory=Counter)
    exact_units: int = 0
    #: serve-mixed only: per-layer serve metrics, batch execution windows
    #: ``(start, end, queries)`` on the span clock, total queue wait.
    serve: Dict[str, float] = field(default_factory=dict)
    batches: List[tuple] = field(default_factory=list)
    queue_wait_s: float = 0.0
    since: float = 0.0  # span-clock time the measured window opened


def _note_error(what: str) -> None:
    print(f"error during {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# reference answers
# ----------------------------------------------------------------------
class Reachability:
    """Exact reachable sets on a symmetric graph.

    On an undirected graph a source reaches exactly its connected
    component, so one ``connected_components`` call answers every source
    in O(1).  The constructor cross-checks this against the repository's
    serial ``reference_reachability`` on ``anchor`` sources.
    """

    def __init__(self, A, anchor: np.ndarray):
        s = to_scipy(A)
        if (s != s.T).nnz:
            raise ValueError("reachability by components needs a symmetric graph")
        self.n = A.nrows
        _, self.labels = connected_components(s, directed=False)
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(self.labels.max() + 2))
        self._members = [order[bounds[c]:bounds[c + 1]] for c in range(len(bounds) - 1)]
        if not same_pattern(to_scipy(reference_reachability(A, anchor)), self.visited(anchor)):
            raise RuntimeError("component reachability disagrees with reference_reachability")

    def members(self, source: int) -> np.ndarray:
        return self._members[self.labels[source]]

    def visited(self, sources) -> sp.csr_matrix:
        cols = [self.members(s) for s in sources]
        rows = np.concatenate(cols)
        colids = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
        return sp.csr_matrix(
            (np.ones(len(rows), dtype=bool), (rows, colids)), shape=(self.n, len(cols))
        )


def same_pattern(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    a, b = a.tocsr(), b.tocsr()
    a.sort_indices()
    b.sort_indices()
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    )


# ----------------------------------------------------------------------
# closed-loop workloads
# ----------------------------------------------------------------------
class ClosedLoop:
    """One client issuing ops back to back; latency equals op time.

    Subclasses provide ``build()`` (the session ops run against),
    ``make_input(i)``, ``op(state, input)``, ``check(input, output)``
    and ``counts(output)`` (the exact counts of one op).
    """

    name = ""
    #: Ops whose results feed the exact counts (always run).
    exact_ops = 1
    #: Op units per call (``embed-pubmed`` times epochs, one call = a run).
    units_per_call = 1
    #: Whether the ops run against a session built in set-up.
    resident = True

    def run(self, seconds: float, tracer=None) -> Phase:
        tracer = tracer or NoTrace()
        state = None
        if self.resident:
            with tracer.span("bench.setup"):
                state = self.build()
        try:
            t_end = time.perf_counter() + WARMUP_S
            i = WARMUP
            while time.perf_counter() < t_end:
                self.op(state, self.make_input(i))
                i += 1
            return self._loop(state, seconds, tracer)
        finally:
            if state is not None:
                state.close()

    def _loop(self, state, seconds: float, tracer) -> Phase:
        ph = Phase()
        t_end = time.perf_counter() + seconds
        i = 0
        while i < self.exact_ops or time.perf_counter() < t_end:
            inp = self.make_input(i)
            exact = i < self.exact_ops
            ph.attempted += self.units_per_call
            try:
                with tracer.span("bench.op", idx=i, exact=exact, units=self.units_per_call):
                    t0 = time.perf_counter()
                    out = self.op(state, inp)
                    wall = time.perf_counter() - t0
                ok = self.check(inp, out)
            except Exception:  # an op that raises is a failed op, the run goes on
                _note_error(f"{self.name} op {i}")
                ph.failed += self.units_per_call
                if exact:
                    ph.exact_units += self.units_per_call  # keeps per-op counts honest
                i += 1
                continue
            per_unit = wall / self.units_per_call
            ph.op_walls.append(per_unit)
            ph.latencies.append(per_unit)
            ph.units += self.units_per_call
            ph.busy_s += wall
            if not ok:
                ph.failed += self.units_per_call
                ph.wrong += self.units_per_call
            elif per_unit <= LATENCY_LIMIT_S:
                ph.good += self.units_per_call
            if exact:
                ph.counts.update(self.counts(out))
                ph.exact_units += self.units_per_call
            i += 1
        return ph


class TsgemmUk(ClosedLoop):
    name = "tsgemm-uk"
    p = 2
    d = 128
    exact_ops = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.A = load("uk")
        self.A_sp = to_scipy(self.A)

    def build(self):
        return TsSession(self.A, self.p)

    def make_input(self, i):
        return tall_skinny(self.A.nrows, self.d, 0.8, seed=child_seed(self.seed, i))

    def op(self, session, B):
        return session.multiply(B)

    def check(self, B, out) -> bool:
        ref = (self.A_sp @ to_scipy(B)).tocsr()
        got = to_scipy(out.C)
        if not same_pattern(got, ref):
            return False
        got.sort_indices()
        ref.sort_indices()
        return bool(np.allclose(got.data, ref.data))

    def counts(self, out):
        diag = out.diagnostics
        return {
            "modelled_ms": out.multiply_time * 1e3,
            "comm_bytes": out.comm_bytes(),
            "alltoall_rounds": out.rounds,
            "program_flops": int(diag.get("flops", 0)),
            "retries": int(diag.get("retries", 0)),
            "recoveries": int(diag.get("recoveries", 0)),
        }


def bfs_counts(res) -> Dict[str, float]:
    its = res.iterations
    return {
        "modelled_ms": res.total_runtime * 1e3,
        "comm_bytes": sum(it.comm_bytes for it in its),
        "alltoall_rounds": sum(it.rounds for it in its),
        "levels": res.levels,
        "retries": sum(it.retries for it in its),
        "recoveries": sum(it.recoveries for it in its),
    }


class MsbfsUk(ClosedLoop):
    name = "msbfs-uk"
    p = 8
    sources = 64
    exact_ops = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.A = load("uk")
        self.reach = Reachability(self.A, self.make_input(0))

    def build(self):
        return TsSession(self.A.astype(np.bool_), self.p, semiring=BOOL_AND_OR)

    def make_input(self, i):
        rng = np.random.default_rng(child_seed(self.seed, i))
        return rng.integers(0, self.A.nrows, self.sources)

    def op(self, session, sources):
        return msbfs_mod.msbfs(self.A, sources, self.p, session=session)

    def check(self, sources, out) -> bool:
        return same_pattern(to_scipy(out.visited), self.reach.visited(sources))

    def counts(self, out):
        return bfs_counts(out)


class EmbedPubmed(ClosedLoop):
    name = "embed-pubmed"
    p = 4
    d = 64
    epochs = 5
    units_per_call = epochs
    exact_ops = 2
    resident = False
    config = TsConfig(recoverable=True, checkpoint="neighbor")
    crash = "crash@1,phase=fused-round"

    def __init__(self, seed: int):
        self.seed = seed
        self.A = load("pubmed")

    def build(self):
        # Set-up proxy: the recoverable session a training run builds,
        # scatter + prepare + first neighbor checkpoint, on the graph.
        return TsSession(self.A, self.p, config=self.config)

    def make_input(self, i):
        return child_seed(self.seed, i)

    def _train(self, seed, config):
        return embedding_mod.train_sparse_embedding(
            self.A, self.p, d=self.d, epochs=self.epochs, negative_refresh=1,
            config=config, seed=seed,
        )

    def op(self, state, seed):
        return self._train(seed, replace(self.config, faults=self.crash))

    def check(self, seed, out) -> bool:
        ref = self._train(seed, self.config)
        z, r = out.Z, ref.Z
        return (
            sum(ep.recoveries for ep in out.epochs) == 1
            and np.array_equal(z.indptr, r.indptr)
            and np.array_equal(z.indices, r.indices)
            and np.array_equal(z.data, r.data)
        )

    def counts(self, out):
        eps = out.epochs
        return {
            "modelled_ms": sum(ep.runtime for ep in eps) * 1e3,
            "comm_bytes": sum(ep.comm_bytes for ep in eps),
            "alltoall_rounds": sum(ep.rounds for ep in eps),
            "retries": sum(ep.retries for ep in eps),
            "recoveries": sum(ep.recoveries for ep in eps),
        }


# ----------------------------------------------------------------------
# open-loop serving workload
# ----------------------------------------------------------------------
@dataclass
class Sent:
    """One generator submission: when it was due, when it went out."""

    due: float
    sent_at: float
    ticket: Optional[object]  # None: refused with OverloadError


def open_loop(
    submit: Callable, queries: list, rate: float, *,
    clock: Callable[[], float] = time.monotonic, sleep: Callable[[float], None] = time.sleep,
) -> List[Sent]:
    """Submit ``queries`` at a fixed ``rate`` from one thread.

    Query ``i`` is due at ``t0 + i / rate`` whatever happened before it:
    a stalled generator does not push later due times back, so a stall
    shows as latency (timed from due) and as generator lag.
    """
    t0 = clock()
    sent = []
    for i, q in enumerate(queries):
        due = t0 + i / rate
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        sent_at = clock()
        try:
            ticket = submit(q)
        except OverloadError:
            ticket = None
        sent.append(Sent(due, sent_at, ticket))
    return sent


def latency_from_due(sent: Sent, result) -> float:
    """Seconds from the query's due time to its result's delivery."""
    return sent.ticket.accepted_at + result.latency - sent.due


class ServeMixed:
    name = "serve-mixed"
    p = 4
    rate = 100.0
    batch_width = 64
    mix = TrafficMix(bfs=0.7, influence=0.2, embedding=0.1)
    #: BFS and influence queries replayed in fixed batches for the exact
    #: counts: four full BFS multiplies' worth, and a quarter as many
    #: influence queries (the stream's 70/20 ratio, rounded).
    replay = {"bfs": 256, "influence": 64}

    def __init__(self, seed: int):
        self.seed = seed
        self.A = load("uk")
        self.a_bool = self.A.astype(np.bool_)
        rng = np.random.default_rng(child_seed(seed, 0))
        self.embedding = rng.standard_normal((self.A.nrows, 64))
        self.reach = Reachability(self.A, rng.integers(0, self.A.nrows, 16))
        self._live: Dict[tuple, sp.csr_matrix] = {}

    def build(self):
        return QueryService(
            self.A, self.p, slots=1, batch_width=self.batch_width, embedding=self.embedding,
        )

    def queries(self, n: int, i: int):
        # One live-edge sample, fixed like the graph itself (sample_seed=0);
        # the seed draws the queries.  Each sample is its own batch key:
        # with make_queries' default of four, the dispatcher spends most
        # of its time on tiny influence batches, runs saturated at 100 q/s
        # and its queue grows without bound whenever the host slows.
        # One priority class: the queue then takes the oldest query first.
        # With make_queries' default of three, p99 is set by a few bursts
        # of low-priority queries held back until aging lifts them, and
        # the same seed's p99 spreads by a third from run to run.
        return make_queries(
            n, self.A.nrows, mix=self.mix, seed=child_seed(self.seed, i), sample_pool=1,
            priorities=1,
        )

    # -- reference answers ----------------------------------------------
    def _live_graph(self, q) -> sp.csr_matrix:
        """Edges ``u -> v`` of the query's live-edge sample (``G[u, v]``)."""
        key = (q.sample_seed, q.sample, q.probability)
        if key not in self._live:
            keep = sample_keep_mask(self.a_bool, q.probability, sample_rng(q.sample_seed, q.sample))
            rows = self.a_bool.row_ids()[keep]
            m = sp.csr_matrix(
                (np.ones(len(rows), dtype=bool), (rows, self.a_bool.indices[keep])),
                shape=self.a_bool.shape,
            )
            # MS-BFS reaches v from u when A[v, u] is live: G = M^T.
            self._live[key] = m.T.tocsr()
        return self._live[key]

    def check(self, q, value) -> bool:
        if q.kind == "bfs":
            return len(value) == len(q.sources) and all(
                np.array_equal(v, self.reach.members(s)) for v, s in zip(value, q.sources)
            )
        if q.kind == "influence":
            g = self._live_graph(q)
            want = [
                len(breadth_first_order(g, int(s), directed=True, return_predecessors=False))
                for s in q.sources
            ]
            return np.array_equal(value, want)
        return np.array_equal(value, self.embedding[q.vertices])

    # -- phases -----------------------------------------------------------
    def run(self, seconds: float, tracer=None) -> Phase:
        tracer = tracer or NoTrace()
        queries = self.queries(int(self.rate * seconds), 1)
        with tracer.span("bench.setup"):
            svc = self.build()
        try:
            warm = open_loop(svc.submit, self.queries(int(self.rate * WARMUP_S), 2), self.rate)
            for s in warm:
                if s.ticket is not None:
                    s.ticket.result(timeout=120.0)
            sent = open_loop(svc.submit, queries, self.rate)
            results = [s.ticket.result(timeout=120.0) if s.ticket else None for s in sent]
        finally:
            svc.stop()
        ph = self._account(queries, sent, results)
        with tracer.span("bench.replay"):
            self._replay(queries, ph)
        return ph

    def _account(self, queries, sent, results) -> Phase:
        ph = Phase(attempted=len(queries))
        lags, waits, execs, last = [], [], [], sent[0].due
        to_span_clock = time.perf_counter() - time.monotonic()
        windows = []  # [start, end, queries]; a batch's queries share a start
        for q, s, r in zip(queries, sent, results):
            lags.append(s.sent_at - s.due)
            if r is None or not r.ok:
                ph.failed += 1
                continue
            start = s.ticket.accepted_at + r.queue_wait + to_span_clock
            windows.append([start, s.ticket.accepted_at + r.latency + to_span_clock, 1])
            lat = latency_from_due(s, r)
            last = max(last, s.due + lat)
            ph.latencies.append(lat)
            execs.append(r.latency - r.queue_wait)
            waits.append(r.queue_wait)
            ph.units += 1
            if not self.check(q, r.value):
                ph.failed += 1
                ph.wrong += 1
            elif lat <= LATENCY_LIMIT_S:
                ph.good += 1
        ph.busy_s = last - sent[0].due
        ph.since = sent[0].due + to_span_clock
        windows.sort()
        for w in windows:
            if ph.batches and w[0] - ph.batches[-1][0] < 1e-6:
                start, end, n = ph.batches[-1]
                ph.batches[-1] = (start, max(end, w[1]), n + 1)
            else:
                ph.batches.append(tuple(w))
        # An op is one batch: one shared execution on the session.
        ph.op_walls = [end - start for start, end, _ in ph.batches]
        ph.queue_wait_s = sum(waits)
        # Queue depth over the window: +1 at admission, -1 when taken.
        depth = deepest = 0
        for _, step in sorted(
            [(s.ticket.accepted_at, 1) for s in sent if s.ticket]
            + [(s.ticket.accepted_at + r.queue_wait, -1) for s, r in zip(sent, results) if r]
        ):
            depth += step
            deepest = max(deepest, depth)
        status = Counter(r.status for r in results if r)
        ph.serve = {
            "queue_wait_p50_ms": pct(waits, 50) * 1e3,
            "queue_wait_p99_ms": pct(waits, 99) * 1e3,
            "exec_p50_ms": pct(execs, 50) * 1e3,
            "batch_size_mean": ph.units / max(len(ph.batches), 1),
            "batches": len(ph.batches),
            "queue_depth_max": deepest,
            "shed": status["shed"],
            "expired": status["expired"],
            "failed": status["failed"],
            "rejected": sum(s.ticket is None for s in sent),
            "gen_lag_max_ms": max(lags) * 1e3,
        }
        return ph

    def _replay(self, queries, ph: Phase) -> None:
        """Serve the stream's first BFS and influence queries in fixed
        batches on a fresh session.

        The live service's batching depends on timing, so its modelled
        time cannot repeat; this replay groups the same queries the same
        way on every run: BFS sources in submit order, influence queries
        per live-edge sample, ``batch_width`` sources per multiply.
        Embedding lookups have no modelled cost and are left out.
        """
        prefix = []
        for kind, n in self.replay.items():
            prefix += [q for q in queries if q.kind == kind][:n]
        session = TsSession(
            self.a_bool, self.p, semiring=BOOL_AND_OR,
            config=TsConfig(recoverable=True, checkpoint="neighbor"),
        )
        try:
            groups: Dict[tuple, list] = {}
            for q in prefix:
                groups.setdefault(q.batch_key, []).append(q)
            for key, qs in groups.items():
                sources = np.concatenate([q.sources for q in qs])
                target = session
                if key[0] == "influence":
                    q0 = qs[0]
                    keep = sample_keep_mask(
                        self.a_bool, q0.probability, sample_rng(q0.sample_seed, q0.sample)
                    )
                    target = session.derive_edge_subset(keep)
                try:
                    for lo in range(0, len(sources), self.batch_width):
                        res = msbfs_mod.msbfs_on_session(target, sources[lo : lo + self.batch_width])
                        ph.counts.update(bfs_counts(res))
                finally:
                    if target is not session:
                        target.close()
        finally:
            session.close()
        ph.exact_units = len(prefix)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


WORKLOADS = {w.name: w for w in (TsgemmUk, MsbfsUk, EmbedPubmed, ServeMixed)}


def time_setups(workload, repeats: int = SETUP_REPEATS) -> List[float]:
    """Wall seconds of ``repeats`` fresh set-ups, each closed after."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = workload.build()
        times.append(time.perf_counter() - t0)
        with state:  # sessions close and services stop on exit
            pass
    return times
