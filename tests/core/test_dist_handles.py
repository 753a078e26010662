"""Distributed operand/result handles: correctness and zero driver traffic.

The contract of the handle path (:class:`repro.partition.DistHandle` +
``TsSession.multiply(..., gather=False)``): a chain of multiplies whose
intermediates never leave the ranks must be **bit-identical** to the
same chain through driver-resident operands — for any semiring, kernel
and mode policy — while moving exactly zero bytes through the driver per
multiply.  The registry MS-BFS rides this path end-to-end (scatter-once →
resident chain → one final gather); counting spies pin that shape
exactly, and whole traversals are checked against the serial reference.
"""

import numpy as np
import pytest

from repro.apps import msbfs, msbfs_on_session, reference_reachability
from repro.baselines import make_session
from repro.core import TsConfig, TsSession, ts_spgemm
from repro.data import bfs_frontier, erdos_renyi, random_sources, rmat
from repro.partition import DistHandle
from repro.sparse import (
    BOOL_AND_OR,
    MIN_PLUS,
    PLUS_TIMES,
    CsrMatrix,
    ewise_add,
    mask_entries,
    pattern_difference,
    spgemm,
)
from ..conftest import csr_from_dense, random_dense

N, D, P = 48, 6, 4


def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


class TestHandleChaining:
    """C = A·B chained into the next B without leaving the ranks."""

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize(
        "semiring", [BOOL_AND_OR, PLUS_TIMES, MIN_PLUS], ids=lambda s: s.name
    )
    def test_chain_bitwise_matches_driver_chain(self, rng, policy, semiring):
        a = csr_from_dense(random_dense(rng, N, N, 0.15, dtype=semiring.dtype))
        b = csr_from_dense(
            random_dense(rng, N, D, 0.4, dtype=semiring.dtype)
        ).astype(semiring.dtype)
        config = TsConfig(mode_policy=policy)
        with TsSession(a, P, semiring=semiring, config=config) as session:
            handle = session.scatter(b)
            reference = b
            for _ in range(3):
                mult = session.multiply(handle, gather=False)
                handle = mult.C
                assert isinstance(handle, DistHandle)
                reference = ts_spgemm(
                    a, reference, P, semiring=semiring, config=config
                ).C
                assert bitwise_equal(handle.gather(), reference)

    @pytest.mark.parametrize("kernel", ["auto", "esc-vectorized", "hash", "spa"])
    def test_chain_across_kernels(self, rng, kernel):
        a = csr_from_dense(random_dense(rng, N, N, 0.2, dtype=np.bool_))
        b = csr_from_dense(random_dense(rng, N, D, 0.3, dtype=np.bool_))
        config = TsConfig(kernel=kernel)
        with TsSession(a, P, semiring=BOOL_AND_OR, config=config) as session:
            handle = session.multiply(session.scatter(b), gather=False).C
            fresh = ts_spgemm(a, b, P, semiring=BOOL_AND_OR, config=config)
            assert bitwise_equal(handle.gather(), fresh.C)

    def test_naive_algorithm_accepts_handles(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P, algorithm="naive") as session:
            handle = session.multiply(session.scatter(b), gather=False).C
            fresh = ts_spgemm(a, b, P, algorithm="naive")
            assert bitwise_equal(handle.gather(), fresh.C)

    def test_gather_false_equals_gather_true(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            h = session.scatter(b)
            c_resident = session.multiply(h, gather=False).C.gather()
            c_gathered = session.multiply(h, gather=True).C
            assert bitwise_equal(c_resident, c_gathered)


class TestDriverTraffic:
    """Handles change where operands live, never what the multiply moves."""

    def test_default_accounting_matches_per_call_path(self, rng):
        """A session multiply of a driver-resident operand charges exactly
        like the per-call ts_spgemm path (pre-distributed convention)."""
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            mult = session.multiply(b, gather=True)
            fresh = ts_spgemm(a, b, P)
            assert mult.comm_bytes() == fresh.comm_bytes()
            assert bitwise_equal(mult.C, fresh.C)

    def test_multiply_traffic_identical_across_paths(self, rng):
        """Handle operand or driver operand, the multiply's per-phase wire
        traffic is byte-identical: no phase is added for either."""
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            via_handle = session.multiply(session.scatter(b), gather=False)
            via_driver = session.multiply(b, gather=True)
        assert via_handle.report.phase_bytes() == via_driver.report.phase_bytes()
        assert bitwise_equal(via_handle.C.gather(), via_driver.C)


class TestHandleSemantics:
    def test_foreign_handle_rejected(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as s1, TsSession(a, P) as s2:
            handle = s1.scatter(b)
            with pytest.raises(ValueError, match="different session"):
                s2.multiply(handle)

    def test_scatter_validates_shape(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        with TsSession(a, P) as session:
            with pytest.raises(ValueError, match="rows"):
                session.scatter(csr_from_dense(random_dense(rng, N + 1, D, 0.4)))

    def test_handle_nnz_and_gather_roundtrip(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            h = session.scatter(b)
            assert h.nnz == b.nnz
            assert h.shape == b.shape
            assert bitwise_equal(h.gather(), b)

    def test_apply_local_single_and_tuple_outputs(self, rng):
        from repro.sparse import ewise_add, pattern_difference

        a = csr_from_dense(random_dense(rng, N, N, 0.2, dtype=np.bool_))
        x = csr_from_dense(random_dense(rng, N, D, 0.3, dtype=np.bool_))
        y = csr_from_dense(random_dense(rng, N, D, 0.3, dtype=np.bool_))
        with TsSession(a, P, semiring=BOOL_AND_OR) as session:
            hx, hy = session.scatter(x), session.scatter(y)

            single, _ = session.apply_local(
                lambda comm, bx, by: ewise_add(bx, by, BOOL_AND_OR), hx, hy
            )
            assert bitwise_equal(single.gather(), ewise_add(x, y, BOOL_AND_OR))

            (diff, union), report = session.apply_local(
                lambda comm, bx, by: (
                    pattern_difference(bx, by),
                    ewise_add(bx, by, BOOL_AND_OR),
                ),
                hx,
                hy,
            )
            assert bitwise_equal(diff.gather(), pattern_difference(x, y))
            assert bitwise_equal(union.gather(), ewise_add(x, y, BOOL_AND_OR))
            # row-partitioned elementwise ops need zero communication
            assert report.total_bytes() == 0

    def test_closed_session_refuses_multiply(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        session = TsSession(a, P)
        h = session.scatter(b)
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.multiply(h)


class _HandleSpy:
    """Counts the handle lifecycle calls one traversal makes: session
    scatters, handle gathers, and the operand type of every multiply."""

    def __init__(self, monkeypatch):
        self.scatters = 0
        self.gathers = 0
        self.operands = []
        scatter, multiply, gather = (
            TsSession.scatter, TsSession.multiply, DistHandle.gather
        )

        def count_scatter(session, B):
            self.scatters += 1
            return scatter(session, B)

        def record_multiply(session, B, **kwargs):
            self.operands.append(B)
            return multiply(session, B, **kwargs)

        def count_gather(handle):
            self.gathers += 1
            return gather(handle)

        monkeypatch.setattr(TsSession, "scatter", count_scatter)
        monkeypatch.setattr(TsSession, "multiply", record_multiply)
        monkeypatch.setattr(DistHandle, "gather", count_gather)


def serial_frontiers(adj, sources):
    """Every level's entering frontier, from the serial Alg 3 recurrence."""
    a_bool = adj.astype(np.bool_)
    frontier = visited = bfs_frontier(adj.nrows, sources)
    frontiers = []
    while frontier.nnz > 0:
        frontiers.append(frontier)
        reached, _ = spgemm(a_bool, frontier, BOOL_AND_OR)
        frontier = pattern_difference(reached, visited)
        visited = ewise_add(visited, reached, BOOL_AND_OR)
    return frontiers


class TestMsbfsOnHandles:
    """The registry MS-BFS path rides handles end-to-end."""

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize("kernel", ["auto", "esc-vectorized", "hash", "spa"])
    def test_bit_identical_visited_vs_reference(self, policy, kernel):
        adj = rmat(128, 6, seed=7)
        sources = random_sources(128, 8, seed=3)
        config = TsConfig(mode_policy=policy, kernel=kernel)
        resident = msbfs(adj, sources, P, config=config)
        ref = reference_reachability(adj.astype(np.bool_), sources)
        assert bitwise_equal(resident.visited, ref)
        assert resident.levels == len(serial_frontiers(adj, sources))

    @pytest.mark.parametrize("algorithm", ["TS-SpGEMM", "TS-SpGEMM-Naive"])
    def test_scatter_once_gather_once_handles_every_level(
        self, monkeypatch, algorithm
    ):
        """Exactly one frontier scatter and one visited gather per
        traversal, and every level multiplies a rank-resident handle:
        zero driver bytes per level, by construction."""
        adj = rmat(128, 6, seed=8)
        sources = random_sources(128, 8, seed=4)
        spy = _HandleSpy(monkeypatch)
        result = msbfs(adj, sources, P, algorithm=algorithm)
        assert result.levels >= 3
        assert spy.scatters == 1
        assert spy.gathers == 1
        assert len(spy.operands) == result.levels
        assert all(isinstance(b, DistHandle) for b in spy.operands)
        ref = reference_reachability(adj.astype(np.bool_), sources)
        assert bitwise_equal(result.visited, ref)

    def test_on_session_entry_counts_the_same(self, monkeypatch):
        adj = erdos_renyi(80, 4, seed=5)
        sources = random_sources(80, 6, seed=6)
        with TsSession(adj.astype(np.bool_), P, semiring=BOOL_AND_OR) as session:
            spy = _HandleSpy(monkeypatch)
            reports = []
            result = msbfs_on_session(session, sources, reports=reports)
        assert (spy.scatters, spy.gathers) == (1, 1)
        assert len(spy.operands) == len(reports) == result.levels
        assert all(isinstance(b, DistHandle) for b in spy.operands)
        ref = reference_reachability(adj.astype(np.bool_), sources)
        assert bitwise_equal(result.visited, ref)

    @pytest.mark.parametrize("fuse", [True, False])
    def test_per_level_comm_matches_standalone_multiply(self, fuse):
        """Each level's trace is exactly one multiply's: comm bytes and
        rounds equal a standalone ``session.multiply`` of that level's
        frontier (the fused frontier update moves nothing)."""
        adj = erdos_renyi(80, 4, seed=5)
        sources = random_sources(80, 6, seed=6)
        config = TsConfig(fuse_comm=fuse)
        resident = msbfs(adj, sources, P, config=config)
        frontiers = serial_frontiers(adj, sources)
        assert resident.levels == len(frontiers) >= 3
        assert sum(it.comm_bytes for it in resident.iterations) > 0
        with TsSession(
            adj.astype(np.bool_), P, semiring=BOOL_AND_OR, config=config
        ) as session:
            for it, frontier in zip(resident.iterations, frontiers):
                alone = session.multiply(frontier)
                assert it.frontier_nnz == frontier.nnz
                assert it.comm_bytes == alone.comm_bytes()
                assert it.rounds == alone.rounds
                assert it.comm_time > 0

    def test_levels_after_setup_charge_zero_prepare(self):
        """The plan is prepared once, in the session's setup task; no
        level pays ``prepare`` compute again."""
        adj = rmat(256, 8, seed=12)
        sources = random_sources(256, 16, seed=3)
        with make_session(
            "TS-SpGEMM", adj.astype(np.bool_), P, semiring=BOOL_AND_OR
        ) as session:
            setup = session.setup_report
            assert max(
                rs.phases["prepare"].compute_time for rs in setup.rank_stats
            ) > 0
            reports = []
            result = msbfs_on_session(session, sources, reports=reports)
        assert result.levels == len(reports) >= 3
        for report in reports:
            for rs in report.rank_stats:
                assert "prepare" not in rs.phases

    def test_summa_session_like_for_like(self):
        """Fig 12(d)'s baseline amortizes its setup through a resident
        session as well and runs the same loop, without handles."""
        adj = erdos_renyi(48, 3, seed=7)
        sources = random_sources(48, 4, seed=4)
        result = msbfs(adj, sources, 4, algorithm="SUMMA-2D")
        ref = reference_reachability(adj.astype(np.bool_), sources)
        assert bitwise_equal(result.visited, ref)


class TestDerivedEdgeSubsetSessions:
    """Influence satellite: per-sample sessions masked from the full graph."""

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_derived_multiply_bit_identical(self, rng, policy):
        a = rmat(160, 6, seed=11).astype(np.bool_)
        config = TsConfig(mode_policy=policy)
        with TsSession(a, P, semiring=BOOL_AND_OR, config=config) as base:
            for draw in range(3):
                keep = rng.random(a.nnz) < 0.5
                live = mask_entries(a, keep)
                derived = base.derive_edge_subset(keep)
                b = csr_from_dense(
                    random_dense(rng, 160, D, 0.2, dtype=np.bool_)
                )
                got = derived.multiply(b)
                want = ts_spgemm(live, b, P, semiring=BOOL_AND_OR, config=config)
                assert bitwise_equal(got.C, want.C), (policy, draw)

    def test_derived_msbfs_matches_fresh_session(self, rng):
        a = rmat(128, 8, seed=12)
        a_bool = a.astype(np.bool_)
        sources = random_sources(128, 6, seed=5)
        keep = rng.random(a.nnz) < 0.4
        live = mask_entries(a, keep)
        with TsSession(a_bool, P, semiring=BOOL_AND_OR) as base:
            derived = base.derive_edge_subset(keep)
            via_derived = msbfs(live, sources, P, session=derived)
        via_fresh = msbfs(live, sources, P)
        assert bitwise_equal(via_derived.visited, via_fresh.visited)

    def test_derived_session_skips_reprepare_traffic(self, rng):
        """Derivation is a rank-local masking pass: no scatter, no Ac
        all-to-all — only the forced-policy mode exchange may appear."""
        a = rmat(128, 6, seed=13).astype(np.bool_)
        with TsSession(a, P, semiring=BOOL_AND_OR) as base:
            keep = rng.random(a.nnz) < 0.5
            derived = base.derive_edge_subset(keep)
            phases = derived.setup_report.phase_bytes()
            assert phases.get("build-Ac", 0) == 0
            assert base.setup_report.phase_bytes()["build-Ac"] > 0

    def test_keep_mask_length_validated(self, rng):
        a = rmat(64, 4, seed=14).astype(np.bool_)
        with TsSession(a, 2, semiring=BOOL_AND_OR) as base:
            with pytest.raises(ValueError, match="stored edges"):
                base.derive_edge_subset(np.ones(a.nnz + 1, dtype=bool))

    def test_influence_samples_match_fresh_msbfs(self, monkeypatch):
        """Every derived per-sample session reaches exactly what a fresh
        msbfs on the masked matrix reaches."""
        import repro.apps.influence as influence
        from repro.apps import influence_maximization

        adj = rmat(96, 6, seed=15)
        probability, seed = 0.3, 4
        traversals = []
        real_msbfs = influence.msbfs

        def recording_msbfs(A, sources, p, **kwargs):
            out = real_msbfs(A, sources, p, **kwargs)
            traversals.append((np.array(sources), out.visited))
            return out

        monkeypatch.setattr(influence, "msbfs", recording_msbfs)
        result = influence_maximization(
            adj, k=2, p=2, probability=probability, samples=3, seed=seed
        )
        assert len(traversals) == result.samples == 3
        for r, (sources, visited) in enumerate(traversals):
            keep = influence.sample_keep_mask(
                adj, probability, influence.sample_rng(seed, r)
            )
            fresh = real_msbfs(mask_entries(adj, keep), sources, 2)
            assert bitwise_equal(visited, fresh.visited), r
