"""The SPMD-resident embedding epoch vs a driver-side reference.

The contract: one resident epoch — distributed SDDMM → TS-SpGEMM → fused
SGD/top-k epilogue, all rank-resident — leaves force coefficients on the
ranks **bit-identical** to the driver-side
:func:`~repro.sparse.sddmm.force2vec_coefficients` over the global dense
``Z``, and produces a ``Z`` bit-identical to the driver-side SGD/top-k
step on a session built from those coefficients.  This holds on a fresh
pattern and after a values-only ``update_operand``, for any kernel, mode
policy and fused/unfused schedule.  Whole trainings scatter their
operands once and gather the embedding once: no epoch moves a byte
through the driver.
"""

import threading

import numpy as np
import pytest

from repro.apps import train_sparse_embedding
from repro.apps.embedding import _make_sgd_epilogue, _sddmm_prologue
from repro.core import TsConfig, TsSession
from repro.data import planted_partition
from repro.partition import DistHandle
from repro.sparse import CsrMatrix, row_topk
from repro.sparse.sddmm import force2vec_coefficients

P, D, KEEP, LR = 3, 8, 4, 0.05


@pytest.fixture(scope="module")
def community_graph():
    adj, _ = planted_partition(96, 3, p_in=0.25, p_out=0.02, seed=21)
    return adj


def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def force_pattern(adj, rng):
    """A ±1 force pattern: +1 on every edge, -1 on sampled non-edges."""
    labels = (adj.to_dense() != 0).astype(np.float64)
    labels[(rng.random(labels.shape) < 0.05) & (labels == 0)] = -1.0
    return CsrMatrix.from_dense(labels)


def driver_epoch(pattern, z_sparse, config):
    """Driver-side reference epoch: SDDMM over the global dense ``Z``, a
    session built from those coefficients, and the SGD/top-k step."""
    z_dense = z_sparse.to_dense()
    coeffs = force2vec_coefficients(pattern, z_dense, z_dense, pattern.data)
    w = CsrMatrix(
        pattern.shape, pattern.indptr, pattern.indices, coeffs, check=False
    )
    with TsSession(w, P, config=config) as session:
        grad = session.multiply(z_sparse).C.to_dense()
    return coeffs, row_topk(CsrMatrix.from_dense(z_dense - LR * grad), KEEP)


def resident_epoch(session, pattern, z_sparse):
    """One resident epoch, exactly as training runs it; returns the
    coefficients it left on the ranks (global CSR order) and the new Z."""
    z_sp = session.scatter(z_sparse)
    z_dn = session.scatter_dense(z_sparse.to_dense())
    labels = session.scatter(pattern)
    mult = session.multiply(
        z_sp,
        gather=False,
        prologue=_sddmm_prologue,
        prologue_operands=(z_sp, z_dn, labels),
        epilogue=_make_sgd_epilogue(LR, KEEP),
        epilogue_operands=(z_dn,),
    )
    resident = {}

    def read_values(comm, operand):
        resident[comm.rank] = operand.local.data.copy()

    session.multiply(z_sp, gather=False, prologue=read_values)
    coeffs = np.concatenate([resident[r] for r in range(session.p)])
    return coeffs, mult.extra[0].gather()


def check_against_driver(adj, config):
    rng = np.random.default_rng(5)
    pattern = force_pattern(adj, rng)
    z0 = row_topk(
        CsrMatrix.from_dense((rng.random((adj.nrows, D)) - 0.5) / np.sqrt(D)),
        KEEP,
    )
    # Same pattern, new values: update_operand takes the values-only path.
    flipped = CsrMatrix(
        pattern.shape, pattern.indptr, pattern.indices, -pattern.data,
        check=False,
    )
    with TsSession(pattern, P, config=config) as session:
        got_coeffs, z1 = resident_epoch(session, pattern, z0)
        want_coeffs, want_z1 = driver_epoch(pattern, z0, config)
        assert np.array_equal(got_coeffs, want_coeffs)
        assert bitwise_equal(z1, want_z1)

        session.update_operand(flipped)
        got_coeffs, z2 = resident_epoch(session, flipped, z1)
        want_coeffs, want_z2 = driver_epoch(flipped, z1, config)
        assert np.array_equal(got_coeffs, want_coeffs)
        assert bitwise_equal(z2, want_z2)


class TestEpochMatchesDriverSide:
    @pytest.mark.parametrize(
        "kernel", ["auto", "scipy", "esc-vectorized", "hash", "spa"]
    )
    def test_across_kernels(self, community_graph, kernel):
        check_against_driver(
            community_graph, TsConfig(kernel=kernel, tile_height=32)
        )

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize("fuse", [True, False])
    def test_across_mode_policies(self, community_graph, policy, fuse):
        check_against_driver(
            community_graph,
            TsConfig(mode_policy=policy, fuse_comm=fuse, tile_height=32),
        )

    @pytest.mark.parametrize("refresh", [1, 2, 3])
    def test_negative_refresh_composition(
        self, community_graph, monkeypatch, refresh
    ):
        """A whole training run equals the driver-side epoch chained over
        the same draws: the prepared state survives the values-only
        epochs between redraws, each redraw re-sets up, and Z never
        drifts from the reference."""
        config = TsConfig(tile_height=32)
        scattered = []
        scatter = TsSession.scatter

        def record_scatter(session, matrix):
            scattered.append(matrix)
            return scatter(session, matrix)

        monkeypatch.setattr(TsSession, "scatter", record_scatter)
        epochs = 5
        result = train_sparse_embedding(
            community_graph, P, d=D, sparsity=0.5, epochs=epochs, seed=5,
            negative_refresh=refresh, learning_rate=LR, config=config,
        )
        monkeypatch.undo()
        z, draws = scattered[0], scattered[1:]
        assert len(draws) == -(-epochs // refresh)
        for epoch in range(epochs):
            _, z = driver_epoch(draws[epoch // refresh], z, config)
        assert bitwise_equal(result.Z, z)


class TestDriverTraffic:
    @pytest.mark.parametrize("refresh", [1, 3])
    def test_operands_scattered_once_embedding_gathered_once(
        self, community_graph, monkeypatch, refresh
    ):
        """Z and its dense twin are scattered once, labels once per
        negative-sample draw, the embedding gathered once; every epoch
        multiplies a rank-resident handle."""
        counts = {"scatter": 0, "scatter_dense": 0, "gather": 0}
        operands = []
        scatter, scatter_dense = TsSession.scatter, TsSession.scatter_dense
        multiply, gather = TsSession.multiply, DistHandle.gather

        def count(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def record_multiply(session, B, **kwargs):
            operands.append(B)
            return multiply(session, B, **kwargs)

        monkeypatch.setattr(TsSession, "scatter", count("scatter", scatter))
        monkeypatch.setattr(
            TsSession, "scatter_dense", count("scatter_dense", scatter_dense)
        )
        monkeypatch.setattr(TsSession, "multiply", record_multiply)
        monkeypatch.setattr(DistHandle, "gather", count("gather", gather))
        epochs = 6
        train_sparse_embedding(
            community_graph, P, d=D, sparsity=0.5, epochs=epochs, seed=7,
            negative_refresh=refresh,
        )
        draws = -(-epochs // refresh)
        assert counts == {"scatter": 1 + draws, "scatter_dense": 1, "gather": 1}
        assert len(operands) == epochs
        assert all(isinstance(b, DistHandle) for b in operands)

    def test_sddmm_fetch_is_charged(self, community_graph):
        """The distributed SDDMM's row fetch must appear as wire traffic —
        the honest accounting the driver-side simplification skipped."""
        result = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=2, seed=9
        )
        assert all(e.comm_bytes > 0 for e in result.epochs)

    def test_sddmm_fetch_falls_with_sparsity(self, community_graph):
        """Fetched Z rows ship sparse, so epoch traffic still falls as the
        embedding gets sparser (the Fig 13c invariant on the resident
        path)."""
        dense = train_sparse_embedding(
            community_graph, 3, d=16, sparsity=0.0, epochs=2, seed=10
        )
        sparse = train_sparse_embedding(
            community_graph, 3, d=16, sparsity=0.875, epochs=2, seed=10
        )
        assert sparse.total_comm_bytes < dense.total_comm_bytes


class TestSessionLifecycle:
    def test_repeated_training_releases_sessions(self, community_graph):
        """Each run closes its session; rank-worker threads must not
        accumulate across trainings."""
        train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=2, seed=11
        )
        baseline = threading.active_count()
        for _ in range(3):
            train_sparse_embedding(
                community_graph, 3, d=8, sparsity=0.5, epochs=2, seed=11
            )
        assert threading.active_count() <= baseline + 3

    def test_determinism_across_runs(self, community_graph):
        r1 = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=3, seed=12
        )
        r2 = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=3, seed=12
        )
        assert bitwise_equal(r1.Z, r2.Z)
        assert r1.accuracy == r2.accuracy

    def test_derive_still_works_on_embedding_style_sessions(self, rng):
        """Value-refreshed sessions keep the derive machinery intact:
        refresh values via a prologue, then derive an edge subset — the
        child must match a fresh session on the refreshed masked matrix."""
        from repro.core import TsSession, ts_spgemm
        from repro.sparse import mask_entries
        from ..conftest import csr_from_dense, random_dense

        a = csr_from_dense(random_dense(rng, 48, 48, 0.2))
        b = csr_from_dense(random_dense(rng, 48, 6, 0.4))
        new_vals = rng.random(a.nnz) + 0.5
        keep = rng.random(a.nnz) < 0.7

        def prologue(comm, operand):
            lo, hi = operand.rows.range_of(comm.rank)
            operand.refresh_values(new_vals[a.indptr[lo] : a.indptr[hi]])

        with TsSession(a, 4) as session:
            session.multiply(b, prologue=prologue)
            child = session.derive_edge_subset(keep)
            got = child.multiply(b).C
        a2 = CsrMatrix(a.shape, a.indptr, a.indices, new_vals, check=False)
        want = ts_spgemm(mask_entries(a2, keep), b, 4).C
        assert bitwise_equal(got, want)
