"""Algorithm 3: distributed multi-source BFS on the (∧, ∨) semiring.

``d`` concurrent BFS traversals are carried as a tall-and-skinny boolean
frontier matrix ``F ∈ B^{n×d}`` (column ``j`` = frontier of source ``j``);
each level is one TS-SpGEMM ``N = A ⊗ F``, after which already-visited
vertices are removed (``F ← N \\ S``) and the visited set updated
(``S ← S ∨ N``).  For scale-free graphs the frontier density spikes for a
few levels and then thins out (Fig 12a) — which is why this application is
"an excellent testing ground" for TS-SpGEMM: the same loop can be driven
by any registered multiply (Fig 12d compares against 2-D SUMMA).

Every entry point runs the same level loop.  With a handle-capable
resident session (the TS algorithms) the whole traversal stays **on-rank
end-to-end**: the initial frontier is scattered once, every level chains
the multiply's :class:`~repro.partition.distmat.DistHandle` output into
the next level's operand, and the frontier update runs inside the rank
program as local pattern ops (it is row-partitioned — zero
communication), exactly like the paper's Alg 3.  The visited set is
gathered once, after the loop.  The baselines (the SUMMA sessions, the
session-less PETSc-1D) return a driver-side product each level, and the
loop applies the same frontier update to it on the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..baselines.registry import get_algorithm, make_session
from ..core.config import DEFAULT_CONFIG, TsConfig
from ..core.driver import TsSession
from ..data.generators import bfs_frontier
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..sparse.csr import CsrMatrix
from ..sparse.ops import ewise_add, pattern_difference
from ..sparse.semiring import BOOL_AND_OR


@dataclass
class BfsIteration:
    """Measurements for one BFS level (the series of Fig 12)."""

    iteration: int
    frontier_nnz: int  # nnz(F) entering this level
    discovered_nnz: int  # nnz of newly visited vertices
    comm_bytes: int
    comm_nnz: int  # communicated nonzeros (B rows + C partials)
    runtime: float  # modelled seconds of this level's multiply
    comm_time: float
    #: All-to-all exchanges this level performed — the α·rounds term
    #: ``fuse_comm`` collapses to one fused exchange per multiply.
    rounds: int = 0
    #: Resilience trace (recoverable sessions only, docs/resilience.md):
    #: how many times this level's multiply was retried after an injected
    #: fault, how many rank recoveries those retries performed, and how
    #: many elastic shrinks (permanent rank losses survived at p-1).
    retries: int = 0
    recoveries: int = 0
    shrinks: int = 0


@dataclass
class BfsResult:
    """Outcome of a multi-source BFS run."""

    visited: CsrMatrix  # S: column j = vertices reachable from source j
    iterations: List[BfsIteration] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return sum(it.runtime for it in self.iterations)

    @property
    def levels(self) -> int:
        return len(self.iterations)

    def reachable_counts(self) -> np.ndarray:
        """Vertices reached per source (column nnz of the visited set)."""
        counts = np.zeros(self.visited.ncols, dtype=np.int64)
        np.add.at(counts, self.visited.indices, 1)
        return counts


def _frontier_update(comm, reached: CsrMatrix, visited: CsrMatrix):
    """Rank-local Alg 3 frontier update: ``F ← N \\ S``, ``S ← S ∨ N``.

    Row-partitioned, so it needs zero communication; the streaming cost
    of touching the newly reached block is charged.
    """
    with comm.phase("frontier-update"):
        frontier = pattern_difference(reached, visited)
        new_visited = ewise_add(visited, reached, BOOL_AND_OR)
        comm.charge_touch(reached.nbytes_estimate())
    return frontier, new_visited


def msbfs(
    A: CsrMatrix,
    sources: np.ndarray,
    p: int,
    *,
    algorithm: str = "TS-SpGEMM",
    config: TsConfig = DEFAULT_CONFIG,
    machine: MachineProfile = PERLMUTTER,
    max_levels: Optional[int] = None,
    session=None,
) -> BfsResult:
    """Run multi-source BFS from ``sources`` on ``p`` simulated ranks.

    ``A`` must contain an entry ``(v, u)`` for every traversable edge
    ``u → v`` (for the symmetric graphs of the evaluation this is just the
    adjacency matrix).  ``algorithm`` is any registry name — the paper's
    Fig 12(d) runs the same loop over 2-D SUMMA for comparison.

    When the algorithm offers a resident session, ``A`` is distributed
    and prepared **once** and every level multiplies against it; for the
    TS algorithms the traversal also stays on-rank (see the module
    docstring).  An algorithm without a session (PETSc-1D) launches one
    full simulated job per level.

    ``session`` injects a pre-built resident session for ``A`` (used by
    influence maximization's derived per-sample sessions); the caller
    keeps ownership, otherwise the session created here is closed before
    returning.
    """
    if A.nrows != A.ncols:
        raise ValueError("adjacency matrix must be square")
    sources = np.asarray(sources, dtype=np.int64)
    multiply = get_algorithm(algorithm)
    if session is not None:
        return _msbfs_loop(session, A.nrows, sources, max_levels)
    a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
    session = make_session(
        algorithm, a_bool, p, semiring=BOOL_AND_OR, machine=machine, config=config
    )
    if session is None:
        return _msbfs_loop(
            lambda frontier: multiply(
                a_bool, frontier, p, semiring=BOOL_AND_OR, machine=machine,
                config=config,
            ),
            A.nrows, sources, max_levels,
        )
    try:
        return _msbfs_loop(session, A.nrows, sources, max_levels)
    finally:
        session.close()


def msbfs_on_session(
    session: TsSession,
    sources: np.ndarray,
    *,
    max_levels: Optional[int] = None,
    reports: Optional[list] = None,
) -> BfsResult:
    """Multi-source BFS directly on a prepared resident session.

    The serving tier's entry point (:mod:`repro.serve`): a
    :class:`~repro.core.driver.TsSession` already holds the distributed
    boolean graph and its multiply plan, so a traversal needs only the
    source batch — many users' independent BFS queries concatenate into
    one ``sources`` array and come back as independent columns of the
    visited matrix (the (∧,∨) semiring never mixes columns, so each
    query's answer is bit-identical however the batcher groups them).
    ``reports`` (optional list) receives each level's
    :class:`~repro.mpi.stats.SpmdReport` for the caller to fold with
    :func:`~repro.mpi.stats.merge_reports`.
    """
    if not getattr(session, "supports_handles", False):
        raise ValueError(
            "msbfs_on_session needs a handle-capable resident session"
        )
    sources = np.asarray(sources, dtype=np.int64)
    return _msbfs_loop(session, session.ncols, sources, max_levels, reports)


def _msbfs_loop(
    session, n: int, sources: np.ndarray, max_levels: Optional[int],
    reports: Optional[list] = None,
) -> BfsResult:
    """The one level loop behind every MS-BFS entry point.

    ``session`` is a registry session or, for algorithms without one, a
    plain ``multiply(frontier)`` callable.  A handle-capable session
    (dispatch on the registry's capability flag, not the concrete class,
    so third-party sessions ride it too) scatters the frontier once and
    runs each level as one rank program — multiply plus the fused
    rank-local frontier update — chaining handles; the visited set is
    gathered once at the end.  Otherwise each level's product comes back
    to the driver, which applies the same update.
    """
    resident = bool(getattr(session, "supports_handles", False))
    multiply = getattr(session, "multiply", session)
    frontier = bfs_frontier(n, sources)
    if resident:
        frontier = session.scatter(frontier)
    visited = frontier
    result = BfsResult(visited=None)
    while frontier.nnz > 0:
        if max_levels is not None and result.levels >= max_levels:
            break
        entering_nnz = frontier.nnz
        if resident:
            mult = multiply(
                frontier,
                gather=False,
                epilogue=_frontier_update,
                epilogue_operands=(visited,),
            )
            frontier, visited = mult.extra
        else:
            mult = multiply(frontier)
            frontier = pattern_difference(mult.C, visited)  # F <- N \ S
            visited = ewise_add(visited, mult.C, BOOL_AND_OR)  # S <- S v N
        if reports is not None:
            reports.append(mult.report)
        diagnostics = getattr(mult, "diagnostics", {}) or {}
        result.iterations.append(
            BfsIteration(
                iteration=result.levels,
                frontier_nnz=entering_nnz,
                discovered_nnz=frontier.nnz,
                comm_bytes=mult.comm_bytes(),
                comm_nnz=int(
                    diagnostics.get("sent_b_nnz", 0)
                    + diagnostics.get("sent_c_nnz", 0)
                ),
                # On the resident path this includes the fused rank-local
                # frontier update.
                runtime=mult.multiply_time,
                comm_time=mult.comm_time,
                rounds=mult.report.alltoall_rounds(),
                retries=int(diagnostics.get("retries", 0)),
                recoveries=int(diagnostics.get("recoveries", 0)),
                shrinks=int(diagnostics.get("shrinks", 0)),
            )
        )
    result.visited = visited.gather() if resident else visited
    return result


def reference_reachability(A: CsrMatrix, sources: np.ndarray) -> CsrMatrix:
    """Serial reachability reference (BFS per source over the CSR graph).

    Used by tests to validate the distributed loop; O(d · (n + m)).
    """
    n = A.nrows
    sources = np.asarray(sources, dtype=np.int64)
    rows_out, cols_out = [], []
    indptr, indices = A.indptr, A.indices
    for j, s in enumerate(sources):
        seen = np.zeros(n, dtype=bool)
        seen[s] = True
        stack = [int(s)]
        while stack:
            u = stack.pop()
            # follow entries (v <- u): for symmetric A the row works; in
            # general A[v, u] != 0 means edge u -> v, so we traverse rows
            # of A^T — callers pass symmetric graphs in the tests.
            neighbors = indices[indptr[u] : indptr[u + 1]]
            for v in neighbors:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        reach = np.flatnonzero(seen)
        rows_out.append(reach)
        cols_out.append(np.full(len(reach), j, dtype=np.int64))
    from ..sparse.build import coo_to_csr
    from ..sparse.semiring import Semiring

    sr = Semiring("dedup_or", np.logical_or, np.logical_and, False, np.dtype(np.bool_))
    return coo_to_csr(
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.ones(sum(len(r) for r in rows_out), dtype=np.bool_),
        (n, len(sources)),
        sr,
    )
